//! Collective operations layered on point-to-point messaging.
//!
//! What the launcher, the examples and the tests run: barrier, broadcast,
//! gather and the sum reductions built on them. All collectives here use
//! simple, deterministic algorithms (flat root-based trees for
//! gather/bcast, dissemination for barrier), which is appropriate for the
//! in-process scale of this runtime.

use crate::comm::{Comm, Tag, COLLECTIVE_SEQ_WINDOWS, COLLECTIVE_SLOTS, COLLECTIVE_TAG_BASE};

/// Per-operation slot offsets within a collective's sequence window.
/// Slots 0..63 are the barrier's per-round tags.
const SLOT_BCAST: Tag = 64;
const SLOT_GATHER: Tag = 65;

/// Tag for `slot` within the window of collective sequence `seq`.
/// Sequence numbers wrap after [`COLLECTIVE_SEQ_WINDOWS`] calls, which is
/// safe because far fewer than 8192 collectives can be in flight at once.
fn coll_tag(seq: u64, slot: Tag) -> Tag {
    debug_assert!(slot < COLLECTIVE_SLOTS);
    COLLECTIVE_TAG_BASE + (seq % COLLECTIVE_SEQ_WINDOWS) * COLLECTIVE_SLOTS + slot
}

impl Comm {
    /// Block until every rank of the communicator has entered the barrier.
    ///
    /// Uses the dissemination algorithm: `ceil(log2(n))` rounds, in round
    /// `k` rank `r` signals `r + 2^k (mod n)` and waits on `r - 2^k (mod n)`.
    pub fn barrier(&self) {
        let seq = self.next_collective_seq();
        let n = self.size();
        if n == 1 {
            return;
        }
        let mut round: Tag = 0;
        let mut dist = 1;
        while dist < n {
            let to = (self.rank() + dist) % n;
            let from = (self.rank() + n - dist) % n;
            // Round-specific tag within this barrier's sequence window:
            // at most 64 dissemination rounds are possible (2^64 ranks).
            self.send(to, coll_tag(seq, round), &[]);
            let _ = self.recv(from, coll_tag(seq, round));
            round += 1;
            dist <<= 1;
        }
    }

    /// Broadcast `data` from `root` to every rank; each rank returns the
    /// root's bytes.
    pub fn bcast(&self, root: usize, data: &[u8]) -> Vec<u8> {
        let tag = coll_tag(self.next_collective_seq(), SLOT_BCAST);
        assert!(root < self.size());
        if self.size() == 1 {
            return data.to_vec();
        }
        if self.rank() == root {
            for r in 0..self.size() {
                if r != root {
                    self.send(r, tag, data);
                }
            }
            data.to_vec()
        } else {
            self.recv(root, tag)
        }
    }

    /// Gather every rank's `data` at `root`. The root receives
    /// `Some(contributions)` indexed by rank; other ranks receive `None`.
    pub fn gather(&self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let tag = coll_tag(self.next_collective_seq(), SLOT_GATHER);
        assert!(root < self.size());
        if self.rank() == root {
            let mut out = vec![Vec::new(); self.size()];
            out[root] = data.to_vec();
            for _ in 0..self.size() - 1 {
                let (src, payload) = self.recv_any(tag);
                out[src] = payload;
            }
            Some(out)
        } else {
            self.send(root, tag, data);
            None
        }
    }

    /// Sum-reduce a `u64` to `root`; the root gets `Some(total)`.
    pub fn reduce_sum_u64(&self, root: usize, value: u64) -> Option<u64> {
        let contributions = self.gather(root, &value.to_le_bytes())?;
        Some(
            contributions
                .iter()
                .map(|b| u64::from_le_bytes(b.as_slice().try_into().expect("u64 payload")))
                .sum(),
        )
    }

    /// Sum-reduce a `u64` to every rank.
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        let total = self.reduce_sum_u64(0, value);
        let bytes = self.bcast(0, &total.unwrap_or(0).to_le_bytes());
        u64::from_le_bytes(bytes.try_into().expect("u64 payload"))
    }

    /// Element-wise sum of equal-length `f64` vectors, result on all ranks.
    /// Used by analytics to merge histograms (paper §IV.A).
    pub fn allreduce_sum_f64_vec(&self, values: &[f64]) -> Vec<f64> {
        let bytes = crate::typed::f64s_as_bytes(values);
        let contributions = self.gather(0, &bytes);
        let merged = match contributions {
            Some(parts) => {
                let mut acc = vec![0.0f64; values.len()];
                for part in &parts {
                    let vals = crate::typed::bytes_as_f64s(part);
                    assert_eq!(vals.len(), acc.len(), "vectors must be same length");
                    for (a, v) in acc.iter_mut().zip(vals) {
                        *a += v;
                    }
                }
                crate::typed::f64s_as_bytes(&acc)
            }
            None => Vec::new(),
        };
        let merged = self.bcast(0, &merged);
        crate::typed::bytes_as_f64s(&merged)
    }
}

#[cfg(test)]
mod tests {
    use crate::launch;

    #[test]
    fn barrier_synchronizes_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        launch(8, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 8 arrivals.
            assert_eq!(c2.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let results = launch(5, |comm| comm.bcast(3, &[comm.rank() as u8]));
        for r in results {
            assert_eq!(r, vec![3]);
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let results = launch(4, |comm| comm.gather(1, &[comm.rank() as u8 * 10]));
        assert!(results[0].is_none());
        let at_root = results[1].as_ref().unwrap();
        assert_eq!(at_root, &vec![vec![0], vec![10], vec![20], vec![30]]);
    }

    #[test]
    fn reductions() {
        let sums = launch(4, |comm| comm.allreduce_sum_u64(comm.rank() as u64 + 1));
        assert_eq!(sums, vec![10, 10, 10, 10]);
        let at_root = launch(3, |comm| comm.reduce_sum_u64(2, comm.rank() as u64 * 7));
        assert_eq!(at_root, vec![None, None, Some(21)]);
    }

    #[test]
    fn back_to_back_gathers_never_cross_match() {
        // Regression: without per-collective sequence tags, a fast rank's
        // round-2 contribution could satisfy the root's round-1 receive
        // (needs >= 3 ranks to manifest). Run many consecutive gathers
        // with skewed rank speeds and verify every round's contents.
        let results = launch(5, |comm| {
            let mut ok = true;
            for round in 0u64..50 {
                // Skew: higher ranks race ahead.
                if comm.rank() == 1 {
                    std::thread::yield_now();
                }
                let payload = (round * 100 + comm.rank() as u64).to_le_bytes();
                if let Some(parts) = comm.gather(0, &payload) {
                    for (rank, part) in parts.iter().enumerate() {
                        let v = u64::from_le_bytes(part.as_slice().try_into().unwrap());
                        ok &= v == round * 100 + rank as u64;
                    }
                }
            }
            ok
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn back_to_back_barriers_and_gathers() {
        // Barriers and gathers interleaved, with a different root each
        // round, reuse the sequence windows across collective kinds.
        let results = launch(4, |comm| {
            let mut ok = true;
            for round in 0u64..20 {
                comm.barrier();
                let root = round as usize % 4;
                if let Some(parts) = comm.gather(root, &[(round * 4) as u8 + comm.rank() as u8]) {
                    for (src, msg) in parts.iter().enumerate() {
                        ok &= msg[..] == [(round * 4) as u8 + src as u8];
                    }
                }
            }
            ok
        });
        assert!(results.iter().all(|&ok| ok));
    }

    #[test]
    fn vector_reduction_merges_histograms() {
        let results = launch(4, |comm| {
            let mut hist = vec![0.0f64; 8];
            hist[comm.rank() * 2] = 1.0;
            comm.allreduce_sum_f64_vec(&hist)
        });
        for hist in results {
            assert_eq!(hist, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        }
    }
}
