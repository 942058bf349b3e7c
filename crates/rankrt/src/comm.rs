//! Point-to-point messaging between ranks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

/// Message tag, as in MPI. Tags below `COLLECTIVE_TAG_BASE` (near
/// `u64::MAX`) are available to applications; higher values are reserved
/// for collectives.
pub type Tag = u64;

/// Reserved tag space used internally by collectives: 8192 sequence
/// windows of 128 slots each. Every collective call advances the
/// communicator's sequence number, so messages from consecutive
/// collectives can never cross-match (without this, a fast rank's
/// round-N+1 contribution could satisfy a slow root's round-N receive).
pub(crate) const COLLECTIVE_TAG_BASE: Tag = u64::MAX - (1 << 20);
pub(crate) const COLLECTIVE_SEQ_WINDOWS: u64 = 8192;
pub(crate) const COLLECTIVE_SLOTS: u64 = 128;

/// A message in flight: the sending rank, the tag, and the payload bytes.
struct Envelope {
    src: usize,
    tag: Tag,
    payload: Vec<u8>,
}

/// Shared channel fabric for one communicator: one inbox per rank.
struct Fabric {
    senders: Vec<Sender<Envelope>>,
}

/// A communicator handle owned by a single rank.
///
/// A `Comm` is *not* `Sync`: exactly one thread (the rank's thread) drives
/// it, matching MPI's single-threaded-per-rank model. It is `Send` so it can
/// be moved into the rank's thread at launch.
pub struct Comm {
    rank: usize,
    fabric: Arc<Fabric>,
    inbox: Receiver<Envelope>,
    /// Messages that arrived but did not match the receive in progress.
    pending: RefCell<VecDeque<Envelope>>,
    /// Collective sequence number; advances identically on every rank
    /// because collectives are called in program order (SPMD).
    coll_seq: Cell<u64>,
}

impl Comm {
    /// Build a fully-connected communicator of `size` ranks.
    ///
    /// Returns one `Comm` per rank; each must be moved to its own thread.
    pub(crate) fn fabric(size: usize) -> Vec<Comm> {
        assert!(size > 0, "communicator must have at least one rank");
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let fabric = Arc::new(Fabric { senders });
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| Comm {
                rank,
                fabric: Arc::clone(&fabric),
                inbox,
                pending: RefCell::new(VecDeque::new()),
                coll_seq: Cell::new(0),
            })
            .collect()
    }

    /// Advance and return this rank's collective sequence number (used by
    /// the collectives module to build per-round tag windows).
    pub(crate) fn next_collective_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// This rank's index within the communicator, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.fabric.senders.len()
    }

    /// Send `payload` to rank `dst` with tag `tag`.
    ///
    /// Sends are buffered (MPI "standard mode" with unlimited eager
    /// buffering): the call never blocks.
    pub fn send(&self, dst: usize, tag: Tag, payload: &[u8]) {
        assert!(dst < self.size(), "destination rank {dst} out of range");
        let env = Envelope { src: self.rank, tag, payload: payload.to_vec() };
        // The receiver half only disappears if the peer thread has exited,
        // which in this runtime means the program is tearing down; sends to
        // departed ranks are silently dropped like MPI after finalize.
        let _ = self.fabric.senders[dst].send(env);
    }

    /// Blocking receive matching a specific `(src, tag)`.
    pub fn recv(&self, src: usize, tag: Tag) -> Vec<u8> {
        self.recv_matching(|e| e.src == src && e.tag == tag).payload
    }

    /// Blocking receive matching any source with the given tag.
    /// Returns `(source_rank, payload)`.
    pub fn recv_any(&self, tag: Tag) -> (usize, Vec<u8>) {
        let env = self.recv_matching(|e| e.tag == tag);
        (env.src, env.payload)
    }

    /// Core matching loop shared by the receive variants.
    fn recv_matching(&self, matches: impl Fn(&Envelope) -> bool) -> Envelope {
        loop {
            if let Some(env) = self.take_pending(&matches) {
                return env;
            }
            let env = self.inbox.recv().expect("fabric sender vanished");
            if matches(&env) {
                return env;
            }
            self.pending.borrow_mut().push_back(env);
        }
    }

    /// Remove and return the first pending message satisfying `matches`,
    /// preserving FIFO order per `(src, tag)`.
    fn take_pending(&self, matches: impl Fn(&Envelope) -> bool) -> Option<Envelope> {
        let mut pending = self.pending.borrow_mut();
        let idx = pending.iter().position(matches)?;
        pending.remove(idx)
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm").field("rank", &self.rank).field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn two_rank_ping_pong() {
        let mut comms = Comm::fabric(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let t = thread::spawn(move || {
            let msg = c1.recv(0, 1);
            c1.send(0, 2, &msg);
        });
        c0.send(1, 1, b"ping");
        assert_eq!(c0.recv(1, 2), b"ping");
        t.join().unwrap();
    }

    #[test]
    fn tag_matching_buffers_unrelated_messages() {
        let mut comms = Comm::fabric(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let t = thread::spawn(move || {
            c1.send(0, 10, b"first-on-10");
            c1.send(0, 20, b"first-on-20");
            c1.send(0, 10, b"second-on-10");
        });
        // Receive tag 20 first even though tag 10 arrived earlier.
        assert_eq!(c0.recv(1, 20), b"first-on-20");
        assert_eq!(c0.recv(1, 10), b"first-on-10");
        assert_eq!(c0.recv(1, 10), b"second-on-10");
        t.join().unwrap();
    }

    #[test]
    fn fifo_order_per_pair() {
        let mut comms = Comm::fabric(2);
        let c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let t = thread::spawn(move || {
            for i in 0u64..100 {
                c1.send(0, 5, &i.to_le_bytes());
            }
        });
        for i in 0u64..100 {
            let got = c0.recv(1, 5);
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), i);
        }
        t.join().unwrap();
    }

    #[test]
    fn recv_any_reports_source() {
        let mut comms = Comm::fabric(3);
        let c2 = comms.pop().unwrap();
        let _c1 = comms.pop().unwrap();
        let c0 = comms.pop().unwrap();
        let t = thread::spawn(move || c2.send(0, 1, b"from-two"));
        let (src, payload) = c0.recv_any(1);
        assert_eq!(src, 2);
        assert_eq!(payload, b"from-two");
        t.join().unwrap();
    }
}
