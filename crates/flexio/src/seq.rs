//! Sequence framing: the layer a link installs between the protocol and
//! the fault layer when a fault plan is active, so duplicated, reordered
//! and dropped messages are healed or accounted for below the engine.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use evpath::{
    BoxedReceiver, BoxedSender, EvReceiver, EvSender, Lease, RecvPoll, StackVec, FRAME_SLICES,
};

use crate::protocol::ProtocolCounters;

/// Out-of-order messages buffered before giving up on a gap (writing the
/// missing sequence numbers off as dropped).
const GAP_SKIP_THRESHOLD: usize = 4;

/// Sender half of the sequence-framing layer installed when a fault plan
/// is active: prepends a little-endian `u64` sequence number so the
/// receiving [`SeqReceiver`] can discard duplicates, heal reorders and
/// observe drops. Not installed on fault-free streams — the framing byte
/// cost and counters stay out of the default path.
pub(crate) struct SeqSender {
    inner: BoxedSender,
    next: u64,
}

impl SeqSender {
    pub(crate) fn new(inner: BoxedSender) -> SeqSender {
        SeqSender { inner, next: 0 }
    }
}

impl EvSender for SeqSender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // The sequence header rides as one more leading segment, so a
        // scatter-gather send stays scatter-gather through this layer.
        let header = self.next.to_le_bytes();
        let mut framed: StackVec<&[u8], FRAME_SLICES> = StackVec::new();
        framed.push(&header);
        segments.iter().for_each(|s| framed.push(s));
        self.next += 1;
        self.inner.send_vectored(&framed);
    }

    fn transport_name(&self) -> &'static str {
        self.inner.transport_name()
    }
}

/// Receiver half of the sequence-framing layer: delivers payloads in
/// sequence order, deduplicating repeats (`dup_msgs`), buffering and
/// re-sorting early arrivals (`reorder_healed`) and skipping over gaps
/// once [`GAP_SKIP_THRESHOLD`] later messages have piled up
/// (`drops_observed`).
pub(crate) struct SeqReceiver {
    inner: BoxedReceiver,
    next: u64,
    early: BTreeMap<u64, Lease>,
    counters: Arc<ProtocolCounters>,
}

impl SeqReceiver {
    pub(crate) fn new(inner: BoxedReceiver, counters: Arc<ProtocolCounters>) -> SeqReceiver {
        SeqReceiver { inner, next: 0, early: BTreeMap::new(), counters }
    }
}

impl EvReceiver for SeqReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        loop {
            if let Some(msg) = self.early.remove(&self.next) {
                self.next += 1;
                self.counters.bump(&self.counters.reorder_healed);
                return RecvPoll::Msg(msg);
            }
            let mut framed = match self.inner.poll_lease() {
                RecvPoll::Msg(framed) => framed,
                RecvPoll::Empty => return RecvPoll::Empty,
                RecvPoll::Corrupt(reason) => return RecvPoll::Corrupt(reason),
                RecvPoll::Closed => {
                    if self.early.is_empty() {
                        return RecvPoll::Closed;
                    }
                    // The wire is done but the reorder buffer still holds
                    // early arrivals: the missing predecessors can never
                    // come, so write the gap off as drops (same accounting
                    // as the threshold path) and drain what survived.
                    let lowest = *self.early.keys().next().expect("early set non-empty");
                    for _ in self.next..lowest {
                        self.counters.bump(&self.counters.drops_observed);
                    }
                    self.next = lowest;
                    continue;
                }
            };
            if framed.len() < 8 {
                // Not ours; a fault layer cannot shrink frames below the
                // header we added, so treat it as garbage and move on.
                self.counters.bump(&self.counters.drops_observed);
                continue;
            }
            let seq = u64::from_le_bytes(framed[..8].try_into().unwrap());
            // The payload is the same buffer past the header, not a copy.
            framed.skip(8);
            let payload = framed;
            if seq < self.next {
                self.counters.bump(&self.counters.dup_msgs);
                continue;
            }
            if seq == self.next {
                self.next += 1;
                return RecvPoll::Msg(payload);
            }
            if self.early.insert(seq, payload).is_some() {
                // A duplicate of a message still parked in the reorder
                // buffer: same dedup as the `seq < next` path.
                self.counters.bump(&self.counters.dup_msgs);
            }
            if self.early.len() >= GAP_SKIP_THRESHOLD {
                let lowest = *self.early.keys().next().expect("early set non-empty");
                for _ in self.next..lowest {
                    self.counters.bump(&self.counters.drops_observed);
                }
                self.next = lowest;
            }
        }
    }

    // Only an empty wire makes `poll_lease` report `Empty`: the next
    // expected message is never already in `early`.
    fn wait_readable(&mut self, timeout: Duration) -> bool {
        self.inner.wait_readable(timeout)
    }
}

#[cfg(test)]
mod tests {
    use evpath::{FaultPlan, FaultSpec};
    use machine::CoreLocation;

    use crate::hints::StreamHints;
    use crate::link::{ChannelId, LinkState};

    use super::*;

    #[test]
    fn seq_framing_heals_reorder_and_discards_duplicates() {
        let mut plan = FaultPlan::new(21);
        plan.set(
            "data",
            FaultSpec { reorder_per_mille: 400, dup_per_mille: 400, ..Default::default() },
        );
        // Deep queue: these tests send everything before draining, which
        // would deadlock against the bounded shm queue's backpressure.
        let hints =
            StreamHints { faults: Some(Arc::new(plan)), queue_entries: 4096, ..Default::default() };
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &hints,
            None,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        for i in 0u64..100 {
            tx.send(&i.to_le_bytes());
        }
        drop(tx); // flush any message held back by a reorder fault
                  // Despite duplication and pairwise swaps on the wire, the seq layer
                  // delivers the exact original sequence.
        for i in 0u64..100 {
            let got = rx.recv();
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), i);
        }
        let c = link.counters.snapshot();
        assert!(c.dup_msgs > 0, "duplication faults must have fired");
        assert!(c.reorder_healed > 0, "reorder faults must have been healed");
        assert_eq!(c.drops_observed, 0, "nothing was dropped");
    }

    #[test]
    fn seq_framing_skips_gaps_from_drops() {
        let mut plan = FaultPlan::new(3);
        plan.set("data", FaultSpec { drop_per_mille: 250, ..Default::default() });
        // Deep queue: these tests send everything before draining, which
        // would deadlock against the bounded shm queue's backpressure.
        let hints =
            StreamHints { faults: Some(Arc::new(plan)), queue_entries: 4096, ..Default::default() };
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &hints,
            None,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        for i in 0u64..200 {
            tx.send(&i.to_le_bytes());
        }
        let mut got = Vec::new();
        while let Some(m) = rx.try_recv() {
            got.push(u64::from_le_bytes(m[..8].try_into().unwrap()));
        }
        // Survivors arrive in order, and once enough later messages pile
        // up the receiver writes the gap off as drops rather than stalling.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "sequence order must be preserved");
        assert!(got.len() < 200, "a 25% drop rate must lose messages");
        let drops = link.counters.snapshot().drops_observed;
        assert!(drops > 0, "skipped gaps must be counted as observed drops");
    }
}
