//! Deterministic transport fault injection.
//!
//! FlexIO's resiliency story (paper §II.H) is "simple timeout-and-retry
//! schemes to cope with errors and failures during data movement". That
//! only earns its keep if the retry/degradation branches are actually
//! exercised, so this module provides a **seedable, deterministic schedule
//! of transport faults** — message drop, duplication, reordering, delay,
//! and endpoint crashes — installed as a wrapping layer around any
//! [`EvSender`]/[`EvReceiver`] pair.
//!
//! Determinism: each wrapped channel draws its fault decisions from a
//! SplitMix64 stream seeded with `plan_seed ^ hash(channel_label)`. The
//! decisions therefore depend only on the plan seed, the channel label and
//! the per-channel message ordinal — never on thread scheduling or wall
//! time — so the same seed replays the same fault sequence, and tests can
//! assert exact counter values across runs.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use crate::transport::{BoxedReceiver, BoxedSender, EvReceiver, EvSender, RecvPoll};
use crate::{fnv1a64, FNV_OFFSET};
use shm::Lease;

/// Fault rates and crash points for one channel (or the plan default).
/// Rates are per-mille (0–1000) per message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Per-mille chance a sent message silently vanishes.
    pub drop_per_mille: u16,
    /// Per-mille chance a sent message is delivered twice.
    pub dup_per_mille: u16,
    /// Per-mille chance a sent message is held back and swapped with the
    /// next one (pairwise reorder).
    pub reorder_per_mille: u16,
    /// Per-mille chance a send stalls for [`FaultSpec::delay`] first.
    pub delay_per_mille: u16,
    /// Stall length for delay faults.
    pub delay: Duration,
    /// After this many successful sends the sender "crashes": every later
    /// send is silently discarded, as if the process died mid-protocol.
    pub crash_sender_after: Option<u64>,
    /// After this many received messages the receiver goes deaf: later
    /// messages are consumed and discarded, never delivered upward.
    pub crash_receiver_after: Option<u64>,
    /// Synthetic stall consumed from a directory lookup's timeout budget
    /// (directory servers are not transports, so this is interpreted by
    /// the layer doing the lookup rather than by the channel wrappers).
    pub stall: Option<Duration>,
}

impl FaultSpec {
    fn is_noop(&self) -> bool {
        self == &FaultSpec::default()
    }
}

crate::counters! {
    /// Counters of faults actually injected; shared by every channel of one
    /// plan so tests can assert the schedule fired.
    pub struct FaultCounters => FaultSnapshot {
        /// Messages silently dropped by sender wrappers.
        dropped,
        /// Messages delivered twice.
        duplicated,
        /// Message pairs delivered swapped.
        reordered,
        /// Sends that stalled for `delay` first.
        delayed,
        /// Messages discarded because their sender had crashed.
        crashed_sends,
        /// Messages discarded because their receiver had gone deaf.
        deaf_recvs,
        /// Directory lookups that were stalled.
        stalls,
    }
}

/// A deterministic schedule of transport faults: a seed, a default
/// [`FaultSpec`], and per-label overrides (longest-prefix match, so
/// `"data"` targets every `data:w->r` channel while `"data:0->1"` targets
/// one). Install with [`FaultPlan::wrap_sender`]/[`FaultPlan::wrap_receiver`].
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    default_spec: FaultSpec,
    by_label: HashMap<String, FaultSpec>,
    counters: FaultCounters,
}

impl FaultPlan {
    /// Empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_spec: FaultSpec::default(),
            by_label: HashMap::new(),
            counters: FaultCounters::default(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the spec applied to channels with no more specific override.
    pub fn set_default(&mut self, spec: FaultSpec) -> &mut Self {
        self.default_spec = spec;
        self
    }

    /// Set the spec for channels whose label starts with `label_prefix`.
    pub fn set(&mut self, label_prefix: &str, spec: FaultSpec) -> &mut Self {
        self.by_label.insert(label_prefix.to_string(), spec);
        self
    }

    /// Injected-fault counters.
    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    /// Resolve the spec for a channel label: the longest configured prefix
    /// of `label` wins, falling back to the default spec.
    pub fn spec_for(&self, label: &str) -> &FaultSpec {
        self.by_label
            .iter()
            .filter(|(prefix, _)| label.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, spec)| spec)
            .unwrap_or(&self.default_spec)
    }

    /// Record a directory-lookup stall (interpreted by the lookup layer).
    pub fn note_stall(&self) {
        self.counters.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Wrap the sending half of channel `label`. Channels whose resolved
    /// spec injects nothing are returned unwrapped (zero overhead).
    pub fn wrap_sender(self: &Arc<Self>, label: &str, inner: BoxedSender) -> BoxedSender {
        let spec = self.spec_for(label).clone();
        if spec.is_noop() {
            return inner;
        }
        Box::new(FaultySender {
            inner,
            spec,
            rng: SplitMix64::new(self.seed ^ fnv1a64(FNV_OFFSET, label.as_bytes())),
            plan: Arc::clone(self),
            sent: 0,
            held: None,
            crashed: false,
        })
    }

    /// Wrap the receiving half of channel `label` (only the receiver-crash
    /// fault acts on this side).
    pub fn wrap_receiver(self: &Arc<Self>, label: &str, inner: BoxedReceiver) -> BoxedReceiver {
        let spec = self.spec_for(label).clone();
        if spec.crash_receiver_after.is_none() {
            return inner;
        }
        Box::new(FaultyReceiver { inner, spec, plan: Arc::clone(self), received: 0 })
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Per-mille roll. Always consumes exactly one draw so the decision
    /// stream stays aligned across fault types.
    fn roll(&mut self, per_mille: u16) -> bool {
        self.next_u64() % 1000 < per_mille as u64
    }
}

struct FaultySender {
    inner: BoxedSender,
    spec: FaultSpec,
    rng: SplitMix64,
    plan: Arc<FaultPlan>,
    sent: u64,
    /// Message held back by a reorder fault, delivered after its successor.
    held: Option<Vec<u8>>,
    crashed: bool,
}

impl EvSender for FaultySender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        let c = &self.plan.counters;
        if let Some(n) = self.spec.crash_sender_after {
            if self.sent >= n {
                self.crashed = true;
            }
        }
        if self.crashed {
            c.crashed_sends.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.sent += 1;
        // One roll per fault type per message, in fixed order, so the
        // decision sequence is a pure function of (seed, label, ordinal).
        let delay = self.rng.roll(self.spec.delay_per_mille);
        let drop = self.rng.roll(self.spec.drop_per_mille);
        let dup = self.rng.roll(self.spec.dup_per_mille);
        let reorder = self.rng.roll(self.spec.reorder_per_mille);
        if delay {
            c.delayed.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.spec.delay);
        }
        if drop {
            c.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if reorder && self.held.is_none() {
            // The one copy this layer makes: a message held for a swap
            // outlives the segments it was sent as.
            c.reordered.fetch_add(1, Ordering::Relaxed);
            self.held = Some(segments.concat());
            return;
        }
        self.inner.send_vectored(segments);
        if let Some(held) = self.held.take() {
            // The held message goes out *after* its successor: swapped.
            self.inner.send(&held);
        }
        if dup {
            c.duplicated.fetch_add(1, Ordering::Relaxed);
            self.inner.send_vectored(segments);
        }
    }

    fn transport_name(&self) -> &'static str {
        self.inner.transport_name()
    }
}

impl Drop for FaultySender {
    fn drop(&mut self) {
        // A reorder hold must not turn into a drop at end of stream.
        if let Some(held) = self.held.take() {
            if !self.crashed {
                self.inner.send(&held);
            }
        }
    }
}

struct FaultyReceiver {
    inner: BoxedReceiver,
    spec: FaultSpec,
    plan: Arc<FaultPlan>,
    received: u64,
}

impl FaultyReceiver {
    fn deaf(&self) -> bool {
        matches!(self.spec.crash_receiver_after, Some(n) if self.received >= n)
    }
}

impl EvReceiver for FaultyReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        if self.deaf() {
            // Consume and discard so the transport queue cannot back up
            // behind a corpse. A dead endpoint reports *silence*, never
            // `Closed` — its peer's timeout machinery is the intended
            // observer, exactly as with a real crashed process.
            if matches!(self.inner.poll_lease(), RecvPoll::Msg(_)) {
                self.plan.counters.deaf_recvs.fetch_add(1, Ordering::Relaxed);
            }
            return RecvPoll::Empty;
        }
        let polled = self.inner.poll_lease();
        if matches!(polled, RecvPoll::Msg(_)) {
            self.received += 1;
        }
        polled
    }

    // Deaf or not, the next poll reads the wire: wait on it.
    fn wait_readable(&mut self, timeout: Duration) -> bool {
        self.inner.wait_readable(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::inproc_pair;

    fn drain(rx: &mut BoxedReceiver) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(m) = rx.try_recv() {
            out.push(m);
        }
        out
    }

    #[test]
    fn noop_spec_passes_through_unwrapped() {
        let plan = Arc::new(FaultPlan::new(1));
        let (tx, rx) = inproc_pair();
        let mut tx = plan.wrap_sender("data:0->0", tx);
        let mut rx = plan.wrap_receiver("data:0->0", rx);
        tx.send(b"x");
        assert_eq!(rx.recv(), b"x");
        assert_eq!(plan.counters().snapshot(), FaultSnapshot::default());
    }

    #[test]
    fn label_prefix_resolution_prefers_longest() {
        let mut plan = FaultPlan::new(7);
        plan.set_default(FaultSpec { drop_per_mille: 1, ..Default::default() });
        plan.set("data", FaultSpec { drop_per_mille: 2, ..Default::default() });
        plan.set("data:0->1", FaultSpec { drop_per_mille: 3, ..Default::default() });
        assert_eq!(plan.spec_for("ack:1->0").drop_per_mille, 1);
        assert_eq!(plan.spec_for("data:1->0").drop_per_mille, 2);
        assert_eq!(plan.spec_for("data:0->1").drop_per_mille, 3);
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let survivors = |seed: u64| {
            let mut p = FaultPlan::new(seed);
            p.set_default(FaultSpec { drop_per_mille: 300, ..Default::default() });
            let plan = Arc::new(p);
            let (tx, mut rx) = inproc_pair();
            let mut tx = plan.wrap_sender("data:0->0", tx);
            for i in 0u64..200 {
                tx.send(&i.to_le_bytes());
            }
            (drain(&mut rx), plan.counters().snapshot())
        };
        let (a1, c1) = survivors(42);
        let (a2, c2) = survivors(42);
        let (b, _) = survivors(43);
        assert_eq!(a1, a2, "same seed must drop the same messages");
        assert_eq!(c1, c2);
        assert_ne!(a1, b, "different seed should drop differently");
        assert!(c1.dropped > 0, "a 30% rate over 200 messages must drop some");
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut p = FaultPlan::new(5);
        p.set_default(FaultSpec { dup_per_mille: 1000, ..Default::default() });
        let plan = Arc::new(p);
        let (tx, mut rx) = inproc_pair();
        let mut tx = plan.wrap_sender("ctrl", tx);
        tx.send(b"once");
        let got = drain(&mut rx);
        assert_eq!(got, vec![b"once".to_vec(), b"once".to_vec()]);
        assert_eq!(plan.counters().snapshot().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_messages() {
        let mut p = FaultPlan::new(5);
        p.set_default(FaultSpec { reorder_per_mille: 1000, ..Default::default() });
        let plan = Arc::new(p);
        let (tx, mut rx) = inproc_pair();
        let mut tx = plan.wrap_sender("ctrl", tx);
        tx.send(b"a");
        tx.send(b"b");
        tx.send(b"c");
        tx.send(b"d");
        drop(tx); // flush any trailing held message
        let got = drain(&mut rx);
        // Every message still arrives exactly once, just not in order.
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec(), b"d".to_vec()]);
        assert_ne!(got[0], b"a".to_vec(), "first message must have been held back");
        assert!(plan.counters().snapshot().reordered >= 1);
    }

    #[test]
    fn sender_crash_discards_everything_after_n() {
        let mut p = FaultPlan::new(5);
        p.set_default(FaultSpec { crash_sender_after: Some(3), ..Default::default() });
        let plan = Arc::new(p);
        let (tx, mut rx) = inproc_pair();
        let mut tx = plan.wrap_sender("ctrl", tx);
        for i in 0u64..10 {
            tx.send(&i.to_le_bytes());
        }
        assert_eq!(drain(&mut rx).len(), 3);
        assert_eq!(plan.counters().snapshot().crashed_sends, 7);
    }

    #[test]
    fn receiver_crash_goes_deaf_after_n() {
        let mut p = FaultPlan::new(5);
        p.set_default(FaultSpec { crash_receiver_after: Some(2), ..Default::default() });
        let plan = Arc::new(p);
        let (mut tx, rx) = inproc_pair();
        let mut rx = plan.wrap_receiver("data", rx);
        for i in 0u64..5 {
            tx.send(&i.to_le_bytes());
        }
        assert!(rx.try_recv().is_some());
        assert!(rx.try_recv().is_some());
        // Deaf from here: the remaining three messages are swallowed.
        assert!(rx.try_recv().is_none());
        assert!(rx.try_recv().is_none());
        assert!(rx.try_recv().is_none());
        assert!(rx.try_recv().is_none());
        assert_eq!(plan.counters().snapshot().deaf_recvs, 3);
    }

    #[test]
    fn delay_stalls_but_delivers() {
        let mut p = FaultPlan::new(5);
        p.set_default(FaultSpec {
            delay_per_mille: 1000,
            delay: Duration::from_millis(5),
            ..Default::default()
        });
        let plan = Arc::new(p);
        let (tx, mut rx) = inproc_pair();
        let mut tx = plan.wrap_sender("ctrl", tx);
        let start = std::time::Instant::now();
        tx.send(b"slow");
        assert!(start.elapsed() >= Duration::from_millis(5));
        assert_eq!(rx.recv(), b"slow");
        assert_eq!(plan.counters().snapshot().delayed, 1);
    }
}
