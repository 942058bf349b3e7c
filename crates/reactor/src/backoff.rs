//! Spin → yield → park escalation for poll-only channels.
//!
//! The transports in this workspace (FastForward shm queues, in-proc
//! channels, the simulated RDMA fabric) have no wakeup primitive: the
//! only way to learn that a message arrived is to look. The question is
//! how hard to look. Spinning keeps latency in the tens of nanoseconds
//! but burns the core FlexIO promised to keep free; sleeping a fixed
//! 100 µs (the old behaviour of the two receive loops in
//! `flexio::link`) caps the wakeup rate at 10 kHz regardless of how
//! recently traffic flowed.
//!
//! [`Backoff`] escalates through three regimes instead:
//!
//! 1. **spin** — a handful of rounds of `core::hint::spin_loop`, for
//!    messages that are already in flight;
//! 2. **yield** — `thread::yield_now` for [`YIELD_WINDOW`] of wall
//!    time, giving a same-core peer (the common in-proc placement) a
//!    chance to run;
//! 3. **park** — bounded sleeps that double from 10 µs up to a 1 ms
//!    cap, so an idle stream costs ~1k wakeups/s instead of a core.
//!
//! `reset()` on any progress snaps back to the spin regime. A waiter
//! with something better to sleep on serves the park itself through
//! [`Backoff::snooze_with`]: a fleet worker parks on its injector's
//! condvar, and a blocking socket receive ([`crate::Pacing::pause_on`])
//! blocks in `poll(2)` on its fd until the retry deadline, so it wakes
//! when the peer's bytes land rather than at the end of a nap.
//!
//! The yield regime is bounded by time, not by rounds, because the
//! shortest park is far longer than it says: `sleep(10 µs)` returns
//! after ~80 µs (timer slack plus the wakeup). A request/reply exchange
//! whose two sides each give up polling sooner than the other's park
//! lasts stays parked for good once either side parks — every message
//! finds its receiver asleep — and runs 2–3× slower than the same
//! exchange that happened never to park (the two modes of the sync
//! handshake on shm). Polling for longer than a park costs lets the
//! exchange fall back into step after any disturbance.

use std::time::{Duration, Instant};

/// Escalating wait strategy for poll loops. See the module docs.
#[derive(Debug)]
pub struct Backoff {
    /// Spin rounds completed, then [`SPIN_ROUNDS`] while yielding, then
    /// one more per park.
    step: u32,
    /// When the yield regime began.
    yield_since: Option<Instant>,
}

/// Rounds spent busy-spinning (with exponentially more `spin_loop`
/// hints per round) before escalating to yields.
const SPIN_ROUNDS: u32 = 6;
/// Wall time spent yielding the timeslice before escalating to parking:
/// twice what the shortest park really costs, so a peer that parked is
/// awake and has answered before this side gives up polling.
const YIELD_WINDOW: Duration = Duration::from_micros(200);
/// First park interval; doubles per round up to [`MAX_PARK`].
const MIN_PARK: Duration = Duration::from_micros(10);
/// Longest single park. Bounds the latency of noticing new traffic on
/// a stream that has gone fully idle.
const MAX_PARK: Duration = Duration::from_millis(1);

impl Backoff {
    /// A fresh strategy, starting in the spin regime.
    pub fn new() -> Self {
        Backoff { step: 0, yield_since: None }
    }

    /// Forget accumulated idleness — call on every successful receive.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// True once the strategy has escalated past spinning and yielding,
    /// i.e. the next `snooze` will put the thread to sleep.
    pub fn is_parking(&self) -> bool {
        self.step > SPIN_ROUNDS
    }

    /// The sleep the next parking `snooze` would take, if any.
    pub fn park_interval(&self) -> Option<Duration> {
        if !self.is_parking() {
            return None;
        }
        let exp = (self.step - SPIN_ROUNDS - 1).min(7);
        Some((MIN_PARK * 2u32.pow(exp)).min(MAX_PARK))
    }

    /// Wait once, escalating spin → yield → park across calls.
    pub fn snooze(&mut self) {
        if self.step < SPIN_ROUNDS {
            for _ in 0..(1u32 << self.step) {
                core::hint::spin_loop();
            }
        } else if self.step == SPIN_ROUNDS {
            let since = *self.yield_since.get_or_insert_with(Instant::now);
            std::thread::yield_now();
            if since.elapsed() < YIELD_WINDOW {
                return; // still yielding: `step` holds at `SPIN_ROUNDS`
            }
        } else {
            // `park_interval` is `Some` for every step in this regime.
            std::thread::sleep(self.park_interval().unwrap_or(MIN_PARK));
        }
        self.step = self.step.saturating_add(1);
    }

    /// Like [`snooze`](Self::snooze), but never sleeps longer than
    /// `cap` — used when a known deadline (a timer-wheel entry, a retry
    /// budget) must not be overshot.
    pub fn snooze_capped(&mut self, cap: Duration) {
        self.snooze_with(cap, std::thread::sleep);
    }

    /// Like [`snooze_capped`](Self::snooze_capped), but a park is served
    /// by `park` instead of `thread::sleep` — for a waiter that has
    /// something better to sleep on (a fleet worker parks on its
    /// injector's condvar, so a submission ends the park early).
    pub fn snooze_with(&mut self, cap: Duration, park: impl FnOnce(Duration)) {
        let Some(interval) = self.park_interval() else { return self.snooze() };
        let nap = interval.min(cap);
        if !nap.is_zero() {
            park(nap);
        }
        self.step = self.step.saturating_add(1);
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_to_parking_and_resets() {
        let mut b = Backoff::new();
        let started = Instant::now();
        while !b.is_parking() {
            assert_eq!(b.park_interval(), None);
            b.snooze();
        }
        assert!(started.elapsed() >= YIELD_WINDOW, "parked before the yield window ran out");
        assert_eq!(b.park_interval(), Some(MIN_PARK));
        b.snooze();
        assert_eq!(b.park_interval(), Some(MIN_PARK * 2));
        b.reset();
        assert!(!b.is_parking());
        assert_eq!(b.park_interval(), None);
    }

    #[test]
    fn park_interval_caps_at_max() {
        let mut b = Backoff::new();
        while !b.is_parking() {
            b.snooze();
        }
        for _ in 0..20 {
            b.snooze_capped(Duration::from_micros(1));
        }
        assert_eq!(b.park_interval(), Some(MAX_PARK));
    }
}
