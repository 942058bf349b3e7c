//! Receiver-side RDMA Get scheduling (paper §II.E).
//!
//! "The receiver prepares a receive buffer, and issues RDMA Get to fetch
//! data according to some scheduling policy. [...] The scheduling technique
//! is leveraged from our previous work in data staging; its use can
//! effectively reduce network contention."
//!
//! The policy here is a concurrency window: at most `k` Gets may be in
//! flight per receiver at once; further Gets queue FIFO. `Unthrottled`
//! (the baseline) lets every Get proceed immediately, maximizing NIC
//! contention; `Windowed(k)` is the paper's server-directed approach.

use std::sync::{Arc, Condvar, Mutex};

/// How a receiver schedules its outstanding Gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Issue every Get immediately (maximum contention).
    Unthrottled,
    /// At most this many concurrent Gets per receiver.
    Windowed(usize),
}

struct State {
    in_flight: usize,
    limit: Option<usize>,
}

/// Grants Get slots according to a [`SchedulingPolicy`]; cloneable so
/// multiple receiver threads on the same node can share one scheduler.
#[derive(Clone)]
pub struct GetScheduler {
    state: Arc<(Mutex<State>, Condvar)>,
}

/// RAII slot; the Get is "in flight" while this is alive.
pub struct GetSlot {
    state: Arc<(Mutex<State>, Condvar)>,
}

impl GetScheduler {
    /// Build a scheduler for the given policy.
    pub fn new(policy: SchedulingPolicy) -> GetScheduler {
        let limit = match policy {
            SchedulingPolicy::Unthrottled => None,
            SchedulingPolicy::Windowed(k) => {
                assert!(k >= 1, "window must allow at least one Get");
                Some(k)
            }
        };
        GetScheduler {
            state: Arc::new((Mutex::new(State { in_flight: 0, limit }), Condvar::new())),
        }
    }

    /// Block until a Get slot is available, then claim it.
    pub fn acquire(&self) -> GetSlot {
        let (lock, cvar) = &*self.state;
        let st = lock.lock().unwrap();
        let mut st = cvar.wait_while(st, |st| st.limit.is_some_and(|k| st.in_flight >= k)).unwrap();
        st.in_flight += 1;
        GetSlot { state: Arc::clone(&self.state) }
    }

    /// Gets currently in flight (for monitoring/tests).
    pub fn in_flight(&self) -> usize {
        self.state.0.lock().unwrap().in_flight
    }

    /// The window limit, if any (`None` = unthrottled).
    pub fn limit(&self) -> Option<usize> {
        self.state.0.lock().unwrap().limit
    }
}

impl Drop for GetSlot {
    fn drop(&mut self) {
        // A poisoned scheduler wakes its waiter, which then meets the
        // poison itself: a drop must not panic while a panic unwinds.
        let (lock, cvar) = &*self.state;
        if let Ok(mut st) = lock.lock() {
            st.in_flight -= 1;
        }
        cvar.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn unthrottled_never_blocks() {
        let sched = GetScheduler::new(SchedulingPolicy::Unthrottled);
        let slots: Vec<_> = (0..100).map(|_| sched.acquire()).collect();
        assert_eq!(sched.in_flight(), 100);
        drop(slots);
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn window_limits_concurrency() {
        let sched = GetScheduler::new(SchedulingPolicy::Windowed(3));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let sched = sched.clone();
            let peak = Arc::clone(&peak);
            let current = Arc::clone(&current);
            handles.push(thread::spawn(move || {
                let _slot = sched.acquire();
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(std::time::Duration::from_millis(2));
                current.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "peak={}", peak.load(Ordering::SeqCst));
    }
}
