//! Unified control-plane task handles.
//!
//! The staging node grew several spawnable service loops — the monitor
//! sink drain, the placement manager, streaming queries, and now the
//! elastic controller — each with its own ad-hoc handle type and its own
//! spelling of "stop", "are you done", and "show me your counters".
//! [`ControlTask`] is the one interface they all implement, and
//! [`TaskHandle`] is the one type every `FleetRuntime::spawn_*` method
//! returns, so a control plane can manage a heterogeneous set of service
//! tasks without knowing what each one is.
//!
//! The typed handles still exist underneath ([`TaskHandle::typed`]
//! recovers them) because each service has observers with no generic
//! equivalent — the sink's live [`crate::PerfMonitor`] replica, the
//! manager's latest recommendation, a query's output. The common
//! lifecycle, though, lives here.

use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexio_reactor::Backoff;

/// One spawnable control-plane service loop, as seen by the control
/// plane: it can be asked to stop, observed for completion, and asked
/// for a snapshot of its progress counters.
pub trait ControlTask: Send + Sync {
    /// Short service-class name (`"monitor_sink"`, `"manager"`,
    /// `"query"`, `"elastic"`) for logs and counter dumps.
    fn kind(&self) -> &'static str;

    /// Ask the loop to exit at its next boundary. Idempotent; the task
    /// may also end on its own (peer gone, stream unregistered, EOS).
    fn stop(&self);

    /// Whether the loop has exited (for any reason).
    fn is_done(&self) -> bool;

    /// Named progress counters, a consistent-enough snapshot for
    /// dashboards and assertions.
    fn counters(&self) -> Vec<(&'static str, u64)>;

    /// Downcast support for [`TaskHandle::typed`].
    fn as_any(&self) -> &dyn Any;
}

/// Type-erased handle to a spawned control task. Cloning shares the
/// underlying task state.
#[derive(Clone)]
pub struct TaskHandle {
    task: Arc<dyn ControlTask>,
}

impl TaskHandle {
    /// Wrap a typed handle. `FleetRuntime::spawn_*` does this for you.
    pub fn new(task: impl ControlTask + 'static) -> TaskHandle {
        TaskHandle { task: Arc::new(task) }
    }

    /// Service-class name of the underlying task.
    pub fn kind(&self) -> &'static str {
        self.task.kind()
    }

    /// Ask the task to exit at its next boundary.
    pub fn stop(&self) {
        self.task.stop();
    }

    /// Whether the task's loop has exited.
    pub fn is_done(&self) -> bool {
        self.task.is_done()
    }

    /// Snapshot of the task's named counters.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.task.counters()
    }

    /// One named counter, if the task exports it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.task.counters().iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Poll until the task exits or `timeout` elapses; returns whether
    /// it exited. (Control tasks end at loop boundaries, so polling
    /// through [`Backoff`] is accurate enough and keeps this
    /// runtime-agnostic; no wait outlasts the deadline.)
    pub fn join(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut backoff = Backoff::new();
        while !self.is_done() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            backoff.snooze_capped(left);
        }
        true
    }

    /// Recover the typed handle for service-specific observers (the
    /// sink's monitor replica, the manager's recommendation, …).
    pub fn typed<T: ControlTask + 'static>(&self) -> Option<&T> {
        self.task.as_any().downcast_ref::<T>()
    }
}

impl std::fmt::Debug for TaskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("kind", &self.kind())
            .field("done", &self.is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    struct Fake {
        stopped: AtomicBool,
        ticks: AtomicU64,
    }

    impl ControlTask for Fake {
        fn kind(&self) -> &'static str {
            "fake"
        }
        fn stop(&self) {
            self.stopped.store(true, Ordering::Release);
        }
        fn is_done(&self) -> bool {
            self.stopped.load(Ordering::Acquire)
        }
        fn counters(&self) -> Vec<(&'static str, u64)> {
            vec![("ticks", self.ticks.load(Ordering::Relaxed))]
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn handle_erases_and_recovers_the_type() {
        let h = TaskHandle::new(Fake { stopped: AtomicBool::new(false), ticks: AtomicU64::new(3) });
        assert_eq!(h.kind(), "fake");
        assert!(!h.is_done());
        assert_eq!(h.counter("ticks"), Some(3));
        assert_eq!(h.counter("nope"), None);
        let fake: &Fake = h.typed::<Fake>().expect("downcast");
        fake.ticks.store(9, Ordering::Relaxed);
        assert_eq!(h.counter("ticks"), Some(9));
        // A task that never ends: `join` gives up at the timeout. By then
        // `Backoff` parks ~1 ms at a time, so an uncapped last park (like
        // the 1 ms sleep steps before it) would overshoot by most of that.
        let (t0, timeout) = (Instant::now(), Duration::from_micros(2200));
        assert!(!h.join(timeout));
        let waited = t0.elapsed();
        assert!(waited >= timeout, "gave up early: {waited:?}");
        assert!(waited < timeout + Duration::from_micros(800), "overslept: {waited:?}");
        h.stop();
        assert!(h.join(Duration::from_secs(1)), "stop flips is_done in the fake");
    }
}
