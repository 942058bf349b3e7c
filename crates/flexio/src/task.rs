//! The control plane's one periodic loop (paper §II.G: monitoring
//! "gathered online and transferred to the analytics side", which uses it
//! to "decide the placement of DC Plug-ins").
//!
//! The monitor-sink drain ([`crate::MonitorSink::into_task`]), the
//! placement manager ([`crate::PlacementManager::into_task`]) and the
//! elastic controller ([`crate::ElasticController::into_task`]) are the
//! same loop over a different round:
//!
//! ```text
//! while !stop { round; if ended break; sleep(interval) }  done = true
//! ```
//!
//! Each `into_task` hands its round to the crate-private `periodic` and
//! returns the `(handle, future)` pair; the caller spawns the future
//! (`fleet.spawn(task)`, `reactor.spawn(task)`) and keeps the typed
//! [`PeriodicHandle`], which shows the latest result a round published.

use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

struct LoopState<T> {
    latest: Mutex<Option<T>>,
    rounds: AtomicU64,
    stop: AtomicBool,
    done: AtomicBool,
}

/// Observer/controller for one periodic control loop; `T` is what a round
/// publishes. Cloning shares the underlying state.
pub struct PeriodicHandle<T> {
    state: Arc<LoopState<T>>,
}

impl<T> Clone for PeriodicHandle<T> {
    fn clone(&self) -> Self {
        PeriodicHandle { state: Arc::clone(&self.state) }
    }
}

impl<T: Clone> PeriodicHandle<T> {
    /// What the most recent publishing round observed, if one has run.
    pub fn latest(&self) -> Option<T> {
        self.state.latest.lock().clone()
    }
}

impl<T> PeriodicHandle<T> {
    /// Rounds that published a result so far.
    pub fn rounds(&self) -> u64 {
        self.state.rounds.load(Ordering::Relaxed)
    }

    /// Ask the loop to exit after its current round.
    pub fn stop(&self) {
        self.state.stop.store(true, Ordering::Release);
    }

    /// Whether the loop has exited, on `stop` or on its own condition.
    pub fn is_done(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }
}

/// Run `round` every `interval` until the handle's `stop` or until a
/// round reports the loop ended. A round returns what it observed (`None`
/// publishes nothing) and whether the loop's own end condition holds.
pub(crate) fn periodic<T: Send + 'static>(
    interval: Duration,
    mut round: impl FnMut() -> (Option<T>, bool) + Send + 'static,
) -> (PeriodicHandle<T>, impl Future<Output = ()> + Send + 'static) {
    let state = Arc::new(LoopState {
        latest: Mutex::new(None),
        rounds: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        done: AtomicBool::new(false),
    });
    let handle = PeriodicHandle { state: Arc::clone(&state) };
    let task = async move {
        while !state.stop.load(Ordering::Acquire) {
            let (out, ended) = round();
            if let Some(out) = out {
                *state.latest.lock() = Some(out);
                state.rounds.fetch_add(1, Ordering::Relaxed);
            }
            if ended {
                break;
            }
            flexio_reactor::sleep(interval).await;
        }
        state.done.store(true, Ordering::Release);
    };
    (handle, task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirectoryService, InProcDirectory};
    use crate::elastic::{ElasticConfig, ElasticController, ElasticDecision, ElasticRoster};
    use crate::link::LinkState;
    use crate::manager::{PlacementManager, Recommendation};
    use crate::monitor::{MonitorEvent, PerfMonitor};
    use crate::relay::{MonitorRelay, MonitorSink, SinkStats};
    use flexio_reactor::Reactor;

    const TICK: Duration = Duration::from_millis(1);

    struct Loops {
        relay: MonitorRelay,
        directory: Arc<dyn DirectoryService>,
        roster: Arc<ElasticRoster>,
        sink: PeriodicHandle<SinkStats>,
        mgr: PeriodicHandle<Recommendation>,
        ela: PeriodicHandle<ElasticDecision>,
    }

    /// The three loops on `reactor`, over a live relay (its sender kept
    /// in `relay`), a registered stream and an open roster.
    fn three_loops(reactor: &mut Reactor) -> Loops {
        let (tx, rx) = evpath::inproc_pair();
        let mut relay = MonitorRelay::new(tx, 0, 1);
        relay.publish(MonitorEvent::DataSend, 0, 0, 8, 1);
        let (sink, sink_task) = MonitorSink::new(rx).into_task(TICK);

        let directory: Arc<dyn DirectoryService> = Arc::new(InProcDirectory::new());
        directory.register("s", LinkState::for_tests()).unwrap();
        let (mgr, mgr_task) = PlacementManager::builder().build_manager().into_task(
            Arc::clone(&directory),
            "s".into(),
            0,
            TICK,
        );

        let roster = Arc::new(ElasticRoster::new(1));
        let cfg = ElasticConfig::builder().interval(TICK).build();
        let (ela, ela_task) =
            ElasticController::new(cfg, PerfMonitor::new(), Arc::clone(&roster)).into_task();

        reactor.spawn(sink_task);
        reactor.spawn(mgr_task);
        reactor.spawn(ela_task);
        Loops { relay, directory, roster, sink, mgr, ela }
    }

    #[test]
    fn each_loop_ends_on_its_own_condition() {
        let mut reactor = Reactor::new();
        let Loops { relay, directory, roster, sink, mgr, ela } = three_loops(&mut reactor);
        drop(relay);
        let (m, e) = (mgr.clone(), ela.clone());
        reactor.spawn(async move {
            while m.rounds() == 0 || e.rounds() == 0 {
                flexio_reactor::sleep(TICK).await;
            }
            directory.unregister("s");
            roster.close();
        });
        reactor.run();
        assert!(sink.is_done() && mgr.is_done() && ela.is_done());
        assert!(sink.rounds() > 0 && mgr.rounds() > 0 && ela.rounds() > 0);
        assert_eq!(sink.latest(), Some(SinkStats { absorbed: 1, corrupt_frames: 0 }));
    }

    #[test]
    fn each_loop_ends_on_stop() {
        let mut reactor = Reactor::new();
        let Loops { relay, roster, sink, mgr, ela, .. } = three_loops(&mut reactor);
        let (s, m, e) = (sink.clone(), mgr.clone(), ela.clone());
        reactor.spawn(async move {
            while s.rounds() == 0 || m.rounds() == 0 || e.rounds() == 0 {
                flexio_reactor::sleep(TICK).await;
            }
            s.stop();
            m.stop();
            e.stop();
        });
        reactor.run();
        assert!(sink.is_done() && mgr.is_done() && ela.is_done());
        assert!(sink.rounds() > 0 && mgr.rounds() > 0 && ela.rounds() > 0);
        assert!(!roster.is_closed(), "stopped, not ended: the roster is still open");
        drop(relay);
    }
}
