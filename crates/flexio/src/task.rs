//! The one loop every background service runs on (paper §II.G: online
//! monitoring that decides "the placement of DC Plug-ins"; §II.C.1's
//! directory service):
//!
//! ```text
//! while !stop { round; publish; if ended break; pace }  output = finish; done = true
//! ```
//!
//! `periodic` paces with `sleep(interval)`: the monitor-sink drain, the
//! placement manager, the elastic controller, directory gossip and a wire
//! directory node's request port. `driven` paces by the round's own
//! awaits and yields between rounds, so a stream whose steps are always
//! ready still shares its reactor: a query
//! ([`crate::QuerySession::into_task`]) or a reader group
//! ([`crate::ReaderGroup::into_task`]), whose round owns the state and
//! hands it back for `finish` to turn into the output.
//!
//! Every `into_task` / `serve_task` returns `(handle, future)`: spawn the
//! future (`fleet.spawn(task)`, `reactor.spawn(task)`), keep the
//! [`LoopHandle`].

use std::future::{ready, Future};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

struct LoopState<T, O> {
    latest: Mutex<Option<T>>,
    output: Mutex<Option<O>>,
    rounds: AtomicU64,
    stop: AtomicBool,
    done: AtomicBool,
}

/// Observer/controller for one background loop: `T` is what a round
/// publishes, `O` what the loop leaves behind when it ends. Cloning
/// shares the underlying state.
pub struct LoopHandle<T, O = ()> {
    state: Arc<LoopState<T, O>>,
}

impl<T, O> Clone for LoopHandle<T, O> {
    fn clone(&self) -> Self {
        LoopHandle { state: Arc::clone(&self.state) }
    }
}

impl<T: Clone, O> LoopHandle<T, O> {
    /// What the most recent publishing round observed, if one has run.
    pub fn latest(&self) -> Option<T> {
        self.state.latest.lock().unwrap().clone()
    }
}

impl<T, O> LoopHandle<T, O> {
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

    /// The loop's output: `None` until it has ended, and to every call
    /// after the first that returned it.
    pub fn take_output(&self) -> Option<O> {
        self.state.output.lock().unwrap().take()
    }
}

/// What one round did: the state for the next round, what it observed
/// (`None` publishes nothing) and whether the loop's own end condition
/// holds. `Err` ends the loop with that output, `finish` unrun.
type Round<S, T, O> = Result<(S, Option<T>, bool), O>;

/// Run `round` every `interval` until the handle's `stop` or until a
/// round reports the loop ended (the second half of what it returns).
pub(crate) fn periodic<T: Send + 'static>(
    interval: Duration,
    round: impl FnMut() -> (Option<T>, bool) + Send + 'static,
) -> (LoopHandle<T>, impl Future<Output = ()> + Send + 'static) {
    run(
        Some(interval),
        round,
        |mut round| {
            let (out, ended) = round();
            ready(Ok((round, out, ended)))
        },
        drop,
    )
}

/// Run `round` back to back over `state` until the handle's `stop`, until
/// a round reports the loop ended (the output is then `finish(state)`),
/// or until a round fails (its error is the output).
pub(crate) fn driven<S, T, O, F>(
    state: S,
    round: impl FnMut(S) -> F + Send + 'static,
    finish: impl FnOnce(S) -> O + Send + 'static,
) -> (LoopHandle<T, O>, impl Future<Output = ()> + Send + 'static)
where
    S: Send + 'static,
    T: Send + 'static,
    O: Send + 'static,
    F: Future<Output = Round<S, T, O>> + Send + 'static,
{
    run(None, state, round, finish)
}

/// The loop itself (see the module docs); `pace` is the sleep between
/// rounds, a bare yield when `None`.
fn run<S, T, O, F>(
    pace: Option<Duration>,
    mut state: S,
    mut round: impl FnMut(S) -> F + Send + 'static,
    finish: impl FnOnce(S) -> O + Send + 'static,
) -> (LoopHandle<T, O>, impl Future<Output = ()> + Send + 'static)
where
    S: Send + 'static,
    T: Send + 'static,
    O: Send + 'static,
    F: Future<Output = Round<S, T, O>> + Send + 'static,
{
    let shared = Arc::new(LoopState {
        latest: Mutex::new(None),
        output: Mutex::new(None),
        rounds: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        done: AtomicBool::new(false),
    });
    let handle = LoopHandle { state: Arc::clone(&shared) };
    let task = async move {
        let output = loop {
            if shared.stop.load(Ordering::Acquire) {
                break finish(state);
            }
            let (next, out, ended) = match round(state).await {
                Ok(done) => done,
                Err(output) => break output,
            };
            if let Some(out) = out {
                *shared.latest.lock().unwrap() = Some(out);
                shared.rounds.fetch_add(1, Ordering::Relaxed);
            }
            if ended {
                break finish(next);
            }
            state = next;
            match pace {
                Some(interval) => flexio_reactor::sleep(interval).await,
                None => flexio_reactor::yield_now().await,
            }
        };
        *shared.output.lock().unwrap() = Some(output);
        shared.done.store(true, Ordering::Release);
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
        sink: LoopHandle<SinkStats>,
        mgr: LoopHandle<Recommendation>,
        ela: LoopHandle<ElasticDecision>,
    }

    /// The three loops on `reactor`, over a live relay (its sender kept
    /// in `relay`), a registered stream and an open roster.
    fn three_loops(reactor: &mut Reactor) -> Loops {
        let (tx, rx) = evpath::inproc_pair();
        let mut relay = MonitorRelay::new(tx, 1);
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

    /// A counter that ends itself at `end`, and fails at `fail`.
    fn counter(
        end: u64,
        fail: u64,
    ) -> (LoopHandle<u64, Result<u64, u64>>, impl Future<Output = ()>) {
        driven(
            0u64,
            move |n| async move {
                match n + 1 {
                    next if next == fail => Err(Err(next)),
                    next => Ok((next, Some(next), next == end)),
                }
            },
            Ok,
        )
    }

    #[test]
    fn a_driven_loop_yields_between_rounds_and_finishes_on_stop() {
        let mut reactor = Reactor::new();
        // Left alone it would end at 10; a loop that ran rounds back to
        // back without yielding would get there before the watcher ran.
        let (h, task) = counter(10, u64::MAX);
        reactor.spawn(task);
        let watch = h.clone();
        reactor.spawn(async move {
            // Polled after the loop in every reactor round, so it sees
            // each round's count: the loop never runs two rounds at once.
            while watch.rounds() < 3 {
                flexio_reactor::yield_now().await;
            }
            watch.stop();
        });
        reactor.run();
        assert!(h.is_done());
        assert_eq!((h.rounds(), h.latest()), (3, Some(3)));
        assert_eq!(h.take_output(), Some(Ok(3)), "finish ran over exactly the stopped state");
        assert_eq!(h.take_output(), None, "the output is taken once");
    }

    #[test]
    fn a_driven_loop_ends_on_its_own_condition_or_on_a_failed_round() {
        let (ended, task) = counter(4, u64::MAX);
        let mut reactor = Reactor::new();
        reactor.spawn(task);
        reactor.run();
        assert_eq!((ended.rounds(), ended.take_output()), (4, Some(Ok(4))));
        let (failed, task) = counter(u64::MAX, 2);
        flexio_reactor::block_inline(task);
        assert_eq!((failed.rounds(), failed.take_output()), (1, Some(Err(2))));
        assert!(failed.is_done());
    }
}
