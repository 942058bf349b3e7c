//! Thread-per-core reactor fleet.
//!
//! One [`crate::Reactor`] drives many streams on one core; the fleet
//! scales that design sideways instead of up. N worker threads each run
//! the *same* event loop (`exec::run_shard`, the one `Reactor::run`
//! runs) over their own shard of tasks — no shared run queue,
//! no work stealing, no wakers, and a task stays on the shard it was
//! placed on. What a worker adds to the loop is its `Host` half:
//!
//! * **submission** — [`FleetHandle::spawn`] pushes a boxed future into
//!   the least-loaded shard's injector queue (a mutexed `Vec`) and
//!   pokes that worker's condvar. Workers adopt injected tasks at the
//!   top of every poll round, and an idle worker parks *on that condvar*,
//!   so a submission ends the park at once. Placement at submission is
//!   the fleet's only load balancing.
//! * **counters** — every worker publishes its counters (polls, busy
//!   rounds, committed steps, completions) once a round as that shard's
//!   [`ShardSnapshot`], read through [`FleetHandle::snapshots`].
//!
//! A fleet task is like any other thread's code: an shm channel it
//! creates gets its own private buffer pool.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use crate::exec::{self, Host, Round};

/// A future the fleet can own: `Send` because it may be spawned from any
/// thread and is polled on a worker's.
pub type FleetTask = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One shard's counters, as of its worker's last round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardSnapshot {
    /// Shard index within the fleet (also the worker thread index).
    pub shard: usize,
    /// Tasks currently in the shard's local run queue (excludes the
    /// injector).
    pub tasks: usize,
    /// Task polls performed since startup.
    pub polls: u64,
    /// Poll rounds completed since startup.
    pub rounds: u64,
    /// Rounds where something progressed (task made progress, timer
    /// fired, task finished).
    pub busy_rounds: u64,
    /// Protocol steps committed on this shard (harvested from
    /// [`crate::note_step`]).
    pub steps: u64,
    /// Tasks run to completion on this shard.
    pub completed: u64,
}

struct ShardState {
    /// Cross-thread submission queue; paired with `wake` for parking.
    injector: Mutex<Vec<FleetTask>>,
    wake: Condvar,
    /// Written by the owning worker once a round; read by
    /// [`FleetHandle::snapshots`] and by placement at submission.
    stats: Mutex<ShardSnapshot>,
}

impl ShardState {
    fn queued(&self) -> usize {
        self.stats.lock().unwrap().tasks + self.injector.lock().unwrap().len()
    }
}

struct FleetShared {
    shards: Vec<ShardState>,
    /// Spawned-but-not-completed tasks, fleet-wide.
    live: AtomicUsize,
    /// Set by `join` once `live` hits zero: workers exit when idle.
    draining: AtomicBool,
    /// Set by `Drop` without `join`: workers exit now, dropping tasks.
    abort: AtomicBool,
    done: Mutex<()>,
    done_cv: Condvar,
}

/// A worker's half of the event loop: where its shard's tasks come from,
/// where its counters go, what it parks on and when it ends.
struct Worker<'a> {
    shared: &'a FleetShared,
    shard: &'a ShardState,
}

impl Host<FleetTask> for Worker<'_> {
    fn adopt(&mut self, run: &mut Vec<FleetTask>) {
        run.append(&mut self.shard.injector.lock().unwrap());
    }

    fn publish(&mut self, round: &Round) {
        {
            let mut stats = self.shard.stats.lock().unwrap();
            stats.tasks = (round.polled - round.finished) as usize;
            stats.polls += round.polled;
            stats.rounds += 1;
            stats.busy_rounds += u64::from(round.busy);
            stats.steps += round.steps;
            stats.completed += round.finished;
        }
        let finished = round.finished as usize;
        if finished > 0 && self.shared.live.fetch_sub(finished, Ordering::AcqRel) == finished {
            // Take the lock so a joiner can't slip between its live
            // check and its wait.
            let _g = self.shared.done.lock().unwrap();
            self.shared.done_cv.notify_all();
        }
    }

    fn done(&self, queued: usize) -> bool {
        self.shared.abort.load(Ordering::Acquire)
            || (queued == 0
                && self.shared.draining.load(Ordering::Acquire)
                && self.shared.live.load(Ordering::Acquire) == 0)
    }

    fn park(&mut self, nap: Duration) {
        let inj = self.shard.injector.lock().unwrap();
        if inj.is_empty() && !self.shared.abort.load(Ordering::Acquire) {
            // Submissions, `join` and `Drop` notify `wake`, so the park
            // ends early on new work or shutdown.
            let _ = self.shard.wake.wait_timeout(inj, nap).unwrap();
        }
    }
}

/// Cloneable spawner/observer for a running fleet. Obtained from
/// [`ReactorFleet::handle`]; safe to use from inside fleet tasks.
#[derive(Clone)]
pub struct FleetHandle {
    shared: Arc<FleetShared>,
}

impl FleetHandle {
    /// Spawn onto the least-loaded shard (run queue + injector backlog).
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        let shared = &self.shared;
        let shard = (0..shared.shards.len())
            .min_by_key(|&i| shared.shards[i].queued())
            .expect("fleet has at least one shard");
        self.spawn_on(shard, fut);
    }

    /// Spawn onto a specific shard.
    pub fn spawn_on(&self, shard: usize, fut: impl Future<Output = ()> + Send + 'static) {
        let s = &self.shared.shards[shard];
        debug_assert!(
            !self.shared.draining.load(Ordering::Acquire),
            "spawn after ReactorFleet::join"
        );
        self.shared.live.fetch_add(1, Ordering::AcqRel);
        s.injector.lock().unwrap().push(Box::pin(fut));
        s.wake.notify_one();
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.shards.len()
    }

    /// Spawned-but-not-completed tasks, fleet-wide.
    pub fn live(&self) -> usize {
        self.shared.live.load(Ordering::Acquire)
    }

    /// Current per-shard counters, in shard order.
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.shared.shards.iter().map(|s| *s.stats.lock().unwrap()).collect()
    }
}

/// N event-loop threads, each owning a shard of tasks. See the module docs.
pub struct ReactorFleet {
    handle: FleetHandle,
    workers: Vec<thread::JoinHandle<()>>,
}

impl ReactorFleet {
    /// Start a fleet of `threads` workers (at least one).
    pub fn new(threads: usize) -> ReactorFleet {
        let n = threads.max(1);
        let shards = (0..n)
            .map(|shard| ShardState {
                injector: Mutex::new(Vec::new()),
                wake: Condvar::new(),
                stats: Mutex::new(ShardSnapshot { shard, ..Default::default() }),
            })
            .collect();
        let shared = Arc::new(FleetShared {
            shards,
            live: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let workers = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("flexio-shard-{i}"))
                    .spawn(move || {
                        let shard = &shared.shards[i];
                        exec::run_shard(&mut Vec::new(), &mut Worker { shared: &shared, shard });
                    })
                    .expect("spawn fleet worker")
            })
            .collect();
        ReactorFleet { handle: FleetHandle { shared }, workers }
    }

    /// A cloneable spawner/observer for this fleet.
    pub fn handle(&self) -> FleetHandle {
        self.handle.clone()
    }

    /// Spawn onto the least-loaded shard.
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        self.handle.spawn(fut);
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handle.threads()
    }

    /// Wait for every spawned task to complete, stop the workers, and
    /// return final per-shard counters. The caller promises not to
    /// spawn from outside the fleet once `join` is called (tasks may
    /// still spawn siblings until they finish).
    pub fn join(mut self) -> Vec<ShardSnapshot> {
        let shared = &self.handle.shared;
        {
            let mut g = shared.done.lock().unwrap();
            while shared.live.load(Ordering::Acquire) != 0 {
                g = shared.done_cv.wait(g).unwrap();
            }
        }
        shared.draining.store(true, Ordering::Release);
        for s in &shared.shards {
            s.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.handle.snapshots()
    }
}

impl Drop for ReactorFleet {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return; // joined
        }
        // Dropped without join: abandon pending tasks and stop.
        self.handle.shared.abort.store(true, Ordering::Release);
        for s in &self.handle.shared.shards {
            s.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sleep, yield_now};
    use std::sync::atomic::AtomicU32;
    use std::time::Instant;

    #[test]
    fn tasks_complete_across_shards() {
        let fleet = ReactorFleet::new(3);
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            fleet.spawn(async move {
                yield_now().await;
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let snaps = fleet.join();
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(snaps.iter().map(|s| s.completed).sum::<u64>(), 50);
        assert_eq!(snaps.len(), 3);
    }

    #[test]
    fn spawn_balances_across_shards() {
        let fleet = ReactorFleet::new(4);
        // A barrier-style task set: none can finish until all are
        // spawned, so the least-loaded choice at spawn time is visible
        // in the completion counts.
        let release = Arc::new(AtomicBool::new(false));
        for _ in 0..40 {
            let release = Arc::clone(&release);
            fleet.spawn(async move {
                while !release.load(Ordering::Acquire) {
                    yield_now().await;
                }
            });
        }
        release.store(true, Ordering::Release);
        let snaps = fleet.join();
        for s in &snaps {
            assert!(s.completed >= 5, "shard {} starved: {:?}", s.shard, snaps);
        }
    }

    #[test]
    fn timers_fire_on_fleet_workers() {
        let fleet = ReactorFleet::new(2);
        let t0 = Instant::now();
        let done = Arc::new(AtomicU32::new(0));
        for _ in 0..8 {
            let done = Arc::clone(&done);
            fleet.spawn(async move {
                sleep(Duration::from_millis(5)).await;
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        fleet.join();
        assert_eq!(done.load(Ordering::Relaxed), 8);
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    /// (every poll of the ping-pong tasks, sleeps in wake order)
    type Trace = Arc<Mutex<(Vec<u32>, Vec<u64>)>>;

    /// Spawn three sleeps, then two ping-pong tasks that log each of
    /// their polls from the last-spawned one's first — by then all five
    /// are queued, on a fleet too.
    fn spawn_mixed(mut spawn: impl FnMut(FleetTask)) -> Trace {
        let trace = Trace::default();
        for ms in [12u64, 2, 6] {
            let trace = Arc::clone(&trace);
            spawn(Box::pin(async move {
                sleep(Duration::from_millis(ms)).await;
                trace.lock().unwrap().1.push(ms);
            }));
        }
        let turn = Arc::new(AtomicU32::new(0));
        for me in 0..2u32 {
            let (turn, trace) = (Arc::clone(&turn), Arc::clone(&trace));
            spawn(Box::pin(async move {
                while me == 0 && trace.lock().unwrap().0.is_empty() {
                    yield_now().await;
                }
                for _ in 0..50 {
                    trace.lock().unwrap().0.push(me);
                    while turn.load(Ordering::Acquire) % 2 != me {
                        yield_now().await;
                        trace.lock().unwrap().0.push(me);
                    }
                    turn.fetch_add(1, Ordering::AcqRel);
                }
            }));
        }
        trace
    }

    #[test]
    fn one_shard_fleet_interleaves_like_a_reactor() {
        let mut reactor = crate::Reactor::new();
        let on_reactor = spawn_mixed(|task| reactor.spawn(task));
        reactor.run();
        let fleet = ReactorFleet::new(1);
        let on_fleet = spawn_mixed(|task| fleet.spawn(task));
        fleet.join();
        let on_reactor = on_reactor.lock().unwrap();
        assert_eq!(on_reactor.0[..5], [1, 0, 0, 1, 1], "round-robin in spawn order");
        assert_eq!(on_reactor.1, [2, 6, 12]);
        assert_eq!(*on_reactor, *on_fleet.lock().unwrap());
    }

    #[test]
    fn parked_worker_adopts_a_submission_before_its_timer() {
        let fleet = ReactorFleet::new(1);
        let t0 = Instant::now();
        fleet.spawn(async { sleep(Duration::from_millis(200)).await });
        // Nothing shows from outside that a worker is parked: give it the
        // time to run out of spins and yields on its one far deadline.
        thread::sleep(Duration::from_millis(5));
        let (tx, rx) = std::sync::mpsc::channel();
        fleet.spawn(async move { tx.send(()).unwrap() });
        rx.recv_timeout(Duration::from_millis(100)).expect("ran while the sleeper still waits");
        fleet.join();
        assert!(t0.elapsed() >= Duration::from_millis(200), "the sleeper was still pending");
    }

    #[test]
    fn join_with_no_tasks_returns_immediately() {
        let snaps = ReactorFleet::new(2).join();
        assert_eq!(snaps.iter().map(|s| s.completed).sum::<u64>(), 0);
    }

    #[test]
    fn drop_without_join_abandons_pending_tasks() {
        let fleet = ReactorFleet::new(2);
        fleet.spawn(async {
            loop {
                sleep(Duration::from_millis(50)).await;
            }
        });
        drop(fleet); // must not hang
    }
}
