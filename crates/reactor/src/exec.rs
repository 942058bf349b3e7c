//! The one event loop, and the wait futures that talk to it.
//!
//! Every executor in this crate is `run_shard`: a run queue of tasks
//! (plain `Future`s — the writer/reader engine protocol is written as
//! `async fn`s) driven from one thread. Each iteration is a **round** —
//! adopt newly submitted tasks, poll every task once in queue order
//! (there are no wakers wired to the poll-only transports, so polling
//! *is* the readiness check), sweep the [`TimerWheel`] — and, when the
//! round progressed nothing, an **idle step**: one [`Backoff`] escalation
//! whose park never outlasts the wheel's next deadline.
//!
//! The two hosts differ only in the `Host` they hand that loop:
//! [`Reactor::run`] runs it on the caller's thread over `!Send` tasks,
//! and a [`crate::ReactorFleet`] worker on its own thread with an
//! injector queue to adopt from, counters to publish and a condvar to
//! park on.
//!
//! Futures communicate with the enclosing loop through a thread-local
//! context: [`sleep_until`] registers its deadline in the wheel,
//! [`note_progress`] keeps the loop hot after useful work, and
//! [`yield_now`] marks the task runnable-again-immediately.
//! The wait futures ([`sleep`], [`yield_now`], [`poll_for`]'s pauses)
//! resolve by who polls them: with no loop on the thread there is
//! nothing else to run, so they serve the wait on the spot
//! (`thread::sleep`, nothing, [`Backoff`]) and finish in one poll. That is what lets [`block_inline`]
//! run the same engine futures as plain blocking calls. There a
//! [`poll_for_on`] park is handed to the caller's readiness wait (a
//! socket's `poll(2)`); inside a loop it never is, since the loop serves
//! many sources and must not block on one.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use crate::backoff::Backoff;
use crate::wheel::{TimerId, TimerWheel};

struct Cx {
    wheel: TimerWheel,
    /// Set by futures when they did useful work (received a message,
    /// finished a protocol phase) or want an immediate re-poll.
    progressed: bool,
    /// Application-level units of work (protocol steps) completed since
    /// the loop last harvested the counter — the fleet's per-shard
    /// steps/s signal.
    steps: u64,
}

thread_local! {
    static CX: RefCell<Option<Cx>> = const { RefCell::new(None) };
}

/// True while the calling thread is inside an event loop ([`Reactor::run`],
/// a fleet worker) — i.e. the timer wheel is available.
pub fn in_reactor() -> bool {
    CX.with(|cx| cx.borrow().is_some())
}

/// Tell the executor this round did useful work, so it keeps polling
/// hot instead of parking. Call after a successful non-blocking receive
/// or any other externally-visible progress.
pub fn note_progress() {
    CX.with(|cx| {
        if let Some(cx) = cx.borrow_mut().as_mut() {
            cx.progressed = true;
        }
    });
}

/// Tell the executor one application-level unit of work (a protocol
/// step) completed. The engines call this when a step commits; a
/// [`crate::ReactorFleet`] worker publishes the count every round as its
/// shard's `steps` counter.
/// Implies [`note_progress`]. A no-op outside a reactor.
pub fn note_step() {
    CX.with(|cx| {
        if let Some(cx) = cx.borrow_mut().as_mut() {
            cx.steps += 1;
            cx.progressed = true;
        }
    });
}

fn with_wheel<R>(f: impl FnOnce(&mut TimerWheel) -> R) -> Option<R> {
    CX.with(|cx| cx.borrow_mut().as_mut().map(|cx| f(&mut cx.wheel)))
}

/// Clears the thread-local context on scope exit (including panics), so
/// a poisoned reactor doesn't wedge the thread for the next one.
struct CxGuard;

impl CxGuard {
    fn enter() -> CxGuard {
        CX.with(|cx| {
            let mut cx = cx.borrow_mut();
            assert!(
                cx.is_none(),
                "nested reactor: a loop started from inside a reactor task \
                 (spawn the future on the enclosing loop instead)"
            );
            *cx = Some(Cx { wheel: TimerWheel::default(), progressed: false, steps: 0 });
        });
        CxGuard
    }
}

impl Drop for CxGuard {
    fn drop(&mut self) {
        CX.with(|cx| *cx.borrow_mut() = None);
    }
}

/// One round's tally, handed to [`Host::publish`].
pub(crate) struct Round {
    /// Task polls performed (every queued task, once).
    pub(crate) polled: u64,
    /// Tasks that ran to completion and left the queue; the rest of
    /// `polled` are still in it.
    pub(crate) finished: u64,
    /// Protocol steps committed ([`note_step`]).
    pub(crate) steps: u64,
    /// Whether anything progressed: a task finished or called
    /// [`note_progress`], or a timer fired.
    pub(crate) busy: bool,
}

/// What a [`run_shard`] loop is attached to. The defaults, `()`, are a
/// loop alone on its thread: nobody submits, nobody watches, it ends
/// with its last task. A fleet worker overrides all four.
pub(crate) trait Host<T> {
    /// Move newly submitted tasks onto the back of the run queue.
    fn adopt(&mut self, _run: &mut Vec<T>) {}
    /// Take note of a finished round.
    fn publish(&mut self, _round: &Round) {}
    /// Whether the loop ends now, with `queued` tasks in its run queue.
    fn done(&self, queued: usize) -> bool {
        queued == 0
    }
    /// Sleep for at most `nap`.
    fn park(&mut self, nap: Duration) {
        std::thread::sleep(nap);
    }
}

impl<T> Host<T> for () {}

/// Sweep the wheel and tally the round that polled `polled` tasks and
/// left `queued` of them, taking what their polls marked in the context.
fn tally(polled: usize, queued: usize) -> Round {
    CX.with(|cx| {
        let mut cx = cx.borrow_mut();
        let cx = cx.as_mut().expect("reactor context");
        let fired = cx.wheel.advance(Instant::now());
        Round {
            polled: polled as u64,
            finished: (polled - queued) as u64,
            steps: std::mem::take(&mut cx.steps),
            busy: std::mem::take(&mut cx.progressed) || fired > 0 || polled > queued,
        }
    })
}

/// The event loop: drive the tasks in `run` (and whatever `host` has it
/// adopt) on the calling thread until `host` says it is done. See the
/// module docs. Panics if the thread is already inside one.
pub(crate) fn run_shard<T>(run: &mut Vec<T>, host: &mut impl Host<T>)
where
    T: Future<Output = ()> + Unpin,
{
    let _guard = CxGuard::enter();
    let mut ctx = Context::from_waker(Waker::noop());
    let mut backoff = Backoff::new();
    while !host.done(run.len()) {
        host.adopt(run);
        let polled = run.len();
        run.retain_mut(|task| Pin::new(task).poll(&mut ctx).is_pending());
        let round = tally(polled, run.len());
        host.publish(&round);
        if round.busy {
            backoff.reset();
            continue;
        }
        // Idle: the tasks wait on a timer or on something that is not one
        // (a channel), so never park past the wheel's next deadline and
        // never longer than `Backoff` allows between two looks.
        let deadline = with_wheel(|w| w.next_deadline()).flatten();
        let cap = deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
        backoff.snooze_with(cap, |nap| host.park(nap));
    }
}

/// A single-threaded cooperative executor: the event loop of the module
/// docs over tasks spawned before it runs.
#[derive(Default)]
pub struct Reactor {
    tasks: Vec<Pin<Box<dyn Future<Output = ()>>>>,
}

impl Reactor {
    /// An executor with no tasks.
    pub fn new() -> Self {
        Reactor { tasks: Vec::new() }
    }

    /// Queue a task. Tasks only make progress inside [`run`](Self::run).
    /// `'static` but deliberately *not* `Send`: every task stays on the
    /// reactor's one thread, so captures may be `Rc`/`RefCell`.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        self.tasks.push(Box::pin(fut));
    }

    /// Number of tasks not yet run to completion.
    pub fn pending(&self) -> usize {
        self.tasks.len()
    }

    /// Drive every spawned task to completion on the calling thread.
    pub fn run(&mut self) {
        run_shard(&mut self.tasks, &mut ());
    }
}

/// Drive one future to completion on the calling thread with *no* event
/// loop: any enclosing reactor is hidden for the duration, so the wait
/// futures inside serve their waits on this thread (see the module docs)
/// and an engine future finishes in its first poll. This is every
/// blocking call of the `StreamWriter`/`StreamReader` API: the engine's
/// protocol code, waiting through [`Backoff`].
pub fn block_inline<F: Future>(fut: F) -> F::Output {
    struct Restore(Option<Cx>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CX.with(|cx| *cx.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CX.with(|cx| cx.borrow_mut().take()));
    let mut ctx = Context::from_waker(Waker::noop());
    let mut fut = std::pin::pin!(fut);
    let mut backoff = Backoff::new();
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut ctx) {
            return out;
        }
        backoff.snooze(); // the future waits on something not of this module
    }
}

/// Sleep until `deadline`. Registers a wheel entry so the executor
/// knows how long it may park; completion is checked against the clock
/// on each poll (there are no wakers). Outside a reactor the calling
/// thread sleeps instead.
pub fn sleep_until(deadline: Instant) -> Sleep {
    Sleep { deadline: Some(deadline), timer: None }
}

/// Sleep for `dur`. See [`sleep_until`]. A `dur` past the clock's range,
/// `Duration::MAX` among them, follows [`poll_for`]'s rule: the sleep
/// never fires on a reactor and blocks a plain thread for good.
pub fn sleep(dur: Duration) -> Sleep {
    Sleep { deadline: Instant::now().checked_add(dur), timer: None }
}

/// Future returned by [`sleep`] / [`sleep_until`].
#[derive(Debug)]
pub struct Sleep {
    /// `None`: past the clock's range, never due.
    deadline: Option<Instant>,
    timer: Option<TimerId>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _ctx: &mut Context<'_>) -> Poll<()> {
        let left =
            self.deadline.map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
        if !left.is_zero() {
            if in_reactor() {
                if self.timer.is_none() {
                    self.timer = self.deadline.and_then(|d| with_wheel(|w| w.insert(d)));
                }
                return Poll::Pending;
            }
            std::thread::sleep(left);
        }
        if let Some(id) = self.timer.take() {
            with_wheel(|w| w.cancel(id));
        }
        Poll::Ready(())
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        // Cancelled sleeps (future dropped early) must not keep waking
        // the executor.
        if let Some(id) = self.timer.take() {
            with_wheel(|w| w.cancel(id));
        }
    }
}

/// Yield to the other tasks on this reactor once, staying runnable.
/// Outside a reactor there is no one to yield to: ready at once.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// Future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _ctx: &mut Context<'_>) -> Poll<()> {
        if self.yielded || !in_reactor() {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // A yielded task is still runnable: keep the loop hot.
            note_progress();
            Poll::Pending
        }
    }
}

/// Poll `probe` until it yields or `budget` has passed, pacing the waits
/// in between: the one deadline wait of the stack (directory lookups,
/// reader attach, every protocol receive's timeout-and-retry). A budget
/// past the clock's range, `Duration::MAX` among them, never expires.
pub async fn poll_for<T>(budget: Duration, mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    poll_for_on(budget, &mut (), |_| probe(), |_, _| false).await
}

/// [`poll_for`] over a source `src` that can be waited on: on a plain
/// thread a pause that parks calls `wait(src, time left)` first (a
/// socket's `poll(2)`) and naps only when it returns `false`.
pub async fn poll_for_on<S: ?Sized, T>(
    budget: Duration,
    src: &mut S,
    mut probe: impl FnMut(&mut S) -> Option<T>,
    mut wait: impl FnMut(&mut S, Duration) -> bool,
) -> Option<T> {
    let deadline = Instant::now().checked_add(budget);
    let mut pacing = Pacing::new();
    loop {
        if let Some(found) = probe(src) {
            return Some(found);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        pacing.pause_on(deadline, |left| wait(src, left)).await;
    }
}

/// How [`poll_for_on`] waits between probes: the async analogue of
/// [`Backoff`]. Inside a reactor it yields to the other tasks first (a
/// round-robin sweep is itself a wait), then takes short wheel sleeps
/// that double up to a cap, so an idle stream's receive loop converges
/// to ~1 kHz wheel entries instead of monopolising the executor. Outside
/// a reactor it *is* a [`Backoff`], whose parks
/// [`pause_on`](Self::pause_on) can hand to a readiness wait.
#[derive(Debug)]
struct Pacing {
    rounds: u32,
    /// Serves the pauses taken outside a reactor.
    thread: Backoff,
}

/// Poll rounds served by bare yields before sleeping between polls.
const PACING_YIELDS: u32 = 8;
/// First inter-poll sleep; doubles per round up to [`PACING_MAX`].
const PACING_MIN: Duration = Duration::from_micros(50);
/// Longest inter-poll sleep.
const PACING_MAX: Duration = Duration::from_millis(1);

impl Pacing {
    /// A fresh pacing strategy, starting in the yield regime.
    fn new() -> Self {
        Pacing { rounds: 0, thread: Backoff::new() }
    }

    /// Wait once, escalating yield → short sleep across calls, never
    /// sleeping past `cap` when there is one. On a plain thread, once the
    /// [`Backoff`] parks, the park calls `wait(time left until cap)`
    /// instead — a caller that blocks on its source (a socket's
    /// `poll(2)`) wakes when the source is ready, not at the end of a nap
    /// — and sleeps the nap only when `wait` returns `false` (it had
    /// nothing to block on). Spinning and yielding are unchanged. Inside
    /// a loop `wait` is never called: the loop serves many sources and
    /// must not block on one.
    async fn pause_on(&mut self, cap: Option<Instant>, wait: impl FnOnce(Duration) -> bool) {
        if !in_reactor() {
            let left = cap.map_or(Duration::MAX, |c| c.saturating_duration_since(Instant::now()));
            return self.thread.snooze_with(left, |nap| {
                if !wait(left) {
                    std::thread::sleep(nap);
                }
            });
        }
        let round = self.rounds;
        self.rounds = self.rounds.saturating_add(1);
        if round < PACING_YIELDS {
            yield_now().await;
            return;
        }
        let exp = (round - PACING_YIELDS).min(6);
        let mut nap = (PACING_MIN * 2u32.pow(exp)).min(PACING_MAX);
        if let Some(cap) = cap {
            nap = nap.min(cap.saturating_duration_since(Instant::now()));
        }
        if nap.is_zero() {
            yield_now().await;
        } else {
            sleep(nap).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn sleeps_complete_and_wheel_parks() {
        let t0 = Instant::now();
        let mut r = Reactor::new();
        r.spawn(sleep(Duration::from_millis(5)));
        r.run();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(!in_reactor(), "context must be torn down");
    }

    #[test]
    fn a_sleep_past_the_clocks_range_stays_pending_on_a_reactor() {
        let mut r = Reactor::new();
        r.spawn(async {
            let mut forever = std::pin::pin!(sleep(Duration::MAX));
            let mut ctx = Context::from_waker(Waker::noop());
            assert!(forever.as_mut().poll(&mut ctx).is_pending());
            assert_eq!(with_wheel(|w| w.len()), Some(0), "no wheel entry for a deadline never due");
        });
        r.run();
    }

    #[test]
    fn many_tasks_interleave_on_one_thread() {
        // Two tasks ping-pong through a shared cell: neither can finish
        // without the other being polled in between, proving the
        // round-robin actually interleaves.
        let turn = Rc::new(Cell::new(0u32));
        let mut r = Reactor::new();
        for me in 0..2u32 {
            let turn = Rc::clone(&turn);
            r.spawn(async move {
                for _ in 0..100 {
                    while turn.get() % 2 != me {
                        yield_now().await;
                    }
                    turn.set(turn.get() + 1);
                }
            });
        }
        r.run();
        assert_eq!(turn.get(), 200);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut r = Reactor::new();
        for (label, ms) in [("slow", 12u64), ("fast", 2), ("mid", 6)] {
            let order = Rc::clone(&order);
            r.spawn(async move {
                sleep(Duration::from_millis(ms)).await;
                order.borrow_mut().push(label);
            });
        }
        r.run();
        assert_eq!(*order.borrow(), vec!["fast", "mid", "slow"]);
    }

    #[test]
    fn on_a_plain_thread_waits_finish_in_one_poll() {
        let mut ctx = Context::from_waker(Waker::noop());
        let t0 = Instant::now();
        assert!(std::pin::pin!(sleep(Duration::from_millis(5))).poll(&mut ctx).is_ready());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(std::pin::pin!(yield_now()).poll(&mut ctx).is_ready());
    }

    #[test]
    fn pacing_on_a_plain_thread_escalates_like_backoff() {
        let mut ctx = Context::from_waker(Waker::noop());
        let mut p = Pacing::new();
        let t0 = Instant::now();
        while !p.thread.is_parking() {
            assert!(std::pin::pin!(p.pause_on(None, |_| false)).poll(&mut ctx).is_ready());
        }
        assert!(t0.elapsed() >= Duration::from_micros(200), "parked inside the yield window");
        // Uncapped, these 20 parks would sleep 10 µs doubling to 1 ms each
        // (≥ 15 ms); a cap that is already due must cut every one short.
        let t0 = Instant::now();
        for _ in 0..20 {
            assert!(std::pin::pin!(p.pause_on(Some(t0), |_| false)).poll(&mut ctx).is_ready());
        }
        assert!(t0.elapsed() < Duration::from_millis(10), "slept past the cap");
        assert_eq!(p.thread.park_interval(), Some(Duration::from_millis(1)));
    }

    #[test]
    fn pause_on_hands_each_park_to_the_wait_with_the_time_left() {
        let mut ctx = Context::from_waker(Waker::noop());
        let mut p = Pacing::new();
        let mut waited = false;
        while !p.thread.is_parking() {
            let pause = p.pause_on(None, |_| std::mem::replace(&mut waited, true));
            assert!(std::pin::pin!(pause).poll(&mut ctx).is_ready());
        }
        assert!(!waited, "spin and yield rounds never wait");
        // Each park hands `wait` the time left until the cap, not the nap
        // (10 µs doubling to 1 ms: ≥ 15 ms over 20 parks); a wait that
        // says it served the pause leaves no nap to sleep.
        let cap = Instant::now() + Duration::from_secs(60);
        let t0 = Instant::now();
        for _ in 0..20 {
            let mut handed = Duration::ZERO;
            let pause = p.pause_on(Some(cap), |left| {
                handed = left;
                true
            });
            assert!(std::pin::pin!(pause).poll(&mut ctx).is_ready());
            assert!(handed > Duration::from_secs(50), "handed {handed:?}, not the time left");
        }
        assert!(t0.elapsed() < Duration::from_millis(10), "slept a nap after a served wait");
        // A wait with nothing to block on leaves the park to the nap.
        assert_eq!(p.thread.park_interval(), Some(Duration::from_millis(1)));
        let t0 = Instant::now();
        assert!(std::pin::pin!(p.pause_on(Some(cap), |_| false)).poll(&mut ctx).is_ready());
        assert!(t0.elapsed() >= Duration::from_millis(1), "an unserved park sleeps its nap");
    }

    #[test]
    fn poll_for_returns_the_probes_value_as_soon_as_it_has_one() {
        let mut probes = 0;
        let t0 = Instant::now();
        let found = block_inline(poll_for(Duration::from_secs(60), || {
            probes += 1;
            (probes == 3).then_some(probes)
        }));
        assert_eq!(found, Some(3), "probed past the hit");
        assert!(t0.elapsed() < Duration::from_secs(5), "waited on after the hit");
    }

    #[test]
    fn poll_for_gives_up_no_earlier_than_its_budget() {
        let t0 = Instant::now();
        assert_eq!(block_inline(poll_for(Duration::from_millis(20), || None::<()>)), None);
        assert!(t0.elapsed() >= Duration::from_millis(20), "gave up early");
        // On a reactor the pauses are wheel sleeps and yields, same budget.
        let mut r = Reactor::new();
        r.spawn(async {
            let t0 = Instant::now();
            assert_eq!(poll_for(Duration::from_millis(20), || None::<()>).await, None);
            assert!(t0.elapsed() >= Duration::from_millis(20), "gave up early on a reactor");
        });
        r.run();
    }

    #[test]
    fn poll_for_with_an_unbounded_budget_still_returns_a_hit() {
        let mut probes = 0;
        let found = block_inline(poll_for(Duration::MAX, || {
            probes += 1;
            (probes == 3).then_some("hit")
        }));
        assert_eq!(found, Some("hit"));
    }

    #[test]
    fn block_inline_returns_value_and_hides_the_reactor() {
        assert_eq!(block_inline(async { 41 + 1 }), 42);
        assert!(!in_reactor());
        let mut r = Reactor::new();
        r.spawn(async {
            assert!(!block_inline(async { in_reactor() }), "waits inside must block");
            assert!(in_reactor(), "the enclosing reactor is back afterwards");
        });
        r.run();
    }

    /// Blocking on a second loop from inside a reactor task panics.
    #[test]
    #[should_panic(expected = "nested reactor")]
    fn nested_block_on_panics() {
        let mut r = Reactor::new();
        r.spawn(async { Reactor::new().run() });
        r.run();
    }
}
