//! # flexio-reactor — one core drives many streams
//!
//! FlexIO's helper-core placement (paper §V) only pays off if the
//! middleware itself stays off the compute cores. The blocking backend
//! spends an OS thread per coupled stream: each thread parks in
//! `recv_retry` waiting for its own channel. This crate is the
//! alternative — a deliberately small, dependency-free, single-threaded
//! event-loop runtime:
//!
//! * [`Reactor`] — a cooperative executor. Tasks are plain `Future`s
//!   (the compiler turns the writer/reader engine protocol into the
//!   per-stream state machine for us); one event loop polls every task
//!   once a round, then idles the core until the next timer deadline.
//!   [`block_inline`] runs one such future as a plain blocking call,
//!   with no loop: its waits park the calling thread.
//! * [`TimerWheel`] — a hashed timer wheel. Retry budgets
//!   (`recv_timeout × 2^attempt`), fault stalls, and poll pacing all
//!   become wheel entries instead of per-thread `sleep` calls, so one
//!   core can hold thousands of pending deadlines.
//! * [`Backoff`] — the spin → yield → park escalation that is both the
//!   event loop's idle step and the blocking backend's receive wait
//!   (replacing the fixed 100 µs sleeps that used to burn a core).
//!
//! There are no wakers wired to I/O sources: the transports (shm SPSC
//! queues, in-proc channels, simulated RDMA) are poll-only, so readiness
//! is discovered by polling and the wheel only bounds *how long* the
//! core sleeps between discovery rounds. Futures that make progress call
//! [`note_progress`] so the executor knows to keep spinning hot. Only a
//! blocking call, which serves one receive, blocks on a socket's fd
//! ([`Pacing::pause_on`]).
//!
//! When one core stops being enough, [`ReactorFleet`] runs the same
//! loop on N worker threads — each owning a shard of tasks, fed by a
//! cross-thread submission queue that places every task on the
//! least-loaded shard (of a NUMA domain, when asked), and publishing
//! per-shard progress counters ([`note_step`] feeds the steps/s signal).
//! See the [`fleet`] module docs.

#![forbid(unsafe_code)]

mod backoff;
mod exec;
pub mod fleet;
mod wheel;

pub use backoff::Backoff;
pub use exec::{
    block_inline, in_reactor, note_progress, note_step, sleep, sleep_until, yield_now, Pacing,
    Reactor,
};
pub use fleet::{FleetBuilder, FleetHandle, FleetTopology, ReactorFleet, ShardSlot, ShardSnapshot};
pub use wheel::{TimerId, TimerWheel};
