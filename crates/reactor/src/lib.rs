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
//!   per-stream state machine for us); one `run()` loop polls every
//!   runnable task, then parks the core until the next timer deadline.
//! * [`TimerWheel`] — a hashed timer wheel. Retry budgets
//!   (`recv_timeout × 2^attempt`), fault stalls, and poll pacing all
//!   become wheel entries instead of per-thread `sleep` calls, so one
//!   core can hold thousands of pending deadlines.
//! * [`Backoff`] — the spin → yield → park escalation used both by the
//!   reactor's idle loop and by the blocking backend's receive loops
//!   (replacing the fixed 100 µs sleeps that used to burn a core).
//!
//! There are no wakers wired to I/O sources: the transports (shm SPSC
//! queues, in-proc channels, simulated RDMA) are poll-only, so readiness
//! is discovered by polling and the wheel only bounds *how long* the
//! core sleeps between discovery rounds. Futures that make progress call
//! [`note_progress`] so the executor knows to keep spinning hot.
//!
//! When one core stops being enough, [`ReactorFleet`] runs N of these
//! loops on worker threads — each owning a shard of tasks, with a
//! cross-shard submission queue, per-shard progress counters
//! ([`note_step`] feeds the steps/s signal), and a periodic rebalancer
//! that migrates work from hot shards to cold ones (see the
//! [`fleet`] and [`rebalance`] module docs).

#![forbid(unsafe_code)]

mod backoff;
mod exec;
pub mod fleet;
pub mod rebalance;
mod wheel;

pub use backoff::Backoff;
pub use exec::{
    block_inline, block_on, in_reactor, note_progress, note_step, sleep, sleep_until, yield_now,
    Pacing, Reactor,
};
pub use fleet::{FleetBuilder, FleetHandle, FleetTopology, ReactorFleet, ShardSlot, ShardSnapshot};
pub use rebalance::{Migration, RebalancePolicy, ShardLoad};
pub use wheel::{TimerId, TimerWheel};
