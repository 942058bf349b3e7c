//! `rankrt` — an in-process parallel runtime that stands in for MPI.
//!
//! The FlexIO paper couples parallel programs whose processes are MPI ranks.
//! This crate provides the equivalent substrate for a single-machine
//! reproduction: each *rank* is an OS thread, and ranks exchange typed,
//! tagged messages through lock-free channels. On top of point-to-point
//! messaging we provide the collectives the examples and tests run
//! (barrier, broadcast, gather, sum reductions); [`spawn_ranks`] starts
//! one OS process per rank instead, for couplings that must survive
//! `kill -9`.
//!
//! Semantics intentionally mirror MPI:
//!
//! * messages between a fixed `(source, destination, tag)` triple are
//!   delivered in FIFO order;
//! * `recv` with a concrete source/tag performs *matching*: messages that
//!   arrive early for other `(source, tag)` pairs are buffered locally and
//!   do not block unrelated receives;
//! * collectives must be entered by every rank of the communicator.
//!
//! # Example
//!
//! ```
//! use rankrt::launch;
//!
//! let results = launch(4, |comm| {
//!     // ring exchange: send our rank to the right neighbour
//!     let right = (comm.rank() + 1) % comm.size();
//!     let left = (comm.rank() + comm.size() - 1) % comm.size();
//!     comm.send(right, 7, &comm.rank().to_le_bytes());
//!     let msg = comm.recv(left, 7);
//!     usize::from_le_bytes(msg.try_into().unwrap())
//! });
//! assert_eq!(results, vec![3, 0, 1, 2]);
//! ```

mod collectives;
mod comm;
mod launch;
mod typed;

pub use comm::{Comm, Tag};
pub use launch::{launch, launch_named, spawn_ranks, RankEnv, RankProc};
pub use typed::{bytes_as_f64s, f64s_as_bytes};
