//! `shm` — the intra-node shared-memory transport (paper §II.D).
//!
//! FlexIO moves data between a simulation process and analytics running on
//! *helper cores* of the same node through shared memory. The paper's design,
//! reproduced here:
//!
//! * **Data queues**: single-producer single-consumer, circular, lock-free
//!   FIFO queues inspired by FastForward \[17\]. Producer and consumer keep
//!   *separate* head/tail indices in different cache lines (no shared
//!   counter), each entry carries a `full`/`empty` status flag, and entries
//!   are aligned and padded so they never share a cache line — eliminating
//!   false sharing and minimizing coherence traffic. See [`spsc`].
//! * **Buffer pool** for large messages: the producer pre-allocates a pool
//!   indexed by a free list; a large send copies the payload into a pooled
//!   buffer of the closest size (allocating one on miss), posts it in its
//!   pool slot and passes the small control message "(slot, start, len)"
//!   through the data queue. The paper's consumer copies out and returns
//!   the buffer — two copies; here the consumer claims the slot, is leased
//!   the buffer, reads the message in place, and the buffer returns to the
//!   free list when the [`Lease`] drops — **one copy**, asynchronous. This
//!   is also the copy count of the paper's synchronous XPMEM page-mapping
//!   path (Cray XK), which therefore has no counterpart here. See [`pool`].
//!
//! The paper substitution (see DESIGN.md): the original uses SysV/mmap
//! segments between *processes*; we share memory between *threads* of one
//! process, which exercises identical cache-coherence and synchronization
//! behaviour — the queue algorithm, memory-ordering discipline, padding and
//! copy counts are the artifacts under test.
//!
//! # Quickstart
//!
//! ```
//! use shm::channel::shm_channel;
//!
//! let (mut tx, mut rx) = shm_channel(64, 256); // 64 entries, 256-byte inline payloads
//! std::thread::spawn(move || {
//!     tx.send_copy(b"hello from the simulation");
//! });
//! assert_eq!(&rx.recv().unwrap()[..], b"hello from the simulation");
//! ```

pub mod channel;
pub mod placement;
pub mod pool;
pub mod spsc;

pub use channel::{shm_channel, shm_channel_with_pool, ChannelError, ShmReceiver, ShmSender};
pub use pool::{BufferPool, Lease, PoolBuffer, PoolStats};
pub use spsc::{spsc_queue, Consumer, Producer, PushError};
