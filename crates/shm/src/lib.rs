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
//!   false sharing and minimizing coherence traffic. The producer writes a
//!   message straight into its entry and the consumer reads it there, so
//!   an inline message is copied once in and once out, into the receiver's
//!   [`Lease`], and a pooled frame's descriptor is parsed where it lies.
//!   See [`spsc`].
//! * **Buffer pool** for large messages: the producer pre-allocates a pool
//!   indexed by a free list; a large send copies the payload into a pooled
//!   buffer of the closest size (allocating one on miss), posts it in its
//!   pool slot and passes the small control message "(slot, start, len)"
//!   through the data queue. The paper's consumer copies out and returns
//!   the buffer — two copies; here the consumer claims the slot, is leased
//!   the buffer, reads the message in place, and the buffer returns to the
//!   free list when the [`Lease`] drops — **one copy**, asynchronous. See
//!   [`pool`].
//! * **Exposed windows** for payloads that already lie in shared, immutable
//!   buffers: the analogue of the paper's XPMEM page-mapping path (Cray XK),
//!   which maps the producer's pages so that the consumer copies once. Here
//!   the producer exposes each payload's [`Window`] to the channel and
//!   passes only the message's metadata through the data queue; the
//!   consumer claims the windows and reads the producer's buffers in place
//!   — **no copy**. See [`channel`].
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
mod stack_vec;

pub use channel::{shm_channel, shm_channel_with_pool, ChannelError, ShmReceiver, ShmSender};
pub use pool::{BufferPool, Lease, PoolBuffer, PoolStats, Window, INLINE_WINDOWS};
pub use spsc::{spsc_queue, Consumer, Producer, TooLarge};
pub use stack_vec::StackVec;
