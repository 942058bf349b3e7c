//! Shared-memory buffer pool for large messages (paper §II.D).
//!
//! "The producer pre-allocates a shared memory buffer pool indexed with a
//! free list. When sending a large message, the producer tries to find a
//! buffer of the closest size in the pool (and allocates one if not found),
//! copies the message into it, sends a control message to the data queue
//! [...]. The consumer [...] returns the buffer to the producer's free
//! list."
//!
//! Buffers are binned by power-of-two size class; "closest size" is the
//! smallest class that fits. A configurable byte threshold triggers
//! reclamation of idle buffers (the same mechanism the RDMA transport uses,
//! §II.E), bounding total memory usage.
//!
//! Every buffer has a slot, its stable index in the pool: a channel posts
//! a filled buffer in its slot, sends the slot as the control message's
//! "address", and the consumer claims the slot.
//!
//! Where this tree departs from the paper: the consumer does not copy out.
//! It is handed the pool buffer itself as a [`Lease`], reads the message in
//! place, and the buffer goes back on the free list when the lease drops.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::StackVec;

/// Counters describing pool behaviour; exposed through FlexIO's performance
/// monitoring (paper §II.G instruments "dynamic memory allocation points").
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests satisfied from the free list.
    pub hits: u64,
    /// Requests that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers freed by reclamation.
    pub reclaimed: u64,
    /// Bytes currently resident in the pool (free + checked out).
    pub resident_bytes: u64,
}

/// A checked-out pool buffer. It remembers its pool and slot: dropping it,
/// on any thread and however long after the channel that carried it is
/// gone, is the paper's free-list return step ([`BufferPool::give_back`]
/// is the same thing spelled out), so the capacity accounting cannot leak.
pub struct PoolBuffer {
    /// Empty once [`post`](Self::post) has moved the bytes into the slot.
    data: Box<[u8]>,
    pub(crate) slot: usize,
    home: BufferPool,
}

impl Drop for PoolBuffer {
    fn drop(&mut self) {
        if self.data.is_empty() {
            return;
        }
        // A poisoned pool (a panic under its lock) keeps nothing back: a
        // drop may run while that panic unwinds, and must not panic again.
        if let Ok(mut slab) = self.home.inner.slab.lock() {
            let data = std::mem::take(&mut self.data);
            slab.list(self.slot, data, self.home.inner.reclaim_threshold);
        }
    }
}

impl std::fmt::Debug for PoolBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolBuffer").field("capacity", &self.capacity()).finish()
    }
}

impl PoolBuffer {
    /// Usable capacity (the size class, a power of two).
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Mutable view for the producer's copy-in.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Shared view for the consumer.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }

    /// Leave the buffer in its slot for `channel` to
    /// [`claim`](BufferPool::claim), and return the slot.
    pub(crate) fn post(mut self, channel: u64) -> usize {
        let data = std::mem::take(&mut self.data);
        self.home.inner.slab.lock().unwrap().posted[self.slot] = Some((channel, data));
        self.slot
    }
}

/// The bytes of one received message, leased from wherever the transport
/// received them into: a pool buffer (the shm pooled path, a socket's frame
/// buffers), a vector the receiver owns, or a buffer shared with the caller.
/// A *mapped* message is its metadata in a pool buffer and a [`Window`]
/// for each bulk payload: into the sender's own buffer on the shm
/// channel's exposed path, into the receiver's payload buffer for a
/// socket's split frame.
///
/// Dereferences to the message bytes; for a mapped message, to the bytes
/// around its windows (the [`windows`](Self::windows) say where each goes,
/// and [`into_vec`](Self::into_vec) splices them back). Decoded array views
/// point into the lease (behind an `Arc`), so the storage goes home — a
/// [`PoolBuffer`] back to its free list, a vector to the allocator — when
/// the last of them drops, wherever that is. An application that hoards views therefore pins
/// pool buffers: the pool answers with misses and a larger
/// [`PoolStats::resident_bytes`], where a copying receiver would have
/// returned the buffer at once.
pub struct Lease {
    storage: Storage,
    start: usize,
    end: usize,
}

enum Storage {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
    Pooled(PoolBuffer),
    Mapped { meta: PoolBuffer, windows: StackVec<Window, INLINE_WINDOWS> },
}

/// How many windows a mapped lease holds inline; more spill to the heap.
/// One serves a message of one bulk payload (every `ctl_sync_shm` and
/// `gts_shm` chunk) without an allocation and keeps a [`Lease`] small:
/// with eight, every lease was 344 bytes, and moving them cost
/// `ctl_sync_shm` 6–10 % of its steps/s.
pub const INLINE_WINDOWS: usize = 1;

/// A run of bytes of a shared buffer that a mapped message carries by
/// reference: the `len` bytes at `start` in `buf` go at offset `at` of the
/// bytes the message's [`Lease`] dereferences to.
#[derive(Clone)]
pub struct Window {
    /// Where the window's bytes go: an offset into the lease's bytes.
    pub at: usize,
    /// The buffer the bytes lie in, shared with whoever sent them.
    pub buf: Arc<Lease>,
    /// Offset of the first byte in `buf`.
    pub start: usize,
    /// Byte length.
    pub len: usize,
}

impl Window {
    /// The window's bytes, where they lie.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }
}

impl Lease {
    /// The `len` message bytes at `start` in a pool buffer.
    ///
    /// Panics if the window exceeds the buffer's capacity.
    pub fn pooled(buf: PoolBuffer, start: usize, len: usize) -> Lease {
        assert!(start + len <= buf.capacity(), "lease window exceeds the pool buffer");
        Lease { storage: Storage::Pooled(buf), start, end: start + len }
    }

    /// A mapped message: the first `len` bytes of `meta` with each
    /// window's bytes spliced in at its `at` (how the shm channel's exposed
    /// path and a socket's split frame deliver a message).
    ///
    /// Panics unless the windows' `at`s do not decrease and lie inside the
    /// `len` bytes, and each window lies inside its buffer.
    pub fn mapped(
        meta: PoolBuffer,
        len: usize,
        windows: StackVec<Window, INLINE_WINDOWS>,
    ) -> Lease {
        assert!(len <= meta.capacity(), "lease window exceeds the pool buffer");
        assert!(windows.windows(2).all(|w| w[0].at <= w[1].at), "windows out of order");
        assert!(windows.last().is_none_or(|w| w.at <= len), "a window past the metadata");
        assert!(
            windows
                .iter()
                .all(|w| w.start.checked_add(w.len).is_some_and(|end| end <= w.buf.len())),
            "a window past the end of its buffer"
        );
        Lease { start: 0, end: len, storage: Storage::Mapped { meta, windows } }
    }

    /// Drop the first `n` bytes from the message (a transport or framing
    /// header) without moving the rest. Panics if `n` exceeds the length.
    /// A mapped message whose first window goes inside those bytes (no
    /// sender's does) is read flat first, so the bytes dropped are the
    /// message's own.
    pub fn skip(&mut self, n: usize) {
        assert!(n <= self.len(), "skip past the end of the lease");
        if let Storage::Mapped { windows, .. } = &mut self.storage {
            if windows.first().is_some_and(|w| w.at < n) {
                *self = Lease::from(std::mem::replace(self, Lease::from(Vec::new())).into_vec());
            } else {
                windows.iter_mut().for_each(|w| w.at -= n);
            }
        }
        self.start += n;
    }

    /// A mapped message's windows, in message order; empty for any other.
    pub fn windows(&self) -> &[Window] {
        match &self.storage {
            Storage::Mapped { windows, .. } => windows,
            _ => &[],
        }
    }

    /// The message as an owned vector: the vector itself when the lease
    /// owns one (shifted down in place if a header was skipped), one copy
    /// otherwise, a mapped message's windows spliced back where they go.
    pub fn into_vec(self) -> Vec<u8> {
        match self.storage {
            Storage::Owned(mut v) => {
                v.truncate(self.end);
                v.drain(..self.start);
                v
            }
            Storage::Mapped { ref windows, .. } if !windows.is_empty() => {
                let around = &self[..];
                let spliced = windows.iter().map(|w| w.len).sum::<usize>();
                let mut out = Vec::with_capacity(around.len() + spliced);
                let mut from = 0;
                for w in windows.iter() {
                    out.extend_from_slice(&around[from..w.at]);
                    out.extend_from_slice(w.bytes());
                    from = w.at;
                }
                out.extend_from_slice(&around[from..]);
                out
            }
            _ => self.to_vec(),
        }
    }
}

impl Deref for Lease {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        let all = match &self.storage {
            Storage::Owned(v) => v.as_slice(),
            Storage::Shared(v) => v.as_slice(),
            Storage::Pooled(b) => b.as_slice(),
            Storage::Mapped { meta, .. } => meta.as_slice(),
        };
        &all[self.start..self.end]
    }
}

impl From<Vec<u8>> for Lease {
    fn from(v: Vec<u8>) -> Lease {
        Lease { start: 0, end: v.len(), storage: Storage::Owned(v) }
    }
}

impl From<Arc<Vec<u8>>> for Lease {
    fn from(v: Arc<Vec<u8>>) -> Lease {
        Lease { start: 0, end: v.len(), storage: Storage::Shared(v) }
    }
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let home = match self.storage {
            Storage::Owned(_) => "owned",
            Storage::Shared(_) => "shared",
            Storage::Pooled(_) => "pooled",
            Storage::Mapped { .. } => "mapped",
        };
        f.debug_struct("Lease").field("home", &home).field("len", &self.len()).finish()
    }
}

/// Every buffer the pool owns, by where it is. A buffer's slot is its index
/// in `posted` for as long as it lives; a reclaimed buffer's slot is vacant
/// until the next miss takes it.
#[derive(Default)]
struct Slab {
    /// Free buffers and their slots, binned by size class (log2 of capacity).
    free: BTreeMap<usize, Vec<(usize, Box<[u8]>)>>,
    /// By slot: a buffer posted for a channel (its id) and not yet claimed.
    posted: Vec<Option<(u64, Box<[u8]>)>>,
    vacant: Vec<usize>,
    free_bytes: u64,
    stats: PoolStats,
}

impl Slab {
    /// List `data` as free in `slot`; past `threshold` bytes of free
    /// capacity, drop free buffers (largest first) down to half of it.
    fn list(&mut self, slot: usize, data: Box<[u8]>, threshold: u64) {
        self.free_bytes += data.len() as u64;
        self.free.entry(data.len().trailing_zeros() as usize).or_default().push((slot, data));
        if self.free_bytes <= threshold {
            return;
        }
        for bin in self.free.values_mut().rev() {
            while self.free_bytes > threshold / 2 {
                let Some((slot, data)) = bin.pop() else { break };
                self.free_bytes -= data.len() as u64;
                self.stats.resident_bytes -= data.len() as u64;
                self.stats.reclaimed += 1;
                self.vacant.push(slot);
            }
        }
    }
}

struct Inner {
    slab: Mutex<Slab>,
    /// Reclamation threshold in bytes of *free* capacity.
    reclaim_threshold: u64,
}

/// Thread-safe buffer pool shared between one producer and one consumer
/// (cloning the handle shares the same pool).
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<Inner>,
}

impl BufferPool {
    /// Create a pool that reclaims free buffers once their total capacity
    /// exceeds `reclaim_threshold` bytes.
    pub fn new(reclaim_threshold: u64) -> BufferPool {
        let slab = Mutex::new(Slab::default());
        BufferPool { inner: Arc::new(Inner { slab, reclaim_threshold }) }
    }

    /// Acquire a buffer of at least `len` bytes: the smallest free buffer
    /// whose class fits, else a fresh allocation of the fitting class.
    pub fn acquire(&self, len: usize) -> PoolBuffer {
        let cap = len.max(1).next_power_of_two();
        let (slot, reused) = {
            let slab = &mut *self.inner.slab.lock().unwrap();
            match slab.free.range_mut(cap.trailing_zeros() as usize..).find_map(|(_, b)| b.pop()) {
                Some((slot, data)) => {
                    slab.stats.hits += 1;
                    slab.free_bytes -= data.len() as u64;
                    (slot, Some(data))
                }
                None => {
                    slab.stats.misses += 1;
                    slab.stats.resident_bytes += cap as u64;
                    let slot = slab.vacant.pop().unwrap_or(slab.posted.len());
                    if slot == slab.posted.len() {
                        slab.posted.push(None);
                    }
                    (slot, None)
                }
            }
        };
        let data = reused.unwrap_or_else(|| vec![0u8; cap].into_boxed_slice());
        PoolBuffer { data, slot, home: self.clone() }
    }

    /// Return a buffer to the free list of the pool it came from — what
    /// dropping it does; kept as the explicit form of the paper's step.
    pub fn give_back(&self, buf: PoolBuffer) {
        drop(buf);
    }

    /// Take the buffer [posted](PoolBuffer::post) in `slot` for `channel`;
    /// `None` if the slot is out of range or holds nothing posted for it.
    pub(crate) fn claim(&self, slot: usize, channel: u64) -> Option<PoolBuffer> {
        let mut slab = self.inner.slab.lock().unwrap();
        let (_, data) = slab.posted.get_mut(slot)?.take_if(|(c, _)| *c == channel)?;
        Some(PoolBuffer { data, slot, home: self.clone() })
    }

    /// List every buffer still posted for `channel`: nothing will claim it.
    /// A channel's drop calls this, so a poisoned pool is left as it is.
    pub(crate) fn unpost(&self, channel: u64) {
        let Ok(mut slab) = self.inner.slab.lock() else { return };
        let slab = &mut *slab;
        for slot in 0..slab.posted.len() {
            if let Some((_, data)) = slab.posted[slot].take_if(|(c, _)| *c == channel) {
                slab.list(slot, data, self.inner.reclaim_threshold);
            }
        }
    }

    /// Snapshot of pool counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.slab.lock().unwrap().stats
    }

    /// Bytes of free capacity, and how many buffers are posted.
    #[cfg(test)]
    pub(crate) fn free_and_posted(&self) -> (u64, usize) {
        let slab = self.inner.slab.lock().unwrap();
        (slab.free_bytes, slab.posted.iter().filter(|p| p.is_some()).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_pool_drops_buffers_without_panicking() {
        let pool = BufferPool::new(1 << 20);
        let (buf, inner) = (pool.acquire(64), Arc::clone(&pool.inner));
        let poisoner = std::thread::spawn(move || {
            let _held = inner.slab.lock().unwrap();
            panic!("a panic under the pool's lock");
        });
        assert!(poisoner.join().is_err());
        drop(buf);
        pool.unpost(1);
    }

    #[test]
    fn acquire_rounds_to_power_of_two() {
        let pool = BufferPool::new(1 << 30);
        let buf = pool.acquire(1000);
        assert_eq!(buf.capacity(), 1024);
        let buf2 = pool.acquire(1024);
        assert_eq!(buf2.capacity(), 1024);
    }

    #[test]
    fn reuse_hits_free_list() {
        let pool = BufferPool::new(1 << 30);
        let buf = pool.acquire(4096);
        pool.give_back(buf);
        let _again = pool.acquire(4000);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.resident_bytes, 4096);
    }

    #[test]
    fn larger_class_satisfies_smaller_request() {
        let pool = BufferPool::new(1 << 30);
        let big = pool.acquire(1 << 20);
        pool.give_back(big);
        let small = pool.acquire(512);
        // Reused the 1 MiB buffer rather than allocating.
        assert_eq!(small.capacity(), 1 << 20);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn reclamation_bounds_memory() {
        let pool = BufferPool::new(8192); // tiny threshold
                                          // Hold several buffers live at once so the free list exceeds the
                                          // threshold when they all come back.
        let held: Vec<_> = (0..10).map(|_| pool.acquire(4096)).collect();
        for buf in held {
            pool.give_back(buf);
        }
        let stats = pool.stats();
        assert!(stats.reclaimed > 0, "reclamation should have triggered");
        assert!(stats.resident_bytes <= 8192, "resident={}", stats.resident_bytes);
    }

    #[test]
    fn concurrent_producer_consumer_cycles() {
        use std::thread;
        let pool = BufferPool::new(1 << 24);
        // Bounded channel so the producer cannot run arbitrarily far ahead
        // of the consumer's give-backs (otherwise every acquire misses).
        let (tx, rx) = std::sync::mpsc::sync_channel::<PoolBuffer>(4);
        let consumer_pool = pool.clone();
        let consumer = thread::spawn(move || {
            let mut total = 0u64;
            for mut buf in rx {
                total += buf.as_mut_slice()[0] as u64;
                consumer_pool.give_back(buf);
            }
            total
        });
        for i in 0..1000u64 {
            let mut buf = pool.acquire(1 << 14);
            buf.as_mut_slice()[0] = (i % 7) as u8;
            tx.send(buf).unwrap();
        }
        drop(tx);
        let total = consumer.join().unwrap();
        assert_eq!(total, (0..1000u64).map(|i| i % 7).sum::<u64>());
        let stats = pool.stats();
        assert!(stats.hits > stats.misses, "pool should mostly reuse: {stats:?}");
    }

    #[test]
    fn a_dropped_buffer_or_lease_is_back_on_the_free_list() {
        let pool = BufferPool::new(1 << 30);
        drop(pool.acquire(4096));
        let mut buf = pool.acquire(4096);
        assert_eq!(pool.stats().hits, 1, "the dropped buffer was listed");
        buf.as_mut_slice()[3..8].copy_from_slice(b"hello");
        let lease = Arc::new(Lease::pooled(buf, 3, 5));
        let view = Arc::clone(&lease);
        drop(lease);
        // Still out on lease: a second request cannot be given this buffer.
        let other = pool.acquire(4096);
        assert_eq!(pool.stats().misses, 2);
        assert_eq!(&view[..], b"hello");
        // The last view may drop on any thread, after every other handle.
        std::thread::spawn(move || drop(view)).join().unwrap();
        drop(other);
        let stats = pool.stats();
        assert_eq!(stats.resident_bytes, 2 * 4096);
        assert_eq!(pool.free_and_posted().0, stats.resident_bytes);
    }

    #[test]
    fn a_posted_buffer_waits_in_its_slot_for_its_channel() {
        let pool = BufferPool::new(4096); // reclaims past one free buffer
        let mut buf = pool.acquire(4096);
        buf.as_mut_slice()[0] = 9;
        let slot = buf.post(7);
        // Neither acquire nor reclamation reaches a posted buffer.
        let (b, c) = (pool.acquire(4096), pool.acquire(4096));
        assert!(b.slot != slot && c.slot != slot);
        drop((b, c));
        assert_eq!(pool.stats().reclaimed, 2);
        assert_eq!(pool.stats().resident_bytes, 4096);
        assert_eq!(pool.free_and_posted(), (0, 1));
        // Only its channel claims it, and only once.
        assert!(pool.claim(slot, 8).is_none());
        assert!(pool.claim(99, 7).is_none());
        let claimed = pool.claim(slot, 7).expect("posted for channel 7");
        assert_eq!(claimed.as_slice()[0], 9);
        assert!(pool.claim(slot, 7).is_none());
        claimed.post(7);
        // Unposting lists it; a miss takes a reclaimed buffer's slot.
        pool.unpost(7);
        assert_eq!(pool.free_and_posted(), (4096, 0));
        assert!(pool.acquire(1 << 16).slot < 3, "a vacant slot is reused");
    }

    #[test]
    fn lease_skips_headers_and_converts_to_a_vector() {
        let mut owned = Lease::from(b"HDRbody".to_vec());
        owned.skip(3);
        assert_eq!(&owned[..], b"body");
        assert_eq!(owned.into_vec(), b"body");
        let shared = Arc::new(b"shared".to_vec());
        let mut lease = Lease::from(Arc::clone(&shared));
        lease.skip(2);
        assert_eq!(lease.as_ptr(), shared[2..].as_ptr(), "a shared lease aliases, never copies");
        assert_eq!(lease.into_vec(), b"ared");
    }

    #[test]
    fn a_skip_into_a_mapped_window_drops_the_messages_own_bytes() {
        let pool = BufferPool::new(1 << 20);
        let mut meta = pool.acquire(4);
        meta.as_mut_slice()[..4].copy_from_slice(b"abcd");
        let buf = Arc::new(Lease::from(b"WXYZ".to_vec()));
        let mut windows = StackVec::new();
        windows.push(Window { at: 1, buf: Arc::clone(&buf), start: 0, len: 4 });
        // The message is "a" + "WXYZ" + "bcd".
        let mut lease = Lease::mapped(meta, 4, windows);
        lease.skip(1);
        assert_eq!((lease.windows()[0].at, &lease[..]), (0, &b"bcd"[..]), "still mapped");
        lease.skip(2);
        assert!(lease.windows().is_empty(), "read flat");
        assert_eq!(lease.into_vec(), b"YZbcd");
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    /// Two threads trading buffers through the free list: one's
    /// `acquire` pops what the other's `give_back` just listed. With
    /// overflow checks on (as in test builds) a `free_bytes` that dips
    /// below zero panics. Such a dip needs a thread's first `acquire` to
    /// land inside the other's `give_back`, so many short rounds on fresh
    /// pools find it where one long round does not.
    #[test]
    fn free_bytes_never_wraps_under_a_two_thread_hammer() {
        use std::sync::Barrier;
        for round in 0..2000 {
            let pool = BufferPool::new(1 << 30);
            let start = Barrier::new(2);
            // The scope joins both threads and re-raises their panics.
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..200 {
                            pool.give_back(pool.acquire(64));
                        }
                    });
                }
            });
            // Everything went back: at most one buffer per thread was
            // ever live, and the counter equals what the free list holds.
            let resident = pool.stats().resident_bytes;
            assert!(resident <= 2 * 64, "round {round}: resident={resident}");
            assert_eq!(pool.free_and_posted().0, resident);
        }
    }
}
