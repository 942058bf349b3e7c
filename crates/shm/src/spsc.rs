//! FastForward-inspired single-producer single-consumer lock-free queue.
//!
//! Key properties, matching the paper's description (§II.D):
//!
//! * The producer and consumer each keep a **private** index of the next
//!   entry to enqueue/dequeue; there is no shared head/tail counter, so the
//!   only cross-core traffic is the per-entry status flag and payload.
//! * Each entry has a fixed-size payload field and a status flag with two
//!   states, `EMPTY` and `FULL`. The producer checks the flag is `EMPTY`
//!   before copying data in and then sets it `FULL` (release); the consumer
//!   polls for `FULL` (acquire), copies data out, and sets it `EMPTY`
//!   (release) to hand the entry back.
//! * Entries are padded to cache-line multiples so adjacent entries never
//!   share a line (no false sharing between producer and consumer working
//!   on neighbouring slots).
//!
//! Memory ordering follows the classic message-passing pattern (Rust
//! Atomics & Locks, ch. 4): payload writes *happen-before* the
//! release-store of `FULL`, which *synchronizes-with* the consumer's
//! acquire-load; symmetrically for the `EMPTY` hand-back. On x86 these
//! orderings compile to plain loads/stores; on weakly-ordered machines they
//! emit the fences the paper mentions inserting.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;

const EMPTY: u32 = 0;
const FULL: u32 = 1;

/// Error returned by [`Producer::try_push`] when the queue is full or the
/// payload exceeds the entry capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The next entry is still `FULL`; the consumer has not caught up.
    Full,
    /// Payload larger than the queue's fixed entry capacity; callers must
    /// route such messages through the buffer pool instead.
    TooLarge { capacity: usize, requested: usize },
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue is full"),
            PushError::TooLarge { capacity, requested } => {
                write!(f, "payload of {requested} bytes exceeds entry capacity {capacity}")
            }
        }
    }
}

impl std::error::Error for PushError {}

/// One queue slot: a status flag, the valid-byte count, and the inline
/// payload. `CachePadded` rounds the whole entry up to (a multiple of) the
/// cache-line size, realizing the paper's "entries are carefully aligned
/// and padded to make sure they do not share cache lines".
struct Entry {
    flag: AtomicU32,
    len: UnsafeCell<u32>,
    payload: UnsafeCell<Box<[u8]>>,
}

/// Shared queue state. Payload cells are only touched by the side that
/// currently owns the entry (per the flag protocol), which is what makes
/// the `unsafe` accesses sound.
struct Shared {
    entries: Box<[CachePadded<Entry>]>,
    payload_capacity: usize,
    /// Monotonic counters for performance monitoring (paper §II.G).
    enqueued: AtomicU64,
    dequeued: AtomicU64,
}

unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Producer half; owned by exactly one thread.
pub struct Producer {
    shared: Arc<Shared>,
    /// Private index of the next entry to enqueue (never read by consumer).
    head: usize,
}

/// Consumer half; owned by exactly one thread.
pub struct Consumer {
    shared: Arc<Shared>,
    /// Private index of the next entry to dequeue (never read by producer).
    tail: usize,
}

/// Create a queue with `entries` slots, each holding payloads up to
/// `payload_capacity` bytes.
pub fn spsc_queue(entries: usize, payload_capacity: usize) -> (Producer, Consumer) {
    assert!(entries >= 2, "queue needs at least 2 entries");
    let slots: Vec<CachePadded<Entry>> = (0..entries)
        .map(|_| {
            CachePadded::new(Entry {
                flag: AtomicU32::new(EMPTY),
                len: UnsafeCell::new(0),
                payload: UnsafeCell::new(vec![0u8; payload_capacity].into_boxed_slice()),
            })
        })
        .collect();
    let shared = Arc::new(Shared {
        entries: slots.into_boxed_slice(),
        payload_capacity,
        enqueued: AtomicU64::new(0),
        dequeued: AtomicU64::new(0),
    });
    (Producer { shared: Arc::clone(&shared), head: 0 }, Consumer { shared, tail: 0 })
}

impl Producer {
    /// Entry payload capacity in bytes.
    pub fn payload_capacity(&self) -> usize {
        self.shared.payload_capacity
    }

    /// Attempt to enqueue `payload` without blocking.
    pub fn try_push(&mut self, payload: &[u8]) -> Result<(), PushError> {
        if payload.len() > self.shared.payload_capacity {
            return Err(PushError::TooLarge {
                capacity: self.shared.payload_capacity,
                requested: payload.len(),
            });
        }
        let entry = &self.shared.entries[self.head];
        // Check the next entry has been released by the consumer. Acquire
        // pairs with the consumer's release of EMPTY so our payload write
        // cannot be ordered before the consumer finished reading.
        if entry.flag.load(Ordering::Acquire) != EMPTY {
            return Err(PushError::Full);
        }
        // SAFETY: flag == EMPTY means the consumer no longer touches this
        // entry, and we are the unique producer, so we have exclusive
        // access to the cells until we publish FULL.
        unsafe {
            let buf = &mut *entry.payload.get();
            buf[..payload.len()].copy_from_slice(payload);
            *entry.len.get() = payload.len() as u32;
        }
        // Publish: everything written above happens-before the consumer's
        // acquire-load observing FULL.
        entry.flag.store(FULL, Ordering::Release);
        self.head = (self.head + 1) % self.shared.entries.len();
        self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Enqueue, spinning until space is available. Oversized payloads are
    /// reported back to the caller (they can never succeed, so spinning on
    /// them would hang forever).
    pub fn push(&mut self, payload: &[u8]) -> Result<(), PushError> {
        loop {
            match self.try_push(payload) {
                Ok(()) => return Ok(()),
                Err(PushError::Full) => std::hint::spin_loop(),
                Err(e @ PushError::TooLarge { .. }) => return Err(e),
            }
        }
    }

    /// Number of messages enqueued so far (monitoring hook).
    pub fn enqueued(&self) -> u64 {
        self.shared.enqueued.load(Ordering::Relaxed)
    }
}

impl Consumer {
    /// Attempt to dequeue into a fresh `Vec` without blocking.
    pub fn try_pop(&mut self) -> Option<Vec<u8>> {
        let entry = &self.shared.entries[self.tail];
        // Poll the flag of the next entry to dequeue (paper wording).
        if entry.flag.load(Ordering::Acquire) != FULL {
            return None;
        }
        // SAFETY: flag == FULL grants us exclusive read access; the
        // producer will not touch the entry again until we store EMPTY.
        let out = unsafe {
            let len = *entry.len.get() as usize;
            let buf = &*entry.payload.get();
            buf[..len].to_vec()
        };
        // Release the entry back to the producer.
        entry.flag.store(EMPTY, Ordering::Release);
        self.tail = (self.tail + 1) % self.shared.entries.len();
        self.shared.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(out)
    }

    /// Attempt to dequeue into a caller-provided buffer, avoiding
    /// allocation; returns the number of payload bytes written.
    pub fn try_pop_into(&mut self, target: &mut [u8]) -> Option<usize> {
        let entry = &self.shared.entries[self.tail];
        if entry.flag.load(Ordering::Acquire) != FULL {
            return None;
        }
        // SAFETY: as in `try_pop`.
        let len = unsafe {
            let len = *entry.len.get() as usize;
            assert!(target.len() >= len, "target receive buffer too small");
            let buf = &*entry.payload.get();
            target[..len].copy_from_slice(&buf[..len]);
            len
        };
        entry.flag.store(EMPTY, Ordering::Release);
        self.tail = (self.tail + 1) % self.shared.entries.len();
        self.shared.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(len)
    }

    /// Dequeue, spinning until a message arrives.
    pub fn pop(&mut self) -> Vec<u8> {
        loop {
            if let Some(msg) = self.try_pop() {
                return msg;
            }
            std::hint::spin_loop();
        }
    }

    /// Number of messages dequeued so far (monitoring hook).
    pub fn dequeued(&self) -> u64 {
        self.shared.dequeued.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_single_thread() {
        let (mut tx, mut rx) = spsc_queue(4, 16);
        tx.try_push(b"a").unwrap();
        tx.try_push(b"bb").unwrap();
        assert_eq!(rx.try_pop().unwrap(), b"a");
        assert_eq!(rx.try_pop().unwrap(), b"bb");
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let (mut tx, mut rx) = spsc_queue(2, 8);
        tx.try_push(b"1").unwrap();
        tx.try_push(b"2").unwrap();
        assert_eq!(tx.try_push(b"3"), Err(PushError::Full));
        rx.try_pop().unwrap();
        tx.try_push(b"3").unwrap();
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut tx, _rx) = spsc_queue(2, 4);
        assert_eq!(tx.try_push(b"too-big"), Err(PushError::TooLarge { capacity: 4, requested: 7 }));
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc_queue(3, 16);
        for round in 0u64..50 {
            tx.push(&round.to_le_bytes()).unwrap();
            let got = rx.pop();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), round);
        }
    }

    #[test]
    fn blocking_push_reports_oversized_instead_of_panicking() {
        // Regression: `push` used to panic on TooLarge; it must return the
        // error so callers can fall back to the buffer pool.
        let (mut tx, mut rx) = spsc_queue(2, 4);
        assert_eq!(
            tx.push(b"way-too-big"),
            Err(PushError::TooLarge { capacity: 4, requested: 11 })
        );
        // The queue stays usable after the rejected push.
        tx.push(b"ok").unwrap();
        assert_eq!(rx.pop(), b"ok");
    }

    #[test]
    fn cross_thread_stream_integrity() {
        // Stream 100k sequenced messages producer->consumer and verify
        // order and content — the core correctness claim of FastForward.
        const N: u64 = 100_000;
        let (mut tx, mut rx) = spsc_queue(128, 16);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push(&i.to_le_bytes()).unwrap();
            }
        });
        for i in 0..N {
            let msg = rx.pop();
            assert_eq!(u64::from_le_bytes(msg.try_into().unwrap()), i);
        }
        producer.join().unwrap();
        assert_eq!(rx.dequeued(), N);
    }

    #[test]
    fn pop_into_avoids_allocation() {
        let (mut tx, mut rx) = spsc_queue(4, 32);
        tx.push(b"payload-bytes").unwrap();
        let mut buf = [0u8; 32];
        let n = rx.try_pop_into(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"payload-bytes");
    }

    #[test]
    fn counters_track_traffic() {
        let (mut tx, mut rx) = spsc_queue(8, 8);
        for _ in 0..5 {
            tx.push(b"xy").unwrap();
        }
        for _ in 0..5 {
            rx.pop();
        }
        assert_eq!(tx.enqueued(), 5);
        assert_eq!(rx.dequeued(), 5);
    }

    #[test]
    fn entries_do_not_share_cache_lines() {
        // CachePadded guarantees at least cache-line alignment/size; verify
        // the stride so the padding claim is structural, not incidental.
        assert!(std::mem::size_of::<CachePadded<Entry>>().is_multiple_of(64));
        assert!(std::mem::align_of::<CachePadded<Entry>>() >= 64);
    }
}
