//! FastForward-inspired single-producer single-consumer lock-free queue.
//!
//! Key properties, matching the paper's description (§II.D):
//!
//! * The producer and consumer each keep a **private** index of the next
//!   entry to enqueue/dequeue; there is no shared head/tail counter, so the
//!   only cross-core traffic is the per-entry status flag and payload.
//! * Each entry has a fixed-size payload field and a status flag with two
//!   states, `EMPTY` and `FULL`. The producer waits for `EMPTY`, writes the
//!   payload straight into the entry ([`Producer::push_with`]) and sets it
//!   `FULL` (release); the consumer polls for `FULL` (acquire), reads the
//!   payload where it lies ([`Consumer::try_pop_with`]) and sets it `EMPTY`
//!   (release) to hand the entry back. Neither side stages the payload in
//!   a buffer of its own.
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

const EMPTY: u32 = 0;
const FULL: u32 = 1;

/// Error returned by [`Producer::push_with`] for a payload larger than the
/// entry capacity: it can never fit, so callers route such messages
/// through the buffer pool instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLarge {
    /// The queue's fixed entry capacity.
    pub capacity: usize,
    /// The payload length asked for.
    pub requested: usize,
}

impl std::fmt::Display for TooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload of {} bytes exceeds entry capacity {}", self.requested, self.capacity)
    }
}

impl std::error::Error for TooLarge {}

/// One queue slot: a status flag, the valid-byte count, and the inline
/// payload. The 128-byte alignment rounds the whole entry up to a multiple
/// of two cache lines, realizing the paper's "entries are carefully
/// aligned and padded to make sure they do not share cache lines".
#[repr(align(128))]
struct Entry {
    flag: AtomicU32,
    len: UnsafeCell<u32>,
    payload: UnsafeCell<Box<[u8]>>,
}

/// Shared queue state. Payload cells are only touched by the side that
/// currently owns the entry (per the flag protocol), which is what makes
/// the `unsafe` accesses sound.
struct Shared {
    entries: Box<[Entry]>,
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
    let slots: Vec<Entry> = (0..entries)
        .map(|_| Entry {
            flag: AtomicU32::new(EMPTY),
            len: UnsafeCell::new(0),
            payload: UnsafeCell::new(vec![0u8; payload_capacity].into_boxed_slice()),
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

    /// Enqueue a `len`-byte payload that `fill` writes straight into the
    /// next entry, spinning while that entry is still `FULL`. An oversized
    /// payload is refused before `fill` runs (it can never fit, so
    /// spinning on it would hang forever).
    pub fn push_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) -> Result<(), TooLarge> {
        let capacity = self.shared.payload_capacity;
        if len > capacity {
            return Err(TooLarge { capacity, requested: len });
        }
        let entry = &self.shared.entries[self.head];
        // Wait for the consumer to release the entry. Acquire pairs with
        // its release of EMPTY so our payload write cannot be ordered
        // before the consumer finished reading.
        while entry.flag.load(Ordering::Acquire) != EMPTY {
            std::hint::spin_loop();
        }
        // SAFETY: flag == EMPTY means the consumer no longer touches this
        // entry, and we are the unique producer, so we have exclusive
        // access to the cells until we publish FULL.
        unsafe {
            fill(&mut (&mut *entry.payload.get())[..len]);
            *entry.len.get() = len as u32;
        }
        // Publish: everything written above happens-before the consumer's
        // acquire-load observing FULL.
        entry.flag.store(FULL, Ordering::Release);
        self.head = (self.head + 1) % self.shared.entries.len();
        self.shared.enqueued.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of messages enqueued so far (monitoring hook).
    pub fn enqueued(&self) -> u64 {
        self.shared.enqueued.load(Ordering::Relaxed)
    }
}

impl Consumer {
    /// Dequeue without blocking: `read` sees the next payload where it
    /// lies in its entry, which goes back to the producer once `read`
    /// returns. `None` when the queue is empty.
    pub fn try_pop_with<R>(&mut self, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let entry = &self.shared.entries[self.tail];
        // Poll the flag of the next entry to dequeue (paper wording).
        if entry.flag.load(Ordering::Acquire) != FULL {
            return None;
        }
        // SAFETY: flag == FULL grants us exclusive read access; the
        // producer will not touch the entry again until we store EMPTY.
        let out = unsafe { read(&(&*entry.payload.get())[..*entry.len.get() as usize]) };
        // Release the entry back to the producer.
        entry.flag.store(EMPTY, Ordering::Release);
        self.tail = (self.tail + 1) % self.shared.entries.len();
        self.shared.dequeued.fetch_add(1, Ordering::Relaxed);
        Some(out)
    }

    /// Number of messages dequeued so far (monitoring hook).
    pub fn dequeued(&self) -> u64 {
        self.shared.dequeued.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    fn push(tx: &mut Producer, payload: &[u8]) -> Result<(), TooLarge> {
        tx.push_with(payload.len(), |entry| entry.copy_from_slice(payload))
    }

    fn try_pop(rx: &mut Consumer) -> Option<Vec<u8>> {
        rx.try_pop_with(<[u8]>::to_vec)
    }

    fn pop(rx: &mut Consumer) -> Vec<u8> {
        loop {
            if let Some(msg) = try_pop(rx) {
                return msg;
            }
            std::hint::spin_loop();
        }
    }

    #[test]
    fn fifo_single_thread() {
        let (mut tx, mut rx) = spsc_queue(4, 16);
        push(&mut tx, b"a").unwrap();
        push(&mut tx, b"bb").unwrap();
        assert_eq!(try_pop(&mut rx).unwrap(), b"a");
        assert_eq!(try_pop(&mut rx).unwrap(), b"bb");
        assert_eq!(try_pop(&mut rx), None);
    }

    #[test]
    fn a_full_queue_holds_the_push_until_an_entry_frees() {
        let (mut tx, mut rx) = spsc_queue(2, 8);
        push(&mut tx, b"1").unwrap();
        push(&mut tx, b"2").unwrap();
        let third_in = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                push(&mut tx, b"3").unwrap();
                third_in.store(true, Ordering::Release);
            });
            thread::sleep(std::time::Duration::from_millis(20));
            assert!(!third_in.load(Ordering::Acquire), "a push into a full queue waits");
            assert_eq!(pop(&mut rx), b"1");
        });
        assert!(third_in.load(Ordering::Acquire));
        assert_eq!(pop(&mut rx), b"2");
        assert_eq!(pop(&mut rx), b"3");
    }

    #[test]
    fn oversized_payload_rejected() {
        let (mut tx, _rx) = spsc_queue(2, 4);
        let refused = tx.push_with(7, |_| panic!("an oversized payload is never written"));
        assert_eq!(refused, Err(TooLarge { capacity: 4, requested: 7 }));
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = spsc_queue(3, 16);
        for round in 0u64..50 {
            push(&mut tx, &round.to_le_bytes()).unwrap();
            let got = pop(&mut rx);
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), round);
        }
    }

    #[test]
    fn blocking_push_reports_oversized_instead_of_panicking() {
        // Regression: the blocking push used to panic on an oversized
        // payload; it must return the error so callers can fall back to
        // the buffer pool.
        let (mut tx, mut rx) = spsc_queue(2, 4);
        assert_eq!(push(&mut tx, b"way-too-big"), Err(TooLarge { capacity: 4, requested: 11 }));
        // The queue stays usable after the rejected push.
        push(&mut tx, b"ok").unwrap();
        assert_eq!(pop(&mut rx), b"ok");
    }

    #[test]
    fn cross_thread_stream_integrity() {
        // Stream 100k sequenced messages producer->consumer and verify
        // order and content — the core correctness claim of FastForward.
        const N: u64 = 100_000;
        let (mut tx, mut rx) = spsc_queue(128, 16);
        let producer = thread::spawn(move || {
            for i in 0..N {
                push(&mut tx, &i.to_le_bytes()).unwrap();
            }
        });
        for i in 0..N {
            let msg = pop(&mut rx);
            assert_eq!(u64::from_le_bytes(msg.try_into().unwrap()), i);
        }
        producer.join().unwrap();
        assert_eq!(rx.dequeued(), N);
    }

    #[test]
    fn push_and_pop_work_inside_the_entry() {
        let (mut tx, mut rx) = spsc_queue(4, 32);
        // The fill sees exactly the payload's bytes of the entry.
        tx.push_with(13, |entry| {
            assert_eq!(entry.len(), 13);
            entry.copy_from_slice(b"payload-bytes");
        })
        .unwrap();
        // The read sees them where they lie: the entry's own buffer.
        // SAFETY: reads only the buffer's address, which never changes.
        let entry_buf = unsafe { (*rx.shared.entries[0].payload.get()).as_ptr() };
        let read = rx.try_pop_with(|msg| msg.as_ptr() == entry_buf && msg == b"payload-bytes");
        assert_eq!(read, Some(true));
        assert_eq!(rx.try_pop_with(|_| unreachable!("queue is empty")), None);
    }

    #[test]
    fn counters_track_traffic() {
        let (mut tx, mut rx) = spsc_queue(8, 8);
        for _ in 0..5 {
            push(&mut tx, b"xy").unwrap();
        }
        for _ in 0..5 {
            pop(&mut rx);
        }
        assert_eq!(tx.enqueued(), 5);
        assert_eq!(rx.dequeued(), 5);
    }

    #[test]
    fn entries_do_not_share_cache_lines() {
        // `repr(align(128))` fixes the stride; verify it so the padding
        // claim is structural, not incidental.
        assert!(std::mem::size_of::<Entry>().is_multiple_of(64));
        assert!(std::mem::align_of::<Entry>() >= 64);
    }
}
