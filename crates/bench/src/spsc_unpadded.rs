//! Ablation variant of the FastForward queue **without cache-line padding**.
//!
//! The paper stresses that queue entries are "carefully aligned and padded
//! to make sure they do not share cache lines, so as to reduce false
//! sharing" (§II.D). This module deliberately omits that padding — entries
//! are packed back to back, so the producer writing entry *i* and the
//! consumer reading entry *i−1* frequently contend on the same line. The
//! `ablation_padding` bench compares throughput of this variant against
//! [`shm::spsc`] to quantify the design choice.
//!
//! The synchronization protocol is identical to the padded queue; only the
//! memory layout differs. Not intended for use outside benchmarks/tests.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

const EMPTY: u32 = 0;
const FULL: u32 = 1;

/// Packed entry: no padding, adjacent entries share cache lines. The inline
/// payload is a fixed 24 bytes so several entries fit in one 64-byte line,
/// maximizing the false-sharing effect the ablation measures.
struct PackedEntry {
    flag: AtomicU32,
    len: UnsafeCell<u32>,
    payload: UnsafeCell<[u8; 24]>,
}

struct Shared {
    entries: Box<[PackedEntry]>,
}

unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// Producer half of the unpadded queue.
pub struct UnpaddedProducer {
    shared: Arc<Shared>,
    head: usize,
}

/// Consumer half of the unpadded queue.
pub struct UnpaddedConsumer {
    shared: Arc<Shared>,
    tail: usize,
}

/// Maximum payload per entry for the unpadded queue.
pub const UNPADDED_PAYLOAD: usize = 24;

/// Create an unpadded queue with `entries` slots.
pub fn spsc_queue_unpadded(entries: usize) -> (UnpaddedProducer, UnpaddedConsumer) {
    assert!(entries >= 2);
    let slots: Vec<PackedEntry> = (0..entries)
        .map(|_| PackedEntry {
            flag: AtomicU32::new(EMPTY),
            len: UnsafeCell::new(0),
            payload: UnsafeCell::new([0u8; 24]),
        })
        .collect();
    let shared = Arc::new(Shared { entries: slots.into_boxed_slice() });
    (
        UnpaddedProducer { shared: Arc::clone(&shared), head: 0 },
        UnpaddedConsumer { shared, tail: 0 },
    )
}

impl UnpaddedProducer {
    /// Spin until a `len`-byte payload that `fill` writes straight into
    /// the entry is enqueued. Panics if `len` exceeds [`UNPADDED_PAYLOAD`].
    pub fn push_with(&mut self, len: usize, fill: impl FnOnce(&mut [u8])) {
        assert!(len <= UNPADDED_PAYLOAD);
        let entry = &self.shared.entries[self.head];
        while entry.flag.load(Ordering::Acquire) != EMPTY {
            std::hint::spin_loop();
        }
        // SAFETY: same ownership protocol as the padded queue.
        unsafe {
            fill(&mut (&mut *entry.payload.get())[..len]);
            *entry.len.get() = len as u32;
        }
        entry.flag.store(FULL, Ordering::Release);
        self.head = (self.head + 1) % self.shared.entries.len();
    }
}

impl UnpaddedConsumer {
    /// Dequeue without blocking: `read` sees the next payload where it
    /// lies in its entry. `None` when the queue is empty.
    pub fn try_pop_with<R>(&mut self, read: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let entry = &self.shared.entries[self.tail];
        if entry.flag.load(Ordering::Acquire) != FULL {
            return None;
        }
        // SAFETY: same ownership protocol as the padded queue.
        let out = unsafe { read(&(&*entry.payload.get())[..*entry.len.get() as usize]) };
        entry.flag.store(EMPTY, Ordering::Release);
        self.tail = (self.tail + 1) % self.shared.entries.len();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unpadded_queue_is_correct() {
        const N: u64 = 50_000;
        let (mut tx, mut rx) = spsc_queue_unpadded(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push_with(8, |entry| entry.copy_from_slice(&i.to_le_bytes()));
            }
        });
        for i in 0..N {
            let got = loop {
                if let Some(got) = rx.try_pop_with(|msg| <[u8; 8]>::try_from(msg).ok()) {
                    break got;
                }
                std::hint::spin_loop();
            };
            assert_eq!(got.map(u64::from_le_bytes), Some(i));
        }
        producer.join().unwrap();
    }

    #[test]
    fn entries_are_packed() {
        // The whole point: multiple entries per cache line.
        assert!(std::mem::size_of::<PackedEntry>() <= 32);
    }
}
