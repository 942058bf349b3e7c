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
    /// Spin until the payload is enqueued. Panics if the payload exceeds
    /// [`UNPADDED_PAYLOAD`].
    pub fn push(&mut self, payload: &[u8]) {
        assert!(payload.len() <= UNPADDED_PAYLOAD);
        let entry = &self.shared.entries[self.head];
        while entry.flag.load(Ordering::Acquire) != EMPTY {
            std::hint::spin_loop();
        }
        // SAFETY: same ownership protocol as the padded queue.
        unsafe {
            (&mut *entry.payload.get())[..payload.len()].copy_from_slice(payload);
            *entry.len.get() = payload.len() as u32;
        }
        entry.flag.store(FULL, Ordering::Release);
        self.head = (self.head + 1) % self.shared.entries.len();
    }
}

impl UnpaddedConsumer {
    /// Spin until a message is dequeued into `target`; returns its length.
    pub fn pop_into(&mut self, target: &mut [u8]) -> usize {
        let entry = &self.shared.entries[self.tail];
        while entry.flag.load(Ordering::Acquire) != FULL {
            std::hint::spin_loop();
        }
        // SAFETY: same ownership protocol as the padded queue.
        let len = unsafe {
            let len = *entry.len.get() as usize;
            target[..len].copy_from_slice(&(&*entry.payload.get())[..len]);
            len
        };
        entry.flag.store(EMPTY, Ordering::Release);
        self.tail = (self.tail + 1) % self.shared.entries.len();
        len
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
                tx.push(&i.to_le_bytes());
            }
        });
        let mut buf = [0u8; UNPADDED_PAYLOAD];
        for i in 0..N {
            let n = rx.pop_into(&mut buf);
            assert_eq!(n, 8);
            assert_eq!(u64::from_le_bytes(buf[..8].try_into().unwrap()), i);
        }
        producer.join().unwrap();
    }

    #[test]
    fn entries_are_packed() {
        // The whole point: multiple entries per cache line.
        assert!(std::mem::size_of::<PackedEntry>() <= 32);
    }
}
