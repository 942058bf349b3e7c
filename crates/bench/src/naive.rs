//! Baseline locked queue for the lock-free ablation.
//!
//! A mutex-protected `VecDeque` with condition-variable blocking — the
//! "obvious" alternative to the FastForward queue. The `shm_queue` bench
//! compares its throughput/latency against [`shm::spsc`] to quantify the
//! benefit of the paper's lock-free design. Not used by the FlexIO runtime.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

struct Inner {
    queue: Mutex<VecDeque<Vec<u8>>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sender half of the locked queue.
#[derive(Clone)]
pub struct NaiveSender {
    inner: Arc<Inner>,
}

/// Receiver half of the locked queue.
#[derive(Clone)]
pub struct NaiveReceiver {
    inner: Arc<Inner>,
}

/// Create a bounded locked queue with `capacity` messages.
pub fn naive_queue(capacity: usize) -> (NaiveSender, NaiveReceiver) {
    let inner = Arc::new(Inner {
        queue: Mutex::new(VecDeque::with_capacity(capacity)),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (NaiveSender { inner: Arc::clone(&inner) }, NaiveReceiver { inner })
}

impl NaiveSender {
    /// Blocking bounded push.
    pub fn push(&self, payload: &[u8]) {
        let mut q = self.inner.queue.lock();
        while q.len() >= self.inner.capacity {
            self.inner.not_full.wait(&mut q);
        }
        q.push_back(payload.to_vec());
        self.inner.not_empty.notify_one();
    }
}

impl NaiveReceiver {
    /// Blocking pop.
    pub fn pop(&self) -> Vec<u8> {
        let mut q = self.inner.queue.lock();
        loop {
            if let Some(msg) = q.pop_front() {
                self.inner.not_full.notify_one();
                return msg;
            }
            self.inner.not_empty.wait(&mut q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn locked_queue_is_correct() {
        const N: u64 = 20_000;
        let (tx, rx) = naive_queue(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                tx.push(&i.to_le_bytes());
            }
        });
        for i in 0..N {
            let msg = rx.pop();
            assert_eq!(u64::from_le_bytes(msg.try_into().unwrap()), i);
        }
        producer.join().unwrap();
    }

    #[test]
    fn bounded_capacity_blocks_producer() {
        let (tx, rx) = naive_queue(2);
        tx.push(b"1");
        tx.push(b"2");
        let t = thread::spawn(move || {
            tx.push(b"3"); // must block until a pop frees a slot
            "done"
        });
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(rx.pop(), b"1");
        assert_eq!(t.join().unwrap(), "done");
        assert_eq!(rx.pop(), b"2");
        assert_eq!(rx.pop(), b"3");
    }
}
