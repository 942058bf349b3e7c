//! A thread-scoped buffer pool: the seam through which a caller watches
//! the pooled buffers of the shm channels it creates.
//!
//! Every [`crate::shm_channel`] allocates a private pool unless the
//! creating thread has installed one here, in which case both halves of
//! the channel draw their pooled buffers from that pool and its
//! [`BufferPool::stats`] count them. That is all this module is for:
//! tests install a pool to see which path a channel's traffic took and
//! whether its buffers were reused.

use std::cell::RefCell;

use crate::pool::BufferPool;

thread_local! {
    static CURRENT: RefCell<Option<BufferPool>> = const { RefCell::new(None) };
}

/// Install `pool` as this thread's allocation home. Subsequent
/// `shm_channel` calls on this thread use it for their pooled path.
/// Replaces any previously installed pool.
pub fn install_thread_pool(pool: BufferPool) {
    CURRENT.with(|c| *c.borrow_mut() = Some(pool));
}

/// Remove this thread's installed pool; later channels go back to
/// private per-channel pools.
pub fn clear_thread_pool() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// A handle to this thread's installed pool, if any.
pub(crate) fn thread_pool() -> Option<BufferPool> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_take_and_clear() {
        assert!(thread_pool().is_none());
        install_thread_pool(BufferPool::new(1 << 20));
        assert!(thread_pool().is_some());
        clear_thread_pool();
        assert!(thread_pool().is_none());
    }

    #[test]
    fn installation_is_thread_scoped() {
        install_thread_pool(BufferPool::new(1 << 20));
        let other = std::thread::spawn(|| thread_pool().is_none()).join().unwrap();
        assert!(other, "pool must not leak to other threads");
        clear_thread_pool();
    }
}
