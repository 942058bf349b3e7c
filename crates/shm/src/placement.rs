//! Thread-scoped buffer-pool placement (paper §V applied to ourselves).
//!
//! The paper pins FlexIO's internal buffers in the NUMA domain local to
//! the core that runs the data movement ("allocating FlexIO's internal
//! buffers [...] in the local memory of the NUMA domain"). In this
//! reproduction the unit of execution is a reactor-fleet worker thread,
//! so placement is thread-scoped: at fleet startup each worker installs
//! its shard's NUMA-pinned [`BufferPool`] here, and every
//! [`crate::shm_channel`] created *on that thread* afterwards draws its
//! pooled buffers from it instead of allocating a private,
//! unpinned pool.
//!
//! Channels created on threads with no installed pool keep the old
//! behaviour (a fresh per-channel pool), so nothing outside the fleet
//! changes. The channel's two halves share whichever pool the *creating*
//! thread had installed — in a fleet that is the shard that claimed the
//! channel first, which is the core that polls it.

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
pub fn thread_pool() -> Option<BufferPool> {
    CURRENT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_take_and_clear() {
        assert!(thread_pool().is_none());
        install_thread_pool(BufferPool::new_pinned(1 << 20, 3));
        assert_eq!(thread_pool().expect("installed").numa_domain(), Some(3));
        clear_thread_pool();
        assert!(thread_pool().is_none());
    }

    #[test]
    fn installation_is_thread_scoped() {
        install_thread_pool(BufferPool::new_pinned(1 << 20, 1));
        let other = std::thread::spawn(|| thread_pool().is_none()).join().unwrap();
        assert!(other, "pool must not leak to other threads");
        clear_thread_pool();
    }
}
