//! Dev-only helpers shared by the workspace's test suites.
//!
//! [`CountingAlloc`] is the one counting allocator the allocation tests
//! install: a test binary declares
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: test_support::CountingAlloc = test_support::CountingAlloc;
//! ```
//!
//! and wraps the code under test in [`measure`]. Counting is per thread,
//! so tests running side by side in one binary do not count each other's
//! buffers; work the measured closure hands to another thread is not
//! counted either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What the calling thread asked the allocator for while [`measure`] ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Allocations (zeroed ones included) of at least the threshold.
    pub allocs: usize,
    /// Reallocations to at least the threshold.
    pub reallocs: usize,
    /// The zeroed share of [`Self::allocs`].
    pub zeroed: usize,
    /// The largest size requested, by any allocation or reallocation.
    pub largest: usize,
}

impl Counts {
    /// Allocations plus reallocations at or over the threshold: every
    /// request that could have been a payload-sized copy.
    pub fn at_or_over(&self) -> usize {
        self.allocs + self.reallocs
    }
}

// `const` cells need no destructor, so the allocator can still reach them
// while a thread is torn down (`try_with` covers the rest).
thread_local! {
    static THRESHOLD: Cell<Option<usize>> = const { Cell::new(None) };
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { allocs: 0, reallocs: 0, zeroed: 0, largest: 0 })
    };
}

enum Request {
    Alloc,
    Zeroed,
    Realloc,
}

fn note(size: usize, request: Request) {
    let Ok(Some(threshold)) = THRESHOLD.try_with(Cell::get) else { return };
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        n.largest = n.largest.max(size);
        if size >= threshold {
            match request {
                Request::Alloc => n.allocs += 1,
                Request::Zeroed => {
                    n.allocs += 1;
                    n.zeroed += 1;
                }
                Request::Realloc => n.reallocs += 1,
            }
        }
        c.set(n);
    });
}

/// The system allocator, counting the requests [`measure`] arms it for.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only counts, in `const` thread-locals that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), Request::Alloc);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), Request::Zeroed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, Request::Realloc);
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` with this thread's counters armed at `threshold` bytes and
/// return what it requested. Needs [`CountingAlloc`] installed as the
/// binary's global allocator; without it every count stays zero.
pub fn measure<R>(threshold: usize, f: impl FnOnce() -> R) -> (Counts, R) {
    COUNTS.set(Counts::default());
    THRESHOLD.set(Some(threshold));
    let out = f();
    THRESHOLD.set(None);
    (COUNTS.get(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_only_requests_at_or_over_the_threshold() {
        let (counts, v) = measure(1024, || {
            let small = vec![0u8; 16];
            let mut big: Vec<u8> = Vec::with_capacity(2048);
            big.extend_from_slice(&small);
            big.reserve_exact(4096);
            let zeroed = vec![0u64; 512];
            (big, zeroed)
        });
        assert_eq!(counts.allocs, 2, "{counts:?}");
        assert_eq!(counts.zeroed, 1, "{counts:?}");
        assert_eq!(counts.reallocs, 1, "{counts:?}");
        assert_eq!(counts.at_or_over(), 3);
        assert!(counts.largest >= 2048 + 16, "{counts:?}");
        drop(v);
    }

    #[test]
    fn disarmed_outside_measure_and_on_other_threads() {
        let (counts, ()) = measure(0, || {
            std::thread::scope(|s| {
                s.spawn(|| drop(vec![1u8; 1 << 16]));
            });
        });
        assert!(counts.largest < 1 << 16, "another thread's buffer was counted: {counts:?}");
        let (counts, ()) = measure(0, || ());
        assert_eq!(counts, Counts::default());
    }
}
