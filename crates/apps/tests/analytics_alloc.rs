//! What the GTS analytics chain allocates, counted per thread (the
//! counting-allocator pattern of `flexio/tests/plugin_zero_copy.rs`):
//! `range_query` allocates its output once and shrinks it at most once;
//! `distribution_function` and `HistogramSet::build` allocate their bins
//! and nothing that grows with the particle array.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use apps::analytics::HistogramSet;
use apps::{distribution_function, range_query, Gts, GtsConfig, RangeQuery};

/// Allocations made while armed: `(allocs, reallocs, largest size)`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    allocs: usize,
    reallocs: usize,
    largest: usize,
}

// Per-thread, so tests running side by side in this binary do not count
// each other's buffers.
thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> = const { Cell::new(Counts { allocs: 0, reallocs: 0, largest: 0 }) };
}

fn note(size: usize, realloc: bool) {
    // `try_with`: the allocator also runs while a thread is torn down.
    if ARMED.try_with(Cell::get) != Ok(true) {
        return;
    }
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        if realloc {
            n.reallocs += 1;
        } else {
            n.allocs += 1;
        }
        n.largest = n.largest.max(size);
        c.set(n);
    });
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), false);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's allocations while `f` runs.
fn counted<R>(f: impl FnOnce() -> R) -> (Counts, R) {
    COUNTS.set(Counts::default());
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (COUNTS.get(), out)
}

/// One benchmark-sized array: 100 000 particles, 5.6 MB.
fn particles() -> Vec<f64> {
    Gts::new(0, GtsConfig { particles_per_rank: 100_000, ..Default::default() }).zion().data.clone()
}

#[test]
fn range_query_allocates_its_output_once() {
    let p = particles();
    let q = RangeQuery::twenty_percent_core(&distribution_function(&p, 256, (-2.0, 2.0)));
    let (counts, selected) = counted(|| range_query(&p, &q));
    assert!(!selected.is_empty() && selected.len() < p.len());
    assert_eq!(counts.allocs, 1, "{counts:?}");
    assert!(counts.reallocs <= 1, "at most the one shrink: {counts:?}");
    assert!(counts.largest <= p.len() * 8, "{counts:?}");
    assert_eq!(selected.capacity(), selected.len(), "shrunk to fit");
}

#[test]
fn histograms_allocate_only_their_bins() {
    let p = particles();
    let nbins = 256;
    let (counts, dist) = counted(|| distribution_function(&p, nbins, (-2.0, 2.0)));
    assert_eq!(dist.bins.len(), nbins);
    assert_eq!((counts.allocs, counts.reallocs), (1, 0), "{counts:?}");
    assert!(counts.largest <= 2 * nbins * 8, "more than the bins: {counts:?}");

    // The full array, not just a selection: nothing scales with it.
    let nbins = 32;
    let (counts, set) = counted(|| HistogramSet::build(&p, (-2.0, 2.0), nbins));
    assert_eq!(set.joint.bins.len(), nbins * nbins);
    assert_eq!((counts.allocs, counts.reallocs), (3, 0), "v_par, v_perp, joint: {counts:?}");
    assert!(counts.largest <= 2 * nbins * nbins * 8, "more than the bins: {counts:?}");
}
