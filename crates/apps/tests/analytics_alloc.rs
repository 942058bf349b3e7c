//! What the GTS analytics chain allocates, counted per thread by the
//! workspace's counting allocator (`test_support::CountingAlloc`):
//! `range_query` allocates its output once and shrinks it at most once;
//! `distribution_function` and `HistogramSet::build` allocate their bins
//! and nothing that grows with the particle array.

use apps::analytics::HistogramSet;
use apps::{distribution_function, range_query, Gts, GtsConfig, RangeQuery};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One benchmark-sized array: 100 000 particles, 5.6 MB.
fn particles() -> Vec<f64> {
    Gts::new(0, GtsConfig { particles_per_rank: 100_000, ..Default::default() }).zion().data.clone()
}

#[test]
fn range_query_allocates_its_output_once() {
    let p = particles();
    let q = RangeQuery::twenty_percent_core(&distribution_function(&p, 256, (-2.0, 2.0)));
    let (counts, selected) = measure(0, || range_query(&p, &q));
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
    let (counts, dist) = measure(0, || distribution_function(&p, nbins, (-2.0, 2.0)));
    assert_eq!(dist.bins.len(), nbins);
    assert_eq!((counts.allocs, counts.reallocs), (1, 0), "{counts:?}");
    assert!(counts.largest <= 2 * nbins * 8, "more than the bins: {counts:?}");

    // The full array, not just a selection: nothing scales with it.
    let nbins = 32;
    let (counts, set) = measure(0, || HistogramSet::build(&p, (-2.0, 2.0), nbins));
    assert_eq!(set.joint.bins.len(), nbins * nbins);
    assert_eq!((counts.allocs, counts.reallocs), (3, 0), "v_par, v_perp, joint: {counts:?}");
    assert!(counts.largest <= 2 * nbins * nbins * 8, "more than the bins: {counts:?}");
}
