//! The GTS chain as scalar row loops, one particle at a time through
//! `Histogram1D`/`Histogram2D`'s own fills: the test oracle the array
//! kernel is held to, bit for bit. Test-only — the unit tests reach it as
//! `analytics::oracle`, and `tests/analytics_differential.rs` includes
//! this file, so the names below resolve against whichever module
//! includes it.

use super::{Histogram1D, Histogram2D, HistogramSet, RangeQuery, ATTRS, VPAR, VPERP, WEIGHT};

/// `analytics::distribution_function`, row by row.
pub fn distribution_function(particles: &[f64], nbins: usize, v_range: (f64, f64)) -> Histogram1D {
    assert!(particles.len().is_multiple_of(ATTRS), "not an n×7 particle array");
    let mut h = Histogram1D::new(v_range.0, v_range.1, nbins);
    for p in particles.chunks_exact(ATTRS) {
        h.add_weighted(p[VPAR], p[WEIGHT]);
    }
    h
}

/// `analytics::range_query`, row by row.
pub fn range_query(particles: &[f64], query: &RangeQuery) -> Vec<f64> {
    assert!(particles.len().is_multiple_of(ATTRS));
    let mut out = Vec::new();
    for p in particles.chunks_exact(ATTRS) {
        if query.matches(p) {
            out.extend_from_slice(p);
        }
    }
    out
}

/// `HistogramSet::build`, row by row.
pub fn histogram_set(selected: &[f64], v_range: (f64, f64), nbins: usize) -> HistogramSet {
    assert!(selected.len().is_multiple_of(ATTRS));
    let mut v_par = Histogram1D::new(v_range.0, v_range.1, nbins);
    let mut v_perp = Histogram1D::new(0.0, v_range.1.max(1e-9), nbins);
    let mut joint = Histogram2D::new(v_range, (0.0, v_range.1.max(1e-9)), nbins, nbins);
    for p in selected.chunks_exact(ATTRS) {
        v_par.add(p[VPAR]);
        v_perp.add(p[VPERP]);
        joint.add(p[VPAR], p[VPERP]);
    }
    HistogramSet { v_par, v_perp, joint }
}
