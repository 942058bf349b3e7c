//! The GTS analytics chain (paper §IV.A).
//!
//! "The particle data is processed by a series of analysis steps,
//! including the calculation of particle distribution function and a range
//! query on the velocity attributes of all particles. The query result is
//! ~20% of the original output particles. 1D and 2D histograms are
//! generated from the query results and written to files which can then
//! be used for parallel coordinates visualization."
//!
//! Each step is one in-order pass over the row-major n×7 particle array,
//! read where it lies (a packed shm view included): the distribution
//! function and the histograms add each row's sample to its slot in an
//! accumulator of `histogram.rs`'s `Bins`, and the range query is a
//! fused select. The scalar row loops these replace, one histogram fill
//! per row, are the test oracle (`oracle.rs`), and the passes are held to
//! them bit for bit.

use crate::gts::{ATTRS, VPAR, VPERP, WEIGHT};
use crate::histogram::{Bins, Histogram1D, Histogram2D};

/// The velocity-space particle distribution function: a weighted 1-D
/// histogram of `v_par` over the particle population.
pub fn distribution_function(particles: &[f64], nbins: usize, v_range: (f64, f64)) -> Histogram1D {
    assert!(particles.len().is_multiple_of(ATTRS), "not an n×7 particle array");
    let bins = Bins::new(v_range.0, v_range.1, nbins);
    let mut acc = bins.slots();
    for row in particles.chunks_exact(ATTRS) {
        acc[bins.slot(row[VPAR])] += row[WEIGHT];
    }
    bins.histogram(acc)
}

/// A velocity range query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeQuery {
    /// Inclusive lower bound on `v_par`.
    pub v_par_min: f64,
    /// Exclusive upper bound on `v_par`.
    pub v_par_max: f64,
}

impl RangeQuery {
    /// Build the paper's ~20%-selectivity query from the distribution
    /// function: keep particles between the 40th and 60th percentile of
    /// `v_par` (the thermal core).
    pub fn twenty_percent_core(dist: &Histogram1D) -> RangeQuery {
        RangeQuery { v_par_min: dist.quantile(0.40), v_par_max: dist.quantile(0.60) }
    }

    /// True if a particle row passes.
    pub fn matches(&self, particle: &[f64]) -> bool {
        let v = particle[VPAR];
        v >= self.v_par_min && v < self.v_par_max
    }
}

/// Run the range query, returning the selected particles (dense copy, all
/// seven attributes preserved). One pass and no branch on the predicate:
/// every row is appended, then cut off again unless it matched. The
/// output is allocated once at the input's size (only the pages the
/// survivors fill are touched) and shrunk to fit.
pub fn range_query(particles: &[f64], query: &RangeQuery) -> Vec<f64> {
    assert!(particles.len().is_multiple_of(ATTRS), "not an n×7 particle array");
    let (lo, hi) = (query.v_par_min, query.v_par_max);
    let mut out = Vec::with_capacity(particles.len());
    for row in particles.chunks_exact(ATTRS) {
        out.extend_from_slice(row);
        let x = row[VPAR];
        let dropped = usize::from(!((x >= lo) & (x < hi)));
        out.truncate(out.len() - dropped * ATTRS);
    }
    out.shrink_to_fit();
    out
}

/// The downstream products: 1-D histograms per velocity attribute and the
/// 2-D `v_par × v_perp` histogram, built from the query result.
#[derive(Debug, Clone)]
pub struct HistogramSet {
    /// `v_par` histogram of the selected particles.
    pub v_par: Histogram1D,
    /// `v_perp` histogram of the selected particles.
    pub v_perp: Histogram1D,
    /// Joint velocity histogram.
    pub joint: Histogram2D,
}

impl HistogramSet {
    /// Build from a selected particle array, in one pass: each row's two
    /// bins are computed once and feed all three histograms. A row outside
    /// either range (NaN included) counts in no 2-D cell.
    pub fn build(selected: &[f64], v_range: (f64, f64), nbins: usize) -> HistogramSet {
        assert!(selected.len().is_multiple_of(ATTRS), "not an n×7 particle array");
        let perp_range = (0.0, v_range.1.max(1e-9));
        let (par, perp) =
            (Bins::new(v_range.0, v_range.1, nbins), Bins::new(0.0, perp_range.1, nbins));
        let cells = nbins.checked_mul(nbins).expect("2-D bin count overflows usize");
        let (mut ax, mut ay, mut axy) = (par.slots(), perp.slots(), vec![0.0; cells + 1]);
        for row in selected.chunks_exact(ATTRS) {
            let (sx, sy) = (par.slot(row[VPAR]), perp.slot(row[VPERP]));
            ax[sx] += 1.0;
            ay[sy] += 1.0;
            // A slot below `nbins` is a bin: the row is inside that range.
            axy[if (sx < nbins) & (sy < nbins) { sx * nbins + sy } else { cells }] += 1.0;
        }
        axy.truncate(cells);
        HistogramSet {
            v_par: par.histogram(ax),
            v_perp: perp.histogram(ay),
            joint: Histogram2D {
                x_range: v_range,
                y_range: perp_range,
                nx: nbins,
                ny: nbins,
                bins: axy,
            },
        }
    }

    /// Merge results from another analytics rank.
    pub fn merge(&mut self, other: &HistogramSet) {
        self.v_par.merge(&other.v_par);
        self.v_perp.merge(&other.v_perp);
        self.joint.merge(&other.joint);
    }
}

#[cfg(test)]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gts::{Gts, GtsConfig};

    fn particles() -> Vec<f64> {
        Gts::new(0, GtsConfig { particles_per_rank: 5000, ..Default::default() })
            .zion()
            .data
            .clone()
    }

    #[test]
    fn distribution_function_covers_population() {
        let p = particles();
        let d = distribution_function(&p, 64, (-2.0, 2.0));
        // Weighted by the weight attribute (uniform in [0,1), mean 0.5).
        let total = d.total() + d.underflow + d.overflow;
        assert!((total / (p.len() / ATTRS) as f64 - 0.5).abs() < 0.05);
    }

    #[test]
    fn range_query_selects_about_twenty_percent() {
        // The paper's headline number: "The query result is ~20% of the
        // original output particles."
        let p = particles();
        let d = distribution_function(&p, 256, (-2.0, 2.0));
        let q = RangeQuery::twenty_percent_core(&d);
        let selected = range_query(&p, &q);
        let fraction = (selected.len() / ATTRS) as f64 / (p.len() / ATTRS) as f64;
        assert!((0.12..=0.30).contains(&fraction), "selectivity {fraction} out of the ~20% band");
    }

    #[test]
    fn query_preserves_attribute_rows() {
        let p = particles();
        let q = RangeQuery { v_par_min: -0.1, v_par_max: 0.1 };
        let s = range_query(&p, &q);
        assert!(s.len().is_multiple_of(ATTRS));
        for row in s.chunks_exact(ATTRS) {
            assert!(q.matches(row));
            assert!(row[6] >= 0.0, "particle id survives");
        }
    }

    #[test]
    fn empty_selection() {
        let p = particles();
        let q = RangeQuery { v_par_min: 100.0, v_par_max: 101.0 };
        assert!(range_query(&p, &q).is_empty());
    }

    #[test]
    fn histogram_set_merge_matches_union() {
        let p = particles();
        let q = RangeQuery { v_par_min: -0.5, v_par_max: 0.5 };
        let s = range_query(&p, &q);
        let half = (s.len() / ATTRS / 2) * ATTRS;
        let mut a = HistogramSet::build(&s[..half], (-2.0, 2.0), 32);
        let b = HistogramSet::build(&s[half..], (-2.0, 2.0), 32);
        let whole = HistogramSet::build(&s, (-2.0, 2.0), 32);
        a.merge(&b);
        assert_eq!(a.v_par.bins, whole.v_par.bins);
        assert_eq!(a.joint.bins, whole.joint.bins);
    }

    #[test]
    fn a_nan_sample_counts_in_no_bin() {
        // `NaN as usize` is 0: a NaN once landed in bin 0 and moved the
        // quantiles the range query is built from.
        let mut h = Histogram1D::new(0.0, 1.0, 4);
        h.add_weighted(f64::NAN, 2.0);
        assert_eq!((h.total(), h.underflow, h.overflow), (0.0, 0.0, 0.0));

        // Every third particle gets a twin whose `v_par` is NaN: the
        // twins must change no bin, no underflow and no overflow.
        let p = particles();
        let mut with_nan = Vec::new();
        for (i, row) in p.chunks_exact(ATTRS).enumerate() {
            with_nan.extend_from_slice(row);
            if i % 3 == 0 {
                with_nan.extend_from_slice(row);
                let at = with_nan.len() - ATTRS + VPAR;
                with_nan[at] = f64::NAN;
            }
        }
        let range = (-2.0, 2.0);
        let clean = distribution_function(&p, 64, range);
        let clean_set = HistogramSet::build(&p, range, 8);
        let sets =
            [HistogramSet::build(&with_nan, range, 8), oracle::histogram_set(&with_nan, range, 8)];
        let dists = [
            distribution_function(&with_nan, 64, range),
            oracle::distribution_function(&with_nan, 64, range),
        ];
        for (dist, set) in dists.iter().zip(&sets) {
            assert_eq!(dist, &clean);
            assert_eq!(set.v_par, clean_set.v_par);
            assert_eq!(set.joint, clean_set.joint);
        }
        let q = RangeQuery::twenty_percent_core(&clean);
        assert_eq!(range_query(&with_nan, &q), range_query(&p, &q));
        assert_eq!(oracle::range_query(&with_nan, &q), range_query(&p, &q));
    }
}
