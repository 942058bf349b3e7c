//! Histogram utilities shared by the GTS analytics chain.

/// A fixed-range 1-D histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram1D {
    /// Lower edge of the first bin.
    pub min: f64,
    /// Upper edge of the last bin.
    pub max: f64,
    /// Counts of the bins over `[min, max)` (weights accumulate as f64).
    pub bins: Vec<f64>,
    /// Samples below `min`.
    pub underflow: f64,
    /// Samples at or above `max`. (A NaN sample counts nowhere.)
    pub overflow: f64,
}

impl Histogram1D {
    /// New histogram over `[min, max)` with `nbins` bins.
    pub fn new(min: f64, max: f64, nbins: usize) -> Histogram1D {
        assert!(max > min && nbins > 0);
        Histogram1D { min, max, bins: vec![0.0; nbins], underflow: 0.0, overflow: 0.0 }
    }

    /// Accumulate one sample with weight. A NaN sample counts nowhere.
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        if x.is_nan() {
            return;
        }
        if x < self.min {
            self.underflow += w;
            return;
        }
        if x >= self.max {
            self.overflow += w;
            return;
        }
        let nbins = self.bins.len();
        let bin = ((x - self.min) / (self.max - self.min) * nbins as f64) as usize;
        self.bins[bin.min(nbins - 1)] += w;
    }

    /// Accumulate one unit-weight sample.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Accumulate a slice of samples.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Total in-range weight.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Merge another histogram of identical geometry (the cross-rank
    /// reduction the analytics performs).
    pub fn merge(&mut self, other: &Histogram1D) {
        assert_eq!(self.min, other.min);
        assert_eq!(self.max, other.max);
        assert_eq!(self.bins.len(), other.bins.len());
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }

    /// Value below which `q` of the in-range weight lies (0 ≤ q ≤ 1);
    /// used to derive the ~20%-selectivity query bounds.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        let target = self.total() * q;
        let mut acc = 0.0;
        for (i, &b) in self.bins.iter().enumerate() {
            acc += b;
            if acc >= target {
                let frac = if b > 0.0 { (acc - target) / b } else { 0.0 };
                let width = (self.max - self.min) / self.bins.len() as f64;
                return self.min + (i as f64 + 1.0 - frac) * width;
            }
        }
        self.max
    }

    /// CSV rendering (`bin_center,count` rows) — what gets written to
    /// files for the parallel-coordinates visualization.
    pub fn to_csv(&self) -> String {
        let width = (self.max - self.min) / self.bins.len() as f64;
        let mut out = String::from("bin_center,count\n");
        for (i, b) in self.bins.iter().enumerate() {
            out.push_str(&format!("{:.6},{b}\n", self.min + (i as f64 + 0.5) * width));
        }
        out
    }
}

/// The geometry of one histogram axis, for the analytics' in-order
/// passes: a sample goes to one of `n + 3` accumulator slots by index,
/// not by branch, and each slot sums its samples in row order, so the
/// histogram the slots hold is the one `add_weighted` fills, bit for bit.
#[derive(Debug)]
pub(crate) struct Bins {
    min: f64,
    max: f64,
    n: usize,
}

impl Bins {
    /// `n` bins over `[min, max)`; panics unless `max > min` and
    /// `0 < n <= u32::MAX`.
    pub(crate) fn new(min: f64, max: f64, n: usize) -> Bins {
        assert!(max > min && n > 0 && u32::try_from(n).is_ok(), "bad bin geometry");
        Bins { min, max, n }
    }

    /// A zeroed accumulator: the `n` bins, then underflow, overflow, NaN.
    pub(crate) fn slots(&self) -> Vec<f64> {
        vec![0.0; self.n + 3]
    }

    /// The slot of `x`: its bin — `add_weighted`'s expression, truncated
    /// through `u32` (exact on `[0, n]`, and faster than a saturating cast
    /// to `usize`) and clamped to the last bin — or `n` below `min`,
    /// `n + 1` at or above `max`, `n + 2` for NaN.
    #[inline]
    pub(crate) fn slot(&self, x: f64) -> usize {
        let bin = ((((x - self.min) / (self.max - self.min)) * self.n as f64) as u32 as usize)
            .min(self.n - 1);
        let mut slot = if x >= self.max { self.n + 1 } else { bin };
        slot = if x < self.min { self.n } else { slot };
        if x.is_nan() {
            self.n + 2
        } else {
            slot
        }
    }

    /// The histogram an accumulator from [`Bins::slots`] holds.
    pub(crate) fn histogram(&self, mut acc: Vec<f64>) -> Histogram1D {
        let (underflow, overflow) = (acc[self.n], acc[self.n + 1]);
        acc.truncate(self.n);
        Histogram1D { min: self.min, max: self.max, bins: acc, underflow, overflow }
    }
}

/// A fixed-range 2-D histogram (e.g. `v_par × v_perp`).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram2D {
    /// X-axis range.
    pub x_range: (f64, f64),
    /// Y-axis range.
    pub y_range: (f64, f64),
    /// X bin count.
    pub nx: usize,
    /// Y bin count.
    pub ny: usize,
    /// Row-major `nx × ny` counts.
    pub bins: Vec<f64>,
}

impl Histogram2D {
    /// New 2-D histogram.
    pub fn new(x_range: (f64, f64), y_range: (f64, f64), nx: usize, ny: usize) -> Histogram2D {
        assert!(x_range.1 > x_range.0 && y_range.1 > y_range.0 && nx > 0 && ny > 0);
        Histogram2D { x_range, y_range, nx, ny, bins: vec![0.0; nx * ny] }
    }

    /// Accumulate one (x, y) sample; out-of-range samples are dropped.
    pub fn add(&mut self, x: f64, y: f64) {
        let (x0, x1) = self.x_range;
        let (y0, y1) = self.y_range;
        if !(x0..x1).contains(&x) || !(y0..y1).contains(&y) {
            return;
        }
        let ix = (((x - x0) / (x1 - x0)) * self.nx as f64) as usize;
        let iy = (((y - y0) / (y1 - y0)) * self.ny as f64) as usize;
        self.bins[ix.min(self.nx - 1) * self.ny + iy.min(self.ny - 1)] += 1.0;
    }

    /// Total weight collected.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }

    /// Merge another histogram of identical geometry.
    pub fn merge(&mut self, other: &Histogram2D) {
        assert_eq!(self.x_range, other.x_range);
        assert_eq!(self.y_range, other.y_range);
        assert_eq!(self.nx, other.nx);
        assert_eq!(self.ny, other.ny);
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bin_assignment_and_edges() {
        let mut h = Histogram1D::new(0.0, 10.0, 10);
        h.add(0.0);
        h.add(9.999);
        h.add(5.0);
        h.add(-1.0);
        h.add(10.0);
        assert_eq!(h.bins[0], 1.0);
        assert_eq!(h.bins[9], 1.0);
        assert_eq!(h.bins[5], 1.0);
        assert_eq!(h.underflow, 1.0);
        assert_eq!(h.overflow, 1.0);
        assert_eq!(h.total(), 3.0);
    }

    #[test]
    fn merge_equals_combined_fill() {
        let mut a = Histogram1D::new(0.0, 1.0, 8);
        let mut b = Histogram1D::new(0.0, 1.0, 8);
        let mut c = Histogram1D::new(0.0, 1.0, 8);
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        a.extend(&xs[..50]);
        b.extend(&xs[50..]);
        c.extend(&xs);
        a.merge(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn quantile_of_uniform() {
        let mut h = Histogram1D::new(0.0, 1.0, 100);
        for i in 0..10_000 {
            h.add(i as f64 / 10_000.0);
        }
        assert!((h.quantile(0.5) - 0.5).abs() < 0.02);
        assert!((h.quantile(0.9) - 0.9).abs() < 0.02);
        assert!((h.quantile(0.1) - 0.1).abs() < 0.02);
    }

    #[test]
    fn csv_has_one_row_per_bin() {
        let mut h = Histogram1D::new(0.0, 2.0, 4);
        h.add(0.1);
        let csv = h.to_csv();
        assert_eq!(csv.lines().count(), 5);
        assert!(csv.starts_with("bin_center,count"));
    }

    #[test]
    fn hist2d_accumulates_and_merges() {
        let mut h = Histogram2D::new((0.0, 1.0), (0.0, 1.0), 2, 2);
        h.add(0.25, 0.25);
        h.add(0.75, 0.75);
        h.add(2.0, 0.5); // dropped
        assert_eq!(h.total(), 2.0);
        assert_eq!(h.bins[0], 1.0);
        assert_eq!(h.bins[3], 1.0);
        let mut other = Histogram2D::new((0.0, 1.0), (0.0, 1.0), 2, 2);
        other.add(0.25, 0.75);
        h.merge(&other);
        assert_eq!(h.total(), 3.0);
        assert_eq!(h.bins[1], 1.0);
    }

    #[test]
    #[should_panic]
    fn hist2d_merge_refuses_another_range() {
        let mut h = Histogram2D::new((0.0, 1.0), (0.0, 1.0), 2, 2);
        h.merge(&Histogram2D::new((0.0, 1.0), (0.0, 2.0), 2, 2));
    }

    proptest! {
        #[test]
        fn total_conserved(xs in proptest::collection::vec(-2.0f64..12.0, 0..200)) {
            let mut h = Histogram1D::new(0.0, 10.0, 7);
            h.extend(&xs);
            let accounted = h.total() + h.underflow + h.overflow;
            prop_assert!((accounted - xs.len() as f64).abs() < 1e-9);
        }
    }
}
