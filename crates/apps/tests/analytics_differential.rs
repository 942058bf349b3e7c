//! Differential oracle for the GTS analytics chain: the kernel-backed
//! `distribution_function`, `range_query` and `HistogramSet::build` must
//! match the scalar row loops they replaced (`src/analytics/oracle.rs`,
//! included below) bit for bit — every bin, underflow, overflow and
//! selected row compared through `to_bits` — over random n×7 arrays full
//! of IEEE edge cases (NaN, ±inf, ±0.0, subnormals) and of values exactly
//! at, and one ulp either side of, every bin edge, `min` and `max`. A
//! packed wire view of the array gives what the owned array gives, and
//! the query's `Expr` form through `FilterKernel` (the reader- and
//! writer-side filter) keeps exactly the rows `range_query` keeps.

use adios::ArrayData;
use apps::analytics::HistogramSet;
use apps::gts::{ATTRS, ATTR_NAMES, VPAR, VPERP, WEIGHT};
use apps::{distribution_function, range_query, Histogram1D, Histogram2D, RangeQuery};
use evpath::ffs::PackedArray;
use flexio_query::{Expr, FilterKernel};
use proptest::collection::vec;
use proptest::prelude::*;

#[path = "../src/analytics/oracle.rs"]
mod oracle;

const NBINS: [usize; 4] = [1, 7, 32, 256];

/// The benchmark's range, spans that are not a power of two, and a range
/// whose span overflows to infinity (so `(x - min) / (max - min)` can be
/// NaN for an in-range `x`).
const RANGES: [(f64, f64); 5] =
    [(-2.0, 2.0), (-0.3, 1.1), (-3.0, 7.0), (0.1, 0.7), (f64::MIN, f64::MAX)];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

type HistBits = (Vec<u64>, u64, u64);

fn hist_bits(h: &Histogram1D) -> HistBits {
    (bits(&h.bins), h.underflow.to_bits(), h.overflow.to_bits())
}

fn set_bits(set: &HistogramSet) -> (HistBits, HistBits, Vec<u64>) {
    (hist_bits(&set.v_par), hist_bits(&set.v_perp), bits(&set.joint.bins))
}

/// `x` one ulp down (`0`), as is (`1`) or one ulp up (`2`).
fn nudge(x: f64, ulp: u8) -> f64 {
    match ulp {
        0 => x.next_down(),
        1 => x,
        _ => x.next_up(),
    }
}

/// The `k`-th of `n` bin edges over `[lo, hi)`.
fn edge(lo: f64, hi: f64, n: usize, k: usize) -> f64 {
    lo + (hi - lo) * k as f64 / n as f64
}

/// The histograms' second axis: `v_perp` over `[0, max)`.
fn perp_axis((_, max): (f64, f64)) -> (f64, f64) {
    (0.0, max.max(1e-9))
}

const SPECIALS: [f64; 10] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225_073_858_507_201e-308, // largest subnormal
    f64::MAX,
    f64::MIN,
];

/// Every attribute value the kernel could bin or select differently from
/// the scalar loops: bin edges of both histogram axes and the range ends,
/// each ± one ulp, the IEEE specials, values spread around the range, and
/// arbitrary bit patterns.
fn arb_value(nbins: usize, range: (f64, f64)) -> BoxedStrategy<f64> {
    let (min, max) = range;
    let perp = perp_axis(range);
    let span = max - min;
    prop_oneof![
        (0..=nbins, 0u8..3).prop_map(move |(k, u)| nudge(edge(min, max, nbins, k), u)),
        (0..=nbins, 0u8..3).prop_map(move |(k, u)| nudge(edge(perp.0, perp.1, nbins, k), u)),
        (0u8..3, any::<bool>()).prop_map(move |(u, top)| nudge(if top { max } else { min }, u)),
        (0..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
        (min - span / 2.0)..(max + span / 2.0),
        any::<u64>().prop_map(f64::from_bits),
    ]
    .boxed()
}

/// A geometry, an n×7 particle array whose every attribute is drawn from
/// [`arb_value`], and range-query bounds drawn from the same values.
fn arb_case() -> impl Strategy<Value = (usize, (f64, f64), Vec<f64>, (f64, f64))> {
    let range = prop_oneof![
        (0..RANGES.len()).prop_map(|i| RANGES[i]),
        (-5.0f64..5.0, 0.01f64..10.0).prop_map(|(lo, span)| (lo, lo + span)),
    ];
    ((0..NBINS.len()).prop_map(|i| NBINS[i]), range).prop_flat_map(|(nbins, range)| {
        let value = arb_value(nbins, range);
        let rows = (0usize..48).prop_flat_map(move |n| vec(value.clone(), n * ATTRS));
        (Just(nbins), Just(range), rows, (arb_value(nbins, range), arb_value(nbins, range)))
    })
}

/// What the chain computes from one array, as bits.
#[derive(Debug, PartialEq)]
struct ChainBits {
    dist: HistBits,
    selected: Vec<u64>,
    sets: Vec<(HistBits, HistBits, Vec<u64>)>,
}

/// Run the kernel chain and the oracle on `data`, assert they agree bit
/// for bit, check the filter kernel against the selection, and return
/// the kernel's bits.
fn chain_matches_oracle(
    data: &[f64],
    nbins: usize,
    range: (f64, f64),
    q: &RangeQuery,
) -> ChainBits {
    let dist = distribution_function(data, nbins, range);
    assert_eq!(
        hist_bits(&dist),
        hist_bits(&oracle::distribution_function(data, nbins, range)),
        "distribution function"
    );
    let selected = range_query(data, q);
    assert_eq!(bits(&selected), bits(&oracle::range_query(data, q)), "selected rows");
    let mut sets = Vec::new();
    for rows in [data, &selected[..]] {
        let set = set_bits(&HistogramSet::build(rows, range, nbins));
        assert_eq!(set, set_bits(&oracle::histogram_set(rows, range, nbins)), "histogram set");
        sets.push(set);
    }
    filter_kernel_keeps_the_selection(data, q, &selected);
    ChainBits { dist: hist_bits(&dist), selected: bits(&selected), sets }
}

/// The query as a filter over the `v_par` column:
/// `v_par_min <= v_par && v_par < v_par_max`.
fn range_expr(q: &RangeQuery) -> Expr {
    let v_par = || Expr::col(ATTR_NAMES[VPAR]);
    v_par().ge(Expr::lit(q.v_par_min)).and(v_par().lt(Expr::lit(q.v_par_max)))
}

/// The query's `Expr` form through `FilterKernel` over the `v_par`
/// column, owned and packed, keeps the `v_par` values of exactly the
/// selected rows.
fn filter_kernel_keeps_the_selection(data: &[f64], q: &RangeQuery, selected: &[f64]) {
    let v_par: Vec<f64> = data.chunks_exact(ATTRS).map(|row| row[VPAR]).collect();
    let expect: Vec<u64> = selected.chunks_exact(ATTRS).map(|row| row[VPAR].to_bits()).collect();
    let expr = range_expr(q);
    let mut kernel =
        FilterKernel::new(&expr, &[ATTR_NAMES[VPAR].to_string()]).expect("boolean over v_par");
    for column in [ArrayData::F64(v_par.clone()), ArrayData::Packed(PackedArray::from_f64s(&v_par))]
    {
        let ArrayData::F64(kept) = kernel.filter_column(&column) else { panic!("f64 survivors") };
        assert_eq!(bits(&kept), expect, "FilterKernel on {expr:?}");
    }
}

/// The chain on `data` as given and on a packed wire view of it: both
/// match the oracle, and each other.
fn owned_and_packed_agree(data: &[f64], nbins: usize, range: (f64, f64), q: &RangeQuery) {
    let owned = chain_matches_oracle(data, nbins, range, q);
    // An empty byte buffer has no aligned address to borrow f64s at.
    if !data.is_empty() {
        let packed = ArrayData::Packed(PackedArray::from_f64s(data));
        assert_eq!(chain_matches_oracle(packed.as_f64(), nbins, range, q), owned, "packed view");
    }
}

proptest! {
    #[test]
    fn kernel_chain_equals_scalar_oracle(case in arb_case()) {
        let (nbins, range, data, (lo, hi)) = &case;
        let dist = distribution_function(data, *nbins, *range);
        for q in [
            RangeQuery { v_par_min: *lo, v_par_max: *hi },
            RangeQuery::twenty_percent_core(&dist),
        ] {
            owned_and_packed_agree(data, *nbins, *range, &q);
        }
    }
}

/// Deterministic sweep of every geometry the property draws from: rows
/// whose `v_par`, `v_perp` and weight run through every bin edge of both
/// axes and both range ends, each ± one ulp, and the IEEE specials.
#[test]
fn every_bin_edge_and_its_neighbours_agree() {
    for nbins in NBINS {
        for range in RANGES {
            let perp = perp_axis(range);
            let mut values = SPECIALS.to_vec();
            for u in 0..3 {
                values.extend([range.0, range.1].map(|x| nudge(x, u)));
                for k in 0..=nbins {
                    values.push(nudge(edge(range.0, range.1, nbins, k), u));
                    values.push(nudge(edge(perp.0, perp.1, nbins, k), u));
                }
            }
            let n = values.len();
            let data: Vec<f64> = (0..n)
                .flat_map(|i| {
                    let mut row = [i as f64; ATTRS];
                    row[VPAR] = values[i];
                    row[VPERP] = values[(i * 7 + 3) % n];
                    row[WEIGHT] = values[(i * 3 + 1) % n];
                    row
                })
                .collect();
            let dist = distribution_function(&data, nbins, range);
            let mid = edge(range.0, range.1, nbins, nbins / 2);
            for q in [
                RangeQuery::twenty_percent_core(&dist),
                RangeQuery { v_par_min: range.0, v_par_max: mid },
                RangeQuery { v_par_min: mid.next_up(), v_par_max: range.1.next_down() },
                RangeQuery { v_par_min: f64::NEG_INFINITY, v_par_max: f64::INFINITY },
            ] {
                owned_and_packed_agree(&data, nbins, range, &q);
            }
            // An empty range selects nothing, on both paths.
            let empty = RangeQuery { v_par_min: mid, v_par_max: mid };
            assert!(chain_matches_oracle(&data, nbins, range, &empty).selected.is_empty());
        }
    }
}
