//! What the filter kernel allocates, counted per thread by the
//! workspace's counting allocator (`test_support::CountingAlloc`): once
//! its survivor mask and scratch are sized by a first chunk, a filter
//! allocates its survivors once, at their exact size, and nothing else
//! that grows with the chunk.

use adios::ArrayData;
use evpath::ffs::PackedArray;
use flexio_query::{AggFunc, ChunkView, Executor, Expr, FilterKernel, Plan};
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The benchmark's 1 MiB chunk: 131 000 packed `f64` rows in runs, a
/// fifth of which pass `v < 0.2`.
const ROWS: usize = 131_000;

fn chunk() -> ArrayData {
    let v: Vec<f64> = (0..ROWS).map(|i| (i % 1000) as f64 / 1000.0).collect();
    ArrayData::Packed(PackedArray::from_f64s(&v))
}

/// The mask's size: every buffer at least this large is one that grows
/// with the chunk.
const MASK_BYTES: usize = ROWS.div_ceil(64) * 8;

#[test]
fn a_warm_filter_allocates_its_survivors_once() {
    let data = chunk();
    let mut kernel = FilterKernel::new(&Expr::col("v").lt(Expr::lit(0.2)), &["v".into()]).unwrap();
    kernel.filter_column(&data);
    let (counts, kept) = measure(0, || kernel.filter_column(&data));
    let ArrayData::F64(kept) = kept else { panic!("f64 survivors") };
    assert_eq!(kept.len() * 5, ROWS);
    assert_eq!((counts.allocs, counts.reallocs), (1, 0), "{counts:?}");
    assert_eq!(kept.capacity(), kept.len(), "sized to the survivor count");
}

#[test]
fn a_second_chunk_grows_no_mask_or_scratch() {
    let data = chunk();
    let fast = Expr::col("v").lt(Expr::lit(0.2));
    // Not `col <op> lit`: the general path, with its widened scratch.
    let general = fast.clone().and(Expr::col("v").ge(Expr::lit(0.0)));
    for filter in [fast, general] {
        for agg in [false, true] {
            let mut plan = Plan::select(&["v"]).filter(filter.clone());
            if agg {
                plan = plan.aggregate(AggFunc::Sum, "v");
            }
            let mut exec = Executor::new(plan).unwrap();
            exec.feed_step(0, &[ChunkView::raw(vec![&data])]);
            let (counts, stats) =
                measure(MASK_BYTES, || exec.feed_step(1, &[ChunkView::raw(vec![&data])]));
            assert_eq!(stats.rows_out * 5, ROWS as u64);
            // Row mode allocates the step's survivor column; nothing else
            // of this size is new.
            let survivors = usize::from(!agg);
            assert_eq!((counts.allocs, counts.reallocs), (survivors, 0), "{filter:?} {counts:?}");
        }
    }
}
