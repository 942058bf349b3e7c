//! Zero-copy read path through the stream reader.
//!
//! Regression fence for the eager-normalization bug: the reader used to
//! call `make_owned()` on every stored chunk before checking whether any
//! plug-in applied, which copied every payload out of the shared receive
//! buffer even for read-only consumers. After the fix, a chunk with no
//! applicable plug-in stays a packed view borrowing the receive buffer,
//! and the query executor consumes it without a payload-sized
//! allocation (same counting-allocator pattern as evpath's
//! `zero_copy.rs`).

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adios::{ArrayData, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use evpath::ffs::PackedArray;
use flexio::plugins::{InstalledPlugin, PluginBody};
use flexio::query::{AggFunc, Expr, Plan};
use flexio::{PluginPlacement, PluginSpec, StreamHints};
use flexio_query::{ChunkView, Executor};

struct CountingAlloc;

// Per-thread, so tests running side by side in this binary do not count
// each other's buffers: (armed threshold, allocations at or above it).
thread_local! {
    static THRESHOLD: Cell<usize> = const { Cell::new(usize::MAX) };
    static LARGE_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = THRESHOLD.try_with(|t| {
        if size >= t.get() {
            let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count this thread's allocations of at least `threshold` bytes made
/// while `f` runs.
fn count_large_allocs<R>(threshold: usize, f: impl FnOnce() -> R) -> (usize, R) {
    LARGE_ALLOCS.set(0);
    THRESHOLD.set(threshold);
    let out = f();
    THRESHOLD.set(usize::MAX);
    (LARGE_ALLOCS.get(), out)
}

/// 128 KiB payload: far above the wire format's zero-copy threshold, so
/// any hidden payload copy is a >= `PAYLOAD_BYTES` allocation.
const ELEMS: usize = 16 * 1024;
const PAYLOAD_BYTES: usize = ELEMS * 8;
const STEPS: u64 = 3;

#[test]
fn unconditioned_chunks_stay_packed_and_aggregate_without_payload_allocs() {
    let (_w, reads) = couple(
        1,
        1,
        StreamHints::default(),
        |mut w, _rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> = (0..ELEMS).map(|i| (i as f64) + step as f64).collect();
                w.write("field", block_1d(0, data, ELEMS as u64));
                w.end_step();
            }
            w.close();
        },
        |mut r, _rank| {
            r.subscribe("field", Selection::ProcessGroup(0));
            let plan = Plan::select(&["field"]).aggregate(AggFunc::Sum, "field");
            let mut exec = Executor::new(plan).expect("plan");
            let mut packed_steps = 0u64;
            let mut fed = 0u64;
            loop {
                match r.try_begin_step().expect("begin_step") {
                    StepStatus::Step(step) => {
                        {
                            let stored = r.stored(0, "field").expect("chunk stored");
                            let VarValue::Block(b) = &stored[0] else { panic!("block expected") };
                            if b.data.is_packed() {
                                packed_steps += 1;
                            }
                            let chunk = ChunkView::raw(vec![&b.data]);
                            if fed == 0 {
                                // First step warms the executor's reusable
                                // scratch; afterwards consumption must not
                                // touch a payload-sized buffer again.
                                exec.feed_step(step, &[chunk]);
                            } else {
                                let (large, _) = count_large_allocs(PAYLOAD_BYTES, || {
                                    exec.feed_step(step, &[chunk])
                                });
                                assert_eq!(
                                    large, 0,
                                    "aggregating a stored packed chunk allocated {large} \
                                     payload-sized buffer(s); expected a zero-copy read"
                                );
                            }
                            fed += 1;
                        }
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            let flexio_query::QueryOutput::Aggregates(rows) = exec.finish() else {
                panic!("aggregate plan yields aggregates")
            };
            assert_eq!(rows.len(), 1, "one growing window");
            (packed_steps, fed, rows[0].value)
        },
    );
    let (packed_steps, fed, total) = reads[0];
    assert_eq!(fed, STEPS);
    assert_eq!(
        packed_steps, STEPS,
        "large unconditioned chunks must stay packed views into the receive buffer \
         (eager make_owned() normalization crept back into the store path)"
    );
    // And the aggregate over the packed views is the right answer: per
    // step sum = sum(0..ELEMS) + ELEMS*step.
    let base: f64 = (0..ELEMS).map(|i| i as f64).sum();
    let expect: f64 = (0..STEPS).map(|s| base + ELEMS as f64 * s as f64).sum();
    assert_eq!(total, expect);
}

/// A pushed-down filter conditions the packed chunk where it lies: per
/// apply, the survivor vector is the only allocation that grows with the
/// chunk — the mask is reused, and the input is never materialized as
/// owned `f64`s (the codelet path's `to_f64_vec` is not on this path).
#[test]
fn filter_apply_on_a_packed_chunk_allocates_only_the_survivors() {
    const ROWS: usize = 131_000; // 1 MiB of f64, a whole number of 0.000..0.999 cycles
    let field: Vec<f64> = (0..ROWS).map(|i| (i % 1000) as f64 / 1000.0).collect();
    let chunk = VarValue::Block(
        LocalBlock {
            global_shape: vec![ROWS as u64],
            offset: vec![0],
            count: vec![ROWS as u64],
            data: ArrayData::Packed(PackedArray::from_f64s(&field)),
        }
        .validated(),
    );
    let plugin = InstalledPlugin::install(PluginSpec {
        var: "field".to_string(),
        source: PluginBody::Filter(Expr::col("field").lt(Expr::lit(0.2))),
        placement: PluginPlacement::WriterSide,
    })
    .expect("typed filter installs");
    // The first apply sizes the reusable mask.
    plugin.apply(&chunk).expect("warm-up apply");

    // Nothing input-sized...
    let (input_sized, _) = count_large_allocs(ROWS * 8, || plugin.apply(&chunk));
    assert_eq!(input_sized, 0, "the packed input was materialized");
    // ...and of anything that scales with the chunk (the mask is
    // ROWS bytes, the survivors a fifth of the input), exactly one.
    let (chunk_scaled, out) = count_large_allocs(ROWS / 2, || plugin.apply(&chunk));
    assert_eq!(chunk_scaled, 1, "survivor vector only; mask and scratch are reused");
    let (VarValue::Block(b), _) = out.expect("apply") else { panic!("block expected") };
    assert_eq!(b.data.len() * 5, ROWS, "20% selective");
}

#[test]
fn materializing_read_still_returns_owned_values() {
    // The zero-copy store must not change what the application-facing
    // `read()` API returns.
    let (_w, reads) = couple(
        1,
        1,
        StreamHints::default(),
        |mut w, _rank| {
            w.begin_step(0);
            let data: Vec<f64> = (0..ELEMS).map(|i| i as f64 * 0.5).collect();
            w.write("field", block_1d(0, data, ELEMS as u64));
            w.end_step();
            w.close();
        },
        |mut r, _rank| {
            r.subscribe("field", Selection::ProcessGroup(0));
            let mut got = Vec::new();
            loop {
                match r.try_begin_step().expect("begin_step") {
                    StepStatus::Step(_) => {
                        let v = r.read("field", &Selection::ProcessGroup(0)).expect("read");
                        let VarValue::Block(b) = v else { panic!("block expected") };
                        assert!(!b.data.is_packed(), "read() materializes for the application");
                        got = b.data.as_f64().to_vec();
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            got
        },
    );
    assert_eq!(reads[0].len(), ELEMS);
    assert_eq!(reads[0][2], 1.0);
}
