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
//!
//! And the application-facing half: `read(ProcessGroup)` returns the view
//! itself whenever its bytes can be read where they lie — always on the
//! shm pooled path, which leases the reader the pool buffer — so a steady
//! shm step touches no payload-sized allocation on the reader thread, and
//! a view the application keeps stays valid (and keeps its pool buffer out
//! of circulation) for as long as it is held.

mod common;

use adios::{ArrayData, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple};
use evpath::ffs::PackedArray;
use flexio::plugins::{InstalledPlugin, PluginBody};
use flexio::query::{AggFunc, Expr, Plan};
use flexio::{PluginPlacement, PluginSpec, StreamHints, Transport, WriteMode};
use flexio_query::{ChunkView, Executor};
use shm::BufferPool;
use test_support::{measure, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count this thread's allocations (and reallocations) of at least
/// `threshold` bytes made while `f` runs.
fn count_large_allocs<R>(threshold: usize, f: impl FnOnce() -> R) -> (usize, R) {
    let (counts, out) = measure(threshold, f);
    (counts.at_or_over(), out)
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
    // ...and of anything that scales with the chunk (the mask is one
    // bit per row, the survivors a fifth of the input), exactly one.
    let mask_bytes = ROWS.div_ceil(64) * 8;
    let (chunk_scaled, out) = count_large_allocs(mask_bytes, || plugin.apply(&chunk));
    assert_eq!(chunk_scaled, 1, "survivor vector only; mask and scratch are reused");
    let (VarValue::Block(b), _) = out.expect("apply") else { panic!("block expected") };
    assert_eq!(b.data.len() * 5, ROWS, "20% selective");
}

/// The transports a coupling of [`couple`]'s rosters can run over: the
/// pooled shm path, a real socket, and whatever placement picks for cores
/// on different nodes (a `Vec`-backed transport).
const TRANSPORTS: [Transport; 3] = [Transport::Shm, Transport::Tcp, Transport::Auto];

fn hints(transport: Transport, write_mode: WriteMode) -> StreamHints {
    StreamHints::builder().transport(transport).write_mode(write_mode).build()
}

/// The step-dependent payload of a variable: `salt` tells variables apart.
fn payload(elems: usize, step: u64, salt: u64) -> Vec<f64> {
    (0..elems).map(|i| (i as u64 * 3 + step * 1000 + salt) as f64 * 0.5).collect()
}

fn read_block(r: &mut flexio::StreamReader, var: &str) -> LocalBlock {
    match r.read(var, &Selection::ProcessGroup(0)) {
        Some(VarValue::Block(b)) => b,
        other => panic!("`{var}` should read as a block, got {other:?}"),
    }
}

/// Whatever `read` returns, `as_f64()` works on it. The variables' names
/// are eight consecutive lengths, so their payloads sit at all eight byte
/// offsets mod 8 inside their messages: a transport that receives each
/// message into an 8-aligned buffer serves exactly one of them in place
/// and materializes the other seven, while the shm pooled path pads every
/// message so that all eight are served in place.
#[test]
fn whatever_read_returns_can_be_borrowed_as_f64() {
    const VIEW_ELEMS: usize = 1024; // 8 KiB: above the zero-copy threshold
    let names: Vec<String> = (1..=8).map(|n| "f".repeat(n)).collect();
    for transport in TRANSPORTS {
        let (w_names, r_names) = (names.clone(), names.clone());
        let (_w, reads) = couple(
            1,
            1,
            hints(transport, WriteMode::Async),
            move |mut w, _rank| {
                w.begin_step(0);
                for (salt, name) in w_names.iter().enumerate() {
                    let data = payload(VIEW_ELEMS, 0, salt as u64);
                    w.write(name, block_1d(0, data, VIEW_ELEMS as u64));
                }
                w.end_step();
                w.close();
            },
            move |mut r, _rank| {
                for name in &r_names {
                    r.subscribe(name, Selection::ProcessGroup(0));
                }
                assert_eq!(r.try_begin_step().expect("begin_step"), StepStatus::Step(0));
                let mut in_place = 0;
                for (salt, name) in r_names.iter().enumerate() {
                    let b = read_block(&mut r, name);
                    assert_eq!(b.data.as_f64(), &payload(VIEW_ELEMS, 0, salt as u64)[..]);
                    in_place += usize::from(b.data.is_packed());
                }
                r.end_step();
                in_place
            },
        );
        let expect = match (transport, cfg!(target_endian = "little")) {
            (_, false) => 0,
            (Transport::Shm, true) => names.len(),
            // System allocations are at least 8-aligned.
            (_, true) => 1,
        };
        assert_eq!(reads[0], expect, "views served in place over {transport:?}");
    }
}

/// GTS-sized steps: two 5.6 MB variables read whole by `ProcessGroup`.
const GTS_ELEMS: usize = 700_000;
const GTS_VARS: [&str; 2] = ["zion", "electrons"];

fn write_gts_steps(mut w: flexio::StreamWriter, steps: u64, pool: &BufferPool) {
    shm::placement::install_thread_pool(pool.clone());
    for step in 0..steps {
        w.begin_step(step);
        for (salt, var) in GTS_VARS.iter().enumerate() {
            w.write(var, block_1d(0, payload(GTS_ELEMS, step, salt as u64), GTS_ELEMS as u64));
        }
        w.end_step();
    }
    w.close();
}

/// After warm-up, a step of two 5.6 MB `ProcessGroup` reads — begin, read
/// twice, end, drop the blocks — allocates nothing of 1 MiB or more on the
/// reader thread over shm, and the pool serves the writer from its free
/// list alone: the reader is leased the pool buffers and returns them by
/// dropping the blocks. Over a socket or a `Vec`-backed transport the
/// payload lies wherever the message layout put it, and each variable costs
/// at most the one materializing copy.
#[test]
fn a_steady_read_step_allocates_nothing_payload_sized_over_shm() {
    const WARM_UP: u64 = 3;
    const STEPS: u64 = 7;
    for transport in TRANSPORTS {
        let pool = BufferPool::new(1 << 30);
        let (w_pool, r_pool) = (pool.clone(), pool.clone());
        // Sync mode: the writer is one step ahead at most, so how many
        // buffers circulate does not depend on thread timing.
        let (_w, reads) = couple(
            1,
            1,
            hints(transport, WriteMode::Sync),
            move |w, _rank| write_gts_steps(w, STEPS, &w_pool),
            move |mut r, _rank| {
                shm::placement::install_thread_pool(r_pool.clone());
                for var in GTS_VARS {
                    r.subscribe(var, Selection::ProcessGroup(0));
                }
                let mut worst = 0;
                let mut warm = None;
                for step in 0..STEPS {
                    if step == WARM_UP {
                        warm = Some(r_pool.stats());
                    }
                    let (large, blocks) = count_large_allocs(1 << 20, || {
                        assert_eq!(r.try_begin_step().expect("begin"), StepStatus::Step(step));
                        let blocks = GTS_VARS.map(|var| read_block(&mut r, var));
                        r.end_step();
                        blocks
                    });
                    for (salt, b) in blocks.iter().enumerate() {
                        assert_eq!(b.data.as_f64(), &payload(GTS_ELEMS, step, salt as u64)[..]);
                    }
                    let (on_drop, ()) = count_large_allocs(1 << 20, || drop(blocks));
                    if step >= WARM_UP {
                        worst = worst.max(large + on_drop);
                    }
                }
                assert_eq!(r.try_begin_step().expect("eos"), StepStatus::EndOfStream);
                (worst, warm.expect("ran past warm-up"), r_pool.stats())
            },
        );
        let (worst, warm, end) = reads[0];
        if transport == Transport::Shm {
            assert_eq!(worst, 0, "a steady shm step allocated on the reader thread");
            assert_eq!(end.misses, warm.misses, "the pool missed after warm-up");
            assert_eq!(end.hits - warm.hits, (STEPS - WARM_UP) * GTS_VARS.len() as u64);
            assert_eq!(end.resident_bytes, warm.resident_bytes);
        } else {
            assert!(worst <= GTS_VARS.len(), "{worst} payload-sized allocations in a step");
        }
    }
}

/// A view the application keeps while the stream runs on for ten more
/// pipelined steps still holds what was written: the pool buffer under it
/// is not handed to another `acquire` while the view lives.
#[test]
fn a_held_view_survives_later_steps_of_a_pipelined_stream() {
    const STEPS: u64 = 11;
    let pool = BufferPool::new(1 << 30);
    let (w_pool, r_pool) = (pool.clone(), pool.clone());
    let (_w, reads) = couple(
        1,
        1,
        hints(Transport::Shm, WriteMode::Async),
        move |w, _rank| write_gts_steps(w, STEPS, &w_pool),
        move |mut r, _rank| {
            shm::placement::install_thread_pool(r_pool.clone());
            r.subscribe(GTS_VARS[0], Selection::ProcessGroup(0));
            let mut held = None;
            for step in 0..STEPS {
                assert_eq!(r.try_begin_step().expect("begin"), StepStatus::Step(step));
                let b = read_block(&mut r, GTS_VARS[0]);
                r.end_step();
                assert_eq!(b.data.as_f64(), &payload(GTS_ELEMS, step, 0)[..]);
                held.get_or_insert(b);
            }
            held.expect("step 0 was read")
        },
    );
    let held = &reads[0];
    assert_eq!(held.data.is_packed(), cfg!(target_endian = "little"), "shm serves the view");
    assert_eq!(held.data.as_f64(), &payload(GTS_ELEMS, 0, 0)[..], "step 0, ten steps later");
}

/// The reader, the writer and both halves of every channel are gone; the
/// application still holds a block. It stays readable, its pool buffer is
/// still accounted as resident and is not on the free list, and dropping
/// the block puts it there.
#[test]
fn a_view_outlives_the_stream_and_returns_its_buffer_on_drop() {
    let pool = BufferPool::new(1 << 30);
    let (w_pool, r_pool) = (pool.clone(), pool.clone());
    let (_w, mut reads) = couple(
        1,
        1,
        hints(Transport::Shm, WriteMode::Async),
        move |w, _rank| write_gts_steps(w, 2, &w_pool),
        move |mut r, _rank| {
            shm::placement::install_thread_pool(r_pool.clone());
            r.subscribe(GTS_VARS[1], Selection::ProcessGroup(0));
            assert_eq!(r.try_begin_step().expect("begin"), StepStatus::Step(0));
            let kept = read_block(&mut r, GTS_VARS[1]);
            r.end_step();
            while r.try_begin_step().expect("drain") != StepStatus::EndOfStream {
                r.end_step();
            }
            kept
        },
    );
    // `couple` has joined both programs: engines and channels are dropped.
    let kept = reads.pop().expect("one reader");
    assert_eq!(kept.data.as_f64(), &payload(GTS_ELEMS, 0, 1)[..]);
    let before = pool.stats();
    let size = GTS_ELEMS * 8;
    if kept.data.is_packed() {
        // Every other buffer is free; the kept one is not among them.
        let free = before.resident_bytes / (size.next_power_of_two() as u64) - 1;
        let taken: Vec<_> = (0..free).map(|_| pool.acquire(size)).collect();
        assert_eq!(pool.stats().misses, before.misses, "free buffers serve these");
        drop(pool.acquire(size));
        assert_eq!(pool.stats().misses, before.misses + 1, "the kept buffer is still out");
        drop(taken);
    }
    let before = pool.stats();
    drop(kept);
    drop(pool.acquire(size));
    let after = pool.stats();
    assert_eq!(after.misses, before.misses, "the dropped view's buffer was listed");
    assert_eq!(after.resident_bytes, before.resident_bytes, "nothing leaked, nothing wrapped");
}
