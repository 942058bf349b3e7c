//! End-to-end query battery: the pushdown planner must be
//! result-invisible. The same plan over the same stream — filter lowered
//! to a writer-side plug-in vs. everything evaluated reader-side — must
//! produce byte-identical [`QueryOutput`] digests, as blocking calls,
//! sharded over a fleet, and under a seeded dup/reorder fault storm. The
//! only observable difference pushdown is allowed to make is fewer bytes
//! on the wire — which the counters must actually show.

mod common;

use std::sync::{Arc, Barrier};
use std::time::Duration;

use adios::{ArrayData, LocalBlock, VarValue, WriteEngine};
use common::{block_1d, couple, reader_core, writer_core, writer_roster};
use evpath::{FaultPlan, FaultSpec};
use flexio::query::{AggFunc, Expr, Plan};
use flexio::{CachingLevel, FlexIo, QueryConfig, QuerySession, StreamHints};
use flexio_reactor::ReactorFleet;
use machine::laptop;

const WRITERS: usize = 2;
const STEPS: u64 = 4;
const ROWS_PER_CHUNK: u64 = 8;

/// Deterministic per-writer chunk: values `step*100 + rank*8 + i`, so the
/// stream holds 0..=315 and a `< 80` filter keeps a known subset.
fn chunk(step: u64, rank: usize) -> Vec<f64> {
    (0..ROWS_PER_CHUNK).map(|i| (step * 100 + rank as u64 * ROWS_PER_CHUNK + i) as f64).collect()
}

fn test_plan(agg: bool) -> Plan {
    let p = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(80.0)));
    if agg {
        p.aggregate(AggFunc::Sum, "field").window(2)
    } else {
        p
    }
}

fn hints_for(plan: &Arc<FaultPlan>) -> StreamHints {
    StreamHints {
        caching: CachingLevel::CachingAll,
        faults: Some(Arc::clone(plan)),
        ..StreamHints::default()
    }
}

fn storm(seed: u64) -> Arc<FaultPlan> {
    let mut plan = FaultPlan::new(seed);
    plan.set(
        "data",
        FaultSpec { dup_per_mille: 400, reorder_per_mille: 400, ..Default::default() },
    );
    Arc::new(plan)
}

/// One coupled run of the standard `field < 80` plan over the `f64`
/// stream; see [`run_plan`] for what comes back.
fn run_query(
    faults: Arc<FaultPlan>,
    pushdown: bool,
    oracle: bool,
    agg: bool,
) -> (u64, (u64, u64, u64, u64)) {
    let block = |step, rank: usize| {
        block_1d(rank as u64 * ROWS_PER_CHUNK, chunk(step, rank), WRITERS as u64 * ROWS_PER_CHUNK)
    };
    run_plan(faults, pushdown, oracle, test_plan(agg), block)
}

/// One coupled run of `plan` (a single-variable filter over `field`)
/// with every writer rank writing `block(step, rank)`; returns the output
/// digest plus the counter snapshot `(rows_in, rows_out,
/// bytes_pushed_down, bytes_saved)`.
fn run_plan(
    faults: Arc<FaultPlan>,
    pushdown: bool,
    oracle: bool,
    plan: Plan,
    block: fn(u64, usize) -> VarValue,
) -> (u64, (u64, u64, u64, u64)) {
    let hints = hints_for(&faults);
    let (_w, mut reads) = couple(
        WRITERS,
        1,
        hints,
        move |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                w.write("field", block(step, rank));
                w.end_step();
            }
            w.close();
        },
        move |r, _rank| {
            let cfg = QueryConfig { pushdown, oracle };
            let session = QuerySession::attach(r, WRITERS, plan.clone(), cfg).expect("attach");
            assert_eq!(
                session.pushdown_active(),
                pushdown,
                "a filter over one var must lower exactly when pushdown is on"
            );
            let counters = session.counters();
            let out = session.run_to_end().expect("query run");
            (out.digest(), counters.snapshot())
        },
    );
    reads.pop().expect("one reader")
}

#[test]
fn pushdown_is_result_invisible_on_both_backends() {
    for agg in [false, true] {
        let quiet = || Arc::new(FaultPlan::new(0));
        let base = run_query(quiet(), false, false, agg);
        let run = run_query(quiet(), true, false, agg);
        assert_eq!(run.0, base.0, "agg={agg}: pushdown changed the output digest");
        // Same rows enter and leave the filter no matter where it ran.
        assert_eq!((run.1 .0, run.1 .1), (base.1 .0, base.1 .1));
    }
}

#[test]
fn pushdown_counters_show_the_bytes_that_stayed_home() {
    let quiet = || Arc::new(FaultPlan::new(0));
    let with = run_query(quiet(), true, false, false);
    let without = run_query(quiet(), false, false, false);

    let total_rows = WRITERS as u64 * STEPS * ROWS_PER_CHUNK;
    let (rows_in, rows_out, pushed, saved) = with.1;
    assert_eq!(rows_in, total_rows, "conditioned chunks must report original row counts");
    assert!(rows_out < rows_in, "the filter must actually drop rows");
    assert_eq!(pushed, total_rows * 8, "every chunk should be conditioned writer-side");
    assert_eq!(saved, (rows_in - rows_out) * 8, "saved = dropped rows x element width");

    let (rows_in2, rows_out2, pushed2, saved2) = without.1;
    assert_eq!((rows_in2, rows_out2), (rows_in, rows_out));
    assert_eq!((pushed2, saved2), (0, 0), "no pushdown, nothing crosses pre-filtered");
}

#[test]
fn pushdown_equivalence_survives_a_fault_storm() {
    let seed =
        std::env::var("FLEXIO_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF1E510);
    let probe = storm(seed);
    let with = run_query(Arc::clone(&probe), true, false, false);
    let without = run_query(storm(seed), false, false, false);
    assert_eq!(with.0, without.0, "seed {seed}: faults made pushdown observable in the results");
    assert!(with.1 .2 > 0, "seed {seed}: pushdown must still condition chunks under faults");
    // Non-vacuous: the schedule must have injected something.
    let faults = probe.counters().snapshot();
    assert!(faults.duplicated + faults.reordered > 0, "seed {seed} injected nothing");
}

/// The typed filter keeps the column's dtype, so a byte column pushes
/// down like any other — and the bytes that stayed home are counted at
/// one byte a row, not eight.
#[test]
fn a_byte_column_pushes_down_and_saves_one_byte_per_dropped_row() {
    let block = |step: u64, rank: usize| {
        let data: Vec<u8> =
            (0..ROWS_PER_CHUNK).map(|i| (step * 40 + rank as u64 * 8 + i) as u8).collect();
        VarValue::Block(
            LocalBlock {
                global_shape: vec![WRITERS as u64 * ROWS_PER_CHUNK],
                offset: vec![rank as u64 * ROWS_PER_CHUNK],
                count: vec![ROWS_PER_CHUNK],
                data: ArrayData::U8(data),
            }
            .validated(),
        )
    };
    // Values 0..=135; `< 80` keeps the first two steps' rows.
    let plan = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(80.0)));
    let quiet = || Arc::new(FaultPlan::new(0));
    let with = run_plan(quiet(), true, true, plan.clone(), block);
    let without = run_plan(quiet(), false, true, plan, block);
    assert_eq!(with.0, without.0, "pushdown changed a byte column's result");

    let total_rows = WRITERS as u64 * STEPS * ROWS_PER_CHUNK;
    let (rows_in, rows_out, pushed, saved) = with.1;
    assert_eq!((rows_in, rows_out), (total_rows, total_rows / 2));
    assert_eq!(pushed, total_rows, "one byte per conditioned row");
    assert_eq!(saved, rows_in - rows_out, "saved = dropped rows x 1 byte");
    assert_eq!((without.1 .2, without.1 .3), (0, 0));
}

/// Literal bits travel exactly, so predicates against NaN and the
/// infinities push down (codelet source had no spelling for them) and
/// stay result-invisible: `x < NaN` keeps nothing, `x < inf` everything.
#[test]
fn non_finite_literals_push_down_and_digest_match() {
    let block = |step, rank: usize| {
        block_1d(rank as u64 * ROWS_PER_CHUNK, chunk(step, rank), WRITERS as u64 * ROWS_PER_CHUNK)
    };
    let total_rows = WRITERS as u64 * STEPS * ROWS_PER_CHUNK;
    for (lit, kept) in [(f64::NAN, 0), (f64::INFINITY, total_rows)] {
        let plan = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(lit)));
        let quiet = || Arc::new(FaultPlan::new(0));
        let with = run_plan(quiet(), true, true, plan.clone(), block);
        let without = run_plan(quiet(), false, true, plan, block);
        assert_eq!(with.0, without.0, "field < {lit}: pushdown changed the result");
        assert_eq!((with.1 .0, with.1 .1), (total_rows, kept), "field < {lit}");
        assert_eq!(with.1 .2, total_rows * 8, "field < {lit}: conditioned writer-side");
        assert_eq!(with.1 .3, (total_rows - kept) * 8, "field < {lit}");
    }
}

#[test]
fn oracle_mode_validates_the_vectorized_executor_in_vivo() {
    for (pushdown, agg) in [(true, false), (false, false), (true, true)] {
        let quiet = Arc::new(FaultPlan::new(0));
        // `run_to_end` fails loudly on any vectorized/naive divergence.
        let _ = run_query(quiet, pushdown, true, agg);
    }
}

/// The fleet backend: writers are reactor tasks sharded over worker
/// threads, the query runs as one more fleet task;
/// results must match the blocking backend bit for bit.
#[test]
fn fleet_query_task_matches_the_blocking_backend() {
    let reference = run_query(Arc::new(FaultPlan::new(0)), true, false, false);

    let hints = hints_for(&Arc::new(FaultPlan::new(0)));
    let io = FlexIo::new(laptop(), 4);
    let fleet = ReactorFleet::new(4);
    for rank in 0..WRITERS {
        let io = io.clone();
        let hints = hints.clone();
        fleet.spawn(async move {
            let mut w = io
                .open_writer_rt(
                    "stream",
                    rank,
                    WRITERS,
                    writer_core(rank),
                    writer_roster(WRITERS),
                    hints,
                )
                .await
                .expect("open writer");
            for step in 0..STEPS {
                w.begin_step(step);
                let data = chunk(step, rank);
                w.write(
                    "field",
                    block_1d(rank as u64 * ROWS_PER_CHUNK, data, WRITERS as u64 * ROWS_PER_CHUNK),
                );
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
        });
    }

    let reader = io
        .open_reader("stream", 0, 1, reader_core(0), vec![reader_core(0)], hints)
        .expect("open reader");
    let session = QuerySession::attach(reader, WRITERS, test_plan(false), QueryConfig::default())
        .expect("attach query");
    let c = session.counters();
    let (handle, task) = session.into_task();
    fleet.spawn(task);
    fleet.join();

    assert!(handle.is_done());
    let out = handle.take_output().expect("task finished").expect("query ok");
    assert_eq!(out.digest(), reference.0, "fleet query diverged from the blocking backend");
    assert_eq!(c.snapshot().0, reference.1 .0, "fleet query saw a different number of input rows");
    assert_eq!(handle.rounds(), STEPS);
}

/// The first `k` steps of the standard query: `(steps fed, digest)`. The
/// writers write `k` steps; with `stop` the query runs as a task whose
/// handle stops it after `k` rounds while the stream is still open, and
/// without it as a blocking `run_to_end` over a `k`-step stream.
fn first_steps(k: u64, stop: bool) -> (u64, u64) {
    let quiet = Arc::new(FaultPlan::new(0));
    // A loop that missed its stop would time out here instead of hanging.
    let hints =
        StreamHints { recv_timeout: Duration::from_secs(2), retries: 0, ..hints_for(&quiet) };
    // With `stop` the writers close only after the loop has ended, so
    // nothing but the stop can end it.
    let loop_ended = Arc::new(Barrier::new(WRITERS + 1));
    let (held, release) = (Arc::clone(&loop_ended), loop_ended);
    let (_w, mut reads) = couple(
        WRITERS,
        1,
        hints,
        move |mut w, rank| {
            for step in 0..k {
                w.begin_step(step);
                let data = chunk(step, rank);
                w.write(
                    "field",
                    block_1d(rank as u64 * ROWS_PER_CHUNK, data, WRITERS as u64 * ROWS_PER_CHUNK),
                );
                w.end_step();
            }
            if stop {
                held.wait();
            }
            w.close();
        },
        move |r, _rank| {
            let session =
                QuerySession::attach(r, WRITERS, test_plan(false), QueryConfig::default())
                    .expect("attach");
            if !stop {
                return (k, session.run_to_end().expect("query run").digest());
            }
            let (handle, task) = session.into_task();
            let watch = handle.clone();
            let mut reactor = flexio_reactor::Reactor::new();
            reactor.spawn(task);
            // The loop yields between rounds, so the watcher behind it
            // sees every count and the stop lands after exactly `k`.
            reactor.spawn(async move {
                while watch.rounds() < k {
                    flexio_reactor::yield_now().await;
                }
                watch.stop();
            });
            reactor.run();
            release.wait();
            let out = handle.take_output().expect("the loop ended").expect("query ok");
            (handle.rounds(), out.digest())
        },
    );
    reads.pop().expect("one reader")
}

#[test]
fn a_stopped_query_task_finishes_over_the_steps_it_ran() {
    let stopped = first_steps(2, true);
    assert_eq!(
        stopped,
        first_steps(2, false),
        "stop after 2 steps = a 2-step stream run to its end"
    );
    assert_ne!(stopped.1, first_steps(STEPS, false).1, "and not the whole stream's output");
}
