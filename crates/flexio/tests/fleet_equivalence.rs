//! Fleet equivalence: sharding couplings over a multi-core reactor fleet
//! must be protocol-invisible. The same coupled program, the same fault
//! seed, the same data — run as blocking calls on one thread per rank,
//! and as `*_rt` tasks sharded across a [`ReactorFleet`] of worker cores
//! — must land on byte-identical protocol counters, fault schedules and
//! application data. Parallelism may only change *when* engines get
//! polled, never *what* they say on the wire.
//!
//! The engine futures are the same on both sides. What differs is who
//! serves their waits: `block_inline` parking through `Backoff` on one
//! side, `run_shard` on a `fleet::Worker` with `Pacing`'s wheel branch on
//! the other.
//!
//! [`ReactorFleet`]: flexio_reactor::ReactorFleet

mod common;

use std::sync::Arc;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple, reader_core, reader_roster, writer_core, writer_roster};
use evpath::{FaultPlan, FaultSpec};
use flexio::{CachingLevel, FleetRuntime, FlexIo, StreamHints, WriteMode};
use machine::laptop;
use parking_lot::Mutex;

const WRITERS: usize = 3;
const READERS: usize = 2;
const STEPS: u64 = 3;

/// Everything about a run that must be backend-independent. `retries` is
/// timing dependent (how often a wait loop wakes before the message
/// lands differs between a parked thread and a fleet shard) and is
/// deliberately excluded; every protocol message, fault decision and
/// healing action is not.
#[derive(Debug, PartialEq)]
struct RunSignature {
    protocol: (u64, u64, u64, u64, u64, u64, u64),
    dup_msgs: u64,
    reorder_healed: u64,
    drops_observed: u64,
    eos_synthesized: u64,
    evictions: u64,
    faults: (u64, u64, u64, u64, u64, u64, u64),
    data: Vec<Vec<f64>>,
}

fn hints_for(write_mode: WriteMode, plan: &Arc<FaultPlan>) -> StreamHints {
    StreamHints {
        write_mode,
        caching: CachingLevel::CachingAll,
        faults: Some(Arc::clone(plan)),
        ..StreamHints::default()
    }
}

fn faulty_plan(seed: u64) -> Arc<FaultPlan> {
    let mut plan = FaultPlan::new(seed);
    plan.set(
        "data",
        FaultSpec { dup_per_mille: 500, reorder_per_mille: 500, ..Default::default() },
    );
    Arc::new(plan)
}

fn signature(
    link: &flexio::ProtocolCounters,
    plan: &FaultPlan,
    data: Vec<Vec<f64>>,
) -> RunSignature {
    let (_retries, dup_msgs, reorder_healed, drops_observed, eos_synthesized, evictions, _) =
        link.resilience_snapshot();
    RunSignature {
        protocol: link.snapshot(),
        dup_msgs,
        reorder_healed,
        drops_observed,
        eos_synthesized,
        evictions,
        faults: plan.counters().snapshot(),
        data,
    }
}

/// One run of blocking calls, one thread per rank, through the shared
/// `couple` harness.
fn run_threaded(plan: Arc<FaultPlan>, write_mode: WriteMode) -> RunSignature {
    let hints = hints_for(write_mode, &plan);
    let (links, reads) = couple(
        WRITERS,
        READERS,
        hints,
        |mut w, rank| {
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..4).map(|i| (step * 100 + rank as u64 * 4 + i) as f64).collect();
                w.write("field", block_1d(rank as u64 * 4, data, 12));
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        },
        move |mut r, rank| {
            let my_box = BoxSel::new(vec![rank as u64 * 6], vec![6]);
            r.subscribe("field", Selection::GlobalBox(my_box.clone()));
            let mut seen: Vec<f64> = Vec::new();
            loop {
                match r.begin_step() {
                    StepStatus::Step(_) => {
                        let v = r.read("field", &Selection::GlobalBox(my_box.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        seen.extend_from_slice(b.data.as_f64());
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            seen
        },
    );
    signature(&links[0].counters, &plan, reads)
}

/// The same coupled program sharded over a reactor fleet: every rank's
/// engine is a `Send` future spawned near its endpoint core, polled by
/// whichever worker thread owns its shard.
fn run_fleet(plan: Arc<FaultPlan>, threads: usize, write_mode: WriteMode) -> RunSignature {
    let hints = hints_for(write_mode, &plan);
    let io = FlexIo::new(laptop(), 4);
    let fleet = FleetRuntime::new(&laptop(), threads);

    let coordinator_link = Arc::new(Mutex::new(None));
    for rank in 0..WRITERS {
        let io = io.clone();
        let hints = hints.clone();
        let keep = Arc::clone(&coordinator_link);
        fleet.spawn_for(&[writer_core(rank)], async move {
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
                let data: Vec<f64> =
                    (0..4).map(|i| (step * 100 + rank as u64 * 4 + i) as f64).collect();
                w.write("field", block_1d(rank as u64 * 4, data, 12));
                w.end_step_rt().await.expect("end_step");
            }
            if rank == 0 {
                *keep.lock() = Some(w.link().clone());
            }
            w.close();
        });
    }

    let reads = Arc::new(Mutex::new(vec![Vec::new(); READERS]));
    for rank in 0..READERS {
        let io = io.clone();
        let hints = hints.clone();
        let reads = Arc::clone(&reads);
        fleet.spawn_for(&[reader_core(rank)], async move {
            let mut r = io
                .open_reader_rt(
                    "stream",
                    rank,
                    READERS,
                    reader_core(rank),
                    reader_roster(READERS),
                    hints,
                )
                .await
                .expect("open reader");
            let my_box = BoxSel::new(vec![rank as u64 * 6], vec![6]);
            r.subscribe("field", Selection::GlobalBox(my_box.clone()));
            let mut seen: Vec<f64> = Vec::new();
            loop {
                match r.begin_step_rt().await.expect("begin_step") {
                    StepStatus::Step(_) => {
                        let v = r.read("field", &Selection::GlobalBox(my_box.clone())).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        seen.extend_from_slice(b.data.as_f64());
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            reads.lock()[rank] = seen;
        });
    }

    fleet.join();
    let link = coordinator_link.lock().take().expect("writer 0 kept its link");
    let reads = Arc::try_unwrap(reads).expect("fleet joined").into_inner();
    signature(&link.counters, &plan, reads)
}

#[test]
fn fleet_matches_both_single_threaded_backends_byte_for_byte() {
    let seed =
        std::env::var("FLEXIO_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xBACCE4D);
    let blocking = run_threaded(faulty_plan(seed), WriteMode::default());
    let fleet = run_fleet(faulty_plan(seed), 4, WriteMode::default());
    assert_eq!(
        blocking, fleet,
        "seed {seed}: sharding over a fleet changed observable protocol behavior"
    );
    // Non-vacuous: the equivalence must hold *through* an active fault
    // schedule, not on a quiet channel.
    let (_, duplicated, reordered, ..) = fleet.faults;
    assert!(duplicated + reordered > 0, "seed {seed} injected nothing");
}

#[test]
fn fleet_equivalence_holds_across_the_mode_matrix() {
    // Both write modes at 1 and 4 worker threads: a 1-thread fleet is
    // one event loop over every rank, and a 4-thread fleet adds true
    // parallelism. Neither may leak into the protocol. (Fault replay
    // rides the other test; sync-mode acks and a 500‰ dup/reorder storm
    // time out on every backend alike, so the matrix runs on a quiet plan
    // to keep all cells completable.)
    let quiet = || Arc::new(FaultPlan::new(0));
    for write_mode in [WriteMode::Sync, WriteMode::Async] {
        let reference = run_threaded(quiet(), write_mode);
        for threads in [1, 4] {
            let fleet = run_fleet(quiet(), threads, write_mode);
            assert_eq!(
                reference, fleet,
                "mode {write_mode:?} × {threads} threads diverged from the blocking calls"
            );
        }
    }
}
