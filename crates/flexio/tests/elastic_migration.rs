//! Elastic-placement integration (paper §II.F + §III.B.2): mid-run
//! plug-in migration must be byte-invisible, and roster-driven
//! membership must commit exactly at step boundaries.
//!
//! * **Migration equivalence** — the same coupled program run with a
//!   static reader-side plug-in and run with two mid-run migrations
//!   (staging → inline → staging, i.e. reader-side → writer-side →
//!   reader-side) must deliver byte-identical conditioned data, under
//!   an active 400‰ dup/reorder fault schedule, as blocking calls and as
//!   fleet tasks alike — for a codelet-bodied plug-in
//!   and for a typed-filter one. The `dc_applied` marker makes each
//!   handover step exactly-once no matter which side conditions first;
//!   only the *wire volume* may differ.
//! * **Elastic membership** — a roster resize is announced in the next
//!   `go` broadcast and takes effect one step later; member ranks park
//!   while inactive, re-slice their share of the global array with
//!   [`flexio::redistribute::split_box`] when they join, and exit on
//!   roster close without ever seeing a protocol error.

mod common;

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::{block_1d, couple, reader_core, reader_roster, writer_core, writer_roster};
use evpath::{FaultPlan, FaultSpec};
use flexio::elastic::ElasticRoster;
use flexio::plugins::PluginBody;
use flexio::query::Expr;
use flexio::redistribute::split_box;
use flexio::{
    CachingLevel, FlexIo, MonitorEvent, PluginPlacement, PluginSpec, StreamHints, Transport,
    WriteMode,
};
use flexio_reactor::ReactorFleet;
use machine::laptop;

const STEPS: u64 = 10;
/// Elements per writer chunk; divisible by the sampling stride so the
/// conditioned length is exact.
const N: u64 = 900;
const STRIDE: usize = 3;

/// Placement changes applied *after* the named step completes — the
/// step-boundary migration schedule. Two migrations: staging → inline
/// after step 1, back after step 7. (The async writer may run a few
/// steps ahead of the reader — `queue_entries` bounds the skew — so the
/// exact handover step varies, which is precisely what the byte-identity
/// assertion must be robust to.)
const MIGRATIONS: &[(u64, PluginPlacement)] =
    &[(1, PluginPlacement::WriterSide), (7, PluginPlacement::ReaderSide)];
const STATIC: &[(u64, PluginPlacement)] = &[];

/// A plug-in under test: its spec at a placement, and what the reader
/// must see of writer 0's chunk at a step once it has run.
#[derive(Clone, Copy)]
struct Conditioner {
    spec: fn(PluginPlacement) -> PluginSpec,
    expected: fn(u64) -> Vec<f64>,
}

/// Codelet body: keep every `STRIDE`-th element.
const SAMPLING: Conditioner = Conditioner {
    spec: |placement| PluginSpec {
        var: "signal".to_string(),
        source: codelet::plugins::sampling("signal", STRIDE).into(),
        placement,
    },
    expected: |step| (0..N).step_by(STRIDE).map(|i| signal_value(step, i)).collect(),
};

/// Elements of each step's chunk the filter body keeps.
const FILTER_KEEP: u64 = N / 3;

/// Typed-filter body: keep the first `FILTER_KEEP` elements of every
/// step — one range per step OR-ed together (the expression language has
/// no modulus), which also makes it a general-path program, not the
/// `col < lit` fast path.
const RANGE_FILTER: Conditioner = Conditioner {
    spec: |placement| {
        let in_step = |step: u64| {
            Expr::col("signal")
                .ge(Expr::lit(signal_value(step, 0)))
                .and(Expr::col("signal").lt(Expr::lit(signal_value(step, FILTER_KEEP))))
        };
        let filter = (1..STEPS).fold(in_step(0), |any, step| any.or(in_step(step)));
        PluginSpec { var: "signal".to_string(), source: PluginBody::Filter(filter), placement }
    },
    expected: |step| (0..FILTER_KEEP).map(|i| signal_value(step, i)).collect(),
};

fn faulty_plan(seed: u64) -> Arc<FaultPlan> {
    let mut plan = FaultPlan::new(seed);
    plan.set(
        "data",
        FaultSpec { dup_per_mille: 400, reorder_per_mille: 400, ..Default::default() },
    );
    Arc::new(plan)
}

/// Bounded shm queues on every channel: `queue_entries` is what keeps
/// the async writer within a few steps of the reader, so a migration the
/// reader asks for after step 1 still finds steps left to condition.
/// (Placement alone would pick the unbounded cross-node transport.)
fn migration_hints(plan: &Arc<FaultPlan>) -> StreamHints {
    StreamHints {
        caching: CachingLevel::CachingAll,
        queue_entries: 4,
        transport: Transport::Shm,
        faults: Some(Arc::clone(plan)),
        ..StreamHints::default()
    }
}

fn signal_value(step: u64, i: u64) -> f64 {
    (step * 10_000 + i) as f64
}

/// Per-backend run result: conditioned data per step, plus the total
/// wire volume (migration must shrink it; it must not change the data).
struct RunOutput {
    data: Vec<Vec<f64>>,
    wire_bytes: u64,
}

fn writer_steps(w: &mut flexio::StreamWriter, rank: usize) {
    for step in 0..STEPS {
        w.begin_step(step);
        let data: Vec<f64> = (0..N).map(|i| signal_value(step, rank as u64 * N + i)).collect();
        w.write("signal", block_1d(rank as u64 * N, data, 2 * N));
        w.end_step();
    }
}

fn reader_step(
    r: &mut flexio::StreamReader,
    step: u64,
    seen: &mut Vec<Vec<f64>>,
    plugin: Conditioner,
    migrations: &[(u64, PluginPlacement)],
) {
    let v = r.read("signal", &Selection::ProcessGroup(0)).expect("read conditioned chunk");
    let VarValue::Block(b) = v else { panic!("signal is an array") };
    seen.push(b.data.as_f64().to_vec());
    r.end_step();
    for &(after, placement) in migrations {
        if step == after {
            r.install_plugin((plugin.spec)(placement));
        }
    }
}

/// One run of blocking calls, one thread per rank: 2 writers, 1 reader
/// conditioning writer 0's process group through the plug-in.
fn run_threaded(
    plan: Arc<FaultPlan>,
    plugin: Conditioner,
    migrations: &'static [(u64, PluginPlacement)],
) -> RunOutput {
    let hints = migration_hints(&plan);
    let (_links, mut reads) = couple(
        2,
        1,
        hints,
        |mut w, rank| {
            writer_steps(&mut w, rank);
            w.close();
        },
        move |mut r, _rank| {
            r.subscribe("signal", Selection::ProcessGroup(0));
            r.install_plugin((plugin.spec)(PluginPlacement::ReaderSide));
            let mut seen = Vec::new();
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        reader_step(&mut r, step, &mut seen, plugin, migrations)
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            let wire = r.link().monitor.total_bytes(MonitorEvent::DataSend);
            RunOutput { data: seen, wire_bytes: wire }
        },
    );
    reads.pop().expect("one reader")
}

/// The same program sharded over a reactor fleet: each rank is a `Send`
/// future polled by whichever worker owns its shard.
fn run_fleet(
    plan: Arc<FaultPlan>,
    plugin: Conditioner,
    migrations: &'static [(u64, PluginPlacement)],
) -> RunOutput {
    let hints = migration_hints(&plan);
    let io = FlexIo::new(laptop(), 4);
    let fleet = ReactorFleet::new(4);

    for rank in 0..2usize {
        let io = io.clone();
        let hints = hints.clone();
        fleet.spawn(async move {
            let mut w = io
                .open_writer_rt("stream", rank, 2, writer_core(rank), writer_roster(2), hints)
                .await
                .expect("open writer");
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..N).map(|i| signal_value(step, rank as u64 * N + i)).collect();
                w.write("signal", block_1d(rank as u64 * N, data, 2 * N));
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
        });
    }

    let out = Arc::new(Mutex::new(None));
    let keep = Arc::clone(&out);
    fleet.spawn(async move {
        let mut r = io
            .open_reader_rt("stream", 0, 1, reader_core(0), reader_roster(1), hints)
            .await
            .expect("open reader");
        r.subscribe("signal", Selection::ProcessGroup(0));
        r.install_plugin((plugin.spec)(PluginPlacement::ReaderSide));
        let mut seen = Vec::new();
        loop {
            match r.begin_step_rt().await.expect("begin_step") {
                StepStatus::Step(step) => reader_step(&mut r, step, &mut seen, plugin, migrations),
                StepStatus::EndOfStream => break,
            }
        }
        let wire = r.link().monitor.total_bytes(MonitorEvent::DataSend);
        *keep.lock().unwrap() = Some(RunOutput { data: seen, wire_bytes: wire });
        r.close();
    });
    fleet.join();
    let output = out.lock().unwrap().take().expect("fleet reader finished");
    output
}

#[test]
fn migration_is_byte_invisible_on_every_backend() {
    check_migration(SAMPLING);
}

/// The same schedule with a typed-filter body — what a pushed-down query
/// filter is — moving staging → inline → staging.
#[test]
fn filter_body_migration_is_byte_invisible_on_every_backend() {
    check_migration(RANGE_FILTER);
}

fn check_migration(plugin: Conditioner) {
    let seed =
        std::env::var("FLEXIO_FAULT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xE1A57EC);

    let baseline = run_threaded(faulty_plan(seed), plugin, STATIC);
    let storm = faulty_plan(seed);
    let migrated = run_threaded(Arc::clone(&storm), plugin, MIGRATIONS);
    let migrated_fleet = run_fleet(faulty_plan(seed), plugin, MIGRATIONS);

    // Ground truth first: the conditioned stream is exactly writer 0's
    // chunk as the plug-in leaves it — identical whether it ran inline
    // (in the writer) or in staging (the reader), because a
    // `ProcessGroup` selection delivers the producer's chunk unsplit —
    // every step, so the comparisons below can't be vacuous.
    let expected: Vec<Vec<f64>> = (0..STEPS).map(plugin.expected).collect();
    assert_eq!(baseline.data, expected, "static placement produced wrong conditioned data");

    assert_eq!(migrated.data, baseline.data, "seed {seed}: migration changed delivered bytes");
    assert_eq!(migrated_fleet.data, baseline.data, "seed {seed}: fleet migration diverged");

    // The migrations must have actually happened: the two writer-side
    // steps condition *before* the wire, shrinking DataSend volume.
    assert!(
        migrated.wire_bytes < baseline.wire_bytes,
        "writer-side steps must shrink the wire: migrated {} vs static {}",
        migrated.wire_bytes,
        baseline.wire_bytes
    );

    // Non-vacuous: equivalence must hold *through* an active fault
    // schedule, not on a quiet channel.
    let faults = storm.counters().snapshot();
    assert!(faults.duplicated + faults.reordered > 0, "seed {seed} injected nothing");
}

/// Global array sliced across whatever the roster says is active.
const ELASTIC_GLOBAL: u64 = 12;
const ELASTIC_STEPS: u64 = 8;
const ELASTIC_MAX: usize = 3;

fn elastic_value(step: u64, i: u64) -> f64 {
    (step * 100 + i) as f64
}

fn elastic_slab(active: usize, rank: usize) -> Option<BoxSel> {
    let global = BoxSel::new(vec![0], vec![ELASTIC_GLOBAL]);
    split_box(&global, active).into_iter().nth(rank).flatten()
}

fn validate_slab(step: u64, sel: &BoxSel, b: &adios::LocalBlock) {
    let expect: Vec<f64> =
        (sel.offset[0]..sel.offset[0] + sel.count[0]).map(|i| elastic_value(step, i)).collect();
    assert_eq!(b.data.as_f64(), expect.as_slice(), "step {step} slab {sel:?}");
}

#[test]
fn roster_resize_commits_membership_at_step_boundaries() {
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints {
        write_mode: WriteMode::Sync,
        caching: CachingLevel::NoCaching,
        ..StreamHints::default()
    };
    let roster = Arc::new(ElasticRoster::new(1));

    let io_w = io.clone();
    let hints_w = hints.clone();
    let writer = thread::spawn(move || {
        rankrt::launch_named(1, "sim", move |_| {
            let mut w = io_w
                .open_writer("elastic", 0, 1, writer_core(0), writer_roster(1), hints_w.clone())
                .expect("open writer");
            for step in 0..ELASTIC_STEPS {
                w.begin_step(step);
                let data: Vec<f64> = (0..ELASTIC_GLOBAL).map(|i| elastic_value(step, i)).collect();
                w.write("field", block_1d(0, data, ELASTIC_GLOBAL));
                w.end_step();
            }
            w.close();
        })
    });

    let io_r = io.clone();
    let roster_r = Arc::clone(&roster);
    let reader = thread::spawn(move || {
        rankrt::launch_named(ELASTIC_MAX, "ana", move |comm| {
            let rank = comm.rank();
            let mut r = io_r
                .open_reader(
                    "elastic",
                    rank,
                    ELASTIC_MAX,
                    reader_core(rank),
                    reader_roster(ELASTIC_MAX),
                    hints.clone(),
                )
                .expect("open reader");
            let roster = Arc::clone(&roster_r);
            if rank == 0 {
                // Coordinator: drives the roster from its own step loop —
                // scale out to the full provisioned pool after step 1,
                // scale back to a lone rank after step 4.
                r.enable_elastic(Arc::clone(&roster));
                let mut active = 1usize;
                let mut sel = elastic_slab(active, 0).expect("rank 0 always holds a slab");
                r.subscribe("field", Selection::GlobalBox(sel.clone()));
                let mut seen = Vec::new();
                loop {
                    match r.begin_step() {
                        StepStatus::Step(step) => {
                            let v = r.read("field", &Selection::GlobalBox(sel.clone())).unwrap();
                            let VarValue::Block(b) = v else { panic!() };
                            validate_slab(step, &sel, &b);
                            seen.push(step);
                            r.end_step();
                            if step == 1 {
                                assert!(roster.resize(ELASTIC_MAX), "scale-out is a change");
                            }
                            if step == 4 {
                                assert!(roster.resize(1), "scale-in is a change");
                            }
                            // The go we just processed announced the
                            // membership for the *next* step; re-slice to
                            // match before subscribing again.
                            let (_, next) = r.elastic_announcement().expect("elastic announces");
                            if next != active {
                                active = next;
                                sel = elastic_slab(active, 0).expect("rank 0 slab");
                                r.clear_subscriptions();
                                r.subscribe("field", Selection::GlobalBox(sel.clone()));
                            }
                        }
                        StepStatus::EndOfStream => break,
                    }
                }
                roster.close();
                seen
            } else {
                // Member rank: parked until the roster activates it,
                // participates until the announcement retires it, exits
                // when the coordinator closes the roster at EOS.
                let mut seen = Vec::new();
                'outer: loop {
                    while roster.active() <= rank {
                        if roster.is_closed() {
                            break 'outer;
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    let active = roster.active();
                    let Some(sel) = elastic_slab(active, rank) else {
                        thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    r.clear_subscriptions();
                    r.subscribe("field", Selection::GlobalBox(sel.clone()));
                    loop {
                        match r.begin_step() {
                            StepStatus::Step(step) => {
                                let v =
                                    r.read("field", &Selection::GlobalBox(sel.clone())).unwrap();
                                let VarValue::Block(b) = v else { panic!() };
                                validate_slab(step, &sel, &b);
                                seen.push(step);
                                r.end_step();
                                if let Some((_, next)) = r.elastic_announcement() {
                                    if next <= rank {
                                        break; // retired as of the next step
                                    }
                                }
                            }
                            StepStatus::EndOfStream => break 'outer,
                        }
                    }
                }
                seen
            }
        })
    });

    writer.join().expect("writer group");
    let mut steps_by_rank = reader.join().expect("reader group");

    // Coordinator saw every step; members saw exactly the window between
    // the scale-out commit (announced in step 2's go, effective step 3)
    // and the scale-in commit (announced in step 5's go, effective step
    // 6).
    assert_eq!(steps_by_rank.remove(0), (0..ELASTIC_STEPS).collect::<Vec<_>>());
    for (member, steps) in steps_by_rank.into_iter().enumerate() {
        assert_eq!(steps, vec![3, 4, 5], "member rank {} window", member + 1);
    }
    assert_eq!(roster.activations(), (ELASTIC_MAX - 1) as u64);
    assert_eq!(roster.retirements(), (ELASTIC_MAX - 1) as u64);
    assert!(roster.is_closed());
}
