//! **Elastic placement closed loop** — live autoscaling plus mid-run
//! plug-in migration driven by real monitoring, end to end.
//!
//! One writer ramps its step rate and payload through four phases
//! (slow/light → fast/heavy → slow/light → fast/heavy) while relaying
//! `STEP_SEAL` intervals and `DATA_SEND` volume over the monitor
//! channel. A [`MonitorSink`] fleet task drains the relay into a live
//! replica; an [`ElasticController`] fleet task runs the paper's
//! §III.B.2 allocation formula against the observed interval and writes
//! its verdict into the shared [`ElasticRoster`]. The reader coordinator
//! commits those verdicts at step boundaries: member ranks park and
//! unpark as the roster resizes, and the sampling plug-in on the bulk
//! variable migrates inline ↔ staging as the wire volume crosses the
//! policy thresholds.
//!
//! Gates: the roster must converge to the expected rank count and
//! placement in every phase, every sealed step must be delivered (zero
//! drops, zero evictions), and the payload ramp must force at least
//! three migrations. Results land in `BENCH_elastic.json`. Run with
//! `cargo bench --bench elastic`; set `ELASTIC_QUICK=1` for smoke runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine,
};
use flexio::elastic::{ElasticConfig, ElasticController, ElasticRoster};
use flexio::redistribute::split_box;
use flexio::{
    CachingLevel, FlexIo, ManagerPolicy, MonitorEvent, MonitorRelay, MonitorSink, PluginPlacement,
    PluginSpec, StreamHints, WriteMode,
};
use flexio_reactor::ReactorFleet;
use machine::laptop;
use placement::AnalyticsScaling;

/// Provisioned reader rank slots (the roster's ceiling).
const MAX_READERS: usize = 3;
/// Global length of the always-on `field` array, sliced across whatever
/// the roster says is active.
const FIELD: u64 = 1200;
/// Bulk payload elements per step: light phases stay far below the
/// migration low-water mark, heavy phases far above the push-down
/// threshold (2 MiB raw, 512 KiB once sampled writer-side).
const BULK_LIGHT: u64 = 512;
const BULK_HEAVY: u64 = 256 * 1024;
/// Sampling stride of the managed plug-in on `bulk`.
const STRIDE: usize = 4;

/// Simulated I/O intervals: with the Amdahl model below (1 ms serial +
/// 12 ms parallel), a 21 ms interval needs 1 reader, a 5 ms interval
/// needs `12/(5-1) = 3`.
const GAP_SLOW: Duration = Duration::from_millis(21);
const GAP_FAST: Duration = Duration::from_millis(5);

struct Phase {
    name: &'static str,
    gap: Duration,
    bulk: u64,
    readers: usize,
    placement: PluginPlacement,
}

const PHASES: &[Phase] = &[
    Phase {
        name: "slow-light",
        gap: GAP_SLOW,
        bulk: BULK_LIGHT,
        readers: 1,
        placement: PluginPlacement::ReaderSide,
    },
    Phase {
        name: "fast-heavy",
        gap: GAP_FAST,
        bulk: BULK_HEAVY,
        readers: MAX_READERS,
        placement: PluginPlacement::WriterSide,
    },
    Phase {
        name: "slow-light-2",
        gap: GAP_SLOW,
        bulk: BULK_LIGHT,
        readers: 1,
        placement: PluginPlacement::ReaderSide,
    },
    Phase {
        name: "fast-heavy-2",
        gap: GAP_FAST,
        bulk: BULK_HEAVY,
        readers: MAX_READERS,
        placement: PluginPlacement::WriterSide,
    },
];

fn hints() -> StreamHints {
    // Elastic membership rides the NO_CACHING per-step re-plan; sync
    // write mode keeps the sealed-vs-delivered lag an honest signal.
    StreamHints {
        caching: CachingLevel::NoCaching,
        write_mode: WriteMode::Sync,
        recv_timeout: Duration::from_secs(10),
        retries: 2,
        ..StreamHints::default()
    }
}

fn elastic_cfg() -> ElasticConfig {
    ElasticConfig::builder()
        .interval(Duration::from_millis(5))
        .min_readers(1)
        .max_readers(MAX_READERS)
        .scaling(AnalyticsScaling { serial_s: 0.001, parallel_s: 0.012 })
        .policy(ManagerPolicy { wire_bytes_threshold: 300 << 10, window: 4, ..Default::default() })
        .low_wire_bytes(64 << 10)
        .build()
}

fn field_value(step: u64, i: u64) -> f64 {
    (step * 10_000 + i) as f64
}

fn bulk_value(step: u64, i: u64) -> f64 {
    (step * 7 + i * 3) as f64
}

fn block_1d(offset: u64, data: Vec<f64>, global: u64) -> VarValue {
    let count = data.len() as u64;
    VarValue::Block(
        LocalBlock {
            global_shape: vec![global],
            offset: vec![offset],
            count: vec![count],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

fn field_slab(active: usize, rank: usize) -> Option<BoxSel> {
    let global = BoxSel::new(vec![0], vec![FIELD]);
    split_box(&global, active).into_iter().nth(rank).flatten()
}

fn validate_field(step: u64, sel: &BoxSel, b: &LocalBlock) {
    let expect: Vec<f64> =
        (sel.offset[0]..sel.offset[0] + sel.count[0]).map(|i| field_value(step, i)).collect();
    assert_eq!(b.data.as_f64(), expect.as_slice(), "step {step} slab {sel:?}");
}

/// The bulk chunk arrives either raw (no plug-in installed yet) or
/// sampled (either side of a migration — the reader's fallback copy
/// conditions unconditioned arrivals, so after the first install the
/// delivered bytes are always the conditioned ones).
fn validate_bulk(step: u64, raw_len: u64, b: &LocalBlock) {
    let got = b.data.as_f64();
    if got.len() as u64 == raw_len {
        for (i, &v) in got.iter().enumerate() {
            assert_eq!(v, bulk_value(step, i as u64), "raw bulk step {step} elem {i}");
        }
    } else {
        assert_eq!(got.len() as u64, raw_len / STRIDE as u64, "step {step}: bulk length");
        for (k, &v) in got.iter().enumerate() {
            let i = (k * STRIDE) as u64;
            assert_eq!(v, bulk_value(step, i), "sampled bulk step {step} elem {k}");
        }
    }
}

fn bulk_spec(placement: PluginPlacement) -> PluginSpec {
    PluginSpec {
        var: "bulk".to_string(),
        source: codelet::plugins::sampling("bulk", STRIDE).into(),
        placement,
    }
}

fn placement_name(p: PluginPlacement) -> &'static str {
    match p {
        PluginPlacement::WriterSide => "writer_side",
        PluginPlacement::ReaderSide => "reader_side",
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("elastic: skipped under test harness");
        return;
    }
    let quick = std::env::var("ELASTIC_QUICK").is_ok();
    let steps_per_phase: u64 = if quick { 8 } else { 16 };
    let total_steps = steps_per_phase * PHASES.len() as u64;

    let io = FlexIo::new(laptop(), 4);
    let m = laptop();
    let wcore = m.node.location_of(0);
    let rcores: Vec<_> =
        (0..MAX_READERS).map(|r| m.node.location_of(m.total_cores() - 1 - r)).collect();

    let roster = Arc::new(ElasticRoster::new(1));
    // Writer-side phase gate: phase `i` may start once the gate exceeds
    // `i` (the harness samples convergence between phases, so decisions
    // settle on a pure same-phase monitoring window).
    let phase_gate = Arc::new(AtomicUsize::new(1));
    let start = Instant::now();

    // --- simulation side: rate-ramped writer publishing its own seals.
    let io_w = io.clone();
    let gate_w = Arc::clone(&phase_gate);
    let writer = thread::spawn(move || {
        rankrt::launch_named(1, "sim", move |_| {
            let mut w = io_w
                .open_writer("elastic-bench", 0, 1, wcore, vec![wcore], hints())
                .expect("open writer");
            w.link().wait_reader_info(Duration::from_secs(10)).expect("readers attached");
            let mut relay = MonitorRelay::for_stream(
                io_w.directory().as_ref(),
                "elastic-bench",
                1,
                Duration::from_secs(5),
            )
            .expect("relay attaches");
            let mut sent_bytes = 0u64;
            let mut step = 0u64;
            for (i, phase) in PHASES.iter().enumerate() {
                while gate_w.load(Ordering::Acquire) <= i {
                    thread::sleep(Duration::from_millis(1));
                }
                for _ in 0..steps_per_phase {
                    w.begin_step(step);
                    let field: Vec<f64> = (0..FIELD).map(|i| field_value(step, i)).collect();
                    w.write("field", block_1d(0, field, FIELD));
                    let bulk: Vec<f64> = (0..phase.bulk).map(|i| bulk_value(step, i)).collect();
                    w.write("bulk", block_1d(0, bulk, phase.bulk));
                    w.end_step();
                    // Relay this step's seal: the simulated I/O interval
                    // (the phase's nominal gap) plus the wire volume the
                    // engine actually recorded for the step.
                    let total = w.link().monitor.total_bytes(MonitorEvent::DataSend);
                    let delta = total - sent_bytes;
                    sent_bytes = total;
                    relay.publish(MonitorEvent::DataSend, step, 0, delta, 0);
                    relay.publish(
                        MonitorEvent::StepSeal,
                        step,
                        0,
                        delta,
                        phase.gap.as_nanos() as u64,
                    );
                    step += 1;
                    thread::sleep(phase.gap);
                }
            }
            w.close();
        });
    });

    // --- analytics side: coordinator + parked member pool.
    let io_r = io.clone();
    let roster_r = Arc::clone(&roster);
    let reader = thread::spawn(move || {
        rankrt::launch_named(MAX_READERS, "ana", move |comm| {
            let rank = comm.rank();
            let mut r = io_r
                .open_reader(
                    "elastic-bench",
                    rank,
                    MAX_READERS,
                    rcores[rank],
                    rcores.clone(),
                    hints(),
                )
                .expect("open reader");
            let roster = Arc::clone(&roster_r);
            if rank == 0 {
                r.enable_elastic(Arc::clone(&roster));
                let mut active = 1usize;
                let mut sel = field_slab(active, 0).expect("rank 0 always holds a slab");
                r.subscribe("field", Selection::GlobalBox(sel.clone()));
                r.subscribe("bulk", Selection::ProcessGroup(0));
                let mut seen = Vec::new();
                loop {
                    match r.begin_step() {
                        StepStatus::Step(step) => {
                            let v = r.read("field", &Selection::GlobalBox(sel.clone())).unwrap();
                            let VarValue::Block(b) = v else { panic!("field is an array") };
                            validate_field(step, &sel, &b);
                            let v = r.read("bulk", &Selection::ProcessGroup(0)).unwrap();
                            let VarValue::Block(b) = v else { panic!("bulk is an array") };
                            let raw_len = PHASES[(step / steps_per_phase) as usize].bulk;
                            validate_bulk(step, raw_len, &b);
                            seen.push(step);
                            r.end_step();
                            roster.note_step_delivered();
                            // Commit the controller's placement verdict at
                            // this step boundary (takes effect next step).
                            if let Some(p) = roster.take_placement() {
                                r.install_plugin(bulk_spec(p));
                                roster.note_migration();
                            }
                            let (_, next) = r.elastic_announcement().expect("elastic announces");
                            if next != active {
                                active = next;
                                sel = field_slab(active, 0).expect("rank 0 slab");
                                r.clear_subscriptions();
                                r.subscribe("field", Selection::GlobalBox(sel.clone()));
                                r.subscribe("bulk", Selection::ProcessGroup(0));
                            }
                        }
                        StepStatus::EndOfStream => break,
                    }
                }
                let c = r.link().counters.snapshot();
                roster.close();
                (seen, c.evictions, c.degraded_steps)
            } else {
                let mut seen = Vec::new();
                'outer: loop {
                    while roster.active() <= rank {
                        if roster.is_closed() {
                            break 'outer;
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    let active = roster.active();
                    let Some(sel) = field_slab(active, rank) else {
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
                                let VarValue::Block(b) = v else { panic!("field is an array") };
                                validate_field(step, &sel, &b);
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
                (seen, 0, 0)
            }
        })
    });

    // --- control plane: monitor-sink drain + elastic controller, both
    // fleet tasks over the live relay replica.
    let link =
        io.directory().lookup("elastic-bench", Duration::from_secs(5)).expect("stream registered");
    link.wait_reader_info(Duration::from_secs(10)).expect("reader attached");
    let sink =
        MonitorSink::for_stream(io.directory().as_ref(), "elastic-bench", Duration::from_secs(5))
            .expect("sink attaches");
    let fleet = ReactorFleet::new(2);
    let controller =
        ElasticController::new(elastic_cfg(), sink.monitor().clone(), Arc::clone(&roster));
    let (sink_handle, sink_task) = sink.into_task(Duration::from_millis(1));
    fleet.spawn(sink_task);
    let (elastic_handle, elastic_task) = controller.into_task();
    fleet.spawn(elastic_task);

    // --- phase loop: wait for each phase's steps to be delivered, then
    // hold the writer while the controller converges on that phase's
    // pure monitoring window.
    struct PhaseOut {
        readers: usize,
        placement: PluginPlacement,
        converge_ms: f64,
        steps_per_s: f64,
    }
    let mut phase_out = Vec::new();
    for (i, phase) in PHASES.iter().enumerate() {
        let phase_start = Instant::now();
        let delivered_target = steps_per_phase * (i as u64 + 1);
        let deadline = Instant::now() + Duration::from_secs(60);
        while roster.steps_delivered() < delivered_target {
            assert!(Instant::now() < deadline, "phase {}: steps never delivered", phase.name);
            thread::sleep(Duration::from_millis(1));
        }
        let phase_wall = phase_start.elapsed().as_secs_f64();
        let settle = Instant::now();
        let deadline = settle + Duration::from_secs(10);
        loop {
            let readers = roster.active();
            let placement = elastic_handle.latest().map(|d| d.placement);
            if readers == phase.readers && placement == Some(phase.placement) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "phase {}: controller never converged (readers {readers}, want {}; placement \
                 {placement:?}, want {:?}; latest {:?})",
                phase.name,
                phase.readers,
                phase.placement,
                elastic_handle.latest(),
            );
            thread::sleep(Duration::from_millis(1));
        }
        phase_out.push(PhaseOut {
            readers: roster.active(),
            placement: phase.placement,
            converge_ms: settle.elapsed().as_secs_f64() * 1e3,
            steps_per_s: steps_per_phase as f64 / phase_wall.max(1e-9),
        });
        phase_gate.store(i + 2, Ordering::Release);
    }

    writer.join().expect("writer group");
    let mut by_rank = reader.join().expect("reader group");
    let elapsed_s = start.elapsed().as_secs_f64();
    sink_handle.stop();
    fleet.join();
    assert!(elastic_handle.is_done(), "roster close ends the controller loop");

    // --- gates.
    let (coord_steps, evictions, degraded) = by_rank.remove(0);
    assert_eq!(
        coord_steps,
        (0..total_steps).collect::<Vec<_>>(),
        "zero dropped steps: the coordinator delivers every sealed step"
    );
    assert_eq!(roster.steps_delivered(), total_steps);
    assert_eq!((evictions, degraded), (0, 0), "healthy ranks must never be evicted");
    let member_steps: usize = by_rank.iter().map(|(s, ..)| s.len()).sum();
    assert!(member_steps > 0, "scale-out must hand real steps to member ranks");
    assert!(
        roster.migrations() >= 3,
        "the payload ramp must force >= 3 migrations (got {})",
        roster.migrations()
    );
    assert!(roster.activations() >= 4 && roster.retirements() >= 2, "two scale-out/in cycles");
    let sink_stats = sink_handle.latest().expect("sink drained at least once");
    assert_eq!(sink_stats.corrupt_frames, 0);
    assert!(sink_stats.absorbed >= 2 * total_steps, "sink drained every relayed sample");
    let expected: Vec<usize> = PHASES.iter().map(|p| p.readers).collect();
    let converged: Vec<usize> = phase_out.iter().map(|p| p.readers).collect();
    assert_eq!(converged, expected, "per-phase reader convergence");

    eprintln!(
        "elastic: {total_steps} steps, readers {converged:?}, {} migrations, \
         {} decisions, {member_steps} member steps",
        roster.migrations(),
        elastic_handle.rounds(),
    );

    let mut rep = bench::report::Report::new("elastic")
        .u64("total_steps", total_steps)
        .u64("steps_delivered", roster.steps_delivered())
        .u64("migrations", roster.migrations())
        .u64("activations", roster.activations())
        .u64("retirements", roster.retirements())
        .u64("decisions", elastic_handle.rounds())
        .u64("member_steps", member_steps as u64)
        .f64("elapsed_s", elapsed_s, 6);
    for (phase, out) in PHASES.iter().zip(&phase_out) {
        rep.push(
            bench::report::Obj::new()
                .str("phase", phase.name)
                .u64("steps", steps_per_phase)
                .f64("gap_ms", phase.gap.as_secs_f64() * 1e3, 3)
                .u64("bulk_bytes", phase.bulk * 8)
                .u64("readers", out.readers as u64)
                .str("placement", placement_name(out.placement))
                .f64("converge_ms", out.converge_ms, 3)
                .f64("steps_per_s", out.steps_per_s, 3),
        );
    }
    rep.write();
}
