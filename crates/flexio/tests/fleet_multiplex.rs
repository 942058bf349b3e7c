//! The fleet's reason to exist: N worker threads sharing the load of many
//! concurrent couplings, with the control plane (monitor sink, placement
//! manager) riding the same shards. Every coupling runs the full
//! protocol — open, handshake, data transfer, sync acks, EOS — as a
//! `Send` future that [`ReactorFleet::spawn`] places on the least-loaded
//! shard.

mod common;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use common::block_1d;
use flexio::{
    CachingLevel, FlexIo, ManagerPolicy, MonitorRelay, MonitorSink, PlacementManager,
    PluginPlacement, StreamHints, WriteMode,
};
use flexio_reactor::ReactorFleet;
use machine::laptop;

const THREADS: usize = 4;
const COUPLINGS: usize = 64;
const STEPS: u64 = 3;
// 2 KiB payloads: past the 512 B inline threshold, so cross-core data
// chunks are carried in pooled shm buffers.
const ELEMS: u64 = 256;

fn fleet_hints() -> StreamHints {
    StreamHints {
        // Sync mode bounds in-flight data per stream, so many streams'
        // traffic cannot overrun the bounded shm queues while their
        // consumers wait for their turn on a shard.
        write_mode: WriteMode::Sync,
        caching: CachingLevel::CachingAll,
        ..StreamHints::default()
    }
}

#[test]
fn four_shards_share_64_couplings() {
    let io = FlexIo::single_node(laptop());
    let hints = fleet_hints();
    let fleet = ReactorFleet::new(THREADS);

    let writers_done = Arc::new(AtomicUsize::new(0));
    let readers_done = Arc::new(AtomicUsize::new(0));
    let steps_read = Arc::new(AtomicU64::new(0));

    for i in 0..COUPLINGS {
        // Spread producers over every core; half the couplings run
        // same-core (in-proc transport), half cross-core (shared-memory
        // transport): one fleet, both fabrics.
        let wcore = laptop().node.location_of(i % laptop().total_cores());
        let rcore = if i % 2 == 0 {
            wcore
        } else {
            laptop().node.location_of((i + 1) % laptop().total_cores())
        };
        let name = format!("mux{i}");

        let io_w = io.clone();
        let hints_w = hints.clone();
        let name_w = name.clone();
        let done = Arc::clone(&writers_done);
        fleet.spawn(async move {
            let mut w = io_w
                .open_writer_rt(&name_w, 0, 1, wcore, vec![wcore], hints_w)
                .await
                .expect("open writer");
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> =
                    (0..ELEMS).map(|e| (i as u64 * 1000 + step * 10 + e) as f64).collect();
                w.write("u", block_1d(0, data, ELEMS));
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
            done.fetch_add(1, Ordering::Relaxed);
        });

        let io_r = io.clone();
        let hints_r = hints.clone();
        let done = Arc::clone(&readers_done);
        let steps = Arc::clone(&steps_read);
        fleet.spawn(async move {
            let mut r = io_r
                .open_reader_rt(&name, 0, 1, rcore, vec![rcore], hints_r)
                .await
                .expect("open reader");
            let whole = Selection::GlobalBox(BoxSel::whole(&[ELEMS]));
            r.subscribe("u", whole.clone());
            loop {
                match r.begin_step_rt().await.expect("begin_step") {
                    StepStatus::Step(step) => {
                        let v = r.read("u", &whole).expect("subscribed var present");
                        let VarValue::Block(b) = v else { panic!("block expected") };
                        for (e, &x) in b.data.as_f64().iter().enumerate() {
                            assert_eq!(
                                x,
                                (i as u64 * 1000 + step * 10 + e as u64) as f64,
                                "stream {i} step {step} elem {e}"
                            );
                        }
                        steps.fetch_add(1, Ordering::Relaxed);
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            r.close();
            done.fetch_add(1, Ordering::Relaxed);
        });
    }

    // Bound the wait: a coupling that never finishes fails the test here
    // instead of hanging `join`.
    let handle = fleet.handle();
    let deadline = Instant::now() + Duration::from_secs(60);
    while handle.live() > 0 {
        assert!(Instant::now() < deadline, "fleet never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    let snaps = fleet.join();

    assert_eq!(writers_done.load(Ordering::Relaxed), COUPLINGS, "every writer completed");
    assert_eq!(readers_done.load(Ordering::Relaxed), COUPLINGS, "every reader completed");
    assert_eq!(
        steps_read.load(Ordering::Relaxed),
        COUPLINGS as u64 * STEPS,
        "no step lost or duplicated"
    );

    // The work was actually sharded: every worker completed tasks, and
    // the fleet's step counter saw the data plane (note_step from the
    // engines).
    let total_completed: u64 = snaps.iter().map(|s| s.completed).sum();
    assert_eq!(total_completed, COUPLINGS as u64 * 2, "all tasks accounted for: {snaps:?}");
    let busy_shards = snaps.iter().filter(|s| s.completed > 0).count();
    assert!(busy_shards >= 2, "couplings all landed on one shard: {snaps:?}");
    let total_steps: u64 = snaps.iter().map(|s| s.steps).sum();
    assert_eq!(
        total_steps,
        COUPLINGS as u64 * STEPS * 2,
        "writer + reader engines each report every step to their shard"
    );
}

#[test]
fn control_plane_rides_the_fleet() {
    let io = FlexIo::single_node(laptop());
    let hints = fleet_hints();
    let fleet = ReactorFleet::new(2);

    let wcore = laptop().node.location_of(0);
    let rcore = laptop().node.location_of(1);

    // Data plane: one monitored coupling.
    let io_w = io.clone();
    let hints_w = hints.clone();
    let writer_done = Arc::new(AtomicUsize::new(0));
    let done_w = Arc::clone(&writer_done);
    fleet.spawn(async move {
        let mut w = io_w
            .open_writer_rt("mon", 0, 1, wcore, vec![wcore], hints_w)
            .await
            .expect("open writer");
        // The monitor channel's placement needs both endpoints: yield
        // until the reader side has attached before claiming it.
        while w.link().try_reader_info().is_none() {
            flexio_reactor::sleep(Duration::from_millis(1)).await;
        }
        let mut relay =
            MonitorRelay::for_stream(io_w.directory().as_ref(), "mon", 1, Duration::from_secs(2))
                .expect("relay attaches to the registered link");
        for step in 0..STEPS {
            w.begin_step(step);
            let data: Vec<f64> = (0..ELEMS).map(|e| (step * 10 + e) as f64).collect();
            w.write("u", block_1d(0, data, ELEMS));
            w.end_step_rt().await.expect("end_step");
            // Publish a heavy wire-volume sample per step: enough for the
            // placement manager to recommend writer-side conditioning.
            relay.publish(flexio::MonitorEvent::DataSend, step, 0, 50 << 20, 1000);
        }
        w.close();
        done_w.fetch_add(1, Ordering::Relaxed);
    });

    let io_r = io.clone();
    let hints_r = hints.clone();
    fleet.spawn(async move {
        let mut r =
            io_r.open_reader_rt("mon", 0, 1, rcore, vec![rcore], hints_r).await.expect("reader");
        let whole = Selection::GlobalBox(BoxSel::whole(&[ELEMS]));
        r.subscribe("u", whole.clone());
        while let StepStatus::Step(_) = r.begin_step_rt().await.expect("begin_step") {
            r.end_step();
        }
        r.close();
    });

    // Control plane: the monitor-relay drain and the placement decision
    // loop are fleet tasks too — no helper threads anywhere. (Claiming
    // the monitor channel needs both endpoints placed, hence the wait.)
    let link = io.directory().lookup("mon", Duration::from_secs(2)).expect("stream registered");
    link.wait_reader_info(Duration::from_secs(2)).expect("reader attached");
    let sink = MonitorSink::for_stream(io.directory().as_ref(), "mon", Duration::from_secs(2))
        .expect("sink attaches to the registered link");
    let replica = sink.monitor().clone();
    let (sink_handle, sink_task) = sink.into_task(Duration::from_millis(1));
    fleet.spawn(sink_task);
    // The manager reads the coupling's live link monitor, where the
    // engines record real per-step wire volume (2 KiB here) — set the
    // threshold below it so the decision loop has something to decide.
    let policy = ManagerPolicy { wire_bytes_threshold: 1024, ..ManagerPolicy::default() };
    let manager = PlacementManager::builder()
        .policy(policy)
        .initial_placement(PluginPlacement::ReaderSide)
        .build_manager();
    let (mgr_handle, mgr_task) =
        manager.into_task(Arc::clone(io.directory()), "mon".into(), 0, Duration::from_millis(1));
    fleet.spawn(mgr_task);
    let absorbed = || sink_handle.latest().map_or(0, |s| s.absorbed);

    // Wait (off-fleet) until the data plane finished and the control
    // plane observed it, then release the two periodic loops.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let data_done = writer_done.load(Ordering::Relaxed) == 1;
        let monitored = absorbed() >= STEPS;
        let decided = mgr_handle.rounds() > 0 && mgr_handle.latest().is_some();
        if data_done && monitored && decided {
            break;
        }
        assert!(Instant::now() < deadline, "control plane never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
    sink_handle.stop();
    mgr_handle.stop();
    fleet.join();
    assert!(sink_handle.is_done() && mgr_handle.is_done(), "fleet joined ⇒ control tasks finished");

    // The sink's shared monitor replica saw the relayed samples, and the
    // manager turned them into a placement decision.
    assert!(absorbed() >= STEPS, "sink drained every relayed sample");
    assert_eq!(sink_handle.latest().map(|s| s.corrupt_frames), Some(0));
    assert!(replica.count(flexio::MonitorEvent::DataSend) >= STEPS);
    let rec = mgr_handle.latest().expect("manager published a recommendation");
    assert_eq!(
        rec.placement,
        PluginPlacement::WriterSide,
        "2 KiB/step wire volume over a 1 KiB budget must pull conditioning to the writer: {}",
        rec.reason
    );
}
