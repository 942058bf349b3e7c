//! End-to-end runtime management: the analytics watches its monitoring
//! feed and migrates the conditioning plug-in at runtime (paper §II.G's
//! "decide the placement of DC Plug-ins" + §IV's dynamic placement demo).

use std::thread;
use std::time::Duration;

use adios::{ArrayData, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use flexio::{
    FlexIo, ManagerPolicy, MonitorEvent, MonitorRelay, MonitorSink, PlacementManager,
    PluginPlacement, PluginSpec, StreamHints, WriteMode,
};
use machine::{laptop, CoreLocation};

const STEPS: u64 = 8;
const N: usize = 20_000;

#[test]
fn manager_migrates_plugin_when_wire_volume_spikes() {
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };

    let io_w = io.clone();
    let hints_w = hints.clone();
    let writer = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 0, core: 0 };
            let mut w =
                io_w.open_writer("adaptive", 0, 1, core, vec![core], hints_w.clone()).unwrap();
            for step in 0..STEPS {
                w.begin_step(step);
                w.write(
                    "signal",
                    VarValue::Block(
                        LocalBlock {
                            global_shape: vec![N as u64],
                            offset: vec![0],
                            count: vec![N as u64],
                            data: ArrayData::F64(vec![step as f64; N]),
                        }
                        .validated(),
                    ),
                );
                w.end_step();
            }
            w.close();
        })
    });

    let io_r = io.clone();
    let reader = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 1, core: 0 };
            let mut r =
                io_r.open_reader("adaptive", 0, 1, core, vec![core], hints.clone()).unwrap();
            r.subscribe("signal", Selection::ProcessGroup(0));
            // Start with reader-side conditioning (the full signal crosses
            // the wire) and let the manager decide per step.
            let sampling = |placement| PluginSpec {
                var: "signal".to_string(),
                source: codelet::plugins::sampling("signal", 20).into(),
                placement,
            };
            r.install_plugin(sampling(PluginPlacement::ReaderSide));
            let policy = ManagerPolicy {
                wire_bytes_threshold: 50_000, // the 160 kB steps exceed this
                max_writer_cpu_fraction: 0.9, // plug-in is cheap; allow it
                sim_step_ns: 1_000_000_000,
                window: 2,
            };
            let mut manager = PlacementManager::builder()
                .policy(policy)
                .initial_placement(PluginPlacement::ReaderSide)
                .build_manager();
            let monitor = r.link().monitor.clone();
            let mut migration_step = None;
            let mut lens = Vec::new();
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("signal", &Selection::ProcessGroup(0)).unwrap();
                        let VarValue::Block(b) = v else { panic!() };
                        lens.push(b.data.as_f64().len());
                        r.end_step();
                        let rec = manager.decide(&monitor, 0);
                        if rec.placement != PluginPlacement::ReaderSide && migration_step.is_none()
                        {
                            migration_step = Some(step);
                            r.install_plugin(sampling(rec.placement));
                        }
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            (migration_step, lens, monitor.total_bytes(MonitorEvent::DataSend))
        })
    });

    writer.join().unwrap();
    let mut results = reader.join().unwrap();
    let (migration_step, lens, _) = results.pop().unwrap();
    // The manager must have seen the heavy wire volume and migrated the
    // plug-in into the writer's address space early in the run.
    let migrated_at = migration_step.expect("manager should trigger a migration");
    assert!(migrated_at <= 2, "migration happened at step {migrated_at}");
    // Conditioned output is identical regardless of placement.
    assert!(lens.iter().all(|&l| l == N / 20), "sampled length stable: {lens:?}");
}

#[test]
fn attached_relay_ships_each_sealed_step_to_the_analytics_side() {
    // §II.G "gathered online and transferred to the analytics side": with
    // a relay attached, the writer's seal publishes the step's wire volume
    // and seal mark, and the sink's replica must read exactly what the
    // link's own monitor recorded.
    const WAIT: Duration = Duration::from_secs(5);
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };

    let io_w = io.clone();
    let hints_w = hints.clone();
    let writer = thread::spawn(move || {
        let core = CoreLocation { node: 0, numa: 0, core: 0 };
        let mut w = io_w.open_writer("relayed", 0, 1, core, vec![core], hints_w).unwrap();
        // The monitoring channel is placed from both coordinators' cores.
        w.link().wait_reader_info(WAIT).expect("reader attached");
        let relay = MonitorRelay::for_stream(io_w.directory().as_ref(), "relayed", 1, WAIT)
            .expect("relay finds the stream");
        w.attach_relay(relay);
        for step in 0..STEPS {
            w.begin_step(step);
            // A different volume each step, so a replica that mixed steps
            // up could not pass.
            let n = N * (step as usize + 1);
            w.write(
                "signal",
                VarValue::Block(
                    LocalBlock {
                        global_shape: vec![n as u64],
                        offset: vec![0],
                        count: vec![n as u64],
                        data: ArrayData::F64(vec![step as f64; n]),
                    }
                    .validated(),
                ),
            );
            w.end_step();
        }
        w.close();
    });

    let io_r = io.clone();
    let reader = thread::spawn(move || {
        let core = CoreLocation { node: 0, numa: 1, core: 0 };
        let mut r = io_r.open_reader("relayed", 0, 1, core, vec![core], hints).unwrap();
        r.subscribe("signal", Selection::ProcessGroup(0));
        while let StepStatus::Step(_) = r.begin_step() {
            r.end_step();
        }
    });

    let link = io.directory().lookup("relayed", WAIT).expect("stream registered");
    link.wait_reader_info(WAIT).expect("reader attached");
    let mut sink =
        MonitorSink::for_stream(io.directory().as_ref(), "relayed", WAIT).expect("sink attaches");
    writer.join().unwrap();
    reader.join().unwrap();
    sink.drain();

    let (origin, replica) = (&link.monitor, sink.monitor());
    let sent = origin.bytes_per_step(MonitorEvent::DataSend, 0);
    assert_eq!(sent.len(), STEPS as usize, "one wire-volume point per step: {sent:?}");
    assert!(sent.windows(2).all(|w| w[0].1 < w[1].1), "volumes grow step by step: {sent:?}");
    assert_eq!(replica.bytes_per_step(MonitorEvent::DataSend, 0), sent);
    assert_eq!(replica.count(MonitorEvent::StepSeal), origin.count(MonitorEvent::StepSeal));
    assert_eq!(replica.count(MonitorEvent::StepSeal), STEPS);
}
