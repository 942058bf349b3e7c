//! Runtime-managed analytics placement (paper §II.G + §IV): the analytics
//! coordinator watches FlexIO's online monitoring feed and lets the
//! [`flexio::PlacementManager`] decide, step by step, where the Data
//! Conditioning plug-in should run. When the wire volume spikes, the
//! manager ships the plug-in into the simulation's address space; the
//! conditioned stream shrinks; results never change.
//!
//! Run with: `cargo run --example adaptive_analytics`

use std::thread;

use adios::{ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use flexio::{
    FlexIo, ManagerPolicy, MonitorEvent, PlacementManager, PluginPlacement, PluginSpec,
    StreamHints, WriteMode,
};
use machine::{laptop, CoreLocation};

const STEPS: u64 = 8;

fn main() {
    let io = FlexIo::single_node(laptop());
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };

    let io_w = io.clone();
    let hints_w = hints.clone();
    let sim = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 0, core: 0 };
            let mut w =
                io_w.open_writer("adaptive", 0, 1, core, vec![core], hints_w.clone()).unwrap();
            for step in 0..STEPS {
                // The simulation's output grows over time (a refinement
                // phase kicking in) — the trigger for migration.
                let n = if step < 3 { 500 } else { 40_000 };
                w.begin_step(step);
                w.write(
                    "field",
                    VarValue::Block(
                        adios::LocalBlock {
                            global_shape: vec![n],
                            offset: vec![0],
                            count: vec![n],
                            data: adios::ArrayData::F64(
                                (0..n).map(|i| (step * 7 + i) as f64 % 97.0).collect(),
                            ),
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
    let ana = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 1, core: 0 };
            let mut r =
                io_r.open_reader("adaptive", 0, 1, core, vec![core], hints.clone()).unwrap();
            r.subscribe("field", Selection::ProcessGroup(0));
            let summarize = |placement| PluginSpec {
                var: "field".to_string(),
                source: codelet::plugins::summarize("field").into(),
                placement,
            };
            r.install_plugin(summarize(PluginPlacement::ReaderSide));
            let mut manager = PlacementManager::builder()
                .policy(ManagerPolicy { wire_bytes_threshold: 100_000, ..ManagerPolicy::default() })
                .initial_placement(PluginPlacement::ReaderSide)
                .build_manager();
            let monitor = r.link().monitor.clone();
            println!(
                "{:<6} {:>12} {:>14} {:<14} reasoning",
                "step", "wire B/step", "dc_count", "plugin runs at"
            );
            let mut prev_bytes = 0;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let count = match r.read("dc_count", &Selection::ProcessGroup(0)) {
                            Some(VarValue::Scalar(adios::ScalarValue::I64(n))) => n,
                            other => panic!("summary missing: {other:?}"),
                        };
                        r.end_step();
                        let total = monitor.total_bytes(MonitorEvent::DataSend);
                        let step_bytes = total - prev_bytes;
                        prev_bytes = total;
                        let before = manager.current();
                        let rec = manager.decide(&monitor, 0);
                        println!(
                            "{step:<6} {step_bytes:>12} {count:>14} {:<14} {}",
                            match before {
                                PluginPlacement::WriterSide => "simulation",
                                PluginPlacement::ReaderSide => "analytics",
                            },
                            rec.reason
                        );
                        if rec.placement != before {
                            r.install_plugin(summarize(rec.placement));
                        }
                    }
                    StepStatus::EndOfStream => break,
                }
            }
        })
    });

    sim.join().unwrap();
    ana.join().unwrap();
    println!(
        "\nThe manager migrated the summarizing plug-in into the simulation when\n\
         the output grew, collapsing the wire traffic to summary statistics —\n\
         dynamic analytics placement driven by FlexIO's own monitoring."
    );
}
