//! Data Conditioning plug-ins in motion (paper §II.F): a reader deploys a
//! sampling plug-in into the writer's address space, observes the data
//! volume drop, then migrates the plug-in to its own side at runtime and
//! watches the volume climb back while results stay identical.
//!
//! Run with: `cargo run --example dynamic_plugins`

use std::thread;

use adios::{ReadEngine, Selection, StepStatus, VarValue, WriteEngine};
use flexio::{FlexIo, MonitorEvent, PluginPlacement, PluginSpec, StreamHints, WriteMode};
use machine::{laptop, CoreLocation};

const STEPS: u64 = 6;
const N: usize = 10_000;
const STRIDE: usize = 10;

fn main() {
    let io = FlexIo::single_node(laptop());
    // Synchronous writes keep the two sides in lockstep so the migration
    // point is deterministic.
    let hints = StreamHints { write_mode: WriteMode::Sync, ..StreamHints::default() };

    let io_w = io.clone();
    let hints_w = hints.clone();
    let writer = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 0, core: 0 };
            let mut w = io_w
                .open_writer("signal", 0, 1, core, vec![core], hints_w.clone())
                .expect("open writer");
            for step in 0..STEPS {
                w.begin_step(step);
                let data: Vec<f64> = (0..N).map(|i| (step as usize * N + i) as f64).collect();
                w.write(
                    "signal",
                    VarValue::Block(
                        adios::LocalBlock {
                            global_shape: vec![N as u64],
                            offset: vec![0],
                            count: vec![N as u64],
                            data: adios::ArrayData::F64(data),
                        }
                        .validated(),
                    ),
                );
                w.end_step();
            }
            let link = w.link().clone();
            w.close();
            link
        })
    });

    let io_r = io.clone();
    let reader = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let core = CoreLocation { node: 0, numa: 1, core: 0 };
            let mut r = io_r
                .open_reader("signal", 0, 1, core, vec![core], hints.clone())
                .expect("open reader");
            r.subscribe("signal", Selection::ProcessGroup(0));
            let sampling = |placement| PluginSpec {
                var: "signal".to_string(),
                source: codelet::plugins::sampling("signal", STRIDE).into(),
                placement,
            };
            // Phase 1: conditioning inside the WRITER — only 1/STRIDE of
            // the samples ever cross the transport.
            r.install_plugin(sampling(PluginPlacement::WriterSide));
            let monitor = r.link().monitor.clone();
            let mut migrated = false;
            let mut per_step_bytes = Vec::new();
            let mut lens = Vec::new();
            let mut prev_bytes = 0;
            loop {
                match r.begin_step() {
                    StepStatus::Step(step) => {
                        let v = r.read("signal", &Selection::ProcessGroup(0)).unwrap();
                        let VarValue::Block(b) = v else { unreachable!() };
                        lens.push(b.data.as_f64().len());
                        let now = monitor.total_bytes(MonitorEvent::DataSend);
                        per_step_bytes.push(now - prev_bytes);
                        prev_bytes = now;
                        r.end_step();
                        if step == 2 && !migrated {
                            migrated = true;
                            println!("-- migrating the sampling plug-in to the reader side --");
                            r.install_plugin(sampling(PluginPlacement::ReaderSide));
                        }
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            (per_step_bytes, lens)
        })
    });

    let _writer_link = writer.join().expect("writer");
    let mut results = reader.join().expect("reader");
    let (bytes, lens) = results.pop().expect("one reader");
    println!("{:<6} {:>14} {:>12}", "step", "wire bytes", "samples");
    for (i, (b, l)) in bytes.iter().zip(&lens).enumerate() {
        println!("{i:<6} {b:>14} {l:>12}");
    }
    // Every step delivers the sampled signal regardless of where the
    // plug-in ran.
    assert!(lens.iter().all(|&l| l == N / STRIDE), "conditioned length stable: {lens:?}");
    // Writer-side conditioning kept early steps small on the wire; after
    // migration (takes effect within a step) the full signal crosses.
    let early = bytes[1] as f64;
    let late = *bytes.last().expect("steps ran") as f64;
    assert!(
        late > early * (STRIDE as f64) * 0.5,
        "wire volume must grow after migration: early {early}, late {late}"
    );
    println!("writer-side conditioning moved ~{:.0}x fewer bytes than reader-side.", late / early);
}
