//! **Reactor runtime** — steps/s for N concurrent 1-writer/1-reader
//! streams, thread-per-stream blocking backend vs the single-threaded
//! reactor event loop, swept over stream count × transport, plus a
//! payload sweep {1 KiB, 64 KiB, 1 MiB} at a fixed stream count.
//!
//! The blocking backend spends 2×N OS threads; the reactor drives all 2×N
//! protocol state machines from one core. The stream sweep keeps payloads
//! small (1 KiB) on purpose: it measures scheduling and protocol
//! multiplexing overhead, not memory bandwidth — the payload sweep shows
//! where the runtime stops mattering because copies dominate. Sync write
//! mode bounds each stream's in-flight data so 64 streams' traffic cannot
//! overrun the bounded shm queues regardless of backend.
//!
//! Every cell runs [`RUNS`] times and reports the median run (see
//! [`bench::report::Rate`]). Results land in `BENCH_reactor.json` at the
//! repo root and the summary JSON is printed to stdout (one line,
//! machine-parsable).
//!
//! Run with `cargo bench --bench reactor`. Set `REACTOR_QUICK=1` to
//! shrink step counts for smoke runs.

use std::cell::Cell;
use std::rc::Rc;
use std::thread;
use std::time::Instant;

use bench::report::Rate;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine,
};
use flexio::{CachingLevel, FlexIo, StreamHints, WriteMode};
use machine::laptop;

const ELEMS: usize = 128; // 1 KiB of f64 per step
const RUNS: usize = 5;

struct RunResult {
    streams: usize,
    payload_bytes: usize,
    transport: &'static str,
    backend: &'static str,
    rate: Rate,
}

fn hints() -> StreamHints {
    StreamHints {
        write_mode: WriteMode::Sync,
        caching: CachingLevel::CachingAll,
        ..StreamHints::default()
    }
}

fn payload(stream: usize, step: u64, elems: usize) -> VarValue {
    let data: Vec<f64> = (0..elems).map(|e| (stream * elems + e) as f64 + step as f64).collect();
    VarValue::Block(
        LocalBlock {
            global_shape: vec![elems as u64],
            offset: vec![0],
            count: vec![elems as u64],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

fn cores(transport: &str, stream: usize) -> (machine::CoreLocation, machine::CoreLocation) {
    let w = laptop().node.location_of(0);
    let r = match transport {
        "inproc" => w,
        // Spread readers over the node's other cores so shm queue pairs
        // don't all land between the same two locations.
        "shm" => laptop().node.location_of(1 + stream % (laptop().node.cores_per_node() - 1)),
        other => panic!("unknown transport {other}"),
    };
    (w, r)
}

/// Thread-per-stream backend: 2 OS threads per coupling, blocking calls.
fn run_threads(streams: usize, transport: &'static str, steps: u64, elems: usize) -> f64 {
    let io = FlexIo::single_node(laptop());
    let start = Instant::now();
    let mut handles = Vec::new();
    for i in 0..streams {
        let (wcore, rcore) = cores(transport, i);
        let name = format!("bench{i}");
        let io_w = io.clone();
        let name_w = name.clone();
        handles.push(thread::spawn(move || {
            let mut w =
                io_w.open_writer(&name_w, 0, 1, wcore, vec![wcore], hints()).expect("open writer");
            for step in 0..steps {
                w.begin_step(step);
                w.write("u", payload(i, step, elems));
                w.end_step();
            }
            w.close();
        }));
        let io_r = io.clone();
        handles.push(thread::spawn(move || {
            let mut r =
                io_r.open_reader(&name, 0, 1, rcore, vec![rcore], hints()).expect("open reader");
            r.subscribe("u", Selection::GlobalBox(BoxSel::whole(&[elems as u64])));
            let mut seen = 0u64;
            while let StepStatus::Step(_) = r.begin_step() {
                seen += 1;
                r.end_step();
            }
            assert_eq!(seen, steps);
            r.close();
        }));
    }
    for h in handles {
        h.join().expect("bench thread");
    }
    start.elapsed().as_secs_f64()
}

/// Reactor backend: one event loop on this thread drives all 2×N engines.
fn run_reactor(streams: usize, transport: &'static str, steps: u64, elems: usize) -> f64 {
    let io = FlexIo::single_node(laptop());
    let mut reactor = flexio_reactor::Reactor::new();
    let done = Rc::new(Cell::new(0usize));
    let start = Instant::now();
    for i in 0..streams {
        let (wcore, rcore) = cores(transport, i);
        let name = format!("bench{i}");
        let io_w = io.clone();
        let name_w = name.clone();
        let done_w = Rc::clone(&done);
        reactor.spawn(async move {
            let mut w = io_w
                .open_writer_rt(&name_w, 0, 1, wcore, vec![wcore], hints())
                .await
                .expect("open writer");
            for step in 0..steps {
                w.begin_step(step);
                w.write("u", payload(i, step, elems));
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
            done_w.set(done_w.get() + 1);
        });
        let io_r = io.clone();
        let done_r = Rc::clone(&done);
        reactor.spawn(async move {
            let mut r = io_r
                .open_reader_rt(&name, 0, 1, rcore, vec![rcore], hints())
                .await
                .expect("open reader");
            r.subscribe("u", Selection::GlobalBox(BoxSel::whole(&[elems as u64])));
            let mut seen = 0u64;
            loop {
                match r.begin_step_rt().await.expect("begin_step") {
                    StepStatus::Step(_) => {
                        seen += 1;
                        r.end_step();
                    }
                    StepStatus::EndOfStream => break,
                }
            }
            assert_eq!(seen, steps);
            r.close();
            done_r.set(done_r.get() + 1);
        });
    }
    reactor.run();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(done.get(), streams * 2, "every engine ran to completion");
    elapsed
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("reactor: skipped under test harness");
        return;
    }
    let quick = std::env::var("REACTOR_QUICK").is_ok();
    // Steps per stream scale down with stream count so every cell moves a
    // comparable total step volume.
    let stream_sweep: Vec<(usize, u64)> = vec![
        (1, if quick { 64 } else { 512 }),
        (8, if quick { 16 } else { 128 }),
        (64, if quick { 4 } else { 16 }),
    ];
    // Payload sweep at a fixed 8 streams: 1 KiB (scheduling-bound),
    // 64 KiB, 1 MiB (copy-bound). Steps shrink as payloads grow so every
    // cell moves a comparable byte volume.
    let payload_sweep: Vec<(usize, u64)> = vec![
        (128, if quick { 16 } else { 128 }),    // 1 KiB
        (8 << 10, if quick { 8 } else { 32 }),  // 64 KiB
        (128 << 10, if quick { 2 } else { 8 }), // 1 MiB
    ];
    const PAYLOAD_STREAMS: usize = 8;

    let mut results: Vec<RunResult> = Vec::new();
    let mut run_cell = |streams: usize, steps: u64, elems: usize| {
        for transport in ["inproc", "shm"] {
            for backend in ["threads", "reactor"] {
                let rate = Rate::measure(RUNS, streams as u64 * steps, || match backend {
                    "threads" => run_threads(streams, transport, steps, elems),
                    _ => run_reactor(streams, transport, steps, elems),
                });
                let r = RunResult { streams, payload_bytes: elems * 8, transport, backend, rate };
                eprintln!(
                    "reactor: {:3} streams  {:8} B  {:6}  {:7}  {:8.1} steps/s",
                    r.streams,
                    r.payload_bytes,
                    r.transport,
                    r.backend,
                    r.rate.steps_per_s()
                );
                results.push(r);
            }
        }
    };
    for &(streams, steps) in &stream_sweep {
        run_cell(streams, steps, ELEMS);
    }
    for &(elems, steps) in &payload_sweep {
        if elems == ELEMS {
            continue; // the 8-stream × 1 KiB cell already ran in the stream sweep
        }
        run_cell(PAYLOAD_STREAMS, steps, elems);
    }

    let mut rep = bench::report::Report::new("reactor").u64("payload_bytes", (ELEMS * 8) as u64);
    for r in &results {
        rep.push(
            bench::report::Obj::new()
                .u64("streams", r.streams as u64)
                .u64("payload_bytes", r.payload_bytes as u64)
                .str("transport", r.transport)
                .str("backend", r.backend)
                .rate(&r.rate),
        );
    }
    rep.write();
}
