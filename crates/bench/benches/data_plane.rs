//! **Data plane** — end-to-end steps/s and GB/s for the zero-copy data
//! path, swept over payload size × transport × batching.
//!
//! Each configuration runs a 1-writer/1-reader stream over the real
//! writer/reader engines: the writer marshals a block with the packed
//! bulk encoding and ships it with scatter-gather sends; the reader
//! decodes zero-copy views out of the shared receive buffer. Transport
//! is selected by placement exactly as in production: same core →
//! in-process, same node/different core → shared memory (pooled path
//! for large payloads).
//!
//! `legacy_marshal_roundtrip_gbps` is a marshal-only context number —
//! the old per-element encode plus a full owned decode of a 64 MiB
//! record. The engine no longer has a per-element data path to stream
//! over; its end-to-end A/B figure is recorded in EXPERIMENTS.md.
//!
//! Results land in `BENCH_data_plane.json` at the repo root and the
//! summary JSON is printed to stdout (one line, machine-parsable).
//!
//! Run with `cargo bench --bench data_plane`. Set `DATA_PLANE_QUICK=1`
//! to shrink step counts for smoke runs.

use std::thread;
use std::time::Instant;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine,
};
use evpath::{FieldValue, PackedArray, Record};
use flexio::{CachingLevel, FlexIo, StreamHints};
use machine::laptop;

const MIB: usize = 1 << 20;
const KIB: usize = 1 << 10;
const BASELINE_BYTES: usize = 64 * MIB;

struct RunResult {
    payload_bytes: usize,
    transport: &'static str,
    batching: bool,
    steps: u64,
    elapsed_s: f64,
}

impl RunResult {
    fn steps_per_s(&self) -> f64 {
        self.steps as f64 / self.elapsed_s
    }

    fn gbps(&self) -> f64 {
        (self.steps as f64 * self.payload_bytes as f64) / self.elapsed_s / 1e9
    }
}

/// One writer rank streams `steps` blocks of `payload_bytes` doubles to
/// one reader rank; returns wall time including stream open/close.
fn run_stream(payload_bytes: usize, transport: &'static str, batching: bool, steps: u64) -> f64 {
    let elems = payload_bytes / 8;
    let io = FlexIo::single_node(laptop());
    let hints =
        StreamHints { batching, caching: CachingLevel::CachingAll, ..StreamHints::default() };
    let writer_core = laptop().node.location_of(0);
    // Same core → inproc transport; another core on the node → shm.
    let reader_core = match transport {
        "inproc" => writer_core,
        "shm" => laptop().node.location_of(8),
        other => panic!("unknown transport {other}"),
    };

    let io_w = io.clone();
    let io_r = io;
    let hints_w = hints.clone();
    // The producer hands the data plane a packed payload, built once
    // outside the timed region: per-step writes then cost an Arc bump,
    // and the only payload copies measured are the transport's own (one
    // flatten for inproc, the copy into the pool slot for shm).
    let base: Vec<f64> = (0..elems).map(|i| i as f64).collect();
    let data = ArrayData::Packed(PackedArray::from_f64s(&base));
    let template = VarValue::Block(
        LocalBlock {
            global_shape: vec![elems as u64],
            offset: vec![0],
            count: vec![elems as u64],
            data,
        }
        .validated(),
    );
    drop(base);
    let start = Instant::now();
    let wt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let mut w = io_w
                .open_writer("data_plane", 0, 1, writer_core, vec![writer_core], hints_w.clone())
                .unwrap();
            for step in 0..steps {
                w.begin_step(step);
                w.write("u", template.clone());
                w.end_step();
            }
            w.close();
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch(1, move |_| {
            let mut r = io_r
                .open_reader("data_plane", 0, 1, reader_core, vec![reader_core], hints.clone())
                .unwrap();
            r.subscribe("u", Selection::GlobalBox(BoxSel::whole(&[elems as u64])));
            let mut seen = 0u64;
            while let StepStatus::Step(_) = r.begin_step() {
                if seen == 0 {
                    // Correctness spot-check on the first step only, so
                    // assembly cost doesn't dominate the transport numbers.
                    let got = r
                        .read("u", &Selection::GlobalBox(BoxSel::whole(&[elems as u64])))
                        .expect("first step readable");
                    if let VarValue::Block(b) = got {
                        assert_eq!(b.data.len(), elems);
                    }
                }
                seen += 1;
                r.end_step();
            }
            assert_eq!(seen, steps);
            r.close();
        })
    });
    wt.join().unwrap();
    rt.join().unwrap();
    start.elapsed().as_secs_f64()
}

/// Marshal-only context number: legacy per-element encode + owned decode
/// roundtrip of a `BASELINE_BYTES` record. Returns GB/s over the payload.
fn legacy_marshal_gbps() -> f64 {
    let elems = BASELINE_BYTES / 8;
    let data: Vec<f64> = (0..elems).map(|i| i as f64).collect();
    let rec = Record::new().with("step", FieldValue::U64(0)).with("u", FieldValue::F64Array(data));
    let iters = 3;
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        let wire = rec.encode_legacy();
        let back = Record::decode(&wire).expect("legacy decode");
        assert_eq!(back.get_f64_array("u").map(|a| a.len()), Some(elems));
        best = best.min(t.elapsed().as_secs_f64());
    }
    BASELINE_BYTES as f64 / best / 1e9
}

fn main() {
    // `cargo bench` passes --bench; `cargo test --benches` passes --test
    // style flags. Only run the sweep for the real bench invocation.
    if std::env::args().any(|a| a == "--test") {
        println!("data_plane: skipped under test harness");
        return;
    }
    let quick = std::env::var("DATA_PLANE_QUICK").is_ok();
    // (payload bytes, steps) — step counts scale down with size so every
    // configuration moves a comparable total volume.
    let sizes: Vec<(usize, u64)> = vec![
        (4 * KIB, if quick { 20 } else { 200 }),
        (64 * KIB, if quick { 10 } else { 100 }),
        (MIB, if quick { 6 } else { 48 }),
        (64 * MIB, if quick { 2 } else { 6 }),
    ];

    eprintln!("data_plane: marshal-only legacy roundtrip (context)...");
    let marshal_gbps = legacy_marshal_gbps();
    eprintln!("data_plane: legacy marshal roundtrip {marshal_gbps:.3} GB/s");

    let mut results: Vec<RunResult> = Vec::new();
    for &(payload_bytes, steps) in &sizes {
        for transport in ["inproc", "shm"] {
            for batching in [false, true] {
                let elapsed_s = run_stream(payload_bytes, transport, batching, steps);
                let r = RunResult { payload_bytes, transport, batching, steps, elapsed_s };
                eprintln!(
                    "data_plane: {:>10} B  {:6}  batching={:5}  {:8.1} steps/s  {:7.3} GB/s",
                    r.payload_bytes,
                    r.transport,
                    r.batching,
                    r.steps_per_s(),
                    r.gbps()
                );
                results.push(r);
            }
        }
    }

    let mut rep = bench::report::Report::new("data_plane").f64(
        "legacy_marshal_roundtrip_gbps",
        marshal_gbps,
        4,
    );
    for r in &results {
        rep.push(
            bench::report::Obj::new()
                .u64("payload_bytes", r.payload_bytes as u64)
                .str("transport", r.transport)
                .bool("batching", r.batching)
                .u64("steps", r.steps)
                .f64("elapsed_s", r.elapsed_s, 6)
                .f64("steps_per_s", r.steps_per_s(), 3)
                .f64("gbps", r.gbps(), 4),
        );
    }
    rep.write();
}
