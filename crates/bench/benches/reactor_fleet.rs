//! **Reactor fleet** — steps/s and steps/s-per-core for N-thread fleets
//! driving many concurrent 1-writer/1-reader couplings, swept over
//! {1, 4, host} worker threads × {64, 1k, 10k} couplings.
//!
//! Every coupling runs the full protocol (open, handshake, data steps,
//! sync acks, EOS) as a pair of `Send` futures placed by
//! [`flexio::FleetRuntime::spawn_for`]; the NUMA-pinned shard pools are
//! live exactly as in production. The small sweeps mix in-proc and
//! shared-memory transports; the 10k-coupling cell runs in-proc only so
//! queue memory (entries × inline capacity × channels × couplings) stays
//! bounded — that cell exists to prove the fleet *sustains* ten thousand
//! live protocol state machines, not to measure copy bandwidth.
//!
//! `host_cores` is recorded in the JSON: on a single-core host every
//! thread count shares one CPU, so steps/s cannot scale with threads and
//! steps/s-per-core is the honest figure (see EXPERIMENTS.md).
//!
//! Every cell runs [`RUNS`] times and reports the median run (see
//! [`bench::report::Rate`]). Results land in `BENCH_reactor_fleet.json`
//! at the repo root. Run with `cargo bench --bench reactor_fleet`; set
//! `FLEET_QUICK=1` for the smoke-sized sweep `scripts/verify.sh` uses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adios::{
    ArrayData, BoxSel, LocalBlock, ReadEngine, Selection, StepStatus, VarValue, WriteEngine,
};
use bench::report::Rate;
use flexio::{CachingLevel, FleetRuntime, FlexIo, StreamHints, WriteMode};
use machine::laptop;

const ELEMS: usize = 128; // 1 KiB of f64 per step
const RUNS: usize = 5;

struct RunResult {
    threads: usize,
    couplings: usize,
    transport: &'static str,
    rate: Rate,
}

impl RunResult {
    fn steps_per_s_per_thread(&self) -> f64 {
        self.rate.steps_per_s() / self.threads as f64
    }
}

fn hints() -> StreamHints {
    StreamHints {
        // Sync mode bounds each coupling's in-flight data; small queues
        // keep 10k couplings' channel memory affordable.
        write_mode: WriteMode::Sync,
        caching: CachingLevel::CachingAll,
        queue_entries: 8,
        ..StreamHints::default()
    }
}

fn payload(stream: usize, step: u64) -> VarValue {
    let data: Vec<f64> = (0..ELEMS).map(|e| (stream * ELEMS + e) as f64 + step as f64).collect();
    VarValue::Block(
        LocalBlock {
            global_shape: vec![ELEMS as u64],
            offset: vec![0],
            count: vec![ELEMS as u64],
            data: ArrayData::F64(data),
        }
        .validated(),
    )
}

/// Drive `couplings` writer/reader pairs to completion on a
/// `threads`-worker fleet; returns the elapsed seconds.
fn run_fleet(threads: usize, couplings: usize, steps: u64, inproc_only: bool) -> f64 {
    let io = FlexIo::single_node(laptop());
    let fleet = FleetRuntime::new(&laptop(), threads);
    let steps_read = Arc::new(AtomicU64::new(0));
    let start = Instant::now();

    for i in 0..couplings {
        let wcore = laptop().node.location_of(i % laptop().total_cores());
        // Same-core endpoints select the in-proc transport; cross-core
        // pairs exercise the pooled shm path.
        let rcore = if inproc_only || i % 2 == 0 {
            wcore
        } else {
            laptop().node.location_of((i + 1) % laptop().total_cores())
        };
        let name = format!("fleet{i}");

        let io_w = io.clone();
        let name_w = name.clone();
        fleet.spawn_for(&[wcore], async move {
            let mut w = io_w
                .open_writer_rt(&name_w, 0, 1, wcore, vec![wcore], hints())
                .await
                .expect("open writer");
            for step in 0..steps {
                w.begin_step(step);
                w.write("u", payload(i, step));
                w.end_step_rt().await.expect("end_step");
            }
            w.close();
        });

        let io_r = io.clone();
        let counted = Arc::clone(&steps_read);
        fleet.spawn_for(&[rcore], async move {
            let mut r = io_r
                .open_reader_rt(&name, 0, 1, rcore, vec![rcore], hints())
                .await
                .expect("open reader");
            r.subscribe("u", Selection::GlobalBox(BoxSel::whole(&[ELEMS as u64])));
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
            counted.fetch_add(seen, Ordering::Relaxed);
        });
    }

    fleet.join();
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(
        steps_read.load(Ordering::Relaxed),
        couplings as u64 * steps,
        "every coupling completed every step"
    );
    elapsed
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("reactor_fleet: skipped under test harness");
        return;
    }
    let quick = std::env::var("FLEET_QUICK").is_ok();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Steps per coupling shrink as the coupling count grows so every
    // cell moves a comparable total step volume; the largest cell is
    // about sustaining concurrency, not throughput.
    let coupling_sweep: Vec<(usize, u64, bool)> = if quick {
        vec![(64, 4, false), (256, 1, true)]
    } else {
        vec![(64, 8, false), (1024, 2, false), (10240, 1, true)]
    };
    let mut thread_sweep: Vec<usize> = vec![1, 4, host_cores];
    thread_sweep.sort_unstable();
    thread_sweep.dedup();

    let mut results: Vec<RunResult> = Vec::new();
    for &(couplings, steps, inproc_only) in &coupling_sweep {
        for &threads in &thread_sweep {
            let rate = Rate::measure(RUNS, couplings as u64 * steps, || {
                run_fleet(threads, couplings, steps, inproc_only)
            });
            let transport = if inproc_only { "inproc" } else { "mixed" };
            let r = RunResult { threads, couplings, transport, rate };
            eprintln!(
                "reactor_fleet: {:2} threads  {:5} couplings  {:6}  {:9.1} steps/s  \
                 {:9.1} steps/s/core",
                r.threads,
                r.couplings,
                r.transport,
                r.rate.steps_per_s(),
                r.steps_per_s_per_thread()
            );
            results.push(r);
        }
    }

    let mut rep = bench::report::Report::new("reactor_fleet")
        .u64("payload_bytes", (ELEMS * 8) as u64)
        .u64("host_cores", host_cores as u64);
    for r in &results {
        rep.push(
            bench::report::Obj::new()
                .u64("threads", r.threads as u64)
                .u64("couplings", r.couplings as u64)
                .str("transport", r.transport)
                .rate(&r.rate)
                .f64("steps_per_s_per_thread", r.steps_per_s_per_thread(), 3),
        );
    }
    rep.write();
}
