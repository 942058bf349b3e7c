//! **Query pushdown** — bytes moved across the transport, and wall
//! clock, for a selective filter evaluated writer-side vs reader-side.
//!
//! One writer streams 1 MiB f64 chunks over loopback TCP; the reader
//! runs the same `field < 0.2` plan (20%-selective on the synthetic
//! data) both ways: with the filter shipped to the writer as a typed
//! Data Conditioning plug-in, and fully reader-side. Both must produce
//! bit-identical query outputs. Two gates — the paper's
//! location-flexibility argument in miniature, moving the computation
//! beats moving the data: the wire-bytes ratio (no-pushdown / pushdown)
//! must exceed 3×, and pushdown must not be slower than reader-side
//! (`steps_per_s`, best of the alternating passes; printed but not
//! asserted in quick mode, whose 24 steps are mostly stream set-up).
//!
//! Results land in `BENCH_query.json`. Run with
//! `cargo bench --bench query`; set `QUERY_QUICK=1` for smoke runs.

use std::thread;
use std::time::{Duration, Instant};

use adios::{ArrayData, LocalBlock, VarValue, WriteEngine};
use flexio::query::{Expr, Plan};
use flexio::{FlexIo, MonitorEvent, QueryConfig, QuerySession, StreamHints, Transport};
use machine::laptop;

/// 1 MiB of f64 per chunk.
const ELEMS: usize = 128 * 1024;

fn hints() -> StreamHints {
    StreamHints {
        recv_timeout: Duration::from_secs(10),
        retries: 2,
        transport: Transport::Tcp,
        ..StreamHints::default()
    }
}

fn payload(step: u64) -> VarValue {
    // Values cycle 0.000..0.999, shifted per step so every step differs;
    // `field < 0.2` keeps exactly 20% regardless of the shift.
    let data: Vec<f64> =
        (0..ELEMS).map(|i| ((i as u64 + step * 7) % 1000) as f64 / 1000.0).collect();
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

struct RunOut {
    wire_bytes: u64,
    rows_in: u64,
    rows_out: u64,
    bytes_pushed_down: u64,
    bytes_saved: u64,
    elapsed_s: f64,
    digest: u64,
}

fn run(pushdown: bool, steps: u64) -> RunOut {
    let io = FlexIo::new(laptop(), 4);
    let io_w = io.clone();
    let m = laptop();
    let wcore = m.node.location_of(0);
    let rcore = m.node.location_of(m.total_cores() - 1);
    let start = Instant::now();
    let wt = thread::spawn(move || {
        rankrt::launch_named(1, "sim", move |_comm| {
            let mut w = io_w
                .open_writer("query-bench", 0, 1, wcore, vec![wcore], hints())
                .expect("open writer");
            for step in 0..steps {
                w.begin_step(step);
                w.write("field", payload(step));
                w.end_step();
            }
            let bytes = w.link().monitor.total_bytes(MonitorEvent::DataSend);
            w.close();
            bytes
        })
    });
    let rt = thread::spawn(move || {
        rankrt::launch_named(1, "ana", move |_comm| {
            let r = io
                .open_reader("query-bench", 0, 1, rcore, vec![rcore], hints())
                .expect("open reader");
            let plan = Plan::select(&["field"]).filter(Expr::col("field").lt(Expr::lit(0.2)));
            let cfg = QueryConfig { pushdown, ..QueryConfig::default() };
            let session = QuerySession::attach(r, 1, plan, cfg).expect("attach");
            assert_eq!(session.pushdown_active(), pushdown);
            let counters = session.counters();
            let out = session.run_to_end().expect("query run");
            (counters.snapshot(), out.digest())
        })
    });
    let wire_bytes = wt.join().expect("writer")[0];
    let ((rows_in, rows_out, bytes_pushed_down, bytes_saved), digest) =
        rt.join().expect("reader").pop().expect("one reader");
    RunOut {
        wire_bytes,
        rows_in,
        rows_out,
        bytes_pushed_down,
        bytes_saved,
        elapsed_s: start.elapsed().as_secs_f64(),
        digest,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--test") {
        println!("query: skipped under test harness");
        return;
    }
    let quick = std::env::var("QUERY_QUICK").is_ok();
    let steps: u64 = if quick { 24 } else { 240 };

    // Alternating passes, fastest kept per mode: everything but
    // `elapsed_s` repeats exactly from pass to pass.
    let passes = if quick { 1 } else { 3 };
    let (with, without): (Vec<RunOut>, Vec<RunOut>) =
        (0..passes).map(|_| (run(true, steps), run(false, steps))).unzip();
    let fastest = |runs: Vec<RunOut>| {
        runs.into_iter().min_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s)).expect("one pass")
    };
    let (with, without) = (fastest(with), fastest(without));

    // Correctness gates first: pushdown must be result-invisible, and
    // the counters must account for exactly the bytes that stayed home.
    assert_eq!(with.digest, without.digest, "pushdown changed the query result");
    assert_eq!(with.rows_in, steps * ELEMS as u64);
    assert_eq!((without.bytes_pushed_down, without.bytes_saved), (0, 0));
    assert_eq!(with.bytes_pushed_down, with.rows_in * 8, "all chunks conditioned writer-side");
    assert_eq!(with.bytes_saved, (with.rows_in - with.rows_out) * 8);

    let ratio = without.wire_bytes as f64 / with.wire_bytes as f64;
    let selectivity = with.rows_out as f64 / with.rows_in as f64;
    eprintln!(
        "query: {:.1}% selective filter, wire bytes {} -> {} ({ratio:.2}x reduction)",
        selectivity * 100.0,
        without.wire_bytes,
        with.wire_bytes
    );
    assert!(
        ratio >= 3.0,
        "writer-side pushdown must cut bytes moved by >= 3x on a 20%-selective \
         filter (got {ratio:.2}x: {} -> {} bytes)",
        without.wire_bytes,
        with.wire_bytes
    );

    let speedup = without.elapsed_s / with.elapsed_s;
    eprintln!(
        "query: pushdown {:.0} steps/s vs reader-side {:.0} steps/s on tcp ({speedup:.2}x)",
        steps as f64 / with.elapsed_s,
        steps as f64 / without.elapsed_s
    );
    assert!(
        quick || speedup >= 1.0,
        "pushdown must not lose wall-clock to reader-side evaluation at 20% \
         selectivity on tcp (got {speedup:.2}x)"
    );

    let mut rep = bench::report::Report::new("query")
        .str("transport", "tcp")
        .u64("chunk_bytes", (ELEMS * 8) as u64)
        .f64("selectivity", selectivity, 3)
        .f64("bytes_moved_ratio", ratio, 2)
        .f64("pushdown_speedup", speedup, 2);
    for (mode, r) in [("pushdown", &with), ("reader_side", &without)] {
        rep.push(
            bench::report::Obj::new()
                .str("mode", mode)
                .u64("steps", steps)
                .u64("wire_bytes", r.wire_bytes)
                .u64("rows_in", r.rows_in)
                .u64("rows_out", r.rows_out)
                .u64("bytes_pushed_down", r.bytes_pushed_down)
                .u64("bytes_saved", r.bytes_saved)
                .f64("elapsed_s", r.elapsed_s, 6)
                .f64("steps_per_s", steps as f64 / r.elapsed_s, 3),
        );
    }
    rep.write();
}
