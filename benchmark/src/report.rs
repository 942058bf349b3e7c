//! Turns repetitions into named metrics: the end-to-end table, the
//! per-layer ledger, provenance, and the trace file.

use std::io::Write as _;
use std::path::Path;

use crate::harness::{median, peak_rss_mib, percentile, quartiles, tail_percentile, Span};
use crate::json::Json;
use crate::layers::LayerValue;
use crate::run::{plans, span_totals, unattributed, Counts, RepOut};
use crate::workloads::Workload;

/// A metric's name, unit and the direction that is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the coupled system sees, every workload. `BENCHMARK.json`
/// fixes a regression bound for each. `failed_step_frac` is reported beside
/// them (and gates the exit code) but is not bounded there: it is 0 on
/// every healthy run, and the driver carries it as `failed`/`attempted`.
const END_TO_END: [MetricDef; 7] = [
    def("steps_per_s", "1/s", "higher"),
    def("writer_visible_io_ms_p50", "ms", "lower"),
    def("step_latency_ms_p50", "ms", "lower"),
    def("cpu_ms_per_step", "ms", "lower"),
    def("step_time_drift", "ratio", "lower"),
    def("wire_bytes_per_step", "B", "lower"),
    def("setup_s", "s", "lower"),
];

/// What a run reports for an end-to-end metric, from its per-repetition
/// values. The host only ever slows a repetition down (a neighbour on the
/// core, a page fault, a late timer) and how many it slows changes by
/// the minute while the fast end stays put: over ten-run sets the quartile
/// on the good side spread an eighth less than the median on average and
/// a quarter less in the worst cell (README, calibration). So the
/// one-sided timings report that quartile — the level the quieter quarter
/// of the run's repetitions reach. A ratio (`step_time_drift`) errs both ways
/// and a byte count not at all: those report the median.
fn run_value(d: &MetricDef, raw: &[f64]) -> f64 {
    match (d.name, d.better) {
        ("step_time_drift" | "wire_bytes_per_step", _) => median(raw),
        // Never report a failure away: the worst repetition.
        ("failed_step_frac", _) => raw.iter().copied().fold(0.0, f64::max),
        (_, "higher") => percentile(raw, 0.75),
        _ => percentile(raw, 0.25),
    }
}

/// In-situ spans of the traced run: `(metric, span name)`, p50 ns per
/// step over the lockstep phase.
const IN_SITU: [(&str, &str); 10] = [
    ("writer.write_ns", "writer.write"),
    ("writer.end_step_ns", "writer.end_step"),
    ("reader.begin_step_ns", "reader.begin_step"),
    ("reader.read_ns", "reader.read"),
    ("reader.end_step_ns", "reader.end_step"),
    ("apps.analytics_ns", "apps.analytics"),
    ("query.session_step_ns", "query.session_step"),
    ("pubsub.publish_ns", "pubsub.publish"),
    ("pubsub.fetch_ns", "pubsub.fetch"),
    ("harness.verify_ns", "harness.verify"),
];

/// Per-layer metrics a traced workload run produces itself, after the
/// in-situ spans; the isolated layers follow (see [`crate::layers`]).
const DERIVED: [MetricDef; 13] = [
    def("step.unattributed_ns", "ns", "lower"),
    def("step.unattributed_frac", "ratio", "lower"),
    def("writer.end_step_ns_p99", "ns", "lower"),
    def("reader.step_latency_ms_p99", "ms", "lower"),
    def("trace.overhead_frac", "ratio", "lower"),
    def("protocol.handshake_msgs_per_step", "count", "lower"),
    def("protocol.data_msgs_per_step", "count", "lower"),
    def("monitor.allocs_per_step", "count", "lower"),
    def("query.rows_in_per_step", "count", "lower"),
    def("query.rows_out_per_step", "count", "lower"),
    def("query.bytes_saved_per_step", "B", "higher"),
    def("pubsub.spill_bytes_per_step", "B", "lower"),
    def("proc.peak_rss_mib", "MiB", "lower"),
];

/// Latency-like samples pooled over repetitions, with the percentiles
/// the sample count supports.
pub struct Tail {
    pub samples: Vec<f64>,
}

impl Tail {
    fn json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj([
            ("samples", Json::Int(self.samples.len() as u64)),
            ("p50", Json::Num(percentile(&self.samples, 0.50))),
            ("p99", opt(tail_percentile(&self.samples, 0.99))),
            ("p999", opt(tail_percentile(&self.samples, 0.999))),
        ])
    }
}

/// Everything measured for one workload.
pub struct WorkloadSummary {
    pub workload: Workload,
    pub quick: bool,
    /// End-to-end metrics, one raw value per untraced repetition, in
    /// [`END_TO_END`] order.
    pub e2e: Vec<Vec<f64>>,
    pub failed_step_frac: Vec<f64>,
    pub io_ms: Tail,
    pub latency_ms: Tail,
    pub attempted: u64,
    pub failed: u64,
    /// Every step verified and every per-step series is whole.
    pub correct: bool,
    pub rep_wall_s: Vec<f64>,
    /// Steps/s of traced repetitions (empty in an untraced run).
    traced_steps_per_s: Vec<f64>,
    /// Per in-situ metric, its per-step p50 in each traced repetition.
    in_situ: Vec<Vec<f64>>,
    end_step_ns: Vec<f64>,
    unattributed: Vec<(f64, f64)>,
    counts: (Counts, Counts),
    /// Spans of the last traced repetition, for the trace file.
    pub spans: Vec<Span>,
}

impl WorkloadSummary {
    pub fn new(workload: Workload, quick: bool) -> WorkloadSummary {
        WorkloadSummary {
            workload,
            quick,
            e2e: vec![Vec::new(); END_TO_END.len()],
            failed_step_frac: Vec::new(),
            io_ms: Tail { samples: Vec::new() },
            latency_ms: Tail { samples: Vec::new() },
            attempted: 0,
            failed: 0,
            correct: true,
            rep_wall_s: Vec::new(),
            traced_steps_per_s: Vec::new(),
            in_situ: vec![Vec::new(); IN_SITU.len()],
            end_step_ns: Vec::new(),
            unattributed: Vec::new(),
            counts: (Counts::default(), Counts::default()),
            spans: Vec::new(),
        }
    }

    /// Fold one repetition in. End-to-end metrics come from untraced
    /// repetitions only; traced ones feed the in-situ ledger.
    pub fn add(&mut self, rep: RepOut) {
        let w = self.workload;
        self.attempted += rep.attempted();
        self.failed += rep.failed();
        self.correct &= rep.failed() == 0 && rep.complete(w, self.quick);
        self.rep_wall_s.push(rep.wall_s);
        self.counts = (rep.pipelined.counts, rep.lockstep.counts);
        if rep.traced {
            self.traced_steps_per_s.push(rep.steps_per_s(w));
            for (slot, (_, span)) in self.in_situ.iter_mut().zip(IN_SITU) {
                slot.push(median(&span_totals(&rep.lockstep.spans, span)));
            }
            self.end_step_ns.extend(span_totals(&rep.lockstep.spans, "writer.end_step"));
            self.unattributed.extend(unattributed(&rep.lockstep.spans));
            self.spans = rep.pipelined.spans;
            self.spans.extend(rep.lockstep.spans);
            return;
        }
        let io = rep.writer_visible_io_ms();
        let latency = rep.step_latency_ms();
        let values = [
            rep.steps_per_s(w),
            median(&io),
            median(&latency),
            rep.cpu_ms_per_step(),
            rep.step_time_drift(w),
            rep.wire_bytes_per_step(),
            rep.setup_s(),
        ];
        for (slot, v) in self.e2e.iter_mut().zip(values) {
            slot.push(v);
        }
        self.failed_step_frac.push(rep.failed() as f64 / rep.attempted().max(1) as f64);
        self.io_ms.samples.extend(io);
        self.latency_ms.samples.extend(latency);
    }

    fn e2e_median(&self, i: usize) -> f64 {
        median(&self.e2e[i])
    }

    /// The end-to-end metrics as the driver reads them: one value each.
    pub fn end_to_end(&self) -> Vec<LayerValue> {
        END_TO_END
            .iter()
            .zip(&self.e2e)
            .map(|(d, raw)| LayerValue {
                name: d.name,
                unit: d.unit,
                value: run_value(d, raw),
                samples: raw.len(),
            })
            .collect()
    }

    /// The per-layer values this workload's traced run produced: in-situ
    /// spans, derived values and exact counts — everything but the
    /// isolated layers.
    pub fn ledger(&self) -> Vec<LayerValue> {
        let traced = self.traced_steps_per_s.len();
        let mut out: Vec<LayerValue> = IN_SITU
            .iter()
            .zip(&self.in_situ)
            .map(|((name, _), per_rep)| LayerValue {
                name,
                unit: "ns",
                value: median(per_rep),
                samples: traced,
            })
            .collect();
        let gaps: Vec<f64> = self.unattributed.iter().map(|(gap, _)| *gap).collect();
        let fracs: Vec<f64> = self
            .unattributed
            .iter()
            .map(|(gap, window)| if *window > 0.0 { gap / window } else { 0.0 })
            .collect();
        let untraced = self.e2e_median(0);
        let overhead = if untraced > 0.0 && traced > 0 {
            1.0 - median(&self.traced_steps_per_s) / untraced
        } else {
            0.0
        };
        let (pipe, lock) = &self.counts;
        // Exact counts over both streams of the last repetition.
        let steps = (pipe.steps + lock.steps).max(1) as f64;
        let per_step = |a: u64, b: u64| (a + b) as f64 / steps;
        let query = |pick: fn(&(u64, u64, u64)) -> u64| {
            per_step(pipe.query.as_ref().map_or(0, pick), lock.query.as_ref().map_or(0, pick))
        };
        let derived = [
            (median(&gaps), gaps.len()),
            (median(&fracs), fracs.len()),
            (percentile(&self.end_step_ns, 0.99), self.end_step_ns.len()),
            (percentile(&self.latency_ms.samples, 0.99), self.latency_ms.samples.len()),
            (overhead, traced),
            (per_step(pipe.handshake_msgs, lock.handshake_msgs), 1),
            (per_step(pipe.data_msgs, lock.data_msgs), 1),
            (per_step(pipe.allocs, lock.allocs), 1),
            (query(|q| q.0), 1),
            (query(|q| q.1), 1),
            (query(|q| q.2), 1),
            (per_step(pipe.spill_bytes, lock.spill_bytes), 1),
            (peak_rss_mib(), 1),
        ];
        out.extend(DERIVED.iter().zip(derived).map(|(d, (value, samples))| LayerValue {
            name: d.name,
            unit: d.unit,
            value,
            samples,
        }));
        out
    }

    pub fn print(&self, traced: bool) {
        let spec = self.workload.spec();
        let (pp, lp) = plans(self.workload, self.quick);
        println!(
            "\n== {} — {} untraced repetition(s), {} + {} timed steps (+{} warm-up each){}",
            spec.name,
            self.e2e[0].len(),
            pp.timed,
            lp.timed,
            pp.warmup,
            if self.quick { " [quick: numbers are not comparable]" } else { "" }
        );
        if !self.workload.gated() {
            println!("   not gated by BENCHMARK.json: its timings follow the host, not the program (README)");
        }
        println!("   {}", spec.why);
        println!(
            "   {:<28} {:>6} {:>14} {:>14} {:>14} {:>14}",
            "metric", "unit", "value", "median", "q1", "q3"
        );
        for (d, raw) in END_TO_END.iter().zip(&self.e2e) {
            let (q1, med, q3) = quartiles(raw);
            println!(
                "   {:<28} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4}",
                d.name,
                d.unit,
                run_value(d, raw),
                med,
                q1,
                q3
            );
        }
        println!(
            "   {:<28} {:>6} {:>14.6}   ({} of {} steps failed)",
            "failed_step_frac",
            "ratio",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (label, tail) in
            [("writer_visible_io_ms", &self.io_ms), ("step_latency_ms", &self.latency_ms)]
        {
            let show = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.4}"));
            println!(
                "   {label}: p99 {} p999 {} over {} samples (reported, not bounded)",
                show(tail_percentile(&tail.samples, 0.99)),
                show(tail_percentile(&tail.samples, 0.999)),
                tail.samples.len()
            );
        }
        if traced {
            println!("   per-layer (traced run, lockstep phase p50 per step; exact counts):");
            for v in self.ledger() {
                println!("   {:<36} {:>6} {:>16.4}", v.name, v.unit, v.value);
            }
        }
    }

    pub fn json(&self, traced: bool) -> Json {
        let spec = self.workload.spec();
        let (pp, lp) = plans(self.workload, self.quick);
        let metric = |d: &MetricDef, raw: &[f64]| {
            let (q1, med, q3) = quartiles(raw);
            (
                d.name,
                Json::obj([
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better)),
                    ("value", Json::Num(run_value(d, raw))),
                    ("median", Json::Num(med)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("raw", Json::nums(raw)),
                ]),
            )
        };
        let mut e2e: Vec<(&str, Json)> =
            END_TO_END.iter().zip(&self.e2e).map(|(d, raw)| metric(d, raw)).collect();
        e2e.push(metric(&def("failed_step_frac", "ratio", "lower"), &self.failed_step_frac));
        let mut fields = vec![
            ("why", Json::str(spec.why)),
            ("gated", Json::Bool(self.workload.gated())),
            ("shape", Json::str(spec.shape)),
            ("written_bytes_per_step", Json::Int(spec.written_bytes_per_step)),
            (
                "steps",
                Json::obj([
                    ("warmup_per_phase", Json::Int(pp.warmup)),
                    ("pipelined", Json::Int(pp.timed)),
                    ("lockstep", Json::Int(lp.timed)),
                ]),
            ),
            ("repetitions", Json::Int(self.e2e[0].len() as u64)),
            ("repetition_wall_s", Json::nums(&self.rep_wall_s)),
            ("attempted_steps", Json::Int(self.attempted)),
            ("failed_steps", Json::Int(self.failed)),
            ("correct", Json::Bool(self.correct)),
            ("end_to_end", Json::obj(e2e)),
            (
                "percentiles",
                Json::obj([
                    ("writer_visible_io_ms", self.io_ms.json()),
                    ("step_latency_ms", self.latency_ms.json()),
                ]),
            ),
        ];
        if traced {
            fields.push(("per_layer", ledger_json(&self.ledger())));
        }
        Json::obj(fields)
    }

    /// Write the spans of the last traced repetition as JSON lines.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let name = self.workload.spec().name;
        for (id, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let line = Json::obj([
                ("workload", Json::str(name)),
                ("phase", Json::str(s.phase.name())),
                ("step", Json::Int(s.step)),
                ("rank", Json::str(s.rank.name())),
                ("layer", Json::str(layer)),
                ("name", Json::str(s.name)),
                ("id", Json::Int(id as u64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                ("start_ns", Json::Int(s.start_ns)),
                ("end_ns", Json::Int(s.end_ns)),
                ("bytes", Json::Int(s.bytes)),
            ]);
            writeln!(f, "{line}")?;
        }
        f.flush()
    }
}

pub fn ledger_json(values: &[LayerValue]) -> Json {
    Json::obj(values.iter().map(|v| {
        (
            v.name,
            Json::obj([
                ("value", Json::Num(v.value)),
                ("unit", Json::str(v.unit)),
                ("samples", Json::Int(v.samples as u64)),
            ]),
        )
    }))
}

pub fn print_layers(metrics: &[LayerValue]) {
    println!("\n== isolated layers (median of the stated number of calls)");
    for m in metrics {
        println!("   {:<36} {:>6} {:>16.4}   ({} calls)", m.name, m.unit, m.value, m.samples);
    }
}

/// Where and how the numbers were taken.
pub fn provenance(seed: u64, quick: bool, manifest_dir: &Path) -> Json {
    let output = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(manifest_dir)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj([
        ("git_commit", Json::Str(output("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64)),
        ("rustc", Json::Str(output("rustc", &["--version"]))),
        ("seed", Json::Int(seed)),
        ("quick", Json::Bool(quick)),
        ("timestamp_unix_s", Json::Int(timestamp)),
        (
            "io_note",
            Json::str("pubsub_spill reads and writes the page cache of a VM disk, not a disk"),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly the metrics and workloads
    /// the code reports; a name that drifts would fail the driver only
    /// after a full build.
    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let declares = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
        for d in &END_TO_END {
            assert!(declares(d.name), "end-to-end metric {} is not declared", d.name);
        }
        for name in IN_SITU.iter().map(|(n, _)| *n).chain(DERIVED.iter().map(|d| d.name)) {
            assert!(declares(name), "per-layer metric {name} is not declared");
        }
        let gated: Vec<Workload> = Workload::ALL.into_iter().filter(|w| w.gated()).collect();
        for w in Workload::ALL {
            assert_eq!(declares(w.spec().name), w.gated(), "workload {}", w.spec().name);
        }
        let declared = text.matches("\"name\": ").count();
        let out_dir = crate::harness::manifest_dir().join("out");
        std::fs::create_dir_all(&out_dir).expect("create out/");
        let (layers, _) = crate::layers::run_layers(true, &out_dir);
        for m in &layers {
            assert!(declares(m.name), "isolated layer {} is not declared", m.name);
        }
        assert_eq!(
            declared,
            END_TO_END.len() + IN_SITU.len() + DERIVED.len() + layers.len() + gated.len(),
            "BENCHMARK.json declares a name the benchmark does not report"
        );
    }
}
