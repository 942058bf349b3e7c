//! The coupled-step benchmark of the FlexIO reproduction.
//!
//! ```text
//! flexio-benchmark run    [--workload W] [--seed N] [--reps R | --seconds S]
//!                         [--trace [0|1]] [--quick] [--out FILE]
//! flexio-benchmark layers [--quick]
//! ```
//!
//! `run` drives every workload (or the one named) through the real
//! writer → transport → reader stack, verifies every step, and prints
//! every metric by name with its unit. `run --trace` is the separate
//! traced run: it alternates untraced and traced repetitions, writes
//! `out/trace-<workload>.jsonl`, and adds the per-layer ledger and the
//! isolated layers. `layers` runs only the isolated layers. With
//! `--workload` the last line of standard output is the one JSON object
//! the repository's benchmark driver reads. Comparing two result files
//! is `compare.py`.

mod harness;
mod json;
mod layers;
mod report;
mod run;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use report::WorkloadSummary;
use workloads::Workload;

/// Seconds per workload when neither `--reps` nor `--seconds` is given:
/// the driver's run length (`run_seconds` in `BENCHMARK.json`), 20 to 70
/// repetitions. Five repetitions are too few: the first is slow, and
/// `step_time_drift` of `ctl_sync_shm` is bimodal per repetition.
const DEFAULT_SECONDS: f64 = 32.0;

enum Budget {
    Reps(usize),
    Seconds(f64),
}

struct Options {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.spec().name).collect();
    format!(
        "usage: flexio-benchmark run [--workload W] [--seed N] [--reps R | --seconds S] \
         [--trace [0|1]] [--quick] [--out FILE]\n       flexio-benchmark layers [--quick]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: String::new(),
        workload: None,
        seed: 1,
        budget: Budget::Seconds(DEFAULT_SECONDS),
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    match it.next().map(String::as_str) {
        Some(cmd @ ("run" | "layers")) => opts.command = cmd.to_string(),
        Some(other) => return Err(format!("unknown command `{other}`")),
        None => return Err("no command".to_string()),
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                opts.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--reps" => {
                let n: usize = value("a count")?.parse().map_err(|e| format!("--reps: {e}"))?;
                opts.budget = Budget::Reps(n.max(1));
            }
            "--seconds" => {
                let s: f64 = value("a duration")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                opts.budget = Budget::Seconds(s);
            }
            "--trace" => {
                // Bare `--trace` turns tracing on; the driver passes 0 or 1.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Share of a `--seconds` budget a traced run spends on the workload;
/// the rest is for the isolated layers, which take about 1.5 s.
const TRACED_WORKLOAD_SHARE: f64 = 0.85;

/// Run one workload within its budget. A traced run alternates untraced
/// and traced repetitions, so `trace.overhead_frac` compares like with
/// like inside one process.
fn run_workload(w: Workload, opts: &Options, scratch: &Path) -> WorkloadSummary {
    harness::reset_peak_rss();
    let mut summary = WorkloadSummary::new(w, opts.quick);
    let start = Instant::now();
    // A traced run needs repetitions in pairs, one of each kind.
    let group = if opts.trace { 2 } else { 1 };
    let mut done = 0usize;
    loop {
        let traced = opts.trace && done % 2 == 1;
        let rep = run::run_rep(w, opts.seed, opts.quick, traced, scratch);
        eprintln!(
            "{}: repetition {} ({}) took {:.2} s",
            w.spec().name,
            done + 1,
            if traced { "traced" } else { "untraced" },
            rep.wall_s
        );
        summary.add(rep);
        done += 1;
        if !done.is_multiple_of(group) {
            continue;
        }
        let enough = match opts.budget {
            Budget::Reps(n) => done >= n * group,
            Budget::Seconds(s) => {
                // Stop when the next group of repetitions would overrun.
                let limit = if opts.trace { s * TRACED_WORKLOAD_SHARE } else { s };
                let elapsed = start.elapsed().as_secs_f64();
                elapsed + elapsed / done as f64 * group as f64 > limit
            }
        };
        if enough {
            break;
        }
    }
    summary
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let manifest_dir = harness::manifest_dir();
    let out_dir = manifest_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    if opts.command == "layers" {
        let (metrics, ok) = layers::run_layers(opts.quick, &out_dir);
        report::print_layers(&metrics);
        let doc = Json::obj([
            ("schema", Json::str("flexio-benchmark/layers/1")),
            ("provenance", report::provenance(opts.seed, opts.quick, &manifest_dir)),
            ("layers", report::ledger_json(&metrics)),
            ("correct", Json::Bool(ok)),
            ("claim", Json::Null),
        ]);
        println!("{doc}");
        return if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let workloads: Vec<Workload> = opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut summaries = Vec::new();
    for &w in &workloads {
        let summary = run_workload(w, &opts, &out_dir);
        summary.print(opts.trace);
        if opts.trace {
            let path = out_dir.join(format!("trace-{}.jsonl", w.spec().name));
            match summary.write_trace(&path) {
                Ok(()) => println!("   trace: {} ({} spans)", path.display(), summary.spans.len()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
        summaries.push(summary);
    }
    let (layer_metrics, layers_ok) = if opts.trace {
        let (metrics, ok) = layers::run_layers(opts.quick, &out_dir);
        report::print_layers(&metrics);
        (metrics, ok)
    } else {
        (Vec::new(), true)
    };

    let correct = layers_ok && summaries.iter().all(|s| s.correct);
    let doc = Json::obj([
        ("schema", Json::str("flexio-benchmark/results/1")),
        ("traced", Json::Bool(opts.trace)),
        ("provenance", report::provenance(opts.seed, opts.quick, &manifest_dir)),
        (
            "workloads",
            Json::obj(summaries.iter().map(|s| (s.workload.spec().name, s.json(opts.trace)))),
        ),
        ("layers", report::ledger_json(&layer_metrics)),
        ("correct", Json::Bool(correct)),
        ("claim", Json::Null),
    ]);
    let out_path = opts.out.clone().unwrap_or_else(|| {
        out_dir.join(if opts.trace { "results-traced.json" } else { "results.json" })
    });
    match std::fs::write(&out_path, doc.pretty()) {
        Ok(()) => println!("\nresults: {}", out_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", out_path.display()),
    }

    match (opts.workload, summaries.first()) {
        // One workload: the last line is the driver's result object, with
        // the end-to-end metrics of an untraced run or the whole
        // per-layer ledger of a traced one.
        (Some(_), Some(s)) => {
            let values = if opts.trace {
                let mut values = s.ledger();
                values.extend(layer_metrics);
                values
            } else {
                s.end_to_end()
            };
            let metrics = values.into_iter().map(|v| {
                (v.name, Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]))
            });
            let line = Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Int(s.attempted.max(1))),
                ("failed", Json::Int(s.failed)),
                ("metrics", Json::obj(metrics)),
            ]);
            println!("{line}");
        }
        // Every workload: a summary that claims nothing.
        _ => {
            let failed: u64 = summaries.iter().map(|s| s.failed).sum();
            let attempted: u64 = summaries.iter().map(|s| s.attempted).sum();
            let line = Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Int(attempted)),
                ("failed", Json::Int(failed)),
                ("results", Json::Str(out_path.display().to_string())),
                ("claim", Json::Null),
            ]);
            println!("{line}");
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("outputs did not verify: see failed_step_frac above");
        ExitCode::FAILURE
    }
}
