//! Smoke test of the whole benchmark in `--quick` mode: all six
//! workloads through the real stack, traced and untraced, the isolated
//! layers, the result files and the driver's one-line result. Quick
//! numbers mean nothing; what is checked is that every step verifies,
//! every declared metric is reported, and the spans tile their steps.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 6] = [
    "gts_shm",
    "s3d_tcp",
    "ctl_sync_shm",
    "query_pushdown_tcp",
    "query_reader_tcp",
    "pubsub_spill",
];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexio-benchmark"))
        .args(args)
        .output()
        .expect("run the benchmark binary")
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The value of `"key": <number>` in a flat JSON line.
fn number_after(line: &str, key: &str) -> f64 {
    let at = line.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("no {key} in {line}"));
    let rest = &line[at + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().unwrap_or_else(|e| panic!("{key}: {e} in {line}"))
}

#[test]
fn quick_run_covers_every_workload_traced_and_untraced() {
    let results = out_dir().join("smoke-results.json");
    let out =
        bench(&["run", "--quick", "--reps", "1", "--trace", "--out", results.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    assert!(last.ends_with("\"claim\": null}"), "the summary claims nothing: {last}");
    assert!(last.contains("\"correct\": true") && last.contains("\"failed\": 0"), "{last}");
    let doc = std::fs::read_to_string(&results).expect("results file written");
    assert!(doc.contains("\"quick\": true"), "quick results are marked");
    for w in WORKLOADS {
        assert!(stdout.contains(&format!("== {w} ")), "{w} did not run");
        assert!(doc.contains(&format!("\"{w}\": {{")), "{w} missing from results");
        // Lockstep spans tile each rank's step window to within 5 %.
        let trace = std::fs::read_to_string(out_dir().join(format!("trace-{w}.jsonl")))
            .unwrap_or_else(|e| panic!("trace of {w}: {e}"));
        let (mut windows, mut covered) = (0.0, 0.0);
        for line in trace.lines().filter(|l| l.contains("\"phase\": \"lockstep\"")) {
            let dur = number_after(line, "end_ns") - number_after(line, "start_ns");
            if line.contains("\"name\": \"harness.step\"") {
                windows += dur;
            } else {
                covered += dur;
            }
        }
        assert!(windows > 0.0, "{w}: no lockstep step spans");
        assert!(
            (windows - covered) / windows <= 0.05,
            "{w}: {:.1} % of the lockstep step windows is unattributed",
            100.0 * (windows - covered) / windows
        );
    }
    assert!(stdout.contains("trace.overhead_frac"), "the traced run reports its own overhead");
    assert!(stdout.contains("== isolated layers"), "the traced run includes the isolated layers");

    // `compare.py` refuses quick results instead of judging them.
    let compare = Path::new(env!("CARGO_MANIFEST_DIR")).join("compare.py");
    if let Ok(cmp) = Command::new("python3").arg(&compare).args([&results, &results]).output() {
        assert_eq!(cmp.status.code(), Some(2), "compare accepted a quick result");
        assert!(String::from_utf8_lossy(&cmp.stderr).contains("not comparable"));
    }

    // Same test, after the run above: both write `out/trace-ctl_sync_shm.jsonl`.
    driver_form_prints_the_declared_metrics_on_the_last_line();
}

fn driver_form_prints_the_declared_metrics_on_the_last_line() {
    let declared =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repo root");
    let section = |from: &str, to: &str| {
        let start = declared.find(from).expect(from);
        let end = if to.is_empty() { declared.len() } else { declared.find(to).expect(to) };
        declared[start..end].matches("\"name\": ").count()
    };
    for (trace, expected) in
        [("0", section("\"end_to_end\"", "\"per_layer\"")), ("1", section("\"per_layer\"", ""))]
    {
        let out = bench(&[
            "run",
            "--quick",
            "--workload",
            "ctl_sync_shm",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "driver form failed:\n{stdout}");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
        assert_eq!(last.matches("\"value\": ").count(), expected, "trace {trace}: {last}");
        assert_eq!(last.matches("\"unit\": ").count(), expected);
    }
}

#[test]
fn layers_quick_runs_and_verifies() {
    let out = bench(&["layers", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "layers failed:\n{stdout}");
    let last = stdout.lines().last().expect("a summary line");
    assert!(last.contains("\"correct\": true") && last.ends_with("\"claim\": null}"), "{last}");
    for layer in ["ffs.", "shm.", "tcp.", "redistribute.", "spill.", "bp.", "query.", "apps."] {
        assert!(stdout.contains(layer), "no {layer} metric in the layers run");
    }
}
