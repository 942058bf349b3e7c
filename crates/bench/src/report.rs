//! Shared JSON result writer for the `benches/*.rs` harnesses.
//!
//! Every bench emits the same shape — `{"bench": "<name>", <summary
//! fields...>, "results": [<row>, ...]}` — printed to stdout as one
//! machine-parsable line and written to `BENCH_<name>.json` at the repo
//! root (where `scripts/bench_diff.sh` compares it against the committed
//! baseline). This module owns the formatting so each harness only
//! declares its fields; no serde, no dependencies.

use std::fmt::Write as _;

/// One JSON value. Floats carry their precision so results stay stable
/// and diffable across runs.
#[derive(Debug, Clone)]
pub enum Value {
    U64(u64),
    F64 {
        v: f64,
        precision: usize,
    },
    Bool(bool),
    Str(String),
    /// Pre-rendered JSON (nested objects a bench builds itself).
    Raw(String),
}

impl Value {
    fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64 { v, precision } => {
                let _ = write!(out, "{v:.precision$}");
            }
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Raw(json) => out.push_str(json),
        }
    }
}

/// An ordered JSON object under construction (a result row, or a nested
/// summary value via [`Value::Raw`]).
#[derive(Debug, Clone, Default)]
pub struct Obj {
    fields: Vec<(String, Value)>,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn field(mut self, key: &str, value: Value) -> Obj {
        self.fields.push((key.to_string(), value));
        self
    }

    pub fn u64(self, key: &str, v: u64) -> Obj {
        self.field(key, Value::U64(v))
    }

    pub fn f64(self, key: &str, v: f64, precision: usize) -> Obj {
        self.field(key, Value::F64 { v, precision })
    }

    pub fn str(self, key: &str, v: &str) -> Obj {
        self.field(key, Value::Str(v.to_string()))
    }

    pub fn bool(self, key: &str, v: bool) -> Obj {
        self.field(key, Value::Bool(v))
    }

    /// Render as `{"k": v, ...}`.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": ");
            v.render(&mut out);
        }
        out.push('}');
        out
    }
}

/// One bench cell timed several times over: single runs of the reactor
/// cells last 4–600 ms and spread 2.5× run to run, so a row reports the
/// median run with the slowest and fastest beside it.
#[derive(Debug, Clone, Copy)]
pub struct Rate {
    pub steps_total: u64,
    /// Elapsed seconds of the slowest, median and fastest run.
    pub slowest_s: f64,
    pub median_s: f64,
    pub fastest_s: f64,
    pub runs: u64,
}

impl Rate {
    /// Call `pass` — one full pass over the cell's `steps_total` steps,
    /// returning its elapsed seconds — `runs` times.
    pub fn measure(runs: usize, steps_total: u64, pass: impl FnMut() -> f64) -> Rate {
        let mut elapsed: Vec<f64> = std::iter::repeat_with(pass).take(runs).collect();
        elapsed.sort_by(f64::total_cmp);
        Rate {
            steps_total,
            slowest_s: elapsed[runs - 1],
            median_s: elapsed[runs / 2],
            fastest_s: elapsed[0],
            runs: runs as u64,
        }
    }

    pub fn steps_per_s(&self) -> f64 {
        self.steps_total as f64 / self.median_s
    }
}

impl Obj {
    /// The measured columns of a repeated cell: `elapsed_s` and
    /// `steps_per_s` are the median run's.
    pub fn rate(self, r: &Rate) -> Obj {
        self.u64("steps_total", r.steps_total)
            .u64("runs", r.runs)
            .f64("elapsed_s", r.median_s, 6)
            .f64("steps_per_s", r.steps_per_s(), 3)
            .f64("steps_per_s_min", r.steps_total as f64 / r.slowest_s, 3)
            .f64("steps_per_s_max", r.steps_total as f64 / r.fastest_s, 3)
    }
}

/// A bench report: summary fields plus result rows, serialized in
/// declaration order with `"bench"` first and `"results"` last.
#[derive(Debug, Clone)]
pub struct Report {
    bench: String,
    summary: Obj,
    results: Vec<Obj>,
}

impl Report {
    pub fn new(bench: &str) -> Report {
        Report { bench: bench.to_string(), summary: Obj::new(), results: Vec::new() }
    }

    /// Add a top-level summary field (builder-style).
    pub fn field(mut self, key: &str, value: Value) -> Report {
        self.summary = self.summary.field(key, value);
        self
    }

    pub fn u64(self, key: &str, v: u64) -> Report {
        self.field(key, Value::U64(v))
    }

    pub fn f64(self, key: &str, v: f64, precision: usize) -> Report {
        self.field(key, Value::F64 { v, precision })
    }

    pub fn str(self, key: &str, v: &str) -> Report {
        self.field(key, Value::Str(v.to_string()))
    }

    /// Add a nested-object summary field.
    pub fn obj(self, key: &str, v: Obj) -> Report {
        self.field(key, Value::Raw(v.render()))
    }

    /// Append one result row.
    pub fn push(&mut self, row: Obj) {
        self.results.push(row);
    }

    /// The single-line JSON document.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"bench\": \"{}\"", self.bench);
        for (k, v) in &self.summary.fields {
            let _ = write!(out, ", \"{k}\": ");
            v.render(&mut out);
        }
        out.push_str(", \"results\": [");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&r.render());
        }
        out.push_str("]}");
        out
    }

    /// Print the JSON to stdout (one machine-parsable line) and write it
    /// to `BENCH_<bench>.json` at the repo root; returns the path.
    pub fn write(&self) -> String {
        let json = self.json();
        println!("{json}");
        let out = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), self.bench);
        std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
        eprintln!("{}: wrote {out}", self.bench);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_summary_then_results() {
        let mut rep = Report::new("demo")
            .u64("payload_bytes", 1024)
            .f64("speedup", 2.5, 2)
            .obj("peaks", Obj::new().f64("shm", 10.1234, 4));
        rep.push(Obj::new().u64("streams", 8).str("backend", "reactor").f64("rate", 1.5, 3));
        assert_eq!(
            rep.json(),
            "{\"bench\": \"demo\", \"payload_bytes\": 1024, \"speedup\": 2.50, \
             \"peaks\": {\"shm\": 10.1234}, \
             \"results\": [{\"streams\": 8, \"backend\": \"reactor\", \"rate\": 1.500}]}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        Value::Str("a\"b\\c".to_string()).render(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn empty_results_still_valid_json() {
        let rep = Report::new("empty");
        assert_eq!(rep.json(), "{\"bench\": \"empty\", \"results\": []}");
    }
}
