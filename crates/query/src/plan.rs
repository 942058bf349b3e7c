//! Logical query plans and their outputs.

use crate::expr::{Expr, ExprType, Program, MAX_DEPTH};
use adios::ArrayData;
use evpath::{fnv1a64, FNV_OFFSET};
use std::fmt;

/// Aggregate functions over the surviving rows of one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Sum,
    Min,
    Max,
    Mean,
    Count,
}

impl AggFunc {
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Mean => "mean",
            AggFunc::Count => "count",
        }
    }
}

/// A declarative plan over one stream: select columns, filter rows,
/// optionally reduce to windowed aggregates.
///
/// ```
/// use flexio_query::{Plan, Expr, AggFunc};
/// let plan = Plan::select(&["velocity"])
///     .filter(Expr::col("velocity").lt(Expr::lit(0.2)))
///     .aggregate(AggFunc::Sum, "velocity")
///     .window(4);
/// plan.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Plan {
    /// Selected (projected) variables, in output order. Projection
    /// pushdown falls out of the subscription model: un-selected
    /// variables are simply never subscribed, so they never cross the
    /// transport.
    pub vars: Vec<String>,
    /// Row predicate; `None` keeps every row.
    pub filter: Option<Expr>,
    /// Optional reduction `(function, column)`; `None` returns rows.
    pub agg: Option<(AggFunc, String)>,
    /// Tumbling-window width in steps for aggregates; `0` means one
    /// window spanning the whole stream.
    pub window_steps: u64,
    /// Cap on total output rows (row mode only); `0` means unlimited.
    pub max_rows: u64,
}

/// Plan validation error.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid query plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

impl Plan {
    /// Start a plan selecting `vars` (at least one).
    pub fn select(vars: &[&str]) -> Plan {
        Plan { vars: vars.iter().map(|v| v.to_string()).collect(), ..Plan::default() }
    }

    /// Add a row predicate.
    pub fn filter(mut self, expr: Expr) -> Plan {
        self.filter = Some(expr);
        self
    }

    /// Reduce to an aggregate over `column`.
    pub fn aggregate(mut self, func: AggFunc, column: &str) -> Plan {
        self.agg = Some((func, column.to_string()));
        self
    }

    /// Set the tumbling-window width in steps (aggregate mode).
    pub fn window(mut self, steps: u64) -> Plan {
        self.window_steps = steps;
        self
    }

    /// Cap the total number of output rows (row mode).
    pub fn limit(mut self, max_rows: u64) -> Plan {
        self.max_rows = max_rows;
        self
    }

    /// Check the plan: at least one selected var, a boolean filter over
    /// selected vars only, aggregate column among the selected vars.
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.vars.is_empty() {
            return Err(PlanError("plan selects no variables".into()));
        }
        for (i, v) in self.vars.iter().enumerate() {
            if self.vars[..i].contains(v) {
                return Err(PlanError(format!("variable `{v}` selected twice")));
            }
        }
        if let Some(f) = &self.filter {
            check_filter(f, &self.vars)?;
        }
        if let Some((_, col)) = &self.agg {
            if !self.vars.contains(col) {
                return Err(PlanError(format!(
                    "aggregate column `{col}` is not selected by the plan"
                )));
            }
        }
        Ok(())
    }
}

/// Check a row predicate against the columns it may reference — boolean,
/// selected columns only, within the evaluation stack bound — and
/// compile it.
pub(crate) fn check_filter(filter: &Expr, columns: &[String]) -> Result<Program, PlanError> {
    let ty = filter.check(columns).map_err(|e| PlanError(e.to_string()))?;
    if ty != ExprType::Bool {
        return Err(PlanError("filter expression is not boolean".into()));
    }
    let program = Program::compile(filter, columns);
    let depth = program.depth();
    if depth > MAX_DEPTH {
        return Err(PlanError(format!("filter expression too deep ({depth} > {MAX_DEPTH})")));
    }
    Ok(program)
}

/// One step's worth of surviving rows, columns in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct StepRows {
    pub step: u64,
    pub columns: Vec<(String, ArrayData)>,
}

/// One window's aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// First step of the window (inclusive).
    pub window_start: u64,
    /// Last step of the window (inclusive).
    pub window_end: u64,
    /// Surviving rows aggregated in the window.
    pub rows: u64,
    /// Aggregate value (`count` reports the row count as `f64`).
    pub value: f64,
}

/// The result of running a plan to end-of-stream.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Row mode: per-step gathered columns.
    Rows(Vec<StepRows>),
    /// Aggregate mode: one row per tumbling window.
    Aggregates(Vec<AggRow>),
}

fn fnv_u64(hash: u64, v: u64) -> u64 {
    fnv1a64(hash, &v.to_le_bytes())
}

fn fnv_array(mut h: u64, data: &ArrayData) -> u64 {
    match data {
        ArrayData::F64(v) => {
            h = fnv_u64(h, 0);
            for x in v {
                h = fnv_u64(h, x.to_bits());
            }
        }
        ArrayData::U64(v) => {
            h = fnv_u64(h, 1);
            for x in v {
                h = fnv_u64(h, *x);
            }
        }
        ArrayData::I64(v) => {
            h = fnv_u64(h, 2);
            for x in v {
                h = fnv_u64(h, *x as u64);
            }
        }
        ArrayData::U8(v) => {
            h = fnv_u64(h, 3);
            h = fnv1a64(h, v);
        }
        ArrayData::Packed(p) => {
            // Digest as if materialized: same dtype tag, same LE bytes.
            h = fnv_u64(h, p.dtype() as u64);
            h = fnv1a64(h, p.bytes());
        }
    }
    h
}

impl QueryOutput {
    /// A bit-exact FNV-1a digest: two outputs digest equal iff every
    /// element (including `f64` payload bits — NaNs and signed zeros
    /// included) is identical. This is what the differential oracle and
    /// the pushdown-equivalence tests compare.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        match self {
            QueryOutput::Rows(steps) => {
                h = fnv1a64(h, b"rows");
                for s in steps {
                    h = fnv_u64(h, s.step);
                    h = fnv_u64(h, s.columns.len() as u64);
                    for (name, data) in &s.columns {
                        h = fnv1a64(h, name.as_bytes());
                        h = fnv_u64(h, data.len() as u64);
                        h = fnv_array(h, data);
                    }
                }
            }
            QueryOutput::Aggregates(rows) => {
                h = fnv1a64(h, b"aggs");
                for r in rows {
                    h = fnv_u64(h, r.window_start);
                    h = fnv_u64(h, r.window_end);
                    h = fnv_u64(h, r.rows);
                    h = fnv_u64(h, r.value.to_bits());
                }
            }
        }
        h
    }

    /// Total output rows across all steps/windows.
    pub fn rows(&self) -> u64 {
        match self {
            QueryOutput::Rows(steps) => {
                steps.iter().map(|s| s.columns.first().map_or(0, |(_, d)| d.len() as u64)).sum()
            }
            QueryOutput::Aggregates(rows) => rows.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_plans() {
        assert!(Plan::select(&[]).validate().is_err());
        assert!(Plan::select(&["a", "a"]).validate().is_err());
        assert!(Plan::select(&["a"]).filter(Expr::col("b").lt(Expr::lit(1.0))).validate().is_err());
        assert!(Plan::select(&["a"])
            .filter(Expr::col("a").add(Expr::lit(1.0)))
            .validate()
            .is_err());
        assert!(Plan::select(&["a"]).aggregate(AggFunc::Sum, "b").validate().is_err());
        assert!(Plan::select(&["a"])
            .filter(Expr::col("a").lt(Expr::lit(1.0)))
            .aggregate(AggFunc::Mean, "a")
            .window(8)
            .validate()
            .is_ok());
    }

    #[test]
    fn digest_is_bit_exact() {
        let a = QueryOutput::Rows(vec![StepRows {
            step: 0,
            columns: vec![("v".into(), ArrayData::F64(vec![0.0]))],
        }]);
        let b = QueryOutput::Rows(vec![StepRows {
            step: 0,
            columns: vec![("v".into(), ArrayData::F64(vec![-0.0]))],
        }]);
        assert_ne!(a.digest(), b.digest(), "signed zero must be distinguished");
        assert_eq!(a.digest(), a.clone().digest());
    }
}
