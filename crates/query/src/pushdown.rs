//! Pushdown planner: split a plan at the stream boundary.
//!
//! A predicate that depends only on one writer-visible variable ships
//! to the writer as the typed [`Expr`] itself — the body of a Data
//! Conditioning plug-in — and runs there on the same [`FilterKernel`]
//! the reader-side executor uses, so filtered-out elements never cross
//! the transport. The residual plan (aggregates, windows, cross-chunk
//! assembly, row limits) runs reader-side over the surviving chunks.
//!
//! Equivalence contract: one kernel evaluates the predicate on either
//! side and survivors keep their dtype and bits, so pushdown ≡
//! no-pushdown bit-exactly. Conditioned chunks carry the standard
//! `dc_applied` marker plus a `q_rows_in` extra recording the
//! pre-filter element count for the query counters.
//!
//! [`FilterKernel`]: crate::FilterKernel

use crate::expr::{Expr, Program, MAX_OPS};
use crate::plan::Plan;

/// Extra field a conditioned chunk carries alongside the survivors: the
/// element count *before* filtering, so the reader can account
/// `rows_in` and `bytes_saved` without seeing the dropped elements.
pub const Q_ROWS_IN: &str = "q_rows_in";

/// What a Data Conditioning plug-in runs where it lands.
#[derive(Debug, Clone, PartialEq)]
pub enum PluginBody {
    /// Codelet source text (user plug-ins), compiled and interpreted by
    /// the codelet VM.
    Codelet(String),
    /// A typed row predicate over the plug-in's one variable, run by a
    /// [`crate::FilterKernel`]; survivors keep the variable's dtype.
    Filter(Expr),
}

impl From<String> for PluginBody {
    fn from(source: String) -> PluginBody {
        PluginBody::Codelet(source)
    }
}

impl From<&str> for PluginBody {
    fn from(source: &str) -> PluginBody {
        PluginBody::Codelet(source.to_string())
    }
}

/// A writer-side lowering of the pushdown-eligible part of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The variable the plug-in conditions.
    pub var: String,
    /// The plug-in body: the plan's filter, typed.
    pub source: PluginBody,
}

/// Try to split `plan` at the stream boundary. Returns the writer-side
/// half when the filter is expressible there:
///
/// - the plan selects exactly one variable (the conditioning machinery
///   rewrites one variable per plug-in),
/// - a filter exists (validation already confined it to that variable),
/// - it fits the wire form's op bound.
pub fn lower_pushdown(plan: &Plan) -> Option<Lowered> {
    plan.validate().ok()?;
    let [var] = &plan.vars[..] else { return None };
    let filter = plan.filter.as_ref()?;
    (Program::compile(filter, &plan.vars).ops.len() <= MAX_OPS)
        .then(|| Lowered { var: var.clone(), source: PluginBody::Filter(filter.clone()) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggFunc;

    #[test]
    fn single_var_filter_lowers_to_its_own_expr() {
        let filter = Expr::col("velocity").lt(Expr::lit(0.2));
        let plan = Plan::select(&["velocity"])
            .filter(filter.clone())
            .aggregate(AggFunc::Count, "velocity");
        let lowered = lower_pushdown(&plan).expect("eligible");
        assert_eq!(lowered.var, "velocity");
        assert_eq!(lowered.source, PluginBody::Filter(filter));
    }

    #[test]
    fn non_finite_literals_lower() {
        for lit in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let plan = Plan::select(&["a"]).filter(Expr::col("a").lt(Expr::lit(lit)));
            assert!(lower_pushdown(&plan).is_some(), "{lit} must be eligible");
        }
    }

    #[test]
    fn ineligible_plans_stay_reader_side() {
        // Two variables.
        assert!(lower_pushdown(
            &Plan::select(&["a", "b"]).filter(Expr::col("a").lt(Expr::lit(1.0)))
        )
        .is_none());
        // No filter.
        assert!(lower_pushdown(&Plan::select(&["a"])).is_none());
        // More ops than the wire form carries.
        let mut sum = Expr::col("a");
        for _ in 0..MAX_OPS {
            sum = sum.add(Expr::lit(1.0));
        }
        assert!(lower_pushdown(&Plan::select(&["a"]).filter(sum.gt(Expr::lit(0.0)))).is_none());
    }
}
