//! Vectorized plan executor.
//!
//! Operators consume [`ArrayData`] chunk views directly — packed
//! zero-copy receive-buffer windows included — with per-dtype
//! monomorphic inner loops over the LE byte windows. No `make_owned()`
//! materialization happens on the read path: widening, masking and
//! gathering all read straight out of the shared buffer.
//!
//! Bit-exactness contract: every arithmetic step (widening to `f64`,
//! predicate evaluation, sequential aggregation in feed order) matches
//! the naive row-at-a-time oracle in [`crate::naive`] operation for
//! operation, so outputs digest identically.

use crate::kernel::{widened, ColView, FilterKernel};
use crate::plan::{AggFunc, AggRow, Plan, PlanError, QueryOutput, StepRows};
use adios::ArrayData;

/// One writer's chunk for one step: columns aligned with the plan's
/// selected variables (`plan.vars` order).
pub struct ChunkView<'a> {
    /// One entry per plan variable, in plan order.
    pub columns: Vec<&'a ArrayData>,
    /// True when the writer-side pushdown codelet already applied the
    /// plan's filter (the chunk arrived conditioned); the executor then
    /// skips re-filtering and trusts `rows_in` for the pre-filter count.
    pub pre_filtered: bool,
    /// Rows entering the filter: the original element count before any
    /// writer-side filtering.
    pub rows_in: u64,
}

impl<'a> ChunkView<'a> {
    /// An unconditioned chunk: the filter (if any) runs reader-side.
    pub fn raw(columns: Vec<&'a ArrayData>) -> ChunkView<'a> {
        let rows = columns.first().map_or(0, |c| c.len() as u64);
        ChunkView { columns, pre_filtered: false, rows_in: rows }
    }

    /// A chunk the writer-side codelet already filtered; `rows_in` is
    /// the pre-filter element count reported by the codelet.
    pub fn conditioned(columns: Vec<&'a ArrayData>, rows_in: u64) -> ChunkView<'a> {
        ChunkView { columns, pre_filtered: true, rows_in }
    }

    fn len(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }
}

/// Per-step throughput stats, fed into the query counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Rows entering the filter (writer-side original counts).
    pub rows_in: u64,
    /// Rows surviving into the output/aggregate.
    pub rows_out: u64,
}

// --------------------------------------------------------------- aggregate

/// Sequential aggregate accumulator. `accumulate` is called once per
/// surviving row in feed order — the same order the naive oracle uses —
/// so `f64` results are bit-identical between the two executors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AggState {
    func: AggFunc,
    sum: f64,
    min: f64,
    max: f64,
    count: u64,
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        AggState { func, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, count: 0 }
    }

    #[inline]
    pub(crate) fn accumulate(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    pub(crate) fn rows(&self) -> u64 {
        self.count
    }

    /// The aggregate value; empty windows report `0.0` (and `count`
    /// reports `0`), never a NaN or an infinity.
    pub(crate) fn value(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        match self.func {
            AggFunc::Sum => self.sum,
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Mean => self.sum / self.count as f64,
            AggFunc::Count => self.count as f64,
        }
    }
}

// ---------------------------------------------------------------- executor

/// Shared window bookkeeping (identical in both executors by
/// construction: the window boundary rule is pure arithmetic on step
/// numbers).
pub(crate) fn window_bounds(step: u64, window_steps: u64, first_step: u64) -> (u64, u64) {
    match step.checked_div(window_steps) {
        // window_steps == 0: one window spanning the whole stream,
        // bounds growing with input.
        None => (first_step, step),
        Some(idx) => (idx * window_steps, (idx + 1) * window_steps - 1),
    }
}

/// The vectorized executor: feed one step at a time, then [`Executor::finish`].
pub struct Executor {
    plan: Plan,
    /// The plan's filter, if any — the same kernel a pushed-down filter
    /// runs writer-side.
    filter: Option<FilterKernel>,
    agg: Option<(AggState, usize)>,
    rows: Vec<StepRows>,
    row_budget: Option<u64>,
    windows: Vec<AggRow>,
    current_window: Option<(u64, u64)>,
    first_step: Option<u64>,
    last_step: u64,
}

impl Executor {
    /// Validate the plan and build the executor.
    pub fn new(plan: Plan) -> Result<Executor, PlanError> {
        plan.validate()?;
        let filter = plan.filter.as_ref().map(|f| FilterKernel::new(f, &plan.vars)).transpose()?;
        let agg = plan.agg.as_ref().map(|(func, col)| {
            let idx = plan.vars.iter().position(|v| v == col).expect("validated");
            (AggState::new(*func), idx)
        });
        let row_budget =
            if plan.max_rows > 0 && agg.is_none() { Some(plan.max_rows) } else { None };
        Ok(Executor {
            plan,
            filter,
            agg,
            rows: Vec::new(),
            row_budget,
            windows: Vec::new(),
            current_window: None,
            first_step: None,
            last_step: 0,
        })
    }

    /// The validated plan this executor runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Feed one step's chunks (all writers, in writer order). Steps
    /// must be fed in nondecreasing order.
    pub fn feed_step(&mut self, step: u64, chunks: &[ChunkView<'_>]) -> StepStats {
        self.roll_window(step);
        let mut stats = StepStats::default();
        let mut step_cols: Option<Vec<(String, ArrayData)>> = None;
        for chunk in chunks {
            debug_assert_eq!(chunk.columns.len(), self.plan.vars.len(), "chunk/plan arity");
            let n = chunk.len();
            stats.rows_in += chunk.rows_in;
            let views: Vec<ColView<'_>> = chunk.columns.iter().map(|c| ColView::of(c)).collect();

            // The survivor mask (None = all rows pass).
            let mask = match &mut self.filter {
                Some(kernel) if !chunk.pre_filtered => Some(kernel.mask(&views, n)),
                _ => None,
            };

            if let Some((state, agg_idx)) = &mut self.agg {
                // Aggregate mode: sequential accumulation over the
                // widened aggregate column, feed order preserved.
                widened!(&views[*agg_idx], |rows, get| match mask {
                    None => {
                        rows.iter().for_each(|x| state.accumulate(get(x)));
                        stats.rows_out += n as u64;
                    }
                    Some(m) => {
                        for (&word, block) in m.iter().zip(rows.chunks(64)) {
                            let mut w = word;
                            while w != 0 {
                                state.accumulate(get(&block[w.trailing_zeros() as usize]));
                                w &= w - 1;
                            }
                            stats.rows_out += u64::from(word.count_ones());
                        }
                    }
                });
            } else {
                // Row mode: per-dtype gather of every selected column.
                let cols = step_cols.get_or_insert_with(|| {
                    self.plan
                        .vars
                        .iter()
                        .zip(&views)
                        .map(|(name, v)| (name.clone(), v.fresh_output()))
                        .collect()
                });
                // All columns must gather the same rows: snapshot the
                // budget and apply the per-column outcome once.
                let budget_before = self.row_budget;
                let mut appended = 0;
                for (ci, view) in views.iter().enumerate() {
                    let mut b = budget_before;
                    appended = view.gather_into(mask, n, &mut cols[ci].1, &mut b);
                    if ci + 1 == views.len() {
                        self.row_budget = b;
                    }
                }
                stats.rows_out += appended;
            }
        }
        if let Some(cols) = step_cols {
            self.rows.push(StepRows { step, columns: cols });
        }
        stats
    }

    /// Flush the last window and return the output.
    pub fn finish(mut self) -> QueryOutput {
        if self.agg.is_some() {
            self.flush_window();
            QueryOutput::Aggregates(std::mem::take(&mut self.windows))
        } else {
            QueryOutput::Rows(std::mem::take(&mut self.rows))
        }
    }

    fn roll_window(&mut self, step: u64) {
        self.last_step = step;
        if self.first_step.is_none() {
            self.first_step = Some(step);
        }
        if self.agg.is_none() {
            return;
        }
        let bounds = window_bounds(step, self.plan.window_steps, self.first_step.unwrap());
        match self.current_window {
            None => self.current_window = Some(bounds),
            Some(cur) if self.plan.window_steps > 0 && bounds.0 != cur.0 => {
                self.flush_window();
                self.current_window = Some(bounds);
            }
            Some(_) if self.plan.window_steps == 0 => {
                // The whole-stream window's end tracks the last step.
                self.current_window = Some((self.first_step.unwrap(), step));
            }
            Some(_) => {}
        }
    }

    fn flush_window(&mut self) {
        let Some((state, idx)) = &mut self.agg else { return };
        let Some((start, end)) = self.current_window.take() else { return };
        self.windows.push(AggRow {
            window_start: start,
            window_end: end,
            rows: state.rows(),
            value: state.value(),
        });
        let func = state.func;
        *state = AggState::new(func);
        let _ = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    fn f64s(v: &[f64]) -> ArrayData {
        ArrayData::F64(v.to_vec())
    }

    #[test]
    fn filter_and_gather_rows() {
        let plan = Plan::select(&["v"]).filter(Expr::col("v").lt(Expr::lit(3.0)));
        let mut ex = Executor::new(plan).unwrap();
        let data = f64s(&[1.0, 5.0, 2.0, 9.0, 0.5]);
        let stats = ex.feed_step(0, &[ChunkView::raw(vec![&data])]);
        assert_eq!(stats, StepStats { rows_in: 5, rows_out: 3 });
        let QueryOutput::Rows(steps) = ex.finish() else { panic!() };
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].columns[0].1, f64s(&[1.0, 2.0, 0.5]));
    }

    #[test]
    fn pre_filtered_chunks_skip_refiltering() {
        let plan = Plan::select(&["v"]).filter(Expr::col("v").lt(Expr::lit(3.0)));
        let mut ex = Executor::new(plan).unwrap();
        // Writer already filtered: 2 survivors out of 10 original rows.
        let data = f64s(&[1.0, 2.0]);
        let stats = ex.feed_step(0, &[ChunkView::conditioned(vec![&data], 10)]);
        assert_eq!(stats, StepStats { rows_in: 10, rows_out: 2 });
    }

    #[test]
    fn windowed_mean() {
        let plan = Plan::select(&["v"]).aggregate(AggFunc::Mean, "v").window(2);
        let mut ex = Executor::new(plan).unwrap();
        for step in 0..4u64 {
            let data = f64s(&[step as f64, step as f64 + 1.0]);
            ex.feed_step(step, &[ChunkView::raw(vec![&data])]);
        }
        let QueryOutput::Aggregates(rows) = ex.finish() else { panic!() };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], AggRow { window_start: 0, window_end: 1, rows: 4, value: 1.0 });
        assert_eq!(rows[1], AggRow { window_start: 2, window_end: 3, rows: 4, value: 3.0 });
    }

    #[test]
    fn row_limit_caps_output() {
        let plan = Plan::select(&["v"]).limit(3);
        let mut ex = Executor::new(plan).unwrap();
        let data = f64s(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let stats = ex.feed_step(0, &[ChunkView::raw(vec![&data])]);
        assert_eq!(stats.rows_out, 3);
        let QueryOutput::Rows(steps) = ex.finish() else { panic!() };
        assert_eq!(steps[0].columns[0].1, f64s(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn mixed_dtypes_and_multi_column() {
        let plan = Plan::select(&["k", "v"]).filter(Expr::col("k").ge(Expr::lit(2.0)));
        let mut ex = Executor::new(plan).unwrap();
        let keys = ArrayData::U64(vec![0, 1, 2, 3]);
        let vals = f64s(&[10.0, 11.0, 12.0, 13.0]);
        ex.feed_step(0, &[ChunkView::raw(vec![&keys, &vals])]);
        let QueryOutput::Rows(steps) = ex.finish() else { panic!() };
        assert_eq!(steps[0].columns[0].1, ArrayData::U64(vec![2, 3]));
        assert_eq!(steps[0].columns[1].1, f64s(&[12.0, 13.0]));
    }
}
