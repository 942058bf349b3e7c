//! Live-stream query execution: `flexio-query` plans wired to
//! [`StreamReader`] engines.
//!
//! A [`QuerySession`] owns a reader, a validated plan and the
//! vectorized executor. At attach time the pushdown planner splits the
//! plan at the stream boundary: an eligible filter ships as a typed
//! filter-bodied [`PluginSpec`] installed `WriterSide` through the
//! existing Data Conditioning machinery — the writer runs it on the same
//! vectorized kernel the executor here uses — so filtered-out elements
//! never cross the transport; the residual plan (aggregates, windows,
//! assembly, row limits) runs here over the surviving chunks. Projection
//! pushdown is the subscription model itself: un-selected variables are
//! never subscribed, so they are never sent.
//!
//! Execution is available three ways, mirroring the rest of the stack:
//! blocking ([`QuerySession::step`] / [`QuerySession::run_to_end`]),
//! reactor ([`QuerySession::step_rt`]), and as a spawnable task
//! ([`QuerySession::into_task`], spawned on a reactor or with
//! `fleet.spawn(task)`) — [`crate::task`]'s step-driven
//! loop, as `ReaderGroup::into_task` is.
//!
//! With [`QueryConfig::oracle`] set every step is also fed to the naive
//! row-at-a-time evaluator and the final outputs must digest
//! bit-identically — the runtime arm of the differential-testing
//! contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adios::{ArrayData, ReadEngine, ScalarValue, Selection, StepStatus, VarValue};
use flexio_query::{lower_pushdown, ChunkView, Executor, NaiveExecutor, Q_ROWS_IN};
/// The plan/expression vocabulary, re-exported so applications can build
/// queries with `flexio::query::{Plan, Expr, AggFunc}` alone.
pub use flexio_query::{
    AggFunc, AggRow, BinOp, CmpOp, Expr, ExprType, Plan, PlanError, QueryOutput, StepRows,
    StepStats, TypeError,
};

use crate::context::StreamError;
use crate::plugins::{PluginPlacement, PluginSpec, DC_APPLIED_MARKER};
use crate::reader::StreamReader;
use crate::task::{driven, LoopHandle};

/// Query-tier knobs, set by the program that attaches the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryConfig {
    /// Lower eligible filters to a writer-side plug-in (default `true`).
    pub pushdown: bool,
    /// Run the naive oracle next to the vectorized executor and require
    /// bit-identical outputs (default `false`; used by test batteries).
    pub oracle: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig { pushdown: true, oracle: false }
    }
}

/// Shared per-query throughput counters: the one record of a query's rows
/// and pushed-down bytes. They stay in the reading program — the monitor
/// relay ships only what the writer's `seal_step` records — so an observer
/// reads them through [`QuerySession::counters`].
#[derive(Debug, Default)]
pub struct QueryCounters {
    /// Rows entering the filter (pre-pushdown original counts).
    pub rows_in: AtomicU64,
    /// Rows surviving into the output/aggregate.
    pub rows_out: AtomicU64,
    /// Payload bytes the writer-side plug-in processed before the
    /// transport (wire-marked chunks only).
    pub bytes_pushed_down: AtomicU64,
    /// Payload bytes that never crossed the transport (rows dropped
    /// writer-side × element width).
    pub bytes_saved: AtomicU64,
}

impl QueryCounters {
    fn bump(&self, c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshot `(rows_in, rows_out, bytes_pushed_down, bytes_saved)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.rows_in.load(Ordering::Relaxed),
            self.rows_out.load(Ordering::Relaxed),
            self.bytes_pushed_down.load(Ordering::Relaxed),
            self.bytes_saved.load(Ordering::Relaxed),
        )
    }
}

/// A live query over one stream: reader + residual executor (+ oracle).
pub struct QuerySession {
    reader: StreamReader,
    nwriters: usize,
    plan: Plan,
    exec: Option<Executor>,
    oracle: Option<NaiveExecutor>,
    counters: Arc<QueryCounters>,
    /// Whether a writer-side plug-in was actually installed.
    pushdown: bool,
    eos: bool,
}

impl QuerySession {
    /// Attach a plan to a reader. Subscribes the plan's variables
    /// (process-group pattern, writers `0..nwriters`), installs the
    /// lowered writer-side plug-in when eligible (coordinator rank
    /// only), and builds the executors. Must be called before the first
    /// `begin_step`.
    pub fn attach(
        mut reader: StreamReader,
        nwriters: usize,
        plan: Plan,
        cfg: QueryConfig,
    ) -> Result<QuerySession, StreamError> {
        plan.validate().map_err(|e| StreamError::Protocol(e.to_string()))?;
        let mut pushdown = false;
        if cfg.pushdown && reader.rank() == 0 {
            if let Some(lowered) = lower_pushdown(&plan) {
                reader.install_plugin(PluginSpec {
                    var: lowered.var,
                    source: lowered.source,
                    placement: PluginPlacement::WriterSide,
                });
                pushdown = true;
            }
        }
        for var in &plan.vars {
            for w in 0..nwriters {
                reader.subscribe(var, Selection::ProcessGroup(w));
            }
        }
        let exec = Executor::new(plan.clone()).map_err(|e| StreamError::Protocol(e.to_string()))?;
        let oracle = if cfg.oracle {
            Some(
                NaiveExecutor::new(plan.clone())
                    .map_err(|e| StreamError::Protocol(e.to_string()))?,
            )
        } else {
            None
        };
        Ok(QuerySession {
            reader,
            nwriters,
            plan,
            exec: Some(exec),
            oracle,
            counters: Arc::new(QueryCounters::default()),
            pushdown,
            eos: false,
        })
    }

    /// Shared counters handle (live during and after the run).
    pub fn counters(&self) -> Arc<QueryCounters> {
        Arc::clone(&self.counters)
    }

    /// Whether the filter was lowered to a writer-side plug-in.
    pub fn pushdown_active(&self) -> bool {
        self.pushdown
    }

    /// The effective (validated, config-merged) plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// [`QuerySession::step_rt`] as a blocking call.
    pub fn step(&mut self) -> Result<Option<StepStats>, StreamError> {
        flexio_reactor::block_inline(self.step_rt())
    }

    /// Drive one step: `Ok(Some(stats))` after feeding a step, `Ok(None)`
    /// at end-of-stream.
    pub async fn step_rt(&mut self) -> Result<Option<StepStats>, StreamError> {
        if self.eos {
            return Ok(None);
        }
        match self.reader.begin_step_rt().await? {
            StepStatus::Step(step) => {
                let stats = self.process_step(step)?;
                self.reader.end_step();
                Ok(Some(stats))
            }
            StepStatus::EndOfStream => {
                self.eos = true;
                Ok(None)
            }
        }
    }

    /// Run to end-of-stream and return the query output (oracle-checked
    /// when enabled).
    pub fn run_to_end(mut self) -> Result<QueryOutput, StreamError> {
        while self.step()?.is_some() {}
        self.reader.close();
        self.finish()
    }

    /// Finish after end-of-stream: flush windows, check the oracle.
    pub fn finish(mut self) -> Result<QueryOutput, StreamError> {
        let out = self.exec.take().expect("finish called once").finish();
        if let Some(oracle) = self.oracle.take() {
            let expect = oracle.finish();
            if out.digest() != expect.digest() {
                return Err(StreamError::Protocol(format!(
                    "query oracle mismatch: vectorized {:#x} != naive {:#x}",
                    out.digest(),
                    expect.digest()
                )));
            }
        }
        Ok(out)
    }

    /// Feed one open step into the executors and update the counters.
    fn process_step(&mut self, step: u64) -> Result<StepStats, StreamError> {
        let reader = &self.reader;
        let plan = &self.plan;
        // Assemble this step's chunks writer by writer. A writer whose
        // chunks were routed to another reader rank simply has nothing
        // stored here.
        let mut chunks: Vec<ChunkView<'_>> = Vec::new();
        let mut pushed_bytes = 0u64;
        let mut saved_bytes = 0u64;
        for w in 0..self.nwriters {
            let mut columns: Vec<&ArrayData> = Vec::with_capacity(plan.vars.len());
            let mut complete = true;
            for var in &plan.vars {
                match reader.stored(w, var).and_then(|vs| vs.first()) {
                    Some(VarValue::Block(b)) => columns.push(&b.data),
                    _ => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue;
            }
            // Conditioned chunks (writer-side pushdown *or* the reader's
            // migration-fallback copy) arrive pre-filtered with the
            // original element count in the `q_rows_in` extra.
            let conditioned = reader.stored(w, DC_APPLIED_MARKER).is_some_and(|vs| !vs.is_empty());
            let chunk = if conditioned {
                let rows_in = match reader.stored(w, Q_ROWS_IN).and_then(|vs| vs.first()) {
                    Some(VarValue::Scalar(ScalarValue::I64(n))) => *n as u64,
                    _ => columns.first().map_or(0, |c| c.len() as u64),
                };
                let survivors = columns.first().map_or(0, |c| c.len() as u64);
                // True pushdown (marker crossed the wire) is what moves
                // the bytes-moved needle; local fallback conditioning
                // saves nothing.
                if self.pushdown && reader.arrived_conditioned(w, &plan.vars[0]) {
                    // Survivors keep the column's dtype, so its element
                    // width is the dropped rows' too.
                    let width = columns[0].data_type().elem_bytes();
                    pushed_bytes += rows_in * width;
                    saved_bytes += rows_in.saturating_sub(survivors) * width;
                }
                ChunkView::conditioned(columns, rows_in)
            } else {
                ChunkView::raw(columns)
            };
            chunks.push(chunk);
        }

        let exec = self.exec.as_mut().expect("session not finished");
        let stats = exec.feed_step(step, &chunks);
        if let Some(oracle) = self.oracle.as_mut() {
            let ostats = oracle.feed_step(step, &chunks);
            if ostats != stats {
                return Err(StreamError::Protocol(format!(
                    "query oracle step stats mismatch at step {step}: \
                     vectorized {stats:?} != naive {ostats:?}"
                )));
            }
        }
        drop(chunks);

        self.counters.bump(&self.counters.rows_in, stats.rows_in);
        self.counters.bump(&self.counters.rows_out, stats.rows_out);
        self.counters.bump(&self.counters.bytes_pushed_down, pushed_bytes);
        self.counters.bump(&self.counters.bytes_saved, saved_bytes);
        Ok(stats)
    }

    /// Convert into a spawnable task for the reactor/fleet backends, a
    /// step-driven loop ([`crate::task`]): a round is one step, the handle's
    /// `latest` its [`StepStats`], and the output `finish`'s result once
    /// the stream ends or the handle's `stop` lands — either way the
    /// reader is closed first — or the error that stopped the query. Take
    /// [`Self::counters`] first to read them while it runs.
    pub fn into_task(
        self,
    ) -> (
        LoopHandle<StepStats, Result<QueryOutput, StreamError>>,
        impl std::future::Future<Output = ()> + Send,
    ) {
        let round = |mut session: QuerySession| async move {
            match session.step_rt().await {
                Ok(stats) => {
                    let ended = stats.is_none();
                    Ok((session, stats, ended))
                }
                Err(e) => Err(Err(e)),
            }
        };
        driven(self, round, |mut session| {
            session.reader.close();
            session.finish()
        })
    }
}
