//! `flexio-query`: vectorized declarative array queries over streamed
//! global arrays, with writer-side pushdown.
//!
//! The paper's Data Conditioning plug-ins (§II.F) are scalar
//! per-element codelets. This crate grows them into a small query
//! tier:
//!
//! - a logical [`Plan`] — `select` / `filter` / `aggregate`
//!   (sum/min/max/mean/count) / tumbling windows over step ranges —
//!   with a typed [`Expr`] tree;
//! - a vectorized [`Executor`] whose operators consume `ArrayData`
//!   chunk views directly, packed zero-copy receive-buffer windows
//!   included (per-dtype inner loops over the LE wire bytes, no
//!   `make_owned()` on the read path); its filter half is the
//!   standalone [`FilterKernel`];
//! - a pushdown planner ([`lower_pushdown`]) that splits the plan at
//!   the stream boundary: an eligible filter ships as the typed
//!   [`Expr`] itself ([`PluginBody::Filter`]) and the conditioning
//!   machinery runs it writer-side on that same kernel, so
//!   filtered-out elements never cross the transport, while the
//!   residual plan (aggregates, windows, assembly) runs reader-side;
//! - a [`NaiveExecutor`] oracle: a row-at-a-time evaluator specified
//!   to be bit-identical, used by the differential tests and the
//!   optional runtime oracle.
//!
//! The crate is transport-agnostic: it depends only on the data plane
//! (`adios`/`evpath`). The `flexio` crate wires it
//! to live streams (`QuerySession`), hint keys and
//! monitoring counters.

pub mod exec;
pub mod expr;
pub mod kernel;
pub mod naive;
pub mod plan;
pub mod pushdown;

pub use exec::{ChunkView, Executor, StepStats};
pub use expr::{BinOp, CmpOp, Expr, ExprType, TypeError};
pub use kernel::FilterKernel;
pub use naive::NaiveExecutor;
pub use plan::{AggFunc, AggRow, Plan, PlanError, QueryOutput, StepRows};
pub use pushdown::{lower_pushdown, Lowered, PluginBody, Q_ROWS_IN};
