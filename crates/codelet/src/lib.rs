//! `codelet` — the language Data Conditioning plug-ins are written in.
//!
//! Paper §II.F: "Data Conditioning Plug-ins are stateless codelets
//! created on the reader side (e.g., analytics) to customize writer-side
//! outputs on the fly. [...] They are typically lightweight in terms of
//! compute and memory usage, and are easily programmed with the subset of C
//! offered by the C-on-demand (CoD) \[11\]. [...] Their code strings are
//! compiled and installed in the appropriate process address space through
//! the dynamic binary code generation offered by CoD."
//!
//! CoD's dynamic *binary* generation cannot be reproduced safely in-process,
//! so the substitution (DESIGN.md) keeps every property FlexIO relies on —
//! code-as-string shipped between address spaces, compiled at install time,
//! stateless per-chunk execution, bounded cost — and swaps native codegen
//! for a compact **bytecode VM**:
//!
//! * [`lex`]/[`parser`] — a small C-like expression/statement language:
//!   `let`, assignment, `if`/`else`, `while`, `for i in a..b`, arithmetic,
//!   comparison, logic, indexing, calls;
//! * [`compile`] — AST → stack bytecode (the "compile and install" step);
//! * [`vm`] — the interpreter, with an instruction budget so a plug-in
//!   cannot stall the I/O path;
//! * [`plugins`] — the canned Data Conditioning plug-ins the paper lists
//!   (sampling, bounding box, unit conversion, data markup/annotation,
//!   selection) as ready-to-deploy source strings.
//!
//! A codelet runs against an input [`evpath::Record`] and produces an
//! output `Record` — exactly how FlexIO hands a chunk of variables to a
//! plug-in and forwards the conditioned result.
//!
//! ```
//! use codelet::Codelet;
//! use evpath::{FieldValue, Record};
//!
//! let plugin = Codelet::compile(r#"
//!     let v = get_f64("values");
//!     let out = array();
//!     for i in 0..len(v) {
//!         if v[i] >= 10.0 { push(out, v[i]); }
//!     }
//!     emit_f64("selected", out);
//! "#).unwrap();
//! let input = Record::new().with("values", FieldValue::from(vec![1.0, 50.0, 3.0, 99.0]));
//! let output = plugin.run(&input).unwrap();
//! assert_eq!(output.get_f64_array("selected"), Some(&[50.0, 99.0][..]));
//! ```

pub mod ast;
pub mod compile;
pub mod lex;
pub mod parser;
pub mod plugins;
pub mod value;
pub mod vm;

use evpath::Record;

pub use compile::{CompileError, Program};
pub use value::Value;
pub use vm::{RunError, DEFAULT_INSTRUCTION_BUDGET};

/// A compiled, deployable codelet: the unit FlexIO installs into a process.
#[derive(Debug, Clone)]
pub struct Codelet {
    /// Original source, kept so the codelet can be re-shipped ("migrated")
    /// to another address space and re-compiled there.
    source: String,
    program: Program,
}

impl Codelet {
    /// Compile a source string (the "install" step).
    pub fn compile(source: &str) -> Result<Codelet, CompileError> {
        let program = compile::compile(source)?;
        Ok(Codelet { source: source.to_string(), program })
    }

    /// Execute against an input record with the default instruction budget.
    pub fn run(&self, input: &Record) -> Result<Record, RunError> {
        self.run_budgeted(input, DEFAULT_INSTRUCTION_BUDGET)
    }

    /// Execute with an explicit instruction budget.
    pub fn run_budgeted(&self, input: &Record, budget: u64) -> Result<Record, RunError> {
        vm::execute(&self.program, input, budget)
    }

    /// The source string (what migrates between address spaces).
    pub fn source(&self) -> &str {
        &self.source
    }
}
