//! Typed expression tree over array elements.
//!
//! Expressions are built reader-side against the columns a [`crate::Plan`]
//! selects. Evaluation is defined in the `f64` domain (every element is
//! widened to `f64` before arithmetic/comparison), so the vectorized
//! kernel — wherever it runs — and the naive oracle compute bit-identical
//! results. A pushed-down filter crosses the stream as the postfix word
//! list of [`Expr::to_postfix`].

use std::fmt;

/// Comparison operators (predicate leaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    pub(crate) fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// Arithmetic operators (numeric interior nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// An expression over the current row: column references, literals,
/// arithmetic, comparisons and boolean combinators.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The row's element of the named selected column.
    Col(String),
    /// A numeric literal.
    Lit(f64),
    /// Arithmetic over two numeric subexpressions.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Comparison of two numeric subexpressions (boolean-typed).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Conjunction of two boolean subexpressions.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction of two boolean subexpressions.
    Or(Box<Expr>, Box<Expr>),
    /// Boolean negation.
    Not(Box<Expr>),
}

/// Static type of an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprType {
    Num,
    Bool,
}

/// Type error found while checking an expression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query expression type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

impl Expr {
    /// Column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Col(name.to_string())
    }

    /// Numeric literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Lit(v)
    }

    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(rhs))
    }

    pub fn le(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(rhs))
    }

    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(rhs))
    }

    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(rhs))
    }

    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(rhs))
    }

    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(rhs))
    }

    // The arithmetic builders intentionally shadow the `std::ops` names:
    // they are the DSL's vocabulary (`a.add(b)` reads as the plan text),
    // and taking `Expr` by value keeps them chainable.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Bin(BinOp::Div, Box::new(self), Box::new(rhs))
    }

    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Check the tree and return its type. Column references are
    /// validated against `columns` (the plan's selected variables).
    pub fn check(&self, columns: &[String]) -> Result<ExprType, TypeError> {
        match self {
            Expr::Col(name) => {
                if columns.iter().any(|c| c == name) {
                    Ok(ExprType::Num)
                } else {
                    Err(TypeError(format!("column `{name}` is not selected by the plan")))
                }
            }
            Expr::Lit(_) => Ok(ExprType::Num),
            Expr::Bin(_, a, b) => {
                expect(a.check(columns)?, ExprType::Num, "arithmetic operand")?;
                expect(b.check(columns)?, ExprType::Num, "arithmetic operand")?;
                Ok(ExprType::Num)
            }
            Expr::Cmp(_, a, b) => {
                expect(a.check(columns)?, ExprType::Num, "comparison operand")?;
                expect(b.check(columns)?, ExprType::Num, "comparison operand")?;
                Ok(ExprType::Bool)
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                expect(a.check(columns)?, ExprType::Bool, "boolean operand")?;
                expect(b.check(columns)?, ExprType::Bool, "boolean operand")?;
                Ok(ExprType::Bool)
            }
            Expr::Not(a) => {
                expect(a.check(columns)?, ExprType::Bool, "negation operand")?;
                Ok(ExprType::Bool)
            }
        }
    }

    /// Collect the distinct column names the expression references, in
    /// first-reference order.
    pub fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Col(name) => {
                if !out.iter().any(|c| c == name) {
                    out.push(name.clone());
                }
            }
            Expr::Lit(_) => {}
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Expr::Not(a) => a.collect_columns(out),
        }
    }
}

fn expect(got: ExprType, want: ExprType, what: &str) -> Result<(), TypeError> {
    if got == want {
        Ok(())
    } else {
        Err(TypeError(format!("{what} must be {want:?}, got {got:?}")))
    }
}

// ------------------------------------------------------------ compiled form

/// One postfix instruction of a compiled expression. Compilation maps
/// column names to indexes into the plan's selected-variable list, so
/// the per-row inner loop never touches strings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    PushCol(usize),
    PushLit(f64),
    Bin(BinOp),
    Cmp(CmpOp),
    And,
    Or,
    Not,
}

/// A compiled predicate/expression: postfix ops evaluated over a small
/// value stack. The structural order of operations matches the AST walk
/// of the naive evaluator exactly, so both produce bit-identical `f64`s.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Program {
    pub ops: Vec<Op>,
}

impl Program {
    /// Compile `expr` against the column roster. The expression must
    /// already have passed [`Expr::check`].
    pub fn compile(expr: &Expr, columns: &[String]) -> Program {
        let mut prog = Program::default();
        prog.emit(expr, columns);
        prog
    }

    fn emit(&mut self, expr: &Expr, columns: &[String]) {
        match expr {
            Expr::Col(name) => {
                let idx = columns.iter().position(|c| c == name).expect("checked column");
                self.ops.push(Op::PushCol(idx));
            }
            Expr::Lit(v) => self.ops.push(Op::PushLit(*v)),
            Expr::Bin(op, a, b) => {
                self.emit(a, columns);
                self.emit(b, columns);
                self.ops.push(Op::Bin(*op));
            }
            Expr::Cmp(op, a, b) => {
                self.emit(a, columns);
                self.emit(b, columns);
                self.ops.push(Op::Cmp(*op));
            }
            Expr::And(a, b) => {
                self.emit(a, columns);
                self.emit(b, columns);
                self.ops.push(Op::And);
            }
            Expr::Or(a, b) => {
                self.emit(a, columns);
                self.emit(b, columns);
                self.ops.push(Op::Or);
            }
            Expr::Not(a) => {
                self.emit(a, columns);
                self.ops.push(Op::Not);
            }
        }
    }

    /// Evaluate over one row whose column values are pre-loaded (widened
    /// to `f64`) in `row`, indexed by the compiled column indexes.
    #[inline]
    pub fn eval_bool(&self, row: &[f64]) -> bool {
        // Slots are untagged: comparisons/booleans store 1.0/0.0. The
        // type checker guarantees ops never mix domains.
        let mut stack = [0.0f64; MAX_DEPTH];
        let mut sp = 0usize;
        for op in &self.ops {
            match op {
                Op::PushCol(i) => {
                    stack[sp] = row[*i];
                    sp += 1;
                }
                Op::PushLit(v) => {
                    stack[sp] = *v;
                    sp += 1;
                }
                Op::Bin(b) => {
                    sp -= 1;
                    stack[sp - 1] = b.apply(stack[sp - 1], stack[sp]);
                }
                Op::Cmp(c) => {
                    sp -= 1;
                    stack[sp - 1] = f64::from(c.apply(stack[sp - 1], stack[sp]));
                }
                Op::And => {
                    sp -= 1;
                    stack[sp - 1] = f64::from(stack[sp - 1] != 0.0 && stack[sp] != 0.0);
                }
                Op::Or => {
                    sp -= 1;
                    stack[sp - 1] = f64::from(stack[sp - 1] != 0.0 || stack[sp] != 0.0);
                }
                Op::Not => stack[sp - 1] = f64::from(stack[sp - 1] == 0.0),
            }
        }
        stack[0] != 0.0
    }

    /// Maximum stack depth the program needs.
    pub fn depth(&self) -> usize {
        let mut depth = 0usize;
        let mut max = 0usize;
        for op in &self.ops {
            match op {
                Op::PushCol(_) | Op::PushLit(_) => {
                    depth += 1;
                    max = max.max(depth);
                }
                Op::Bin(_) | Op::Cmp(_) | Op::And | Op::Or => depth -= 1,
                Op::Not => {}
            }
        }
        max
    }
}

/// Fixed evaluation stack bound; [`crate::Plan::validate`] rejects
/// deeper expressions up front.
pub(crate) const MAX_DEPTH: usize = 32;

// ---------------------------------------------------------------- wire form

/// Most postfix ops a shipped filter may hold. Decoding rebuilds a tree
/// no taller than its op count, so this also bounds every recursive
/// walk (check, compile, drop) over a filter that arrived from a peer.
pub(crate) const MAX_OPS: usize = 1024;

// Wire tags of the postfix word list. An operator's tag is its table's
// base plus its position in the table, so the tables are append-only.
const TAG_COL: u64 = 0;
const TAG_LIT: u64 = 1;
const TAG_BIN: u64 = 2;
const TAG_CMP: u64 = 6;
const TAG_AND: u64 = 12;
const TAG_OR: u64 = 13;
const TAG_NOT: u64 = 14;
const BIN_OPS: [BinOp; 4] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
const CMP_OPS: [CmpOp; 6] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Eq, CmpOp::Ne];

impl Expr {
    /// Serialise a checked expression as postfix words: one tag per op,
    /// a column reference followed by its index into `columns`, a
    /// literal by its `f64` bits (so NaN payloads, infinities and signed
    /// zeros travel exactly).
    pub fn to_postfix(&self, columns: &[String]) -> Vec<u64> {
        let mut words = Vec::new();
        for op in Program::compile(self, columns).ops {
            match op {
                Op::PushCol(i) => words.extend([TAG_COL, i as u64]),
                Op::PushLit(v) => words.extend([TAG_LIT, v.to_bits()]),
                Op::Bin(b) => words.push(TAG_BIN + position(&BIN_OPS, b)),
                Op::Cmp(c) => words.push(TAG_CMP + position(&CMP_OPS, c)),
                Op::And => words.push(TAG_AND),
                Op::Or => words.push(TAG_OR),
                Op::Not => words.push(TAG_NOT),
            }
        }
        words
    }

    /// Rebuild a boolean expression from untrusted postfix words. `None`
    /// on an unknown tag, a missing operand word, a column index outside
    /// `columns`, an operator whose operands are missing or of the wrong
    /// type, a stack deeper than [`MAX_DEPTH`], more than [`MAX_OPS`]
    /// ops, or anything but one boolean left at the end.
    pub fn from_postfix(words: &[u64], columns: &[String]) -> Option<Expr> {
        let mut stack: Vec<(Expr, ExprType)> = Vec::new();
        let mut words = words.iter().copied();
        let mut ops = 0usize;
        while let Some(tag) = words.next() {
            ops += 1;
            if ops > MAX_OPS {
                return None;
            }
            let node = match tag {
                TAG_COL => {
                    let name = columns.get(usize::try_from(words.next()?).ok()?)?;
                    (Expr::Col(name.clone()), ExprType::Num)
                }
                TAG_LIT => (Expr::Lit(f64::from_bits(words.next()?)), ExprType::Num),
                TAG_NOT => (Expr::Not(Box::new(pop(&mut stack, ExprType::Bool)?)), ExprType::Bool),
                _ => {
                    let operands = if tag < TAG_AND { ExprType::Num } else { ExprType::Bool };
                    let b = Box::new(pop(&mut stack, operands)?);
                    let a = Box::new(pop(&mut stack, operands)?);
                    match tag {
                        TAG_BIN..TAG_CMP => {
                            (Expr::Bin(BIN_OPS[(tag - TAG_BIN) as usize], a, b), ExprType::Num)
                        }
                        TAG_CMP..TAG_AND => {
                            (Expr::Cmp(CMP_OPS[(tag - TAG_CMP) as usize], a, b), ExprType::Bool)
                        }
                        TAG_AND => (Expr::And(a, b), ExprType::Bool),
                        TAG_OR => (Expr::Or(a, b), ExprType::Bool),
                        _ => return None,
                    }
                }
            };
            if stack.len() == MAX_DEPTH {
                return None;
            }
            stack.push(node);
        }
        let root = pop(&mut stack, ExprType::Bool)?;
        stack.is_empty().then_some(root)
    }
}

fn position<T: PartialEq>(table: &[T], op: T) -> u64 {
    table.iter().position(|o| *o == op).expect("every operator is listed") as u64
}

fn pop(stack: &mut Vec<(Expr, ExprType)>, want: ExprType) -> Option<Expr> {
    let (expr, ty) = stack.pop()?;
    (ty == want).then_some(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typing_catches_domain_mixing() {
        let cols = vec!["v".to_string()];
        assert_eq!(Expr::col("v").lt(Expr::lit(1.0)).check(&cols), Ok(ExprType::Bool));
        assert!(Expr::col("v").and(Expr::lit(1.0)).check(&cols).is_err());
        assert!(Expr::col("w").lt(Expr::lit(1.0)).check(&cols).is_err());
        assert!(Expr::col("v").add(Expr::lit(1.0)).check(&cols).is_ok());
        assert!(Expr::col("v").lt(Expr::lit(1.0)).not().check(&cols).is_ok());
    }

    #[test]
    fn compiled_program_matches_hand_eval() {
        let cols = vec!["a".to_string(), "b".to_string()];
        // (a * 2 + b >= 3) && !(b == 0)
        let e = Expr::col("a")
            .mul(Expr::lit(2.0))
            .add(Expr::col("b"))
            .ge(Expr::lit(3.0))
            .and(Expr::col("b").eq(Expr::lit(0.0)).not());
        assert_eq!(e.check(&cols), Ok(ExprType::Bool));
        let p = Program::compile(&e, &cols);
        assert!(p.depth() <= MAX_DEPTH);
        assert!(p.eval_bool(&[1.0, 1.0])); // 3 >= 3 && b != 0
        assert!(!p.eval_bool(&[1.0, 0.0])); // b == 0
        assert!(!p.eval_bool(&[0.5, 1.0])); // 2 < 3
    }

    #[test]
    fn column_collection_dedupes_in_order() {
        let e = Expr::col("b").add(Expr::col("a")).lt(Expr::col("b"));
        assert_eq!(e.columns(), vec!["b".to_string(), "a".to_string()]);
    }
}
