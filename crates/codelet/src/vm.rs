//! The bytecode interpreter and builtin table.

use evpath::{FieldValue, PackedDtype, Record};

use crate::compile::{Const, Instr, Program};
use crate::value::{values_equal, Value};

/// Default instruction budget: generous for "lightweight" data-conditioning
/// kernels over per-process chunks, but finite so a buggy plug-in cannot
/// stall the I/O path.
pub const DEFAULT_INSTRUCTION_BUDGET: u64 = 50_000_000;

/// Runtime error.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Operand types did not fit the operation.
    Type(String),
    /// Array index out of bounds.
    IndexOutOfBounds {
        /// Offending index.
        index: i64,
        /// Array length.
        len: usize,
    },
    /// Input record lacks a required field (or has the wrong type).
    MissingField(String),
    /// The instruction budget was exhausted.
    BudgetExceeded,
    /// Integer division/remainder by zero.
    DivisionByZero,
    /// Builtin called with the wrong number of arguments.
    Arity {
        /// Builtin name.
        name: &'static str,
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Type(m) => write!(f, "type error: {m}"),
            RunError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds (len {len})")
            }
            RunError::MissingField(n) => write!(f, "input field `{n}` missing or mistyped"),
            RunError::BudgetExceeded => write!(f, "instruction budget exceeded"),
            RunError::DivisionByZero => write!(f, "integer division by zero"),
            RunError::Arity { name, expected, got } => {
                write!(f, "builtin `{name}` expects {expected} args, got {got}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Builtin table: order defines the compile-time indices.
const BUILTINS: &[&str] = &[
    "array",      // 0: new float[]
    "int_array",  // 1: new int[]
    "len",        // 2
    "push",       // 3
    "abs",        // 4
    "sqrt",       // 5
    "floor",      // 6
    "min",        // 7
    "max",        // 8
    "sum",        // 9
    "int",        // 10: cast to int
    "float",      // 11: cast to float
    "get_f64",    // 12: input f64 array field -> float[]
    "get_i64",    // 13: input i64/u64 array field -> int[]
    "get_int",    // 14: input integer scalar
    "get_float",  // 15: input float scalar
    "get_str",    // 16: input string
    "has",        // 17: field exists?
    "emit_f64",   // 18: output float[] field
    "emit_i64",   // 19: output int[] field
    "emit_int",   // 20: output integer scalar
    "emit_float", // 21: output float scalar
    "emit_str",   // 22: output string
    "noop",       // 23: swallow a value (test helper)
    "pow",        // 24
];

/// Resolve a builtin name to its table index (used by the compiler).
pub fn builtin_index(name: &str) -> Option<u16> {
    BUILTINS.iter().position(|&b| b == name).map(|i| i as u16)
}

/// Execute a compiled program against `input`, producing the output record.
pub fn execute(program: &Program, input: &Record, budget: u64) -> Result<Record, RunError> {
    let mut vm = Vm {
        stack: Vec::with_capacity(16),
        slots: vec![Value::Int(0); program.num_slots],
        output: Record::new(),
        input,
        remaining: budget,
    };
    vm.run(program)?;
    Ok(vm.output)
}

struct Vm<'a> {
    stack: Vec<Value>,
    slots: Vec<Value>,
    output: Record,
    input: &'a Record,
    remaining: u64,
}

impl Vm<'_> {
    fn pop(&mut self) -> Value {
        self.stack.pop().expect("compiler guarantees stack discipline")
    }

    fn run(&mut self, program: &Program) -> Result<(), RunError> {
        let code = &program.instructions;
        let mut pc = 0usize;
        while pc < code.len() {
            if self.remaining == 0 {
                return Err(RunError::BudgetExceeded);
            }
            self.remaining -= 1;
            match code[pc] {
                Instr::PushConst(c) => {
                    let v = match &program.constants[c as usize] {
                        Const::Int(v) => Value::Int(*v),
                        Const::Float(v) => Value::Float(*v),
                        Const::Bool(v) => Value::Bool(*v),
                        Const::Str(s) => Value::str(s.clone()),
                    };
                    self.stack.push(v);
                }
                Instr::LoadVar(s) => self.stack.push(self.slots[s as usize].clone()),
                Instr::StoreVar(s) => {
                    let v = self.pop();
                    self.slots[s as usize] = v;
                }
                Instr::Add | Instr::Sub | Instr::Mul | Instr::Div | Instr::Rem => {
                    let rhs = self.pop();
                    let lhs = self.pop();
                    self.stack.push(arith(code[pc], &lhs, &rhs)?);
                }
                Instr::Eq | Instr::Ne => {
                    let rhs = self.pop();
                    let lhs = self.pop();
                    let eq = values_equal(&lhs, &rhs).ok_or_else(|| {
                        RunError::Type(format!(
                            "cannot compare {} with {}",
                            lhs.type_name(),
                            rhs.type_name()
                        ))
                    })?;
                    self.stack.push(Value::Bool(if matches!(code[pc], Instr::Eq) {
                        eq
                    } else {
                        !eq
                    }));
                }
                Instr::Lt | Instr::Le | Instr::Gt | Instr::Ge => {
                    let rhs = self.pop();
                    let lhs = self.pop();
                    let (a, b) = numeric_pair(&lhs, &rhs)?;
                    let r = match code[pc] {
                        Instr::Lt => a < b,
                        Instr::Le => a <= b,
                        Instr::Gt => a > b,
                        _ => a >= b,
                    };
                    self.stack.push(Value::Bool(r));
                }
                Instr::Not => {
                    let v = self.pop();
                    let b = v.as_bool().ok_or_else(|| {
                        RunError::Type(format!("`!` needs bool, got {}", v.type_name()))
                    })?;
                    self.stack.push(Value::Bool(!b));
                }
                Instr::Neg => {
                    let v = self.pop();
                    let out = match v {
                        Value::Int(i) => Value::Int(-i),
                        Value::Float(f) => Value::Float(-f),
                        other => {
                            return Err(RunError::Type(format!(
                                "`-` needs a number, got {}",
                                other.type_name()
                            )))
                        }
                    };
                    self.stack.push(out);
                }
                Instr::Index => {
                    let idx = self.pop();
                    let arr = self.pop();
                    let i = idx.as_i64().ok_or_else(|| {
                        RunError::Type(format!("index must be int, got {}", idx.type_name()))
                    })?;
                    let out = match &arr {
                        Value::FloatArr(a) => {
                            let a = a.borrow();
                            let len = a.len();
                            if i < 0 || i as usize >= len {
                                return Err(RunError::IndexOutOfBounds { index: i, len });
                            }
                            Value::Float(a[i as usize])
                        }
                        Value::IntArr(a) => {
                            let a = a.borrow();
                            let len = a.len();
                            if i < 0 || i as usize >= len {
                                return Err(RunError::IndexOutOfBounds { index: i, len });
                            }
                            Value::Int(a[i as usize])
                        }
                        other => {
                            return Err(RunError::Type(format!(
                                "cannot index {}",
                                other.type_name()
                            )))
                        }
                    };
                    self.stack.push(out);
                }
                Instr::IndexStore => {
                    let value = self.pop();
                    let idx = self.pop();
                    let arr = self.pop();
                    let i = idx.as_i64().ok_or_else(|| {
                        RunError::Type(format!("index must be int, got {}", idx.type_name()))
                    })?;
                    match &arr {
                        Value::FloatArr(a) => {
                            let mut a = a.borrow_mut();
                            let len = a.len();
                            if i < 0 || i as usize >= len {
                                return Err(RunError::IndexOutOfBounds { index: i, len });
                            }
                            a[i as usize] = value.as_f64().ok_or_else(|| {
                                RunError::Type("float[] element must be numeric".to_string())
                            })?;
                        }
                        Value::IntArr(a) => {
                            let mut a = a.borrow_mut();
                            let len = a.len();
                            if i < 0 || i as usize >= len {
                                return Err(RunError::IndexOutOfBounds { index: i, len });
                            }
                            a[i as usize] = value.as_i64().ok_or_else(|| {
                                RunError::Type("int[] element must be int".to_string())
                            })?;
                        }
                        other => {
                            return Err(RunError::Type(format!(
                                "cannot index-assign {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                Instr::Call { id, argc } => {
                    let base = self.stack.len() - argc as usize;
                    let args: Vec<Value> = self.stack.drain(base..).collect();
                    let result = self.call_builtin(id, args)?;
                    self.stack.push(result);
                }
                Instr::Jump(t) => {
                    pc = t as usize;
                    continue;
                }
                Instr::JumpIfFalse(t) => {
                    let v = self.pop();
                    let b = v.as_bool().ok_or_else(|| {
                        RunError::Type(format!("condition must be bool, got {}", v.type_name()))
                    })?;
                    if !b {
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::JumpIfTrue(t) => {
                    let v = self.pop();
                    let b = v.as_bool().ok_or_else(|| {
                        RunError::Type(format!("condition must be bool, got {}", v.type_name()))
                    })?;
                    if b {
                        pc = t as usize;
                        continue;
                    }
                }
                Instr::Dup => {
                    let v = self.stack.last().expect("dup on empty stack").clone();
                    self.stack.push(v);
                }
                Instr::Pop => {
                    self.pop();
                }
                Instr::Halt => return Ok(()),
            }
            pc += 1;
        }
        Ok(())
    }

    fn call_builtin(&mut self, id: u16, args: Vec<Value>) -> Result<Value, RunError> {
        let name = BUILTINS[id as usize];
        let arity = |expected: usize| -> Result<(), RunError> {
            if args.len() == expected {
                Ok(())
            } else {
                Err(RunError::Arity { name, expected, got: args.len() })
            }
        };
        let need_f64 = |v: &Value| {
            v.as_f64().ok_or_else(|| {
                RunError::Type(format!("`{name}` needs a number, got {}", v.type_name()))
            })
        };
        let need_str = |v: &Value| match v {
            Value::Str(s) => Ok(s.as_str().to_string()),
            other => {
                Err(RunError::Type(format!("`{name}` needs a string, got {}", other.type_name())))
            }
        };
        match name {
            "array" => {
                arity(0)?;
                Ok(Value::float_arr(Vec::new()))
            }
            "int_array" => {
                arity(0)?;
                Ok(Value::int_arr(Vec::new()))
            }
            "len" => {
                arity(1)?;
                let n = match &args[0] {
                    Value::FloatArr(a) => a.borrow().len(),
                    Value::IntArr(a) => a.borrow().len(),
                    Value::Str(s) => s.len(),
                    other => {
                        return Err(RunError::Type(format!(
                            "`len` needs array or str, got {}",
                            other.type_name()
                        )))
                    }
                };
                Ok(Value::Int(n as i64))
            }
            "push" => {
                arity(2)?;
                match &args[0] {
                    Value::FloatArr(a) => a.borrow_mut().push(need_f64(&args[1])?),
                    Value::IntArr(a) => a.borrow_mut().push(args[1].as_i64().ok_or_else(|| {
                        RunError::Type("`push` into int[] needs an int".to_string())
                    })?),
                    other => {
                        return Err(RunError::Type(format!(
                            "`push` needs an array, got {}",
                            other.type_name()
                        )))
                    }
                }
                Ok(Value::Bool(true))
            }
            "abs" => {
                arity(1)?;
                Ok(match &args[0] {
                    Value::Int(i) => Value::Int(i.abs()),
                    other => Value::Float(need_f64(other)?.abs()),
                })
            }
            "sqrt" => {
                arity(1)?;
                Ok(Value::Float(need_f64(&args[0])?.sqrt()))
            }
            "floor" => {
                arity(1)?;
                Ok(Value::Float(need_f64(&args[0])?.floor()))
            }
            "pow" => {
                arity(2)?;
                Ok(Value::Float(need_f64(&args[0])?.powf(need_f64(&args[1])?)))
            }
            "min" | "max" => {
                arity(2)?;
                let (a, b) = (need_f64(&args[0])?, need_f64(&args[1])?);
                let v = if name == "min" { a.min(b) } else { a.max(b) };
                // Preserve int-ness when both inputs were ints.
                if let (Value::Int(_), Value::Int(_)) = (&args[0], &args[1]) {
                    Ok(Value::Int(v as i64))
                } else {
                    Ok(Value::Float(v))
                }
            }
            "sum" => {
                arity(1)?;
                Ok(match &args[0] {
                    Value::FloatArr(a) => Value::Float(a.borrow().iter().sum()),
                    Value::IntArr(a) => Value::Int(a.borrow().iter().sum()),
                    other => {
                        return Err(RunError::Type(format!(
                            "`sum` needs an array, got {}",
                            other.type_name()
                        )))
                    }
                })
            }
            "int" => {
                arity(1)?;
                Ok(Value::Int(need_f64(&args[0])? as i64))
            }
            "float" => {
                arity(1)?;
                Ok(Value::Float(need_f64(&args[0])?))
            }
            "get_f64" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                let arr = self.input.get_packed(&field).filter(|p| p.dtype() == PackedDtype::F64);
                Ok(Value::float_arr(arr.ok_or(RunError::MissingField(field))?.to_f64_vec()))
            }
            "get_i64" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                match self.input.get_packed(&field) {
                    Some(p) if p.dtype() == PackedDtype::I64 => Ok(Value::int_arr(p.to_i64_vec())),
                    Some(p) if p.dtype() == PackedDtype::U64 => Ok(Value::int_arr(
                        (0..p.elem_count()).map(|i| p.u64_at(i) as i64).collect(),
                    )),
                    _ => Err(RunError::MissingField(field)),
                }
            }
            "get_int" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                self.input.get_i64(&field).map(Value::Int).ok_or(RunError::MissingField(field))
            }
            "get_float" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                self.input.get_f64(&field).map(Value::Float).ok_or(RunError::MissingField(field))
            }
            "get_str" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                self.input.get_str(&field).map(Value::str).ok_or(RunError::MissingField(field))
            }
            "has" => {
                arity(1)?;
                let field = need_str(&args[0])?;
                Ok(Value::Bool(self.input.get(&field).is_some()))
            }
            "emit_f64" => {
                arity(2)?;
                let field = need_str(&args[0])?;
                match &args[1] {
                    Value::FloatArr(a) => {
                        self.output.set(&field, FieldValue::from(a.borrow().clone()));
                        Ok(Value::Bool(true))
                    }
                    other => Err(RunError::Type(format!(
                        "`emit_f64` needs float[], got {}",
                        other.type_name()
                    ))),
                }
            }
            "emit_i64" => {
                arity(2)?;
                let field = need_str(&args[0])?;
                match &args[1] {
                    Value::IntArr(a) => {
                        self.output.set(&field, FieldValue::from(a.borrow().clone()));
                        Ok(Value::Bool(true))
                    }
                    other => Err(RunError::Type(format!(
                        "`emit_i64` needs int[], got {}",
                        other.type_name()
                    ))),
                }
            }
            "emit_int" => {
                arity(2)?;
                let field = need_str(&args[0])?;
                let v = args[1]
                    .as_i64()
                    .ok_or_else(|| RunError::Type("`emit_int` needs an int".to_string()))?;
                self.output.set(&field, FieldValue::I64(v));
                Ok(Value::Bool(true))
            }
            "emit_float" => {
                arity(2)?;
                let field = need_str(&args[0])?;
                self.output.set(&field, FieldValue::F64(need_f64(&args[1])?));
                Ok(Value::Bool(true))
            }
            "emit_str" => {
                arity(2)?;
                let field = need_str(&args[0])?;
                let s = need_str(&args[1])?;
                self.output.set(&field, FieldValue::Str(s.into()));
                Ok(Value::Bool(true))
            }
            "noop" => Ok(Value::Bool(true)),
            other => unreachable!("builtin `{other}` in table but not dispatched"),
        }
    }
}

fn numeric_pair(lhs: &Value, rhs: &Value) -> Result<(f64, f64), RunError> {
    match (lhs.as_f64(), rhs.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(RunError::Type(format!(
            "numeric op needs numbers, got {} and {}",
            lhs.type_name(),
            rhs.type_name()
        ))),
    }
}

fn arith(op: Instr, lhs: &Value, rhs: &Value) -> Result<Value, RunError> {
    // Int op Int stays Int (with checked div/rem); any float widens.
    if let (Value::Int(a), Value::Int(b)) = (lhs, rhs) {
        return Ok(Value::Int(match op {
            Instr::Add => a.wrapping_add(*b),
            Instr::Sub => a.wrapping_sub(*b),
            Instr::Mul => a.wrapping_mul(*b),
            Instr::Div => {
                if *b == 0 {
                    return Err(RunError::DivisionByZero);
                }
                a.wrapping_div(*b)
            }
            Instr::Rem => {
                if *b == 0 {
                    return Err(RunError::DivisionByZero);
                }
                a.wrapping_rem(*b)
            }
            _ => unreachable!(),
        }));
    }
    let (a, b) = numeric_pair(lhs, rhs)?;
    Ok(Value::Float(match op {
        Instr::Add => a + b,
        Instr::Sub => a - b,
        Instr::Mul => a * b,
        Instr::Div => a / b,
        Instr::Rem => a % b,
        _ => unreachable!(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codelet;
    use evpath::{FieldValue, Record};

    fn run(src: &str, input: Record) -> Record {
        Codelet::compile(src).unwrap().run(&input).unwrap()
    }

    #[test]
    fn arithmetic_and_emit() {
        let out = run("emit_int(\"x\", 2 + 3 * 4); emit_float(\"y\", 1.0 / 4.0);", Record::new());
        assert_eq!(out.get_i64("x"), Some(14));
        assert_eq!(out.get_f64("y"), Some(0.25));
    }

    #[test]
    fn control_flow_sum() {
        let out = run(
            "let s = 0; for i in 0..10 { if i % 2 == 0 { s = s + i; } } emit_int(\"s\", s);",
            Record::new(),
        );
        assert_eq!(out.get_i64("s"), Some(20));
    }

    #[test]
    fn while_loop() {
        let out = run(
            "let n = 100; let steps = 0; while n > 1 { n = n / 2; steps = steps + 1; } emit_int(\"steps\", steps);",
            Record::new(),
        );
        assert_eq!(out.get_i64("steps"), Some(6)); // 100→50→25→12→6→3→1
    }

    #[test]
    fn short_circuit_guards_indexing() {
        let input = Record::new().with("v", FieldValue::from(vec![5.0]));
        // v[1] would be out of bounds; && must not evaluate it.
        let out = run(
            "let v = get_f64(\"v\"); let ok = len(v) > 1 && v[1] > 0.0; emit_int(\"ok\", int(float(0)));
             if ok { emit_int(\"ok\", 1); } else { emit_int(\"ok\", 0); }",
            input,
        );
        assert_eq!(out.get_i64("ok"), Some(0));
    }

    #[test]
    fn short_circuit_or() {
        let out = run("let x = true || 1 / 0 == 0; if x { emit_int(\"r\", 1); }", Record::new());
        assert_eq!(out.get_i64("r"), Some(1));
    }

    #[test]
    fn array_reference_semantics() {
        let out = run(
            "let a = array(); push(a, 1.0); let b = a; push(b, 2.0); emit_f64(\"a\", a);",
            Record::new(),
        );
        assert_eq!(out.get_f64_array("a"), Some(&[1.0, 2.0][..]));
    }

    #[test]
    fn input_round_trip() {
        let input = Record::new()
            .with("vals", FieldValue::from(vec![1.0, 2.0, 3.0]))
            .with("scale", FieldValue::F64(10.0))
            .with("tag", FieldValue::Str("gts".into()));
        let out = run(
            r#"let v = get_f64("vals");
               let s = get_float("scale");
               let o = array();
               for i in 0..len(v) { push(o, v[i] * s); }
               emit_f64("scaled", o);
               emit_str("from", get_str("tag"));"#,
            input,
        );
        assert_eq!(out.get_f64_array("scaled"), Some(&[10.0, 20.0, 30.0][..]));
        assert_eq!(out.get_str("from"), Some("gts"));
    }

    #[test]
    fn missing_field_is_an_error() {
        let c = Codelet::compile("let v = get_f64(\"absent\");").unwrap();
        assert_eq!(c.run(&Record::new()), Err(RunError::MissingField("absent".to_string())));
    }

    #[test]
    fn budget_stops_runaway_loops() {
        let c = Codelet::compile("let x = 0; while true { x = x + 1; }").unwrap();
        assert_eq!(c.run_budgeted(&Record::new(), 10_000), Err(RunError::BudgetExceeded));
    }

    #[test]
    fn index_out_of_bounds_detected() {
        let input = Record::new().with("v", FieldValue::from(vec![1.0]));
        let c = Codelet::compile("let v = get_f64(\"v\"); let x = v[5];").unwrap();
        assert_eq!(c.run(&input), Err(RunError::IndexOutOfBounds { index: 5, len: 1 }));
    }

    #[test]
    fn division_by_zero_detected() {
        let c = Codelet::compile("let x = 1 / 0;").unwrap();
        assert_eq!(c.run(&Record::new()), Err(RunError::DivisionByZero));
        // Float division by zero is IEEE infinity, not an error.
        let out = run("emit_float(\"inf\", 1.0 / 0.0);", Record::new());
        assert_eq!(out.get_f64("inf"), Some(f64::INFINITY));
    }

    #[test]
    fn return_stops_early() {
        let out = run("emit_int(\"a\", 1); return; emit_int(\"b\", 2);", Record::new());
        assert_eq!(out.get_i64("a"), Some(1));
        assert!(out.get("b").is_none());
    }

    #[test]
    fn type_errors_are_reported_not_panics() {
        let cases = [
            "let x = 1 + true;",
            "let x = \"s\" * 2;",
            "if 1 { noop(0); }",
            "let a = array(); let x = a[0.5];",
            "let x = !3;",
        ];
        for src in cases {
            let c = Codelet::compile(src).unwrap();
            let err = c.run(&Record::new());
            assert!(err.is_err(), "{src} should be a runtime error");
        }
    }

    #[test]
    fn index_assignment() {
        let out = run(
            "let a = array(); push(a, 0.0); push(a, 0.0); a[1] = 7.5; emit_f64(\"a\", a);",
            Record::new(),
        );
        assert_eq!(out.get_f64_array("a"), Some(&[0.0, 7.5][..]));
    }

    #[test]
    fn builtin_math() {
        let out = run(
            r#"emit_float("sq", sqrt(16.0));
               emit_float("ab", abs(-2.5));
               emit_int("mn", min(3, 7));
               emit_float("mx", max(1.0, 2.0));
               emit_float("fl", floor(3.9));
               emit_float("pw", pow(2.0, 10.0));"#,
            Record::new(),
        );
        assert_eq!(out.get_f64("sq"), Some(4.0));
        assert_eq!(out.get_f64("ab"), Some(2.5));
        assert_eq!(out.get_i64("mn"), Some(3));
        assert_eq!(out.get_f64("mx"), Some(2.0));
        assert_eq!(out.get_f64("fl"), Some(3.0));
        assert_eq!(out.get_f64("pw"), Some(1024.0));
    }

    #[test]
    fn int_arrays() {
        let input = Record::new().with("ids", FieldValue::from(vec![10u64, 20, 30]));
        let out = run(
            r#"let ids = get_i64("ids");
               let o = int_array();
               for i in 0..len(ids) { push(o, ids[i] + 1); }
               emit_i64("bumped", o);
               emit_int("total", sum(o));"#,
            input,
        );
        assert_eq!(out.get_i64("total"), Some(63));
    }
}
