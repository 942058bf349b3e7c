//! Differential testing of the codelet compiler+VM against a direct AST
//! reference evaluator: random expressions must produce identical values
//! through both paths (catching compiler bugs in jump patching, operator
//! precedence, stack discipline).

use codelet::ast::{BinOp, Expr, UnOp};
use codelet::Codelet;
use evpath::Record;
use proptest::prelude::*;

/// Reference semantics for integer expressions (mirrors the VM's wrapping
/// arithmetic and error conditions).
fn eval_ref(e: &Expr) -> Option<i64> {
    Some(match e {
        Expr::Int(v) => *v,
        Expr::Binary { op, lhs, rhs } => {
            let a = eval_ref(lhs)?;
            let b = eval_ref(rhs)?;
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_div(b)
                }
                BinOp::Rem => {
                    if b == 0 {
                        return None;
                    }
                    a.wrapping_rem(b)
                }
                _ => unreachable!("generator emits arithmetic only"),
            }
        }
        Expr::Unary { op: UnOp::Neg, expr } => eval_ref(expr)?.wrapping_neg(),
        _ => unreachable!("generator emits arithmetic only"),
    })
}

/// Render an arithmetic AST back to codelet source.
fn to_source(e: &Expr) -> String {
    match e {
        Expr::Int(v) => {
            if *v < 0 {
                format!("(0 - {})", v.unsigned_abs())
            } else {
                v.to_string()
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                _ => unreachable!(),
            };
            format!("({} {} {})", to_source(lhs), o, to_source(rhs))
        }
        Expr::Unary { op: UnOp::Neg, expr } => format!("(-{})", to_source(expr)),
        _ => unreachable!(),
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = (-50i64..50).prop_map(Expr::Int);
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), 0..5usize).prop_map(|(l, r, op)| {
                let op = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Rem][op];
                Expr::Binary { op, lhs: Box::new(l), rhs: Box::new(r) }
            }),
            inner.prop_map(|e| Expr::Unary { op: UnOp::Neg, expr: Box::new(e) }),
        ]
    })
}

proptest! {
    #[test]
    fn compiled_vm_matches_reference(expr in arb_expr()) {
        let src = format!("emit_int(\"r\", {});", to_source(&expr));
        let code = Codelet::compile(&src).expect("generated source is valid");
        let result = code.run(&Record::new());
        match eval_ref(&expr) {
            Some(v) => {
                let out = result.expect("reference evaluated, VM must too");
                prop_assert_eq!(out.get_i64("r"), Some(v));
            }
            None => {
                // Division by zero: both reject.
                prop_assert!(result.is_err());
            }
        }
    }

    /// Comparison chains: the VM's boolean results match Rust's.
    #[test]
    fn comparisons_match(a in -100i64..100, b in -100i64..100) {
        let src = format!(
            "emit_int(\"lt\", 0); if {a} < {b} {{ emit_int(\"lt\", 1); }}\
             emit_int(\"le\", 0); if {a} <= {b} {{ emit_int(\"le\", 1); }}\
             emit_int(\"eq\", 0); if {a} == {b} {{ emit_int(\"eq\", 1); }}"
        );
        // Negative literals need parentheses in source form.
        let src = src.replace("if -", "if 0 -");
        let code = Codelet::compile(&src);
        prop_assume!(code.is_ok());
        let out = code.unwrap().run(&Record::new()).unwrap();
        if a >= 0 && b >= 0 {
            prop_assert_eq!(out.get_i64("lt"), Some(i64::from(a < b)));
            prop_assert_eq!(out.get_i64("le"), Some(i64::from(a <= b)));
            prop_assert_eq!(out.get_i64("eq"), Some(i64::from(a == b)));
        }
    }

    /// Loop summation matches the closed form for arbitrary bounds.
    #[test]
    fn loops_sum_correctly(n in 0i64..200) {
        let src = format!(
            "let s = 0; for i in 0..{n} {{ s = s + i; }} emit_int(\"s\", s);"
        );
        let out = Codelet::compile(&src).unwrap().run(&Record::new()).unwrap();
        prop_assert_eq!(out.get_i64("s"), Some(n * (n - 1) / 2));
    }

    /// The sampling plug-in agrees with a direct Rust filter for random
    /// arrays and strides.
    #[test]
    fn sampling_plugin_matches_rust(
        values in proptest::collection::vec(-1e6f64..1e6, 0..300),
        stride in 1usize..12,
    ) {
        let plugin = Codelet::compile(&codelet::plugins::sampling("x", stride)).unwrap();
        let input = Record::new().with("x", evpath::FieldValue::from(values.clone()));
        let out = plugin.run(&input).unwrap();
        let expected: Vec<f64> =
            values.iter().copied().step_by(stride).collect();
        prop_assert_eq!(out.get_f64_array("x"), Some(expected.as_slice()));
    }

    /// The bounding-box plug-in agrees with a direct Rust filter.
    #[test]
    fn bounding_box_plugin_matches_rust(
        values in proptest::collection::vec(-100f64..100.0, 0..300),
        lo in -50f64..0.0,
        hi in 0f64..50.0,
    ) {
        let plugin = Codelet::compile(&codelet::plugins::bounding_box("x", lo, hi)).unwrap();
        let input = Record::new().with("x", evpath::FieldValue::from(values.clone()));
        let out = plugin.run(&input).unwrap();
        let expected: Vec<f64> =
            values.iter().copied().filter(|v| (lo..=hi).contains(v)).collect();
        prop_assert_eq!(out.get_f64_array("x"), Some(expected.as_slice()));
        prop_assert_eq!(out.get_i64("dc_selected"), Some(expected.len() as i64));
    }
}
