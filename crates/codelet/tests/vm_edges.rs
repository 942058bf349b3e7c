//! VM edge cases that the pushdown code generator leans on: degenerate
//! loop ranges, mid-loop budget exhaustion (the sandbox guarantee for
//! writer-side plug-ins), and dtype mismatches on `get_f64`.

use std::sync::Arc;

use codelet::{Codelet, RunError};
use evpath::{FieldValue, Record};

#[test]
fn empty_and_inverted_ranges_run_zero_iterations() {
    // `a..b` with a >= b must execute the body zero times, not wrap or
    // trap — the pushdown filter hits this on every empty chunk.
    let c = Codelet::compile(
        r#"
        let v = get_f64("v");
        let n = len(v);
        let out = array();
        for i in 0..n {
            push(out, v[i]);
        }
        let hits = 0;
        for i in 5..5 { let hits = hits + 1; }
        for i in 7..3 { let hits = hits + 100; }
        emit_f64("v", out);
        emit_int("iters", hits);
        "#,
    )
    .expect("compile");
    let input = Record::new().with("v", FieldValue::from(Vec::<f64>::new()));
    let out = c.run(&input).expect("run");
    assert_eq!(out.get_f64_array("v"), Some(&[][..]), "empty chunk passes through empty");
    assert_eq!(out.get_i64("iters"), Some(0), "degenerate ranges must not iterate");
}

#[test]
fn budget_exhaustion_mid_loop_is_a_clean_error() {
    let c = Codelet::compile(
        r#"
        let v = get_f64("v");
        let n = len(v);
        let acc = 0.0;
        for i in 0..n {
            let acc = acc + v[i];
        }
        emit_float("acc", acc);
        "#,
    )
    .expect("compile");
    let input = Record::new().with("v", FieldValue::from(vec![1.0; 10_000]));
    // Generous budget: completes.
    c.run_budgeted(&input, 10_000_000).expect("generous budget");
    // Starved budget: must stop mid-loop with the typed error, never
    // partial output or a hang.
    let err = c.run_budgeted(&input, 500).expect_err("budget must trip");
    assert_eq!(err, RunError::BudgetExceeded);
    // The boundary is deterministic: the same starved budget fails the
    // same way every time (replay safety for fault batteries).
    assert_eq!(c.run_budgeted(&input, 500).expect_err("same"), RunError::BudgetExceeded);
}

#[test]
fn get_f64_on_non_f64_fields_reports_the_field() {
    let c = Codelet::compile(
        r#"
        let v = get_f64("v");
        emit_int("n", len(v));
        "#,
    )
    .expect("compile");
    // Wrong dtype: u64 array under the requested name.
    let wrong = Record::new().with("v", FieldValue::from(vec![1u64, 2, 3]));
    assert_eq!(c.run(&wrong).expect_err("dtype mismatch"), RunError::MissingField("v".into()));
    // Scalar under the requested name.
    let scalar = Record::new().with("v", FieldValue::F64(1.5));
    assert_eq!(c.run(&scalar).expect_err("scalar mismatch"), RunError::MissingField("v".into()));
    // Absent entirely.
    let empty = Record::new();
    assert_eq!(c.run(&empty).expect_err("absent"), RunError::MissingField("v".into()));
}

/// `get_f64` reads an f64 array wherever it lies: a view of a receive
/// buffer (what a chunk of at least `ZERO_COPY_MIN_BYTES` decodes to; this
/// one starts 20 bytes into its frame, off an 8-byte boundary) gives what
/// the owned elements give.
#[test]
fn get_f64_reads_a_view_of_a_receive_buffer_like_owned_elements() {
    let c = Codelet::compile(
        r#"
        let v = get_f64("v");
        let out = array();
        for i in 0..len(v) {
            if v[i] > 10.0 { push(out, v[i] * 2.0); }
        }
        emit_f64("v", out);
        emit_float("sum", sum(v));
        "#,
    )
    .expect("compile");
    let data: Vec<f64> = (0..1024).map(|i| f64::from(i) * 0.25 - 50.0).collect();
    let owned = Record::new().with("v", FieldValue::from(data));
    let wire = Arc::new(owned.encode());
    let viewed = Record::decode_shared(&wire).expect("decode");
    let view = viewed.get_packed("v").expect("an array field");
    assert!(view.is_view() && view.byte_len() >= evpath::ZERO_COPY_MIN_BYTES);
    let from_owned = c.run(&owned).expect("owned input");
    assert_eq!(c.run(&viewed).expect("view input"), from_owned);
    assert_eq!(from_owned.get_f64_array("v").map(<[f64]>::len), Some(783));
}
