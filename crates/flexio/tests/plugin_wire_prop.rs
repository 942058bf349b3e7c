//! The plug-in deployment record is bytes from a peer: a typed filter
//! body travels as a postfix word list that `PluginSpec::from_record`
//! must rebuild or refuse — value or `None`, never a panic, and nothing
//! it accepts may fail to install or to run. Valid specs round-trip
//! exactly (literal bits included); structurally damaged programs and
//! damaged record bytes are fuzzed.

use adios::{ArrayData, LocalBlock, VarValue};
use evpath::{FieldValue, Record};
use flexio::plugins::{InstalledPlugin, PluginBody};
use flexio::query::Expr;
use flexio::{PluginPlacement, PluginSpec};
use proptest::collection::vec;
use proptest::prelude::*;

// The wire tags (`flexio_query::expr`), pinned here on purpose: they
// are a format, and changing one breaks mixed-version couplings.
const COL: u64 = 0;
const LIT: u64 = 1;
const ADD: u64 = 2;
const LT: u64 = 6;
const AND: u64 = 12;
const NOT: u64 = 14;

fn arb_lit() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0u64..400).prop_map(|i| Expr::lit((i as f64 - 200.0) / 20.0)),
        any::<u64>().prop_map(|bits| Expr::lit(f64::from_bits(bits))),
    ]
}

fn arb_num(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![Just(Expr::col("v")), arb_lit()];
    if depth == 0 {
        return leaf.boxed();
    }
    let inner = arb_num(depth - 1);
    prop_oneof![
        leaf,
        (inner.clone(), inner, 0u8..4).prop_map(|(a, b, op)| match op {
            0 => a.add(b),
            1 => a.sub(b),
            2 => a.mul(b),
            _ => a.div(b),
        }),
    ]
    .boxed()
}

fn arb_filter(depth: u32) -> BoxedStrategy<Expr> {
    let cmp = (arb_num(2), arb_num(2), 0u8..6).prop_map(|(a, b, op)| match op {
        0 => a.lt(b),
        1 => a.le(b),
        2 => a.gt(b),
        3 => a.ge(b),
        4 => a.eq(b),
        _ => a.ne(b),
    });
    if depth == 0 {
        return cmp.boxed();
    }
    let sub = arb_filter(depth - 1);
    prop_oneof![
        cmp,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(b)),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(b)),
        sub.prop_map(|a| a.not()),
    ]
    .boxed()
}

fn filter_spec(filter: Expr) -> PluginSpec {
    PluginSpec {
        var: "v".to_string(),
        source: PluginBody::Filter(filter),
        placement: PluginPlacement::WriterSide,
    }
}

fn record_with(words: Vec<u64>) -> Record {
    Record::new()
        .with("var", FieldValue::Str("v".into()))
        .with("filter", FieldValue::from(words))
        .with("placement", FieldValue::U64(0))
}

fn words_of(spec: &PluginSpec) -> Vec<u64> {
    spec.to_record().get_u64_array("filter").expect("filter body").to_vec()
}

/// Whatever decodes must be usable: it installs, and it conditions a
/// chunk without panicking.
fn must_be_usable(spec: PluginSpec) {
    let plugin = InstalledPlugin::install(spec).expect("a decoded filter is well-typed");
    let data = ArrayData::F64(vec![-1.0, 0.0, f64::NAN, 2.5]);
    let chunk = VarValue::Block(
        LocalBlock { global_shape: vec![4], offset: vec![0], count: vec![4], data }.validated(),
    );
    plugin.apply(&chunk).expect("a filter conditions any array chunk");
}

proptest! {
    /// Filter bodies round-trip through the record and its ffs bytes
    /// exactly — compared in wire form, so NaN literals count.
    #[test]
    fn filter_specs_roundtrip(filter in arb_filter(3)) {
        let spec = filter_spec(filter.clone());
        let record = spec.to_record();
        let wire = Record::decode(&record.encode()).expect("own encoding decodes");
        let back = PluginSpec::from_record(&wire).expect("own record decodes");
        prop_assert_eq!(back.to_record(), record);
        must_be_usable(back);
    }

    /// Structured damage to a valid program — a word overwritten,
    /// dropped or inserted, the tail cut — decodes to a usable spec or
    /// to `None`.
    #[test]
    fn damaged_programs_decode_or_refuse(
        filter in arb_filter(3),
        at in any::<u64>(),
        word in prop_oneof![0u64..20, any::<u64>()],
        damage in 0u8..4,
    ) {
        let mut words = words_of(&filter_spec(filter.clone()));
        let at = (at % words.len() as u64) as usize;
        match damage {
            0 => words[at] = word,
            1 => { words.remove(at); }
            2 => words.insert(at, word),
            _ => words.truncate(at),
        }
        if let Some(spec) = PluginSpec::from_record(&record_with(words)) {
            must_be_usable(spec);
        }
    }

    /// Arbitrary word soup never panics the decoder either.
    #[test]
    fn word_soup_decodes_or_refuses(words in vec(prop_oneof![0u64..16, any::<u64>()], 0..64)) {
        if let Some(spec) = PluginSpec::from_record(&record_with(words.clone())) {
            must_be_usable(spec);
        }
    }

    /// Damage below the record layer: flipped and truncated ffs bytes
    /// either fail to decode as a record, or decode to a record that
    /// `from_record` accepts (usably) or refuses.
    #[test]
    fn damaged_record_bytes_decode_or_refuse(
        filter in arb_filter(2),
        at in any::<u64>(),
        flip in 1u8..=255,
        cut in any::<bool>(),
    ) {
        let mut bytes = filter_spec(filter.clone()).to_record().encode();
        let at = (at % bytes.len() as u64) as usize;
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] ^= flip;
        }
        if let Some(spec) = Record::decode(&bytes).ok().as_ref().and_then(PluginSpec::from_record) {
            if matches!(spec.source, PluginBody::Filter(_)) {
                must_be_usable(spec);
            }
        }
    }
}

#[test]
fn each_kind_of_malformed_program_is_refused() {
    let one = 1.0f64.to_bits();
    let refused = |words: &[u64]| PluginSpec::from_record(&record_with(words.to_vec())).is_none();
    // The well-formed baseline: `v < 1.0`.
    assert!(!refused(&[COL, 0, LIT, one, LT]));
    assert!(refused(&[]), "empty program");
    assert!(refused(&[COL, 0, LIT, one, 15]), "unknown tag");
    assert!(refused(&[COL, 0, LIT, one, u64::MAX]), "unknown tag");
    assert!(refused(&[COL, 0, LT]), "stack underflow");
    assert!(refused(&[NOT]), "stack underflow");
    assert!(refused(&[COL, 0, LIT, one, LT, COL, 0]), "leftover stack");
    assert!(refused(&[COL, 0, LIT, one, ADD]), "numeric result is not a predicate");
    assert!(refused(&[COL, 0, LIT, one, AND]), "boolean operator over numbers");
    assert!(refused(&[COL, 0, LIT, one, LT, LIT, one, ADD]), "arithmetic over a boolean");
    assert!(refused(&[COL, 1, LIT, one, LT]), "column index out of range");
    assert!(refused(&[COL, u64::MAX, LIT, one, LT]), "column index out of range");
    assert!(refused(&[COL, 0, LIT, one, LT, LIT]), "literal word missing");
    assert!(refused(&[COL, 0, LIT, one, LT, COL]), "column word missing");

    // `pending` operands on the stack at once, summed, compared to 1.0:
    // the evaluation stack holds 32, so 33 is over-deep.
    let sum_of = |pending: usize| {
        let mut words = vec![COL, 0];
        words.extend((1..pending).flat_map(|_| [LIT, one]));
        words.extend(std::iter::repeat_n(ADD, pending - 1));
        words.extend([LIT, one, LT]);
        words
    };
    assert!(!refused(&sum_of(32)), "the stack bound itself is fine");
    assert!(refused(&sum_of(33)), "over-deep program");

    // More ops than any lowered filter carries: a flat stack, so only
    // the op bound can refuse it.
    let mut long = vec![COL, 0, LIT, one, LT];
    long.extend(std::iter::repeat_n(NOT, 2000));
    assert!(refused(&long), "over-long program");
}

#[test]
fn codelet_bodies_keep_their_wire_form() {
    let spec = PluginSpec {
        var: "velocity".to_string(),
        source: codelet::plugins::sampling("velocity", 2).into(),
        placement: PluginPlacement::ReaderSide,
    };
    let record = spec.to_record();
    assert_eq!(record.get_str("source"), Some(codelet::plugins::sampling("velocity", 2).as_str()));
    assert!(record.get("filter").is_none());
    assert_eq!(PluginSpec::from_record(&record), Some(spec));
}
