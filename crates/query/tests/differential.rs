//! Differential oracle: the vectorized executor and the naive
//! row-at-a-time evaluator must produce bit-identical outputs over
//! random dtypes, shapes (owned and packed chunk views, multiple
//! writers, multiple steps) and plans (filters of varying depth,
//! aggregates, windows, limits). The writer-side placement of the
//! filter kernel is held to the same oracle, and to the codelet-VM
//! program the pushdown planner used to generate for it.

use adios::ArrayData;
use codelet::Codelet;
use evpath::ffs::PackedArray;
use evpath::{FieldValue, Record};
use flexio_query::{
    lower_pushdown, AggFunc, BinOp, ChunkView, CmpOp, Executor, Expr, FilterKernel, NaiveExecutor,
    Plan, PluginBody, QueryOutput,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Interesting f64 payloads: ordinary values plus the IEEE edge cases
/// (signed zero, NaN, infinities, subnormals) that would expose any
/// semantic gap between the two evaluators.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..2000).prop_map(|i| (i as f64 - 1000.0) / 100.0),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(5e-324),
        Just(1e100),
    ]
}

/// Chunk lengths at the 64-row mask-word boundaries half the time, any
/// up to 200 otherwise.
fn arb_len() -> BoxedStrategy<usize> {
    const EDGES: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];
    prop_oneof![(0..EDGES.len()).prop_map(|i| EDGES[i]), 0usize..=200].boxed()
}

/// `len` elements of `elem`, either independent or (the benchmark's
/// shape) runs of one value: runs of 64 and more cover whole 64-row
/// mask words that a comparison passes entirely or not at all.
fn arb_elems<T: Clone + std::fmt::Debug + 'static>(
    elem: BoxedStrategy<T>,
    len: usize,
) -> BoxedStrategy<Vec<T>> {
    let runs = vec((elem.clone(), 1usize..=150), 1..=6).prop_map(move |runs| {
        let flat: Vec<T> = runs.into_iter().flat_map(|(x, n)| std::iter::repeat_n(x, n)).collect();
        flat.into_iter().cycle().take(len).collect()
    });
    prop_oneof![vec(elem, len..=len), runs].boxed()
}

/// One column's data with a fixed logical dtype (`0..4`: f64, u64,
/// i64, u8) in a random physical representation — owned or a packed
/// zero-copy view, chosen per chunk. The dtype is chosen once per
/// stream (a variable keeps one dtype across writers and steps), but
/// representation may vary chunk to chunk, exactly as on a live stream
/// where small chunks arrive owned and large ones packed.
fn arb_column(dtype: u8, len: usize) -> BoxedStrategy<ArrayData> {
    match dtype {
        0 => (arb_elems(arb_f64().boxed(), len), any::<bool>())
            .prop_map(|(v, packed)| {
                if packed {
                    ArrayData::Packed(PackedArray::from_f64s(&v))
                } else {
                    ArrayData::F64(v)
                }
            })
            .boxed(),
        1 => (arb_elems((0u64..5000).boxed(), len), any::<bool>())
            .prop_map(|(v, packed)| {
                if packed {
                    ArrayData::Packed(PackedArray::from_u64s(&v))
                } else {
                    ArrayData::U64(v)
                }
            })
            .boxed(),
        2 => (arb_elems((-2500i64..2500).boxed(), len), any::<bool>())
            .prop_map(|(v, packed)| {
                if packed {
                    ArrayData::Packed(PackedArray::from_i64s(&v))
                } else {
                    ArrayData::I64(v)
                }
            })
            .boxed(),
        _ => (arb_elems(any::<u8>().boxed(), len), any::<bool>())
            .prop_map(|(bytes, packed)| {
                if packed {
                    ArrayData::Packed(PackedArray::from_bytes(&bytes))
                } else {
                    ArrayData::U8(bytes)
                }
            })
            .boxed(),
    }
}

/// A random predicate over columns `c0`/`c1` with nested arithmetic and
/// boolean structure, depth-bounded.
fn arb_pred(depth: u32) -> BoxedStrategy<Expr> {
    let leaf_num = prop_oneof![
        Just(Expr::col("c0")),
        Just(Expr::col("c1")),
        (0u64..400).prop_map(|i| Expr::lit((i as f64 - 200.0) / 20.0)),
    ];
    let num = if depth == 0 {
        leaf_num.boxed()
    } else {
        let inner = arb_num(depth - 1);
        prop_oneof![
            leaf_num,
            (inner.clone(), inner.clone(), 0u8..4).prop_map(|(a, b, op)| match op {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                _ => a.div(b),
            }),
        ]
        .boxed()
    };
    let cmp = (num.clone(), num, 0u8..6).prop_map(|(a, b, op)| match op {
        0 => a.lt(b),
        1 => a.le(b),
        2 => a.gt(b),
        3 => a.ge(b),
        4 => a.eq(b),
        _ => a.ne(b),
    });
    if depth == 0 {
        cmp.boxed()
    } else {
        let sub = arb_pred(depth - 1);
        prop_oneof![
            cmp,
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.and(b)),
            (sub.clone(), sub.clone()).prop_map(|(a, b)| a.or(b)),
            sub.prop_map(|a| a.not()),
        ]
        .boxed()
    }
}

fn arb_num(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        Just(Expr::col("c0")),
        Just(Expr::col("c1")),
        (0u64..400).prop_map(|i| Expr::lit((i as f64 - 200.0) / 20.0)),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
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
}

fn arb_plan() -> impl Strategy<Value = Plan> {
    let agg = prop_oneof![
        Just(None),
        (0u8..5, 0u8..2).prop_map(|(f, c)| {
            let func = match f {
                0 => AggFunc::Sum,
                1 => AggFunc::Min,
                2 => AggFunc::Max,
                3 => AggFunc::Mean,
                _ => AggFunc::Count,
            };
            Some((func, if c == 0 { "c0" } else { "c1" }))
        }),
    ];
    let filter = prop_oneof![Just(None), arb_pred(2).prop_map(Some)];
    (filter, agg, 0u64..4, 0u64..300).prop_map(|(filter, agg, window, limit)| {
        let mut plan = Plan::select(&["c0", "c1"]);
        if let Some(f) = filter {
            plan = plan.filter(f);
        }
        if let Some((func, col)) = agg {
            plan = plan.aggregate(func, col).window(window);
        } else {
            plan = plan.limit(limit);
        }
        plan
    })
}

/// Steps × writers of two-column chunks with varying lengths (0 to
/// 200: empty, a ragged tail word, exactly one and several whole mask
/// words) and physical representations; each column's dtype is fixed
/// stream-wide.
fn arb_stream() -> impl Strategy<Value = Vec<Vec<(ArrayData, ArrayData)>>> {
    (0u8..4, 0u8..4).prop_flat_map(|(d0, d1)| {
        vec(
            vec(arb_len().prop_flat_map(move |n| (arb_column(d0, n), arb_column(d1, n))), 1..3),
            1..4,
        )
    })
}

fn run_both(plan: &Plan, stream: &[Vec<(ArrayData, ArrayData)>]) -> (QueryOutput, QueryOutput) {
    let mut vx = Executor::new(plan.clone()).expect("valid plan");
    let mut nx = NaiveExecutor::new(plan.clone()).expect("valid plan");
    for (step, writers) in stream.iter().enumerate() {
        let chunks: Vec<ChunkView<'_>> =
            writers.iter().map(|(a, b)| ChunkView::raw(vec![a, b])).collect();
        let chunks2: Vec<ChunkView<'_>> =
            writers.iter().map(|(a, b)| ChunkView::raw(vec![a, b])).collect();
        let sv = vx.feed_step(step as u64, &chunks);
        let sn = nx.feed_step(step as u64, &chunks2);
        assert_eq!(sv, sn, "per-step stats diverged at step {step}");
    }
    (vx.finish(), nx.finish())
}

proptest! {
    /// The headline differential property: for any plan and any stream
    /// shape, vectorized ≡ naive bit-exactly.
    #[test]
    fn vectorized_equals_naive(plan in arb_plan(), stream in arb_stream()) {
        prop_assume!(plan.validate().is_ok());
        let (v, n) = run_both(&plan, &stream);
        prop_assert_eq!(v.digest(), n.digest(), "outputs diverged:\n vec: {:?}\n naive: {:?}", v, n);
    }

    /// Pre-filtered (writer-conditioned) chunks short-circuit both
    /// executors identically.
    #[test]
    fn conditioned_chunks_agree(
        data in arb_len().prop_flat_map(|n| vec(arb_f64(), n)),
        rows_in in 0u64..300,
        limit in 0u64..300,
    ) {
        let plan = Plan::select(&["c0"]).filter(Expr::col("c0").lt(Expr::lit(0.5))).limit(limit);
        let col = ArrayData::F64(data.clone());
        let mut vx = Executor::new(plan.clone()).unwrap();
        let mut nx = NaiveExecutor::new(plan).unwrap();
        let sv = vx.feed_step(0, &[ChunkView::conditioned(vec![&col], rows_in)]);
        let sn = nx.feed_step(0, &[ChunkView::conditioned(vec![&col], rows_in)]);
        prop_assert_eq!(sv, sn);
        prop_assert_eq!(sv.rows_in, rows_in);
        prop_assert_eq!(vx.finish().digest(), nx.finish().digest());
    }
}

// ------------------------------------------------- writer-side placement

/// Rebind every column reference to `c0`: a single-variable predicate,
/// the shape the pushdown planner accepts.
fn single_col(e: Expr) -> Expr {
    let b = |e: Box<Expr>| Box::new(single_col(*e));
    match e {
        Expr::Col(_) => Expr::col("c0"),
        Expr::Lit(v) => Expr::Lit(v),
        Expr::Bin(op, l, r) => Expr::Bin(op, b(l), b(r)),
        Expr::Cmp(op, l, r) => Expr::Cmp(op, b(l), b(r)),
        Expr::And(l, r) => Expr::And(b(l), b(r)),
        Expr::Or(l, r) => Expr::Or(b(l), b(r)),
        Expr::Not(a) => Expr::Not(b(a)),
    }
}

/// The pre-typed-filter lowering, kept as an oracle: the predicate
/// printed as fully parenthesized codelet source over the loop variable
/// `x`, interpreted per element by the stack VM. Finite literals only —
/// the codelet lexer has no NaN/inf spelling, and wants a '.' in every
/// float.
fn old_lowered_codelet(filter: &Expr) -> String {
    fn lit(v: f64) -> String {
        let s = format!("{v:?}");
        match s.find('e') {
            _ if s.contains('.') => s,
            Some(epos) => format!("{}.0{}", &s[..epos], &s[epos..]),
            None => format!("{s}.0"),
        }
    }
    fn render(e: &Expr) -> String {
        match e {
            Expr::Col(_) => "x".to_string(),
            Expr::Lit(v) => lit(*v),
            Expr::Bin(op, a, b) => {
                let op = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                };
                format!("({} {op} {})", render(a), render(b))
            }
            Expr::Cmp(op, a, b) => {
                let op = match op {
                    CmpOp::Lt => "<",
                    CmpOp::Le => "<=",
                    CmpOp::Gt => ">",
                    CmpOp::Ge => ">=",
                    CmpOp::Eq => "==",
                    CmpOp::Ne => "!=",
                };
                format!("({} {op} {})", render(a), render(b))
            }
            Expr::And(a, b) => format!("({} && {})", render(a), render(b)),
            Expr::Or(a, b) => format!("({} || {})", render(a), render(b)),
            Expr::Not(a) => format!("(!{})", render(a)),
        }
    }
    format!(
        r#"let v = get_f64("c0");
let out = array();
for i in 0..len(v) {{
    let x = v[i];
    if {} {{ push(out, x); }}
}}
emit_f64("c0", out);
"#,
        render(filter)
    )
}

/// An array's dtype and element bits (NaN payloads and signed zeros
/// distinguished, unlike `==` on `f64`).
fn bits(data: &ArrayData) -> (u8, Vec<u64>) {
    match data {
        ArrayData::F64(v) => (0, v.iter().map(|x| x.to_bits()).collect()),
        ArrayData::U64(v) => (1, v.clone()),
        ArrayData::I64(v) => (2, v.iter().map(|&x| x as u64).collect()),
        ArrayData::U8(v) => (3, v.iter().map(|&x| u64::from(x)).collect()),
        ArrayData::Packed(_) => bits(&data.to_owned_data()),
    }
}

/// What the naive oracle keeps of one single-column chunk.
fn naive_survivors(filter: &Expr, data: &ArrayData) -> ArrayData {
    let mut nx = NaiveExecutor::new(Plan::select(&["c0"]).filter(filter.clone())).unwrap();
    nx.feed_step(0, &[ChunkView::raw(vec![data])]);
    let QueryOutput::Rows(mut steps) = nx.finish() else { panic!("row plan") };
    steps.pop().expect("one step").columns.pop().expect("one column").1
}

proptest! {
    /// The kernel the writer runs for a pushed-down filter ≡ the naive
    /// oracle, for any well-typed single-column predicate over any dtype
    /// and representation; on `f64` columns both ≡ the old lowered
    /// codelet on the VM. Bit for bit, IEEE edge values included.
    #[test]
    fn writer_side_kernel_equals_naive_and_the_old_codelet(
        pred in arb_pred(3),
        typed in (0u8..4, arb_len())
            .prop_flat_map(|(d, n)| arb_column(d, n).prop_map(move |c| (d, c))),
    ) {
        let (dtype, data) = typed.clone();
        let filter = single_col(pred.clone());
        let plan = Plan::select(&["c0"]).filter(filter.clone());
        prop_assume!(plan.validate().is_ok());
        let lowered = lower_pushdown(&plan).expect("single-column filters are eligible");
        prop_assert_eq!(&lowered.source, &PluginBody::Filter(filter.clone()));

        let mut kernel = FilterKernel::new(&filter, &plan.vars).expect("validated");
        let kept = kernel.filter_column(&data);
        prop_assert_eq!(bits(&kept), bits(&naive_survivors(&filter, &data)));
        // A second chunk through the same (now warm) kernel.
        prop_assert_eq!(bits(&kernel.filter_column(&data)), bits(&kept));

        if dtype == 0 {
            let (_, elems) = bits(&data);
            let input = Record::new().with(
                "c0",
                FieldValue::F64Array(elems.into_iter().map(f64::from_bits).collect()),
            );
            let vm = Codelet::compile(&old_lowered_codelet(&filter)).expect("old lowering compiles");
            let out = vm.run(&input).expect("old lowering runs");
            let vm_kept = ArrayData::F64(out.get_f64_array("c0").expect("emitted").to_vec());
            prop_assert_eq!(bits(&kept), bits(&vm_kept));
        }
    }

    /// The wire form is lossless: any valid predicate survives
    /// `to_postfix` → `from_postfix` structurally, literal bits included.
    #[test]
    fn postfix_wire_form_roundtrips(pred in arb_pred(3), lit_bits in any::<u64>()) {
        let cols = vec!["c0".to_string(), "c1".to_string()];
        // Splice in an arbitrary bit pattern (NaN payloads, infinities).
        let e = pred.clone().and(Expr::col("c1").ne(Expr::lit(f64::from_bits(lit_bits))));
        prop_assume!(Plan::select(&["c0", "c1"]).filter(e.clone()).validate().is_ok());
        let words = e.to_postfix(&cols);
        let back = Expr::from_postfix(&words, &cols).expect("own encoding decodes");
        prop_assert_eq!(back.to_postfix(&cols), words);
    }
}

/// Non-finite literals could not be spelled in codelet source; as typed
/// fragments they push down, and the kernel agrees with the oracle on
/// them.
#[test]
fn non_finite_literals_filter_identically() {
    let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -7.0];
    let data = ArrayData::Packed(PackedArray::from_f64s(&vals));
    for lit in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for filter in [
            Expr::col("c0").lt(Expr::lit(lit)),
            Expr::col("c0").ne(Expr::lit(lit)),
            Expr::col("c0").add(Expr::lit(lit)).ge(Expr::lit(0.0)).not(),
        ] {
            let mut kernel = FilterKernel::new(&filter, &["c0".to_string()]).unwrap();
            assert_eq!(
                bits(&kernel.filter_column(&data)),
                bits(&naive_survivors(&filter, &data)),
                "{filter:?}"
            );
        }
    }
}

/// A row limit that runs out inside a mask word — one with its bits
/// all set, and one with every other bit set — stops at the same row
/// as the oracle, across chunks and steps, for every dtype, packed and
/// owned.
#[test]
fn row_limit_stops_mid_word() {
    let vals: Vec<u64> = (0..200).collect();
    let columns = [
        ArrayData::F64(vals.iter().map(|&v| v as f64).collect()),
        ArrayData::Packed(PackedArray::from_f64s(
            &vals.iter().map(|&v| v as f64).collect::<Vec<_>>(),
        )),
        ArrayData::U64(vals.clone()),
        ArrayData::Packed(PackedArray::from_u64s(&vals)),
        ArrayData::I64(vals.iter().map(|&v| v as i64).collect()),
        ArrayData::Packed(PackedArray::from_i64s(
            &vals.iter().map(|&v| v as i64).collect::<Vec<_>>(),
        )),
        ArrayData::U8(vals.iter().map(|&v| v as u8).collect()),
        ArrayData::Packed(PackedArray::from_bytes(
            &vals.iter().map(|&v| v as u8).collect::<Vec<_>>(),
        )),
    ];
    let parity = ArrayData::U64(vals.iter().map(|v| v % 2).collect());
    let all = Expr::col("c0").ge(Expr::lit(0.0));
    let odd = Expr::col("c1").eq(Expr::lit(1.0));
    let filters = [None, Some(all.clone()), Some(odd.clone()), Some(odd.and(all))];
    for col in &columns {
        for filter in &filters {
            for limit in [1, 37, 64, 100, 230, 333] {
                let mut plan = Plan::select(&["c0", "c1"]).limit(limit);
                if let Some(f) = filter {
                    plan = plan.filter(f.clone());
                }
                let chunk = vec![(col.clone(), parity.clone())];
                let (v, n) = run_both(&plan, &[chunk.clone(), chunk]);
                assert_eq!(v.digest(), n.digest(), "{col:?} {filter:?} limit {limit}");
                assert_eq!(v.rows(), n.rows());
            }
        }
    }
}

/// Packed views must flow through the vectorized path without ever
/// being materialized — spot-check that a packed chunk and its owned
/// twin produce identical digests (covering the widening loops).
#[test]
fn packed_and_owned_twins_digest_equal() {
    let vals: Vec<f64> = (0..257).map(|i| (i as f64) * 0.25 - 32.0).collect();
    let owned = ArrayData::F64(vals.clone());
    let packed = ArrayData::Packed(PackedArray::from_f64s(&vals));
    let keys: Vec<u64> = (0..257).collect();
    let owned_k = ArrayData::U64(keys.clone());
    let packed_k = ArrayData::Packed(PackedArray::from_u64s(&keys));
    let plan = Plan::select(&["c0", "c1"])
        .filter(Expr::col("c1").lt(Expr::lit(10.0)).and(Expr::col("c0").ge(Expr::lit(8.0))));
    let mut a = Executor::new(plan.clone()).unwrap();
    let mut b = Executor::new(plan).unwrap();
    a.feed_step(0, &[ChunkView::raw(vec![&owned_k, &owned])]);
    b.feed_step(0, &[ChunkView::raw(vec![&packed_k, &packed])]);
    let (ra, rb) = (a.finish(), b.finish());
    // Same survivors, same bits — only the physical representation of
    // the output columns (always owned) could differ, and it must not.
    assert_eq!(ra.digest(), rb.digest());
    assert!(ra.rows() > 0, "filter should keep some rows");
}
