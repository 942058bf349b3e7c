//! Every step-protocol message is bytes from a peer, and since the wire
//! forms live in `flexio::protocol` as plain functions they can be tested
//! without a live stream: arbitrary values round-trip through the record
//! and its ffs bytes, and structurally damaged records — truncated, a
//! field dropped, a count inflated — parse to a value or an error, never a
//! panic and never an allocation sized by the claimed count (which at
//! `u64::MAX` would abort the test).

use adios::{ArrayData, BoxSel, LocalBlock, ScalarValue, Selection, VarValue};
use evpath::{FieldValue, Record};
use flexio::link::StreamError;
use flexio::plugins::PluginBody;
use flexio::protocol::{self, msg, Chunk, Go};
use flexio::query::Expr;
use flexio::redistribute::{ChunkPlan, Subscription, VarMeta};
use flexio::{PluginPlacement, PluginSpec};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("t"), Just("zion"), Just("field"), Just("")].prop_map(str::to_string)
}

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    vec(prop_oneof![0u64..8, any::<u64>()], 0..3)
}

fn arb_box() -> impl Strategy<Value = BoxSel> {
    let dim = || prop_oneof![0u64..8, any::<u64>()];
    vec((dim(), dim()), 0..3).prop_map(|dims| {
        let (offset, count) = dims.into_iter().unzip();
        BoxSel::new(offset, count)
    })
}

fn arb_meta() -> impl Strategy<Value = VarMeta> {
    prop_oneof![
        arb_name().prop_map(|name| VarMeta::Scalar { name }),
        (arb_name(), arb_dims(), arb_box()).prop_map(|(name, shape, b)| VarMeta::Block {
            name,
            shape,
            offset: b.offset,
            count: b.count,
        }),
    ]
}

fn arb_sub() -> impl Strategy<Value = Subscription> {
    let sel = prop_oneof![
        (0usize..64).prop_map(Selection::ProcessGroup),
        arb_box().prop_map(Selection::GlobalBox),
        Just(Selection::Scalar),
    ];
    (arb_name(), sel).prop_map(|(var, sel)| Subscription { var, sel })
}

fn arb_spec() -> impl Strategy<Value = PluginSpec> {
    let body = prop_oneof![
        arb_name().prop_map(PluginBody::Codelet),
        (0u64..400).prop_map(|i| PluginBody::Filter(Expr::col("v").lt(Expr::lit(i as f64 / 8.0)))),
    ];
    (body, any::<bool>()).prop_map(|(source, writer_side)| PluginSpec {
        var: "v".to_string(),
        source,
        placement: if writer_side {
            PluginPlacement::WriterSide
        } else {
            PluginPlacement::ReaderSide
        },
    })
}

fn arb_plan() -> impl Strategy<Value = Vec<Vec<ChunkPlan>>> {
    let region = prop_oneof![Just(None), arb_box().prop_map(Some)];
    let chunk = (arb_name(), region).prop_map(|(var, region)| ChunkPlan { var, region });
    vec(vec(chunk, 0..3), 0..4)
}

fn arb_value() -> impl Strategy<Value = VarValue> {
    prop_oneof![
        any::<u64>().prop_map(|v| VarValue::Scalar(ScalarValue::U64(v))),
        arb_name().prop_map(|v| VarValue::Scalar(ScalarValue::Str(v))),
        (vec(0u64..1000, 0..6), 0u64..4).prop_map(|(values, offset)| {
            let n = values.len() as u64;
            VarValue::Block(LocalBlock {
                global_shape: vec![offset + n],
                offset: vec![offset],
                count: vec![n],
                data: ArrayData::F64(values.into_iter().map(|v| v as f64 / 4.0).collect()),
            })
        }),
    ]
}

fn arb_go() -> impl Strategy<Value = Go> {
    let plan = prop_oneof![Just(None), arb_plan().prop_map(Some)];
    let plugins = prop_oneof![Just(None), vec(arb_spec(), 0..3).prop_map(Some)];
    let roster = prop_oneof![Just(None), (any::<u64>(), 0usize..64).prop_map(Some)];
    (any::<u64>(), plan, plugins, roster).prop_map(|(step, plan, plugins, roster)| Go {
        step,
        plan,
        plugins,
        roster,
    })
}

fn arb_chunk() -> impl Strategy<Value = Chunk> {
    (any::<u64>(), 0usize..64, arb_name(), arb_value(), vec((arb_name(), arb_value()), 0..3))
        .prop_map(|(step, w, var, value, extras)| Chunk { step, w, var, value, extras })
}

fn chunk_record(c: &Chunk) -> Record {
    protocol::chunk(c.step, c.w, &c.var, c.value.to_record(), &c.extras)
}

/// What a receiver sees: the record after a trip through its ffs bytes.
fn wired(r: &Record) -> Record {
    Record::decode(&r.encode()).expect("own encoding decodes")
}

/// One message of each kind that carries a list, a nested record or an
/// optional field — the ones with something to damage.
fn arb_message() -> BoxedStrategy<Record> {
    let dists = vec(vec(arb_meta(), 0..3), 0..4);
    let sels = vec(vec(arb_sub(), 0..3), 0..4);
    let plugins = prop_oneof![Just(None), vec(arb_spec(), 0..3).prop_map(Some)];
    prop_oneof![
        (any::<u64>(), any::<bool>()).prop_map(|(s, x)| protocol::step(s, x)),
        vec(arb_meta(), 0..4).prop_map(|m| protocol::dists(&m)),
        vec(arb_sub(), 0..4).prop_map(|s| protocol::subs(&s)),
        dists.prop_map(|d| protocol::writer_info(&d)),
        (sels, plugins).prop_map(|(s, p)| protocol::reader_info(&s, p.as_deref())),
        arb_go().prop_map(|go| go.to_record()),
        arb_chunk().prop_map(|c| chunk_record(&c)),
        (any::<u64>(), 0usize..8, vec(arb_chunk(), 0..3)).prop_map(|(s, w, cs)| protocol::batch(
            s,
            w,
            cs.iter().map(chunk_record).collect()
        )),
        vec(arb_spec(), 0..3).prop_map(|p| protocol::plugin_update(&p)),
        (any::<u64>(), any::<bool>()).prop_map(|(s, ok)| protocol::signal(
            msg::TXN_VOTE,
            s,
            Some(ok)
        )),
    ]
    .boxed()
}

/// The parser a receiver would run on a message of `r`'s kind.
fn parse_own(r: &Record) -> Result<(), StreamError> {
    match protocol::kind_of(r) {
        msg::STEP => protocol::parse_step(r).map(drop),
        msg::DISTS => protocol::parse_dists(r).map(drop),
        msg::SUBS => protocol::parse_subs(r).map(drop),
        msg::WRITER_INFO => protocol::parse_writer_info(r).map(drop),
        msg::READER_INFO => protocol::parse_reader_info(r).map(drop),
        msg::GO => Go::from_record(r).map(drop),
        msg::CHUNK => protocol::parse_chunk(r).map(drop),
        msg::BATCH => protocol::batch_chunks(r)?
            .into_iter()
            .try_for_each(|c| protocol::parse_chunk(c).map(drop)),
        msg::PLUGIN_UPDATE => protocol::parse_plugin_update(r).map(drop),
        _ => protocol::parse_signal(r).map(drop),
    }
}

/// Every parser over `r`, whatever its kind claims: value or error.
fn parse_all(r: &Record) {
    let _ = parse_own(r);
    let _ = protocol::parse_step(r);
    let _ = protocol::parse_dists(r);
    let _ = protocol::parse_subs(r);
    let _ = protocol::parse_writer_info(r);
    let _ = protocol::parse_reader_info(r);
    let _ = Go::from_record(r);
    let _ = protocol::parse_chunk(r);
    let _ = protocol::batch_chunks(r);
    let _ = protocol::parse_plugin_update(r);
    let _ = protocol::parse_signal(r);
}

/// A count field of one of the list codecs (`n`, `nranks`, and the plan's
/// `peers` / `count.<p>`).
fn is_count(name: &str, value: &FieldValue) -> bool {
    matches!(value, FieldValue::U64(_))
        && (matches!(name, "n" | "nranks" | "peers") || name.starts_with("count."))
}

/// Rebuild `r` depth-first, handing every field to `edit` (which keeps,
/// replaces or — returning `None` — drops it) before descending into it.
fn rebuild(r: &Record, edit: &mut impl FnMut(&str, &FieldValue) -> Option<FieldValue>) -> Record {
    let mut out = Record::new();
    for (name, value) in r.iter() {
        match edit(name, value) {
            Some(FieldValue::Record(inner)) => {
                out.set(name, FieldValue::Record(rebuild(&inner, edit)))
            }
            Some(kept) => out.set(name, kept),
            None => {}
        }
    }
    out
}

fn count_fields(r: &Record, pick: impl Fn(&str, &FieldValue) -> bool) -> u64 {
    let mut n = 0;
    rebuild(r, &mut |name, value| {
        n += u64::from(pick(name, value));
        Some(value.clone())
    });
    n
}

/// `r` with its `at`-th (depth-first) field matching `pick` replaced by
/// `with(field)`.
fn damage(
    r: &Record,
    at: u64,
    pick: impl Fn(&str, &FieldValue) -> bool,
    with: impl Fn(&FieldValue) -> Option<FieldValue>,
) -> Record {
    let mut seen = 0;
    rebuild(r, &mut |name, value| {
        let hit = pick(name, value) && seen == at;
        seen += u64::from(pick(name, value));
        if hit {
            with(value)
        } else {
            Some(value.clone())
        }
    })
}

proptest! {
    #[test]
    fn go_round_trips(go in arb_go()) {
        prop_assert_eq!(Go::from_record(wired(&go.to_record())).as_ref(), Ok(&go));
    }

    #[test]
    fn exchange_messages_round_trip(
        dists in vec(vec(arb_meta(), 0..3), 0..4),
        sels in vec(vec(arb_sub(), 0..3), 0..4),
        plugins in prop_oneof![Just(None), vec(arb_spec(), 0..3).prop_map(Some)],
    ) {
        let info = wired(&protocol::writer_info(&dists));
        prop_assert_eq!(protocol::parse_writer_info(&info).as_ref(), Ok(&dists));
        let info = wired(&protocol::reader_info(&sels, plugins.as_deref()));
        prop_assert_eq!(protocol::parse_reader_info(&info), Ok((sels.clone(), plugins.clone())));
    }

    #[test]
    fn chunks_round_trip_alone_and_batched(chunks in vec(arb_chunk(), 1..4)) {
        for c in &chunks {
            prop_assert_eq!(protocol::parse_chunk(wired(&chunk_record(c))).as_ref(), Ok(c));
        }
        let batch = wired(&protocol::batch(9, 2, chunks.iter().map(chunk_record).collect()));
        let inner = protocol::batch_chunks(&batch).expect("own batch");
        let parsed: Result<Vec<Chunk>, StreamError> =
            inner.into_iter().map(protocol::parse_chunk).collect();
        prop_assert_eq!(parsed.as_ref(), Ok(&chunks));
    }

    /// A chunk body's `shape` / `offset` / `count` are the sender's claims
    /// about its data: a body (or an extra) in which they contradict each
    /// other or the data length is refused — also when the product or the
    /// sum only agrees after wrapping around `u64` — never asserted on.
    #[test]
    fn chunks_with_contradictory_block_shapes_are_refused(
        values in vec(0u32..100, 0..7),
        dims in vec(vec(prop_oneof![0u64..8, Just(u64::MAX), any::<u64>()], 0..3), 3),
        in_extras in any::<bool>(),
    ) {
        let [shape, offset, count] = <[Vec<u64>; 3]>::try_from(dims.clone()).expect("three lists");
        // The oracle works in u128, where two u64 factors cannot wrap.
        let wide = |v: u64| v as u128;
        let consistent = shape.len() == offset.len()
            && shape.len() == count.len()
            && count.iter().map(|&c| wide(c)).product::<u128>() == values.len() as u128
            && (0..shape.len()).all(|d| wide(offset[d]) + wide(count[d]) <= wide(shape[d]));
        prop_assume!(!consistent);
        let data = ArrayData::F64(values.iter().map(|&v| f64::from(v)).collect());
        let bad = VarValue::Block(LocalBlock { global_shape: shape, offset, count, data });
        let record = if in_extras {
            let body = VarValue::Scalar(ScalarValue::U64(1)).to_record();
            protocol::chunk(3, 0, "v", body, &[("extra".to_string(), bad)])
        } else {
            protocol::chunk(3, 0, "v", bad.to_record(), &[])
        };
        prop_assert!(protocol::parse_chunk(wired(&record)).is_err(), "accepted {record:?}");
    }

    /// Cut the ffs bytes anywhere: no record comes out, or one every
    /// parser survives.
    #[test]
    fn truncated_frames_parse_or_refuse(message in arb_message(), at in any::<u64>()) {
        let mut bytes = message.encode();
        bytes.truncate((at % bytes.len() as u64) as usize);
        if let Ok(r) = Record::decode(&bytes) {
            parse_all(&r);
        }
    }

    /// Drop any one field, at any depth.
    #[test]
    fn field_dropped_records_parse_or_refuse(message in arb_message(), at in any::<u64>()) {
        let fields = count_fields(&message, |_, _| true);
        parse_all(&damage(&message, at % fields, |_, _| true, |_| None));
    }

    /// Inflate any one list count, at any depth: the receiver refuses the
    /// message — it cannot honour the count — without reserving for it.
    #[test]
    fn count_inflated_records_are_refused(
        message in arb_message(),
        at in any::<u64>(),
        huge in prop_oneof![Just(u64::MAX), Just(1u64 << 40)],
    ) {
        let counts = count_fields(&message, is_count);
        prop_assume!(counts > 0);
        let inflated = damage(&message, at % counts, is_count, |_| Some(FieldValue::U64(huge)));
        prop_assert!(parse_own(&inflated).is_err(), "accepted {inflated:?}");
        parse_all(&inflated);
    }
}
