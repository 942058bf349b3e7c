//! Every step-protocol message is bytes from a peer, and since the wire
//! forms live in `flexio::protocol` as plain functions they can be tested
//! without a live stream: arbitrary values round-trip through the record
//! and its ffs bytes, and structurally damaged records — truncated, a
//! field dropped, a count inflated — parse to a value or an error, never a
//! panic and never an allocation sized by the claimed count (which at
//! `u64::MAX` would abort the test).

use adios::hyperslab;
use adios::{ArrayData, BoxSel, LocalBlock, ScalarValue, Selection, VarValue};
use evpath::{FieldValue, Record};
use flexio::link::StreamError;
use flexio::plugins::PluginBody;
use flexio::protocol::{self, msg, Chunk, Go};
use flexio::query::Expr;
use flexio::redistribute::{self, BoxAssembler, ChunkPlan, Subscription, VarMeta};
use flexio::{PluginPlacement, PluginSpec};
use proptest::collection::vec;
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    prop_oneof![Just("t"), Just("zion"), Just("field"), Just("")].prop_map(str::to_string)
}

/// A box whose every `offset + count` fits in a `u64`, the only boxes
/// `BoxSel` holds; a wrapping one is refused on parse
/// (`wrapping_boxes_are_refused`).
fn arb_box() -> impl Strategy<Value = BoxSel> {
    let dim = || prop_oneof![0u64..8, any::<u64>()];
    vec((dim(), dim()), 0..3).prop_map(|dims| {
        let (offset, count) = dims.into_iter().map(|(o, c)| (o, c.min(u64::MAX - o))).unzip();
        BoxSel::new(offset, count)
    })
}

/// A scalar, or a block that lies inside its shape: the only blocks a
/// writer describes. A contradictory triple is refused on parse
/// (`chunks_with_contradictory_block_shapes_are_refused`).
fn arb_meta() -> impl Strategy<Value = VarMeta> {
    let dim = || prop_oneof![0u64..8, any::<u64>()];
    prop_oneof![
        arb_name().prop_map(|name| VarMeta::Scalar { name }),
        (arb_name(), vec((dim(), dim(), dim()), 0..3)).prop_map(|(name, dims)| {
            let (mut shape, mut offset, mut count) = (Vec::new(), Vec::new(), Vec::new());
            for (s, o, c) in dims {
                let o = o.min(s);
                shape.push(s);
                offset.push(o);
                count.push(c.min(s - o));
            }
            VarMeta::Block { name, shape, offset, count }
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
        .prop_map(|(step, w, var, value, extras)| {
            let extras = extras.into_iter().map(|(name, v)| (name.into(), v)).collect();
            Chunk { step, w, var: var.into(), value, extras }
        })
}

fn chunk_record(c: &Chunk) -> Record {
    let extras: Vec<_> = c.extras.iter().map(|(name, v)| (name.to_string(), v.clone())).collect();
    protocol::chunk(c.step, c.w, &c.var, c.value.to_record(), &extras)
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
    /// sum only agrees after wrapping around `u64` — never asserted on. A
    /// writer's block metadata (`dists`, `writer_info`) carries the same
    /// triple without data, and is refused when the triple contradicts
    /// itself.
    #[test]
    fn chunks_with_contradictory_block_shapes_are_refused(
        values in vec(0u32..100, 0..7),
        dims in vec(vec(prop_oneof![0u64..8, Just(u64::MAX), any::<u64>()], 0..3), 3),
        in_extras in any::<bool>(),
    ) {
        let [shape, offset, count] = <[Vec<u64>; 3]>::try_from(dims.clone()).expect("three lists");
        // The oracle works in u128, where two u64 factors cannot wrap.
        let wide = |v: u64| v as u128;
        let in_bounds = shape.len() == offset.len()
            && shape.len() == count.len()
            && (0..shape.len()).all(|d| wide(offset[d]) + wide(count[d]) <= wide(shape[d]));
        let consistent = in_bounds
            && count.iter().map(|&c| wide(c)).product::<u128>() == values.len() as u128;
        prop_assume!(!consistent);
        if !in_bounds {
            let meta = VarMeta::Block {
                name: "v".into(),
                shape: shape.clone(),
                offset: offset.clone(),
                count: count.clone(),
            };
            let dists = protocol::dists(std::slice::from_ref(&meta));
            prop_assert!(protocol::parse_dists(wired(&dists)).is_err(), "accepted {dists:?}");
            let info = protocol::writer_info(&[vec![meta]]);
            prop_assert!(protocol::parse_writer_info(wired(&info)).is_err(), "accepted {info:?}");
        }
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

// ------------------------------------------------------ a peer's geometry

/// What a writer holds under `meta`: a scalar, or a block of 1, 2, 3, …
fn written(meta: &VarMeta) -> VarValue {
    let VarMeta::Block { shape, offset, count, .. } = meta else {
        return VarValue::Scalar(ScalarValue::U64(7));
    };
    let data = ArrayData::F64((1..=count.iter().product::<u64>()).map(|i| i as f64).collect());
    let (global_shape, offset, count) = (shape.clone(), offset.clone(), count.clone());
    VarValue::Block(LocalBlock { global_shape, offset, count, data }.validated())
}

/// A writer's process group: `t` a scalar or a block of a `[6, 6]` array,
/// and `v` nothing or a block of a `[4, 4, 4]` one.
fn arb_group() -> impl Strategy<Value = Vec<VarMeta>> {
    let block = |name: &'static str, shape: Vec<u64>| {
        vec((0u64..6, 1u64..6), shape.len()).prop_map(move |dims| {
            let offset: Vec<u64> = dims.iter().zip(&shape).map(|(&(o, _), &s)| o % s).collect();
            let count = (0..shape.len()).map(|d| dims[d].1.min(shape[d] - offset[d])).collect();
            VarMeta::Block { name: name.into(), shape: shape.clone(), offset, count }
        })
    };
    let t = prop_oneof![Just(VarMeta::Scalar { name: "t".into() }), block("t", vec![6, 6])];
    (t, prop_oneof![Just(None), block("v", vec![4; 3]).prop_map(Some)])
        .prop_map(|(t, v)| std::iter::once(t).chain(v).collect())
}

/// A box as a peer may send it: of any rank, mostly small, sometimes past
/// every block or wrapping `u64`, and now and then with a count missing.
fn arb_peer_box() -> impl Strategy<Value = BoxSel> {
    let dim = || prop_oneof![0u64..6, 0u64..6, 0u64..6, any::<u64>(), Just(u64::MAX)];
    (vec((dim(), dim()), 0..4), 0..8).prop_map(|(dims, skew)| {
        let (offset, mut count): (Vec<u64>, Vec<u64>) = dims.into_iter().unzip();
        count.truncate(count.len() - usize::from(skew == 0 && !count.is_empty()));
        BoxSel { offset, count }
    })
}

/// A subscription as a peer may send it; a third of them a box of the
/// variable's rank inside its shape, which the writers' blocks often meet.
fn arb_peer_sub() -> impl Strategy<Value = Subscription> {
    let var = || prop_oneof![Just("t"), Just("v")];
    let inside = |var, rank, n: u64| {
        let dims = vec((0..n, 1..n + 1), rank).prop_map(|d| d.into_iter().unzip());
        (Just(var), dims.prop_map(|(offset, count)| Selection::GlobalBox(BoxSel { offset, count })))
    };
    prop_oneof![
        (var(), (0usize..4).prop_map(Selection::ProcessGroup)),
        (var(), Just(Selection::Scalar)),
        (var(), arb_peer_box().prop_map(Selection::GlobalBox)),
        (var(), arb_peer_box().prop_map(Selection::GlobalBox)),
        inside("t", 2, 6),
        inside("v", 3, 4),
    ]
    .prop_map(|(var, sel)| Subscription { var: var.into(), sel })
}

fn sane(b: &BoxSel) -> bool {
    BoxSel::try_new(b.offset.clone(), b.count.clone()).is_some()
}

/// A writer serves `cp` as `StreamWriter::send_chunks` does: it refuses a
/// region that its value does not hold before extracting it.
fn serve(value: &VarValue, cp: &ChunkPlan) -> Option<VarValue> {
    redistribute::plan_fits(value, cp).then(|| redistribute::extract_chunk(value, cp).into_owned())
}

fn go_with(row: Vec<Vec<ChunkPlan>>) -> Result<Go, StreamError> {
    Go::from_record(wired(
        &Go { step: 5, plan: Some(row), plugins: None, roster: None }.to_record(),
    ))
}

proptest! {
    /// Peer geometry goes through parse (`dists`, `writer_info`, `subs`,
    /// `reader_info`) → `plan` → the `go` codec → the writer's region
    /// check → `extract_chunk` → `BoxAssembler`: each step refuses or gives
    /// what `adios::select` reads from the written blocks, and none panics.
    /// Wrapping and skewed boxes are refused.
    #[test]
    fn peer_geometry_is_refused_or_moved_right(
        groups in vec(arb_group(), 1..4),
        sels in vec(vec(arb_peer_sub(), 0..4), 1..4),
        nudges in vec(prop_oneof![Just((1, 1)), Just((1, 1)), (0u64..3, 0u64..3)], 1..8),
        wild in vec(arb_peer_sub(), 0..3),
    ) {
        let parse = |g| protocol::parse_dists(wired(&protocol::dists(g))).expect("own dists");
        let dists: Vec<Vec<VarMeta>> = groups.iter().map(|g| parse(g)).collect();
        let info = protocol::parse_writer_info(wired(&protocol::writer_info(&dists)));
        prop_assert_eq!(info.as_ref(), Ok(&dists));
        // A reader rank whose boxes are refused subscribes to nothing.
        let mut subs = Vec::new();
        for s in &sels {
            let parsed = protocol::parse_subs(wired(&protocol::subs(s)));
            let insane = s.iter().any(|s| matches!(&s.sel, Selection::GlobalBox(b) if !sane(b)));
            prop_assert_eq!(parsed.is_ok(), !insane, "{:?}", s);
            subs.push(parsed.unwrap_or_default());
        }
        let info = protocol::parse_reader_info(wired(&protocol::reader_info(&subs, None)));
        prop_assert_eq!(info, Ok((subs.clone(), None)));

        let plan = redistribute::plan(&dists, &subs);
        let written = |g: &Vec<VarMeta>| g.iter().map(|m| (m.name().into(), written(m))).collect();
        let values: Vec<Vec<(String, VarValue)>> = groups.iter().map(written).collect();
        let of = |w: usize, var: &str| values[w].iter().find(|(n, _)| n == var).map(|(_, v)| v);
        for (r, subs) in subs.iter().enumerate() {
            let mut got = Vec::new();
            for (w, row) in plan.iter().enumerate() {
                for cp in &row[r] {
                    got.push((&cp.var, serve(of(w, &cp.var).expect("planned"), cp).expect("fits")));
                }
            }
            for sub in subs {
                let Selection::GlobalBox(want) = &sub.sel else { continue };
                let elems = want.count.iter().try_fold(1u64, |n, &c| n.checked_mul(c));
                if elems.is_none_or(|n| n > 4096) {
                    continue;
                }
                let mut asm = None;
                for (_, chunk) in got.iter().filter(|(var, _)| **var == sub.var) {
                    let VarValue::Block(b) = chunk else { continue };
                    let box_of_want = (Some(want.offset.as_slice()), want.count.as_slice());
                    if hyperslab::lies_inside(&b.offset, &b.count, box_of_want) {
                        asm.get_or_insert_with(|| BoxAssembler::new(want, b)).add(b);
                    }
                }
                let local = (0..values.len()).filter_map(|w| Some((w, of(w, &sub.var)?)));
                let read = adios::select(local, &sub.sel);
                prop_assert_eq!(asm.map(|a| VarValue::Block(a.finish())), read, "{:?}", sub);
            }
        }

        // Each writer's `go` row as a coordinator may send it: every planned
        // region with some sides moved by -1 or +1, and wild regions. A
        // region is served as `select` reads it from the block, or refused.
        let mut nudge = nudges.iter().cycle();
        for (w, row) in plan.iter().enumerate() {
            prop_assert_eq!(go_with(row.clone()).map(|go| go.plan), Ok(Some(row.clone())));
            let mut row: Vec<ChunkPlan> = row.iter().flatten().cloned().collect();
            for g in row.iter_mut().filter_map(|cp| cp.region.as_mut()) {
                for d in 0..g.rank() {
                    let (lo, hi) = nudge.next().expect("cycle");
                    let end = (g.offset[d] + g.count[d] + hi).saturating_sub(1);
                    g.offset[d] = (g.offset[d] + lo).saturating_sub(1);
                    g.count[d] = end.saturating_sub(g.offset[d]);
                }
            }
            row.extend(wild.iter().filter_map(|s| match &s.sel {
                Selection::GlobalBox(b) => {
                    Some(ChunkPlan { var: s.var.clone(), region: Some(b.clone()) })
                }
                _ => None,
            }));
            let decoded = go_with(vec![row.clone()]);
            let sane_row = row.iter().all(|cp| cp.region.as_ref().is_none_or(sane));
            prop_assert_eq!(decoded.is_ok(), sane_row);
            for cp in decoded.ok().and_then(|go| go.plan).into_iter().flatten().flatten() {
                let (Some(value), Some(region)) = (of(w, &cp.var), &cp.region) else { continue };
                if let Some(chunk) = serve(value, &cp).filter(|_| !region.is_empty()) {
                    let read = adios::select([(w, value)], &Selection::GlobalBox(region.clone()));
                    prop_assert_eq!(Some(chunk), read);
                }
            }
        }
    }
}

/// Five peer boxes that once panicked a rank: (a) a subscription of rank 1
/// against a 2-D block, (b) one whose end wraps `u64`, and `go` regions
/// (c) outside the writer's block, (d) of another rank, (e) of a scalar.
/// Each is now refused, or plans nothing.
#[test]
fn the_reported_peer_boxes_are_refused() {
    let block = VarMeta::Block {
        name: "v".into(),
        shape: vec![4, 4],
        offset: vec![0, 0],
        count: vec![4, 4],
    };
    let subs = |offset, count| {
        let sub =
            Subscription { var: "v".into(), sel: Selection::GlobalBox(BoxSel { offset, count }) };
        protocol::parse_reader_info(wired(&protocol::reader_info(&[vec![sub]], None))).map(|s| s.0)
    };
    let rank_1 = subs(vec![1], vec![2]).expect("a box of one rank parses");
    assert_eq!(redistribute::plan(&[vec![block.clone()]], &rank_1), vec![vec![vec![]]]);
    assert!(subs(vec![2], vec![u64::MAX]).is_err());
    let scalar = VarValue::Scalar(ScalarValue::U64(7));
    for (value, offset, count) in [
        (&written(&block), vec![2, 2], vec![4, 4]),
        (&written(&block), vec![1], vec![2]),
        (&scalar, vec![0], vec![1]),
    ] {
        let cp = ChunkPlan { var: "v".into(), region: Some(BoxSel::new(offset, count)) };
        let go = go_with(vec![vec![cp]]).expect("go parses");
        assert_eq!(serve(value, &go.plan.expect("a plan")[0][0]), None);
    }
}
