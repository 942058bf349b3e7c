//! Protocol vocabulary: caching levels, write modes, the instrumentation
//! counters that make handshake behaviour observable — and the wire form
//! of every step-protocol message. This module owns the formats: each
//! message kind has its tag in [`msg`] and one builder / one checked parser
//! here, and no other module names a message field. Who sends what when is
//! the engines' business (`writer.rs`, `reader.rs`); how a message travels
//! between a program's ranks and its coordinator is `side.rs`'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use adios::VarValue;
use evpath::{FieldValue, Name, Record};

use crate::context::StreamError;
use crate::plugins::PluginSpec;
use crate::redistribute::{self, ChunkPlan, Subscription, VarMeta};

/// Handshake caching options (paper §II.C.2):
///
/// "i) NO_CACHING: perform the full handshaking protocol; ii)
/// CACHING_LOCAL: re-use local side distribution information (skip Steps
/// 1), but still exchange distribution information with peer side (perform
/// Step 2 to 4); iii) CACHING_ALL: re-use both local and peer sides'
/// distribution data, so that handshaking is completely avoided."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachingLevel {
    /// Full handshake every step.
    #[default]
    NoCaching,
    /// Skip the local gather (Step 1) after the first step.
    CachingLocal,
    /// Skip the whole handshake after the first step.
    CachingAll,
}

impl CachingLevel {
    /// Parse the hint string used in the XML config.
    pub fn from_hint(s: &str) -> Option<CachingLevel> {
        Some(match s {
            "NO_CACHING" => CachingLevel::NoCaching,
            "CACHING_LOCAL" => CachingLevel::CachingLocal,
            "CACHING_ALL" => CachingLevel::CachingAll,
            _ => return None,
        })
    }
}

/// Write-side call semantics (§II.C.2, first optimization): synchronous
/// writes wait until every receiver has taken delivery (acked);
/// asynchronous writes return once the data is handed to the transport,
/// overlapping movement with the simulation's computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Wait for per-reader acknowledgements at each step.
    Sync,
    /// Fire and forget (the transports buffer).
    #[default]
    Async,
}

evpath::counters! {
    /// Counters for every protocol message class; shared between both sides
    /// of a stream so tests and the monitoring layer can verify claims like
    /// "CACHING_ALL avoids the handshake entirely". Its snapshot is the
    /// link's one stats record.
    pub struct ProtocolCounters => ProtocolSnapshot {
        /// Step-1 messages: rank → coordinator distribution gathers.
        gather_msgs,
        /// Step-2 messages: coordinator ↔ coordinator exchanges.
        exchange_msgs,
        /// Step-3 messages: coordinator → rank broadcasts.
        bcast_msgs,
        /// Step-4 messages: actual data chunks/batches.
        data_msgs,
        /// Per-step step-header control messages (stream liveness/EOS
        /// channel; not part of the 4-step variable handshake).
        step_msgs,
        /// Synchronous-mode acknowledgements.
        ack_msgs,
        /// Plug-in deployment/migration messages.
        plugin_msgs,
        /// Control-channel receive attempts that timed out and were retried.
        retries,
        /// Duplicate sequence numbers discarded by the dedup layer.
        dup_msgs,
        /// Out-of-order messages healed by reassembly buffering.
        reorder_healed,
        /// Sequence gaps given up on (messages written off as lost).
        drops_observed,
        /// End-of-stream markers synthesized after writer silence.
        eos_synthesized,
        /// Readers evicted from the stream after repeated ack timeouts.
        evictions,
        /// Steps completed in degraded form (some reader evicted/skipped).
        degraded_steps,
        /// Frames the transport consumed but could not validate (shm
        /// corrupt control frames), fed by the `poll_recv` contract.
        corrupt_frames,
        /// Receive waits cut short because the peer endpoint was observed
        /// closed (queue drained + sending half dropped).
        closed_channels,
    }
}

impl ProtocolCounters {
    /// Fresh shared counter block.
    pub fn new_shared() -> Arc<ProtocolCounters> {
        Arc::new(ProtocolCounters::default())
    }

    /// Bump a counter.
    pub fn bump(&self, which: &AtomicU64) {
        which.fetch_add(1, Ordering::Relaxed);
    }

    /// Handshake messages only (steps 1–3).
    pub fn handshake_total(&self) -> u64 {
        let s = self.snapshot();
        s.gather_msgs + s.exchange_msgs + s.bcast_msgs
    }
}

evpath::counters! {
    /// Per-shard instrumentation of the directory service (one block per
    /// lock stripe): how much registration/lookup traffic the shard served
    /// and how often its lock was contended. The whole point of sharding the
    /// registry is to spread this traffic — tests and the directory bench
    /// read these to verify the spread actually happened.
    pub struct DirectoryCounters => DirectorySnapshot {
        /// Successful registrations handled by this shard.
        registrations,
        /// Successful lookups (blocking or `try_lookup` hits) served.
        lookups,
        /// Unregisters (tombstones written) handled.
        unregisters,
        /// Lock acquisitions that found the shard mutex already held and
        /// had to wait — the contention a single-map directory suffers on
        /// every concurrent caller, and striping is meant to eliminate.
        contended,
    }
}

// ---------------------------------------------------------------- wire
//
// Every step-protocol message is defined here and nowhere else: its kind
// tag in [`msg`], its builder and its checked parser side by side. The
// engines (`writer.rs`, `reader.rs`) name messages, never fields. A parser
// takes a peer's bytes: it returns a value or an error, never panics, and
// sizes no allocation by a count it was sent. A parser whose message
// carries strings or vectors takes the decoded record by value and moves
// them into what it returns.

/// Message type tags on the control, side and data channels.
pub mod msg {
    /// Step header: writer coordinator → reader coordinator.
    pub const STEP: &str = "step";
    /// End of stream.
    pub const EOS: &str = "eos";
    /// Step 1, writer program: a rank's distributions → its coordinator.
    pub const DISTS: &str = "dists";
    /// Step 1, reader program: a rank's subscriptions → its coordinator.
    pub const SUBS: &str = "subs";
    /// Writer-side distribution metadata (exchange leg 1).
    pub const WRITER_INFO: &str = "writer_info";
    /// Reader-side selections (+ plugin specs) (exchange leg 2).
    pub const READER_INFO: &str = "reader_info";
    /// Step 3: coordinator → rank, the step may run (plan/plug-ins when
    /// they changed).
    pub const GO: &str = "go";
    /// A data chunk (one variable region).
    pub const CHUNK: &str = "chunk";
    /// A batched set of chunks.
    pub const BATCH: &str = "batch";
    /// Synchronous-mode acknowledgement.
    pub const ACK: &str = "ack";
    /// Plug-in installation/migration update.
    pub const PLUGIN_UPDATE: &str = "plugin_update";
    /// 2PC: a writer rank's sends are complete → its coordinator.
    pub const TXN_SENT: &str = "txn_sent";
    /// 2PC: a reader rank took delivery → its coordinator.
    pub const TXN_RECV: &str = "txn_recv";
    /// 2PC: prepare a step.
    pub const TXN_PREPARE: &str = "txn_prepare";
    /// 2PC: participant vote.
    pub const TXN_VOTE: &str = "txn_vote";
    /// 2PC: commit decision.
    pub const TXN_COMMIT: &str = "txn_commit";
}

/// Fields a message record has room for from the start: every
/// fixed-shape message fits (`go` and a `chunk` with extras take six), so
/// building one grows its field vector only for a long list.
const MESSAGE_FIELDS: usize = 6;

/// Build a typed message skeleton.
pub fn message(kind: &str) -> Record {
    Record::with_capacity(MESSAGE_FIELDS).with("type", FieldValue::Str(kind.into()))
}

/// Read the message type tag.
pub fn kind_of(r: &Record) -> &str {
    r.get_str("type").unwrap_or("")
}

/// Read the message type tag off an encoded frame without decoding the
/// rest: every message starts from [`message`], which puts the tag first.
/// `None` for bytes that do not start that way.
pub fn frame_kind(frame: &[u8]) -> Option<&str> {
    Record::peek_str(frame, "type")
}

fn corrupt(what: &str) -> StreamError {
    StreamError::Corrupt(what.to_string())
}

fn stepped(kind: &str, step: u64) -> Record {
    message(kind).with("step", FieldValue::U64(step))
}

fn step_of(r: &Record, what: &str) -> Result<u64, StreamError> {
    r.get_u64("step").ok_or_else(|| corrupt(what))
}

/// The one list codec: `count_key` holds the item count, item `i` is the
/// fields `<prefix>.<i>`, one per prefix, in prefix order.
fn put_list<T, const K: usize>(
    r: &mut Record,
    count_key: &str,
    prefixes: [&str; K],
    items: impl ExactSizeIterator<Item = T>,
    fields: impl Fn(T) -> [FieldValue; K],
) {
    r.set(count_key, FieldValue::U64(items.len() as u64));
    for (i, item) in items.enumerate() {
        for (prefix, value) in prefixes.iter().zip(fields(item)) {
            r.set_item(prefix, &[i], value);
        }
    }
}

/// Inverse of [`put_list`], moving the items' fields out of `r`. The
/// count is a peer's word: every item is at least one field of `r`, so a
/// count above the field count is damage and is refused before anything
/// is collected.
fn take_list<T, const K: usize>(
    r: &mut Record,
    count_key: &str,
    prefixes: [&str; K],
    item: impl Fn([Option<FieldValue>; K]) -> Option<T>,
) -> Option<Vec<T>> {
    let n = r.get_u64(count_key).filter(|&n| n <= r.len() as u64)? as usize;
    let mut items = Vec::with_capacity(n);
    for i in 0..n {
        items.push(item(prefixes.map(|prefix| r.take_item(prefix, &[i])))?);
    }
    Some(items)
}

fn as_record(field: Option<FieldValue>) -> Option<Record> {
    match field? {
        FieldValue::Record(r) => Some(r),
        _ => None,
    }
}

/// A list of records as a field of its own — `n`, then `<prefix>.<i>` —
/// with the record form of its items.
struct ListOf<T: 'static>(&'static str, fn(&T) -> Record, fn(Record) -> Option<T>);

const METAS: ListOf<VarMeta> = ListOf("m", VarMeta::to_record, VarMeta::from_record);
const SELS: ListOf<Subscription> = ListOf("s", Subscription::to_record, Subscription::from_record);
const SPECS: ListOf<PluginSpec> =
    ListOf("p", PluginSpec::to_record, |r| PluginSpec::from_record(&r));

impl<T> ListOf<T> {
    fn put(&self, items: &[T]) -> FieldValue {
        let mut r = Record::with_capacity(1 + items.len());
        put_list(&mut r, "n", [self.0], items.iter(), |t| [FieldValue::Record(self.1(t))]);
        FieldValue::Record(r)
    }

    fn get(&self, list: Option<Record>) -> Option<Vec<T>> {
        take_list(&mut list?, "n", [self.0], |[f]| self.2(as_record(f)?))
    }
}

/// The optional `plugins` field of `go`, `reader_info` and `plugin_update`.
fn plugins_of(r: &mut Record) -> Result<Option<Vec<PluginSpec>>, StreamError> {
    let list = r.take_record("plugins");
    list.map(|l| SPECS.get(Some(l)).ok_or_else(|| corrupt("bad plugin specs"))).transpose()
}

/// `step`: the per-step header on the control channel; `exchange` says
/// whether the step-2 exchange follows.
pub fn step(step: u64, exchange: bool) -> Record {
    stepped(msg::STEP, step).with("exchange", FieldValue::U64(u64::from(exchange)))
}

/// Parse a [`step`] header into `(step, exchange)`.
pub fn parse_step(r: &Record) -> Result<(u64, bool), StreamError> {
    Ok((step_of(r, "step header missing step")?, r.get_u64("exchange") == Some(1)))
}

/// `eos`: end of stream, on the control channel and fanned out to ranks.
pub fn eos() -> Record {
    message(msg::EOS)
}

/// `dists`: one writer rank's variable distributions (step 1).
pub fn dists(of_rank: &[VarMeta]) -> Record {
    message(msg::DISTS).with("metas", METAS.put(of_rank))
}

/// Parse a [`dists`] message.
pub fn parse_dists(r: impl Into<Record>) -> Result<Vec<VarMeta>, StreamError> {
    METAS.get(r.into().take_record("metas")).ok_or_else(|| corrupt("bad dists"))
}

/// `subs`: one reader rank's subscriptions (step 1).
pub fn subs(of_rank: &[Subscription]) -> Record {
    message(msg::SUBS).with("sels", SELS.put(of_rank))
}

/// Parse a [`subs`] message.
pub fn parse_subs(r: impl Into<Record>) -> Result<Vec<Subscription>, StreamError> {
    SELS.get(r.into().take_record("sels")).ok_or_else(|| corrupt("bad subs"))
}

/// `writer_info`: every writer rank's distributions (exchange leg 1).
pub fn writer_info(per_rank: &[Vec<VarMeta>]) -> Record {
    let mut r = message(msg::WRITER_INFO);
    put_list(&mut r, "nranks", ["dists"], per_rank.iter(), |m| [METAS.put(m)]);
    r
}

/// Parse a [`writer_info`] message.
pub fn parse_writer_info(r: impl Into<Record>) -> Result<Vec<Vec<VarMeta>>, StreamError> {
    take_list(&mut r.into(), "nranks", ["dists"], |[f]| METAS.get(as_record(f)))
        .ok_or_else(|| corrupt("bad writer_info"))
}

/// `reader_info`: every reader rank's subscriptions and, on the first
/// step, the plug-in registry (exchange leg 2).
pub fn reader_info(per_rank: &[Vec<Subscription>], plugins: Option<&[PluginSpec]>) -> Record {
    let mut r = message(msg::READER_INFO);
    put_list(&mut r, "nranks", ["sels"], per_rank.iter(), |s| [SELS.put(s)]);
    if let Some(specs) = plugins {
        r.set("plugins", SPECS.put(specs));
    }
    r
}

/// Parse a [`reader_info`] message into `(selections, plug-ins)`.
pub fn parse_reader_info(
    r: impl Into<Record>,
) -> Result<(Vec<Vec<Subscription>>, Option<Vec<PluginSpec>>), StreamError> {
    let mut r = r.into();
    let sels = take_list(&mut r, "nranks", ["sels"], |[f]| SELS.get(as_record(f)))
        .ok_or_else(|| corrupt("bad reader_info"))?;
    Ok((sels, plugins_of(&mut r)?))
}

/// `go`: a coordinator releases one of its ranks into a step (step 3).
/// Sent by both coordinators, parsed by both programs' ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct Go {
    /// The step being released.
    pub step: u64,
    /// The rank's slice of the transfer plan, when it changed: a writer's
    /// row (chunks per reader rank) or a reader's column (per writer rank).
    pub plan: Option<Vec<Vec<ChunkPlan>>>,
    /// The plug-in registry, when it changed.
    pub plugins: Option<Vec<PluginSpec>>,
    /// Elastic `(generation, active)` roster announcement for the next
    /// step (`e_gen`, `e_active`; reader program only).
    pub roster: Option<(u64, usize)>,
}

impl Go {
    /// Encode.
    pub fn to_record(&self) -> Record {
        let mut r = stepped(msg::GO, self.step);
        if let Some(plan) = &self.plan {
            r.set("plan", FieldValue::Record(redistribute::encode_plan(plan)));
        }
        if let Some(specs) = &self.plugins {
            r.set("plugins", SPECS.put(specs));
        }
        if let Some((generation, active)) = self.roster {
            r.set("e_gen", FieldValue::U64(generation));
            r.set("e_active", FieldValue::U64(active as u64));
        }
        r
    }

    /// Parse.
    pub fn from_record(r: impl Into<Record>) -> Result<Go, StreamError> {
        let mut r = r.into();
        let plan = r
            .take_record("plan")
            .map(|p| redistribute::decode_plan(p).ok_or_else(|| corrupt("bad plan slice")))
            .transpose()?;
        let roster = r.get_u64("e_gen").zip(r.get_u64("e_active")).map(|(g, a)| (g, a as usize));
        let step = step_of(&r, "go missing step")?;
        Ok(Go { step, plan, plugins: plugins_of(&mut r)?, roster })
    }
}

/// `chunk`: one variable (or region of one) from writer rank `w`, with the
/// extra variables a writer-side plug-in emitted beside it.
pub fn chunk(
    step: u64,
    w: usize,
    var: &str,
    body: Record,
    extras: &[(String, VarValue)],
) -> Record {
    let mut r = stepped(msg::CHUNK, step)
        .with("w", FieldValue::U64(w as u64))
        .with("var", FieldValue::Str(var.into()))
        .with("body", FieldValue::Record(body));
    if !extras.is_empty() {
        let mut er = Record::new();
        put_list(&mut er, "n", ["name", "val"], extras.iter(), |(name, v)| {
            [FieldValue::Str(name.as_str().into()), FieldValue::Record(v.to_record())]
        });
        r.set("extras", FieldValue::Record(er));
    }
    r
}

/// A parsed [`chunk`]; `value` stays a view of the receive buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Chunk {
    /// Step the chunk belongs to.
    pub step: u64,
    /// Writer rank that sent it.
    pub w: usize,
    /// Variable name.
    pub var: Name,
    /// The payload.
    pub value: VarValue,
    /// Plug-in extras `(name, value)`.
    pub extras: Vec<(Name, VarValue)>,
}

/// Parse a [`chunk`] (a message of its own, or one element of a batch).
pub fn parse_chunk(r: impl Into<Record>) -> Result<Chunk, StreamError> {
    let mut r = r.into();
    let extras = match r.take_record("extras") {
        None => Vec::new(),
        Some(mut er) => take_list(&mut er, "n", ["name", "val"], |[name, val]| match name? {
            FieldValue::Str(name) => Some((name, VarValue::from_record(as_record(val)?)?)),
            _ => None,
        })
        .ok_or_else(|| corrupt("bad chunk extras"))?,
    };
    Ok(Chunk {
        step: step_of(&r, "chunk missing step")?,
        w: r.get_u64("w").ok_or_else(|| corrupt("chunk missing writer rank"))? as usize,
        var: r.take_str("var").ok_or_else(|| corrupt("chunk missing var"))?,
        value: r
            .take_record("body")
            .and_then(VarValue::from_record)
            .ok_or_else(|| corrupt("chunk body undecodable"))?,
        extras,
    })
}

/// `batch`: all of one writer rank's chunks for one reader rank in one
/// message (moved, not cloned, into it).
pub fn batch(step: u64, w: usize, chunks: Vec<Record>) -> Record {
    let mut r = stepped(msg::BATCH, step).with("w", FieldValue::U64(w as u64));
    put_list(&mut r, "n", ["c"], chunks.into_iter(), |c| [FieldValue::Record(c)]);
    r
}

/// The [`chunk`] records of a [`batch`], for [`parse_chunk`].
pub fn batch_chunks(r: impl Into<Record>) -> Result<Vec<Record>, StreamError> {
    take_list(&mut r.into(), "n", ["c"], |[f]| as_record(f)).ok_or_else(|| corrupt("bad batch"))
}

/// `plugin_update`: the plug-in registry, shipped ahead of a step when it
/// changed after the first exchange.
pub fn plugin_update(specs: &[PluginSpec]) -> Record {
    message(msg::PLUGIN_UPDATE).with("plugins", SPECS.put(specs))
}

/// Parse a [`plugin_update`] message.
pub fn parse_plugin_update(r: impl Into<Record>) -> Result<Vec<PluginSpec>, StreamError> {
    plugins_of(&mut r.into())?.ok_or_else(|| corrupt("plugin_update without plugins"))
}

/// The bare signals about a step: `ack` (sync mode; checked by kind alone),
/// the 2PC reports `txn_sent` / `txn_recv`, `txn_prepare`, and `txn_commit`
/// to a rank carry the step alone; `txn_vote` and the cross-program
/// `txn_commit` carry the verdict `ok` too.
pub fn signal(kind: &str, step: u64, ok: Option<bool>) -> Record {
    let r = stepped(kind, step);
    match ok {
        Some(ok) => r.with("ok", FieldValue::U64(u64::from(ok))),
        None => r,
    }
}

/// Parse a [`signal`] into `(step, ok)`; `ok` reads false when the message
/// carries no verdict.
pub fn parse_signal(r: &Record) -> Result<(u64, bool), StreamError> {
    Ok((step_of(r, "signal missing step")?, r.get_u64("ok") == Some(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::{PluginBody, PluginPlacement};
    use crate::query::Expr;
    use adios::{ArrayData, BoxSel, LocalBlock, ScalarValue, Selection};

    #[test]
    fn caching_hint_parsing() {
        assert_eq!(CachingLevel::from_hint("NO_CACHING"), Some(CachingLevel::NoCaching));
        assert_eq!(CachingLevel::from_hint("CACHING_LOCAL"), Some(CachingLevel::CachingLocal));
        assert_eq!(CachingLevel::from_hint("CACHING_ALL"), Some(CachingLevel::CachingAll));
        assert_eq!(CachingLevel::from_hint("bogus"), None);
    }

    #[test]
    fn counters_accumulate() {
        let c = ProtocolCounters::new_shared();
        // The i-th field is bumped i + 1 times: a count that lands under
        // another field's name shows in the literal below.
        let fields = [
            &c.gather_msgs,
            &c.exchange_msgs,
            &c.bcast_msgs,
            &c.data_msgs,
            &c.step_msgs,
            &c.ack_msgs,
            &c.plugin_msgs,
            &c.retries,
            &c.dup_msgs,
            &c.reorder_healed,
            &c.drops_observed,
            &c.eos_synthesized,
            &c.evictions,
            &c.degraded_steps,
            &c.corrupt_frames,
            &c.closed_channels,
        ];
        for (i, field) in fields.into_iter().enumerate() {
            (0..=i).for_each(|_| c.bump(field));
        }
        let expected = ProtocolSnapshot {
            gather_msgs: 1,
            exchange_msgs: 2,
            bcast_msgs: 3,
            data_msgs: 4,
            step_msgs: 5,
            ack_msgs: 6,
            plugin_msgs: 7,
            retries: 8,
            dup_msgs: 9,
            reorder_healed: 10,
            drops_observed: 11,
            eos_synthesized: 12,
            evictions: 13,
            degraded_steps: 14,
            corrupt_frames: 15,
            closed_channels: 16,
        };
        assert_eq!(c.snapshot(), expected);
        assert_eq!(c.handshake_total(), 1 + 2 + 3);
    }

    #[test]
    fn message_tagging() {
        let m = message(msg::STEP).with("step", FieldValue::U64(4));
        assert_eq!(kind_of(&m), "step");
        let round = Record::decode(&m.encode()).unwrap();
        assert_eq!(kind_of(&round), "step");
        assert_eq!(round.get_u64("step"), Some(4));
    }

    fn fixtures(
    ) -> (Vec<Vec<VarMeta>>, Vec<Vec<Subscription>>, Vec<PluginSpec>, Vec<Vec<ChunkPlan>>) {
        let field = |offset: Vec<u64>| VarMeta::Block {
            name: "field".into(),
            shape: vec![6, 6],
            offset,
            count: vec![3, 6],
        };
        let dists = vec![
            vec![VarMeta::Scalar { name: "t".into() }, field(vec![0, 0])],
            vec![field(vec![3, 0])],
        ];
        let sels = vec![
            vec![
                Subscription { var: "zion".into(), sel: Selection::ProcessGroup(1) },
                Subscription {
                    var: "field".into(),
                    sel: Selection::GlobalBox(BoxSel::new(vec![2, 0], vec![2, 6])),
                },
            ],
            vec![Subscription { var: "t".into(), sel: Selection::Scalar }],
            Vec::new(),
        ];
        let plugins = vec![
            PluginSpec {
                var: "zion".into(),
                source: PluginBody::Codelet("emit(0, in[0]);".into()),
                placement: PluginPlacement::WriterSide,
            },
            PluginSpec {
                var: "v".into(),
                source: PluginBody::Filter(Expr::col("v").lt(Expr::lit(0.25))),
                placement: PluginPlacement::ReaderSide,
            },
        ];
        let plan = vec![
            vec![
                ChunkPlan { var: "zion".into(), region: None },
                ChunkPlan {
                    var: "field".into(),
                    region: Some(BoxSel::new(vec![2, 0], vec![1, 6])),
                },
            ],
            Vec::new(),
            vec![ChunkPlan { var: "t".into(), region: None }],
        ];
        (dists, sels, plugins, plan)
    }

    fn block(values: Vec<f64>) -> VarValue {
        let n = values.len() as u64;
        VarValue::Block(LocalBlock {
            global_shape: vec![8],
            offset: vec![2],
            count: vec![n],
            data: ArrayData::F64(values),
        })
    }

    /// One frame of every message kind (and of each optional-field shape
    /// of `go`, `chunk`, `reader_info` and `txn_commit`) for fixed inputs.
    fn frames() -> Vec<(&'static str, Record)> {
        let (dists, sels, plugins, plan) = fixtures();
        let step = 7;
        let go = |plan: Option<&Vec<Vec<ChunkPlan>>>, plugins: Option<&Vec<PluginSpec>>, roster| {
            Go { step, plan: plan.cloned(), plugins: plugins.cloned(), roster }.to_record()
        };
        let extras = vec![
            ("dc_applied".to_string(), VarValue::Scalar(ScalarValue::U64(1))),
            ("q_rows_in".to_string(), VarValue::Scalar(ScalarValue::U64(3))),
        ];
        let plain = chunk(step, 1, "zion", block(vec![1.0, 2.5, -3.0]).to_record(), &[]);
        let conditioned = chunk(step, 1, "zion", block(vec![2.5]).to_record(), &extras);
        vec![
            ("step", self::step(step, true)),
            ("eos", eos()),
            ("dists", self::dists(&dists[0])),
            ("subs", subs(&sels[0])),
            ("writer_info", writer_info(&dists)),
            ("reader_info", reader_info(&sels, None)),
            ("reader_info_plugins", reader_info(&sels, Some(&plugins))),
            ("go_bare", go(None, None, None)),
            ("go_plan_plugins", go(Some(&plan), Some(&plugins), None)),
            ("go_full", go(Some(&plan), Some(&plugins), Some((3, 2)))),
            ("go_roster", go(None, None, Some((3, 2)))),
            ("chunk", plain.clone()),
            ("chunk_extras", conditioned.clone()),
            ("batch", batch(step, 1, vec![plain, conditioned])),
            ("plugin_update", plugin_update(&plugins)),
            ("ack", signal(msg::ACK, step, None)),
            ("txn_sent", signal(msg::TXN_SENT, step, None)),
            ("txn_recv", signal(msg::TXN_RECV, step, None)),
            ("txn_prepare", signal(msg::TXN_PREPARE, step, None)),
            ("txn_vote", signal(msg::TXN_VOTE, step, Some(true))),
            ("txn_commit", signal(msg::TXN_COMMIT, step, Some(false))),
            ("txn_commit_rank", signal(msg::TXN_COMMIT, step, None)),
        ]
    }

    /// A `chunk` whose f64 payload is a bulk segment (at least
    /// `ZERO_COPY_MIN_BYTES`), with a small odd-length `U8` array among its
    /// extras.
    fn bulk_chunk() -> Record {
        let n = 640u64;
        let field = VarValue::Block(LocalBlock {
            global_shape: vec![n],
            offset: vec![0],
            count: vec![n],
            data: ArrayData::F64((0..640).map(|i| f64::from(i) * 0.5 - 7.0).collect()),
        });
        let mask = VarValue::Block(LocalBlock {
            global_shape: vec![5],
            offset: vec![0],
            count: vec![5],
            data: ArrayData::U8(vec![1, 0, 255, 7, 3]),
        });
        chunk(7, 1, "field", field.to_record(), &[("mask".into(), mask)])
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire is a format: these are the frames the builders inlined in
    /// `writer.rs`/`reader.rs` at commit 272e64e produced for the same
    /// inputs, byte for byte.
    #[test]
    fn frames_match_the_golden_bytes() {
        let golden: std::collections::HashMap<_, _> = GOLDEN.iter().copied().collect();
        let frames = frames();
        assert_eq!(frames.len(), GOLDEN.len());
        for (name, record) in frames {
            assert_eq!(hex(&record.encode()), golden[name], "{name}");
        }
    }

    #[test]
    fn every_frame_parses_back_to_what_built_it() {
        let (dists, sels, plugins, plan) = fixtures();
        let frames: std::collections::HashMap<_, _> = frames().into_iter().collect();
        let wire = |name: &str| Record::decode(&frames[name].encode()).expect("own encoding");
        assert_eq!(parse_step(&wire("step")), Ok((7, true)));
        assert_eq!(parse_dists(wire("dists")).as_ref(), Ok(&dists[0]));
        assert_eq!(parse_subs(wire("subs")).as_ref(), Ok(&sels[0]));
        assert_eq!(parse_writer_info(wire("writer_info")), Ok(dists));
        assert_eq!(parse_reader_info(wire("reader_info")), Ok((sels.clone(), None)));
        assert_eq!(
            parse_reader_info(wire("reader_info_plugins")),
            Ok((sels, Some(plugins.clone())))
        );
        let full =
            Go { step: 7, plan: Some(plan), plugins: Some(plugins.clone()), roster: Some((3, 2)) };
        assert_eq!(Go::from_record(wire("go_full")), Ok(full));
        let bare = Go { step: 7, plan: None, plugins: None, roster: None };
        assert_eq!(Go::from_record(wire("go_bare")), Ok(bare));
        let batched = wire("batch");
        let chunks = batch_chunks(batched).unwrap();
        assert_eq!(chunks.len(), 2);
        assert_eq!(parse_chunk(&chunks[0]), parse_chunk(wire("chunk")));
        let conditioned = parse_chunk(&chunks[1]).unwrap();
        assert_eq!((conditioned.step, conditioned.w, conditioned.var.as_str()), (7, 1, "zion"));
        assert_eq!(conditioned.value, block(vec![2.5]));
        assert_eq!(
            conditioned.extras[1],
            ("q_rows_in".into(), VarValue::Scalar(ScalarValue::U64(3)))
        );
        assert_eq!(parse_plugin_update(wire("plugin_update")), Ok(plugins));
        assert_eq!(parse_signal(&wire("txn_vote")), Ok((7, true)));
        assert_eq!(parse_signal(&wire("txn_commit")), Ok((7, false)));
        assert_eq!(parse_signal(&wire("txn_commit_rank")), Ok((7, false)));
    }

    /// The wire, frozen one kind at a time: `evpath::fnv1a64` of one frame
    /// of every message kind, recorded from the encoder whose records held
    /// their names as `String`s and built list keys with `format!`. Inline
    /// names and stack-built keys change what a message allocates, never
    /// its bytes. `chunk_bulk` was recorded from the encoder that held each
    /// element type's arrays in a variant of its own; one array type changes
    /// where the bytes lie, never the bytes.
    #[test]
    fn one_frame_of_every_kind_hashes_as_recorded() {
        let frames: std::collections::HashMap<_, _> =
            frames().into_iter().chain([("chunk_bulk", bulk_chunk())]).collect();
        for (name, hash) in FROZEN {
            let got = evpath::fnv1a64(evpath::FNV_OFFSET, &frames[name].encode());
            assert_eq!(got, hash, "{name}: {got:#018x}");
        }
    }

    /// A record whose arrays are owned words and the same record decoded
    /// as views of its frame encode to the same bytes, flat or as segments.
    #[test]
    fn a_bulk_chunk_encodes_alike_from_owned_words_and_from_views() {
        let owned = bulk_chunk();
        let flat = Arc::new(owned.encode());
        let viewed = Record::decode_shared(&flat).unwrap();
        let data = viewed.get_record("body").and_then(|b| b.get_packed("data")).unwrap();
        assert!(data.is_view() && data.byte_len() >= evpath::ZERO_COPY_MIN_BYTES);
        let frozen = FROZEN.iter().find(|(name, _)| *name == "chunk_bulk").unwrap().1;
        for (how, bytes) in [
            ("encode", owned.encode()),
            ("encode_segments", owned.encode_segments().to_vec()),
            ("views", viewed.encode()),
            ("views as segments", viewed.encode_segments().to_vec()),
        ] {
            assert_eq!(evpath::fnv1a64(evpath::FNV_OFFSET, &bytes), frozen, "{how}");
        }
    }

    /// A coordinator whose exchange did not change re-sends the frame it
    /// built when it last did, and the peer keeps what it parsed from it.
    /// That frame, a fresh build and a build from the parsed values all
    /// hash as recorded.
    #[test]
    fn a_resent_exchange_frame_hashes_as_a_fresh_build() {
        let (dists, sels, _, _) = fixtures();
        let frozen = |kind| FROZEN.iter().find(|(name, _)| *name == kind).unwrap().1;
        let fnv = |bytes: &[u8]| evpath::fnv1a64(evpath::FNV_OFFSET, bytes);
        let cached = writer_info(&dists).encode();
        let parsed = parse_writer_info(Record::decode(&cached).unwrap()).unwrap();
        for bytes in [&cached, &writer_info(&dists).encode(), &writer_info(&parsed).encode()] {
            assert_eq!(fnv(bytes), frozen("writer_info"));
        }
        let cached = reader_info(&sels, None).encode();
        let (parsed, _) = parse_reader_info(Record::decode(&cached).unwrap()).unwrap();
        let rebuilt = [reader_info(&sels, None).encode(), reader_info(&parsed, None).encode()];
        for bytes in [&cached, &rebuilt[0], &rebuilt[1]] {
            assert_eq!(fnv(bytes), frozen("reader_info"));
        }
    }

    const FROZEN: [(&str, u64); 17] = [
        ("step", 0x3e91_ca0c_b9f5_c8c5),
        ("eos", 0xfeec_9915_5ce2_d0a8),
        ("dists", 0x205b_34c1_444e_ac36),
        ("subs", 0x4c67_b9ca_59e4_825d),
        ("writer_info", 0x00eb_0232_dfaf_9c98),
        ("reader_info", 0x1ae5_671d_a616_da75),
        ("go_full", 0x2e05_725c_a15b_6825),
        ("chunk", 0x7632_3a87_9ae0_3be4),
        ("batch", 0xb3f9_2b62_c28a_68d4),
        ("plugin_update", 0x07fc_714c_14cd_14a7),
        ("ack", 0x60db_c504_1b7f_d3b2),
        ("txn_sent", 0xd5d1_68e0_580b_a287),
        ("txn_recv", 0xd6d4_93e9_994d_5d55),
        ("txn_prepare", 0x3e6a_1775_be97_7a7b),
        ("txn_vote", 0xd075_03a5_3d7f_1b57),
        ("txn_commit", 0x18d2_d2cd_00bc_8601),
        ("chunk_bulk", 0x9f9b_7bc6_9e0d_f6c0),
    ];

    const GOLDEN: [(&str, &str); 22] = [
        ("step", "315346460300000004007479706504040000000000000073746570040073746570020700000000000000080065786368616e6765020100000000000000"),
        ("eos", "3153464601000000040074797065040300000000000000656f73"),
        ("dists", "3153464602000000040074797065040500000000000000646973747305006d65746173080300000001006e02020000000000000003006d2e30080200000004006b696e6402000000000000000004006e616d650401000000000000007403006d2e31080500000004006b696e6402010000000000000004006e616d650405000000000000006669656c64050073686170650b02000000000000000600000000000000060000000000000006006f66667365740b0200000000000000000000000000000000000000000000000500636f756e740b020000000000000003000000000000000600000000000000"),
        ("subs", "315346460200000004007479706504040000000000000073756273040073656c73080300000001006e0202000000000000000300732e30080300000003007661720404000000000000007a696f6e030073656c020000000000000000040072616e6b0201000000000000000300732e31080400000003007661720405000000000000006669656c64030073656c02010000000000000006006f66667365740b0200000000000000020000000000000000000000000000000500636f756e740b020000000000000002000000000000000600000000000000"),
        ("writer_info", "3153464604000000040074797065040b000000000000007772697465725f696e666f06006e72616e6b73020200000000000000070064697374732e30080300000001006e02020000000000000003006d2e30080200000004006b696e6402000000000000000004006e616d650401000000000000007403006d2e31080500000004006b696e6402010000000000000004006e616d650405000000000000006669656c64050073686170650b02000000000000000600000000000000060000000000000006006f66667365740b0200000000000000000000000000000000000000000000000500636f756e740b020000000000000003000000000000000600000000000000070064697374732e31080200000001006e02010000000000000003006d2e30080500000004006b696e6402010000000000000004006e616d650405000000000000006669656c64050073686170650b02000000000000000600000000000000060000000000000006006f66667365740b0200000000000000030000000000000000000000000000000500636f756e740b020000000000000003000000000000000600000000000000"),
        ("reader_info", "3153464605000000040074797065040b000000000000007265616465725f696e666f06006e72616e6b73020300000000000000060073656c732e30080300000001006e0202000000000000000300732e30080300000003007661720404000000000000007a696f6e030073656c020000000000000000040072616e6b0201000000000000000300732e31080400000003007661720405000000000000006669656c64030073656c02010000000000000006006f66667365740b0200000000000000020000000000000000000000000000000500636f756e740b020000000000000002000000000000000600000000000000060073656c732e31080200000001006e0201000000000000000300732e300802000000030076617204010000000000000074030073656c020200000000000000060073656c732e32080100000001006e020000000000000000"),
        ("reader_info_plugins", "3153464606000000040074797065040b000000000000007265616465725f696e666f06006e72616e6b73020300000000000000060073656c732e30080300000001006e0202000000000000000300732e30080300000003007661720404000000000000007a696f6e030073656c020000000000000000040072616e6b0201000000000000000300732e31080400000003007661720405000000000000006669656c64030073656c02010000000000000006006f66667365740b0200000000000000020000000000000000000000000000000500636f756e740b020000000000000002000000000000000600000000000000060073656c732e31080200000001006e0201000000000000000300732e300802000000030076617204010000000000000074030073656c020200000000000000060073656c732e32080100000001006e0200000000000000000700706c7567696e73080300000001006e0202000000000000000300702e30080300000003007661720404000000000000007a696f6e0600736f75726365040f00000000000000656d697428302c20696e5b305d293b0900706c6163656d656e740200000000000000000300702e310803000000030076617204010000000000000076060066696c7465720b0500000000000000000000000000000000000000000000000100000000000000000000000000d03f06000000000000000900706c6163656d656e74020100000000000000"),
        ("go_bare", "3153464602000000040074797065040200000000000000676f040073746570020700000000000000"),
        ("go_plan_plugins", "3153464604000000040074797065040200000000000000676f0400737465700207000000000000000400706c616e0807000000050070656572730203000000000000000700636f756e742e3002020000000000000009006368756e6b2e302e30080100000003007661720404000000000000007a696f6e09006368756e6b2e302e31080300000003007661720405000000000000006669656c6406006f66667365740b0200000000000000020000000000000000000000000000000500636f756e740b0200000000000000010000000000000006000000000000000700636f756e742e310200000000000000000700636f756e742e3202010000000000000009006368756e6b2e322e3008010000000300766172040100000000000000740700706c7567696e73080300000001006e0202000000000000000300702e30080300000003007661720404000000000000007a696f6e0600736f75726365040f00000000000000656d697428302c20696e5b305d293b0900706c6163656d656e740200000000000000000300702e310803000000030076617204010000000000000076060066696c7465720b0500000000000000000000000000000000000000000000000100000000000000000000000000d03f06000000000000000900706c6163656d656e74020100000000000000"),
        ("go_full", "3153464606000000040074797065040200000000000000676f0400737465700207000000000000000400706c616e0807000000050070656572730203000000000000000700636f756e742e3002020000000000000009006368756e6b2e302e30080100000003007661720404000000000000007a696f6e09006368756e6b2e302e31080300000003007661720405000000000000006669656c6406006f66667365740b0200000000000000020000000000000000000000000000000500636f756e740b0200000000000000010000000000000006000000000000000700636f756e742e310200000000000000000700636f756e742e3202010000000000000009006368756e6b2e322e3008010000000300766172040100000000000000740700706c7567696e73080300000001006e0202000000000000000300702e30080300000003007661720404000000000000007a696f6e0600736f75726365040f00000000000000656d697428302c20696e5b305d293b0900706c6163656d656e740200000000000000000300702e310803000000030076617204010000000000000076060066696c7465720b0500000000000000000000000000000000000000000000000100000000000000000000000000d03f06000000000000000900706c6163656d656e740201000000000000000500655f67656e0203000000000000000800655f616374697665020200000000000000"),
        ("go_roster", "3153464604000000040074797065040200000000000000676f0400737465700207000000000000000500655f67656e0203000000000000000800655f616374697665020200000000000000"),
        ("chunk", "31534646050000000400747970650405000000000000006368756e6b04007374657002070000000000000001007702010000000000000003007661720404000000000000007a696f6e0400626f6479080600000004006b696e6402010000000000000005006474797065020000000000000000050073686170650b0100000000000000080000000000000006006f66667365740b010000000000000002000000000000000500636f756e740b010000000000000003000000000000000400646174610a0300000000000000000000000000f03f000000000000044000000000000008c0"),
        ("chunk_extras", "31534646060000000400747970650405000000000000006368756e6b04007374657002070000000000000001007702010000000000000003007661720404000000000000007a696f6e0400626f6479080600000004006b696e6402010000000000000005006474797065020000000000000000050073686170650b0100000000000000080000000000000006006f66667365740b010000000000000002000000000000000500636f756e740b010000000000000001000000000000000400646174610a010000000000000000000000000004400600657874726173080500000001006e02020000000000000006006e616d652e30040a0000000000000064635f6170706c696564050076616c2e30080300000004006b696e640200000000000000000500737479706502010000000000000001007602010000000000000006006e616d652e31040900000000000000715f726f77735f696e050076616c2e31080300000004006b696e6402000000000000000005007374797065020100000000000000010076020300000000000000"),
        ("batch", "3153464606000000040074797065040500000000000000626174636804007374657002070000000000000001007702010000000000000001006e0202000000000000000300632e3008050000000400747970650405000000000000006368756e6b04007374657002070000000000000001007702010000000000000003007661720404000000000000007a696f6e0400626f6479080600000004006b696e6402010000000000000005006474797065020000000000000000050073686170650b0100000000000000080000000000000006006f66667365740b010000000000000002000000000000000500636f756e740b010000000000000003000000000000000400646174610a0300000000000000000000000000f03f000000000000044000000000000008c00300632e3108060000000400747970650405000000000000006368756e6b04007374657002070000000000000001007702010000000000000003007661720404000000000000007a696f6e0400626f6479080600000004006b696e6402010000000000000005006474797065020000000000000000050073686170650b0100000000000000080000000000000006006f66667365740b010000000000000002000000000000000500636f756e740b010000000000000001000000000000000400646174610a010000000000000000000000000004400600657874726173080500000001006e02020000000000000006006e616d652e30040a0000000000000064635f6170706c696564050076616c2e30080300000004006b696e640200000000000000000500737479706502010000000000000001007602010000000000000006006e616d652e31040900000000000000715f726f77735f696e050076616c2e31080300000004006b696e6402000000000000000005007374797065020100000000000000010076020300000000000000"),
        ("plugin_update", "3153464602000000040074797065040d00000000000000706c7567696e5f7570646174650700706c7567696e73080300000001006e0202000000000000000300702e30080300000003007661720404000000000000007a696f6e0600736f75726365040f00000000000000656d697428302c20696e5b305d293b0900706c6163656d656e740200000000000000000300702e310803000000030076617204010000000000000076060066696c7465720b0500000000000000000000000000000000000000000000000100000000000000000000000000d03f06000000000000000900706c6163656d656e74020100000000000000"),
        ("ack", "315346460200000004007479706504030000000000000061636b040073746570020700000000000000"),
        ("txn_sent", "315346460200000004007479706504080000000000000074786e5f73656e74040073746570020700000000000000"),
        ("txn_recv", "315346460200000004007479706504080000000000000074786e5f72656376040073746570020700000000000000"),
        ("txn_prepare", "3153464602000000040074797065040b0000000000000074786e5f70726570617265040073746570020700000000000000"),
        ("txn_vote", "315346460300000004007479706504080000000000000074786e5f766f746504007374657002070000000000000002006f6b020100000000000000"),
        ("txn_commit", "3153464603000000040074797065040a0000000000000074786e5f636f6d6d697404007374657002070000000000000002006f6b020000000000000000"),
        ("txn_commit_rank", "3153464602000000040074797065040a0000000000000074786e5f636f6d6d6974040073746570020700000000000000"),
    ];
}
