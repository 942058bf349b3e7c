//! The stream-mode read engine (paper §II.B–C, reader side).
//!
//! "The analytics opens the named file, but internally, this establishes
//! connections to simulation processes via the underlying transport.
//! Simulation processes, then, periodically write data to the file, and
//! the data is passed to analytics as return parameters of their read
//! calls. When the simulation closes the file, the connections are closed
//! by the transport and analytics components receive End-of-Stream as
//! return values from their read calls."

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use adios::{BoxSel, ReadEngine, Selection, StepStatus, VarValue};
use evpath::{BoxedReceiver, BoxedSender, FieldValue, Record};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::{drive, recv_record_rt, ChannelId, LinkState};
use crate::monitor::MonitorEvent;
use crate::plugins::{InstalledPlugin, PluginPlacement, PluginSpec};
use crate::protocol::{self, msg, CachingLevel, WriteMode};
use crate::redistribute::{self, BoxAssembler, ChunkPlan, Subscription, VarMeta};
use crate::writer::{
    decode_plugin_specs, decode_subscriptions, encode_plugin_specs, encode_subscriptions, CtrlIn,
};

struct ReaderCoord {
    from_ranks: Vec<Option<BoxedReceiver>>,
    to_ranks: Vec<Option<BoxedSender>>,
    ctrl_tx: BoxedSender,
    ctrl_in: CtrlIn,
    cached_sels: Vec<Vec<Subscription>>,
    /// Full plug-in registry; reader-side specs are also distributed to
    /// reader ranks, writer-side specs shipped across.
    all_plugins: Vec<PluginSpec>,
}

/// Stream-mode [`ReadEngine`]: one per reader rank.
pub struct StreamReader {
    link: Arc<LinkState>,
    rank: usize,
    nranks: usize,
    name: String,
    hints: StreamHints,
    subscriptions: Vec<Subscription>,
    plugins_dirty: bool,
    installed: HashMap<String, InstalledPlugin>,
    /// Local fallback copies of *writer-side* plug-ins: applied only to
    /// chunks that arrive without the [`crate::plugins::DC_APPLIED_MARKER`]
    /// (the writer has not yet installed the migrated plug-in), making
    /// migration seamless.
    fallback: HashMap<String, InstalledPlugin>,
    data_rx: HashMap<usize, BoxedReceiver>,
    ack_tx: HashMap<usize, BoxedSender>,
    side_up: Option<BoxedSender>,
    side_down: Option<BoxedReceiver>,
    coord: Option<ReaderCoord>,
    /// This rank's column of the transfer plan: chunks per writer rank.
    cached_plan_col: Arc<Vec<Vec<ChunkPlan>>>,
    steps_read: u64,
    current_step: Option<u64>,
    store: HashMap<(usize, String), Vec<VarValue>>,
    /// `(writer, var)` chunks of the current step that arrived already
    /// conditioned (the `dc_applied` marker was stamped upstream), i.e.
    /// the writer-side plug-in really ran before the transport.
    wire_conditioned: HashSet<(usize, String)>,
    eos: bool,
    /// Elastic membership (coordinator only): the roster whose desired
    /// member count gets announced inside each `go` broadcast.
    elastic: Option<Arc<crate::elastic::ElasticRoster>>,
    /// Reader ranks participating in the *next* step (coordinator only;
    /// committed by the previous step's announcement).
    elastic_active: usize,
    /// Latest `(generation, active)` announcement this rank stamped into
    /// (rank 0) or parsed from (ranks > 0) a `go`.
    announced: Option<(u64, usize)>,
}

impl StreamReader {
    pub(crate) fn new(
        link: Arc<LinkState>,
        rank: usize,
        nranks: usize,
        name: String,
        hints: StreamHints,
    ) -> StreamReader {
        let (side_up, side_down, coord) = if rank == 0 {
            let coord = ReaderCoord {
                from_ranks: (0..nranks).map(|_| None).collect(),
                to_ranks: (0..nranks).map(|_| None).collect(),
                ctrl_tx: link.claim_sender(ChannelId::ControlToWriter),
                ctrl_in: CtrlIn::new(
                    link.claim_receiver(ChannelId::ControlToReader),
                    Arc::clone(&link.counters),
                ),
                cached_sels: vec![Vec::new(); nranks],
                all_plugins: Vec::new(),
            };
            (None, None, Some(coord))
        } else {
            (
                Some(link.claim_sender(ChannelId::ReaderSide { rank, up: true })),
                Some(link.claim_receiver(ChannelId::ReaderSide { rank, up: false })),
                None,
            )
        };
        StreamReader {
            link,
            rank,
            nranks,
            name,
            hints,
            subscriptions: Vec::new(),
            plugins_dirty: false,
            installed: HashMap::new(),
            fallback: HashMap::new(),
            data_rx: HashMap::new(),
            ack_tx: HashMap::new(),
            side_up,
            side_down,
            coord,
            cached_plan_col: Arc::default(),
            steps_read: 0,
            current_step: None,
            store: HashMap::new(),
            wire_conditioned: HashSet::new(),
            eos: false,
            elastic: None,
            elastic_active: nranks,
            announced: None,
        }
    }

    /// Stream name.
    pub fn stream_name(&self) -> &str {
        &self.name
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Shared link (counters, monitor) for inspection.
    pub fn link(&self) -> &Arc<LinkState> {
        &self.link
    }

    /// The backend this stream's blocking calls run on.
    pub(crate) fn runtime(&self) -> crate::hints::Runtime {
        self.hints.runtime
    }

    /// Declare interest in a variable under a selection. Must be called
    /// before the first `begin_step`; afterwards only under `NO_CACHING`
    /// (cached plans assume stable subscriptions, §II.C.2).
    pub fn subscribe(&mut self, var: &str, sel: Selection) {
        assert!(
            self.steps_read == 0 || self.hints.caching == CachingLevel::NoCaching,
            "subscriptions are frozen after the first step unless NO_CACHING"
        );
        self.subscriptions.push(Subscription { var: var.to_string(), sel });
    }

    /// Drop every subscription (same freeze rule as [`Self::subscribe`]).
    /// Elastic member ranks use this to re-slice their share of the
    /// global array when the roster resizes between steps.
    pub fn clear_subscriptions(&mut self) {
        assert!(
            self.steps_read == 0 || self.hints.caching == CachingLevel::NoCaching,
            "subscriptions are frozen after the first step unless NO_CACHING"
        );
        self.subscriptions.clear();
    }

    /// Put this coordinator's membership under `roster` control: from
    /// the next step on, every `go` broadcast carries the roster's
    /// desired member count, committing membership changes exactly at
    /// step boundaries. Requires `NO_CACHING` — elastic membership rides
    /// the per-step re-gather/re-plan handshake — and rank 0.
    pub fn enable_elastic(&mut self, roster: Arc<crate::elastic::ElasticRoster>) {
        assert_eq!(self.rank, 0, "the reader coordinator owns the roster");
        assert_eq!(
            self.hints.caching,
            CachingLevel::NoCaching,
            "elastic membership requires NO_CACHING (per-step re-plan)"
        );
        self.elastic_active = roster.active().min(self.nranks);
        self.elastic = Some(roster);
    }

    /// The latest `(generation, active)` roster announcement this rank
    /// has seen — the membership in force for the *next* step. Member
    /// ranks read this after `end_step` to learn whether they just
    /// retired; the coordinator's step loop reads it to drive its rank
    /// pool.
    pub fn elastic_announcement(&self) -> Option<(u64, usize)> {
        self.announced
    }

    /// Install or migrate a Data Conditioning plug-in. Reader-side
    /// creation (paper §II.F): only the analytics coordinator (rank 0)
    /// drives deployment; placement updates take effect within one step.
    pub fn install_plugin(&mut self, spec: PluginSpec) {
        assert_eq!(self.rank, 0, "plug-ins are deployed from the reader coordinator");
        let coord = self.coord.as_mut().expect("rank 0 is coordinator");
        coord.all_plugins.retain(|p| p.var != spec.var);
        coord.all_plugins.push(spec);
        self.plugins_dirty = true;
    }

    /// Borrow the chunks stored for `(writer, var)` in the current step,
    /// in arrival order, without copying — packed wire views stay packed.
    /// The query executor reads chunks through this, whatever their
    /// alignment; `read()` hands out only views `as_f64()` can borrow.
    pub fn stored(&self, w: usize, var: &str) -> Option<&[VarValue]> {
        self.store.get(&(w, var.to_string())).map(|v| v.as_slice())
    }

    /// Whether `(writer, var)`'s chunk for the current step arrived
    /// already conditioned (the `dc_applied` marker was stamped before
    /// the transport) — i.e. writer-side pushdown actually ran, as
    /// opposed to the reader's local fallback copy.
    pub fn arrived_conditioned(&self, w: usize, var: &str) -> bool {
        self.wire_conditioned.contains(&(w, var.to_string()))
    }

    fn install_local(&mut self, specs: &[PluginSpec]) {
        self.installed.clear();
        self.fallback.clear();
        for spec in specs {
            match InstalledPlugin::install(spec.clone()) {
                Ok(p) => {
                    if spec.placement == PluginPlacement::ReaderSide {
                        self.installed.insert(spec.var.clone(), p);
                    } else {
                        // Writer-side plug-in: keep a local copy to cover
                        // the migration handover (chunks that arrive
                        // unconditioned are conditioned here instead).
                        self.fallback.insert(spec.var.clone(), p);
                    }
                }
                Err(e) => {
                    eprintln!("flexio: dropping plug-in for `{}`: {e}", spec.var);
                }
            }
        }
    }

    fn store_chunk(&mut self, record: &Record, step: u64) -> Result<(), StreamError> {
        let w = record
            .get_u64("w")
            .ok_or_else(|| StreamError::Corrupt("chunk missing writer rank".into()))?
            as usize;
        let chunk_step = record
            .get_u64("step")
            .ok_or_else(|| StreamError::Corrupt("chunk missing step".into()))?;
        if chunk_step != step {
            return Err(StreamError::Protocol(format!(
                "chunk for step {chunk_step} arrived during step {step}"
            )));
        }
        let var = record
            .get_str("var")
            .ok_or_else(|| StreamError::Corrupt("chunk missing var".into()))?
            .to_string();
        let mut value = record
            .get_record("body")
            .and_then(VarValue::from_record)
            .ok_or_else(|| StreamError::Corrupt("chunk body undecodable".into()))?;
        let mut extras: Vec<(String, VarValue)> = Vec::new();
        if let Some(er) = record.get_record("extras") {
            let n = er.get_u64("n").unwrap_or(0);
            for i in 0..n {
                let (Some(name), Some(vr)) =
                    (er.get_str(&format!("name.{i}")), er.get_record(&format!("val.{i}")))
                else {
                    return Err(StreamError::Corrupt("bad chunk extras".into()));
                };
                let v = VarValue::from_record(vr)
                    .ok_or_else(|| StreamError::Corrupt("bad extra value".into()))?;
                extras.push((name.to_string(), v));
            }
        }
        // Reader-side conditioning for whole-value (process-group) chunks:
        // the installed reader-side plug-in, or — when the chunk arrived
        // without the upstream marker — the fallback copy of a migrating
        // writer-side plug-in (exactly-once conditioning across handover).
        let already_conditioned =
            extras.iter().any(|(n, _)| n == crate::plugins::DC_APPLIED_MARKER);
        if already_conditioned {
            // The writer's plug-in ran before the chunk crossed the
            // transport — record that so consumers (the query counters)
            // can distinguish true pushdown from local fallback.
            self.wire_conditioned.insert((w, var.clone()));
        }
        if matches!(value, VarValue::Block(_)) && !already_conditioned {
            if let Some(plugin) = self.installed.get(&var).or_else(|| self.fallback.get(&var)) {
                // The plug-in decodes a packed wire view itself (one bulk
                // conversion); a rejected chunk stays as-is, so read-only
                // consumers keep borrowing the shared receive buffer.
                let monitor = self.link.monitor.clone();
                let applied = monitor.timed(
                    MonitorEvent::PluginExec,
                    step,
                    self.rank,
                    value.payload_bytes(),
                    || plugin.apply(&value),
                );
                if let Ok((v, e)) = applied {
                    value = v;
                    extras.extend(e);
                }
            }
        }
        self.store.entry((w, var)).or_default().push(value);
        for (name, v) in extras {
            self.store.entry((w, name)).or_default().push(v);
        }
        Ok(())
    }

    /// Fallible version of [`ReadEngine::begin_step`]:
    /// [`Self::begin_step_rt`] driven to completion on the calling thread
    /// by the stream's `runtime` hint.
    pub fn try_begin_step(&mut self) -> Result<StepStatus, StreamError> {
        drive(self.hints.runtime, self.begin_step_rt())
    }

    /// Negotiate and receive the next step. Every receive wait is an
    /// `.await`, so a reactor task can multiplex many readers on one
    /// core; [`Self::try_begin_step`] is the same future run as a
    /// blocking call.
    pub async fn begin_step_rt(&mut self) -> Result<StepStatus, StreamError> {
        assert!(self.current_step.is_none(), "begin_step without end_step");
        if self.eos {
            return Ok(StepStatus::EndOfStream);
        }
        let Some(step) = self.coordinate_begin().await? else {
            self.eos = true;
            return Ok(StepStatus::EndOfStream);
        };
        self.receive_chunks(step).await?;
        if self.hints.transactional {
            self.txn_reader(step).await?;
        }
        self.current_step = Some(step);
        self.steps_read += 1;
        // Feed the fleet's per-shard steps/s counter (no-op outside a
        // reactor).
        flexio_reactor::note_step();
        Ok(StepStatus::Step(step))
    }

    /// Coordinator/rank step negotiation; returns the step index, or
    /// `None` for end-of-stream.
    async fn coordinate_begin(&mut self) -> Result<Option<u64>, StreamError> {
        let first = self.steps_read == 0;
        let need_sub_gather = first || self.hints.caching == CachingLevel::NoCaching;
        let need_exchange = first || self.hints.caching != CachingLevel::CachingAll;
        let counters = Arc::clone(&self.link.counters);
        let hints = self.hints.clone();
        let link = Arc::clone(&self.link);
        let nranks = self.nranks;
        // Elastic membership: `participants` are the ranks committed for
        // *this* step (by the previous step's announcement); the roster
        // is re-read here so this step's `go` carries the freshest
        // desired membership for the next step.
        let elastic = self.elastic.is_some();
        let participants = if elastic { self.elastic_active } else { nranks };
        let roster_note =
            self.elastic.as_ref().map(|r| (r.generation(), r.active().clamp(1, nranks)));

        if self.rank != 0 {
            if need_sub_gather {
                self.side_up.as_mut().expect("non-coordinator has side_up").send(
                    &protocol::message("subs")
                        .with("sels", FieldValue::Record(encode_subscriptions(&self.subscriptions)))
                        .encode(),
                );
                counters.bump(&counters.gather_msgs);
            }
            let rx = self.side_down.as_mut().expect("non-coordinator has side_down");
            let go = recv_record_rt(rx, &hints, &counters).await?;
            match protocol::kind_of(&go) {
                "go" => {
                    let step = go
                        .get_u64("step")
                        .ok_or_else(|| StreamError::Corrupt("go missing step".into()))?;
                    if let Some(plan) = go.get_record("plan") {
                        self.cached_plan_col = redistribute::decode_plan(plan)
                            .map(Arc::new)
                            .ok_or_else(|| StreamError::Corrupt("bad plan col".into()))?;
                    }
                    if let Some(pl) = go.get_record("plugins") {
                        let specs = decode_plugin_specs(pl)
                            .ok_or_else(|| StreamError::Corrupt("bad plugin specs".into()))?;
                        self.install_local(&specs);
                    }
                    if let (Some(g), Some(a)) = (go.get_u64("e_gen"), go.get_u64("e_active")) {
                        self.announced = Some((g, a as usize));
                    }
                    Ok(Some(step))
                }
                k if k == msg::EOS => Ok(None),
                k => Err(StreamError::Protocol(format!("expected go/eos, got {k}"))),
            }
        } else {
            // ---- coordinator ----
            let mut plugin_dirty = self.plugins_dirty;
            self.plugins_dirty = false;
            {
                let coord = self.coord.as_mut().expect("rank 0 is coordinator");
                // Ship dynamic plug-in updates ahead of the step (after the
                // first exchange they travel on the dedicated control path).
                if plugin_dirty && !first {
                    let update = protocol::message(msg::PLUGIN_UPDATE).with(
                        "plugins",
                        FieldValue::Record(encode_plugin_specs(&coord.all_plugins)),
                    );
                    coord.ctrl_tx.send(&update.encode());
                    counters.bump(&counters.plugin_msgs);
                }
            }

            // Step header (or EOS) from the writer coordinator. Under
            // `eos_on_silence` a writer that died without closing (crash
            // faults, abandoned streams) degrades into a synthesized EOS
            // instead of an error: the reader side drains and ends cleanly.
            let header = {
                let coord = self.coord.as_mut().expect("rank 0 is coordinator");
                match coord.ctrl_in.recv_expect(&[msg::STEP, msg::EOS], &hints).await {
                    Ok(h) => h,
                    Err(StreamError::Timeout) if hints.eos_on_silence => {
                        counters.bump(&counters.eos_synthesized);
                        protocol::message(msg::EOS)
                    }
                    Err(e) => return Err(e),
                }
            };
            if protocol::kind_of(&header) == msg::EOS {
                let coord = self.coord.as_mut().expect("rank 0 is coordinator");
                for r in 1..participants {
                    if elastic && link.is_evicted(r) {
                        continue;
                    }
                    let tx = coord.to_ranks[r].get_or_insert_with(|| {
                        link.claim_sender(ChannelId::ReaderSide { rank: r, up: false })
                    });
                    tx.send(&protocol::message(msg::EOS).encode());
                    counters.bump(&counters.step_msgs);
                }
                return Ok(None);
            }
            let step = header
                .get_u64("step")
                .ok_or_else(|| StreamError::Corrupt("step header missing step".into()))?;
            let writer_exchanges = header.get_u64("exchange") == Some(1);
            if writer_exchanges != need_exchange {
                return Err(StreamError::Protocol(format!(
                    "caching configuration mismatch: writer exchange={writer_exchanges}, \
                     reader expects {need_exchange} (configure both sides identically)"
                )));
            }

            let mut plan_dirty = false;
            let mut writer_dists: Option<Vec<Vec<VarMeta>>> = None;
            if need_exchange {
                // Receive writer distributions.
                let info = {
                    let coord = self.coord.as_mut().expect("rank 0 is coordinator");
                    coord.ctrl_in.recv_expect(&[msg::WRITER_INFO], &hints).await?
                };
                let nw = info
                    .get_u64("nranks")
                    .ok_or_else(|| StreamError::Corrupt("writer_info missing nranks".into()))?;
                // Collected, not pre-sized: `nranks` is the peer's word.
                let dists = (0..nw)
                    .map(|w| {
                        let dr = info.get_record(&format!("dists.{w}")).ok_or_else(|| {
                            StreamError::Corrupt("writer_info missing dists".into())
                        })?;
                        redistribute::decode_metas(dr)
                            .ok_or_else(|| StreamError::Corrupt("bad metas".into()))
                    })
                    .collect::<Result<Vec<_>, StreamError>>()?;
                writer_dists = Some(dists);

                // Gather this side's subscriptions.
                let coord = self.coord.as_mut().expect("rank 0 is coordinator");
                if need_sub_gather {
                    coord.cached_sels[0] = self.subscriptions.clone();
                    for r in 1..nranks {
                        if r >= participants || (elastic && link.is_evicted(r)) {
                            // Outside the committed roster (or gone for
                            // good): contributes nothing this step.
                            coord.cached_sels[r].clear();
                            continue;
                        }
                        let rx = coord.from_ranks[r].get_or_insert_with(|| {
                            link.claim_receiver(ChannelId::ReaderSide { rank: r, up: true })
                        });
                        match recv_record_rt(rx, &hints, &counters).await {
                            Ok(m) => {
                                coord.cached_sels[r] = m
                                    .get_record("sels")
                                    .and_then(decode_subscriptions)
                                    .ok_or_else(|| StreamError::Corrupt("bad subs".into()))?;
                            }
                            // An elastic member that never showed up
                            // (e.g. a freshly-activated rank killed
                            // before its first step): evict and re-plan
                            // around it instead of failing the coupling.
                            Err(StreamError::Timeout) if elastic => {
                                if link.evict_reader(r) {
                                    counters.bump(&counters.evictions);
                                }
                                counters.bump(&counters.degraded_steps);
                                coord.cached_sels[r].clear();
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                // Reply with selections (and, on the first step, plug-ins).
                let mut reply = protocol::message(msg::READER_INFO)
                    .with("nranks", FieldValue::U64(nranks as u64));
                for (r, sels) in coord.cached_sels.iter().enumerate() {
                    reply.set(&format!("sels.{r}"), FieldValue::Record(encode_subscriptions(sels)));
                }
                if first && !coord.all_plugins.is_empty() {
                    reply.set(
                        "plugins",
                        FieldValue::Record(encode_plugin_specs(&coord.all_plugins)),
                    );
                    plugin_dirty = true;
                }
                coord.ctrl_tx.send(&reply.encode());
                counters.bump(&counters.exchange_msgs);
                plan_dirty = true;
            }

            // Compute and distribute the plan.
            let coord = self.coord.as_mut().expect("rank 0 is coordinator");
            // Under elastic membership the plug-in registry rides every
            // `go`: a rank activated mid-run must not miss specs that
            // were only broadcast before it joined.
            let plugin_record = (plugin_dirty || (elastic && !coord.all_plugins.is_empty()))
                .then(|| encode_plugin_specs(&coord.all_plugins));
            let mut my_col = None;
            if plan_dirty {
                let dists = writer_dists.as_ref().expect("exchange delivered dists");
                let full = redistribute::plan(dists, &coord.cached_sels);
                // Column for each reader rank r: plan[w][r] over w.
                for r in 0..nranks {
                    let col: Vec<Vec<ChunkPlan>> = full.iter().map(|row| row[r].clone()).collect();
                    if r == 0 {
                        my_col = Some(col);
                        continue;
                    }
                    if r >= participants || (elastic && link.is_evicted(r)) {
                        continue;
                    }
                    let tx = coord.to_ranks[r].get_or_insert_with(|| {
                        link.claim_sender(ChannelId::ReaderSide { rank: r, up: false })
                    });
                    let mut go = protocol::message("go")
                        .with("step", FieldValue::U64(step))
                        .with("plan", FieldValue::Record(redistribute::encode_plan(&col)));
                    if let Some(pl) = &plugin_record {
                        go.set("plugins", FieldValue::Record(pl.clone()));
                    }
                    if let Some((g, a)) = roster_note {
                        go.set("e_gen", FieldValue::U64(g));
                        go.set("e_active", FieldValue::U64(a as u64));
                    }
                    tx.send(&go.encode());
                    counters.bump(&counters.bcast_msgs);
                }
            } else {
                for r in 1..participants {
                    if elastic && link.is_evicted(r) {
                        continue;
                    }
                    let tx = coord.to_ranks[r].get_or_insert_with(|| {
                        link.claim_sender(ChannelId::ReaderSide { rank: r, up: false })
                    });
                    let mut go = protocol::message("go").with("step", FieldValue::U64(step));
                    if let Some(pl) = &plugin_record {
                        go.set("plugins", FieldValue::Record(pl.clone()));
                    }
                    if let Some((g, a)) = roster_note {
                        go.set("e_gen", FieldValue::U64(g));
                        go.set("e_active", FieldValue::U64(a as u64));
                    }
                    tx.send(&go.encode());
                    counters.bump(&counters.step_msgs);
                }
            }
            if let Some(col) = my_col {
                self.cached_plan_col = Arc::new(col);
            }
            if plugin_dirty {
                let specs = self.coord.as_ref().expect("coordinator").all_plugins.clone();
                self.install_local(&specs);
            }
            if let Some((g, a)) = roster_note {
                // Commit the announcement: every participant of this
                // step (including this coordinator) now knows the
                // roster the next step runs on.
                self.announced = Some((g, a));
                self.elastic_active = a;
            }
            Ok(Some(step))
        }
    }

    /// Step 4, receive side: collect the planned chunks from each writer.
    async fn receive_chunks(&mut self, step: u64) -> Result<(), StreamError> {
        let counters = Arc::clone(&self.link.counters);
        let monitor = self.link.monitor.clone();
        let plan_col = Arc::clone(&self.cached_plan_col);
        for (w, chunks) in plan_col.iter().enumerate() {
            let expected = redistribute::expected_messages(chunks, self.hints.batching);
            if expected == 0 {
                continue;
            }
            let rx = {
                let link = &self.link;
                let rank = self.rank;
                self.data_rx
                    .entry(w)
                    .or_insert_with(|| link.claim_receiver(ChannelId::Data { w, r: rank }))
            };
            let mut records = Vec::with_capacity(expected);
            for _ in 0..expected {
                let record = recv_record_rt(rx, &self.hints, &counters).await?;
                records.push(record);
            }
            for record in records {
                let bytes_estimate = 0u64; // bytes recorded at send side
                monitor.record(MonitorEvent::DataRecv, step, self.rank, bytes_estimate, 0);
                match protocol::kind_of(&record) {
                    k if k == msg::CHUNK => self.store_chunk(&record, step)?,
                    k if k == msg::BATCH => {
                        let n = record
                            .get_u64("n")
                            .ok_or_else(|| StreamError::Corrupt("batch missing n".into()))?;
                        for i in 0..n {
                            let c = record.get_record(&format!("c.{i}")).ok_or_else(|| {
                                StreamError::Corrupt("batch missing chunk".into())
                            })?;
                            self.store_chunk(c, step)?;
                        }
                    }
                    k => {
                        return Err(StreamError::Protocol(format!("expected chunk/batch, got {k}")))
                    }
                }
            }
            if self.hints.write_mode == WriteMode::Sync {
                let tx = {
                    let link = &self.link;
                    let rank = self.rank;
                    self.ack_tx
                        .entry(w)
                        .or_insert_with(|| link.claim_sender(ChannelId::Ack { w, r: rank }))
                };
                tx.send(&protocol::message(msg::ACK).with("step", FieldValue::U64(step)).encode());
                counters.bump(&counters.ack_msgs);
            }
        }
        Ok(())
    }

    /// 2PC participant role (enabled by `StreamHints::transactional`).
    async fn txn_reader(&mut self, step: u64) -> Result<(), StreamError> {
        let hints = self.hints.clone();
        if self.rank != 0 {
            self.side_up
                .as_mut()
                .expect("non-coordinator has side_up")
                .send(&protocol::message("txn_recv").with("step", FieldValue::U64(step)).encode());
            let rx = self.side_down.as_mut().expect("non-coordinator has side_down");
            let decision = recv_record_rt(rx, &hints, &self.link.counters).await?;
            if protocol::kind_of(&decision) != msg::TXN_COMMIT {
                return Err(StreamError::Protocol("expected txn_commit".into()));
            }
            return Ok(());
        }
        let link = Arc::clone(&self.link);
        let nranks = self.nranks;
        let coord = self.coord.as_mut().expect("rank 0 is coordinator");
        for r in 1..nranks {
            let rx = coord.from_ranks[r].get_or_insert_with(|| {
                link.claim_receiver(ChannelId::ReaderSide { rank: r, up: true })
            });
            let m = recv_record_rt(rx, &hints, &link.counters).await?;
            if protocol::kind_of(&m) != "txn_recv" {
                return Err(StreamError::Protocol("expected txn_recv".into()));
            }
        }
        let prepare = coord.ctrl_in.recv_expect(&[msg::TXN_PREPARE], &hints).await?;
        if prepare.get_u64("step") != Some(step) {
            return Err(StreamError::Protocol("prepare for unexpected step".into()));
        }
        coord.ctrl_tx.send(
            &protocol::message(msg::TXN_VOTE)
                .with("step", FieldValue::U64(step))
                .with("ok", FieldValue::U64(1))
                .encode(),
        );
        let commit = coord.ctrl_in.recv_expect(&[msg::TXN_COMMIT], &hints).await?;
        let ok = commit.get_u64("ok") == Some(1);
        for r in 1..nranks {
            let tx = coord.to_ranks[r].get_or_insert_with(|| {
                link.claim_sender(ChannelId::ReaderSide { rank: r, up: false })
            });
            tx.send(
                &protocol::message(msg::TXN_COMMIT).with("step", FieldValue::U64(step)).encode(),
            );
        }
        if !ok {
            return Err(StreamError::Protocol("writer aborted the step".into()));
        }
        Ok(())
    }
}

impl ReadEngine for StreamReader {
    fn begin_step(&mut self) -> StepStatus {
        self.try_begin_step().expect("stream begin_step failed")
    }

    fn read(&mut self, name: &str, sel: &Selection) -> Option<VarValue> {
        assert!(self.current_step.is_some(), "read outside a step");
        match sel {
            Selection::ProcessGroup(w) => {
                // Cloning a stored packed block only bumps the view's Arc,
                // and the view goes to the application as it is when its
                // bytes can be read where they lie (the receive buffer then
                // stays leased until the application drops the block, past
                // `end_step` if it likes). Only a view that lies unaligned
                // is materialized — the single payload copy on this path.
                let mut v = self.store.get(&(*w, name.to_string()))?.first().cloned()?;
                v.make_readable();
                Some(v)
            }
            Selection::Scalar => self
                .store
                .iter()
                .filter(|((_, n), _)| n == name)
                .flat_map(|(_, vs)| vs.iter())
                .find(|v| matches!(v, VarValue::Scalar(_)))
                .cloned(),
            Selection::GlobalBox(want) => {
                // Assemble from all received region chunks of this var.
                let mut assembler: Option<BoxAssembler> = None;
                for ((_, n), values) in self.store.iter() {
                    if n != name {
                        continue;
                    }
                    for v in values {
                        let VarValue::Block(b) = v else { continue };
                        let have = BoxSel::new(b.offset.clone(), b.count.clone());
                        let Some(overlap) = have.intersect(want) else { continue };
                        let asm = assembler.get_or_insert_with(|| BoxAssembler::new(want, b));
                        // Merge the overlap straight from the stored block
                        // (a zero-copy wire view for large chunks) into the
                        // target — no clipped intermediate block.
                        asm.add_region(b, &overlap);
                    }
                }
                assembler.map(|a| VarValue::Block(a.finish()))
            }
        }
    }

    fn end_step(&mut self) {
        assert!(self.current_step.take().is_some(), "end_step without begin_step");
        self.store.clear();
        self.wire_conditioned.clear();
    }

    fn close(&mut self) {
        self.eos = true;
    }
}
