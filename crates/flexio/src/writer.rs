//! The stream-mode write engine (paper §II.B–C, writer side).
//!
//! Per I/O timestep the writer side runs the 4-step protocol:
//!
//! 1. ranks send their variable *distributions* (metadata only) to the
//!    writer coordinator (skipped under `CACHING_LOCAL`/`CACHING_ALL`
//!    after the first step);
//! 2. the coordinator exchanges distributions/selections with the reader
//!    coordinator (skipped under `CACHING_ALL` after the first step);
//! 3. the coordinator broadcasts the computed transfer plan to its ranks
//!    (skipped when the cached plan is unchanged);
//! 4. every rank extracts and sends its overlapping chunks directly to
//!    the reader ranks, over transports chosen by placement.
//!
//! A tiny per-step "go"/step-header message keeps the two programs in
//! step and carries end-of-stream; it is deliberately outside the
//! handshake counters, which measure steps 1–3 only.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use adios::{ProcessGroup, VarValue, WriteEngine};
use evpath::{BoxedReceiver, BoxedSender, FieldValue, Record};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::{drive, poll_until, recv_record_rt, ChannelId, LinkState};
use crate::monitor::MonitorEvent;
use crate::plugins::{InstalledPlugin, PluginPlacement, PluginSpec};
use crate::protocol::{self, msg, CachingLevel, ProtocolCounters, WriteMode};
use crate::redistribute::{self, ChunkPlan, Subscription, VarMeta};

/// Control-channel receiver with a pending queue so out-of-band messages
/// (plug-in updates) can be drained without losing in-band ones.
pub(crate) struct CtrlIn {
    rx: BoxedReceiver,
    pending: VecDeque<Record>,
    counters: Arc<ProtocolCounters>,
}

impl CtrlIn {
    pub(crate) fn new(rx: BoxedReceiver, counters: Arc<ProtocolCounters>) -> CtrlIn {
        CtrlIn { rx, pending: VecDeque::new(), counters }
    }

    /// Receive the next message whose kind is in `expect`; any other
    /// message encountered on the way is parked in the pending queue (to
    /// be found by a later `recv_expect` or [`Self::drain_kind`]).
    pub(crate) async fn recv_expect(
        &mut self,
        expect: &[&str],
        hints: &StreamHints,
    ) -> Result<Record, StreamError> {
        if let Some(idx) = self.pending.iter().position(|r| expect.contains(&protocol::kind_of(r)))
        {
            return Ok(self.pending.remove(idx).expect("index valid"));
        }
        loop {
            let record = recv_record_rt(&mut self.rx, hints, &self.counters).await?;
            if expect.contains(&protocol::kind_of(&record)) {
                return Ok(record);
            }
            self.pending.push_back(record);
        }
    }

    /// Drain any immediately-available messages of `kind`.
    pub(crate) fn drain_kind(&mut self, kind: &str) -> Vec<Record> {
        let mut out = Vec::new();
        // Move channel contents into pending.
        while let Some(bytes) = self.rx.try_recv() {
            if let Ok(r) = Record::decode(&bytes) {
                self.pending.push_back(r);
            }
        }
        let mut keep = VecDeque::new();
        for r in self.pending.drain(..) {
            if protocol::kind_of(&r) == kind {
                out.push(r);
            } else {
                keep.push_back(r);
            }
        }
        self.pending = keep;
        out
    }
}

struct WriterCoord {
    from_ranks: Vec<Option<BoxedReceiver>>,
    to_ranks: Vec<Option<BoxedSender>>,
    /// Control channels are claimed lazily: their transport depends on the
    /// reader coordinator's placement, unknown until the reader attaches.
    ctrl_tx: Option<BoxedSender>,
    ctrl_in: Option<CtrlIn>,
    /// Last gathered per-rank distributions.
    cached_dists: Vec<Vec<VarMeta>>,
    /// Last received reader selections.
    cached_sels: Option<Vec<Vec<Subscription>>>,
    /// Writer-side plug-in specs currently active.
    writer_plugins: Vec<PluginSpec>,
    /// Eviction set the current plan was computed against; when the link
    /// records further evictions the plan is dirty and must be redrawn.
    planned_evictions: HashSet<usize>,
}

/// Stream-mode [`WriteEngine`]: one per writer rank.
pub struct StreamWriter {
    link: Arc<LinkState>,
    rank: usize,
    nranks: usize,
    name: String,
    hints: StreamHints,
    steps_written: u64,
    current: Option<ProcessGroup>,
    data_tx: HashMap<usize, BoxedSender>,
    ack_rx: HashMap<usize, BoxedReceiver>,
    side_up: Option<BoxedSender>,
    side_down: Option<BoxedReceiver>,
    coord: Option<WriterCoord>,
    /// This rank's row of the transfer plan: chunks per reader rank.
    cached_plan_row: Arc<Vec<Vec<ChunkPlan>>>,
    reader_count: usize,
    installed: HashMap<String, InstalledPlugin>,
    closed: bool,
    /// When the previous step sealed — the gap between seals is the live
    /// estimate of the simulation's I/O interval (`StepSeal` nanos).
    last_seal: Option<Instant>,
    /// What the step being sealed put on the wire and spent in plug-ins,
    /// tallied by `send_chunks` so the seal reads two fields instead of
    /// rescanning the monitor's sample window.
    step_wire_bytes: u64,
    step_plugin_ns: u64,
    /// Optional monitoring relay: when attached, each sealed step ships
    /// its wire volume, plug-in cost and seal interval to the analytics
    /// side, closing the §II.G loop for the elastic controller.
    relay: Option<crate::relay::MonitorRelay>,
}

impl StreamWriter {
    pub(crate) fn new(
        link: Arc<LinkState>,
        rank: usize,
        nranks: usize,
        name: String,
        hints: StreamHints,
    ) -> StreamWriter {
        let (side_up, side_down, coord) = if rank == 0 {
            let coord = WriterCoord {
                from_ranks: (0..nranks).map(|_| None).collect(),
                to_ranks: (0..nranks).map(|_| None).collect(),
                ctrl_tx: None,
                ctrl_in: None,
                cached_dists: vec![Vec::new(); nranks],
                cached_sels: None,
                writer_plugins: Vec::new(),
                planned_evictions: HashSet::new(),
            };
            (None, None, Some(coord))
        } else {
            (
                Some(link.claim_sender(ChannelId::WriterSide { rank, up: true })),
                Some(link.claim_receiver(ChannelId::WriterSide { rank, up: false })),
                None,
            )
        };
        StreamWriter {
            link,
            rank,
            nranks,
            name,
            hints,
            steps_written: 0,
            current: None,
            data_tx: HashMap::new(),
            ack_rx: HashMap::new(),
            side_up,
            side_down,
            coord,
            cached_plan_row: Arc::default(),
            reader_count: 0,
            installed: HashMap::new(),
            closed: false,
            last_seal: None,
            step_wire_bytes: 0,
            step_plugin_ns: 0,
            relay: None,
        }
    }

    /// Attach a monitoring relay: from now on every sealed step publishes
    /// its per-step wire volume ([`MonitorEvent::DataSend`]), plug-in
    /// execution time ([`MonitorEvent::PluginExec`]) and seal-to-seal
    /// interval ([`MonitorEvent::StepSeal`]) to the analytics side, where
    /// an elastic controller's [`crate::relay::MonitorSink`] replica
    /// drives allocation and placement decisions.
    pub fn attach_relay(&mut self, relay: crate::relay::MonitorRelay) {
        self.relay = Some(relay);
    }

    /// Step-seal measurement point: record the seal (and the gap since
    /// the previous one) locally, and ship this step's monitor deltas
    /// through the attached relay, if any.
    fn seal_step(&mut self, step: u64) {
        let gap = self.last_seal.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
        self.last_seal = Some(Instant::now());
        let (wire, plugin_ns) = (self.step_wire_bytes, self.step_plugin_ns);
        self.link.monitor.record(MonitorEvent::StepSeal, step, self.rank, wire, gap);
        if let Some(relay) = &mut self.relay {
            relay.publish(MonitorEvent::DataSend, step, self.rank, wire, 0);
            if plugin_ns > 0 {
                relay.publish(MonitorEvent::PluginExec, step, self.rank, 0, plugin_ns);
            }
            relay.publish(MonitorEvent::StepSeal, step, self.rank, wire, gap);
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

    fn metas(group: &ProcessGroup) -> Vec<VarMeta> {
        group.vars.iter().map(|(n, v)| VarMeta::of(n, v)).collect()
    }

    fn install_plugins(&mut self, specs: &[PluginSpec]) {
        self.installed.clear();
        for spec in specs {
            if spec.placement == PluginPlacement::WriterSide {
                match InstalledPlugin::install(spec.clone()) {
                    Ok(p) => {
                        self.installed.insert(spec.var.clone(), p);
                    }
                    Err(e) => {
                        // A bad plug-in must not take down the simulation;
                        // it is skipped (and would be reported through
                        // monitoring in a production system).
                        eprintln!("flexio: dropping writer-side plug-in for `{}`: {e}", spec.var);
                    }
                }
            }
        }
    }

    /// Fallible version of [`WriteEngine::end_step`]: [`Self::end_step_rt`]
    /// driven to completion on the calling thread by the stream's
    /// `runtime` hint.
    pub fn try_end_step(&mut self) -> Result<(), StreamError> {
        drive(self.hints.runtime, self.end_step_rt())
    }

    /// Run the 4-step protocol for the step being written. Every receive
    /// wait is an `.await`, so a reactor task can multiplex many writers
    /// on one core; [`Self::try_end_step`] is the same future run as a
    /// blocking call. A failure leaves the multi-rank handshake in an
    /// indeterminate state, so the stream is poisoned: further steps are
    /// refused rather than risking a desynchronized retry against peers
    /// that will not replay their half of the protocol.
    pub async fn end_step_rt(&mut self) -> Result<(), StreamError> {
        assert!(!self.closed, "stream closed or poisoned by an earlier failure");
        let group = self.current.take().expect("end_step without begin_step");
        let step = group.step;
        let metas = Self::metas(&group);
        let result = match self.coordinate(metas, step).await {
            Ok(()) => match self.send_chunks(&group, step).await {
                Ok(()) if self.hints.transactional => self.commit_step_2pc(step).await,
                other => other,
            },
            Err(e) => Err(e),
        };
        match result {
            Ok(()) => {
                self.steps_written += 1;
                self.seal_step(step);
                // Feed the fleet's per-shard steps/s counter (no-op
                // outside a reactor).
                flexio_reactor::note_step();
                Ok(())
            }
            Err(e) => {
                self.closed = true;
                Err(e)
            }
        }
    }

    /// Steps 1–3: gather distributions, exchange with the reader
    /// coordinator, and settle this rank's plan row and plug-ins.
    async fn coordinate(&mut self, my_metas: Vec<VarMeta>, step: u64) -> Result<(), StreamError> {
        let first = self.steps_written == 0;
        let need_gather = first || self.hints.caching == CachingLevel::NoCaching;
        let need_exchange = first || self.hints.caching != CachingLevel::CachingAll;
        let counters = Arc::clone(&self.link.counters);
        let nranks = self.nranks;
        let hints = self.hints.clone();
        let link = Arc::clone(&self.link);

        if self.rank != 0 {
            // Step 1: ship distributions up.
            if need_gather {
                let tx = self.side_up.as_mut().expect("non-coordinator has side_up");
                tx.send(
                    &protocol::message("dists")
                        .with("metas", FieldValue::Record(redistribute::encode_metas(&my_metas)))
                        .encode(),
                );
                counters.bump(&counters.gather_msgs);
            }
            // Step 3: receive the go (plan/plugins when changed).
            let rx = self.side_down.as_mut().expect("non-coordinator has side_down");
            let go = recv_record_rt(rx, &hints, &counters).await?;
            if protocol::kind_of(&go) != "go" {
                return Err(StreamError::Protocol(format!(
                    "expected go, got {}",
                    protocol::kind_of(&go)
                )));
            }
            if let Some(plan) = go.get_record("plan") {
                self.cached_plan_row = redistribute::decode_plan(plan)
                    .map(Arc::new)
                    .ok_or_else(|| StreamError::Corrupt("bad plan row".to_string()))?;
                self.reader_count = self.cached_plan_row.len();
            }
            if let Some(pl) = go.get_record("plugins") {
                let specs = decode_plugin_specs(pl)
                    .ok_or_else(|| StreamError::Corrupt("bad plugin specs".to_string()))?;
                self.install_plugins(&specs);
            }
            return Ok(());
        }

        // ---- coordinator path ----
        // Make sure the reader side is attached before the first step.
        if first {
            poll_until(Instant::now() + hints.recv_timeout, || link.try_reader_info())
                .await
                .ok_or(StreamError::Timeout)?;
        }
        let coord = self.coord.as_mut().expect("rank 0 is coordinator");
        if coord.ctrl_tx.is_none() {
            coord.ctrl_tx = Some(link.claim_sender(ChannelId::ControlToReader));
            coord.ctrl_in = Some(CtrlIn::new(
                link.claim_receiver(ChannelId::ControlToWriter),
                Arc::clone(&link.counters),
            ));
        }

        // Drain dynamically-deployed plug-in updates (separate logical
        // channel from data movement, §II.F).
        let mut plugin_dirty = false;
        for update in coord.ctrl_in.as_mut().expect("ctrl claimed").drain_kind(msg::PLUGIN_UPDATE) {
            if let Some(specs) = update.get_record("plugins").and_then(decode_plugin_specs) {
                coord.writer_plugins = specs;
                plugin_dirty = true;
                counters.bump(&counters.plugin_msgs);
            }
        }

        // Step 1: gather distributions.
        if need_gather {
            coord.cached_dists[0] = my_metas;
            for r in 1..nranks {
                let rx = coord.from_ranks[r].get_or_insert_with(|| {
                    link.claim_receiver(ChannelId::WriterSide { rank: r, up: true })
                });
                let m = recv_record_rt(rx, &hints, &counters).await?;
                let metas = m
                    .get_record("metas")
                    .and_then(redistribute::decode_metas)
                    .ok_or_else(|| StreamError::Corrupt("bad dists".to_string()))?;
                coord.cached_dists[r] = metas;
            }
        }

        // Step header (+ step 2 exchange).
        coord.ctrl_tx.as_mut().expect("ctrl claimed").send(
            &protocol::message(msg::STEP)
                .with("step", FieldValue::U64(step))
                .with("exchange", FieldValue::U64(u64::from(need_exchange)))
                .encode(),
        );
        counters.bump(&counters.step_msgs);

        let mut plan_dirty = false;
        if need_exchange {
            let mut info =
                protocol::message(msg::WRITER_INFO).with("nranks", FieldValue::U64(nranks as u64));
            for (w, metas) in coord.cached_dists.iter().enumerate() {
                info.set(
                    &format!("dists.{w}"),
                    FieldValue::Record(redistribute::encode_metas(metas)),
                );
            }
            coord.ctrl_tx.as_mut().expect("ctrl claimed").send(&info.encode());
            counters.bump(&counters.exchange_msgs);

            let reply = coord
                .ctrl_in
                .as_mut()
                .expect("ctrl claimed")
                .recv_expect(&[msg::READER_INFO], &hints)
                .await?;
            let nreaders = reply
                .get_u64("nranks")
                .ok_or_else(|| StreamError::Corrupt("reader_info missing nranks".into()))?;
            // Collected, not pre-sized: `nranks` is the peer's word.
            let sels = (0..nreaders)
                .map(|r| {
                    let sr = reply
                        .get_record(&format!("sels.{r}"))
                        .ok_or_else(|| StreamError::Corrupt("reader_info missing sels".into()))?;
                    decode_subscriptions(sr)
                        .ok_or_else(|| StreamError::Corrupt("bad subscriptions".into()))
                })
                .collect::<Result<Vec<_>, StreamError>>()?;
            if let Some(pl) = reply.get_record("plugins") {
                coord.writer_plugins = decode_plugin_specs(pl)
                    .ok_or_else(|| StreamError::Corrupt("bad plugin specs".into()))?;
                plugin_dirty = true;
            }
            coord.cached_sels = Some(sels);
            plan_dirty = true;
        }

        // Steps degrade around evicted readers: their selections are
        // cleared so the plan routes nothing at a corpse, and the plan is
        // recomputed whenever the eviction set has grown since it was
        // last drawn up. Surviving readers' columns are untouched.
        let evicted = link.evicted_readers();
        if evicted != coord.planned_evictions {
            coord.planned_evictions = evicted.clone();
            plan_dirty = true;
        }

        // Step 3: compute + broadcast the plan when it changed.
        let cached = coord.cached_sels.as_ref().expect("selections known after first exchange");
        let sels: Vec<Vec<Subscription>> = cached
            .iter()
            .enumerate()
            .map(|(r, s)| if evicted.contains(&r) { Vec::new() } else { s.clone() })
            .collect();
        let mut full_plan = redistribute::plan(&coord.cached_dists, &sels);
        self.reader_count = sels.len();

        let plugin_record = plugin_dirty.then(|| encode_plugin_specs(&coord.writer_plugins));
        for r in 1..nranks {
            let tx = coord.to_ranks[r].get_or_insert_with(|| {
                link.claim_sender(ChannelId::WriterSide { rank: r, up: false })
            });
            let mut go = protocol::message("go").with("step", FieldValue::U64(step));
            if plan_dirty {
                go.set("plan", FieldValue::Record(redistribute::encode_plan(&full_plan[r])));
            }
            if let Some(pl) = &plugin_record {
                go.set("plugins", FieldValue::Record(pl.clone()));
            }
            tx.send(&go.encode());
            if plan_dirty {
                counters.bump(&counters.bcast_msgs);
            } else {
                counters.bump(&counters.step_msgs);
            }
        }
        if plan_dirty {
            self.cached_plan_row = Arc::new(full_plan.swap_remove(0));
        }
        if plugin_dirty {
            let specs = coord.writer_plugins.clone();
            self.install_plugins(&specs);
        }
        Ok(())
    }

    /// Step 4: extract, condition and send this rank's chunks. Sends are
    /// plain calls (transport handoff is non-blocking unless a queue is
    /// full), with a yield after each reader's traffic so co-scheduled
    /// reader tasks get to drain; the sync-mode ack waits yield.
    async fn send_chunks(&mut self, group: &ProcessGroup, step: u64) -> Result<(), StreamError> {
        let counters = Arc::clone(&self.link.counters);
        let monitor = self.link.monitor.clone();
        let plan_row = Arc::clone(&self.cached_plan_row);
        (self.step_wire_bytes, self.step_plugin_ns) = (0, 0);
        for (r, chunks) in plan_row.iter().enumerate() {
            // An eviction recorded mid-step (by another writer rank) is
            // honoured immediately — no point feeding a corpse's queue
            // until the coordinator re-plans.
            if chunks.is_empty() || self.link.is_evicted(r) {
                continue;
            }
            let mut encoded_chunks = Vec::with_capacity(chunks.len());
            for cp in chunks {
                let Some(value) = group.get(&cp.var) else {
                    return Err(StreamError::Protocol(format!(
                        "planned variable `{}` was not written this step",
                        cp.var
                    )));
                };
                // Whole-value chunks borrow the written value — the only
                // payload copy before the transport is the marshal layer's
                // bulk append; region chunks own their packed strides and
                // are moved (not re-cloned) into the record.
                let mut payload = redistribute::extract_chunk(value, cp);
                let mut extras: Vec<(String, VarValue)> = Vec::new();
                if cp.region.is_none() {
                    if let Some(plugin) = self.installed.get(&cp.var) {
                        let started = Instant::now();
                        let applied = plugin.apply(&payload);
                        let ns = started.elapsed().as_nanos() as u64;
                        let bytes = payload.payload_bytes();
                        monitor.record(MonitorEvent::PluginExec, step, self.rank, bytes, ns);
                        self.step_plugin_ns += ns;
                        match applied {
                            Ok((v, e)) => {
                                payload = Cow::Owned(v);
                                extras = e;
                            }
                            Err(crate::plugins::PluginError::UnsupportedChunk(_)) => {}
                            Err(e) => {
                                return Err(StreamError::Protocol(format!(
                                    "writer-side plug-in failed: {e}"
                                )))
                            }
                        }
                    }
                }
                let body = match payload {
                    Cow::Owned(v) => v.into_record(),
                    Cow::Borrowed(v) => v.to_record(),
                };
                let mut cr = protocol::message(msg::CHUNK)
                    .with("step", FieldValue::U64(step))
                    .with("w", FieldValue::U64(self.rank as u64))
                    .with("var", FieldValue::Str(cp.var.clone()))
                    .with("body", FieldValue::Record(body));
                if !extras.is_empty() {
                    let mut er = Record::new().with("n", FieldValue::U64(extras.len() as u64));
                    for (i, (name, v)) in extras.iter().enumerate() {
                        er.set(&format!("name.{i}"), FieldValue::Str(name.clone()));
                        er.set(&format!("val.{i}"), FieldValue::Record(v.to_record()));
                    }
                    cr.set("extras", FieldValue::Record(er));
                }
                encoded_chunks.push(cr);
            }
            let tx = {
                let link = &self.link;
                let rank = self.rank;
                self.data_tx
                    .entry(r)
                    .or_insert_with(|| link.claim_sender(ChannelId::Data { w: rank, r }))
            };
            let messages = if self.hints.batching {
                let mut batch = protocol::message(msg::BATCH)
                    .with("step", FieldValue::U64(step))
                    .with("w", FieldValue::U64(self.rank as u64))
                    .with("n", FieldValue::U64(encoded_chunks.len() as u64));
                for (i, c) in encoded_chunks.into_iter().enumerate() {
                    // Moved, not cloned, into the batch.
                    batch.set(&format!("c.{i}"), FieldValue::Record(c));
                }
                vec![batch]
            } else {
                encoded_chunks
            };
            for m in &messages {
                let enc = m.encode_segments();
                let wire = enc.total_len() as u64;
                monitor.record(MonitorEvent::DataSend, step, self.rank, wire, 0);
                self.step_wire_bytes += wire;
                tx.send_vectored(&enc.as_slices());
                counters.bump(&counters.data_msgs);
            }
            // One queue's worth of traffic is down the pipe: let the
            // reader tasks sharing this reactor drain before the next
            // reader's chunks (keeps bounded shm queues from filling
            // while their consumer is starved of poll rounds).
            flexio_reactor::yield_now().await;
        }
        // Synchronous mode: wait for per-reader acknowledgements. A reader
        // that exhausts the timeout-and-retry budget is *evicted* rather
        // than failing the stream (§II.H): the step completes degraded,
        // survivors keep their data, and the coordinator re-plans around
        // the corpse at the next step.
        if self.hints.write_mode == WriteMode::Sync {
            let readers_with_data: Vec<usize> = plan_row
                .iter()
                .enumerate()
                .filter(|(r, c)| !c.is_empty() && !self.link.is_evicted(*r))
                .map(|(r, _)| r)
                .collect();
            let monitor = self.link.monitor.clone();
            let start = Instant::now();
            let mut degraded = false;
            for r in readers_with_data {
                let rx = {
                    let link = &self.link;
                    let rank = self.rank;
                    self.ack_rx
                        .entry(r)
                        .or_insert_with(|| link.claim_receiver(ChannelId::Ack { w: rank, r }))
                };
                match recv_record_rt(rx, &self.hints, &counters).await {
                    Ok(ack) => {
                        if protocol::kind_of(&ack) != msg::ACK {
                            return Err(StreamError::Protocol("expected ack".to_string()));
                        }
                    }
                    Err(StreamError::Timeout) => {
                        degraded = true;
                        if self.link.evict_reader(r) {
                            counters.bump(&counters.evictions);
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            if degraded {
                counters.bump(&counters.degraded_steps);
            }
            monitor.record(
                MonitorEvent::SyncWait,
                step,
                self.rank,
                0,
                start.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }

    /// The 2-phase-commit step transaction (paper §II.H's planned
    /// distributed transaction protocol \[26\], writer = coordinator):
    /// every writer rank reports its sends complete; the coordinator sends
    /// PREPARE to the reader side, collects its vote, and broadcasts the
    /// COMMIT decision to both programs. A step is only "done" once every
    /// reader rank took delivery.
    async fn commit_step_2pc(&mut self, step: u64) -> Result<(), StreamError> {
        let hints = self.hints.clone();
        if self.rank != 0 {
            self.side_up
                .as_mut()
                .expect("non-coordinator has side_up")
                .send(&protocol::message("txn_sent").with("step", FieldValue::U64(step)).encode());
            let rx = self.side_down.as_mut().expect("non-coordinator has side_down");
            let decision = recv_record_rt(rx, &hints, &self.link.counters).await?;
            if protocol::kind_of(&decision) != msg::TXN_COMMIT {
                return Err(StreamError::Protocol("expected txn_commit".to_string()));
            }
            return Ok(());
        }
        let link = Arc::clone(&self.link);
        let nranks = self.nranks;
        let coord = self.coord.as_mut().expect("rank 0 is coordinator");
        for r in 1..nranks {
            let rx = coord.from_ranks[r].get_or_insert_with(|| {
                link.claim_receiver(ChannelId::WriterSide { rank: r, up: true })
            });
            let sent = recv_record_rt(rx, &hints, &link.counters).await?;
            if protocol::kind_of(&sent) != "txn_sent" {
                return Err(StreamError::Protocol("expected txn_sent".to_string()));
            }
        }
        coord.ctrl_tx.as_mut().expect("ctrl claimed").send(
            &protocol::message(msg::TXN_PREPARE).with("step", FieldValue::U64(step)).encode(),
        );
        link.counters.bump(&link.counters.step_msgs);
        let vote = coord
            .ctrl_in
            .as_mut()
            .expect("ctrl claimed")
            .recv_expect(&[msg::TXN_VOTE], &hints)
            .await?;
        let ok = vote.get_u64("ok") == Some(1);
        coord.ctrl_tx.as_mut().expect("ctrl claimed").send(
            &protocol::message(msg::TXN_COMMIT)
                .with("step", FieldValue::U64(step))
                .with("ok", FieldValue::U64(u64::from(ok)))
                .encode(),
        );
        link.counters.bump(&link.counters.step_msgs);
        for r in 1..nranks {
            let tx = coord.to_ranks[r].get_or_insert_with(|| {
                link.claim_sender(ChannelId::WriterSide { rank: r, up: false })
            });
            tx.send(
                &protocol::message(msg::TXN_COMMIT).with("step", FieldValue::U64(step)).encode(),
            );
        }
        if !ok {
            return Err(StreamError::Protocol(format!("reader voted abort for step {step}")));
        }
        Ok(())
    }
}

impl WriteEngine for StreamWriter {
    fn begin_step(&mut self, step: u64) {
        assert!(!self.closed, "stream already closed");
        assert!(self.current.is_none(), "begin_step without end_step");
        self.current = Some(ProcessGroup::new(self.rank, step));
    }

    fn write(&mut self, name: &str, value: VarValue) {
        self.current.as_mut().expect("write outside begin_step/end_step").push(name, value);
    }

    fn end_step(&mut self) {
        self.try_end_step().expect("stream end_step failed");
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.close_notify();
    }
}

impl StreamWriter {
    /// Kill this writer without the end-of-stream courtesy message —
    /// exactly what an abrupt process death looks like to the reader
    /// side. Readers coupled with `eos_on_silence` drain whatever steps
    /// already arrived and then see a synthesized EOS; others surface
    /// [`StreamError::Timeout`]. Test/chaos API.
    pub fn abandon(mut self) {
        self.closed = true; // Drop::close() becomes a no-op
    }

    fn close_notify(&mut self) {
        if self.rank == 0 {
            if let Some(coord) = self.coord.as_mut() {
                // A reader may never have attached (stream never used);
                // only then is there no one to notify.
                if coord.ctrl_tx.is_none() && self.link.try_reader_info().is_some() {
                    coord.ctrl_tx = Some(self.link.claim_sender(ChannelId::ControlToReader));
                }
                if let Some(tx) = coord.ctrl_tx.as_mut() {
                    tx.send(&protocol::message(msg::EOS).encode());
                    self.link.counters.bump(&self.link.counters.step_msgs);
                }
            }
        }
    }
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // Ensure readers observe end-of-stream even on early drop.
        self.close();
    }
}

// ------------------------------------------------------- shared encoders

pub(crate) fn encode_subscriptions(subs: &[Subscription]) -> Record {
    let mut r = Record::new().with("n", FieldValue::U64(subs.len() as u64));
    for (i, s) in subs.iter().enumerate() {
        r.set(&format!("s.{i}"), FieldValue::Record(s.to_record()));
    }
    r
}

pub(crate) fn decode_subscriptions(r: &Record) -> Option<Vec<Subscription>> {
    let n = r.get_u64("n")? as usize;
    (0..n).map(|i| Subscription::from_record(r.get_record(&format!("s.{i}"))?)).collect()
}

pub(crate) fn encode_plugin_specs(specs: &[PluginSpec]) -> Record {
    let mut r = Record::new().with("n", FieldValue::U64(specs.len() as u64));
    for (i, s) in specs.iter().enumerate() {
        r.set(&format!("p.{i}"), FieldValue::Record(s.to_record()));
    }
    r
}

pub(crate) fn decode_plugin_specs(r: &Record) -> Option<Vec<PluginSpec>> {
    let n = r.get_u64("n")? as usize;
    (0..n).map(|i| PluginSpec::from_record(r.get_record(&format!("p.{i}"))?)).collect()
}
