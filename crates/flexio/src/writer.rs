//! The stream-mode write engine (paper §II.B–C, writer side).
//!
//! Per I/O timestep the writer side runs the 4-step protocol:
//!
//! 1. ranks send their variable *distributions* (metadata only) to the
//!    writer coordinator (skipped under `CACHING_LOCAL`/`CACHING_ALL`
//!    after the first step);
//! 2. the coordinator exchanges distributions/selections with the reader
//!    coordinator (skipped under `CACHING_ALL` after the first step) — the
//!    reader's half is posted as soon as its content is fixed, not sent in
//!    reply (see `reader.rs`): under `CACHING_LOCAL` the wait for it here
//!    ends when the reader program has *ended* the previous step, not when
//!    it has begun this one;
//! 3. the coordinator broadcasts the computed transfer plan to its ranks
//!    (skipped when the cached plan is unchanged);
//! 4. every rank extracts and sends its overlapping chunks directly to
//!    the reader ranks, over transports chosen by placement.
//!
//! A tiny per-step "go"/step-header message keeps the two programs in
//! step and carries end-of-stream; it is deliberately outside the
//! handshake counters, which measure steps 1–3 only.
//!
//! This file owns the writer's half of that sequence — which message goes
//! when, what is cached, what a step does to its chunks. What a message
//! looks like on the wire is [`crate::protocol`]'s; how it travels between
//! this rank, its coordinator and the reader program is `side.rs`'s.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use adios::{ProcessGroup, VarValue, WriteEngine};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::{poll_until, LinkState};
use crate::monitor::MonitorEvent;
use crate::plugins::{install_all, InstalledPlugin, PluginSpec};
use crate::protocol::{self, msg, CachingLevel, Go, WriteMode};
use crate::redistribute::{self, ChunkPlan, Subscription, VarMeta};
use crate::side::{Program, ProgramSide};

/// What the writer coordinator remembers between steps (empty on any
/// other rank).
#[derive(Default)]
struct WriterCoord {
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
    hints: StreamHints,
    steps_written: u64,
    current: Option<ProcessGroup>,
    /// This rank's channels: to its coordinator (on rank 0: to every
    /// rank, and the control channel to the reader coordinator) and to
    /// the reader ranks.
    side: ProgramSide,
    coord: WriterCoord,
    /// This rank's row of the transfer plan: chunks per reader rank.
    cached_plan_row: Arc<Vec<Vec<ChunkPlan>>>,
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
        hints: StreamHints,
    ) -> StreamWriter {
        let coord = WriterCoord { cached_dists: vec![Vec::new(); nranks], ..Default::default() };
        let side =
            ProgramSide::new(Arc::clone(&link), Program::Writer, rank, nranks, hints.clone());
        StreamWriter {
            link,
            rank,
            nranks,
            hints,
            steps_written: 0,
            current: None,
            side,
            coord,
            cached_plan_row: Arc::default(),
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

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Shared link (counters, monitor) for inspection.
    pub fn link(&self) -> &Arc<LinkState> {
        &self.link
    }

    /// Fallible version of [`WriteEngine::end_step`]: [`Self::end_step_rt`]
    /// driven to completion on the calling thread.
    pub fn try_end_step(&mut self) -> Result<(), StreamError> {
        flexio_reactor::block_inline(self.end_step_rt())
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
        let result = self.run_step(&group, step).await;
        match result {
            Ok(()) => {
                self.steps_written += 1;
                self.seal_step(step);
                // Feed the fleet's per-shard steps/s counter (no-op
                // outside a reactor).
                flexio_reactor::note_step();
            }
            Err(_) => self.closed = true,
        }
        result
    }

    async fn run_step(&mut self, group: &ProcessGroup, step: u64) -> Result<(), StreamError> {
        self.coordinate(group, step).await?;
        self.send_chunks(group, step).await?;
        if self.hints.transactional {
            self.commit_step_2pc(step).await?;
        }
        Ok(())
    }

    /// Steps 1–3: gather distributions, exchange with the reader
    /// coordinator, and settle this rank's plan row and plug-ins. This
    /// rank's distributions are derived from `group` only on a step that
    /// gathers them.
    async fn coordinate(&mut self, group: &ProcessGroup, step: u64) -> Result<(), StreamError> {
        let first = self.steps_written == 0;
        let need_gather = first || self.hints.caching == CachingLevel::NoCaching;
        let my_metas =
            || -> Vec<VarMeta> { group.vars.iter().map(|(n, v)| VarMeta::of(n, v)).collect() };
        let need_exchange = first || self.hints.caching != CachingLevel::CachingAll;
        let (link, counters, nranks) = (&self.link, &self.link.counters, self.nranks);

        if self.rank != 0 {
            // Step 1: ship distributions up.
            if need_gather {
                self.side.send_up(&protocol::dists(&my_metas()));
                counters.bump(&counters.gather_msgs);
            }
            // Step 3: receive the go (plan/plugins when changed).
            let go = Go::from_record(self.side.recv_down(&[msg::GO]).await?)?;
            if let Some(row) = go.plan {
                self.cached_plan_row = Arc::new(row);
            }
            if let Some(specs) = go.plugins {
                install_all(&specs, Some(&mut self.installed), None);
            }
            return Ok(());
        }

        // ---- coordinator path ----
        // Make sure the reader side is attached before the first step.
        if first {
            poll_until(Instant::now() + self.hints.recv_timeout, || link.try_reader_info())
                .await
                .ok_or(StreamError::Timeout)?;
        }
        let coord = &mut self.coord;

        // Drain dynamically-deployed plug-in updates (separate logical
        // channel from data movement, §II.F).
        let mut plugin_dirty = false;
        for update in self.side.ctrl_drain(msg::PLUGIN_UPDATE) {
            if let Ok(specs) = protocol::parse_plugin_update(update) {
                coord.writer_plugins = specs;
                plugin_dirty = true;
                counters.bump(&counters.plugin_msgs);
            }
        }

        // Step 1: gather distributions.
        if need_gather {
            coord.cached_dists[0] = my_metas();
            let dists = &mut coord.cached_dists;
            self.side
                .gather(1..nranks, msg::DISTS, |r, m| {
                    dists[r] = protocol::parse_dists(m?)?;
                    Ok(())
                })
                .await?;
        }

        // Step header (+ step 2 exchange).
        self.side.ctrl_send(&protocol::step(step, need_exchange));
        counters.bump(&counters.step_msgs);

        let mut plan_dirty = false;
        if need_exchange {
            self.side.ctrl_send(&protocol::writer_info(&coord.cached_dists));
            counters.bump(&counters.exchange_msgs);

            // Usually already waiting: the reader posts it unprompted.
            let reply = self.side.ctrl_recv(&[msg::READER_INFO]).await?;
            let (sels, plugins) = protocol::parse_reader_info(reply)?;
            if let Some(specs) = plugins {
                coord.writer_plugins = specs;
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

        let plugins = plugin_dirty.then(|| coord.writer_plugins.clone());
        let class = if plan_dirty { &counters.bcast_msgs } else { &counters.step_msgs };
        self.side.bcast(1..nranks, Some(class), |r| {
            let plan = plan_dirty.then(|| std::mem::take(&mut full_plan[r]));
            Go { step, plan, plugins: plugins.clone(), roster: None }.to_record()
        });
        if plan_dirty {
            self.cached_plan_row = Arc::new(full_plan.swap_remove(0));
        }
        if let Some(specs) = plugins {
            install_all(&specs, Some(&mut self.installed), None);
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
                encoded_chunks.push(protocol::chunk(step, self.rank, &cp.var, body, &extras));
            }
            let tx = self.side.peer_tx(r);
            let messages = if self.hints.batching {
                vec![protocol::batch(step, self.rank, encoded_chunks)]
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
                match self.side.peer_recv(r, &[msg::ACK]).await {
                    Ok(_) => {}
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
        if self.rank != 0 {
            return self.side.txn_report(msg::TXN_SENT, step).await;
        }
        let counters = &self.link.counters;
        self.side.txn_collect(msg::TXN_SENT).await?;
        self.side.ctrl_send(&protocol::signal(msg::TXN_PREPARE, step, None));
        counters.bump(&counters.step_msgs);
        let vote = self.side.ctrl_recv(&[msg::TXN_VOTE]).await?;
        let (_, ok) = protocol::parse_signal(&vote)?;
        self.side.ctrl_send(&protocol::signal(msg::TXN_COMMIT, step, Some(ok)));
        counters.bump(&counters.step_msgs);
        self.side.txn_release(step);
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
        // A reader may never have attached (stream never used); only then
        // is there no one to notify.
        if self.rank == 0 && self.link.try_reader_info().is_some() {
            self.side.ctrl_send(&protocol::eos());
            self.link.counters.bump(&self.link.counters.step_msgs);
        }
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
}

impl Drop for StreamWriter {
    fn drop(&mut self) {
        // Ensure readers observe end-of-stream even on early drop.
        self.close();
    }
}
