//! The stream-mode read engine (paper §II.B–C, reader side).
//!
//! "The analytics opens the named file, but internally, this establishes
//! connections to simulation processes via the underlying transport.
//! Simulation processes, then, periodically write data to the file, and
//! the data is passed to analytics as return parameters of their read
//! calls. When the simulation closes the file, the connections are closed
//! by the transport and analytics components receive End-of-Stream as
//! return values from their read calls."
//!
//! This file owns the reader's half of the step protocol — negotiating a
//! step, receiving and conditioning its chunks, serving `read`. The wire
//! form of every message it sends or parses is [`crate::protocol`]'s; the
//! channels to its coordinator and to the writer program are `side.rs`'s.
//!
//! The step-2 exchange is a *post*, not a rendezvous: this side's
//! `reader_info` depends on nothing the writer sends, so the coordinator
//! sends it the moment its content is fixed — after the subscription
//! gather on entry to `begin_step` (first step, every `NO_CACHING` step),
//! and from `end_step(s)` for step `s+1` under `CACHING_LOCAL`, where
//! subscriptions are frozen — and only then waits for the writer's `step`
//! and `writer_info`. A `CACHING_LOCAL` writer therefore runs exactly one
//! step ahead: it moves step `s+1` while this program is still between
//! `end_step(s)` and `begin_step(s+1)` (its analytics), and cannot finish
//! `s+2` before `end_step(s+1)` posts again.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use adios::{ReadEngine, Selection, StepStatus, VarValue};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::LinkState;
use crate::monitor::MonitorEvent;
use crate::plugins::{install_all, InstalledPlugin, PluginSpec};
use crate::protocol::{self, msg, CachingLevel, Chunk, Go, WriteMode};
use crate::redistribute::{self, ChunkPlan, Subscription};
use crate::side::{Program, ProgramSide};

/// What the reader coordinator remembers between steps (empty on any
/// other rank).
#[derive(Default)]
struct ReaderCoord {
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
    hints: StreamHints,
    subscriptions: Vec<Subscription>,
    plugins_dirty: bool,
    installed: HashMap<String, InstalledPlugin>,
    /// Local fallback copies of *writer-side* plug-ins: applied only to
    /// chunks that arrive without the [`crate::plugins::DC_APPLIED_MARKER`]
    /// (the writer has not yet installed the migrated plug-in), making
    /// migration seamless.
    fallback: HashMap<String, InstalledPlugin>,
    /// This rank's channels: to its coordinator (on rank 0: to every
    /// rank, and the control channel to the writer coordinator) and to
    /// the writer ranks.
    side: ProgramSide,
    coord: ReaderCoord,
    /// This rank's column of the transfer plan: chunks per writer rank.
    cached_plan_col: Arc<Vec<Vec<ChunkPlan>>>,
    steps_read: u64,
    current_step: Option<u64>,
    /// The current step's values per `(writer, var)`, in arrival order;
    /// ordered by writer, so a read takes the lowest writer's first.
    store: BTreeMap<(usize, String), Vec<VarValue>>,
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
        hints: StreamHints,
    ) -> StreamReader {
        let coord = ReaderCoord { cached_sels: vec![Vec::new(); nranks], ..Default::default() };
        let side =
            ProgramSide::new(Arc::clone(&link), Program::Reader, rank, nranks, hints.clone());
        StreamReader {
            link,
            rank,
            nranks,
            hints,
            subscriptions: Vec::new(),
            plugins_dirty: false,
            installed: HashMap::new(),
            fallback: HashMap::new(),
            side,
            coord,
            cached_plan_col: Arc::default(),
            steps_read: 0,
            current_step: None,
            store: BTreeMap::new(),
            wire_conditioned: HashSet::new(),
            eos: false,
            elastic: None,
            elastic_active: nranks,
            announced: None,
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
    /// drives deployment. Installed before `begin_step(s+1)`, it conditions
    /// every chunk from step `s+1` on, exactly once: on this side at first
    /// (a writer-side placement through its fallback copy, for chunks that
    /// arrive without the `dc_applied` marker), and in the writer from step
    /// `s+2` at the latest — `s+3` under `CACHING_LOCAL`, whose writer may
    /// already be one step ahead when the update leaves.
    pub fn install_plugin(&mut self, spec: PluginSpec) {
        assert_eq!(self.rank, 0, "plug-ins are deployed from the reader coordinator");
        self.coord.all_plugins.retain(|p| p.var != spec.var);
        self.coord.all_plugins.push(spec);
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

    fn store_chunk(&mut self, chunk: Chunk, step: u64) -> Result<(), StreamError> {
        let Chunk { step: chunk_step, w, var, mut value, mut extras } = chunk;
        if chunk_step != step {
            return Err(StreamError::Protocol(format!(
                "chunk for step {chunk_step} arrived during step {step}"
            )));
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
    /// [`Self::begin_step_rt`] driven to completion on the calling
    /// thread.
    pub fn try_begin_step(&mut self) -> Result<StepStatus, StreamError> {
        flexio_reactor::block_inline(self.begin_step_rt())
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

    /// Step 2, reader half (coordinator only): send the next exchanging
    /// step's `reader_info`. Nothing in it depends on what the writer sends
    /// — each side computes the plan itself — so its two callers post it
    /// the moment its content is fixed (module docs) and the writer
    /// coordinator finds it waiting.
    fn post_reader_info(&mut self) {
        // The plug-in registry rides the first exchange only; later
        // changes travel as `plugin_update`s on the control path.
        let plugins = (self.steps_read == 0 && !self.coord.all_plugins.is_empty())
            .then_some(&self.coord.all_plugins[..]);
        self.side.ctrl_send(&protocol::reader_info(&self.coord.cached_sels, plugins));
        self.link.counters.bump(&self.link.counters.exchange_msgs);
    }

    /// Coordinator/rank step negotiation; returns the step index, or
    /// `None` for end-of-stream.
    async fn coordinate_begin(&mut self) -> Result<Option<u64>, StreamError> {
        let first = self.steps_read == 0;
        let need_sub_gather = first || self.hints.caching == CachingLevel::NoCaching;
        let need_exchange = first || self.hints.caching != CachingLevel::CachingAll;
        let link = Arc::clone(&self.link);
        let (counters, nranks) = (&link.counters, self.nranks);

        if self.rank != 0 {
            if need_sub_gather {
                self.side.send_up(&protocol::subs(&self.subscriptions));
                counters.bump(&counters.gather_msgs);
            }
            let released = self.side.recv_down(&[msg::GO, msg::EOS]).await?;
            if protocol::kind_of(&released) == msg::EOS {
                return Ok(None);
            }
            let go = Go::from_record(released)?;
            if let Some(col) = go.plan {
                self.cached_plan_col = Arc::new(col);
            }
            if let Some(specs) = go.plugins {
                install_all(&specs, Some(&mut self.fallback), Some(&mut self.installed));
            }
            if go.roster.is_some() {
                self.announced = go.roster;
            }
            return Ok(Some(go.step));
        }

        // ---- coordinator ----
        // Elastic membership: the ranks committed for *this* step (by the
        // previous step's announcement) that are still alive — evaluated
        // as it is walked, so an eviction during the gather is honoured
        // by the broadcast. The roster is re-read here so this step's
        // `go` carries the freshest desired membership for the next step.
        let elastic = self.elastic.is_some();
        let committed = if elastic { self.elastic_active } else { nranks };
        let participants = || (1..committed).filter(|&r| !(elastic && link.is_evicted(r)));
        let roster = self.elastic.as_ref().map(|r| (r.generation(), r.active().clamp(1, nranks)));

        let plugin_dirty = std::mem::take(&mut self.plugins_dirty);
        // Ship dynamic plug-in updates ahead of the step (after the first
        // exchange they travel on the dedicated control path).
        if plugin_dirty && !first {
            self.side.ctrl_send(&protocol::plugin_update(&self.coord.all_plugins));
            counters.bump(&counters.plugin_msgs);
        }

        // Gather this side's subscriptions — a rank outside the committed
        // roster (or gone for good) contributes nothing — and with them
        // fixed, post step 2's reader half before any wait on the writer.
        // (Where nothing is gathered, the selections are the cached ones:
        // `CACHING_LOCAL`'s previous `end_step` has posted already, and
        // `CACHING_ALL` does not exchange.)
        if need_sub_gather {
            let sels = &mut self.coord.cached_sels;
            sels[1..].iter_mut().for_each(Vec::clear);
            sels[0] = self.subscriptions.clone();
            let each = |r: usize, m: Result<_, _>| match m {
                Ok(m) => {
                    sels[r] = protocol::parse_subs(m)?;
                    Ok(())
                }
                // An elastic member that never showed up (e.g. a
                // freshly-activated rank killed before its first
                // step): evict and re-plan around it instead of
                // failing the coupling.
                Err(StreamError::Timeout) if elastic => {
                    if link.evict_reader(r) {
                        counters.bump(&counters.evictions);
                    }
                    counters.bump(&counters.degraded_steps);
                    Ok(())
                }
                Err(e) => Err(e),
            };
            self.side.gather(participants(), msg::SUBS, each).await?;
            self.post_reader_info();
        }

        // Step header (or EOS) from the writer coordinator. Under
        // `eos_on_silence` a writer that died without closing (crash
        // faults, abandoned streams) degrades into a synthesized EOS
        // instead of an error: the reader side drains and ends cleanly.
        let header = match self.side.ctrl_recv(&[msg::STEP, msg::EOS]).await {
            Ok(h) => h,
            Err(StreamError::Timeout) if self.hints.eos_on_silence => {
                counters.bump(&counters.eos_synthesized);
                protocol::eos()
            }
            Err(e) => return Err(e),
        };
        if protocol::kind_of(&header) == msg::EOS {
            self.side.bcast(participants(), Some(&counters.step_msgs), |_| protocol::eos());
            return Ok(None);
        }
        let (step, writer_exchanges) = protocol::parse_step(&header)?;
        if writer_exchanges != need_exchange {
            return Err(StreamError::Protocol(format!(
                "caching configuration mismatch: writer exchange={writer_exchanges}, \
                 reader expects {need_exchange} (configure both sides identically)"
            )));
        }

        // Step 2, the writer's half: its distributions against the posted
        // selections give the plan (the writer computes the same one).
        let mut full_plan = None;
        if need_exchange {
            let info = self.side.ctrl_recv(&[msg::WRITER_INFO]).await?;
            let writer_dists = protocol::parse_writer_info(info)?;
            full_plan = Some(redistribute::plan(&writer_dists, &self.coord.cached_sels));
        }

        // Distribute the plan: reader rank r's column is plan[w][r] over w.
        let column = |r: usize| -> Option<Vec<Vec<ChunkPlan>>> {
            full_plan.as_ref().map(|full| full.iter().map(|row| row[r].clone()).collect())
        };
        // Under elastic membership the plug-in registry rides every `go`:
        // a rank activated mid-run must not miss specs that were only
        // broadcast before it joined.
        let coord = &self.coord;
        let plugins = (plugin_dirty || (elastic && !coord.all_plugins.is_empty()))
            .then(|| coord.all_plugins.clone());
        let class = if full_plan.is_some() { &counters.bcast_msgs } else { &counters.step_msgs };
        self.side.bcast(participants(), Some(class), |r| {
            Go { step, plan: column(r), plugins: plugins.clone(), roster }.to_record()
        });
        if let Some(col) = column(0) {
            self.cached_plan_col = Arc::new(col);
        }
        if plugin_dirty {
            install_all(&coord.all_plugins, Some(&mut self.fallback), Some(&mut self.installed));
        }
        if let Some((_, active)) = roster {
            // Commit the announcement: every participant of this step
            // (including this coordinator) now knows the roster the next
            // step runs on.
            self.announced = roster;
            self.elastic_active = active;
        }
        Ok(Some(step))
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
            let mut records = Vec::with_capacity(expected);
            for _ in 0..expected {
                records.push(self.side.peer_recv(w, &[msg::CHUNK, msg::BATCH]).await?);
            }
            for record in records {
                let wire = record.encoded_len() as u64;
                monitor.record(MonitorEvent::DataRecv, step, self.rank, wire, 0);
                if protocol::kind_of(&record) == msg::BATCH {
                    for c in protocol::batch_chunks(record)? {
                        self.store_chunk(protocol::parse_chunk(c)?, step)?;
                    }
                } else {
                    self.store_chunk(protocol::parse_chunk(record)?, step)?;
                }
            }
            if self.hints.write_mode == WriteMode::Sync {
                self.side.peer_tx(w).send(&protocol::signal(msg::ACK, step, None).encode());
                counters.bump(&counters.ack_msgs);
            }
        }
        Ok(())
    }

    /// 2PC participant role (enabled by `StreamHints::transactional`).
    async fn txn_reader(&mut self, step: u64) -> Result<(), StreamError> {
        if self.rank != 0 {
            return self.side.txn_report(msg::TXN_RECV, step).await;
        }
        self.side.txn_collect(msg::TXN_RECV).await?;
        let prepare = self.side.ctrl_recv(&[msg::TXN_PREPARE]).await?;
        if protocol::parse_signal(&prepare)?.0 != step {
            return Err(StreamError::Protocol("prepare for unexpected step".into()));
        }
        self.side.ctrl_send(&protocol::signal(msg::TXN_VOTE, step, Some(true)));
        let commit = self.side.ctrl_recv(&[msg::TXN_COMMIT]).await?;
        let (_, ok) = protocol::parse_signal(&commit)?;
        self.side.txn_release(step);
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
        let values = self.store.iter().filter(|((_, n), _)| n == name);
        // A box is assembled straight from the stored blocks (zero-copy
        // wire views for large chunks), with no clipped intermediate. A
        // whole value is a clone, which for a packed view only bumps its
        // Arc: it goes to the application as it is when its bytes can be
        // read where they lie (the receive buffer then stays leased until
        // the application drops it, past `end_step` if it likes), and only
        // a view that lies unaligned is materialized here.
        let mut v = adios::select(values.flat_map(|((w, _), vs)| vs.iter().map(|v| (*w, v))), sel)?;
        v.make_readable();
        Some(v)
    }

    fn end_step(&mut self) {
        assert!(self.current_step.take().is_some(), "end_step without begin_step");
        self.store.clear();
        self.wire_conditioned.clear();
        // `CACHING_LOCAL` freezes the subscriptions after step one, so the
        // next step's `reader_info` is fixed here: the writer moves step
        // s+1 while this program is between steps, and waits for
        // `end_step(s+1)` before it can finish s+2.
        if self.rank == 0 && self.hints.caching == CachingLevel::CachingLocal {
            self.post_reader_info();
        }
    }

    fn close(&mut self) {
        self.eos = true;
    }
}
