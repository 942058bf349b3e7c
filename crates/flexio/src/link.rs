//! Connection management: the fabric of channels between the two coupled
//! programs, with transports auto-selected from placement (paper §II.A:
//! "intra- vs inter-node transports are automatically configured according
//! to the placements of communicating simulation and online analytics
//! processes").

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::GroupConfig;
use evpath::{
    inproc_pair, BoxedReceiver, BoxedSender, EvReceiver, EvSender, FaultPlan, FaultSpec, Lease,
    NetTransport, Record, RecvPoll, ShmTransport,
};
use machine::{CoreLocation, MachineModel};
use netsim::NetSim;
use parking_lot::{Condvar, Mutex};

use crate::directory::{DirectoryError, DirectoryService, InProcDirectory};
use crate::monitor::PerfMonitor;
use crate::protocol::{CachingLevel, ProtocolCounters, WriteMode};
use crate::reader::StreamReader;
use crate::writer::StreamWriter;

/// Which engine backend drives a stream's protocol steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// One OS thread per stream side: a blocking call polls the engine
    /// future in place and its receive waits park the thread through
    /// `flexio_reactor::Backoff` (the default).
    Blocking,
    /// A blocking call runs the engine future on a caller-thread
    /// `flexio-reactor` event loop, its waits on the timer wheel. (The
    /// `*_rt` async entry points, awaited from a reactor task, let one
    /// thread multiplex many streams whatever this hint says.)
    Reactor,
}

/// Run an engine future to completion for the blocking API. The protocol
/// is the future; the runtime is only how its waits are served.
pub(crate) fn drive<F: std::future::Future>(runtime: Runtime, fut: F) -> F::Output {
    match runtime {
        Runtime::Blocking => flexio_reactor::block_inline(fut),
        Runtime::Reactor => flexio_reactor::block_on(fut),
    }
}

impl Runtime {
    /// Parse an XML `runtime` hint value.
    pub fn from_hint(value: &str) -> Option<Runtime> {
        match value {
            "blocking" | "thread" => Some(Runtime::Blocking),
            "reactor" => Some(Runtime::Reactor),
            _ => None,
        }
    }
}

/// Process-wide default runtime: `FLEXIO_RUNTIME=reactor` flips every
/// stream that doesn't set an explicit hint, which is how the verify
/// suite replays the whole mode-matrix and fault battery on the reactor
/// backend without touching the tests.
fn default_runtime() -> Runtime {
    static DEFAULT: std::sync::OnceLock<Runtime> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FLEXIO_RUNTIME")
            .ok()
            .as_deref()
            .and_then(Runtime::from_hint)
            .unwrap_or(Runtime::Blocking)
    })
}

/// Which byte transport a stream's channels run over.
///
/// `Auto` is the paper's behaviour — placement picks in-proc, shm or the
/// RDMA fabric per channel. The explicit selections force every channel
/// of the stream onto one backend, which is how the verify suite replays
/// the whole mode-matrix and fault battery over real sockets
/// (`FLEXIO_TRANSPORT=tcp`) without touching the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Placement-driven choice (in-proc / shm / RDMA-sim).
    Auto,
    /// Force the shared-memory queue for every channel.
    Shm,
    /// Force loopback TCP sockets for every channel.
    Tcp,
    /// Force Unix-domain sockets for every channel.
    Uds,
}

impl Transport {
    /// Parse an XML `transport` hint value (also the `FLEXIO_TRANSPORT`
    /// environment syntax).
    pub fn from_hint(value: &str) -> Option<Transport> {
        match value {
            "auto" => Some(Transport::Auto),
            "shm" => Some(Transport::Shm),
            "tcp" => Some(Transport::Tcp),
            "uds" => Some(Transport::Uds),
            _ => None,
        }
    }
}

/// Process-wide default transport: `FLEXIO_TRANSPORT=tcp|uds|shm` flips
/// every stream that doesn't set an explicit `transport` hint.
fn default_transport() -> Transport {
    static DEFAULT: std::sync::OnceLock<Transport> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FLEXIO_TRANSPORT")
            .ok()
            .as_deref()
            .and_then(Transport::from_hint)
            .unwrap_or(Transport::Auto)
    })
}

/// Per-stream tuning hints, populated from the XML config (§II.B: "To
/// tune transports, transport-specific parameters specified as hints in an
/// XML configuration file are passed to the FlexIO runtime").
#[derive(Debug, Clone)]
pub struct StreamHints {
    /// Handshake caching level.
    pub caching: CachingLevel,
    /// Pack all of a step's chunks per receiver into one message.
    pub batching: bool,
    /// Sync vs async write calls.
    pub write_mode: WriteMode,
    /// Shared-memory queue depth.
    pub queue_entries: usize,
    /// Shared-memory inline payload capacity.
    pub inline_capacity: usize,
    /// Receive timeout for the timeout-and-retry resiliency scheme.
    pub recv_timeout: Duration,
    /// Retry attempts before giving up.
    pub retries: u32,
    /// Run the 2-phase-commit step transaction protocol.
    pub transactional: bool,
    /// Deterministic fault schedule to install on every channel of the
    /// stream (None in production; tests and chaos runs set it).
    pub faults: Option<Arc<FaultPlan>>,
    /// Reader coordinator synthesizes end-of-stream when the writer goes
    /// silent past the timeout budget, instead of surfacing an error —
    /// the paper's "degrade gracefully when the producer dies" posture.
    pub eos_on_silence: bool,
    /// Engine backend: thread-per-stream blocking calls (default) or the
    /// single-threaded reactor event loop.
    pub runtime: Runtime,
    /// Byte transport beneath every channel of the stream.
    pub transport: Transport,
    /// Budget for establishing one socket connection (covers the window
    /// where the peer process has registered but not finished binding).
    pub net_connect_timeout: Duration,
    /// Per-frame payload cap on socket channels, in bytes; a length field
    /// above it reads as a corrupt frame.
    pub net_max_frame: u32,
}

impl Default for StreamHints {
    fn default() -> Self {
        StreamHints {
            caching: CachingLevel::NoCaching,
            batching: false,
            write_mode: WriteMode::Async,
            queue_entries: 64,
            inline_capacity: 512,
            recv_timeout: Duration::from_secs(10),
            retries: 3,
            transactional: false,
            faults: None,
            eos_on_silence: false,
            runtime: default_runtime(),
            transport: default_transport(),
            net_connect_timeout: Duration::from_secs(2),
            net_max_frame: evpath::MAX_FRAME_LEN,
        }
    }
}

/// The typed vocabulary of XML `<hint>` names the runtime understands.
/// [`StreamHints::from_config`] and [`crate::directory::DirectoryConfig`]
/// look hints up through this enum instead of scattering string literals,
/// so a typo'd key is a compile error (and the round-trip test iterates
/// [`HintKey::ALL`] to prove every key is actually parsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKey {
    /// Handshake caching level (`NO_CACHING`/`CACHING_LOCAL`/`CACHING_ALL`).
    Caching,
    /// Pack a step's chunks per receiver into one message.
    Batching,
    /// `true` = async writes, any other value = sync.
    Async,
    /// Shared-memory queue depth.
    QueueEntries,
    /// Shared-memory inline payload capacity in bytes.
    InlineCapacity,
    /// Receive timeout in milliseconds.
    TimeoutMs,
    /// Retry attempts before giving up.
    Retries,
    /// Run the 2-phase-commit step transaction protocol.
    Transactional,
    /// Synthesize end-of-stream when the writer goes silent.
    EosOnSilence,
    /// Engine backend (`blocking`/`reactor`).
    Runtime,
    /// Byte transport beneath every channel (`auto`/`shm`/`tcp`/`uds`).
    TransportSel,
    /// Socket connect budget in milliseconds.
    NetConnectMs,
    /// Socket per-frame payload cap in mebibytes.
    NetMaxFrameMb,
    /// Enables the `fault.*` hint family (the family's per-channel knobs
    /// are parsed by prefix, not by this enum).
    FaultSeed,
    /// Directory registry lock stripes.
    DirectoryShards,
    /// Directory nodes (>1 builds a gossip-replicated cluster).
    DirectoryNodes,
    /// Anti-entropy gossip round interval in milliseconds.
    DirectoryGossipMs,
    /// Expected pub/sub reader-group count (sizing/observability only).
    PubsubGroups,
    /// Pub/sub in-memory replay ring bound, in steps.
    PubsubReplaySteps,
    /// Directory for BP spill segments (enables durable replay).
    PubsubSpillDir,
    /// Default pub/sub delivery QoS (`lossless`/`latest`).
    PubsubQos,
    /// Enable writer-side query pushdown (default `true`).
    QueryPushdown,
    /// Tumbling-window width in steps for query aggregates (0 = one
    /// window over the whole stream).
    QueryWindowSteps,
    /// Cap on total query output rows (0 = unlimited).
    QueryMaxRows,
    /// Run the naive row-at-a-time oracle next to the vectorized
    /// executor and assert bit-identical results (default `false`).
    QueryOracle,
    /// Elastic controller decision cadence in milliseconds.
    ElasticIntervalMs,
    /// Elastic reader-roster floor (never scale below).
    ElasticMinReaders,
    /// Elastic reader-roster ceiling (provisioned rank slots).
    ElasticMaxReaders,
    /// Steps of reader lag tolerated before adding a rank.
    ElasticTargetLag,
}

impl HintKey {
    /// Every key, for exhaustive round-trip tests.
    pub const ALL: &'static [HintKey] = &[
        HintKey::Caching,
        HintKey::Batching,
        HintKey::Async,
        HintKey::QueueEntries,
        HintKey::InlineCapacity,
        HintKey::TimeoutMs,
        HintKey::Retries,
        HintKey::Transactional,
        HintKey::EosOnSilence,
        HintKey::Runtime,
        HintKey::TransportSel,
        HintKey::NetConnectMs,
        HintKey::NetMaxFrameMb,
        HintKey::FaultSeed,
        HintKey::DirectoryShards,
        HintKey::DirectoryNodes,
        HintKey::DirectoryGossipMs,
        HintKey::PubsubGroups,
        HintKey::PubsubReplaySteps,
        HintKey::PubsubSpillDir,
        HintKey::PubsubQos,
        HintKey::QueryPushdown,
        HintKey::QueryWindowSteps,
        HintKey::QueryMaxRows,
        HintKey::QueryOracle,
        HintKey::ElasticIntervalMs,
        HintKey::ElasticMinReaders,
        HintKey::ElasticMaxReaders,
        HintKey::ElasticTargetLag,
    ];

    /// The XML hint name this key reads.
    pub fn as_str(&self) -> &'static str {
        match self {
            HintKey::Caching => "caching",
            HintKey::Batching => "batching",
            HintKey::Async => "async",
            HintKey::QueueEntries => "queue_entries",
            HintKey::InlineCapacity => "inline_capacity",
            HintKey::TimeoutMs => "timeout_ms",
            HintKey::Retries => "retries",
            HintKey::Transactional => "transactional",
            HintKey::EosOnSilence => "eos_on_silence",
            HintKey::Runtime => "runtime",
            HintKey::TransportSel => "transport",
            HintKey::NetConnectMs => "net.connect_ms",
            HintKey::NetMaxFrameMb => "net.max_frame_mb",
            HintKey::FaultSeed => "fault.seed",
            HintKey::DirectoryShards => "directory.shards",
            HintKey::DirectoryNodes => "directory.nodes",
            HintKey::DirectoryGossipMs => "directory.gossip_ms",
            HintKey::PubsubGroups => "pubsub.groups",
            HintKey::PubsubReplaySteps => "pubsub.replay_steps",
            HintKey::PubsubSpillDir => "pubsub.spill_dir",
            HintKey::PubsubQos => "pubsub.qos",
            HintKey::QueryPushdown => "query.pushdown",
            HintKey::QueryWindowSteps => "query.window_steps",
            HintKey::QueryMaxRows => "query.max_rows",
            HintKey::QueryOracle => "query.oracle",
            HintKey::ElasticIntervalMs => "elastic.interval_ms",
            HintKey::ElasticMinReaders => "elastic.min_readers",
            HintKey::ElasticMaxReaders => "elastic.max_readers",
            HintKey::ElasticTargetLag => "elastic.target_lag",
        }
    }
}

impl StreamHints {
    /// A fluent builder starting from the defaults, so call sites (and
    /// tests) state only the knobs they mean instead of mutating public
    /// fields.
    pub fn builder() -> StreamHintsBuilder {
        StreamHintsBuilder { hints: StreamHints::default() }
    }

    /// Derive hints from a parsed group configuration.
    pub fn from_config(cfg: &GroupConfig) -> StreamHints {
        let hint = |k: HintKey| cfg.hint(k.as_str());
        let hint_bool = |k: HintKey| cfg.hint_bool(k.as_str());
        let hint_u64 = |k: HintKey| cfg.hint_u64(k.as_str());
        let mut h = StreamHints::default();
        if let Some(c) = hint(HintKey::Caching).and_then(CachingLevel::from_hint) {
            h.caching = c;
        }
        h.batching = hint_bool(HintKey::Batching);
        if hint_bool(HintKey::Async) {
            h.write_mode = WriteMode::Async;
        } else if hint(HintKey::Async).is_some() {
            h.write_mode = WriteMode::Sync;
        }
        if let Some(q) = hint_u64(HintKey::QueueEntries) {
            h.queue_entries = q as usize;
        }
        if let Some(cap) = hint_u64(HintKey::InlineCapacity) {
            h.inline_capacity = cap as usize;
        }
        if let Some(ms) = hint_u64(HintKey::TimeoutMs) {
            h.recv_timeout = Duration::from_millis(ms);
        }
        if let Some(r) = hint_u64(HintKey::Retries) {
            h.retries = r as u32;
        }
        h.transactional = hint_bool(HintKey::Transactional);
        h.eos_on_silence = hint_bool(HintKey::EosOnSilence);
        if let Some(rt) = hint(HintKey::Runtime).and_then(Runtime::from_hint) {
            h.runtime = rt;
        }
        if let Some(t) = hint(HintKey::TransportSel).and_then(Transport::from_hint) {
            h.transport = t;
        }
        if let Some(ms) = hint_u64(HintKey::NetConnectMs) {
            h.net_connect_timeout = Duration::from_millis(ms);
        }
        if let Some(mb) = hint_u64(HintKey::NetMaxFrameMb) {
            h.net_max_frame = (mb as u32).saturating_mul(1 << 20);
        }
        h.faults = fault_plan_from_config(cfg).map(Arc::new);
        h
    }
}

/// Builder returned by [`StreamHints::builder`].
#[derive(Debug, Clone)]
pub struct StreamHintsBuilder {
    hints: StreamHints,
}

impl StreamHintsBuilder {
    /// Handshake caching level.
    pub fn caching(mut self, caching: CachingLevel) -> Self {
        self.hints.caching = caching;
        self
    }

    /// Pack a step's chunks per receiver into one message.
    pub fn batching(mut self, batching: bool) -> Self {
        self.hints.batching = batching;
        self
    }

    /// Sync vs async write calls.
    pub fn write_mode(mut self, mode: WriteMode) -> Self {
        self.hints.write_mode = mode;
        self
    }

    /// Shared-memory queue depth.
    pub fn queue_entries(mut self, entries: usize) -> Self {
        self.hints.queue_entries = entries;
        self
    }

    /// Shared-memory inline payload capacity.
    pub fn inline_capacity(mut self, bytes: usize) -> Self {
        self.hints.inline_capacity = bytes;
        self
    }

    /// Receive timeout for the timeout-and-retry scheme.
    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.hints.recv_timeout = timeout;
        self
    }

    /// Retry attempts before giving up.
    pub fn retries(mut self, retries: u32) -> Self {
        self.hints.retries = retries;
        self
    }

    /// Run the 2-phase-commit step transaction protocol.
    pub fn transactional(mut self, on: bool) -> Self {
        self.hints.transactional = on;
        self
    }

    /// Install a deterministic fault schedule on the stream's channels.
    pub fn faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.hints.faults = Some(plan);
        self
    }

    /// Synthesize end-of-stream when the writer goes silent.
    pub fn eos_on_silence(mut self, on: bool) -> Self {
        self.hints.eos_on_silence = on;
        self
    }

    /// Engine backend.
    pub fn runtime(mut self, runtime: Runtime) -> Self {
        self.hints.runtime = runtime;
        self
    }

    /// Byte transport beneath every channel of the stream.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.hints.transport = transport;
        self
    }

    /// Socket connect budget.
    pub fn net_connect_timeout(mut self, timeout: Duration) -> Self {
        self.hints.net_connect_timeout = timeout;
        self
    }

    /// Socket per-frame payload cap in bytes.
    pub fn net_max_frame(mut self, bytes: u32) -> Self {
        self.hints.net_max_frame = bytes;
        self
    }

    /// Finish, yielding the hints.
    pub fn build(self) -> StreamHints {
        self.hints
    }
}

/// Parse the `fault.*` hint family into a [`FaultPlan`]. `fault.seed`
/// enables the plan; per-channel knobs are `fault.<label>.<param>` where
/// `label` is a channel-label prefix (`data`, `ack:1->0`, `ctrl:w2r`, ...)
/// or `default`, and `param` is one of `drop_pm`, `dup_pm`, `reorder_pm`,
/// `delay_pm`, `delay_ms`, `crash_sender_after`, `crash_receiver_after`,
/// `stall_ms`.
fn fault_plan_from_config(cfg: &GroupConfig) -> Option<FaultPlan> {
    let seed = cfg.hint_u64(HintKey::FaultSeed.as_str())?;
    let mut specs: BTreeMap<String, FaultSpec> = BTreeMap::new();
    for (key, value) in cfg.hints_with_prefix("fault.") {
        let rest = &key["fault.".len()..];
        if rest == "seed" {
            continue;
        }
        let Some((label, param)) = rest.rsplit_once('.') else {
            continue;
        };
        let Ok(n) = value.parse::<u64>() else {
            continue;
        };
        let spec = specs.entry(label.to_string()).or_default();
        match param {
            "drop_pm" => spec.drop_per_mille = n as u16,
            "dup_pm" => spec.dup_per_mille = n as u16,
            "reorder_pm" => spec.reorder_per_mille = n as u16,
            "delay_pm" => spec.delay_per_mille = n as u16,
            "delay_ms" => spec.delay = Duration::from_millis(n),
            "crash_sender_after" => spec.crash_sender_after = Some(n),
            "crash_receiver_after" => spec.crash_receiver_after = Some(n),
            "stall_ms" => spec.stall = Some(Duration::from_millis(n)),
            _ => {}
        }
    }
    let mut plan = FaultPlan::new(seed);
    for (label, spec) in specs {
        if label == "default" {
            plan.set_default(spec);
        } else {
            plan.set(&label, spec);
        }
    }
    Some(plan)
}

/// Poll `probe` until it yields or `deadline` passes, pacing the waits in
/// between (the setup-time waits: directory, bulletin, reader attach).
pub(crate) async fn poll_until<T>(
    deadline: Instant,
    mut probe: impl FnMut() -> Option<T>,
) -> Option<T> {
    let mut pacing = flexio_reactor::Pacing::new();
    loop {
        if let Some(found) = probe() {
            return Some(found);
        }
        if Instant::now() >= deadline {
            return None;
        }
        pacing.pause(Some(deadline)).await;
    }
}

/// Identifies one directed channel within a stream's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelId {
    /// Data: writer rank → reader rank.
    Data {
        /// Writer rank.
        w: usize,
        /// Reader rank.
        r: usize,
    },
    /// Acks: reader rank → writer rank.
    Ack {
        /// Writer rank.
        w: usize,
        /// Reader rank.
        r: usize,
    },
    /// Coordinator control, writer coord → reader coord.
    ControlToReader,
    /// Coordinator control, reader coord → writer coord.
    ControlToWriter,
    /// Side channel within the writer program: rank ↔ coordinator.
    WriterSide {
        /// Rank.
        rank: usize,
        /// Direction: true = rank→coordinator.
        up: bool,
    },
    /// Side channel within the reader program: rank ↔ coordinator.
    ReaderSide {
        /// Rank.
        rank: usize,
        /// Direction: true = rank→coordinator.
        up: bool,
    },
    /// Monitoring relay: writer coordinator → reader coordinator. Off the
    /// data path; discovered through the directory like every other
    /// channel of the link.
    Monitor,
}

impl ChannelId {
    /// Stable human-readable label, the key fault plans target channels by
    /// (and the seed domain for per-channel fault RNG streams).
    pub fn label(&self) -> String {
        match self {
            ChannelId::Data { w, r } => format!("data:{w}->{r}"),
            ChannelId::Ack { w, r } => format!("ack:{r}->{w}"),
            ChannelId::ControlToReader => "ctrl:w2r".to_string(),
            ChannelId::ControlToWriter => "ctrl:r2w".to_string(),
            ChannelId::WriterSide { rank, up } => {
                format!("wside:{rank}:{}", if *up { "up" } else { "down" })
            }
            ChannelId::ReaderSide { rank, up } => {
                format!("rside:{rank}:{}", if *up { "up" } else { "down" })
            }
            ChannelId::Monitor => "mon:w2r".to_string(),
        }
    }
}

// ----------------------------------------------------------- seq framing

/// Out-of-order messages buffered before giving up on a gap (writing the
/// missing sequence numbers off as dropped).
const GAP_SKIP_THRESHOLD: usize = 4;

/// Sender half of the sequence-framing layer installed when a fault plan
/// is active: prepends a little-endian `u64` sequence number so the
/// receiving [`SeqReceiver`] can discard duplicates, heal reorders and
/// observe drops. Not installed on fault-free streams — the framing byte
/// cost and counters stay out of the default path.
struct SeqSender {
    inner: BoxedSender,
    next: u64,
}

impl EvSender for SeqSender {
    fn send(&mut self, payload: &[u8]) {
        self.send_vectored(&[payload]);
    }

    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // The sequence header rides as one more leading segment, so a
        // scatter-gather send stays scatter-gather through this layer.
        let header = self.next.to_le_bytes();
        let mut framed: Vec<&[u8]> = Vec::with_capacity(segments.len() + 1);
        framed.push(&header);
        framed.extend_from_slice(segments);
        self.next += 1;
        self.inner.send_vectored(&framed);
    }

    fn transport_name(&self) -> &'static str {
        self.inner.transport_name()
    }
}

/// Receiver half of the sequence-framing layer: delivers payloads in
/// sequence order, deduplicating repeats (`dup_msgs`), buffering and
/// re-sorting early arrivals (`reorder_healed`) and skipping over gaps
/// once [`GAP_SKIP_THRESHOLD`] later messages have piled up
/// (`drops_observed`).
struct SeqReceiver {
    inner: BoxedReceiver,
    next: u64,
    early: BTreeMap<u64, Lease>,
    counters: Arc<ProtocolCounters>,
}

impl EvReceiver for SeqReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        loop {
            if let Some(msg) = self.early.remove(&self.next) {
                self.next += 1;
                self.counters.bump(&self.counters.reorder_healed);
                return RecvPoll::Msg(msg);
            }
            let mut framed = match self.inner.poll_lease() {
                RecvPoll::Msg(framed) => framed,
                RecvPoll::Empty => return RecvPoll::Empty,
                RecvPoll::Corrupt(reason) => return RecvPoll::Corrupt(reason),
                RecvPoll::Closed => {
                    if self.early.is_empty() {
                        return RecvPoll::Closed;
                    }
                    // The wire is done but the reorder buffer still holds
                    // early arrivals: the missing predecessors can never
                    // come, so write the gap off as drops (same accounting
                    // as the threshold path) and drain what survived.
                    let lowest = *self.early.keys().next().expect("early set non-empty");
                    for _ in self.next..lowest {
                        self.counters.bump(&self.counters.drops_observed);
                    }
                    self.next = lowest;
                    continue;
                }
            };
            if framed.len() < 8 {
                // Not ours; a fault layer cannot shrink frames below the
                // header we added, so treat it as garbage and move on.
                self.counters.bump(&self.counters.drops_observed);
                continue;
            }
            let seq = u64::from_le_bytes(framed[..8].try_into().unwrap());
            // The payload is the same buffer past the header, not a copy.
            framed.skip(8);
            let payload = framed;
            if seq < self.next {
                self.counters.bump(&self.counters.dup_msgs);
                continue;
            }
            if seq == self.next {
                self.next += 1;
                return RecvPoll::Msg(payload);
            }
            if self.early.insert(seq, payload).is_some() {
                // A duplicate of a message still parked in the reorder
                // buffer: same dedup as the `seq < next` path.
                self.counters.bump(&self.counters.dup_msgs);
            }
            if self.early.len() >= GAP_SKIP_THRESHOLD {
                let lowest = *self.early.keys().next().expect("early set non-empty");
                for _ in self.next..lowest {
                    self.counters.bump(&self.counters.drops_observed);
                }
                self.next = lowest;
            }
        }
    }
}

enum ParkedHalf {
    Sender(BoxedSender),
    Receiver(BoxedReceiver),
}

struct Halves {
    parked: HashMap<ChannelId, ParkedHalf>,
}

/// Shared state of one stream's link between the two programs. Created by
/// the writer coordinator, found by the reader coordinator through the
/// [`Directory`].
pub struct LinkState {
    /// Writer rank count.
    pub writer_count: usize,
    /// Writer rank core placements (index = rank).
    pub writer_cores: Vec<CoreLocation>,
    reader_info: Mutex<Option<(usize, Vec<CoreLocation>)>>,
    reader_ready: Condvar,
    halves: Mutex<Halves>,
    half_ready: Condvar,
    net: Option<NetSim>,
    /// Protocol counters shared by both sides.
    pub counters: Arc<ProtocolCounters>,
    /// Performance monitor shared by both sides.
    pub monitor: PerfMonitor,
    hints_queue_entries: usize,
    hints_inline_capacity: usize,
    hints_transport: Transport,
    hints_net_max_frame: u32,
    /// Fault schedule installed on channels (from the writer's hints);
    /// shared so both sides observe one deterministic plan.
    faults: Option<Arc<FaultPlan>>,
    /// Reader ranks written off after repeated ack timeouts. The writer
    /// plans later steps around them; they never receive data again.
    evicted: Mutex<HashSet<usize>>,
    /// Cross-process channel factory. When set, this link half lives in
    /// its own OS process: channels are real sockets dialed through the
    /// fabric instead of halves parked in shared memory.
    fabric: Option<Arc<crate::procnet::ProcFabric>>,
    /// Subsystem payload riding the directory registration: the pub/sub
    /// layer attaches its [`crate::pubsub::StreamLog`] here so reader
    /// groups discover the log through the same [`DirectoryService`]
    /// lookup that resolves stream contacts.
    attachment: Mutex<Option<Arc<dyn std::any::Any + Send + Sync>>>,
}

impl LinkState {
    pub(crate) fn new(
        writer_count: usize,
        writer_cores: Vec<CoreLocation>,
        net: Option<NetSim>,
        hints: &StreamHints,
    ) -> Arc<LinkState> {
        Arc::new(LinkState {
            writer_count,
            writer_cores,
            reader_info: Mutex::new(None),
            reader_ready: Condvar::new(),
            halves: Mutex::new(Halves { parked: HashMap::new() }),
            half_ready: Condvar::new(),
            net,
            counters: ProtocolCounters::new_shared(),
            monitor: PerfMonitor::new(),
            hints_queue_entries: hints.queue_entries,
            hints_inline_capacity: hints.inline_capacity,
            hints_transport: hints.transport,
            hints_net_max_frame: hints.net_max_frame,
            faults: hints.faults.clone(),
            evicted: Mutex::new(HashSet::new()),
            fabric: None,
            attachment: Mutex::new(None),
        })
    }

    /// A link half for a rank process of a cross-process coupling: every
    /// channel is a socket made by `fabric`, so this process never parks
    /// transport halves for a peer (there is no shared address space to
    /// park them in).
    pub(crate) fn new_remote(
        writer_count: usize,
        writer_cores: Vec<CoreLocation>,
        hints: &StreamHints,
        fabric: Arc<crate::procnet::ProcFabric>,
    ) -> Arc<LinkState> {
        Arc::new(LinkState {
            writer_count,
            writer_cores,
            reader_info: Mutex::new(None),
            reader_ready: Condvar::new(),
            halves: Mutex::new(Halves { parked: HashMap::new() }),
            half_ready: Condvar::new(),
            net: None,
            counters: ProtocolCounters::new_shared(),
            monitor: PerfMonitor::new(),
            hints_queue_entries: hints.queue_entries,
            hints_inline_capacity: hints.inline_capacity,
            hints_transport: hints.transport,
            hints_net_max_frame: hints.net_max_frame,
            faults: hints.faults.clone(),
            evicted: Mutex::new(HashSet::new()),
            fabric: Some(fabric),
            attachment: Mutex::new(None),
        })
    }

    /// Minimal link for unit tests.
    pub fn for_tests() -> Arc<LinkState> {
        LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            None,
            &StreamHints::default(),
        )
    }

    /// Attach a subsystem payload to this link (see the `attachment`
    /// field). Last write wins.
    pub fn set_attachment(&self, payload: Arc<dyn std::any::Any + Send + Sync>) {
        *self.attachment.lock() = Some(payload);
    }

    /// Downcast the attached payload, if any.
    pub fn attachment<T: std::any::Any + Send + Sync>(&self) -> Option<Arc<T>> {
        self.attachment.lock().clone().and_then(|a| a.downcast::<T>().ok())
    }

    /// The reader coordinator announces its side.
    pub fn set_reader_info(&self, count: usize, cores: Vec<CoreLocation>) {
        let mut ri = self.reader_info.lock();
        assert!(ri.is_none(), "reader already attached to this stream");
        *ri = Some((count, cores));
        self.reader_ready.notify_all();
    }

    /// Non-blocking peek at the reader side's attachment (the reactor's
    /// poll-driven analogue of [`Self::wait_reader_info`]).
    pub fn try_reader_info(&self) -> Option<(usize, Vec<CoreLocation>)> {
        self.reader_info.lock().clone()
    }

    /// Wait until the reader side has attached; returns `(count, cores)`.
    pub fn wait_reader_info(&self, timeout: Duration) -> Option<(usize, Vec<CoreLocation>)> {
        let mut ri = self.reader_info.lock();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(info) = ri.clone() {
                return Some(info);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.reader_ready.wait_for(&mut ri, deadline - now);
        }
    }

    fn endpoints_of(&self, id: ChannelId) -> (CoreLocation, CoreLocation) {
        let reader_cores =
            || self.reader_info.lock().clone().expect("reader info needed for channel placement").1;
        match id {
            ChannelId::Data { w, r } => (self.writer_cores[w], reader_cores()[r]),
            ChannelId::Ack { w, r } => (reader_cores()[r], self.writer_cores[w]),
            ChannelId::ControlToReader => (self.writer_cores[0], reader_cores()[0]),
            ChannelId::ControlToWriter => (reader_cores()[0], self.writer_cores[0]),
            ChannelId::WriterSide { rank, up } => {
                let (a, b) = (self.writer_cores[rank], self.writer_cores[0]);
                if up {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            ChannelId::ReaderSide { rank, up } => {
                let cores = reader_cores();
                let (a, b) = (cores[rank], cores[0]);
                if up {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            ChannelId::Monitor => (self.writer_cores[0], reader_cores()[0]),
        }
    }

    /// Build the right transport for a channel given its endpoints'
    /// placement: shared memory on-node, RDMA across nodes, in-proc when
    /// both endpoints are the *same core* (inline placement). An explicit
    /// `transport` hint (or `FLEXIO_TRANSPORT`) overrides placement and
    /// forces every channel onto one backend.
    fn make_transport(&self, src: CoreLocation, dst: CoreLocation) -> (BoxedSender, BoxedReceiver) {
        match self.hints_transport {
            Transport::Auto => {}
            Transport::Shm => {
                return ShmTransport::pair(self.hints_queue_entries, self.hints_inline_capacity)
            }
            Transport::Tcp | Transport::Uds => {
                let kind = if self.hints_transport == Transport::Tcp {
                    evpath::SocketKind::Tcp
                } else {
                    evpath::SocketKind::Uds
                };
                let (tx, rx) = evpath::socket::raw_socket_pair(kind);
                let mut receiver = evpath::SocketReceiver::over(rx);
                receiver.set_max_frame(self.hints_net_max_frame);
                return (evpath::sender_over(tx), Box::new(receiver));
            }
        }
        if src == dst {
            return inproc_pair();
        }
        if src.same_node(&dst) {
            return ShmTransport::pair(self.hints_queue_entries, self.hints_inline_capacity);
        }
        match &self.net {
            Some(net) => NetTransport::pair(net, src.node, dst.node),
            // Without a network model (single-node tests), fall back to
            // the in-process transport.
            None => inproc_pair(),
        }
    }

    /// Claim the sending half of a channel, creating the pair on first
    /// claim and parking the other half for the peer. With a fault plan
    /// installed the half is wrapped: protocol → seq framing → fault layer
    /// → raw transport.
    pub fn claim_sender(&self, id: ChannelId) -> BoxedSender {
        let raw = if let Some(fabric) = &self.fabric {
            fabric.make_sender(id)
        } else {
            let mut halves = self.halves.lock();
            if let Some(ParkedHalf::Sender(s)) = halves.parked.remove(&id) {
                s
            } else {
                let (src, dst) = self.endpoints_of(id);
                let (tx, rx) = self.make_transport(src, dst);
                halves.parked.insert(id, ParkedHalf::Receiver(rx));
                self.half_ready.notify_all();
                tx
            }
        };
        match &self.faults {
            None => raw,
            Some(plan) => {
                Box::new(SeqSender { inner: plan.wrap_sender(&id.label(), raw), next: 0 })
            }
        }
    }

    /// Claim the receiving half of a channel (see [`Self::claim_sender`]).
    pub fn claim_receiver(&self, id: ChannelId) -> BoxedReceiver {
        let raw = if let Some(fabric) = &self.fabric {
            fabric.make_receiver(id)
        } else {
            let mut halves = self.halves.lock();
            if let Some(ParkedHalf::Receiver(r)) = halves.parked.remove(&id) {
                r
            } else {
                let (src, dst) = self.endpoints_of(id);
                let (tx, rx) = self.make_transport(src, dst);
                halves.parked.insert(id, ParkedHalf::Sender(tx));
                self.half_ready.notify_all();
                rx
            }
        };
        match &self.faults {
            None => raw,
            Some(plan) => Box::new(SeqReceiver {
                inner: plan.wrap_receiver(&id.label(), raw),
                next: 0,
                early: BTreeMap::new(),
                counters: Arc::clone(&self.counters),
            }),
        }
    }

    /// The fault plan installed on this link, if any.
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    /// Write a reader rank off as dead. Returns true on the first eviction
    /// of that rank (callers bump the eviction counter exactly once).
    pub fn evict_reader(&self, rank: usize) -> bool {
        self.evicted.lock().insert(rank)
    }

    /// Reader ranks evicted so far.
    pub fn evicted_readers(&self) -> HashSet<usize> {
        self.evicted.lock().clone()
    }

    /// Whether a reader rank has been evicted.
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.evicted.lock().contains(&rank)
    }
}

/// Receive a [`Record`] with the timeout-and-retry resiliency scheme
/// (§II.H: "the current version uses simple timeout-and-retry schemes to
/// cope with errors and failures during data movement").
///
/// Attempt `i` waits `hints.recv_timeout × 2^min(i, 3)` — exponential
/// backoff so a transiently slow peer (delay faults, long simulation
/// phases) is given progressively more slack before the stream is
/// declared dead. Every attempt after the first bumps
/// [`ProtocolCounters::retries`].
///
/// The waits between polls go through [`flexio_reactor::Pacing`]: inside
/// a reactor they yield to the event loop, so one core can hold many of
/// these receives open at once; on a plain thread they spin briefly,
/// then yield, then park in bounded sleeps, so a reader blocked across a
/// long simulation phase does not burn the very helper core the
/// placement gave it.
pub async fn recv_record_rt(
    rx: &mut BoxedReceiver,
    hints: &StreamHints,
    counters: &ProtocolCounters,
) -> Result<Record, StreamError> {
    for attempt in 0..=hints.retries {
        if attempt > 0 {
            counters.bump(&counters.retries);
        }
        let timeout = hints.recv_timeout * (1u32 << attempt.min(3));
        let deadline = Instant::now() + timeout;
        let mut pacing = flexio_reactor::Pacing::new();
        loop {
            match rx.poll_lease() {
                // Decoded against the receive buffer itself (on shm, the
                // pool slot): large array payloads come back as zero-copy
                // views that keep `bytes` leased for as long as they live.
                evpath::RecvPoll::Msg(bytes) => {
                    return Record::decode_leased(bytes)
                        .map_err(|e| StreamError::Corrupt(e.to_string()))
                }
                evpath::RecvPoll::Corrupt(reason) => {
                    // A consumed-but-invalid frame is a definite event,
                    // not a reason to retry until the budget runs out.
                    counters.bump(&counters.corrupt_frames);
                    return Err(StreamError::Corrupt(format!("transport frame: {reason}")));
                }
                evpath::RecvPoll::Closed => {
                    // The peer endpoint is gone and the queue is drained:
                    // no amount of waiting produces another message, so
                    // fail the same way an exhausted retry budget would —
                    // the callers' timeout handling (EOS synthesis, reader
                    // eviction) is exactly the right degradation — just
                    // without burning the remaining budget.
                    counters.bump(&counters.closed_channels);
                    return Err(StreamError::Timeout);
                }
                evpath::RecvPoll::Empty => {}
            }
            if Instant::now() >= deadline {
                break; // retry
            }
            pacing.pause(Some(deadline)).await;
        }
    }
    Err(StreamError::Timeout)
}

/// [`recv_record_rt`] as a blocking call.
pub fn recv_record(
    rx: &mut BoxedReceiver,
    hints: &StreamHints,
    counters: &ProtocolCounters,
) -> Result<Record, StreamError> {
    drive(hints.runtime, recv_record_rt(rx, hints, counters))
}

/// Stream-layer error.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Peer did not produce a message within timeout × retries.
    Timeout,
    /// A message failed to decode.
    Corrupt(String),
    /// Protocol violation (unexpected message kind).
    Protocol(String),
    /// Directory failure at open.
    Directory(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Timeout => write!(f, "receive timed out after retries"),
            StreamError::Corrupt(m) => write!(f, "corrupt message: {m}"),
            StreamError::Protocol(m) => write!(f, "protocol violation: {m}"),
            StreamError::Directory(m) => write!(f, "directory: {m}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DirectoryError> for StreamError {
    fn from(e: DirectoryError) -> Self {
        StreamError::Directory(e.to_string())
    }
}

/// The FlexIO runtime context: directory service + interconnect model +
/// machine description. One per coupled-application deployment; clone
/// freely.
#[derive(Clone)]
pub struct FlexIo {
    directory: Arc<dyn DirectoryService>,
    net: Option<NetSim>,
    machine: Arc<MachineModel>,
    /// Program-local bulletin letting non-coordinator ranks find the link
    /// their coordinator opened (the directory itself stays
    /// coordinator-only, as in the paper).
    bulletin: Arc<Mutex<HashMap<String, Arc<LinkState>>>>,
}

impl FlexIo {
    /// Build a runtime for `machine`, with an RDMA fabric spanning
    /// `active_nodes` compute nodes.
    pub fn new(machine: MachineModel, active_nodes: usize) -> FlexIo {
        let net = NetSim::new(machine.interconnect, active_nodes.max(1));
        FlexIo {
            directory: Arc::new(InProcDirectory::new()),
            net: Some(net),
            machine: Arc::new(machine),
            bulletin: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Single-node runtime (no interconnect model) for tests and
    /// helper-core/inline-only deployments.
    pub fn single_node(machine: MachineModel) -> FlexIo {
        FlexIo {
            directory: Arc::new(InProcDirectory::new()),
            net: None,
            machine: Arc::new(machine),
            bulletin: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Swap the connection-management backend (default:
    /// [`InProcDirectory`]) for any other [`DirectoryService`] — a
    /// [`crate::directory::ShardedDirectory`], a handle onto a
    /// gossip-replicated [`crate::directory::DirectoryCluster`], or a
    /// test double. Builder-style: `FlexIo::new(...).with_directory(d)`.
    pub fn with_directory(mut self, directory: Arc<dyn DirectoryService>) -> FlexIo {
        self.directory = directory;
        self
    }

    /// The directory service handle.
    pub fn directory(&self) -> &Arc<dyn DirectoryService> {
        &self.directory
    }

    /// The machine model.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Open the writer side of stream `name` from one writer rank, as a
    /// blocking call (see [`Self::open_writer_rt`]).
    pub fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamWriter, StreamError> {
        drive(hints.runtime, self.open_writer_rt(name, rank, nranks, core, all_cores, hints))
    }

    /// Open the writer side of stream `name` from one writer rank.
    /// Rank 0 acts as coordinator: it creates the link and registers it.
    /// Every rank passes its own `core` placement and the total count.
    /// The one wait (the non-coordinator bulletin wait) is an `.await`.
    pub async fn open_writer_rt(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamWriter, StreamError> {
        assert_eq!(all_cores.len(), nranks);
        assert_eq!(all_cores[rank], core, "rank's own core must match the roster");
        let link = if rank == 0 {
            let link = LinkState::new(nranks, all_cores, self.net.clone(), &hints);
            self.directory.register(name, Arc::clone(&link))?;
            self.post_bulletin(&format!("w:{name}"), Arc::clone(&link));
            link
        } else {
            self.bulletin(&format!("w:{name}"), hints.recv_timeout)
                .await
                .ok_or(StreamError::Timeout)?
        };
        Ok(StreamWriter::new(link, rank, nranks, name.to_string(), hints))
    }

    /// Open the reader side of stream `name` from one reader rank, as a
    /// blocking call (see [`Self::open_reader_rt`]).
    pub fn open_reader(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamReader, StreamError> {
        drive(hints.runtime, self.open_reader_rt(name, rank, nranks, core, all_cores, hints))
    }

    /// Open the reader side of stream `name` from one reader rank.
    /// Rank 0 acts as coordinator: it looks the stream up in the
    /// directory and attaches the reader side. The directory lookup, the
    /// scheduled directory stall and the non-coordinator bulletin wait are
    /// `.await`s, so one reactor thread can open many streams concurrently.
    pub async fn open_reader_rt(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        core: CoreLocation,
        all_cores: Vec<CoreLocation>,
        hints: StreamHints,
    ) -> Result<StreamReader, StreamError> {
        assert_eq!(all_cores.len(), nranks);
        assert_eq!(all_cores[rank], core, "rank's own core must match the roster");
        let link = if rank == 0 {
            // A fault plan may schedule a directory stall: the lookup
            // budget shrinks by the stall, exactly as if the directory
            // server were slow to respond.
            let mut budget = hints.recv_timeout;
            if let Some(plan) = &hints.faults {
                if let Some(stall) = plan.spec_for("dir").stall {
                    plan.note_stall();
                    flexio_reactor::sleep(stall).await;
                    budget = budget.saturating_sub(stall);
                }
            }
            let link = poll_until(Instant::now() + budget, || self.directory.try_lookup(name))
                .await
                .ok_or_else(|| DirectoryError::LookupTimeout(name.to_string()))?;
            link.set_reader_info(nranks, all_cores);
            self.post_bulletin(&format!("r:{name}"), Arc::clone(&link));
            link
        } else {
            self.bulletin(&format!("r:{name}"), hints.recv_timeout)
                .await
                .ok_or(StreamError::Timeout)?
        };
        Ok(StreamReader::new(link, rank, nranks, name.to_string(), hints))
    }

    pub(crate) fn post_bulletin(&self, key: &str, link: Arc<LinkState>) {
        self.bulletin.lock().insert(key.to_string(), link);
    }

    /// [`Self::bulletin`] as a blocking call on the calling thread.
    pub(crate) fn wait_bulletin(&self, key: &str, timeout: Duration) -> Option<Arc<LinkState>> {
        flexio_reactor::block_inline(self.bulletin(key, timeout))
    }

    /// Poll the bulletin until `key` appears or `timeout` expires.
    async fn bulletin(&self, key: &str, timeout: Duration) -> Option<Arc<LinkState>> {
        poll_until(Instant::now() + timeout, || self.bulletin.lock().get(key).cloned()).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn link_with_cores() -> Arc<LinkState> {
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &StreamHints::default(),
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        link
    }

    #[test]
    fn claim_pairs_connect() {
        let link = link_with_cores();
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        tx.send(b"through the link");
        assert_eq!(rx.recv(), b"through the link");
    }

    #[test]
    fn claim_order_is_irrelevant() {
        let link = link_with_cores();
        let id = ChannelId::Ack { w: 0, r: 0 };
        let link2 = Arc::clone(&link);
        let t = thread::spawn(move || {
            let mut rx = link2.claim_receiver(id);
            rx.recv()
        });
        thread::sleep(Duration::from_millis(10));
        let mut tx = link.claim_sender(id);
        tx.send(b"late sender");
        assert_eq!(t.join().unwrap(), b"late sender");
    }

    #[test]
    fn same_core_uses_inproc_and_same_node_uses_shm() {
        let link = link_with_cores();
        // Writer rank 0 -> writer coordinator is the same core: inproc.
        let tx = link.claim_sender(ChannelId::WriterSide { rank: 0, up: true });
        assert_eq!(tx.transport_name(), "inproc");
        // Writer 1 (node0/numa0) -> reader 0 (node0/numa1): shared memory.
        let tx = link.claim_sender(ChannelId::Data { w: 1, r: 0 });
        assert_eq!(tx.transport_name(), "shm");
    }

    #[test]
    fn cross_node_uses_rdma() {
        let link = LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            Some(NetSim::new(machine::InterconnectParams::gemini(), 2)),
            &StreamHints::default(),
        );
        link.set_reader_info(1, vec![CoreLocation { node: 1, numa: 0, core: 0 }]);
        let tx = link.claim_sender(ChannelId::Data { w: 0, r: 0 });
        assert_eq!(tx.transport_name(), "rdma");
    }

    #[test]
    fn wait_reader_info_blocks_and_delivers() {
        let link = LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            None,
            &StreamHints::default(),
        );
        let l2 = Arc::clone(&link);
        let t = thread::spawn(move || l2.wait_reader_info(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        link.set_reader_info(3, vec![CoreLocation { node: 0, numa: 0, core: 1 }; 3]);
        let (count, cores) = t.join().unwrap().unwrap();
        assert_eq!(count, 3);
        assert_eq!(cores.len(), 3);
    }

    #[test]
    fn recv_record_times_out_and_counts_retries() {
        let (_tx, mut rx) = inproc_pair();
        let hints = StreamHints {
            recv_timeout: Duration::from_millis(5),
            retries: 2,
            ..Default::default()
        };
        let counters = ProtocolCounters::new_shared();
        let err = recv_record(&mut rx, &hints, &counters);
        assert_eq!(err, Err(StreamError::Timeout));
        assert_eq!(counters.resilience_snapshot().0, 2, "one bump per retry attempt");
    }

    #[test]
    fn recv_record_backs_off_exponentially() {
        // 3 retries at 5ms base: 5 + 10 + 20 + 40 = 75ms minimum.
        let (_tx, mut rx) = inproc_pair();
        let hints = StreamHints {
            recv_timeout: Duration::from_millis(5),
            retries: 3,
            ..Default::default()
        };
        let counters = ProtocolCounters::new_shared();
        let start = Instant::now();
        let err = recv_record(&mut rx, &hints, &counters);
        assert_eq!(err, Err(StreamError::Timeout));
        assert!(
            start.elapsed() >= Duration::from_millis(75),
            "attempts must back off, not retry at a fixed pace (took {:?})",
            start.elapsed()
        );
    }

    #[test]
    fn hints_from_config() {
        let cfg = adios::IoConfig::from_xml(
            r#"<adios-config><group name="g"><method transport="STREAM">
               <hint name="caching" value="CACHING_ALL"/>
               <hint name="batching" value="true"/>
               <hint name="async" value="true"/>
               <hint name="queue_entries" value="256"/>
               <hint name="timeout_ms" value="1234"/>
            </method></group></adios-config>"#,
        )
        .unwrap();
        let h = StreamHints::from_config(cfg.group("g").unwrap());
        assert_eq!(h.caching, CachingLevel::CachingAll);
        assert!(h.batching);
        assert_eq!(h.write_mode, WriteMode::Async);
        assert_eq!(h.queue_entries, 256);
        assert_eq!(h.recv_timeout, Duration::from_millis(1234));
        assert!(h.faults.is_none());
        assert!(!h.eos_on_silence);
    }

    #[test]
    fn fault_hints_from_config() {
        let cfg = adios::IoConfig::from_xml(
            r#"<adios-config><group name="g"><method transport="STREAM">
               <hint name="fault.seed" value="99"/>
               <hint name="fault.default.delay_ms" value="7"/>
               <hint name="fault.default.delay_pm" value="50"/>
               <hint name="fault.data.drop_pm" value="120"/>
               <hint name="fault.ctrl:w2r.crash_sender_after" value="3"/>
               <hint name="fault.dir.stall_ms" value="25"/>
               <hint name="eos_on_silence" value="true"/>
            </method></group></adios-config>"#,
        )
        .unwrap();
        let h = StreamHints::from_config(cfg.group("g").unwrap());
        assert!(h.eos_on_silence);
        let plan = h.faults.expect("fault.seed must enable a plan");
        assert_eq!(plan.seed(), 99);
        assert_eq!(plan.spec_for("data:1->0").drop_per_mille, 120);
        assert_eq!(plan.spec_for("ctrl:w2r").crash_sender_after, Some(3));
        assert_eq!(plan.spec_for("dir").stall, Some(Duration::from_millis(25)));
        let dflt = plan.spec_for("ack:0->0");
        assert_eq!(dflt.delay, Duration::from_millis(7));
        assert_eq!(dflt.delay_per_mille, 50);
    }

    #[test]
    fn seq_framing_heals_reorder_and_discards_duplicates() {
        let mut plan = FaultPlan::new(21);
        plan.set(
            "data",
            FaultSpec { reorder_per_mille: 400, dup_per_mille: 400, ..Default::default() },
        );
        // Deep queue: these tests send everything before draining, which
        // would deadlock against the bounded shm queue's backpressure.
        let hints =
            StreamHints { faults: Some(Arc::new(plan)), queue_entries: 4096, ..Default::default() };
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &hints,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        for i in 0u64..100 {
            tx.send(&i.to_le_bytes());
        }
        drop(tx); // flush any message held back by a reorder fault
                  // Despite duplication and pairwise swaps on the wire, the seq layer
                  // delivers the exact original sequence.
        for i in 0u64..100 {
            let got = rx.recv();
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), i);
        }
        let (_retries, dups, healed, drops, ..) = link.counters.resilience_snapshot();
        assert!(dups > 0, "duplication faults must have fired");
        assert!(healed > 0, "reorder faults must have been healed");
        assert_eq!(drops, 0, "nothing was dropped");
    }

    #[test]
    fn seq_framing_skips_gaps_from_drops() {
        let mut plan = FaultPlan::new(3);
        plan.set("data", FaultSpec { drop_per_mille: 250, ..Default::default() });
        // Deep queue: these tests send everything before draining, which
        // would deadlock against the bounded shm queue's backpressure.
        let hints =
            StreamHints { faults: Some(Arc::new(plan)), queue_entries: 4096, ..Default::default() };
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &hints,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        for i in 0u64..200 {
            tx.send(&i.to_le_bytes());
        }
        let mut got = Vec::new();
        while let Some(m) = rx.try_recv() {
            got.push(u64::from_le_bytes(m[..8].try_into().unwrap()));
        }
        // Survivors arrive in order, and once enough later messages pile
        // up the receiver writes the gap off as drops rather than stalling.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(got, sorted, "sequence order must be preserved");
        assert!(got.len() < 200, "a 25% drop rate must lose messages");
        let (_retries, _dups, _healed, drops, ..) = link.counters.resilience_snapshot();
        assert!(drops > 0, "skipped gaps must be counted as observed drops");
    }
}
