//! Per-stream tuning hints: the typed vocabulary of XML `<hint>` names,
//! the [`StreamHints`] they parse into, and the byte [`Transport`] a hint
//! can select beneath every channel of a stream (paper §II.B: "to tune
//! transports, transport-specific parameters specified as hints in an XML
//! configuration file are passed to the FlexIO runtime").
//!
//! Only stream hints ride the XML config. The extension tiers (pub/sub,
//! queries, the elastic loop, directory backends) are configured by the
//! program that deploys them, through their config structs and builders.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use adios::GroupConfig;
use evpath::{FaultPlan, FaultSpec};

use crate::protocol::{CachingLevel, WriteMode};

/// The one engine driver: a blocking call is
/// `flexio_reactor::block_inline(<engine future>)`, its waits parked
/// through `flexio_reactor::Backoff`. (The `*_rt` async entry points,
/// awaited from a reactor task, let one thread multiplex many streams.)
/// Kept only as the argument of [`StreamHintsBuilder::runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The calling thread polls the engine future in place.
    Blocking,
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
            transport: default_transport(),
            net_connect_timeout: Duration::from_secs(2),
            net_max_frame: evpath::MAX_FRAME_LEN,
        }
    }
}

/// The typed vocabulary of XML `<hint>` names the runtime understands.
/// [`StreamHints::from_config`] looks hints up through this enum instead
/// of scattering string literals, so a typo'd key is a compile error (and
/// the round-trip test iterates [`HintKey::ALL`] to prove every key is
/// actually parsed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HintKey {
    /// Handshake caching level (`NO_CACHING`/`CACHING_LOCAL`/`CACHING_ALL`).
    Caching,
    /// Pack a step's chunks per receiver into one message.
    Batching,
    /// `true` = async writes, any other value = sync.
    Async,
    /// Shared-memory queue depth; values below 2 read as 2.
    QueueEntries,
    /// Shared-memory inline payload capacity in bytes; values below 32
    /// (the room a control message needs) read as 32.
    InlineCapacity,
    /// Receive timeout in milliseconds.
    TimeoutMs,
    /// Retry attempts before giving up.
    Retries,
    /// Run the 2-phase-commit step transaction protocol.
    Transactional,
    /// Synthesize end-of-stream when the writer goes silent.
    EosOnSilence,
    /// Byte transport beneath every channel (`auto`/`shm`/`tcp`/`uds`).
    TransportSel,
    /// Socket connect budget in milliseconds.
    NetConnectMs,
    /// Socket per-frame payload cap in mebibytes; a cap past
    /// `u32::MAX` bytes reads as `u32::MAX`.
    NetMaxFrameMb,
    /// Enables the `fault.*` hint family (the family's per-channel knobs
    /// are parsed by prefix, not by this enum).
    FaultSeed,
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
        HintKey::TransportSel,
        HintKey::NetConnectMs,
        HintKey::NetMaxFrameMb,
        HintKey::FaultSeed,
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
            HintKey::TransportSel => "transport",
            HintKey::NetConnectMs => "net.connect_ms",
            HintKey::NetMaxFrameMb => "net.max_frame_mb",
            HintKey::FaultSeed => "fault.seed",
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
            h.queue_entries = (q as usize).max(2);
        }
        if let Some(cap) = hint_u64(HintKey::InlineCapacity) {
            h.inline_capacity = (cap as usize).max(32);
        }
        if let Some(ms) = hint_u64(HintKey::TimeoutMs) {
            h.recv_timeout = Duration::from_millis(ms);
        }
        if let Some(r) = hint_u64(HintKey::Retries) {
            h.retries = r as u32;
        }
        h.transactional = hint_bool(HintKey::Transactional);
        h.eos_on_silence = hint_bool(HintKey::EosOnSilence);
        if let Some(t) = hint(HintKey::TransportSel).and_then(Transport::from_hint) {
            h.transport = t;
        }
        if let Some(ms) = hint_u64(HintKey::NetConnectMs) {
            h.net_connect_timeout = Duration::from_millis(ms);
        }
        if let Some(mb) = hint_u64(HintKey::NetMaxFrameMb) {
            h.net_max_frame = u32::try_from(mb.saturating_mul(1 << 20)).unwrap_or(u32::MAX);
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

    /// A no-op: there is one engine driver. Kept so the benchmark's
    /// `.runtime(Runtime::Blocking)` call still compiles.
    pub fn runtime(self, _: Runtime) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
