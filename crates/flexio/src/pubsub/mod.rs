//! Pub/sub fan-out with durable replay: one writer stream, N independent
//! reader groups, BP-spilled retention.
//!
//! The paper couples one writer to exactly one reader group. Production
//! event streams — and the file-based → streaming continuum of the
//! openPMD/ADIOS2 transition work — need a single simulation output to
//! feed many consumers that come and go at different rates. This module
//! decouples publication from consumption with a [`StreamLog`] per
//! stream:
//!
//! * the writer ranks append steps into a **bounded in-memory replay
//!   ring** (groups share each sealed step by `Arc` — fan-out to N
//!   groups copies nothing);
//! * every [`ReaderGroup`] holds an **independent cursor** with its own
//!   QoS ([`Qos::Lossless`] at-least-once vs [`Qos::LatestOnly`]
//!   at-most-once skip-to-latest) and per-group counters (lag in steps,
//!   replayed-from-spill, dropped-by-qos);
//! * when retention pressure exceeds the ring bound, cold steps live in
//!   **BP spill segments** (`adios::bp`, one container per step, written
//!   through at seal time) so late joiners and restarted groups catch up
//!   from any retained step — memory → spill → live tail, transparently;
//! * without a spill directory the slowest lossless cursor exerts real
//!   **backpressure**: the publisher blocks before evicting a step a
//!   registered group still needs;
//! * cursors of lossless groups are **durable** (checksummed file next
//!   to the spill segments, atomic rename), so a group killed mid-replay
//!   resumes where it committed;
//! * a crashed writer ([`StepPublisher::abandon`], or `kill -9` of the
//!   publishing process) leaves groups draining every retained step and
//!   then observing a synthesized end-of-stream.
//!
//! Discovery goes through the [`crate::DirectoryService`] trait: the
//! publisher registers `pubsub:<stream>` with the log attached to the
//! contact [`crate::link::LinkState`]; each group registers
//! `pubsub:<stream>#<group>` carrying its counters, so any backend
//! (in-proc, sharded, gossip-replicated) serves pub/sub discovery
//! unchanged. Delivery runs as reactor/fleet tasks via
//! [`ReaderGroup::into_task`] (a fleet places the future with
//! [`crate::FleetRuntime::spawn_for`]), with
//! [`crate::MonitorEvent::PubSubDeliver`]/[`crate::MonitorEvent::PubSubSpill`]
//! measurement points feeding the §II.G monitor.

mod group;
mod log;
mod spill;

pub use group::ReaderGroup;
pub use log::{Fetch, SealedStep, StepPublisher, StreamLog};
pub use spill::{SpillStore, SpillTail};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use adios::ProcessGroup;
use machine::CoreLocation;

use crate::context::{FlexIo, StreamError};
use crate::hints::StreamHints;
use crate::link::LinkState;

/// Per-group delivery quality of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Qos {
    /// At-least-once: every retained step is delivered in order; the
    /// group's cursor holds retention (or rides the spill) until it
    /// commits.
    #[default]
    Lossless,
    /// At-most-once: a group that falls behind skips straight to the
    /// newest sealed step; skipped steps are counted as dropped-by-qos.
    LatestOnly,
}

/// How a stream's log is deployed; the publishing program fills it in
/// and hands it to [`FlexIo::open_publisher`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubSubConfig {
    /// Expected reader-group count (observability/bench sizing; groups
    /// beyond it still attach).
    pub groups: usize,
    /// In-memory replay ring bound, in steps.
    pub replay_steps: usize,
    /// Directory for BP spill segments; `None` disables durable replay
    /// (retention then backpressures the publisher instead of spilling).
    pub spill_dir: Option<PathBuf>,
    /// Default QoS for groups that don't choose one at attach.
    pub qos: Qos,
}

impl Default for PubSubConfig {
    fn default() -> Self {
        PubSubConfig { groups: 1, replay_steps: 64, spill_dir: None, qos: Qos::Lossless }
    }
}

/// FNV-1a over bytes; the checksum/digest primitive of the module.
pub(crate) fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic digest of one sealed step's content: the byte-identity
/// probe the fan-out equivalence tests compare across groups, backends
/// and replay sources (memory vs spill).
pub fn step_digest(step: u64, groups: &[ProcessGroup]) -> u64 {
    let mut h = fnv1a64(&step.to_le_bytes(), FNV_OFFSET);
    for g in groups {
        h = fnv1a64(&g.encode(), h);
    }
    h
}

/// Per-group delivery counters, shared with the group's directory
/// registration (the pub/sub analogue of [`crate::ProtocolCounters`]).
#[derive(Debug, Default)]
pub struct GroupCounters {
    /// Steps delivered to the group, from any source.
    pub delivered: AtomicU64,
    /// Steps delivered out of BP spill segments rather than the ring.
    pub replayed_from_spill: AtomicU64,
    /// Steps skipped by at-most-once QoS.
    pub dropped_by_qos: AtomicU64,
    /// Current lag behind the log tail, in steps (gauge).
    pub lag_steps: AtomicU64,
    /// The cursor this group resumed from (0 = fresh start).
    pub resumed_from: AtomicU64,
    /// End-of-stream synthesized after writer silence/crash.
    pub eos_synthesized: AtomicU64,
}

impl GroupCounters {
    pub(crate) fn new_shared() -> Arc<GroupCounters> {
        Arc::new(GroupCounters::default())
    }

    /// `(delivered, replayed_from_spill, dropped_by_qos, lag_steps)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.delivered.load(Ordering::Relaxed),
            self.replayed_from_spill.load(Ordering::Relaxed),
            self.dropped_by_qos.load(Ordering::Relaxed),
            self.lag_steps.load(Ordering::Relaxed),
        )
    }
}

/// Log-level counters.
#[derive(Debug, Default)]
pub struct PubSubCounters {
    /// Steps sealed into the log.
    pub published_steps: AtomicU64,
    /// Steps written through to BP spill segments.
    pub spilled_steps: AtomicU64,
    /// Bytes written to spill segments.
    pub spill_bytes: AtomicU64,
    /// Publishes that blocked on per-group backpressure.
    pub backpressure_waits: AtomicU64,
    /// Whether the writer abandoned the stream (crash) instead of
    /// closing it.
    pub abandoned: AtomicBool,
}

impl FlexIo {
    /// Open the publishing side of pub/sub stream `name` from one writer
    /// rank. Rank 0 creates the [`StreamLog`] and registers
    /// `pubsub:<name>` through the directory service with the log
    /// attached to the contact; other ranks join through the program
    /// bulletin exactly like [`FlexIo::open_writer`].
    pub fn open_publisher(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        cfg: &PubSubConfig,
        hints: StreamHints,
    ) -> Result<StepPublisher, StreamError> {
        let key = format!("pubsub:{name}");
        let link = if rank == 0 {
            let cores: Vec<CoreLocation> = (0..nranks)
                .map(|r| self.machine().node.location_of(r % self.machine().node.cores_per_node()))
                .collect();
            let link = LinkState::new(nranks, cores, None, &hints, None);
            let log = StreamLog::new(name, nranks, cfg, link.monitor.clone())?;
            link.set_attachment(log);
            self.directory().register(&key, Arc::clone(&link))?;
            self.post_bulletin(&format!("p:{name}"), Arc::clone(&link));
            link
        } else {
            self.wait_bulletin(&format!("p:{name}"), hints.recv_timeout)
                .ok_or(StreamError::Timeout)?
        };
        let log = link
            .attachment::<StreamLog>()
            .ok_or_else(|| StreamError::Protocol(format!("{key} contact carries no stream log")))?;
        Ok(StepPublisher::new(log, rank, hints))
    }

    /// Attach a reader group to pub/sub stream `stream`: look the log up
    /// through the directory service, register the group's own
    /// `pubsub:<stream>#<group>` entry (carrying its counters for
    /// discovery/observation), and resume from the group's durable
    /// cursor when one is retained.
    pub fn open_reader_group(
        &self,
        stream: &str,
        group: &str,
        qos: Option<Qos>,
        hints: StreamHints,
    ) -> Result<ReaderGroup, StreamError> {
        let link = self.directory().lookup(&format!("pubsub:{stream}"), hints.recv_timeout)?;
        let log = link.attachment::<StreamLog>().ok_or_else(|| {
            StreamError::Protocol(format!("pubsub:{stream} contact carries no stream log"))
        })?;
        let reader = ReaderGroup::attach(log, group, qos, &hints)?;
        // Advertise the group. A restarted group (kill -9 never
        // unregisters) steals its stale registration.
        let gkey = format!("pubsub:{stream}#{group}");
        let glink = LinkState::new(
            1,
            vec![self.machine().node.location_of(0)],
            None,
            &StreamHints::default(),
            None,
        );
        glink.set_attachment(reader.counters());
        if self.directory().register(&gkey, Arc::clone(&glink)).is_err() {
            self.directory().unregister(&gkey);
            self.directory().register(&gkey, Arc::clone(&glink))?;
        }
        Ok(reader.with_registration(Arc::clone(self.directory()), gkey))
    }

    /// Discover a reader group's live counters through the directory — a
    /// monitor/manager observing fan-out health uses this exactly like
    /// [`crate::MonitorSink::for_stream`] discovers streams.
    pub fn lookup_group_counters(
        &self,
        stream: &str,
        group: &str,
        timeout: std::time::Duration,
    ) -> Result<Arc<GroupCounters>, StreamError> {
        let link = self.directory().lookup(&format!("pubsub:{stream}#{group}"), timeout)?;
        link.attachment::<GroupCounters>().ok_or_else(|| {
            StreamError::Protocol(format!("pubsub:{stream}#{group} carries no counters"))
        })
    }
}
