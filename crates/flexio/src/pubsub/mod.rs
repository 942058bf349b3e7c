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
//! publisher registers `pubsub:<stream>` once, its contact
//! [`crate::link::LinkState`] carrying the log, so any backend (in-proc,
//! sharded, gossip-replicated) serves pub/sub discovery unchanged. Groups
//! register nothing: each one's counters live in the log beside its
//! cursor, where [`FlexIo::lookup_group_counters`] finds them while the
//! group is attached. Delivery runs as reactor/fleet tasks via
//! [`ReaderGroup::into_task`] (a fleet places the future with
//! [`crate::FleetRuntime::spawn_for`]). Delivery and spill are counted in
//! the log's `PubSubCounters` and each group's `GroupCounters`.

mod group;
mod log;
mod spill;

pub use group::ReaderGroup;
pub use log::{Fetch, SealedStep, StepPublisher, StreamLog};
pub use spill::{SpillStore, SpillTail};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adios::ProcessGroup;
use evpath::{fnv1a64, FNV_OFFSET};
use machine::CoreLocation;

use crate::context::{FlexIo, StreamError};
use crate::hints::StreamHints;
use crate::link::{poll_until, LinkState};

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

/// Deterministic digest of one sealed step's content: the byte-identity
/// probe the fan-out equivalence tests compare across groups, backends
/// and replay sources (memory vs spill).
pub fn step_digest(step: u64, groups: &[ProcessGroup]) -> u64 {
    groups.iter().fold(fnv1a64(FNV_OFFSET, &step.to_le_bytes()), |h, g| fnv1a64(h, &g.encode()))
}

/// Per-group delivery counters, kept by the log beside the group's cursor
/// (the pub/sub analogue of [`crate::ProtocolCounters`]).
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
    /// rank. Rank 0 creates the [`StreamLog`], sets it on the contact and
    /// registers `pubsub:<name>` through the directory service; other
    /// ranks join through the program bulletin exactly like
    /// [`FlexIo::open_writer`].
    pub fn open_publisher(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        cfg: &PubSubConfig,
        hints: StreamHints,
    ) -> Result<StepPublisher, StreamError> {
        let log = if rank == 0 {
            let cores: Vec<CoreLocation> = (0..nranks)
                .map(|r| self.machine().node.location_of(r % self.machine().node.cores_per_node()))
                .collect();
            let link = LinkState::new(nranks, cores, None, &hints, None);
            let log = StreamLog::new(name, nranks, cfg)?;
            let _ = link.pubsub_log.set(Arc::clone(&log));
            self.directory().register(&format!("pubsub:{name}"), Arc::clone(&link))?;
            self.post_bulletin(&format!("p:{name}"), link);
            log
        } else {
            let link = self
                .wait_bulletin(&format!("p:{name}"), hints.recv_timeout)
                .ok_or(StreamError::Timeout)?;
            stream_log(&link, name)?
        };
        Ok(StepPublisher::new(log, rank, hints))
    }

    /// Attach a reader group to pub/sub stream `stream`: look the log up
    /// through the directory service and register (or resume) the group's
    /// cursor in it, from the group's durable cursor when one is retained.
    /// The stream's one directory entry serves every group.
    pub fn open_reader_group(
        &self,
        stream: &str,
        group: &str,
        qos: Option<Qos>,
        hints: StreamHints,
    ) -> Result<ReaderGroup, StreamError> {
        let link = self.directory().lookup(&format!("pubsub:{stream}"), hints.recv_timeout)?;
        ReaderGroup::attach(stream_log(&link, stream)?, group, qos, &hints)
    }

    /// Discover a reader group's live counters through the directory — a
    /// monitor/manager observing fan-out health uses this exactly like
    /// [`crate::MonitorSink::for_stream`] discovers streams. Waits up to
    /// `timeout` for the stream and then for the group to attach; fails
    /// once the group has closed.
    pub fn lookup_group_counters(
        &self,
        stream: &str,
        group: &str,
        timeout: Duration,
    ) -> Result<Arc<GroupCounters>, StreamError> {
        let deadline = Instant::now() + timeout;
        let link = self.directory().lookup(&format!("pubsub:{stream}"), timeout)?;
        let log = stream_log(&link, stream)?;
        let attached = poll_until(deadline, || log.group_counters(group));
        flexio_reactor::block_inline(attached).ok_or_else(|| {
            StreamError::Directory(format!(
                "no group `{group}` attached to pubsub:{stream} in time"
            ))
        })
    }
}

/// The log a `pubsub:<stream>` contact carries.
fn stream_log(link: &LinkState, stream: &str) -> Result<Arc<StreamLog>, StreamError> {
    link.pubsub_log.get().cloned().ok_or_else(|| {
        StreamError::Protocol(format!("pubsub:{stream} contact carries no stream log"))
    })
}
