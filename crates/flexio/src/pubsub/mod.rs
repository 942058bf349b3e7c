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
//! [`ReaderGroup::into_task`]. Delivery and spill are counted in
//! the log's `PubSubCounters` and each group's `GroupCounters`.

mod group;
mod log;
mod spill;

pub use group::ReaderGroup;
pub use log::{Fetch, SealedStep, StepPublisher, StreamLog};
pub use spill::{SpillStore, SpillTail};

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use adios::ProcessGroup;
use evpath::{fnv1a64, FNV_OFFSET};
use machine::CoreLocation;

use crate::context::{FlexIo, StreamError};
use crate::directory::DirectoryError;
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

/// Deterministic digest of one sealed step's content: the byte-identity
/// probe the fan-out equivalence tests compare across groups, backends
/// and replay sources (memory vs spill).
pub fn step_digest(step: u64, groups: &[ProcessGroup]) -> u64 {
    groups.iter().fold(fnv1a64(FNV_OFFSET, &step.to_le_bytes()), |h, g| fnv1a64(h, &g.encode()))
}

evpath::counters! {
    /// Per-group delivery counters, kept by the log beside the group's
    /// cursor (the pub/sub analogue of [`crate::ProtocolCounters`]).
    pub struct GroupCounters => GroupSnapshot {
        /// Steps delivered to the group, from any source.
        delivered,
        /// Steps delivered out of BP spill segments rather than the ring.
        replayed_from_spill,
        /// Steps skipped by at-most-once QoS.
        dropped_by_qos,
        /// Current lag behind the log tail, in steps (gauge).
        lag_steps,
        /// The cursor this group resumed from (0 = fresh start).
        resumed_from,
        /// End-of-stream synthesized after writer silence/crash.
        eos_synthesized,
    }
}

evpath::counters! {
    /// Log-level counters.
    pub struct PubSubCounters => PubSubSnapshot {
        /// Steps sealed into the log.
        published_steps,
        /// Steps written through to BP spill segments.
        spilled_steps,
        /// Bytes written to spill segments.
        spill_bytes,
        /// Publishes that blocked on per-group backpressure.
        backpressure_waits,
    }
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
        let name = format!("pubsub:{stream}");
        // One wait over one budget: the probe resolves the stream's log
        // once, then looks for the group in it. A zero-budget `lookup`
        // (not `try_lookup`) keeps "every directory node is down" an
        // error at once rather than a timeout.
        let mut log = None;
        let found = flexio_reactor::block_inline(flexio_reactor::poll_for(timeout, || {
            if log.is_none() {
                match self.directory().lookup(&name, Duration::ZERO) {
                    Ok(link) => match stream_log(&link, stream) {
                        Ok(found) => log = Some(found),
                        Err(e) => return Some(Err(e)),
                    },
                    Err(DirectoryError::LookupTimeout(_)) => return None,
                    Err(down) => return Some(Err(down.into())),
                }
            }
            log.as_ref()?.group_counters(group).map(Ok)
        }));
        match found {
            Some(result) => result,
            None if log.is_none() => Err(DirectoryError::LookupTimeout(name).into()),
            None => Err(StreamError::Directory(format!(
                "no group `{group}` attached to pubsub:{stream} in time"
            ))),
        }
    }
}

/// The log a `pubsub:<stream>` contact carries.
fn stream_log(link: &LinkState, stream: &str) -> Result<Arc<StreamLog>, StreamError> {
    link.pubsub_log.get().cloned().ok_or_else(|| {
        StreamError::Protocol(format!("pubsub:{stream} contact carries no stream log"))
    })
}
