//! The consumer side: a [`ReaderGroup`] is an [`adios::ReadEngine`]
//! whose steps come off a [`StreamLog`] cursor (same process) or a
//! [`SpillTail`] (another process, through the durable spill files),
//! with memory → spill → live-tail transitions invisible to the caller.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use adios::{ReadEngine, Selection, StepStatus, VarValue};

use super::log::{Fetch, SealedStep, StreamLog};
use super::spill::SpillTail;
use super::{GroupCounters, Qos};
use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::retry_rt;
use crate::task::{driven, LoopHandle};

enum Source {
    /// Cursor into an in-process [`StreamLog`].
    Local(Arc<StreamLog>),
    /// Cross-process tail over the spill directory.
    Tail(Box<SpillTail>),
}

/// One named reader group: an independent cursor over a pub/sub stream
/// with its own QoS and counters. Implements [`ReadEngine`], so any
/// analytics loop written against the ADIOS step API consumes a fan-out
/// stream unchanged.
pub struct ReaderGroup {
    source: Source,
    group: String,
    /// Receive timeout, retry budget and `eos_on_silence`.
    hints: StreamHints,
    current: Option<Arc<SealedStep>>,
    counters: Arc<GroupCounters>,
    closed: bool,
}

impl ReaderGroup {
    /// Attach `group` to an in-process log, registering (or resuming)
    /// its cursor.
    pub fn attach(
        log: Arc<StreamLog>,
        group: &str,
        qos: Option<Qos>,
        hints: &StreamHints,
    ) -> Result<ReaderGroup, StreamError> {
        let (counters, _cursor) = log.register_group(group, qos);
        Ok(ReaderGroup {
            source: Source::Local(log),
            group: group.to_string(),
            hints: hints.clone(),
            current: None,
            counters,
            closed: false,
        })
    }

    /// Attach `group` to the spill directory of `stream` under `root` —
    /// the cross-process path a late joiner or a restarted (`kill -9`)
    /// group takes; it resumes from its durable cursor.
    pub fn tail(
        root: &std::path::Path,
        stream: &str,
        group: &str,
        qos: Qos,
        hints: &StreamHints,
    ) -> Result<ReaderGroup, StreamError> {
        let tail = SpillTail::attach(root, stream, group, qos)?;
        let counters = tail.counters();
        Ok(ReaderGroup {
            source: Source::Tail(Box::new(tail)),
            group: group.to_string(),
            hints: hints.clone(),
            current: None,
            counters,
            closed: false,
        })
    }

    /// This group's shared delivery counters.
    pub fn counters(&self) -> Arc<GroupCounters> {
        Arc::clone(&self.counters)
    }

    /// Group name.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// One non-blocking poll of the cursor.
    fn poll(&mut self) -> Result<Fetch, StreamError> {
        match &mut self.source {
            Source::Local(log) => log.try_fetch(&self.group),
            Source::Tail(tail) => tail.try_fetch(),
        }
    }

    fn take_step(&mut self, fetch: Fetch) -> Option<StepStatus> {
        let sealed = match fetch {
            Fetch::Step(s) | Fetch::Spilled(s) | Fetch::Skipped { step: s, .. } => s,
            Fetch::Eos { .. } => return Some(StepStatus::EndOfStream),
            Fetch::Pending => return None,
        };
        let step = sealed.step;
        self.current = Some(sealed);
        Some(StepStatus::Step(step))
    }

    /// [`Self::try_begin_step_rt`] as a blocking call on the calling
    /// thread.
    pub fn try_begin_step(&mut self) -> Result<StepStatus, StreamError> {
        flexio_reactor::block_inline(self.try_begin_step_rt())
    }

    /// Advance to the next step on the stream receive path's
    /// timeout-and-retry schedule ([`crate::link::recv_record_rt`]); an
    /// exhausted budget either synthesizes end-of-stream (`eos_on_silence`,
    /// the crashed-writer posture) or surfaces [`StreamError::Timeout`].
    pub async fn try_begin_step_rt(&mut self) -> Result<StepStatus, StreamError> {
        assert!(self.current.is_none(), "begin_step without end_step");
        let (timeout, retries) = (self.hints.recv_timeout, self.hints.retries);
        let probe = |group: &mut Self| match group.poll() {
            Ok(fetch) => group.take_step(fetch).map(Ok),
            Err(e) => Some(Err(e)),
        };
        match retry_rt(timeout, retries, || {}, self, probe, |_, _| false).await {
            Some(status) => status,
            None if self.hints.eos_on_silence => {
                self.counters.eos_synthesized.fetch_add(1, Ordering::Relaxed);
                Ok(StepStatus::EndOfStream)
            }
            None => Err(StreamError::Timeout),
        }
    }

    /// Digest of the step currently open (None outside a step). The
    /// fan-out equivalence tests compare these across groups, backends
    /// and replay sources.
    pub fn current_step_digest(&self) -> Option<u64> {
        self.current.as_ref().map(|s| s.digest())
    }

    fn commit(&mut self, next: u64) {
        match &mut self.source {
            Source::Local(log) => log.commit(&self.group, next),
            Source::Tail(tail) => tail.commit(next),
        }
    }

    /// Convert into a delivery task, a step-driven loop
    /// ([`crate::task`]) that drains the stream to end-of-stream,
    /// committing after every step — the unit
    /// [`crate::FleetRuntime::spawn_for`] places near the consuming
    /// analytics. A round delivers one step and publishes its `(step,
    /// digest)`; the output is every pair delivered, or the error that
    /// stopped delivery. The group is closed either way. Take
    /// [`Self::counters`] first to read them while it runs.
    pub fn into_task(
        self,
    ) -> (
        LoopHandle<(u64, u64), Result<Vec<(u64, u64)>, StreamError>>,
        impl std::future::Future<Output = ()> + Send,
    ) {
        let round = |(mut group, mut trace): (ReaderGroup, Vec<_>)| async move {
            match group.try_begin_step_rt().await {
                Ok(StepStatus::Step(step)) => {
                    let delivered =
                        (step, group.current_step_digest().expect("open step has a digest"));
                    trace.push(delivered);
                    group.end_step();
                    Ok(((group, trace), Some(delivered), false))
                }
                Ok(StepStatus::EndOfStream) => Ok(((group, trace), None, true)),
                Err(e) => {
                    group.close();
                    Err(Err(e))
                }
            }
        };
        driven((self, Vec::new()), round, |(mut group, trace)| {
            group.close();
            Ok(trace)
        })
    }
}

impl ReadEngine for ReaderGroup {
    fn begin_step(&mut self) -> StepStatus {
        self.try_begin_step().expect("pub/sub step fetch failed")
    }

    fn read(&mut self, name: &str, sel: &Selection) -> Option<VarValue> {
        let sealed = self.current.as_ref().expect("read outside begin_step/end_step");
        adios::select(sealed.groups.iter().filter_map(|g| Some((g.rank, g.get(name)?))), sel)
    }

    fn end_step(&mut self) {
        let sealed = self.current.take().expect("end_step without begin_step");
        self.commit(sealed.seq + 1);
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.current = None;
        if let Source::Local(log) = &self.source {
            log.detach(&self.group);
        }
    }
}
