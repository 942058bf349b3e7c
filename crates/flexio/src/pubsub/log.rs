//! The per-stream [`StreamLog`]: a bounded in-memory replay ring of
//! sealed steps with write-through BP spill, plus the writer-side
//! [`StepPublisher`] engine that feeds it.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adios::{ProcessGroup, VarValue, WriteEngine};
use flexio_reactor::{block_inline, poll_for};

use super::spill::SpillStore;
use super::{step_digest, GroupCounters, PubSubConfig, PubSubCounters, Qos};
use crate::context::StreamError;
use crate::hints::StreamHints;

/// One published step, sealed once every writer rank contributed its
/// process group. Reader groups share the seal by `Arc`: fan-out to N
/// groups moves pointers, not payloads (the ring-side zero-copy
/// analogue of the packed data plane's shared receive buffers).
#[derive(Debug)]
pub struct SealedStep {
    /// Position in the log's seal order (contiguous from 0). Cursors,
    /// the ring, spill segments and durable cursors are all sequence
    /// addressed — the app's step labels need not be contiguous.
    pub seq: u64,
    /// The application's step label ([`WriteEngine::begin_step`]).
    pub step: u64,
    /// Every rank's group, ordered by rank.
    pub groups: Arc<Vec<ProcessGroup>>,
}

impl SealedStep {
    /// Deterministic content digest (see [`step_digest`]).
    pub fn digest(&self) -> u64 {
        step_digest(self.step, &self.groups)
    }
}

/// What one poll of a group's cursor produced.
#[derive(Debug)]
pub enum Fetch {
    /// The next step, served from the in-memory ring.
    Step(Arc<SealedStep>),
    /// The next step, replayed from a BP spill segment.
    Spilled(Arc<SealedStep>),
    /// At-most-once QoS skipped `dropped` stale steps straight to the
    /// newest sealed one.
    Skipped {
        /// Steps the group will never see.
        dropped: u64,
        /// The newest sealed step.
        step: Arc<SealedStep>,
    },
    /// Nothing new yet; poll again.
    Pending,
    /// No further steps will ever arrive. `clean` distinguishes an
    /// orderly close from a writer crash (every retained step was still
    /// delivered first — the drain-to-EOS invariant).
    Eos {
        /// True on orderly close, false after a writer crash.
        clean: bool,
    },
}

struct GroupEntry {
    cursor: u64,
    qos: Qos,
    counters: Arc<GroupCounters>,
    eos_counted: bool,
    /// A reader group holds this cursor open: between
    /// [`StreamLog::register_group`] and its close. Only an attached
    /// group's counters are discoverable.
    attached: bool,
}

struct LogInner {
    /// Sealed steps with sequence numbers `[mem_start, tail)`, newest at
    /// the back.
    mem: VecDeque<Arc<SealedStep>>,
    mem_start: u64,
    /// Next sequence number to seal (== sealed step count).
    tail: u64,
    /// Label of the newest sealed step, fencing stale republishes.
    last_label: Option<u64>,
    /// Partially published steps: label → groups appended so far.
    pending: HashMap<u64, Vec<ProcessGroup>>,
    /// Complete steps waiting for label-ordered sealing.
    ready: BTreeMap<u64, Vec<ProcessGroup>>,
    eos: bool,
    abandoned: bool,
    closed_ranks: usize,
    groups: HashMap<String, GroupEntry>,
}

/// The per-stream publication log. See the module docs for the design;
/// the short version: writers [`StreamLog::append_group`], reader
/// groups register a cursor and poll it, retention beyond the ring
/// bound lives in write-through BP spill (or backpressures the writer
/// when spill is disabled).
pub struct StreamLog {
    name: String,
    nranks: usize,
    replay_steps: usize,
    default_qos: Qos,
    spill: Option<SpillStore>,
    counters: PubSubCounters,
    inner: Mutex<LogInner>,
}

impl StreamLog {
    /// Create the log for `name` fed by `nranks` writer ranks.
    pub fn new(
        name: &str,
        nranks: usize,
        cfg: &PubSubConfig,
    ) -> Result<Arc<StreamLog>, StreamError> {
        assert!(nranks >= 1, "a stream needs at least one writer rank");
        let spill = match &cfg.spill_dir {
            Some(root) => Some(SpillStore::create(root, name)?),
            None => None,
        };
        Ok(Arc::new(StreamLog {
            name: name.to_string(),
            nranks,
            replay_steps: cfg.replay_steps.max(1),
            default_qos: cfg.qos,
            spill,
            counters: PubSubCounters::default(),
            inner: Mutex::new(LogInner {
                mem: VecDeque::new(),
                mem_start: 0,
                tail: 0,
                last_label: None,
                pending: HashMap::new(),
                ready: BTreeMap::new(),
                eos: false,
                abandoned: false,
                closed_ranks: 0,
                groups: HashMap::new(),
            }),
        }))
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Log-level counters.
    pub fn counters(&self) -> &PubSubCounters {
        &self.counters
    }

    /// Next sequence number to be sealed (== steps sealed so far).
    pub fn tail(&self) -> u64 {
        self.inner.lock().unwrap().tail
    }

    /// Sequence number of the oldest step still in the in-memory ring.
    pub fn mem_start(&self) -> u64 {
        self.inner.lock().unwrap().mem_start
    }

    /// One writer rank contributes its process group for a step. The
    /// step seals (becomes visible to every group, in label order) once
    /// all `nranks` groups arrived. When the ring is at its bound, the
    /// oldest step is still needed by a registered lossless cursor, and
    /// no spill is configured, the call blocks **before** accepting the
    /// group — the per-group backpressure path; on timeout the step was
    /// never published.
    pub fn append_group(&self, group: ProcessGroup, timeout: Duration) -> Result<(), StreamError> {
        let step = group.step;
        let mut waited = false;
        let admitted = block_inline(poll_for(timeout, || {
            let mut inner = self.inner.lock().unwrap();
            if inner.eos || inner.abandoned {
                return Some(Err(StreamError::Protocol("publish after close".into())));
            }
            if inner.last_label.is_some_and(|l| step <= l) {
                return Some(Err(StreamError::Protocol(format!("step {step} already sealed"))));
            }
            if self.evict(&mut inner) {
                return Some(Ok(inner));
            }
            // Backpressure: a registered lossless cursor still needs the
            // ring's oldest step. Wait for it to commit.
            if !waited {
                waited = true;
                self.counters.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            }
            None
        }));
        let mut inner = admitted.unwrap_or(Err(StreamError::Timeout))?;
        let slot = inner.pending.entry(step).or_default();
        slot.push(group);
        if slot.len() == self.nranks {
            let groups = inner.pending.remove(&step).expect("pending slot present");
            inner.ready.insert(step, groups);
        }
        self.seal_ready(&mut inner)?;
        self.evict(&mut inner);
        Ok(())
    }

    /// Seal complete steps in label order. A ready step seals only when
    /// no smaller label is still pending, so groups always observe label
    /// order; a label abandoned mid-publish (backpressure timeout) leaves
    /// no pending entry and cannot wedge the stream.
    fn seal_ready(&self, inner: &mut LogInner) -> Result<(), StreamError> {
        loop {
            let Some((&label, _)) = inner.ready.iter().next() else { break };
            if inner.pending.keys().any(|&p| p < label) {
                break;
            }
            let mut groups = inner.ready.remove(&label).expect("ready step present");
            groups.sort_by_key(|g| g.rank);
            let sealed =
                Arc::new(SealedStep { seq: inner.tail, step: label, groups: Arc::new(groups) });
            if let Some(spill) = &self.spill {
                // Write-through: the spill is a durable archive of every
                // sealed step (segment first, manifest after — a crash
                // between the two leaves the step invisible, never
                // half-visible).
                let bytes = spill.write_step(&sealed)?;
                spill.write_manifest(sealed.seq + 1, false)?;
                self.counters.spilled_steps.fetch_add(1, Ordering::Relaxed);
                self.counters.spill_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            inner.mem.push_back(sealed);
            inner.tail += 1;
            inner.last_label = Some(label);
            self.counters.published_steps.fetch_add(1, Ordering::Relaxed);
            let tail = inner.tail;
            for entry in inner.groups.values() {
                entry
                    .counters
                    .lag_steps
                    .store(tail.saturating_sub(entry.cursor), Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Drop cold steps until the ring is back under its bound. Returns
    /// false when eviction must wait on a lossless cursor (no spill).
    fn evict(&self, inner: &mut LogInner) -> bool {
        while inner.mem.len() > self.replay_steps {
            if self.spill.is_none() {
                let evicting = inner.mem_start;
                let held_back =
                    inner.groups.values().any(|e| e.qos == Qos::Lossless && e.cursor <= evicting);
                if held_back {
                    return false;
                }
            }
            inner.mem.pop_front();
            inner.mem_start += 1;
        }
        true
    }

    /// Register (or re-attach) a reader group. Returns the shared
    /// counters and the cursor the group starts from.
    pub(crate) fn register_group(&self, name: &str, qos: Option<Qos>) -> (Arc<GroupCounters>, u64) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(entry) = inner.groups.get_mut(name) {
            // Same-process re-attach: the cursor survived in the log.
            entry.attached = true;
            let counters = Arc::clone(&entry.counters);
            let cursor = entry.cursor;
            counters.resumed_from.store(cursor, Ordering::Relaxed);
            return (counters, cursor);
        }
        let qos = qos.unwrap_or(self.default_qos);
        let counters = Arc::<GroupCounters>::default();
        let cursor = match qos {
            // A fresh latest-only group only cares about new steps.
            Qos::LatestOnly => inner.tail,
            Qos::Lossless => {
                // Resume from the durable cursor when one is retained,
                // else replay everything still reachable (all of history
                // with spill, the ring without).
                let earliest = if self.spill.is_some() { 0 } else { inner.mem_start };
                match self.spill.as_ref().and_then(|s| s.read_cursor(name)) {
                    Some(durable) => {
                        let resumed = durable.clamp(earliest, inner.tail);
                        counters.resumed_from.store(resumed, Ordering::Relaxed);
                        resumed
                    }
                    None => earliest,
                }
            }
        };
        counters.lag_steps.store(inner.tail.saturating_sub(cursor), Ordering::Relaxed);
        inner.groups.insert(
            name.to_string(),
            GroupEntry {
                cursor,
                qos,
                counters: Arc::clone(&counters),
                eos_counted: false,
                attached: true,
            },
        );
        (counters, cursor)
    }

    /// A group closed: its cursor stays for a later re-attach, but its
    /// counters are no longer discoverable.
    pub(crate) fn detach(&self, name: &str) {
        if let Some(entry) = self.inner.lock().unwrap().groups.get_mut(name) {
            entry.attached = false;
        }
    }

    /// The live counters of group `name`, while it is attached.
    pub(crate) fn group_counters(&self, name: &str) -> Option<Arc<GroupCounters>> {
        let inner = self.inner.lock().unwrap();
        inner.groups.get(name).filter(|e| e.attached).map(|e| Arc::clone(&e.counters))
    }

    /// One non-blocking poll of a group's cursor.
    pub(crate) fn try_fetch(&self, name: &str) -> Result<Fetch, StreamError> {
        enum Plan {
            Mem(Fetch),
            Spill(u64, Arc<GroupCounters>),
        }
        let plan = {
            let mut inner = self.inner.lock().unwrap();
            let (tail, mem_start, eos, abandoned) =
                (inner.tail, inner.mem_start, inner.eos, inner.abandoned);
            let entry = inner.groups.get_mut(name).expect("group registered with this log");
            if entry.cursor >= tail {
                if !eos && !abandoned {
                    return Ok(Fetch::Pending);
                }
                if !abandoned {
                    return Ok(Fetch::Eos { clean: true });
                }
                if !entry.eos_counted {
                    entry.eos_counted = true;
                    entry.counters.eos_synthesized.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(Fetch::Eos { clean: false });
            }
            let counters = Arc::clone(&entry.counters);
            match entry.qos {
                Qos::LatestOnly => {
                    // Skip-to-latest: the newest sealed step is always in
                    // the ring. The cursor advances at fetch time —
                    // at-most-once means a fetched step is never offered
                    // again.
                    let target = tail - 1;
                    let dropped = target - entry.cursor;
                    if dropped > 0 {
                        counters.dropped_by_qos.fetch_add(dropped, Ordering::Relaxed);
                    }
                    entry.cursor = tail;
                    counters.lag_steps.store(0, Ordering::Relaxed);
                    let step = Arc::clone(&inner.mem[(target - mem_start) as usize]);
                    counters.delivered.fetch_add(1, Ordering::Relaxed);
                    if dropped > 0 {
                        Plan::Mem(Fetch::Skipped { dropped, step })
                    } else {
                        Plan::Mem(Fetch::Step(step))
                    }
                }
                Qos::Lossless => {
                    if entry.cursor < mem_start {
                        Plan::Spill(entry.cursor, counters)
                    } else {
                        let cursor = entry.cursor;
                        let step = Arc::clone(&inner.mem[(cursor - mem_start) as usize]);
                        counters.delivered.fetch_add(1, Ordering::Relaxed);
                        Plan::Mem(Fetch::Step(step))
                    }
                }
            }
        };
        match plan {
            Plan::Mem(fetch) => Ok(fetch),
            Plan::Spill(cursor, counters) => {
                // File I/O outside the lock: spilled segments are
                // immutable once the manifest names them.
                let spill = self.spill.as_ref().expect("cursor below ring implies spill");
                let step = spill.read_step(cursor)?;
                counters.replayed_from_spill.fetch_add(1, Ordering::Relaxed);
                counters.delivered.fetch_add(1, Ordering::Relaxed);
                Ok(Fetch::Spilled(step))
            }
        }
    }

    /// Commit a group's cursor: delivery up to (excluding) `next` is
    /// acknowledged. Lossless cursors are made durable when spill is
    /// configured.
    pub(crate) fn commit(&self, name: &str, next: u64) {
        let mut inner = self.inner.lock().unwrap();
        let tail = inner.tail;
        let entry = inner.groups.get_mut(name).expect("group registered with this log");
        if next <= entry.cursor {
            return;
        }
        entry.cursor = next;
        entry.counters.lag_steps.store(tail.saturating_sub(next), Ordering::Relaxed);
        if entry.qos == Qos::Lossless {
            if let Some(spill) = &self.spill {
                spill.write_cursor(name, next);
            }
        }
    }

    /// One writer rank closed; the last close marks end-of-stream (and
    /// the spill manifest, so late joiners in other processes observe a
    /// clean EOS too).
    pub fn close_rank(&self) -> Result<(), StreamError> {
        let mut inner = self.inner.lock().unwrap();
        inner.closed_ranks += 1;
        if inner.closed_ranks >= self.nranks && !inner.eos {
            inner.eos = true;
            if let Some(spill) = &self.spill {
                spill.write_manifest(inner.tail, true)?;
            }
        }
        Ok(())
    }

    /// The writer died without closing. Groups drain every retained step
    /// and then observe a synthesized end-of-stream; the spill manifest
    /// is left un-finalized (a cross-process tail synthesizes EOS off
    /// silence instead).
    pub fn abandon(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.abandoned = true;
    }
}

/// Writer-side pub/sub engine for one rank: an [`adios::WriteEngine`]
/// whose `end_step` appends the rank's process group to the shared
/// [`StreamLog`] instead of running per-reader handshakes — publication
/// is completely decoupled from consumption.
pub struct StepPublisher {
    log: Arc<StreamLog>,
    rank: usize,
    current: Option<ProcessGroup>,
    publish_timeout: Duration,
    crash_after: Option<u64>,
    stall: Option<Duration>,
    plan: Option<Arc<evpath::FaultPlan>>,
    published: u64,
    crashed: bool,
    closed: bool,
}

impl StepPublisher {
    /// A publisher for `rank` feeding `log`. The hints' fault plan is
    /// consulted under the `pubsub:pub` label: `crash_sender_after`
    /// abandons the stream after that many sealed appends, `stall`
    /// delays the first publish — the seeded deterministic knobs the
    /// fan-out fault battery replays.
    pub fn new(log: Arc<StreamLog>, rank: usize, hints: StreamHints) -> StepPublisher {
        let (crash_after, stall, plan) = match &hints.faults {
            Some(p) => {
                let spec = p.spec_for("pubsub:pub");
                (spec.crash_sender_after, spec.stall, Some(Arc::clone(p)))
            }
            None => (None, None, None),
        };
        StepPublisher {
            log,
            rank,
            current: None,
            publish_timeout: hints.recv_timeout * (hints.retries + 1),
            crash_after,
            stall,
            plan,
            published: 0,
            crashed: false,
            closed: false,
        }
    }

    /// The log this publisher feeds.
    pub fn log(&self) -> &Arc<StreamLog> {
        &self.log
    }

    /// Finish the current step with error reporting (backpressure
    /// timeouts, spill I/O failures). After a fault-scheduled crash this
    /// returns `Timeout` — the publisher is dead on the wire.
    pub fn try_end_step(&mut self) -> Result<(), StreamError> {
        let group = self.current.take().expect("end_step without begin_step");
        if self.crashed {
            return Err(StreamError::Timeout);
        }
        if let Some(stall) = self.stall.take() {
            if let Some(plan) = &self.plan {
                plan.note_stall();
            }
            std::thread::sleep(stall);
        }
        if let Some(n) = self.crash_after {
            if self.published >= n {
                self.abandon();
                if let Some(plan) = &self.plan {
                    plan.counters().crashed_sends.fetch_add(1, Ordering::Relaxed);
                }
                return Err(StreamError::Timeout);
            }
        }
        self.log.append_group(group, self.publish_timeout)?;
        self.published += 1;
        Ok(())
    }

    /// Simulate a writer crash: stop publishing abruptly without EOS.
    pub fn abandon(&mut self) {
        self.crashed = true;
        self.closed = true;
        self.log.abandon();
    }
}

impl WriteEngine for StepPublisher {
    fn begin_step(&mut self, step: u64) {
        assert!(self.current.is_none(), "begin_step without end_step");
        self.current = Some(ProcessGroup::new(self.rank, step));
    }

    fn write(&mut self, name: &str, value: VarValue) {
        self.current.as_mut().expect("write outside begin_step/end_step").push(name, value);
    }

    fn end_step(&mut self) {
        match self.try_end_step() {
            Ok(()) => {}
            // A fault-scheduled crash is silence, not a panic: the
            // producing application keeps "running" against a dead pipe.
            Err(_) if self.crashed => {}
            Err(e) => panic!("pub/sub publish failed: {e}"),
        }
    }

    fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.log.close_rank().expect("finalize pub/sub stream");
    }
}

impl Drop for StepPublisher {
    fn drop(&mut self) {
        if !self.closed && !self.crashed {
            // A dropped-but-never-closed publisher is a crashed writer:
            // groups must still drain retained steps to EOS.
            self.log.abandon();
        }
    }
}
