//! Drives one workload: a repetition is payload generation, then a
//! pipelined phase and a lockstep phase, each on two fresh streams with
//! one writer rank thread and one reader rank thread. The main thread
//! only spawns and joins.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use flexio::{FlexIo, MonitorEvent};
use machine::laptop;

use crate::harness::{
    median, now_ns, thread_cpu_ns, AbortOnPanic, Phase, Rank, Signals, Span, Tracer, STEP_SPAN,
};
use crate::workloads::{CountSource, Payloads, PhaseEnv, QueryTotals, Workload, WARMUP_STEPS};

/// Step counts of one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhasePlan {
    pub warmup: u64,
    pub timed: u64,
}

impl PhasePlan {
    fn total(self) -> u64 {
        self.warmup + self.timed
    }
}

/// Step counts of a repetition. `quick` is the smoke mode of
/// `cargo test`: same payload sizes, a handful of steps, numbers that
/// mean nothing and are marked so.
pub fn plans(w: Workload, quick: bool) -> (PhasePlan, PhasePlan) {
    let spec = w.spec();
    if quick {
        let tiny = PhasePlan { warmup: 2, timed: 6 };
        return (tiny, tiny);
    }
    (
        PhasePlan { warmup: WARMUP_STEPS, timed: spec.pipelined_steps },
        PhasePlan { warmup: WARMUP_STEPS, timed: spec.lockstep_steps },
    )
}

/// Exact per-stream totals, read from the library's public counters
/// after both ranks joined.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub steps: u64,
    pub wire_bytes: u64,
    pub handshake_msgs: u64,
    pub data_msgs: u64,
    pub allocs: u64,
    pub spill_bytes: u64,
    pub query: Option<QueryTotals>,
}

/// Everything one phase measured. Per-step vectors cover timed steps
/// only; `verified`/`attempted` cover warm-up steps too.
#[derive(Default)]
pub struct PhaseOut {
    /// Phase start to the writer's first timed `begin_step`.
    pub setup_ns: u64,
    pub w_begin: Vec<u64>,
    pub w_end_call: Vec<u64>,
    pub w_end_ret: Vec<u64>,
    /// Reader: completion of the last warm-up step — time zero of the
    /// reader's timed section.
    pub r_start: u64,
    pub r_data: Vec<u64>,
    pub r_done: Vec<u64>,
    pub cpu_ns: u64,
    pub attempted: u64,
    pub verified: u64,
    pub final_ok: bool,
    pub counts: Counts,
    pub spans: Vec<Span>,
}

struct WriterOut {
    begin: Vec<u64>,
    end_call: Vec<u64>,
    end_ret: Vec<u64>,
    cpu_ns: u64,
    source: Option<CountSource>,
    spans: Vec<Span>,
}

struct ReaderOut {
    start: u64,
    data: Vec<u64>,
    done: Vec<u64>,
    cpu_ns: u64,
    verified: u64,
    end: Option<crate::workloads::ReaderEnd>,
    spans: Vec<Span>,
}

fn writer_rank(
    env: &PhaseEnv<'_>,
    sig: &Signals,
    phase: Phase,
    plan: PhasePlan,
    trace: bool,
) -> WriterOut {
    let _guard = AbortOnPanic(sig);
    let n = plan.timed as usize;
    let mut out = WriterOut {
        begin: Vec::with_capacity(n),
        end_call: Vec::with_capacity(n),
        end_ret: Vec::with_capacity(n),
        cpu_ns: 0,
        source: None,
        spans: Vec::new(),
    };
    let mut side = match env.open_writer() {
        Ok(side) => side,
        Err(e) => {
            eprintln!("{}: open writer failed: {e}", env.workload.spec().name);
            sig.abort();
            return out;
        }
    };
    let mut tr = Tracer::new(trace, phase, Rank::Writer, n * 16);
    let mut cpu_start = 0;
    if sig.wait(&sig.reader_ready, 1) {
        for step in 0..plan.total() {
            if phase == Phase::Lockstep && !sig.wait(&sig.reader_done, step) {
                break;
            }
            let timed = step >= plan.warmup;
            if step == plan.warmup {
                cpu_start = thread_cpu_ns();
            }
            if timed {
                tr.open_step(step);
            }
            let begin = now_ns();
            match side.step(step, &mut tr) {
                Ok(end_call) => {
                    let end_ret = now_ns();
                    tr.close_step();
                    if timed {
                        out.begin.push(begin);
                        out.end_call.push(end_call);
                        out.end_ret.push(end_ret);
                    }
                }
                Err(e) => {
                    eprintln!("{}: writer step {step} failed: {e}", env.workload.spec().name);
                    sig.abort();
                    break;
                }
            }
        }
    }
    if !out.begin.is_empty() {
        out.cpu_ns = thread_cpu_ns() - cpu_start;
    }
    sig.set(&sig.writer_done, 1);
    out.source = Some(side.finish());
    out.spans = tr.spans;
    out
}

fn reader_rank(
    env: &PhaseEnv<'_>,
    sig: &Signals,
    phase: Phase,
    plan: PhasePlan,
    trace: bool,
) -> ReaderOut {
    let _guard = AbortOnPanic(sig);
    let n = plan.timed as usize;
    let mut out = ReaderOut {
        start: 0,
        data: Vec::with_capacity(n),
        done: Vec::with_capacity(n),
        cpu_ns: 0,
        verified: 0,
        end: None,
        spans: Vec::new(),
    };
    let mut side = match env.open_reader() {
        Ok(side) => side,
        Err(e) => {
            eprintln!("{}: open reader failed: {e}", env.workload.spec().name);
            sig.abort();
            return out;
        }
    };
    sig.set(&sig.reader_ready, 1);
    let mut tr = Tracer::new(trace, phase, Rank::Reader, n * 32);
    let drain_later = phase == Phase::Pipelined && env.workload.drains_after_publish();
    let mut cpu_start = 0;
    if !drain_later || sig.wait(&sig.writer_done, 1) {
        for step in 0..plan.total() {
            let timed = step >= plan.warmup;
            if step == plan.warmup {
                cpu_start = thread_cpu_ns();
                out.start = now_ns();
            }
            if timed {
                tr.open_step(step);
            }
            match side.step(step, &mut tr) {
                Ok(Some(mark)) => {
                    tr.close_step();
                    out.verified += u64::from(mark.ok);
                    if timed {
                        out.data.push(mark.data_ns);
                        out.done.push(now_ns());
                    }
                    sig.set(&sig.reader_done, step + 1);
                }
                Ok(None) => {
                    eprintln!("{}: stream ended before step {step}", env.workload.spec().name);
                    sig.abort();
                    break;
                }
                Err(e) => {
                    eprintln!("{}: reader step {step} failed: {e}", env.workload.spec().name);
                    sig.abort();
                    break;
                }
            }
        }
    }
    if !out.done.is_empty() {
        out.cpu_ns = thread_cpu_ns() - cpu_start;
    }
    out.end = Some(side.finish(plan.total()));
    out.spans = tr.spans;
    out
}

fn read_counts(source: &CountSource, steps: u64) -> Counts {
    match source {
        CountSource::Link(link) => Counts {
            steps,
            wire_bytes: link.monitor.total_bytes(MonitorEvent::DataSend),
            handshake_msgs: link.counters.handshake_total(),
            data_msgs: link.counters.data_msgs.load(Ordering::Relaxed),
            allocs: link.monitor.count(MonitorEvent::Allocation),
            ..Counts::default()
        },
        CountSource::Log(log) => {
            let spilled = log.counters().spill_bytes.load(Ordering::Relaxed);
            // Bytes that left the writer's address space: the BP segments.
            Counts { steps, wire_bytes: spilled, spill_bytes: spilled, ..Counts::default() }
        }
    }
}

/// Force a journal commit on the file system that holds `dir`, so the
/// phase starts against an empty running transaction. On ext4 the cost of
/// a create or rename grows with the transaction it joins (0.3 ms right
/// after a commit, 1.3 ms late in one, on this host), and commits come
/// every five seconds: without this, `pubsub_spill` measures how long ago
/// the last commit happened. Best effort — a failure only costs steadiness.
fn settle_journal(dir: &Path) {
    let barrier = dir.join("barrier");
    let synced = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&barrier))
        .and_then(|f| f.sync_all());
    if let Err(e) = synced {
        eprintln!("cannot sync {}: {e}", barrier.display());
    }
}

/// Run one phase of `w` over `payloads`.
pub fn run_phase(
    w: Workload,
    payloads: &Payloads,
    phase: Phase,
    plan: PhasePlan,
    trace: bool,
    spill_dir: &Path,
) -> PhaseOut {
    let phase_start = now_ns();
    if w == Workload::PubsubSpill {
        settle_journal(spill_dir);
    }
    let env = PhaseEnv { io: FlexIo::single_node(laptop()), workload: w, payloads, spill_dir };
    let sig = Signals::default();
    let (wr, rd) = std::thread::scope(|s| {
        let writer = s.spawn(|| writer_rank(&env, &sig, phase, plan, trace));
        let reader = s.spawn(|| reader_rank(&env, &sig, phase, plan, trace));
        (writer.join(), reader.join())
    });
    let mut out = PhaseOut { attempted: plan.total(), ..PhaseOut::default() };
    // A rank that panicked delivered nothing we can trust: every step of
    // the phase counts as failed.
    let (Ok(wr), Ok(rd)) = (wr, rd) else {
        eprintln!("{}: a rank thread panicked in the {} phase", w.spec().name, phase.name());
        return out;
    };
    out.setup_ns = wr.begin.first().map_or(0, |first| first.saturating_sub(phase_start));
    out.cpu_ns = wr.cpu_ns + rd.cpu_ns;
    out.verified = rd.verified;
    out.r_start = rd.start;
    if let Some(source) = &wr.source {
        out.counts = read_counts(source, plan.total());
    }
    if let Some(end) = rd.end {
        out.final_ok = end.final_ok;
        out.counts.query = end.query;
    }
    (out.w_begin, out.w_end_call, out.w_end_ret) = (wr.begin, wr.end_call, wr.end_ret);
    (out.r_data, out.r_done) = (rd.data, rd.done);
    // One list, writer spans first; reader parents shift by the offset.
    let offset = wr.spans.len();
    out.spans = wr.spans;
    out.spans.extend(rd.spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
    out
}

/// One repetition of one workload.
pub struct RepOut {
    pub payload_ns: u64,
    pub pipelined: PhaseOut,
    pub lockstep: PhaseOut,
    pub traced: bool,
    pub wall_s: f64,
}

pub fn run_rep(w: Workload, seed: u64, quick: bool, trace: bool, scratch: &Path) -> RepOut {
    let wall = Instant::now();
    let t0 = now_ns();
    let payloads = Payloads::generate(w, seed);
    let payload_ns = now_ns() - t0;
    let (pipe_plan, lock_plan) = plans(w, quick);
    let phase = |phase: Phase, plan: PhasePlan| {
        let dir: PathBuf = scratch.join(format!("spill-{}-{}", std::process::id(), phase.name()));
        let out = run_phase(w, &payloads, phase, plan, trace, &dir);
        // The spill directory exists only for `pubsub_spill`.
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let pipelined = phase(Phase::Pipelined, pipe_plan);
    let lockstep = phase(Phase::Lockstep, lock_plan);
    RepOut { payload_ns, pipelined, lockstep, traced: trace, wall_s: wall.elapsed().as_secs_f64() }
}

// ------------------------------------------------------ derived metrics

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl RepOut {
    pub fn attempted(&self) -> u64 {
        self.pipelined.attempted + self.lockstep.attempted
    }

    /// Steps attempted and not delivered with a matching digest. A
    /// failed end-of-run check (the query output digest) fails every
    /// step of its phase: no single step can be blamed.
    pub fn failed(&self) -> u64 {
        [&self.pipelined, &self.lockstep]
            .iter()
            .map(
                |p| {
                    if p.final_ok {
                        p.attempted - p.verified.min(p.attempted)
                    } else {
                        p.attempted
                    }
                },
            )
            .sum()
    }

    /// Every timed step of both phases completed on both ranks, so the
    /// per-step series below are whole.
    pub fn complete(&self, w: Workload, quick: bool) -> bool {
        let (pp, lp) = plans(w, quick);
        let whole = |p: &PhaseOut, plan: PhasePlan| {
            p.w_end_ret.len() as u64 == plan.timed && p.r_done.len() as u64 == plan.timed
        };
        whole(&self.pipelined, pp) && whole(&self.lockstep, lp)
    }

    /// Pipelined phase, per-step wall time of the writer from
    /// `begin_step` to `end_step` returning, in ms.
    pub fn writer_visible_io_ms(&self) -> Vec<f64> {
        let p = &self.pipelined;
        p.w_begin.iter().zip(&p.w_end_ret).map(|(b, e)| ms(e - b)).collect()
    }

    /// Lockstep phase, per step: writer calls `end_step` → the reader's
    /// last read of that step returns, in ms.
    pub fn step_latency_ms(&self) -> Vec<f64> {
        let p = &self.lockstep;
        p.w_end_call.iter().zip(&p.r_data).map(|(c, d)| ms(d.saturating_sub(*c))).collect()
    }

    /// Pipelined phase, per-step period in ns: the gap between reader
    /// completions, or — where the phase publishes first and drains
    /// after — the step's publish time plus its drain time.
    pub fn step_periods_ns(&self, w: Workload) -> Vec<f64> {
        let p = &self.pipelined;
        let mut prev = p.r_start;
        let drain = p.r_done.iter().map(|&d| {
            let gap = d.saturating_sub(prev);
            prev = d;
            gap as f64
        });
        if w.drains_after_publish() {
            let mut prev_w = p.w_begin.first().copied().unwrap_or(0);
            drain
                .zip(&p.w_end_ret)
                .map(|(gap, &e)| {
                    let publish = e.saturating_sub(prev_w);
                    prev_w = e;
                    gap + publish as f64
                })
                .collect()
        } else {
            drain.collect()
        }
    }

    pub fn steps_per_s(&self, w: Workload) -> f64 {
        let periods = self.step_periods_ns(w);
        let wall: f64 = periods.iter().sum();
        if wall > 0.0 {
            periods.len() as f64 / (wall / 1e9)
        } else {
            0.0
        }
    }

    /// Median period of the last quarter of steps over the median of the
    /// first quarter: 1.0 is a stream whose step cost does not age.
    pub fn step_time_drift(&self, w: Workload) -> f64 {
        let periods = self.step_periods_ns(w);
        let q = (periods.len() / 4).max(1);
        if periods.len() < 2 {
            return 0.0;
        }
        let first = median(&periods[..q]);
        let last = median(&periods[periods.len() - q..]);
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }

    pub fn cpu_ms_per_step(&self) -> f64 {
        let steps = self.pipelined.r_done.len().max(1);
        ms(self.pipelined.cpu_ns) / steps as f64
    }

    pub fn wire_bytes_per_step(&self) -> f64 {
        let c = &self.pipelined.counts;
        c.wire_bytes as f64 / c.steps.max(1) as f64
    }

    /// Everything untimed that precedes the timed steps: payload
    /// generation plus, per phase, open → connect → warm-up.
    pub fn setup_s(&self) -> f64 {
        (self.payload_ns + self.pipelined.setup_ns + self.lockstep.setup_ns) as f64 / 1e9
    }
}

// ------------------------------------------------------ in-situ ledger

/// Per-step totals of one span name over the lockstep phase, in ns:
/// one entry per step that recorded the span at least once.
pub fn span_totals(spans: &[Span], name: &str) -> Vec<f64> {
    let mut per_step: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.phase == Phase::Lockstep && s.name == name) {
        *per_step.entry(s.step).or_default() += s.dur_ns();
    }
    per_step.into_values().map(|v| v as f64).collect()
}

/// Per step of the lockstep phase: the part of each rank's step window
/// no child span covers, summed over both ranks, with the summed window
/// length — the check that the spans tile the step.
pub fn unattributed(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut per_step: std::collections::BTreeMap<u64, (i64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.phase == Phase::Lockstep) {
        let e = per_step.entry(s.step).or_default();
        if s.name == STEP_SPAN {
            e.0 += s.dur_ns() as i64;
            e.1 += s.dur_ns();
        } else if s.parent.is_some() {
            e.0 -= s.dur_ns() as i64;
        }
    }
    per_step.into_values().map(|(gap, window)| (gap.max(0) as f64, window as f64)).collect()
}
