//! Measurement primitives shared by every workload: one monotonic clock,
//! the lockstep gate, per-thread CPU time, order statistics, the cheap
//! lane digest used to verify payloads, and the in-memory span recorder
//! of the traced run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process. Every timestamp of
/// both rank threads comes from this one epoch, so they subtract.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The benchmark package's directory: where `out/` (results, traces,
/// spill segments) lives. `cargo run` and `cargo test` export it at run
/// time, which follows a moved checkout; the compile-time value serves a
/// binary started by hand.
pub fn manifest_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| env!("CARGO_MANIFEST_DIR").into(), std::path::PathBuf::from)
}

/// How long a rank waits on its peer before the step is written off as
/// failed. Far above any healthy step, far below the driver's 180 s.
pub const PEER_WAIT: Duration = Duration::from_secs(20);

/// The counters two rank threads synchronise on. The reader publishes
/// how many steps it has finished and the writer waits for that count
/// before issuing the next step (the lockstep hand-off); `reader_ready`
/// and `writer_done` order set-up and the publish-then-drain phase.
/// Waits spin first (a hand-off is normally sub-microsecond), then
/// yield; they never sleep, so they add no timer latency to a step.
#[derive(Default)]
pub struct Signals {
    abort: AtomicBool,
    pub reader_ready: AtomicU64,
    pub reader_done: AtomicU64,
    pub writer_done: AtomicU64,
}

impl Signals {
    /// Publish `count` on `counter`. `Release` pairs with the `Acquire`
    /// load in [`Signals::wait`], so the waiter sees every write made
    /// before the hand-off.
    pub fn set(&self, counter: &AtomicU64, count: u64) {
        counter.store(count, Ordering::Release);
    }

    /// Tell the peer to stop waiting: this side failed.
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Release);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    /// Wait until `counter` reaches `count`. False when the peer aborted
    /// or [`PEER_WAIT`] ran out.
    pub fn wait(&self, counter: &AtomicU64, count: u64) -> bool {
        let mut spins = 0u32;
        let mut deadline = None;
        loop {
            if counter.load(Ordering::Acquire) >= count {
                return true;
            }
            if self.aborted() {
                return false;
            }
            if spins < 256 {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let limit = *deadline.get_or_insert_with(|| Instant::now() + PEER_WAIT);
            if Instant::now() >= limit {
                return false;
            }
            std::thread::yield_now();
        }
    }
}

/// Raises the abort flag when a rank thread unwinds, so the other rank
/// stops waiting instead of running into [`PEER_WAIT`].
pub struct AbortOnPanic<'s>(pub &'s Signals);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}

/// CPU time (user + system) the calling thread has consumed, in ns.
/// `schedstat` is exact to the nanosecond; `stat` (10 ms ticks) is the
/// fallback on kernels built without scheduler statistics.
pub fn thread_cpu_ns() -> u64 {
    if let Ok(s) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        if let Some(ns) = s.split_whitespace().next().and_then(|f| f.parse::<u64>().ok()) {
            return ns;
        }
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, 12th and 13th after it.
    let after = stat.rsplit_once(") ").map(|(_, rest)| rest).unwrap_or("");
    let ticks: u64 =
        after.split_whitespace().skip(11).take(2).filter_map(|f| f.parse::<u64>().ok()).sum();
    ticks * 10_000_000
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset `VmHWM` so each workload reports its own peak when several run
/// in one process. Needs no privilege on one's own process; a kernel
/// that refuses leaves the peak cumulative, which the README states.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

// ------------------------------------------------------------ statistics

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), because that is what the driver applies to our outputs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// `p` only when at least ten samples lie beyond it — below that the
/// "percentile" is one or two outliers, not a tail.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    // The epsilon keeps 0.01 * 1000 from rounding below ten.
    ((1.0 - p) * values.len() as f64 >= 10.0 - 1e-9).then(|| percentile(values, p))
}

// ---------------------------------------------------------------- digest

/// Four-lane wrapping sum + xor over the IEEE bit patterns. Catches any
/// changed, missing or extra element; cheap enough (the lanes vectorise)
/// to run on every step of an 11 MB payload without becoming the step.
pub fn digest_f64(values: &[f64]) -> u64 {
    let mut sum = [0u64; 4];
    let mut xor = [0u64; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for l in 0..4 {
            let bits = c[l].to_bits();
            sum[l] = sum[l].wrapping_add(bits);
            xor[l] ^= bits;
        }
    }
    for (l, x) in tail.iter().enumerate() {
        let bits = x.to_bits();
        sum[l] = sum[l].wrapping_add(bits);
        xor[l] ^= bits;
    }
    let mut h = values.len() as u64;
    for l in 0..4 {
        h = h.rotate_left(13) ^ sum[l];
        h = h.rotate_left(17) ^ xor[l].wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h
}

/// Digest of an `f64` array payload, owned or a packed wire view. Every
/// payload of this benchmark is doubles.
pub fn digest_array(data: &adios::ArrayData) -> u64 {
    match data {
        adios::ArrayData::F64(v) => digest_f64(v),
        adios::ArrayData::Packed(p) => digest_f64(&p.to_f64_vec()),
        other => panic!("benchmark payloads are f64, got {:?}", other.data_type()),
    }
}

// ----------------------------------------------------------------- spans

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Pipelined,
    Lockstep,
}

impl Phase {
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pipelined => "pipelined",
            Phase::Lockstep => "lockstep",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    Writer,
    Reader,
}

impl Rank {
    pub fn name(self) -> &'static str {
        match self {
            Rank::Writer => "writer",
            Rank::Reader => "reader",
        }
    }
}

/// Name of the root span a rank opens around each of its steps.
pub const STEP_SPAN: &str = "harness.step";

/// One timed call into a layer. `name` is `<layer>.<call>`; `parent` is
/// the index (within the same rank's span list) of the step's root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub phase: Phase,
    pub step: u64,
    pub rank: Rank,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-rank span recorder. Off, it costs one branch per call and takes
/// no timestamps, so the untraced run measures the system, not the
/// recorder; the difference between the two runs is
/// `trace.overhead_frac`.
pub struct Tracer {
    on: bool,
    phase: Phase,
    rank: Rank,
    step: u64,
    root: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, phase: Phase, rank: Rank, expected_spans: usize) -> Tracer {
        let spans = if on { Vec::with_capacity(expected_spans) } else { Vec::new() };
        Tracer { on, phase, rank, step: 0, root: None, spans }
    }

    /// Open the root span of `step`; every [`Tracer::time`] until
    /// [`Tracer::close_step`] becomes its child.
    pub fn open_step(&mut self, step: u64) {
        self.step = step;
        if self.on {
            self.root = Some(self.spans.len());
            let t = now_ns();
            self.push(STEP_SPAN, t, 0, None, 0);
        }
    }

    pub fn close_step(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = now_ns();
        }
    }

    /// Run `f` as one span of the open step; outside a step (warm-up)
    /// or with tracing off, just run it.
    pub fn time<T>(&mut self, name: &'static str, bytes: u64, f: impl FnOnce() -> T) -> T {
        if self.root.is_none() {
            return f();
        }
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.push(name, start, end, self.root, bytes);
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        bytes: u64,
    ) {
        self.spans.push(Span {
            phase: self.phase,
            step: self.step,
            rank: self.rank,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            bytes,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&v, 0.99).is_none());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(989.0));
        assert!(tail_percentile(&v, 0.999).is_none());
    }

    #[test]
    fn digest_sees_value_length_and_view() {
        let a: Vec<f64> = (0..1001).map(|i| i as f64 * 0.5).collect();
        let mut b = a.clone();
        b[777] = -b[777];
        assert_ne!(digest_f64(&a), digest_f64(&b));
        assert_ne!(digest_f64(&a), digest_f64(&a[..1000]));
        let packed = adios::ArrayData::Packed(evpath::PackedArray::from_f64s(&a));
        assert_eq!(digest_array(&packed), digest_f64(&a));
    }

    #[test]
    fn spans_nest_under_their_step() {
        let mut tr = Tracer::new(true, Phase::Lockstep, Rank::Writer, 8);
        tr.open_step(7);
        tr.time("writer.write", 16, || ());
        tr.close_step();
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].step, 7);
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let mut off = Tracer::new(false, Phase::Lockstep, Rank::Writer, 8);
        off.open_step(0);
        off.time("writer.write", 0, || ());
        off.close_step();
        assert!(off.spans.is_empty());
    }
}
