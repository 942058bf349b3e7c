//! Performance monitoring (paper §II.G).
//!
//! "There are measurement points at all levels of the FlexIO software
//! stack to gather a variety of information, including the timing of data
//! movement and DC Plug-in execution, as well as transferred data volumes.
//! Dynamic memory allocation points within FlexIO are also instrumented
//! [...] For offline performance tuning, monitoring information can be
//! dumped to trace files [...] For runtime management, monitoring data
//! captured from the simulation side can be gathered online and
//! transferred to the analytics side."

use std::sync::{Arc, Mutex};
use std::time::Instant;

use evpath::{FieldValue, Record};

/// What a measurement point observed.
///
/// Non-exhaustive: new measurement points are added as the middleware
/// grows (most recently [`MonitorEvent::StepSeal`] for the elastic
/// controller), and downstream consumers must tolerate variants they do
/// not know. A relay sink skips a record whose event name its build does
/// not know, like any other malformed record (relay and sink are always
/// the same build).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum MonitorEvent {
    /// One data message sent (bytes on the wire).
    DataSend,
    /// One data message received.
    DataRecv,
    /// A DC plug-in executed on a chunk.
    PluginExec,
    /// A buffer allocation inside the movement path.
    Allocation,
    /// A synchronous-mode wait for acknowledgements.
    SyncWait,
    /// A writer sealed a step. `nanos` is the gap since the previous
    /// seal — the live estimate of the simulation's I/O interval that the
    /// elastic controller feeds into the holistic allocation formula.
    StepSeal,
}

impl MonitorEvent {
    /// The one event table: every variant with its wire name, in
    /// aggregate-slot order. [`Self::name`], [`Self::event_from_name`] and the
    /// aggregate array's length all derive from it.
    pub(crate) const ALL: [(MonitorEvent, &'static str); 6] = [
        (MonitorEvent::DataSend, "data_send"),
        (MonitorEvent::DataRecv, "data_recv"),
        (MonitorEvent::PluginExec, "plugin_exec"),
        (MonitorEvent::Allocation, "allocation"),
        (MonitorEvent::SyncWait, "sync_wait"),
        (MonitorEvent::StepSeal, "step_seal"),
    ];

    /// Slot of this event in [`Self::ALL`] — the table lists the variants
    /// in declaration order, so the discriminant is the index.
    fn index(self) -> usize {
        self as usize
    }

    pub(crate) fn name(&self) -> &'static str {
        Self::ALL[self.index()].1
    }

    /// The event a relay record's name stands for, if this build knows it.
    pub(crate) fn event_from_name(name: &str) -> Option<MonitorEvent> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(event, _)| *event)
    }
}

#[derive(Debug, Clone)]
struct Sample {
    event: MonitorEvent,
    step: u64,
    rank: usize,
    bytes: u64,
    nanos: u64,
}

/// Exact running aggregates per event class (never evicted).
#[derive(Debug, Default, Clone, Copy)]
struct Aggregate {
    count: u64,
    bytes: u64,
    nanos: u64,
}

/// Detailed samples retained for per-step series and trace dumps. Bounded:
/// a production-length coupled run records per message per step, and an
/// unbounded store would be a slow leak over the multi-hour runs the paper
/// targets. Aggregate queries stay exact; windowed queries (per-step
/// series, trace dumps) see the most recent `capacity` samples.
const DEFAULT_SAMPLE_CAPACITY: usize = 100_000;

#[derive(Default)]
struct Inner {
    samples: std::collections::VecDeque<Sample>,
    aggregates: [Aggregate; MonitorEvent::ALL.len()],
}

/// Shared monitor; cloning shares the sample store.
#[derive(Clone, Default)]
pub struct PerfMonitor {
    inner: Arc<Mutex<Inner>>,
}

impl PerfMonitor {
    /// Fresh monitor.
    pub fn new() -> PerfMonitor {
        PerfMonitor::default()
    }

    /// Record one event with its payload size and duration.
    pub fn record(&self, event: MonitorEvent, step: u64, rank: usize, bytes: u64, nanos: u64) {
        let mut inner = self.inner.lock().unwrap();
        let agg = &mut inner.aggregates[event.index()];
        agg.count += 1;
        agg.bytes += bytes;
        agg.nanos += nanos;
        if inner.samples.len() >= DEFAULT_SAMPLE_CAPACITY {
            inner.samples.pop_front();
        }
        inner.samples.push_back(Sample { event, step, rank, bytes, nanos });
    }

    /// Time a closure and record it.
    pub fn timed<T>(
        &self,
        event: MonitorEvent,
        step: u64,
        rank: usize,
        bytes: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(event, step, rank, bytes, start.elapsed().as_nanos() as u64);
        out
    }

    /// Total bytes recorded for an event class (exact over the whole run).
    pub fn total_bytes(&self, event: MonitorEvent) -> u64 {
        self.inner.lock().unwrap().aggregates[event.index()].bytes
    }

    /// Total nanoseconds recorded for an event class (exact).
    pub fn total_nanos(&self, event: MonitorEvent) -> u64 {
        self.inner.lock().unwrap().aggregates[event.index()].nanos
    }

    /// Number of samples of an event class (exact).
    pub fn count(&self, event: MonitorEvent) -> u64 {
        self.inner.lock().unwrap().aggregates[event.index()].count
    }

    /// Dump the retained trace window as self-describing records, one per
    /// sample (the "dumped to trace files" path; the caller decides the
    /// sink — and should dump periodically on long runs, since only the
    /// most recent samples are retained).
    pub fn dump_trace(&self) -> Vec<Record> {
        self.inner
            .lock()
            .unwrap()
            .samples
            .iter()
            .map(|s| {
                Record::new()
                    .with("event", FieldValue::Str(s.event.name().into()))
                    .with("step", FieldValue::U64(s.step))
                    .with("rank", FieldValue::U64(s.rank as u64))
                    .with("bytes", FieldValue::U64(s.bytes))
                    .with("nanos", FieldValue::U64(s.nanos))
            })
            .collect()
    }

    /// Per-step received-bytes series for one rank over the retained
    /// sample window — the online feed a runtime manager uses for
    /// placement decisions (§II.G).
    pub fn bytes_per_step(&self, event: MonitorEvent, rank: usize) -> Vec<(u64, u64)> {
        self.per_step(event, rank, |s| s.bytes)
    }

    /// Per-step duration series for one rank over the retained sample
    /// window — for [`MonitorEvent::StepSeal`] this is the live
    /// inter-step interval the elastic controller converges on.
    pub fn nanos_per_step(&self, event: MonitorEvent, rank: usize) -> Vec<(u64, u64)> {
        self.per_step(event, rank, |s| s.nanos)
    }

    /// One pass over the retained window, summing `field` by step.
    fn per_step(
        &self,
        event: MonitorEvent,
        rank: usize,
        field: impl Fn(&Sample) -> u64,
    ) -> Vec<(u64, u64)> {
        let inner = self.inner.lock().unwrap();
        let mut per_step = std::collections::BTreeMap::new();
        for s in inner.samples.iter().filter(|s| s.event == event && s.rank == rank) {
            *per_step.entry(s.step).or_insert(0) += field(s);
        }
        per_step.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_aggregate() {
        let m = PerfMonitor::new();
        m.record(MonitorEvent::DataSend, 0, 1, 1000, 50);
        m.record(MonitorEvent::DataSend, 1, 1, 2000, 70);
        m.record(MonitorEvent::DataRecv, 0, 2, 1000, 60);
        assert_eq!(m.total_bytes(MonitorEvent::DataSend), 3000);
        assert_eq!(m.total_nanos(MonitorEvent::DataSend), 120);
        assert_eq!(m.count(MonitorEvent::DataRecv), 1);
        assert_eq!(m.count(MonitorEvent::PluginExec), 0);
    }

    #[test]
    fn timed_measures() {
        let m = PerfMonitor::new();
        let v = m.timed(MonitorEvent::PluginExec, 3, 0, 10, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(m.total_nanos(MonitorEvent::PluginExec) >= 1_000_000);
    }

    #[test]
    fn trace_dump_is_decodable() {
        let m = PerfMonitor::new();
        m.record(MonitorEvent::SyncWait, 5, 3, 0, 123);
        let trace = m.dump_trace();
        assert_eq!(trace.len(), 1);
        let r = Record::decode(&trace[0].encode()).unwrap();
        assert_eq!(r.get_str("event"), Some("sync_wait"));
        assert_eq!(r.get_u64("step"), Some(5));
        assert_eq!(r.get_u64("nanos"), Some(123));
    }

    #[test]
    fn event_table_is_dense_and_round_trips() {
        for (slot, (event, name)) in MonitorEvent::ALL.iter().enumerate() {
            assert_eq!(event.index(), slot, "{name} sits at its own discriminant");
            assert_eq!(event.name(), *name);
            assert_eq!(MonitorEvent::event_from_name(name), Some(*event));
        }
        assert_eq!(MonitorEvent::event_from_name("gpu_kernel"), None);
        // Every variant is in the table: one more would have the next
        // discriminant, which `StepSeal` (the last declared) pins.
        assert_eq!(MonitorEvent::StepSeal.index() + 1, MonitorEvent::ALL.len());
    }

    #[test]
    fn seal_interval_series() {
        let m = PerfMonitor::new();
        m.record(MonitorEvent::StepSeal, 0, 0, 0, 1_000);
        m.record(MonitorEvent::StepSeal, 1, 0, 0, 2_000);
        m.record(MonitorEvent::StepSeal, 2, 0, 0, 4_000);
        assert_eq!(
            m.nanos_per_step(MonitorEvent::StepSeal, 0),
            vec![(0, 1_000), (1, 2_000), (2, 4_000)]
        );
    }

    #[test]
    fn per_step_series() {
        let m = PerfMonitor::new();
        for step in [0u64, 0, 1, 2, 2, 2] {
            m.record(MonitorEvent::DataRecv, step, 0, 10, 1);
        }
        m.record(MonitorEvent::DataRecv, 0, 9, 999, 1); // other rank
        assert_eq!(m.bytes_per_step(MonitorEvent::DataRecv, 0), vec![(0, 20), (1, 10), (2, 30)]);
    }
}
