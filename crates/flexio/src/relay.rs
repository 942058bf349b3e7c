//! Online monitoring relay (paper §II.G).
//!
//! "For runtime management, monitoring data captured from the simulation
//! side can be gathered online and transferred to the analytics side."
//! The simulation side publishes monitoring samples into a transport and
//! the analytics side decodes the arriving records into a
//! [`PerfMonitor`] replica it can hand to the
//! [`crate::manager::PlacementManager`]. Sampling keeps the relay off
//! the critical path: only every `stride`-th sample is encoded and
//! crosses. On a staging node the drain runs as the control plane's
//! periodic loop ([`MonitorSink::into_task`], see [`crate::task`]).

use std::future::Future;
use std::sync::Arc;
use std::time::Duration;

use evpath::{BoxedReceiver, BoxedSender, FieldValue, Record, RecvPoll};

use crate::directory::{DirectoryError, DirectoryService};
use crate::link::ChannelId;
use crate::monitor::{MonitorEvent, PerfMonitor};
use crate::task::{periodic, LoopHandle};

/// The sending (simulation-side) half of the relay: samples and ships
/// monitoring records.
pub struct MonitorRelay {
    tx: BoxedSender,
    stride: u64,
    published: u64,
}

impl MonitorRelay {
    /// Build a relay over `transport`, forwarding every `stride`-th
    /// sample.
    pub fn new(transport: BoxedSender, stride: u64) -> MonitorRelay {
        assert!(stride >= 1);
        MonitorRelay { tx: transport, stride, published: 0 }
    }

    /// Build the relay on stream `name`'s own monitoring channel,
    /// discovered through the directory service like every other channel
    /// of the link (paper §II.C.1: the directory is how the two sides
    /// find each other — the relay is no exception). The simulation-side
    /// coordinator calls this once the coupling is up (the channel's
    /// transport is placed from both coordinators' cores, so the reader
    /// side must have attached).
    pub fn for_stream(
        directory: &dyn DirectoryService,
        name: &str,
        stride: u64,
        timeout: Duration,
    ) -> Result<MonitorRelay, DirectoryError> {
        let link = directory.lookup(name, timeout)?;
        Ok(MonitorRelay::new(link.claim_sender(ChannelId::Monitor), stride))
    }

    /// Submit one monitoring sample into the relay.
    pub fn publish(&mut self, event: MonitorEvent, step: u64, rank: usize, bytes: u64, nanos: u64) {
        let seq = self.published;
        self.published += 1;
        if !seq.is_multiple_of(self.stride) {
            return;
        }
        let record = Record::new()
            .with("event", FieldValue::Str(event.name().into()))
            .with("step", FieldValue::U64(step))
            .with("rank", FieldValue::U64(rank as u64))
            .with("bytes", FieldValue::U64(bytes))
            .with("nanos", FieldValue::U64(nanos));
        self.tx.send(&record.encode());
    }
}

/// The receiving (analytics-side) half: drains relayed records into a
/// local [`PerfMonitor`] replica.
pub struct MonitorSink {
    rx: BoxedReceiver,
    replica: PerfMonitor,
    closed: bool,
    corrupt_frames: u64,
    /// Link-level protocol counters to mirror transport health into, so a
    /// dead or corrupting monitor peer shows up in the same
    /// `closed_channels`/`corrupt_frames` books as data-plane channels.
    counters: Option<Arc<crate::protocol::ProtocolCounters>>,
}

impl MonitorSink {
    /// Wrap the receiving end of the relay transport.
    pub fn new(rx: BoxedReceiver) -> MonitorSink {
        MonitorSink {
            rx,
            replica: PerfMonitor::new(),
            closed: false,
            corrupt_frames: 0,
            counters: None,
        }
    }

    /// Mirror transport health (peer close, corrupt frames) into a link's
    /// shared protocol counters. [`Self::for_stream`] installs the
    /// stream's own counters automatically.
    pub fn with_counters(mut self, counters: Arc<crate::protocol::ProtocolCounters>) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Attach to stream `name`'s monitoring channel through the directory
    /// service (the analytics-side counterpart of
    /// [`MonitorRelay::for_stream`]).
    pub fn for_stream(
        directory: &dyn DirectoryService,
        name: &str,
        timeout: Duration,
    ) -> Result<MonitorSink, DirectoryError> {
        let link = directory.lookup(name, timeout)?;
        let counters = Arc::clone(&link.counters);
        Ok(MonitorSink::new(link.claim_receiver(ChannelId::Monitor)).with_counters(counters))
    }

    /// Drain every currently-available relayed sample; returns how many
    /// were absorbed. Driven by the readiness poll so the sink can tell
    /// "queue momentarily empty" (drain again later) from "the producing
    /// side is gone" ([`Self::peer_closed`]); corrupt frames are counted
    /// and skipped — monitoring is advisory, never worth failing over.
    pub fn drain(&mut self) -> usize {
        let mut absorbed = 0;
        loop {
            let bytes = match self.rx.poll_recv() {
                RecvPoll::Msg(bytes) => bytes,
                RecvPoll::Empty => break,
                RecvPoll::Closed => {
                    if !self.closed {
                        if let Some(c) = &self.counters {
                            c.bump(&c.closed_channels);
                        }
                    }
                    self.closed = true;
                    break;
                }
                RecvPoll::Corrupt(_) => {
                    self.corrupt_frames += 1;
                    if let Some(c) = &self.counters {
                        c.bump(&c.corrupt_frames);
                    }
                    continue;
                }
            };
            let Ok(r) = Record::decode(&bytes) else { continue };
            let (Some(event), Some(step), Some(rank), Some(payload), Some(nanos)) = (
                r.get_str("event").and_then(MonitorEvent::event_from_name),
                r.get_u64("step"),
                r.get_u64("rank"),
                r.get_u64("bytes"),
                r.get_u64("nanos"),
            ) else {
                continue;
            };
            self.replica.record(event, step, rank as usize, payload, nanos);
            absorbed += 1;
        }
        absorbed
    }

    /// Whether a drain observed the relay's producing side gone for good.
    /// The manager loop uses this to stop polling a dead relay instead of
    /// spinning on an empty queue forever.
    pub fn peer_closed(&self) -> bool {
        self.closed
    }

    /// Transport frames that arrived damaged and were skipped.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// The local replica of the remote side's monitor — feed this to a
    /// [`crate::manager::PlacementManager`].
    pub fn monitor(&self) -> &PerfMonitor {
        &self.replica
    }

    /// Convert the sink into the control plane's periodic drain loop
    /// ([`crate::task`]): it drains every `interval`, publishes the
    /// running [`SinkStats`], and ends on its own once the producing side
    /// is gone. Clone [`Self::monitor`] first to read the replica while
    /// the task drains into it.
    pub fn into_task(
        mut self,
        interval: Duration,
    ) -> (LoopHandle<SinkStats>, impl Future<Output = ()> + Send) {
        let mut absorbed = 0;
        periodic(interval, move || {
            let n = self.drain() as u64;
            if n > 0 {
                absorbed += n;
                flexio_reactor::note_progress();
            }
            (Some(SinkStats { absorbed, corrupt_frames: self.corrupt_frames }), self.closed)
        })
    }
}

/// What a [`MonitorSink::into_task`] round publishes: running totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkStats {
    /// Samples absorbed into the replica so far.
    pub absorbed: u64,
    /// Damaged frames skipped so far.
    pub corrupt_frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PlacementManager;
    use crate::plugins::PluginPlacement;
    use evpath::inproc_pair;

    #[test]
    fn relay_ships_samples_across_a_transport() {
        let (tx, rx) = inproc_pair();
        let mut relay = MonitorRelay::new(tx, 1);
        let mut sink = MonitorSink::new(rx);
        for step in 0..5 {
            relay.publish(MonitorEvent::DataSend, step, 3, 1000, 50);
        }
        assert_eq!(sink.drain(), 5);
        assert_eq!(sink.monitor().total_bytes(MonitorEvent::DataSend), 5000);
        assert_eq!(sink.monitor().count(MonitorEvent::DataSend), 5);
    }

    #[test]
    fn sampling_stride_thins_the_stream() {
        let (tx, rx) = inproc_pair();
        let mut relay = MonitorRelay::new(tx, 4);
        let mut sink = MonitorSink::new(rx);
        for step in 0..20 {
            relay.publish(MonitorEvent::SyncWait, step, 0, 0, 10);
        }
        // Only seq 0, 4, 8, 12, 16 cross.
        assert_eq!(sink.drain(), 5);
    }

    #[test]
    fn relayed_monitor_drives_placement_decisions() {
        // The §II.G loop end to end: remote samples → replica → manager.
        let (tx, rx) = inproc_pair();
        let mut relay = MonitorRelay::new(tx, 1);
        for step in 0..5 {
            relay.publish(MonitorEvent::DataSend, step, 0, 50 << 20, 0);
        }
        let mut sink = MonitorSink::new(rx);
        sink.drain();
        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::ReaderSide)
            .build_manager();
        let rec = mgr.decide(sink.monitor(), 0);
        assert_eq!(rec.placement, PluginPlacement::WriterSide);
    }

    #[test]
    fn garbage_is_ignored_and_unknown_events_are_skipped() {
        let (mut tx, rx) = inproc_pair();
        // Undecodable bytes and event-less records are ignored, and so is
        // a well-formed record with an event name this build does not
        // know: relay and sink are always the same build.
        tx.send(b"not a record");
        tx.send(&Record::new().with("step", FieldValue::U64(1)).encode());
        tx.send(
            &Record::new()
                .with("event", FieldValue::Str("gpu_kernel".into()))
                .with("step", FieldValue::U64(3))
                .with("rank", FieldValue::U64(0))
                .with("bytes", FieldValue::U64(512))
                .with("nanos", FieldValue::U64(9))
                .encode(),
        );
        let mut sink = MonitorSink::new(rx);
        assert_eq!(sink.drain(), 0);
    }

    #[test]
    fn sink_reports_a_dead_relay() {
        let (mut tx, rx) = inproc_pair();
        let mut relay_alive_sink = MonitorSink::new(rx);
        tx.send(
            &Record::new()
                .with("event", FieldValue::Str("data_send".into()))
                .with("step", FieldValue::U64(0))
                .with("rank", FieldValue::U64(0))
                .with("bytes", FieldValue::U64(8))
                .with("nanos", FieldValue::U64(1))
                .encode(),
        );
        assert_eq!(relay_alive_sink.drain(), 1);
        assert!(!relay_alive_sink.peer_closed(), "producer still holds the transport");
        drop(tx);
        assert_eq!(relay_alive_sink.drain(), 0);
        assert!(relay_alive_sink.peer_closed(), "drain must observe the producer's death");
    }
}
