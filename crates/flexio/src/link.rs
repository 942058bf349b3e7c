//! Connection management: the fabric of channels between the two coupled
//! programs, with transports auto-selected from placement (paper §II.A:
//! "intra- vs inter-node transports are automatically configured according
//! to the placements of communicating simulation and online analytics
//! processes").
//!
//! This file is the link itself: [`ChannelId`], the shared [`LinkState`]
//! both programs claim channel halves from, and the receive-with-retry
//! every protocol message arrives through. The hints a link is opened
//! with live in [`crate::hints`], the open calls in [`crate::context`],
//! the fault-time sequence framing in `seq`.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use evpath::{inproc_pair, BoxedReceiver, BoxedSender, Lease, NetTransport, Record, ShmTransport};
use machine::CoreLocation;
use netsim::NetSim;

// Callers outside the crate name the error as `flexio::link::StreamError`.
pub use crate::context::StreamError;
use crate::hints::{StreamHints, Transport};
use crate::monitor::PerfMonitor;
use crate::protocol::ProtocolCounters;
use crate::seq::{SeqReceiver, SeqSender};

/// Identifies one directed channel within a stream's link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelId {
    /// Data: writer rank → reader rank.
    Data {
        /// Writer rank.
        w: usize,
        /// Reader rank.
        r: usize,
    },
    /// Acks: reader rank → writer rank.
    Ack {
        /// Writer rank.
        w: usize,
        /// Reader rank.
        r: usize,
    },
    /// Coordinator control, writer coord → reader coord.
    ControlToReader,
    /// Coordinator control, reader coord → writer coord.
    ControlToWriter,
    /// Side channel within the writer program: rank ↔ coordinator.
    WriterSide {
        /// Rank.
        rank: usize,
        /// Direction: true = rank→coordinator.
        up: bool,
    },
    /// Side channel within the reader program: rank ↔ coordinator.
    ReaderSide {
        /// Rank.
        rank: usize,
        /// Direction: true = rank→coordinator.
        up: bool,
    },
    /// Monitoring relay: writer coordinator → reader coordinator. Off the
    /// data path; discovered through the directory like every other
    /// channel of the link.
    Monitor,
}

impl ChannelId {
    /// Stable human-readable label, the key fault plans target channels by
    /// (and the seed domain for per-channel fault RNG streams).
    pub fn label(&self) -> String {
        match self {
            ChannelId::Data { w, r } => format!("data:{w}->{r}"),
            ChannelId::Ack { w, r } => format!("ack:{r}->{w}"),
            ChannelId::ControlToReader => "ctrl:w2r".to_string(),
            ChannelId::ControlToWriter => "ctrl:r2w".to_string(),
            ChannelId::WriterSide { rank, up } => {
                format!("wside:{rank}:{}", if *up { "up" } else { "down" })
            }
            ChannelId::ReaderSide { rank, up } => {
                format!("rside:{rank}:{}", if *up { "up" } else { "down" })
            }
            ChannelId::Monitor => "mon:w2r".to_string(),
        }
    }
}

enum ParkedHalf {
    Sender(BoxedSender),
    Receiver(BoxedReceiver),
}

/// Shared state of one stream's link between the two programs. Created by
/// the writer coordinator, found by the reader coordinator through the
/// [`crate::DirectoryService`].
pub struct LinkState {
    /// Writer rank count.
    pub writer_count: usize,
    /// Writer rank core placements (index = rank).
    pub writer_cores: Vec<CoreLocation>,
    reader_info: Mutex<Option<(usize, Vec<CoreLocation>)>>,
    halves: Mutex<HashMap<ChannelId, ParkedHalf>>,
    net: Option<NetSim>,
    /// Protocol counters shared by both sides.
    pub counters: Arc<ProtocolCounters>,
    /// Performance monitor shared by both sides.
    pub monitor: PerfMonitor,
    /// The hints the link was opened with (the writer's): queue geometry
    /// and transport for every channel, and the fault schedule both sides
    /// observe as one deterministic plan.
    hints: StreamHints,
    /// Reader ranks written off after repeated ack timeouts. The writer
    /// plans later steps around them; they never receive data again.
    evicted: Mutex<HashSet<usize>>,
    /// Cross-process channel factory. When set, this link half lives in
    /// its own OS process: channels are real sockets dialed through the
    /// fabric instead of halves parked in shared memory.
    fabric: Option<Arc<crate::procnet::ProcFabric>>,
    /// A pub/sub stream's log, set once by the publisher's rank 0 before
    /// it registers `pubsub:<stream>`: reader groups and the other
    /// publisher ranks find the log through the same directory lookup
    /// (or bulletin) that resolves stream contacts.
    pub(crate) pubsub_log: OnceLock<Arc<crate::pubsub::StreamLog>>,
}

impl LinkState {
    /// A link for `writer_count` writer ranks. With a `fabric` this half
    /// belongs to a rank process of a cross-process coupling: every
    /// channel is a socket the fabric makes, so nothing is ever parked
    /// for a peer (there is no shared address space to park it in).
    pub(crate) fn new(
        writer_count: usize,
        writer_cores: Vec<CoreLocation>,
        net: Option<NetSim>,
        hints: &StreamHints,
        fabric: Option<Arc<crate::procnet::ProcFabric>>,
    ) -> Arc<LinkState> {
        Arc::new(LinkState {
            writer_count,
            writer_cores,
            reader_info: Mutex::new(None),
            halves: Mutex::new(HashMap::new()),
            net,
            counters: ProtocolCounters::new_shared(),
            monitor: PerfMonitor::new(),
            hints: hints.clone(),
            evicted: Mutex::new(HashSet::new()),
            fabric,
            pubsub_log: OnceLock::new(),
        })
    }

    /// Minimal link for unit tests.
    pub fn for_tests() -> Arc<LinkState> {
        LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            None,
            &StreamHints::default(),
            None,
        )
    }

    /// The reader coordinator announces its side.
    pub fn set_reader_info(&self, count: usize, cores: Vec<CoreLocation>) {
        let mut ri = self.reader_info.lock().unwrap();
        assert!(ri.is_none(), "reader already attached to this stream");
        *ri = Some((count, cores));
    }

    /// The reader side's `(count, cores)`, once it has attached. Across
    /// processes the attach is a connection waiting at this rank's hub,
    /// and this probe is what takes it.
    pub fn try_reader_info(&self) -> Option<(usize, Vec<CoreLocation>)> {
        let mut info = self.reader_info.lock().unwrap();
        if info.is_none() {
            let attached = self.fabric.as_ref().and_then(|fabric| fabric.take_attach());
            *info = attached.map(|cores| (cores.len(), cores));
        }
        info.clone()
    }

    /// Wait until the reader side has attached; returns `(count, cores)`.
    pub fn wait_reader_info(&self, timeout: Duration) -> Option<(usize, Vec<CoreLocation>)> {
        flexio_reactor::block_inline(flexio_reactor::poll_for(timeout, || self.try_reader_info()))
    }

    fn endpoints_of(&self, id: ChannelId) -> (CoreLocation, CoreLocation) {
        let reader_cores = || {
            let info = self.reader_info.lock().unwrap().clone();
            info.expect("reader info needed for channel placement").1
        };
        match id {
            ChannelId::Data { w, r } => (self.writer_cores[w], reader_cores()[r]),
            ChannelId::Ack { w, r } => (reader_cores()[r], self.writer_cores[w]),
            ChannelId::ControlToReader => (self.writer_cores[0], reader_cores()[0]),
            ChannelId::ControlToWriter => (reader_cores()[0], self.writer_cores[0]),
            ChannelId::WriterSide { rank, up } => {
                let (a, b) = (self.writer_cores[rank], self.writer_cores[0]);
                if up {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            ChannelId::ReaderSide { rank, up } => {
                let cores = reader_cores();
                let (a, b) = (cores[rank], cores[0]);
                if up {
                    (a, b)
                } else {
                    (b, a)
                }
            }
            ChannelId::Monitor => (self.writer_cores[0], reader_cores()[0]),
        }
    }

    /// Build the right transport for a channel given its endpoints'
    /// placement: shared memory on-node, RDMA across nodes, in-proc when
    /// both endpoints are the *same core* (inline placement). An explicit
    /// `transport` hint (or `FLEXIO_TRANSPORT`) overrides placement and
    /// forces every channel onto one backend.
    fn make_transport(&self, src: CoreLocation, dst: CoreLocation) -> (BoxedSender, BoxedReceiver) {
        let hints = &self.hints;
        match hints.transport {
            Transport::Auto => {}
            Transport::Shm => {
                return ShmTransport::pair(hints.queue_entries, hints.inline_capacity)
            }
            Transport::Tcp | Transport::Uds => {
                let kind = if hints.transport == Transport::Tcp {
                    evpath::SocketKind::Tcp
                } else {
                    evpath::SocketKind::Uds
                };
                let (tx, rx) = evpath::socket::raw_socket_pair(kind);
                let mut receiver = evpath::SocketReceiver::over(rx);
                receiver.set_max_frame(hints.net_max_frame);
                return (evpath::sender_over(tx), Box::new(receiver));
            }
        }
        if src == dst {
            return inproc_pair();
        }
        if src.same_node(&dst) {
            return ShmTransport::pair(hints.queue_entries, hints.inline_capacity);
        }
        match &self.net {
            Some(net) => NetTransport::pair(net, src.node, dst.node),
            // Without a network model (single-node tests), fall back to
            // the in-process transport.
            None => inproc_pair(),
        }
    }

    /// Claim the sending half of a channel, creating the pair on first
    /// claim and parking the other half for the peer. With a fault plan
    /// installed the half is wrapped: protocol → seq framing → fault layer
    /// → raw transport.
    pub fn claim_sender(&self, id: ChannelId) -> BoxedSender {
        let raw = if let Some(fabric) = &self.fabric {
            fabric.make_sender(id)
        } else {
            let mut halves = self.halves.lock().unwrap();
            if let Some(ParkedHalf::Sender(s)) = halves.remove(&id) {
                s
            } else {
                let (src, dst) = self.endpoints_of(id);
                let (tx, rx) = self.make_transport(src, dst);
                halves.insert(id, ParkedHalf::Receiver(rx));
                tx
            }
        };
        match &self.hints.faults {
            None => raw,
            Some(plan) => Box::new(SeqSender::new(plan.wrap_sender(&id.label(), raw))),
        }
    }

    /// Claim the receiving half of a channel (see [`Self::claim_sender`]).
    pub fn claim_receiver(&self, id: ChannelId) -> BoxedReceiver {
        let raw = if let Some(fabric) = &self.fabric {
            fabric.make_receiver(id)
        } else {
            let mut halves = self.halves.lock().unwrap();
            if let Some(ParkedHalf::Receiver(r)) = halves.remove(&id) {
                r
            } else {
                let (src, dst) = self.endpoints_of(id);
                let (tx, rx) = self.make_transport(src, dst);
                halves.insert(id, ParkedHalf::Sender(tx));
                rx
            }
        };
        match &self.hints.faults {
            None => raw,
            Some(plan) => Box::new(SeqReceiver::new(
                plan.wrap_receiver(&id.label(), raw),
                Arc::clone(&self.counters),
            )),
        }
    }

    /// Write a reader rank off as dead. Returns true on the first eviction
    /// of that rank (callers bump the eviction counter exactly once).
    pub fn evict_reader(&self, rank: usize) -> bool {
        self.evicted.lock().unwrap().insert(rank)
    }

    /// Reader ranks evicted so far.
    pub fn evicted_readers(&self) -> HashSet<usize> {
        self.evicted.lock().unwrap().clone()
    }

    /// Whether a reader rank has been evicted.
    pub fn is_evicted(&self, rank: usize) -> bool {
        self.evicted.lock().unwrap().contains(&rank)
    }
}

/// Receive a [`Record`] with the timeout-and-retry resiliency scheme
/// (§II.H: "the current version uses simple timeout-and-retry schemes to
/// cope with errors and failures during data movement"), on `retry_rt`'s
/// schedule; every attempt after the first bumps
/// [`ProtocolCounters::retries`].
pub async fn recv_record_rt(
    rx: &mut BoxedReceiver,
    hints: &StreamHints,
    counters: &ProtocolCounters,
) -> Result<Record, StreamError> {
    // Decoded against the receive buffer itself (on shm, the pool slot):
    // large array payloads come back as zero-copy views that keep the
    // frame leased for as long as they live.
    let frame = recv_frame_rt(rx, hints, counters).await?;
    Record::decode_leased(frame).map_err(|e| StreamError::Corrupt(e.to_string()))
}

/// [`recv_record_rt`]'s receive, the frame left undecoded.
pub(crate) async fn recv_frame_rt(
    rx: &mut BoxedReceiver,
    hints: &StreamHints,
    counters: &ProtocolCounters,
) -> Result<Lease, StreamError> {
    let probe = |rx: &mut BoxedReceiver| match rx.poll_lease() {
        evpath::RecvPoll::Msg(frame) => Some(Ok(frame)),
        evpath::RecvPoll::Corrupt(reason) => {
            // A consumed-but-invalid frame is a definite event, not a
            // reason to retry until the budget runs out.
            counters.bump(&counters.corrupt_frames);
            Some(Err(StreamError::Corrupt(format!("transport frame: {reason}"))))
        }
        evpath::RecvPoll::Closed => {
            // The peer is gone and the queue drained: fail as an exhausted
            // budget would (the callers' EOS synthesis and reader eviction
            // are the right degradation), without burning the budget.
            counters.bump(&counters.closed_channels);
            Some(Err(StreamError::Timeout))
        }
        evpath::RecvPoll::Empty => None,
    };
    let retried = || counters.bump(&counters.retries);
    let wait = |rx: &mut BoxedReceiver, left| rx.wait_readable(left);
    retry_rt(hints.recv_timeout, hints.retries, retried, rx, probe, wait)
        .await
        .unwrap_or(Err(StreamError::Timeout))
}

/// The timeout-and-retry schedule: attempt `i` polls `probe(src)` for a
/// budget of `recv_timeout × 2^min(i, 3)` — exponential backoff, so a
/// transiently slow peer (delay faults, long simulation phases) gets
/// progressively more slack; the product saturates, so `Duration::MAX`
/// waits forever — and `on_retry` runs before every attempt after the
/// first. `None` once every attempt ran out.
///
/// Each attempt is one [`flexio_reactor::poll_for_on`]: inside a reactor
/// its pauses yield to the event loop, so one core holds many receives
/// open at once; on a plain thread they spin, yield, then park — in
/// `wait(src, time left)` (a socket's `poll(2)`, which wakes when the
/// peer's bytes land) or, where `wait` has nothing to block on, in
/// bounded sleeps — so a reader blocked across a long simulation phase
/// does not burn the helper core the placement gave it.
pub(crate) async fn retry_rt<S: ?Sized, T>(
    recv_timeout: Duration,
    retries: u32,
    mut on_retry: impl FnMut(),
    src: &mut S,
    mut probe: impl FnMut(&mut S) -> Option<T>,
    mut wait: impl FnMut(&mut S, Duration) -> bool,
) -> Option<T> {
    for attempt in 0..=retries {
        if attempt > 0 {
            on_retry();
        }
        let budget = recv_timeout.saturating_mul(1 << attempt.min(3));
        if let Some(found) = flexio_reactor::poll_for_on(budget, src, &mut probe, &mut wait).await {
            return Some(found);
        }
    }
    None
}

/// [`recv_record_rt`] as a blocking call.
pub fn recv_record(
    rx: &mut BoxedReceiver,
    hints: &StreamHints,
    counters: &ProtocolCounters,
) -> Result<Record, StreamError> {
    flexio_reactor::block_inline(recv_record_rt(rx, hints, counters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    /// Hints that leave the transport to placement, whatever
    /// `FLEXIO_TRANSPORT` forces on the defaults.
    fn placed_hints() -> StreamHints {
        StreamHints { transport: Transport::Auto, ..StreamHints::default() }
    }

    fn link_with_cores() -> Arc<LinkState> {
        let link = LinkState::new(
            2,
            vec![
                CoreLocation { node: 0, numa: 0, core: 0 },
                CoreLocation { node: 0, numa: 0, core: 1 },
            ],
            None,
            &placed_hints(),
            None,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 0, numa: 1, core: 0 }]);
        link
    }

    #[test]
    fn claim_pairs_connect() {
        let link = link_with_cores();
        let id = ChannelId::Data { w: 1, r: 0 };
        let mut tx = link.claim_sender(id);
        let mut rx = link.claim_receiver(id);
        tx.send(b"through the link");
        assert_eq!(rx.recv(), b"through the link");
    }

    #[test]
    fn claim_order_is_irrelevant() {
        let link = link_with_cores();
        let id = ChannelId::Ack { w: 0, r: 0 };
        let link2 = Arc::clone(&link);
        let t = thread::spawn(move || {
            let mut rx = link2.claim_receiver(id);
            rx.recv()
        });
        thread::sleep(Duration::from_millis(10));
        let mut tx = link.claim_sender(id);
        tx.send(b"late sender");
        assert_eq!(t.join().unwrap(), b"late sender");
    }

    #[test]
    fn same_core_uses_inproc_and_same_node_uses_shm() {
        let link = link_with_cores();
        // Writer rank 0 -> writer coordinator is the same core: inproc.
        let tx = link.claim_sender(ChannelId::WriterSide { rank: 0, up: true });
        assert_eq!(tx.transport_name(), "inproc");
        // Writer 1 (node0/numa0) -> reader 0 (node0/numa1): shared memory.
        let tx = link.claim_sender(ChannelId::Data { w: 1, r: 0 });
        assert_eq!(tx.transport_name(), "shm");
    }

    #[test]
    fn cross_node_uses_rdma() {
        let link = LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            Some(NetSim::new(machine::InterconnectParams::gemini(), 2)),
            &placed_hints(),
            None,
        );
        link.set_reader_info(1, vec![CoreLocation { node: 1, numa: 0, core: 0 }]);
        let tx = link.claim_sender(ChannelId::Data { w: 0, r: 0 });
        assert_eq!(tx.transport_name(), "rdma");
    }

    #[test]
    fn wait_reader_info_blocks_and_delivers() {
        let link = LinkState::new(
            1,
            vec![CoreLocation { node: 0, numa: 0, core: 0 }],
            None,
            &StreamHints::default(),
            None,
        );
        let l2 = Arc::clone(&link);
        let t = thread::spawn(move || l2.wait_reader_info(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(10));
        link.set_reader_info(3, vec![CoreLocation { node: 0, numa: 0, core: 1 }; 3]);
        let (count, cores) = t.join().unwrap().unwrap();
        assert_eq!(count, 3);
        assert_eq!(cores.len(), 3);
    }

    #[test]
    fn recv_record_times_out_and_counts_retries() {
        let (_tx, mut rx) = inproc_pair();
        let hints = StreamHints {
            recv_timeout: Duration::from_millis(5),
            retries: 2,
            ..Default::default()
        };
        let counters = ProtocolCounters::new_shared();
        let err = recv_record(&mut rx, &hints, &counters);
        assert_eq!(err, Err(StreamError::Timeout));
        assert_eq!(counters.snapshot().retries, 2, "one bump per retry attempt");
    }

    #[test]
    fn recv_record_backs_off_exponentially() {
        // 3 retries at 5ms base: 5 + 10 + 20 + 40 = 75ms minimum.
        let (_tx, mut rx) = inproc_pair();
        let hints = StreamHints {
            recv_timeout: Duration::from_millis(5),
            retries: 3,
            ..Default::default()
        };
        let counters = ProtocolCounters::new_shared();
        let start = Instant::now();
        let err = recv_record(&mut rx, &hints, &counters);
        assert_eq!(err, Err(StreamError::Timeout));
        assert!(
            start.elapsed() >= Duration::from_millis(75),
            "attempts must back off, not retry at a fixed pace (took {:?})",
            start.elapsed()
        );
    }

    #[test]
    fn an_unbounded_recv_timeout_returns_a_queued_message() {
        let (mut tx, mut rx) = inproc_pair();
        let record = crate::protocol::message("go");
        tx.send(&record.encode());
        let hints = StreamHints { recv_timeout: Duration::MAX, ..Default::default() };
        let counters = ProtocolCounters::new_shared();
        let got = recv_record(&mut rx, &hints, &counters).expect("the queued message");
        assert_eq!(got, record);
    }
}
