//! The readiness contract at the protocol boundary: what `recv_record`
//! does — and which `ProtocolCounters` move — when the shared-memory
//! channel underneath reports each of `poll_recv`'s edge outcomes. The
//! corrupt frames are injected straight into the raw SPSC queue
//! (`ShmSender::inject_raw_frame`), beneath an *active* fault plan, so the
//! whole production receive stack (fault layer → evpath shm transport →
//! `recv_record`) is exercised, not a mock. The socket cases pin the
//! readiness wait: a blocking receive that parks waits in `poll(2)` on
//! the channel's fd, which timeouts, EOF and partial frames all wake.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evpath::socket::{raw_socket_pair, receiver_over, SocketKind, SocketSender};
use evpath::{EvReceiver, EvSender, FaultPlan, FaultSpec, FieldValue, Record, ShmTransport};
use flexio::link::{recv_record, ChannelId, LinkState, StreamError};
use flexio::{FlexIo, MonitorSink, ProtocolCounters, StreamHints, Transport};
use machine::{laptop, CoreLocation};
use shm::channel::shm_channel;

fn fast_hints() -> StreamHints {
    StreamHints { recv_timeout: Duration::from_millis(5), retries: 1, ..StreamHints::default() }
}

/// Wrap the receiving half in an active (non-noop) fault plan, as every
/// production channel under test is wrapped.
fn plan_wrapped(rx: Box<dyn EvReceiver>) -> (Arc<FaultPlan>, Box<dyn EvReceiver>) {
    let mut plan = FaultPlan::new(0xC0FFEE);
    // A crash threshold far beyond the test's traffic keeps the wrapper
    // installed (and counting) without ever firing.
    plan.set("data", FaultSpec { crash_receiver_after: Some(1 << 32), ..Default::default() });
    let plan = Arc::new(plan);
    let wrapped = plan.wrap_receiver("data", rx);
    (plan, wrapped)
}

fn record_bytes(tag: u64) -> Vec<u8> {
    Record::new().with("tag", FieldValue::U64(tag)).encode()
}

#[test]
fn corrupt_frames_surface_once_each_and_the_stream_recovers() {
    let (mut tx, rx) = shm_channel(16, 64);
    tx.send_copy(&record_bytes(1));
    tx.inject_raw_frame(&[9, 1, 2, 3]); // unknown kind byte
    tx.inject_raw_frame(&[]); // empty frame
    tx.send_copy(&record_bytes(2));
    let (_btx, brx) = ShmTransport::from_halves(tx, rx);
    let (_plan, mut rx) = plan_wrapped(brx);

    let hints = fast_hints();
    let counters = ProtocolCounters::new_shared();

    let first = recv_record(&mut rx, &hints, &counters).expect("valid frame before garbage");
    assert_eq!(first.get_u64("tag"), Some(1));
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 0);

    // Each corrupt frame is one definite, consumed event: an error and
    // exactly one counter bump — not a retry loop burning the budget.
    for expected in 1..=2u64 {
        let err = recv_record(&mut rx, &hints, &counters).expect_err("corrupt frame");
        assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}");
        assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), expected);
    }
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0, "no retry burned on corruption");

    // The channel is still usable past the damage.
    let last = recv_record(&mut rx, &hints, &counters).expect("valid frame after garbage");
    assert_eq!(last.get_u64("tag"), Some(2));
}

#[test]
fn peer_close_fails_fast_without_burning_the_retry_budget() {
    let (tx, rx) = shm_channel(16, 64);
    let (btx, brx) = ShmTransport::from_halves(tx, rx);
    let (_plan, mut rx) = plan_wrapped(brx);

    // Generous budget: with the old blind-retry scheme this would stall
    // 10s × (1 + 2 + 4) before giving up on a dead peer.
    let hints =
        StreamHints { recv_timeout: Duration::from_secs(10), retries: 2, ..StreamHints::default() };
    let counters = ProtocolCounters::new_shared();
    drop(btx); // producer dies; closed flag is ordered after its last push

    let start = Instant::now();
    let err = recv_record(&mut rx, &hints, &counters).expect_err("closed channel");
    assert_eq!(err, StreamError::Timeout, "mapped to the failure callers already handle");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "peer death must be immediate, not a timeout sweep ({:?})",
        start.elapsed()
    );
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
}

#[test]
fn push_then_drop_race_still_delivers_the_final_frame() {
    let (mut tx, rx) = shm_channel(16, 64);
    tx.send_copy(&record_bytes(7));
    let (btx, brx) = ShmTransport::from_halves(tx, rx);
    let (_plan, mut rx) = plan_wrapped(brx);
    drop(btx); // frame queued *before* the closed flag

    let hints = fast_hints();
    let counters = ProtocolCounters::new_shared();
    let r = recv_record(&mut rx, &hints, &counters).expect("frame pushed before close");
    assert_eq!(r.get_u64("tag"), Some(7));
    let err = recv_record(&mut rx, &hints, &counters).expect_err("now drained and closed");
    assert_eq!(err, StreamError::Timeout);
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
}

#[test]
fn empty_channel_exhausts_the_budget_and_counts_every_retry() {
    let (tx, rx) = shm_channel(16, 64);
    let (btx, brx) = ShmTransport::from_halves(tx, rx);
    let (_plan, mut rx) = plan_wrapped(brx);

    let hints = StreamHints {
        recv_timeout: Duration::from_millis(2),
        retries: 2,
        ..StreamHints::default()
    };
    let counters = ProtocolCounters::new_shared();
    let err = recv_record(&mut rx, &hints, &counters).expect_err("nothing ever arrives");
    assert_eq!(err, StreamError::Timeout);
    assert_eq!(counters.retries.load(Ordering::Relaxed), u64::from(hints.retries));
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 0, "sender still alive");
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 0);
    drop(btx);
}

#[test]
fn oversize_payload_rides_the_pooled_path_intact() {
    // Larger than the 64-byte inline capacity: the channel must hand it
    // off through the pooled (token) path, and the readiness poll must
    // reassemble it as an ordinary message — oversize is a path choice,
    // never an error.
    let (tx, rx) = shm_channel(16, 64);
    let (mut btx, brx) = ShmTransport::from_halves(tx, rx);
    let (_plan, mut rx) = plan_wrapped(brx);

    let big: Vec<u64> = (0..512).collect();
    let bytes = Record::new().with("big", FieldValue::U64Array(big.clone())).encode();
    assert!(bytes.len() > 64, "payload must exceed the inline capacity");
    btx.send(&bytes);

    // 4 KiB is exactly the zero-copy threshold: the array comes back as
    // a packed view into the receive buffer, materialised here so the
    // roundtrip can be compared element for element.
    let hints = fast_hints();
    let counters = ProtocolCounters::new_shared();
    let r = recv_record(&mut rx, &hints, &counters).expect("pooled frame");
    assert_eq!(r.get_packed("big").map(|p| p.to_u64_vec()), Some(big));
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 0);
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 0);
}

#[test]
fn socket_peer_close_counts_exact_like_shm_peer_close() {
    // Same fail-fast contract as `peer_close_fails_fast...`, but the
    // channel underneath is a real TCP stream: dropping the sender is the
    // wire-level analogue of a killed process.
    let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let (_plan, mut rx) = plan_wrapped(receiver_over(rx));
    let hints =
        StreamHints { recv_timeout: Duration::from_secs(10), retries: 2, ..StreamHints::default() };
    let counters = ProtocolCounters::new_shared();
    drop(tx);

    let start = Instant::now();
    let err = recv_record(&mut rx, &hints, &counters).expect_err("closed socket");
    assert_eq!(err, StreamError::Timeout);
    assert!(start.elapsed() < Duration::from_secs(2), "socket peer death must fail fast");
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
}

#[test]
fn socket_corruption_counts_once_then_the_stream_is_closed() {
    // A byte stream cannot resync after garbage: one Corrupt verdict,
    // then the poisoned channel reads as closed — and the counters book
    // exactly one of each.
    let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let mut tx = SocketSender::over(tx);
    tx.send(&record_bytes(3));
    tx.inject_raw_bytes(b"XXXXXXXXXXXX"); // bad magic mid-stream
    let (_plan, mut rx) = plan_wrapped(receiver_over(rx));

    let hints = fast_hints();
    let counters = ProtocolCounters::new_shared();
    let first = recv_record(&mut rx, &hints, &counters).expect("frame before the damage");
    assert_eq!(first.get_u64("tag"), Some(3));

    let err = recv_record(&mut rx, &hints, &counters).expect_err("corrupt frame");
    assert!(matches!(err, StreamError::Corrupt(_)), "got {err:?}");
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 1);

    let err = recv_record(&mut rx, &hints, &counters).expect_err("poisoned stream");
    assert_eq!(err, StreamError::Timeout, "poisoned socket reads as closed");
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 1, "corruption charged once");
}

#[test]
fn monitor_sink_mirrors_socket_peer_health_into_link_counters() {
    // Satellite contract: a MonitorSink draining a *socket* peer reports
    // closed/corrupt through the same shared ProtocolCounters the
    // data-plane channels charge — not just its local accessors.
    let (tx, rx) = raw_socket_pair(SocketKind::Uds);
    let mut tx = SocketSender::over(tx);
    let counters = ProtocolCounters::new_shared();
    let mut sink = MonitorSink::new(receiver_over(rx)).with_counters(Arc::clone(&counters));

    tx.inject_raw_bytes(b"????????"); // garbage where a frame header belongs
    drop(tx); // then the peer dies

    // Drain until the sink sees the close (header bytes may land across
    // two polls on a real socket).
    let deadline = Instant::now() + Duration::from_secs(5);
    while !sink.peer_closed() {
        assert!(Instant::now() < deadline, "sink never observed peer death");
        sink.drain();
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(sink.corrupt_frames(), 1, "local book keeps the corrupt frame");
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 1, "shared book matches");
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1, "peer death mirrored once");

    // Further drains must not double-charge the close.
    sink.drain();
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
}

#[test]
fn link_counters_record_peer_death_on_claimed_channels() {
    // Same contract one layer up: channels claimed through a LinkState
    // charge the *link's* shared counters, which is what the engines'
    // step accounting actually reads.
    let link = LinkState::for_tests();
    link.set_reader_info(1, vec![link.writer_cores[0]]);
    let id = ChannelId::Data { w: 0, r: 0 };
    let tx = link.claim_sender(id);
    let mut rx = link.claim_receiver(id);
    drop(tx);

    let hints = fast_hints();
    let err = recv_record(&mut rx, &hints, &link.counters).expect_err("peer gone");
    assert_eq!(err, StreamError::Timeout);
    assert_eq!(link.counters.closed_channels.load(Ordering::Relaxed), 1);
}

#[test]
fn an_empty_socket_times_out_on_the_retry_schedule() {
    let (_tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let mut rx = receiver_over(rx);
    let hints = fast_hints();
    let counters = ProtocolCounters::new_shared();
    let start = Instant::now();
    let err = recv_record(&mut rx, &hints, &counters).expect_err("nothing ever arrives");
    assert_eq!(err, StreamError::Timeout);
    // 5 ms, then 10 ms: waiting on the fd still runs out both attempts.
    assert!(start.elapsed() >= Duration::from_millis(15), "gave up early: {:?}", start.elapsed());
    assert_eq!(counters.retries.load(Ordering::Relaxed), 1);
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 0, "sender still alive");
}

#[test]
fn a_socket_peer_dropping_mid_wait_wakes_the_receiver() {
    let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let mut rx = receiver_over(rx);
    let hints =
        StreamHints { recv_timeout: Duration::from_secs(5), retries: 1, ..StreamHints::default() };
    let counters = ProtocolCounters::new_shared();
    let dropper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        drop(tx);
    });
    let start = Instant::now();
    let err = recv_record(&mut rx, &hints, &counters).expect_err("peer gone");
    assert_eq!(err, StreamError::Timeout);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "EOF must end the wait ({:?})",
        start.elapsed()
    );
    assert_eq!(counters.closed_channels.load(Ordering::Relaxed), 1);
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    dropper.join().unwrap();
}

#[test]
fn a_frame_trickling_in_arrives_as_one_record() {
    let (tx, rx) = raw_socket_pair(SocketKind::Tcp);
    let mut rx = receiver_over(rx);
    let payload = record_bytes(11);
    let mut frame = evpath::encode_frame_header(payload.len() as u32).to_vec();
    frame.extend_from_slice(&payload);
    let writer = std::thread::spawn(move || {
        let mut tx = SocketSender::over(tx);
        for piece in frame.chunks(frame.len().div_ceil(4)) {
            std::thread::sleep(Duration::from_millis(20));
            tx.inject_raw_bytes(piece);
        }
        tx
    });
    let hints =
        StreamHints { recv_timeout: Duration::from_secs(5), retries: 1, ..StreamHints::default() };
    let counters = ProtocolCounters::new_shared();
    let record = recv_record(&mut rx, &hints, &counters).expect("the whole frame");
    assert_eq!(record.get_u64("tag"), Some(11));
    assert_eq!(counters.corrupt_frames.load(Ordering::Relaxed), 0);
    assert_eq!(counters.retries.load(Ordering::Relaxed), 0);
    drop(writer.join().unwrap());
}

/// A 1x1 coupling's link on two cores of one node, opened with `hints`.
fn coupled_link(name: &str, hints: StreamHints) -> Arc<LinkState> {
    let io = FlexIo::single_node(laptop());
    let (wcore, rcore) =
        (CoreLocation { node: 0, numa: 0, core: 0 }, CoreLocation { node: 0, numa: 0, core: 1 });
    let w = io.open_writer(name, 0, 1, wcore, vec![wcore], hints.clone()).unwrap();
    let _r = io.open_reader(name, 0, 1, rcore, vec![rcore], hints).unwrap();
    Arc::clone(w.link())
}

#[test]
fn claimed_socket_channels_wait_on_their_fd_and_shm_channels_do_not() {
    let mut plan = FaultPlan::new(7);
    plan.set("mon", FaultSpec { crash_receiver_after: Some(1 << 32), ..Default::default() });
    let faulty = StreamHints { faults: Some(Arc::new(plan)), ..fast_hints() };
    for (transport, waits) in [(Transport::Tcp, true), (Transport::Shm, false)] {
        let hints = StreamHints { transport, ..faulty.clone() };
        let link = coupled_link(&format!("readiness-{transport:?}"), hints);
        // seq → fault → transport, as every faulted channel is stacked.
        let mut tx = link.claim_sender(ChannelId::Monitor);
        let mut rx = link.claim_receiver(ChannelId::Monitor);
        tx.send(&record_bytes(5));
        assert_eq!(rx.wait_readable(Duration::from_secs(5)), waits, "{transport:?}");
        let r = recv_record(&mut rx, &fast_hints(), &link.counters).expect("the sent record");
        assert_eq!(r.get_u64("tag"), Some(5));
    }
}
