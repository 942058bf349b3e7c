//! Pluggable byte transports beneath the messaging layer.
//!
//! "The choice of low level transport is automatically configured
//! according to the placement of online analytics" (§II.A): FlexIO holds a
//! boxed [`EvSender`]/[`EvReceiver`] pair and never cares whether bytes
//! move through an in-process channel, the lock-free shared-memory channel
//! (intra-node placement) or the simulated RDMA fabric (inter-node
//! placement).

use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Duration;

use netsim::{NetSim, Port, PortAddress, Registration};
use shm::channel::{shm_channel, ShmReceiver, ShmSender};
use shm::Lease;

use crate::ffs::EncodedRecord;

/// Sending side of a byte transport.
pub trait EvSender: Send {
    /// Deliver one message given as scatter-gather segments (header +
    /// payload slices): the message is their concatenation, and ordering
    /// per sender is preserved. Each transport writes the segments where
    /// the message goes (the shm entry or pool slot, the socket) without
    /// assembling them first, unless it needs one flat message.
    fn send_vectored(&mut self, segments: &[&[u8]]);

    /// Deliver one message.
    fn send(&mut self, payload: &[u8]) {
        self.send_vectored(&[payload]);
    }

    /// Deliver one encoded record: by default its slices, vectored. A
    /// transport that can hand the receiver the record's shared payload
    /// buffers themselves (the shm channel's exposed path) overrides this;
    /// wrappers that reframe a message (sequencing, fault injection) keep
    /// the default, so their streams carry every byte.
    fn send_encoded(&mut self, enc: &EncodedRecord<'_>) {
        self.send_vectored(&enc.as_slices());
    }

    /// Human-readable transport name (for monitoring traces).
    fn transport_name(&self) -> &'static str;
}

/// Outcome of one non-blocking readiness poll on a receiver, carrying the
/// message as a [`Lease`] on the receive buffer ([`EvReceiver::poll_lease`])
/// or, by default, as an owned vector ([`EvReceiver::poll_recv`]).
///
/// `Option<Vec<u8>>` is too lossy for an event-loop runtime (and was
/// silently conflating real failures with "nothing yet"): the reactor
/// must distinguish *try again later* from *this channel will never
/// produce another message* from *this frame arrived damaged*.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvPoll<M = Vec<u8>> {
    /// A message was ready and has been dequeued.
    Msg(M),
    /// Nothing queued right now; poll again later.
    Empty,
    /// The queue is drained and the peer endpoint is gone — no further
    /// message can ever arrive. Transports that cannot observe peer
    /// death (the RDMA fabric has no connection state) never report it.
    Closed,
    /// A frame arrived but failed validation; it has been consumed. The
    /// reason is the shm channel's corruption diagnostic.
    Corrupt(&'static str),
}

impl<M> RecvPoll<M> {
    /// Convert the message, keeping every other outcome.
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> RecvPoll<N> {
        match self {
            RecvPoll::Msg(m) => RecvPoll::Msg(f(m)),
            RecvPoll::Empty => RecvPoll::Empty,
            RecvPoll::Closed => RecvPoll::Closed,
            RecvPoll::Corrupt(reason) => RecvPoll::Corrupt(reason),
        }
    }
}

/// Receiving side of a byte transport.
pub trait EvReceiver: Send {
    /// Non-blocking readiness poll handing out the receive buffer itself:
    /// the message stays where the transport received it (a pool buffer on
    /// the shm and socket paths) and the storage goes home when the lease,
    /// and every view decoded out of it, drops. Never blocks; `Empty` means
    /// "look again", every other variant is a definite event.
    fn poll_lease(&mut self) -> RecvPoll<Lease>;

    /// [`poll_lease`](Self::poll_lease) with the message as an owned
    /// vector (one copy when the lease is on a pool buffer).
    fn poll_recv(&mut self) -> RecvPoll {
        self.poll_lease().map(Lease::into_vec)
    }

    /// Block until the next [`poll_lease`](Self::poll_lease) may find
    /// something (the fd is readable, at EOF or in error) or `timeout`
    /// passes. `false` means this transport has nothing to block on and
    /// the caller should sleep instead: the default, and every transport
    /// but a socket.
    fn wait_readable(&mut self, _timeout: Duration) -> bool {
        false
    }

    /// Blocking receive of the next message: polls, spinning briefly and
    /// then yielding the core. A corrupt frame is consumed and skipped — to
    /// this caller it is a message the fabric lost. Panics once the channel
    /// is closed.
    fn recv(&mut self) -> Vec<u8> {
        let mut idle = 0u32;
        loop {
            match self.poll_recv() {
                RecvPoll::Msg(m) => return m,
                RecvPoll::Corrupt(_) => {}
                RecvPoll::Closed => panic!("channel closed"),
                RecvPoll::Empty if idle < 64 => {
                    idle += 1;
                    std::hint::spin_loop();
                }
                RecvPoll::Empty => std::thread::yield_now(),
            }
        }
    }

    /// Non-blocking receive, for drain-style callers that treat every
    /// non-message outcome as "stop draining". New code that must react
    /// to closed/corrupt channels uses [`poll_recv`](Self::poll_recv).
    fn try_recv(&mut self) -> Option<Vec<u8>> {
        match self.poll_recv() {
            RecvPoll::Msg(m) => Some(m),
            RecvPoll::Empty | RecvPoll::Closed | RecvPoll::Corrupt(_) => None,
        }
    }
}

/// Boxed sender, the form FlexIO stores.
pub type BoxedSender = Box<dyn EvSender>;
/// Boxed receiver, the form FlexIO stores.
pub type BoxedReceiver = Box<dyn EvReceiver>;

// ---------------------------------------------------------------- in-proc

struct InprocSender(Sender<Vec<u8>>);
struct InprocReceiver(Receiver<Vec<u8>>);

/// An in-process channel transport (same-address-space coupling, used for
/// inline placement and tests).
pub fn inproc_pair() -> (BoxedSender, BoxedReceiver) {
    let (tx, rx) = channel();
    (Box::new(InprocSender(tx)), Box::new(InprocReceiver(rx)))
}

impl EvSender for InprocSender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // Assemble the message once and hand the vector over.
        let _ = self.0.send(segments.concat());
    }

    fn transport_name(&self) -> &'static str {
        "inproc"
    }
}

impl EvReceiver for InprocReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        match self.0.try_recv() {
            Ok(msg) => RecvPoll::Msg(msg.into()),
            Err(TryRecvError::Empty) => RecvPoll::Empty,
            Err(TryRecvError::Disconnected) => RecvPoll::Closed,
        }
    }
}

// ------------------------------------------------------------------- shm

/// The intra-node transport: the FastForward queue + buffer pool from the
/// [`shm`] crate.
pub struct ShmTransport;

impl ShmTransport {
    /// Create a connected sender/receiver pair with `entries` queue slots
    /// of `inline_capacity` bytes.
    pub fn pair(entries: usize, inline_capacity: usize) -> (BoxedSender, BoxedReceiver) {
        let (tx, rx) = shm_channel(entries, inline_capacity);
        ShmTransport::from_halves(tx, rx)
    }

    /// Wrap pre-built channel halves. Fault-injection tests construct the
    /// raw channel themselves so they can poke frames straight into the
    /// queue (`ShmSender::inject_raw_frame`) before handing the receiving
    /// half to the protocol stack.
    pub fn from_halves(tx: ShmSender, rx: ShmReceiver) -> (BoxedSender, BoxedReceiver) {
        (Box::new(ShmTransportSender(tx)), Box::new(ShmTransportReceiver(rx)))
    }
}

struct ShmTransportSender(ShmSender);
struct ShmTransportReceiver(ShmReceiver);

impl EvSender for ShmTransportSender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // Segments land directly in the pool slot (or the queue entry): one
        // producer-side copy, and the first bulk segment 8-byte aligned.
        self.0.send_copy_vectored(segments);
    }

    fn send_encoded(&mut self, enc: &EncodedRecord<'_>) {
        // Every bulk payload a view of a shared buffer: only the metadata
        // is copied, into the queue entry, and the receiver decodes views
        // of the sender's own buffers. Otherwise, or when the metadata
        // does not fit an entry, the message is copied as usual.
        if let Some(windows) = enc.windows() {
            if self.0.send_exposed(enc.meta(), windows) {
                return;
            }
        }
        self.send_vectored(&enc.as_slices());
    }

    fn transport_name(&self) -> &'static str {
        "shm"
    }
}

impl EvReceiver for ShmTransportReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        match self.0.try_recv() {
            Ok(Some(msg)) => RecvPoll::Msg(msg),
            Ok(None) => {
                if self.0.peer_closed() {
                    // The closed flag is set *after* the producer's last
                    // push, so one recheck closes the push-then-drop race:
                    // after the flag reads true no new frame can appear.
                    match self.0.try_recv() {
                        Ok(Some(msg)) => RecvPoll::Msg(msg),
                        Ok(None) => RecvPoll::Closed,
                        Err(e) => RecvPoll::Corrupt(e.reason()),
                    }
                } else {
                    RecvPoll::Empty
                }
            }
            Err(e) => RecvPoll::Corrupt(e.reason()),
        }
    }
}

// ------------------------------------------------------------------- net

/// The inter-node transport: a port pair on the simulated RDMA fabric.
pub struct NetTransport;

impl NetTransport {
    /// Open a connected pair between `src_node` and `dst_node` on `net`,
    /// using the registration cache (the paper's tuned configuration).
    pub fn pair(net: &NetSim, src_node: usize, dst_node: usize) -> (BoxedSender, BoxedReceiver) {
        let src = net.open_port(src_node);
        let dst = net.open_port(dst_node);
        let dst_addr = dst.address();
        (
            Box::new(NetTransportSender { port: src, peer: dst_addr }),
            Box::new(NetTransportReceiver { port: dst }),
        )
    }
}

struct NetTransportSender {
    port: Port,
    peer: PortAddress,
}

struct NetTransportReceiver {
    port: Port,
}

impl EvSender for NetTransportSender {
    fn send_vectored(&mut self, segments: &[&[u8]]) {
        // The fabric sends one flat buffer; a one-segment message is one.
        let flat;
        let payload = match segments {
            [payload] => *payload,
            _ => {
                flat = segments.concat();
                &flat
            }
        };
        self.port.send(&self.peer, payload, Registration::Cached);
    }

    fn transport_name(&self) -> &'static str {
        "rdma"
    }
}

impl EvReceiver for NetTransportReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        // RDMA has no connection teardown signal: a vanished peer looks
        // exactly like silence, so this transport never reports `Closed`
        // and the protocol's timeout machinery owns that failure mode.
        match self.port.try_recv() {
            Some((payload, _)) => RecvPoll::Msg(payload.into()),
            None => RecvPoll::Empty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::InterconnectParams;

    fn exercise(mut tx: BoxedSender, mut rx: BoxedReceiver) {
        // Drive the two halves from separate threads: bounded transports
        // (the shm queue) backpressure the sender, so a single-threaded
        // send-all-then-receive-all loop would deadlock — by design.
        let sender = std::thread::spawn(move || {
            for i in 0u64..50 {
                let size = if i % 4 == 0 { 100_000 } else { 16 };
                let mut payload = vec![0u8; size];
                payload[..8].copy_from_slice(&i.to_le_bytes());
                tx.send(&payload);
            }
        });
        for i in 0u64..50 {
            let got = rx.recv();
            assert_eq!(u64::from_le_bytes(got[..8].try_into().unwrap()), i);
        }
        sender.join().unwrap();
        assert!(rx.try_recv().is_none());
    }

    #[test]
    fn inproc_transport() {
        let (tx, rx) = inproc_pair();
        assert_eq!(tx.transport_name(), "inproc");
        exercise(tx, rx);
    }

    #[test]
    fn shm_transport() {
        let (tx, rx) = ShmTransport::pair(32, 256);
        assert_eq!(tx.transport_name(), "shm");
        exercise(tx, rx);
    }

    #[test]
    fn net_transport() {
        let net = NetSim::new(InterconnectParams::gemini(), 2);
        let (tx, rx) = NetTransport::pair(&net, 0, 1);
        assert_eq!(tx.transport_name(), "rdma");
        exercise(tx, rx);
    }

    #[test]
    fn transports_are_interchangeable_behind_the_trait() {
        // The same driver code runs over all three — the property FlexIO's
        // placement flexibility rests on.
        let net = NetSim::new(InterconnectParams::gemini(), 2);
        let pairs: Vec<(BoxedSender, BoxedReceiver)> =
            vec![inproc_pair(), ShmTransport::pair(16, 128), NetTransport::pair(&net, 0, 1)];
        for (mut tx, mut rx) in pairs {
            tx.send(b"same code everywhere");
            assert_eq!(rx.recv(), b"same code everywhere");
        }
    }
}
