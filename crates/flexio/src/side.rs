//! One program's plumbing for the step protocol: the star of side
//! channels between its ranks and its coordinator (rank 0), and the
//! coordinator's control channel to the peer program.
//!
//! Both engines hold a [`ProgramSide`] and run the rank↔coordinator legs
//! of every step through it — gather, broadcast, the 2PC report/collect/
//! release — so those legs exist once, not once per program. Channels are
//! claimed on first use: their transport depends on placement the link
//! may not know yet (the reader attaches after the writer opens). What the
//! messages carried over these channels contain is [`crate::protocol`]'s
//! business; which are sent when is the engines'.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use evpath::{BoxedReceiver, BoxedSender, Lease, Record, RecvPoll};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::{recv_frame_rt, ChannelId, LinkState};
use crate::protocol::{self, msg, ProtocolCounters};

/// Decode a received frame, which must be a message of one of the
/// `expect`ed kinds.
fn decode_kind(frame: Lease, expect: &[&str]) -> Result<Record, StreamError> {
    let m = Record::decode_leased(frame).map_err(|e| StreamError::Corrupt(e.to_string()))?;
    match protocol::kind_of(&m) {
        k if expect.contains(&k) => Ok(m),
        k => Err(StreamError::Protocol(format!("expected {}, got {k}", expect.join("/")))),
    }
}

/// The frame of the last message of one kind from one peer that parsed,
/// as owned bytes (never the lease: a receive buffer goes home with its
/// step). A frame equal to it is that message again: it is neither
/// decoded nor parsed, and what the last parse left behind stands. The
/// comparison is of the bytes themselves.
#[derive(Default)]
pub(crate) struct FrameMemo(Option<Vec<u8>>);

impl FrameMemo {
    /// `frame` decoded as a `kind` message and parsed, or `None` when it
    /// repeats the frame this memo holds; a frame that parsed is held.
    fn parse<T>(
        &mut self,
        frame: Lease,
        kind: &str,
        parse: impl FnOnce(Record) -> Result<T, StreamError>,
    ) -> Result<Option<T>, StreamError> {
        if self.0.as_deref() == Some(&frame[..]) {
            return Ok(None);
        }
        let mut held = self.0.take().unwrap_or_default();
        held.clear();
        held.extend_from_slice(&frame);
        let parsed = parse(decode_kind(frame, &[kind])?)?;
        self.0 = Some(held);
        Ok(Some(parsed))
    }

    /// Drop the held frame: the next one is parsed, whatever it is.
    pub(crate) fn forget(&mut self) {
        self.0 = None;
    }
}

/// Control-channel receiver with a pending queue so out-of-band messages
/// (plug-in updates) can be drained without losing in-band ones. Parked
/// frames stay undecoded: a frame's kind is read off its first field.
struct CtrlIn {
    rx: BoxedReceiver,
    pending: VecDeque<Lease>,
    counters: Arc<ProtocolCounters>,
    hints: StreamHints,
}

impl CtrlIn {
    fn new(rx: BoxedReceiver, counters: Arc<ProtocolCounters>, hints: StreamHints) -> CtrlIn {
        CtrlIn { rx, pending: VecDeque::new(), counters, hints }
    }

    /// Receive the next frame whose kind is in `expect`; any other frame
    /// encountered on the way is parked in the pending queue (to be found
    /// by a later `recv_frame` or [`Self::drain_kind`]).
    async fn recv_frame(&mut self, expect: &[&str]) -> Result<Lease, StreamError> {
        loop {
            let wanted = |f: &Lease| protocol::frame_kind(f).is_some_and(|k| expect.contains(&k));
            if let Some(idx) = self.pending.iter().position(wanted) {
                return Ok(self.pending.remove(idx).expect("index valid"));
            }
            let frame = recv_frame_rt(&mut self.rx, &self.hints, &self.counters).await?;
            if protocol::frame_kind(&frame).is_none() {
                return Err(StreamError::Corrupt("frame carries no message kind".into()));
            }
            self.pending.push_back(frame);
        }
    }

    /// Drain any immediately-available messages of `kind`. A frame the
    /// transport could not validate, or one that names no kind or does not
    /// decode, is counted in `corrupt_frames` (as [`recv_frame_rt`] counts
    /// the first) and the sweep goes on to what lies behind it.
    fn drain_kind(&mut self, kind: &str) -> Vec<Record> {
        loop {
            match self.rx.poll_lease() {
                RecvPoll::Msg(f) if protocol::frame_kind(&f).is_some() => self.pending.push_back(f),
                RecvPoll::Msg(_) | RecvPoll::Corrupt(_) => {
                    self.counters.bump(&self.counters.corrupt_frames)
                }
                RecvPoll::Empty | RecvPoll::Closed => break,
            }
        }
        // Taken out in place: the queue keeps its buffer, and a sweep that
        // finds nothing allocates nothing.
        let mut out = Vec::new();
        let mut at = 0;
        while at < self.pending.len() {
            if protocol::frame_kind(&self.pending[at]) != Some(kind) {
                at += 1;
                continue;
            }
            let frame = self.pending.remove(at).expect("index valid");
            match Record::decode_leased(frame) {
                Ok(r) => out.push(r),
                Err(_) => self.counters.bump(&self.counters.corrupt_frames),
            }
        }
        out
    }
}

/// Which of the two coupled programs a [`ProgramSide`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Program {
    Writer,
    Reader,
}

/// One rank's channels into the step protocol (see module docs), each
/// claimed from the link the first time it is used.
pub(crate) struct ProgramSide {
    link: Arc<LinkState>,
    program: Program,
    rank: usize,
    nranks: usize,
    hints: StreamHints,
    tx: HashMap<ChannelId, BoxedSender>,
    rx: HashMap<ChannelId, BoxedReceiver>,
    ctrl_in: Option<CtrlIn>,
}

impl ProgramSide {
    pub(crate) fn new(
        link: Arc<LinkState>,
        program: Program,
        rank: usize,
        nranks: usize,
        hints: StreamHints,
    ) -> ProgramSide {
        let (tx, rx) = (HashMap::new(), HashMap::new());
        ProgramSide { link, program, rank, nranks, hints, tx, rx, ctrl_in: None }
    }

    /// The side channel between this rank and `peer` (the coordinator's
    /// peers are its ranks, a rank's only peer is the coordinator).
    fn side_channel(&self, peer: usize, outbound: bool) -> ChannelId {
        let (rank, up) = if self.rank == 0 { (peer, !outbound) } else { (self.rank, outbound) };
        match self.program {
            Program::Writer => ChannelId::WriterSide { rank, up },
            Program::Reader => ChannelId::ReaderSide { rank, up },
        }
    }

    /// The channel between this rank and rank `peer` of the other program:
    /// data flows writer → reader, acks flow back.
    fn peer_channel(&self, peer: usize, outbound: bool) -> ChannelId {
        match (self.program, outbound) {
            (Program::Writer, true) => ChannelId::Data { w: self.rank, r: peer },
            (Program::Writer, false) => ChannelId::Ack { w: self.rank, r: peer },
            (Program::Reader, true) => ChannelId::Ack { w: peer, r: self.rank },
            (Program::Reader, false) => ChannelId::Data { w: peer, r: self.rank },
        }
    }

    /// The control channel between the two coordinators.
    fn ctrl_channel(&self, outbound: bool) -> ChannelId {
        if outbound == (self.program == Program::Writer) {
            ChannelId::ControlToReader
        } else {
            ChannelId::ControlToWriter
        }
    }

    fn sender(&mut self, id: ChannelId) -> &mut BoxedSender {
        self.tx.entry(id).or_insert_with(|| self.link.claim_sender(id))
    }

    /// The next frame on `id`, undecoded.
    async fn recv_frame(&mut self, id: ChannelId) -> Result<Lease, StreamError> {
        let rx = self.rx.entry(id).or_insert_with(|| self.link.claim_receiver(id));
        recv_frame_rt(rx, &self.hints, &self.link.counters).await
    }

    /// The next message on `id`, which must be of one of the `expect`ed
    /// kinds.
    async fn recv(&mut self, id: ChannelId, expect: &[&str]) -> Result<Record, StreamError> {
        decode_kind(self.recv_frame(id).await?, expect)
    }

    /// Sending half to rank `peer` of the other program (the data path
    /// sends segments, not a record).
    pub(crate) fn peer_tx(&mut self, peer: usize) -> &mut BoxedSender {
        self.sender(self.peer_channel(peer, true))
    }

    /// Rank `peer` of the other program → this rank.
    pub(crate) async fn peer_recv(
        &mut self,
        peer: usize,
        expect: &[&str],
    ) -> Result<Record, StreamError> {
        self.recv(self.peer_channel(peer, false), expect).await
    }

    /// Rank → coordinator, an encoded message.
    pub(crate) fn send_up(&mut self, frame: &[u8]) {
        self.sender(self.side_channel(0, true)).send(frame);
    }

    /// Coordinator → this rank.
    pub(crate) async fn recv_down(&mut self, expect: &[&str]) -> Result<Record, StreamError> {
        self.recv(self.side_channel(0, false), expect).await
    }

    /// Coordinator: receive one `kind` message from each of `ranks`, in
    /// order, and hand each rank's outcome to `each` (which decides whether
    /// a rank's failure fails the gather): its message as `parse` reads it,
    /// or `None` when its frame repeats the one `memos[r]` holds.
    pub(crate) async fn gather<T>(
        &mut self,
        ranks: impl IntoIterator<Item = usize>,
        kind: &str,
        memos: &mut [FrameMemo],
        parse: impl Fn(Record) -> Result<T, StreamError>,
        mut each: impl FnMut(usize, Result<Option<T>, StreamError>) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        for r in ranks {
            let frame = self.recv_frame(self.side_channel(r, false)).await;
            each(r, frame.and_then(|f| memos[r].parse(f, kind, &parse)))?;
        }
        Ok(())
    }

    /// Coordinator: send `make(r)` to each of `ranks`, counting every
    /// message in `class` when one is given.
    pub(crate) fn bcast(
        &mut self,
        ranks: impl IntoIterator<Item = usize>,
        class: Option<&AtomicU64>,
        mut make: impl FnMut(usize) -> Record,
    ) {
        for r in ranks {
            self.sender(self.side_channel(r, true)).send(&make(r).encode());
            if let Some(class) = class {
                self.link.counters.bump(class);
            }
        }
    }

    /// 2PC, rank leg: report `kind` (`txn_sent` / `txn_recv`) up and await
    /// the coordinator's commit.
    pub(crate) async fn txn_report(&mut self, kind: &str, step: u64) -> Result<(), StreamError> {
        self.send_up(&protocol::signal(kind, step, None).encode());
        self.recv_down(&[msg::TXN_COMMIT]).await.map(drop)
    }

    /// 2PC, coordinator leg 1: collect every rank's `kind` report.
    pub(crate) async fn txn_collect(&mut self, kind: &str) -> Result<(), StreamError> {
        for r in 1..self.nranks {
            self.recv(self.side_channel(r, false), &[kind]).await?;
        }
        Ok(())
    }

    /// 2PC, coordinator leg 2: release every rank with the commit.
    pub(crate) fn txn_release(&mut self, step: u64) {
        self.bcast(1..self.nranks, None, |_| protocol::signal(msg::TXN_COMMIT, step, None));
    }

    /// Coordinator → peer coordinator, an encoded message.
    pub(crate) fn ctrl_send(&mut self, frame: &[u8]) {
        self.sender(self.ctrl_channel(true)).send(frame);
    }

    fn ctrl_in(&mut self) -> &mut CtrlIn {
        let (id, link, hints) = (self.ctrl_channel(false), &self.link, &self.hints);
        self.ctrl_in.get_or_insert_with(|| {
            CtrlIn::new(link.claim_receiver(id), Arc::clone(&link.counters), hints.clone())
        })
    }

    /// Peer coordinator → this coordinator: the next message of one of the
    /// `expect`ed kinds (others wait their turn, see [`CtrlIn`]).
    pub(crate) async fn ctrl_recv(&mut self, expect: &[&str]) -> Result<Record, StreamError> {
        decode_kind(self.ctrl_in().recv_frame(expect).await?, expect)
    }

    /// [`Self::ctrl_recv`] of one `kind`, read by `parse` — or `None` when
    /// its frame repeats the one `memo` holds.
    pub(crate) async fn ctrl_recv_changed<T>(
        &mut self,
        kind: &str,
        memo: &mut FrameMemo,
        parse: impl FnOnce(Record) -> Result<T, StreamError>,
    ) -> Result<Option<T>, StreamError> {
        let frame = self.ctrl_in().recv_frame(&[kind]).await?;
        memo.parse(frame, kind, parse)
    }

    /// Everything of `kind` already waiting on the control channel.
    pub(crate) fn ctrl_drain(&mut self, kind: &str) -> Vec<Record> {
        self.ctrl_in().drain_kind(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evpath::ShmTransport;

    #[test]
    fn drain_counts_a_corrupt_frame_and_keeps_draining() {
        let update = protocol::plugin_update(&[]).encode();
        let (mut tx, rx) = shm::channel::shm_channel(16, 64);
        tx.send_copy(&update);
        tx.inject_raw_frame(&[9, 1, 2, 3]); // unknown frame kind: transport-level damage
        tx.send_copy(b"not an ffs record"); // valid frame, undecodable record
        tx.send_copy(&protocol::eos().encode());
        tx.send_copy(&update);
        let (_tx, rx) = ShmTransport::from_halves(tx, rx);
        let counters = ProtocolCounters::new_shared();
        let mut ctrl = CtrlIn::new(rx, Arc::clone(&counters), StreamHints::default());

        let drained = ctrl.drain_kind(msg::PLUGIN_UPDATE);
        assert_eq!(drained.len(), 2, "the update behind the damage is not lost");
        assert!(drained.iter().all(|r| protocol::kind_of(r) == msg::PLUGIN_UPDATE));
        assert_eq!(counters.snapshot().corrupt_frames, 2, "one bump per bad frame");
        // The in-band message swept up on the way is still there to receive.
        assert_eq!(ctrl.pending.len(), 1);
        assert_eq!(protocol::frame_kind(&ctrl.pending[0]), Some(msg::EOS));
    }
}
