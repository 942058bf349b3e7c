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

use evpath::{BoxedReceiver, BoxedSender, Record, RecvPoll};

use crate::context::StreamError;
use crate::hints::StreamHints;
use crate::link::{recv_record_rt, ChannelId, LinkState};
use crate::protocol::{self, msg, ProtocolCounters};

/// Control-channel receiver with a pending queue so out-of-band messages
/// (plug-in updates) can be drained without losing in-band ones.
struct CtrlIn {
    rx: BoxedReceiver,
    pending: VecDeque<Record>,
    counters: Arc<ProtocolCounters>,
    hints: StreamHints,
}

impl CtrlIn {
    fn new(rx: BoxedReceiver, counters: Arc<ProtocolCounters>, hints: StreamHints) -> CtrlIn {
        CtrlIn { rx, pending: VecDeque::new(), counters, hints }
    }

    /// Receive the next message whose kind is in `expect`; any other
    /// message encountered on the way is parked in the pending queue (to
    /// be found by a later `recv_expect` or [`Self::drain_kind`]).
    async fn recv_expect(&mut self, expect: &[&str]) -> Result<Record, StreamError> {
        loop {
            let wanted = |r: &Record| expect.contains(&protocol::kind_of(r));
            if let Some(idx) = self.pending.iter().position(wanted) {
                return Ok(self.pending.remove(idx).expect("index valid"));
            }
            let record = recv_record_rt(&mut self.rx, &self.hints, &self.counters).await?;
            self.pending.push_back(record);
        }
    }

    /// Drain any immediately-available messages of `kind`. A frame the
    /// transport could not validate, or a record that does not decode, is
    /// counted in `corrupt_frames` (as [`recv_record_rt`] counts it) and
    /// the sweep goes on to what lies behind it.
    fn drain_kind(&mut self, kind: &str) -> Vec<Record> {
        loop {
            match self.rx.poll_lease().map(Record::decode_leased) {
                RecvPoll::Msg(Ok(r)) => self.pending.push_back(r),
                RecvPoll::Msg(Err(_)) | RecvPoll::Corrupt(_) => {
                    self.counters.bump(&self.counters.corrupt_frames)
                }
                RecvPoll::Empty | RecvPoll::Closed => break,
            }
        }
        let (out, keep): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|r| protocol::kind_of(r) == kind);
        self.pending = keep.into();
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

    /// The next message on `id`, which must be of one of the `expect`ed
    /// kinds.
    async fn recv(&mut self, id: ChannelId, expect: &[&str]) -> Result<Record, StreamError> {
        let rx = self.rx.entry(id).or_insert_with(|| self.link.claim_receiver(id));
        let m = recv_record_rt(rx, &self.hints, &self.link.counters).await?;
        match protocol::kind_of(&m) {
            k if expect.contains(&k) => Ok(m),
            k => Err(StreamError::Protocol(format!("expected {}, got {k}", expect.join("/")))),
        }
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

    /// Rank → coordinator.
    pub(crate) fn send_up(&mut self, m: &Record) {
        self.sender(self.side_channel(0, true)).send(&m.encode());
    }

    /// Coordinator → this rank.
    pub(crate) async fn recv_down(&mut self, expect: &[&str]) -> Result<Record, StreamError> {
        self.recv(self.side_channel(0, false), expect).await
    }

    /// Coordinator: receive one `kind` message from each of `ranks`, in
    /// order, handing each outcome to `each` (which decides whether a
    /// rank's failure fails the gather).
    pub(crate) async fn gather(
        &mut self,
        ranks: impl IntoIterator<Item = usize>,
        kind: &str,
        mut each: impl FnMut(usize, Result<Record, StreamError>) -> Result<(), StreamError>,
    ) -> Result<(), StreamError> {
        for r in ranks {
            let m = self.recv(self.side_channel(r, false), &[kind]).await;
            each(r, m)?;
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
        self.send_up(&protocol::signal(kind, step, None));
        self.recv_down(&[msg::TXN_COMMIT]).await.map(drop)
    }

    /// 2PC, coordinator leg 1: collect every rank's `kind` report.
    pub(crate) async fn txn_collect(&mut self, kind: &str) -> Result<(), StreamError> {
        self.gather(1..self.nranks, kind, |_, m| m.map(drop)).await
    }

    /// 2PC, coordinator leg 2: release every rank with the commit.
    pub(crate) fn txn_release(&mut self, step: u64) {
        self.bcast(1..self.nranks, None, |_| protocol::signal(msg::TXN_COMMIT, step, None));
    }

    /// Coordinator → peer coordinator.
    pub(crate) fn ctrl_send(&mut self, m: &Record) {
        self.sender(self.ctrl_channel(true)).send(&m.encode());
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
        self.ctrl_in().recv_expect(expect).await
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
        assert_eq!(protocol::kind_of(&ctrl.pending[0]), msg::EOS);
    }
}
