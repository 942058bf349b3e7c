//! Anti-entropy gossip between directory nodes.
//!
//! There is one node type, [`DirectoryNode`], and one gossip wire. Each
//! node periodically ships its **entire registry digest** — every
//! `(name, version, origin, contact token)` tuple, tombstones included —
//! to every peer over an ordinary `evpath` transport: in-proc channels
//! between the nodes of a [`super::DirectoryCluster`], socket links
//! between directory *processes* ([`crate::procnet::WireDirNode`]).
//! Receivers merge entry-by-entry under the `(version, origin)` order,
//! so a digest is idempotent and arbitrarily lossy delivery still
//! converges: a frame dropped by a [`FaultPlan`] is simply re-sent (in
//! its next edition) one round later. This is the classic anti-entropy
//! trade — O(entries) bytes per round per peer buys convergence without
//! acks, retransmits or membership agreement, which is exactly right for
//! a registry whose entries number in the thousands while lookups number
//! in the millions.
//!
//! The digest (`DGSP` frame) carries a **token** per entry, never the
//! contact; a node resolves tokens through its [`ContactTable`]. The two
//! deployments differ only in the [`Contact`] payload: an `Arc<LinkState>`
//! cannot cross a byte transport, so the nodes of an in-process cluster
//! share one table; a [`WireContact`] can, so a cross-process node has its
//! own and sends its live contacts as a `CTB1` frame ahead of each digest.

use std::collections::HashMap;
use std::future::Future;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use evpath::{BoxedReceiver, BoxedSender, FaultPlan, RecvPoll};

use crate::link::LinkState;
use crate::task::{periodic, LoopHandle};

use super::shard::{ShardedDirectory, VersionedEntry};
use super::DirectoryError;

/// The serialized form of one contact: what a directory node hands out
/// when the endpoint lives in *another process*. `addr` is a connectable
/// socket address string (`tcp:host:port` / `uds:/path`); `meta` carries
/// endpoint-specific numbers (a writer endpoint ships its rank count and
/// packed core placements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireContact {
    /// Connectable socket address (`tcp:host:port` / `uds:/path`).
    pub addr: String,
    /// Endpoint-specific payload (rank counts, packed cores, ...).
    pub meta: Vec<u64>,
}

/// What a directory entry points at (see module docs).
pub trait Contact: Clone + Send + Sync + 'static {
    /// The contact as another process could use it, if it can.
    fn to_wire(&self) -> Option<WireContact> {
        None
    }

    /// Rebuild a contact from a peer's `CTB1` frame.
    fn from_wire(_wire: WireContact) -> Option<Self> {
        None
    }
}

impl Contact for Arc<LinkState> {}

impl Contact for WireContact {
    fn to_wire(&self) -> Option<WireContact> {
        Some(self.clone())
    }

    fn from_wire(wire: WireContact) -> Option<WireContact> {
        Some(wire)
    }
}

/// Token → contact resolution for the entries a node learns from digests.
pub(crate) type ContactTable<C> = Mutex<HashMap<u64, C>>;

evpath::counters! {
    /// Counters of one node's gossip traffic.
    pub struct GossipCounters => GossipSnapshot {
        /// Anti-entropy rounds completed.
        rounds,
        /// Digest frames sent to peers.
        frames_sent,
        /// Digest frames received and decoded.
        frames_received,
        /// Entries applied from peers (local entry was older or absent).
        entries_merged,
        /// Frames that failed to decode and were discarded.
        corrupt_frames,
    }
}

/// One directory node: a sharded store plus the gossip plumbing that
/// replicates it. Lives in an `Arc` shared between the serve loop (a
/// reactor task) and whatever takes client traffic for it — the
/// [`super::ReplicatedDirectory`] handles, or a socket request port.
pub struct DirectoryNode<C: Contact = Arc<LinkState>> {
    id: u64,
    pub(crate) store: ShardedDirectory<C>,
    contacts: Arc<ContactTable<C>>,
    next_token: AtomicU64,
    /// Outbound gossip channels, one per peer.
    peers: Mutex<Vec<BoxedSender>>,
    /// Inbound gossip channels, one per peer.
    inboxes: Mutex<Vec<BoxedReceiver>>,
    alive: AtomicBool,
    counters: GossipCounters,
    /// Deterministic node-death schedule: with a fault plan installed, a
    /// `dirnode:<id>` spec's `crash_sender_after = Some(r)` kills this
    /// node after `r` gossip rounds.
    faults: Option<Arc<FaultPlan>>,
}

impl<C: Contact> DirectoryNode<C> {
    pub(crate) fn new(
        id: u64,
        shards: usize,
        contacts: Arc<ContactTable<C>>,
        faults: Option<Arc<FaultPlan>>,
    ) -> DirectoryNode<C> {
        DirectoryNode {
            id,
            store: ShardedDirectory::with_origin(shards, id),
            contacts,
            next_token: AtomicU64::new(1),
            peers: Mutex::new(Vec::new()),
            inboxes: Mutex::new(Vec::new()),
            alive: AtomicBool::new(true),
            counters: GossipCounters::default(),
            faults,
        }
    }

    /// This node's id (its entry-origin stamp and fault-label suffix).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the node is still serving (a dead node answers nothing
    /// and gossips nothing; handles fail over).
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Kill the node (tests and the fault schedule).
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Gossip traffic counters.
    pub fn gossip_counters(&self) -> &GossipCounters {
        &self.counters
    }

    /// The node's local sharded store (per-shard counter access).
    pub fn store(&self) -> &ShardedDirectory<C> {
        &self.store
    }

    /// Add the sending half of the gossip link to `peer`; an installed
    /// fault plan sees it as `gossip:<this node>-><peer>`.
    pub(crate) fn add_peer_sender(&self, peer: u64, tx: BoxedSender) {
        let tx = match &self.faults {
            Some(plan) => plan.wrap_sender(&format!("gossip:{}->{peer}", self.id), tx),
            None => tx,
        };
        self.peers.lock().unwrap().push(tx);
    }

    pub(crate) fn add_peer_receiver(&self, rx: BoxedReceiver) {
        self.inboxes.lock().unwrap().push(rx);
    }

    fn check_serving(&self) -> Result<(), DirectoryError> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(DirectoryError::Unavailable(format!("directory node {} is down", self.id)))
        }
    }

    /// Client registration against this node: intern the contact so the
    /// entry can cross the gossip wire, then insert locally (`overwrite`
    /// as in [`ShardedDirectory::register_local`]). Replication to the
    /// other nodes is the serve loop's job.
    pub(crate) fn register(
        &self,
        name: &str,
        contact: C,
        overwrite: bool,
    ) -> Result<(), DirectoryError> {
        self.check_serving()?;
        // Never 0 (the digest's "no contact"), and namespaced by node id:
        // nodes sharing a table cannot mint the same token.
        let token = (self.id << 48) | self.next_token.fetch_add(1, Ordering::Relaxed);
        self.contacts.lock().unwrap().insert(token, contact.clone());
        self.store.register_local(name, contact, token, overwrite).map(|_| ())
    }

    pub(crate) fn unregister(&self, name: &str) -> Result<bool, DirectoryError> {
        self.check_serving()?;
        Ok(self.store.unregister_local(name).is_some())
    }

    /// The node's serve loop, [`crate::task`]'s periodic loop: one
    /// anti-entropy round every `interval` until the node dies or the
    /// handle's `stop`.
    pub(crate) fn serve_task(
        self: &Arc<Self>,
        interval: Duration,
    ) -> (LoopHandle<()>, impl Future<Output = ()> + Send + 'static) {
        let node = Arc::clone(self);
        periodic(interval, move || (None, !node.gossip_round()))
    }

    /// One anti-entropy round: drain peer frames into the store, then
    /// ship the (possibly updated) local digest to every peer — behind the
    /// table of its contacts, when those can cross the wire. Returns
    /// `false` once the node is dead and the serve loop should exit.
    pub(crate) fn gossip_round(&self) -> bool {
        if !self.is_alive() {
            return false;
        }
        self.drain_inbound();
        let entries = self.store.export();
        let table: Vec<(u64, WireContact)> = entries
            .iter()
            .filter_map(|(_, e)| Some((e.token, e.contact.as_ref()?.to_wire()?)))
            .collect();
        let table = (!table.is_empty()).then(|| encode_contact_table(&table));
        let digest: Vec<DigestEntry> =
            entries.into_iter().map(|(name, e)| (name, e.version, e.origin, e.token)).collect();
        let digest = encode_digest(self.id, &digest);
        for tx in self.peers.lock().unwrap().iter_mut() {
            if let Some(table) = &table {
                tx.send(table);
            }
            tx.send(&digest);
            self.counters.frames_sent.fetch_add(1, Ordering::Relaxed);
        }
        let rounds = self.counters.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        // The deterministic node-death schedule rides the fault plan: the
        // round count plays the role the message ordinal plays for
        // transport crashes.
        if let Some(plan) = &self.faults {
            if let Some(after) = plan.spec_for(&format!("dirnode:{}", self.id)).crash_sender_after {
                if rounds >= after {
                    self.kill();
                }
            }
        }
        self.is_alive()
    }

    /// A link that reports closed or corrupt is gone (its peer died, or
    /// the byte stream lost framing): drop it.
    fn drain_inbound(&self) {
        self.inboxes.lock().unwrap().retain_mut(|rx| loop {
            match rx.poll_recv() {
                RecvPoll::Msg(frame) => self.absorb(&frame),
                RecvPoll::Empty => return true,
                RecvPoll::Closed | RecvPoll::Corrupt(_) => return false,
            }
        });
    }

    /// Apply one gossip frame — a contact table feeds the token table, a
    /// digest is merged entry by entry; the magic says which it is.
    fn absorb(&self, frame: &[u8]) {
        let corrupt = || self.counters.corrupt_frames.fetch_add(1, Ordering::Relaxed);
        if frame.starts_with(CONTACT_MAGIC) {
            let Some(table) = decode_contact_table(frame) else {
                corrupt();
                return;
            };
            for (token, wire) in table {
                if let Some(contact) = C::from_wire(wire) {
                    self.contacts.lock().unwrap().insert(token, contact);
                }
            }
            return;
        }
        let Some((_from, entries)) = decode_digest(frame) else {
            corrupt();
            return;
        };
        self.counters.frames_received.fetch_add(1, Ordering::Relaxed);
        for (name, version, origin, token) in entries {
            let contact = self.contacts.lock().unwrap().get(&token).cloned();
            if token != 0 && contact.is_none() {
                // Unknown token: the contact is interned cluster-wide or
                // rode the frame ahead of this one, so that frame was lost.
                // Not a tombstone — skip; the next round brings both again.
                corrupt();
                continue;
            }
            if self.store.merge(&name, VersionedEntry { contact, version, origin, token }) {
                self.counters.entries_merged.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ------------------------------------------------------------- wire form

/// Digest frame layout (all little-endian):
/// `magic "DGSP" · u64 sender id · u32 entry count · entries`, each entry
/// `u32 name length · name bytes · u64 version · u64 origin · u64 token`
/// (token 0 = tombstone).
const MAGIC: &[u8; 4] = b"DGSP";

/// One digest entry: `(name, version, origin, token)`.
pub type DigestEntry = (String, u64, u64, u64);

/// Smallest encoded digest entry (an empty name).
const DIGEST_ENTRY_MIN: usize = 4 + 3 * 8;

/// Encode node `from`'s digest for the gossip wire.
pub fn encode_digest(from: u64, entries: &[DigestEntry]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + entries.len() * 48);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, version, origin, token) in entries {
        buf.extend_from_slice(&(name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name.as_bytes());
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&origin.to_le_bytes());
        buf.extend_from_slice(&token.to_le_bytes());
    }
    buf
}

/// Cursor over a received frame: every read is `None` past the end.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<usize> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?) as usize)
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()?;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

/// Decode a digest frame into `(sender id, entries)`; `None` on any
/// malformation (bad magic, truncation, trailing bytes, non-UTF-8 name).
pub fn decode_digest(frame: &[u8]) -> Option<(u64, Vec<DigestEntry>)> {
    let mut r = Reader(frame);
    if r.take(4)? != MAGIC {
        return None;
    }
    let from = r.u64()?;
    let count = r.u32()?;
    // The count is the peer's claim; the bytes that follow bound it.
    let mut entries = Vec::with_capacity(count.min(r.0.len() / DIGEST_ENTRY_MIN));
    for _ in 0..count {
        entries.push((r.string()?, r.u64()?, r.u64()?, r.u64()?));
    }
    r.0.is_empty().then_some((from, entries))
}

/// Contact-table frame layout (all little-endian):
/// `magic "CTB1" · u32 entry count · entries`, each entry
/// `u64 token · u32 addr length · addr bytes · u32 meta count · meta u64s`.
/// Cross-process directory nodes gossip this ahead of the digest so a
/// token arriving from a peer is resolvable locally.
const CONTACT_MAGIC: &[u8; 4] = b"CTB1";

/// Encode a set of `(token, contact)` pairs for the gossip wire.
pub fn encode_contact_table(entries: &[(u64, WireContact)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + entries.len() * 48);
    buf.extend_from_slice(CONTACT_MAGIC);
    buf.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (token, c) in entries {
        buf.extend_from_slice(&token.to_le_bytes());
        buf.extend_from_slice(&(c.addr.len() as u32).to_le_bytes());
        buf.extend_from_slice(c.addr.as_bytes());
        buf.extend_from_slice(&(c.meta.len() as u32).to_le_bytes());
        for m in &c.meta {
            buf.extend_from_slice(&m.to_le_bytes());
        }
    }
    buf
}

/// Decode a contact-table frame; `None` on any malformation (bad magic,
/// truncation, trailing bytes, non-UTF-8 address).
pub fn decode_contact_table(frame: &[u8]) -> Option<Vec<(u64, WireContact)>> {
    let mut r = Reader(frame);
    if r.take(4)? != CONTACT_MAGIC {
        return None;
    }
    let count = r.u32()?;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let (token, addr, mlen) = (r.u64()?, r.string()?, r.u32()?);
        let mut meta = Vec::with_capacity(mlen.min(1024));
        for _ in 0..mlen {
            meta.push(r.u64()?);
        }
        entries.push((token, WireContact { addr, meta }));
    }
    r.0.is_empty().then_some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_round_trips() {
        let entries = vec![("run42/particles".to_string(), 3, 1, 9), ("gone".to_string(), 8, 2, 0)];
        let frame = encode_digest(7, &entries);
        assert_eq!(decode_digest(&frame), Some((7, entries)));
    }

    #[test]
    fn garbage_frames_are_rejected() {
        assert!(decode_digest(b"").is_none());
        assert!(decode_digest(b"nope").is_none());
        let mut truncated = encode_digest(1, &[("x".to_string(), 1, 0, 0)]);
        truncated.pop();
        assert!(decode_digest(&truncated).is_none());
        let mut trailing = encode_digest(1, &[]);
        trailing.push(0xFF);
        assert!(decode_digest(&trailing).is_none());
        // A 16-byte frame claiming u32::MAX entries: rejected as
        // truncated, without reserving room for the claim first.
        let mut inflated = encode_digest(1, &[]);
        inflated[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_digest(&inflated).is_none());
    }

    #[test]
    fn contact_table_round_trips() {
        let entries = vec![
            (
                (1u64 << 48) | 1,
                WireContact { addr: "tcp:127.0.0.1:45123".to_string(), meta: vec![4, 0, 1, 2, 3] },
            ),
            ((2u64 << 48) | 7, WireContact { addr: "uds:/tmp/x.sock".to_string(), meta: vec![] }),
        ];
        let frame = encode_contact_table(&entries);
        assert_eq!(decode_contact_table(&frame), Some(entries));
        assert_eq!(decode_contact_table(&encode_contact_table(&[])), Some(Vec::new()));
    }

    #[test]
    fn garbage_contact_tables_are_rejected() {
        assert!(decode_contact_table(b"").is_none());
        assert!(decode_contact_table(b"DGSP").is_none());
        let mut truncated = encode_contact_table(&[(
            3,
            WireContact { addr: "tcp:h:1".to_string(), meta: vec![9] },
        )]);
        truncated.pop();
        assert!(decode_contact_table(&truncated).is_none());
        let mut trailing = encode_contact_table(&[]);
        trailing.push(0);
        assert!(decode_contact_table(&trailing).is_none());
    }
}
