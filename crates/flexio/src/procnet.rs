//! The cross-process fabric: couplings whose writer ranks, reader ranks
//! and directory nodes are separate OS processes talking over real
//! sockets (TCP or Unix-domain).
//!
//! The in-process link hands both channel halves out of one shared
//! [`LinkState`]; across a process boundary nothing is shared, so this
//! module rebuilds the same contract from three pieces:
//!
//! * [`ChannelHub`] — every rank process binds one listener and accepts
//!   inbound channel connections on a background thread. A connector
//!   identifies its channel with a *hello frame* carrying the key
//!   `"<stream>|<channel label>"`; the hub parks the accepted stream
//!   under that key until the local engine claims the receiving half.
//!   Receivers are therefore **lazy**: `poll_lease` reports `Empty` until
//!   the peer has dialed in, which is exactly the readiness contract the
//!   engines and the reactor already run on.
//! * [`WireDirNode`] — a directory node process: serves register/lookup
//!   requests over one-shot framed connections and replicates its
//!   registry to peer nodes by gossiping the same digest wire format the
//!   in-process cluster uses, extended with the serialized
//!   [`WireContact`] table so tokens arriving from a peer resolve to
//!   connectable addresses.
//! * [`ProcFabric`] — installed on a [`LinkState`], it reroutes
//!   `claim_sender`/`claim_receiver`: senders resolve the destination
//!   rank's hub address through the directory and dial out on first use;
//!   receivers wait on the hub. A sender whose peer is gone goes dead and
//!   swallows writes — to the protocol a killed process is
//!   indistinguishable from silence, which the eviction and EOS-synthesis
//!   machinery then absorbs.
//!
//! Fault injection composes unchanged: with a plan installed, every
//! socket channel is additionally wrapped under the label
//! `net:<src>-><dst>` (e.g. `net:w0->r1`), beneath the usual per-channel
//! label wrap, so drops/stalls/crashes are injectable on real sockets.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evpath::socket::{
    connect, connect_retry, read_frame, write_frame, SockStream, SocketKind, SocketListener,
    SocketReceiver, SocketSender,
};
use evpath::{
    BoxedReceiver, BoxedSender, EvReceiver, EvSender, FieldValue, Lease, Record, RecvPoll,
};
use machine::CoreLocation;
use parking_lot::{Condvar, Mutex};

use crate::directory::{
    decode_contact_table, decode_digest, encode_contact_table, encode_digest, ContactTable,
    DirectoryError, VersionedEntry, WireContact,
};
use crate::hints::StreamHints;
use crate::link::{ChannelId, LinkState};
use crate::protocol::{self};
use crate::reader::StreamReader;
use crate::writer::StreamWriter;

/// Cap on control frames (hello keys, directory requests) — tiny by
/// construction, so a garbage connection cannot ask for a big allocation.
const CTRL_FRAME_MAX: u32 = 1 << 20;

// ----------------------------------------------------------- addressing

/// `(source, destination)` endpoint names of a channel, `w<rank>` /
/// `r<rank>` — the grid coordinates the directory hands out addresses by.
fn net_endpoints(id: ChannelId) -> (String, String) {
    match id {
        ChannelId::Data { w, r } => (format!("w{w}"), format!("r{r}")),
        ChannelId::Ack { w, r } => (format!("r{r}"), format!("w{w}")),
        ChannelId::ControlToReader => ("w0".into(), "r0".into()),
        ChannelId::ControlToWriter => ("r0".into(), "w0".into()),
        ChannelId::WriterSide { rank, up } => {
            if up {
                (format!("w{rank}"), "w0".into())
            } else {
                ("w0".into(), format!("w{rank}"))
            }
        }
        ChannelId::ReaderSide { rank, up } => {
            if up {
                (format!("r{rank}"), "r0".into())
            } else {
                ("r0".into(), format!("r{rank}"))
            }
        }
        ChannelId::Monitor => ("w0".into(), "r0".into()),
    }
}

/// The fault-plan label of a socket channel (`net:w0->r1`).
fn net_label(id: ChannelId) -> String {
    let (src, dst) = net_endpoints(id);
    format!("net:{src}->{dst}")
}

// ------------------------------------------------------------------ hub

struct HubShared {
    parked: Mutex<HashMap<String, SockStream>>,
    ready: Condvar,
    alive: AtomicBool,
}

/// One rank process's inbound-connection endpoint (see module docs).
pub struct ChannelHub {
    addr: String,
    shared: Arc<HubShared>,
}

impl ChannelHub {
    /// Bind a hub listener and start its accept thread.
    pub fn bind(kind: SocketKind) -> io::Result<ChannelHub> {
        let listener = SocketListener::bind(kind)?;
        let addr = listener.local_addr().to_string();
        let shared = Arc::new(HubShared {
            parked: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            alive: AtomicBool::new(true),
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("flexio-hub".to_string())
            .spawn(move || hub_accept_loop(listener, accept_shared))?;
        Ok(ChannelHub { addr, shared })
    }

    /// The connectable address peers dial (registered in the directory).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Take the parked stream for `key` if one has arrived.
    pub fn try_take(&self, key: &str) -> Option<SockStream> {
        self.shared.parked.lock().remove(key)
    }

    /// Wait up to `timeout` for a stream keyed `key` to arrive.
    pub fn wait_take(&self, key: &str, timeout: Duration) -> Option<SockStream> {
        let deadline = Instant::now() + timeout;
        let mut parked = self.shared.parked.lock();
        loop {
            if let Some(s) = parked.remove(key) {
                return Some(s);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.shared.ready.wait_for(&mut parked, deadline - now);
        }
    }
}

impl Drop for ChannelHub {
    fn drop(&mut self) {
        self.shared.alive.store(false, Ordering::Release);
        // Unblock the accept thread; it rechecks `alive` per connection.
        let _ = connect(&self.addr);
    }
}

fn hub_accept_loop(listener: SocketListener, shared: Arc<HubShared>) {
    loop {
        if !shared.alive.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = listener.accept() else { return };
        // The hello follows the connect immediately; bound the read so
        // one bad connection cannot stall the accept loop forever.
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let Ok(key) = read_frame(&mut stream, CTRL_FRAME_MAX) else { continue };
        let Ok(key) = String::from_utf8(key) else { continue };
        let _ = stream.set_read_timeout(None);
        shared.parked.lock().insert(key, stream);
        shared.ready.notify_all();
    }
}

// --------------------------------------------------- directory (client)

/// Client handle on a cluster of [`WireDirNode`] processes: requests are
/// one-shot framed record exchanges, tried against each node in turn so a
/// dead node is simply skipped (failover).
pub struct RemoteDirectory {
    nodes: Vec<String>,
}

impl RemoteDirectory {
    /// A handle over the given node addresses.
    pub fn new(nodes: Vec<String>) -> RemoteDirectory {
        assert!(!nodes.is_empty(), "directory needs at least one node");
        RemoteDirectory { nodes }
    }

    fn request_once(addr: &str, req: &Record) -> io::Result<Record> {
        let mut s = connect(addr)?;
        s.set_read_timeout(Some(Duration::from_secs(2)))?;
        write_frame(&mut s, &req.encode())?;
        let reply = read_frame(&mut s, CTRL_FRAME_MAX)?;
        Record::decode(&reply)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad directory reply"))
    }

    fn request_any(&self, req: &Record) -> Option<Record> {
        self.nodes.iter().find_map(|n| Self::request_once(n, req).ok())
    }

    /// Register an endpoint contact under `name` (first reachable node;
    /// gossip replicates it to the rest).
    pub fn register(&self, name: &str, contact: &WireContact) -> Result<(), DirectoryError> {
        let req = protocol::message("dreg")
            .with("name", FieldValue::Str(name.to_string()))
            .with("addr", FieldValue::Str(contact.addr.clone()))
            .with("meta", FieldValue::U64Array(contact.meta.clone()));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if let Some(reply) = self.request_any(&req) {
                if protocol::kind_of(&reply) == "dok" {
                    return Ok(());
                }
            }
            if Instant::now() >= deadline {
                return Err(DirectoryError::Unavailable(format!(
                    "no directory node accepted registration of `{name}`"
                )));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Look `name` up, polling every node until `timeout` — the name may
    /// belong to a process that has not finished registering yet.
    pub fn lookup(&self, name: &str, timeout: Duration) -> Result<WireContact, DirectoryError> {
        let req = protocol::message("dlkp").with("name", FieldValue::Str(name.to_string()));
        let deadline = Instant::now() + timeout;
        loop {
            for node in &self.nodes {
                let Ok(reply) = Self::request_once(node, &req) else { continue };
                if protocol::kind_of(&reply) == "dhit" {
                    let addr = reply.get_str("addr").unwrap_or_default().to_string();
                    let meta = reply.get_u64_array("meta").map(<[u64]>::to_vec).unwrap_or_default();
                    return Ok(WireContact { addr, meta });
                }
            }
            if Instant::now() >= deadline {
                return Err(DirectoryError::LookupTimeout(name.to_string()));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Hand a directory node process its peer list (the parent that spawned
/// the cluster collects all addresses first, then bootstraps each node).
pub fn send_peer_list(node_addr: &str, peers: &[String]) -> io::Result<()> {
    let req = protocol::message("dpeers").with("addrs", FieldValue::Str(peers.join(",")));
    RemoteDirectory::request_once(node_addr, &req).map(|_| ())
}

// --------------------------------------------------- directory (server)

/// Gossip frame prefix: `WGS1 · u32 digest length · digest · contacts`.
const GOSSIP_MAGIC: &[u8; 4] = b"WGS1";

/// A cross-process directory node: serves register/lookup over framed
/// socket requests and anti-entropy-gossips `(digest, contact table)`
/// frames to its peers. Run one per process via [`WireDirNode::serve`].
pub struct WireDirNode {
    id: u64,
    listener: SocketListener,
    addr: String,
    /// name → (version, origin, token); token 0 is a tombstone.
    entries: Mutex<HashMap<String, (u64, u64, u64)>>,
    contacts: ContactTable,
    peers: Mutex<Vec<String>>,
    next_token: AtomicU64,
    gossip_every: Duration,
}

impl WireDirNode {
    /// Bind a node (ephemeral address). `id` namespaces minted tokens so
    /// two nodes can never collide.
    pub fn bind(id: u64, kind: SocketKind, gossip_every: Duration) -> io::Result<WireDirNode> {
        let listener = SocketListener::bind(kind)?;
        let addr = listener.local_addr().to_string();
        Ok(WireDirNode {
            id,
            listener,
            addr,
            entries: Mutex::new(HashMap::new()),
            contacts: ContactTable::default(),
            peers: Mutex::new(Vec::new()),
            next_token: AtomicU64::new(1),
            gossip_every,
        })
    }

    /// The node's connectable address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Serve requests and gossip forever (the dirnode process's main).
    pub fn serve(&self) -> ! {
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        let mut last_gossip = Instant::now();
        loop {
            while let Ok(Some(mut stream)) = self.listener.try_accept() {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
                if let Ok(frame) = read_frame(&mut stream, CTRL_FRAME_MAX) {
                    self.handle_frame(&frame, &mut stream);
                }
            }
            if last_gossip.elapsed() >= self.gossip_every {
                self.gossip_round();
                last_gossip = Instant::now();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn handle_frame(&self, frame: &[u8], stream: &mut SockStream) {
        if frame.len() >= 4 && &frame[..4] == GOSSIP_MAGIC {
            self.merge_gossip(frame);
            return;
        }
        let Ok(req) = Record::decode(frame) else { return };
        let reply = match protocol::kind_of(&req) {
            "dreg" => self.handle_register(&req),
            "dlkp" => self.handle_lookup(&req),
            "dunr" => self.handle_unregister(&req),
            "dpeers" => {
                let peers: Vec<String> = req
                    .get_str("addrs")
                    .unwrap_or_default()
                    .split(',')
                    .filter(|a| !a.is_empty() && *a != self.addr)
                    .map(str::to_string)
                    .collect();
                *self.peers.lock() = peers;
                protocol::message("dok")
            }
            _ => protocol::message("derr"),
        };
        let _ = write_frame(stream, &reply.encode());
    }

    fn handle_register(&self, req: &Record) -> Record {
        let Some(name) = req.get_str("name") else { return protocol::message("derr") };
        let Some(addr) = req.get_str("addr") else { return protocol::message("derr") };
        let meta = req.get_u64_array("meta").map(<[u64]>::to_vec).unwrap_or_default();
        let token = (self.id << 48) | self.next_token.fetch_add(1, Ordering::Relaxed);
        self.contacts.put_wire(token, WireContact { addr: addr.to_string(), meta });
        let mut entries = self.entries.lock();
        let version = entries.get(name).map_or(0, |(v, _, _)| *v) + 1;
        entries.insert(name.to_string(), (version, self.id, token));
        protocol::message("dok")
    }

    fn handle_unregister(&self, req: &Record) -> Record {
        let Some(name) = req.get_str("name") else { return protocol::message("derr") };
        let mut entries = self.entries.lock();
        let version = entries.get(name).map_or(0, |(v, _, _)| *v) + 1;
        entries.insert(name.to_string(), (version, self.id, 0));
        protocol::message("dok")
    }

    fn handle_lookup(&self, req: &Record) -> Record {
        let Some(name) = req.get_str("name") else { return protocol::message("derr") };
        let token = match self.entries.lock().get(name) {
            Some(&(_, _, token)) if token != 0 => token,
            _ => return protocol::message("dmiss"),
        };
        match self.contacts.resolve_wire(token) {
            Some(c) => protocol::message("dhit")
                .with("addr", FieldValue::Str(c.addr))
                .with("meta", FieldValue::U64Array(c.meta)),
            None => protocol::message("dmiss"),
        }
    }

    /// Ship `(digest, contact table)` to every peer. One-shot
    /// connections; a dead peer is skipped — anti-entropy needs no acks.
    fn gossip_round(&self) {
        let peers = self.peers.lock().clone();
        if peers.is_empty() {
            return;
        }
        let digest_entries: Vec<(String, VersionedEntry)> = {
            let entries = self.entries.lock();
            let mut v: Vec<_> = entries
                .iter()
                .map(|(name, &(version, origin, token))| {
                    (name.clone(), VersionedEntry { contact: None, version, origin, token })
                })
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let digest = encode_digest(self.id, &digest_entries);
        let contacts = encode_contact_table(&self.contacts.export_wire());
        let mut frame = Vec::with_capacity(8 + digest.len() + contacts.len());
        frame.extend_from_slice(GOSSIP_MAGIC);
        frame.extend_from_slice(&(digest.len() as u32).to_le_bytes());
        frame.extend_from_slice(&digest);
        frame.extend_from_slice(&contacts);
        for peer in peers {
            if let Ok(mut s) = connect(&peer) {
                let _ = write_frame(&mut s, &frame);
            }
        }
    }

    fn merge_gossip(&self, frame: &[u8]) {
        let Some(dlen_bytes) = frame.get(4..8) else { return };
        let dlen = u32::from_le_bytes(dlen_bytes.try_into().expect("4 bytes")) as usize;
        let Some(digest) = frame.get(8..8 + dlen) else { return };
        let Some(contacts) = frame.get(8 + dlen..) else { return };
        // Contacts first, so every merged token resolves immediately.
        if let Some(table) = decode_contact_table(contacts) {
            for (token, contact) in table {
                self.contacts.put_wire(token, contact);
            }
        }
        let Some((_from, decoded)) = decode_digest(digest) else { return };
        let mut entries = self.entries.lock();
        for (name, version, origin, token) in decoded {
            let newer = match entries.get(&name) {
                None => true,
                Some(&(v, o, _)) => (version, origin) > (v, o),
            };
            if newer {
                entries.insert(name, (version, origin, token));
            }
        }
    }
}

// --------------------------------------------------------------- fabric

/// Per-process channel factory installed on a remote-mode [`LinkState`]
/// (see module docs).
pub struct ProcFabric {
    stream: String,
    hub: ChannelHub,
    dir: RemoteDirectory,
    hints: StreamHints,
}

impl ProcFabric {
    fn endpoint_name(&self, ep: &str) -> String {
        format!("{}#{}", self.stream, ep)
    }

    fn channel_key(&self, id: ChannelId) -> String {
        format!("{}|{}", self.stream, id.label())
    }

    pub(crate) fn make_sender(self: &Arc<Self>, id: ChannelId) -> BoxedSender {
        Box::new(LazyConnectSender { fabric: Arc::clone(self), id, inner: None, dead: false })
    }

    pub(crate) fn make_receiver(self: &Arc<Self>, id: ChannelId) -> BoxedReceiver {
        Box::new(LazyHubReceiver { fabric: Arc::clone(self), id, inner: None })
    }

    /// Resolve, dial and identify one outbound channel.
    fn connect_channel(&self, id: ChannelId) -> io::Result<BoxedSender> {
        let (_, dst) = net_endpoints(id);
        let contact = self
            .dir
            .lookup(&self.endpoint_name(&dst), self.hints.net_connect_timeout)
            .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
        let mut stream = connect_retry(&contact.addr, self.hints.net_connect_timeout)?;
        write_frame(&mut stream, self.channel_key(id).as_bytes())?;
        let raw: BoxedSender = Box::new(SocketSender::over(stream));
        Ok(match &self.hints.faults {
            Some(plan) => plan.wrap_sender(&net_label(id), raw),
            None => raw,
        })
    }
}

/// Outbound channel half: resolves and dials on first send; any failure
/// (endpoint never registered, peer killed) turns it dead and sends are
/// swallowed from then on.
struct LazyConnectSender {
    fabric: Arc<ProcFabric>,
    id: ChannelId,
    inner: Option<BoxedSender>,
    dead: bool,
}

impl EvSender for LazyConnectSender {
    fn send(&mut self, payload: &[u8]) {
        self.send_vectored(&[payload]);
    }

    fn send_vectored(&mut self, segments: &[&[u8]]) {
        if self.dead {
            return;
        }
        if self.inner.is_none() {
            match self.fabric.connect_channel(self.id) {
                Ok(s) => self.inner = Some(s),
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.inner.as_mut().expect("connected above").send_vectored(segments);
    }

    fn transport_name(&self) -> &'static str {
        match &self.inner {
            Some(s) => s.transport_name(),
            None => "net",
        }
    }
}

/// Inbound channel half: `Empty` until the peer's connection arrives at
/// the hub, then a plain socket receiver (with the stream's frame cap and
/// fault wrap applied).
struct LazyHubReceiver {
    fabric: Arc<ProcFabric>,
    id: ChannelId,
    inner: Option<BoxedReceiver>,
}

impl EvReceiver for LazyHubReceiver {
    fn poll_lease(&mut self) -> RecvPoll<Lease> {
        if self.inner.is_none() {
            let key = self.fabric.channel_key(self.id);
            match self.fabric.hub.try_take(&key) {
                Some(stream) => {
                    let mut receiver = SocketReceiver::over(stream);
                    receiver.set_max_frame(self.fabric.hints.net_max_frame);
                    let raw: BoxedReceiver = Box::new(receiver);
                    self.inner = Some(match &self.fabric.hints.faults {
                        Some(plan) => plan.wrap_receiver(&net_label(self.id), raw),
                        None => raw,
                    });
                }
                None => return RecvPoll::Empty,
            }
        }
        self.inner.as_mut().expect("taken above").poll_lease()
    }
}

// ------------------------------------------------------- engine openers

/// Everything one rank process needs to join a cross-process coupling.
pub struct ProcConfig {
    /// Stream name (the directory key prefix).
    pub stream: String,
    /// This process's rank within its role group.
    pub rank: usize,
    /// Rank count of this role group.
    pub nranks: usize,
    /// Directory node addresses.
    pub dir_addrs: Vec<String>,
    /// Socket family for every channel.
    pub kind: SocketKind,
    /// Stream tuning (timeouts, caching, sync mode, faults, ...).
    pub hints: StreamHints,
}

/// `count · (node, numa, core)*` packed as little-endian u64s — the
/// rank-roster encoding used in writer-endpoint metadata and the reader
/// attach frame.
fn pack_roster(cores: &[CoreLocation]) -> Vec<u64> {
    let mut out = Vec::with_capacity(1 + cores.len() * 3);
    out.push(cores.len() as u64);
    for c in cores {
        out.extend_from_slice(&[c.node as u64, c.numa as u64, c.core as u64]);
    }
    out
}

fn unpack_roster(meta: &[u64]) -> Option<Vec<CoreLocation>> {
    let count = *meta.first()? as usize;
    let body = meta.get(1..1 + count * 3)?;
    Some(
        body.chunks_exact(3)
            .map(|c| CoreLocation { node: c[0] as usize, numa: c[1] as usize, core: c[2] as usize })
            .collect(),
    )
}

fn roster_bytes(cores: &[CoreLocation]) -> Vec<u8> {
    pack_roster(cores).iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn roster_from_bytes(bytes: &[u8]) -> Option<Vec<CoreLocation>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    let words: Vec<u64> =
        bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))).collect();
    unpack_roster(&words)
}

/// Synthetic core roster for a role group — placement is moot in fabric
/// mode (every channel is a socket), but the engines still want a roster.
fn synth_cores(node: usize, nranks: usize) -> Vec<CoreLocation> {
    (0..nranks).map(|core| CoreLocation { node, numa: 0, core }).collect()
}

fn fabric_for(cfg: &ProcConfig) -> io::Result<Arc<ProcFabric>> {
    Ok(Arc::new(ProcFabric {
        stream: cfg.stream.clone(),
        hub: ChannelHub::bind(cfg.kind)?,
        dir: RemoteDirectory::new(cfg.dir_addrs.clone()),
        hints: cfg.hints.clone(),
    }))
}

/// Open the writer side of a cross-process coupling from one writer-rank
/// process. Registers this rank's endpoint; rank 0 additionally ships the
/// rank roster in its metadata and waits (in the background) for the
/// reader coordinator's attach frame.
pub fn open_writer_proc(cfg: ProcConfig) -> io::Result<StreamWriter> {
    let fabric = fabric_for(&cfg)?;
    let cores = synth_cores(0, cfg.nranks);
    let link =
        LinkState::new(cfg.nranks, cores.clone(), None, &cfg.hints, Some(Arc::clone(&fabric)));
    let meta = if cfg.rank == 0 { pack_roster(&cores) } else { Vec::new() };
    fabric
        .dir
        .register(
            &fabric.endpoint_name(&format!("w{}", cfg.rank)),
            &WireContact { addr: fabric.hub.addr().to_string(), meta },
        )
        .map_err(|e| io::Error::new(io::ErrorKind::AddrNotAvailable, e.to_string()))?;
    if cfg.rank == 0 {
        // The reader coordinator dials in with an `attach` hello and one
        // roster frame; feeding it into `set_reader_info` is what the
        // in-process `wait_reader_info` poll observes.
        let attach_link = Arc::clone(&link);
        let attach_fabric = Arc::clone(&fabric);
        let key = format!("{}|attach", cfg.stream);
        std::thread::Builder::new().name("flexio-attach".to_string()).spawn(move || {
            let Some(mut stream) = attach_fabric.hub.wait_take(&key, Duration::from_secs(300))
            else {
                return;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
            let Ok(frame) = read_frame(&mut stream, CTRL_FRAME_MAX) else { return };
            if let Some(cores) = roster_from_bytes(&frame) {
                attach_link.set_reader_info(cores.len(), cores);
            }
        })?;
    }
    Ok(StreamWriter::new(link, cfg.rank, cfg.nranks, cfg.stream, cfg.hints))
}

/// Open the reader side of a cross-process coupling from one reader-rank
/// process: learn the writer-side shape from the directory, register this
/// rank's endpoint, and (rank 0) send the attach frame to the writer
/// coordinator's hub.
pub fn open_reader_proc(cfg: ProcConfig) -> io::Result<StreamReader> {
    let fabric = fabric_for(&cfg)?;
    // The stream's registration is its writer coordinator's endpoint;
    // waiting for it is the cross-process analogue of the directory
    // lookup in `FlexIo::open_reader`.
    let w0 = fabric
        .dir
        .lookup(&fabric.endpoint_name("w0"), cfg.hints.recv_timeout)
        .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
    let writer_cores = unpack_roster(&w0.meta)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad writer roster"))?;
    let link = LinkState::new(
        writer_cores.len(),
        writer_cores,
        None,
        &cfg.hints,
        Some(Arc::clone(&fabric)),
    );
    let reader_cores = synth_cores(1, cfg.nranks);
    link.set_reader_info(cfg.nranks, reader_cores.clone());
    fabric
        .dir
        .register(
            &fabric.endpoint_name(&format!("r{}", cfg.rank)),
            &WireContact { addr: fabric.hub.addr().to_string(), meta: Vec::new() },
        )
        .map_err(|e| io::Error::new(io::ErrorKind::AddrNotAvailable, e.to_string()))?;
    if cfg.rank == 0 {
        let mut stream = connect_retry(&w0.addr, cfg.hints.net_connect_timeout)?;
        write_frame(&mut stream, format!("{}|attach", cfg.stream).as_bytes())?;
        write_frame(&mut stream, &roster_bytes(&reader_cores))?;
    }
    Ok(StreamReader::new(link, cfg.rank, cfg.nranks, cfg.stream, cfg.hints))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_parks_streams_by_hello_key() {
        let hub = ChannelHub::bind(SocketKind::Tcp).expect("bind hub");
        let mut a = connect_retry(hub.addr(), Duration::from_secs(2)).expect("dial");
        write_frame(&mut a, b"s|data:0->1").unwrap();
        write_frame(&mut a, b"payload-after-hello").unwrap();
        let mut parked = hub.wait_take("s|data:0->1", Duration::from_secs(2)).expect("parked");
        assert!(hub.try_take("s|data:0->1").is_none(), "taken exactly once");
        let body = read_frame(&mut parked, CTRL_FRAME_MAX).unwrap();
        assert_eq!(body, b"payload-after-hello");
    }

    #[test]
    fn wire_dir_node_serves_register_and_lookup() {
        let node =
            Arc::new(WireDirNode::bind(1, SocketKind::Uds, Duration::from_secs(3600)).unwrap());
        let addr = node.addr().to_string();
        let serve_node = Arc::clone(&node);
        std::thread::spawn(move || serve_node.serve());
        let dir = RemoteDirectory::new(vec![addr]);
        assert!(dir.lookup("s#w0", Duration::from_millis(50)).is_err());
        dir.register("s#w0", &WireContact { addr: "tcp:127.0.0.1:9".into(), meta: vec![1, 2] })
            .unwrap();
        let hit = dir.lookup("s#w0", Duration::from_secs(2)).unwrap();
        assert_eq!(hit.addr, "tcp:127.0.0.1:9");
        assert_eq!(hit.meta, vec![1, 2]);
    }

    #[test]
    fn gossip_replicates_registrations_across_nodes() {
        let a = Arc::new(WireDirNode::bind(1, SocketKind::Uds, Duration::from_millis(5)).unwrap());
        let b = Arc::new(WireDirNode::bind(2, SocketKind::Uds, Duration::from_millis(5)).unwrap());
        let addrs = vec![a.addr().to_string(), b.addr().to_string()];
        for node in [&a, &b] {
            let n = Arc::clone(node);
            std::thread::spawn(move || n.serve());
        }
        for addr in &addrs {
            send_peer_list(addr, &addrs).unwrap();
        }
        // Register on A only; read back through B only.
        let only_a = RemoteDirectory::new(vec![addrs[0].clone()]);
        only_a
            .register("s#r3", &WireContact { addr: "uds:/tmp/r3".into(), meta: vec![7] })
            .unwrap();
        let only_b = RemoteDirectory::new(vec![addrs[1].clone()]);
        let hit = only_b.lookup("s#r3", Duration::from_secs(5)).expect("gossip converged");
        assert_eq!(hit.addr, "uds:/tmp/r3");
        assert_eq!(hit.meta, vec![7]);
    }

    #[test]
    fn roster_round_trips() {
        let cores = synth_cores(3, 5);
        assert_eq!(roster_from_bytes(&roster_bytes(&cores)), Some(cores));
        assert_eq!(roster_from_bytes(&[1, 2, 3]), None, "ragged byte count");
        assert_eq!(unpack_roster(&[9, 0, 0, 0]), None, "truncated roster");
    }
}
