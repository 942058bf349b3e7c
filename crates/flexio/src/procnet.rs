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
//! * [`WireDirNode`] — a directory node process: the in-process
//!   cluster's [`DirectoryNode`] holding serialized [`WireContact`]s,
//!   its gossip links socket channels its peers dial like any other
//!   channel, its register/lookup port one more reactor task beside the
//!   gossip rounds.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use evpath::socket::{
    connect, connect_retry, read_frame, write_frame, SockStream, SocketKind, SocketListener,
    SocketReceiver, SocketSender,
};
use evpath::{
    BoxedReceiver, BoxedSender, EvReceiver, EvSender, FaultPlan, FieldValue, Lease, Record,
    RecvPoll,
};
use flexio_reactor::{block_inline, Reactor};
use machine::CoreLocation;
use parking_lot::Mutex;

use crate::directory::{DirectoryError, DirectoryNode, WireContact};
use crate::hints::StreamHints;
use crate::link::{poll_until, ChannelId, LinkState};
use crate::protocol::{self};
use crate::reader::StreamReader;
use crate::task::periodic;
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
    }
}

// --------------------------------------------------- directory (client)

/// How long a registration keeps looking for a node that accepts it.
const REGISTER_BUDGET: Duration = Duration::from_secs(5);

/// Attach a contact to a `dreg` request or a `dhit` reply.
fn with_contact(msg: Record, contact: &WireContact) -> Record {
    msg.with("addr", FieldValue::Str(contact.addr.clone()))
        .with("meta", FieldValue::U64Array(contact.meta.clone()))
}

fn contact_of(msg: &Record) -> Option<WireContact> {
    let addr = msg.get_str("addr")?.to_string();
    let meta = msg.get_u64_array("meta").map(<[u64]>::to_vec).unwrap_or_default();
    Some(WireContact { addr, meta })
}

/// Client handle on a cluster of [`WireDirNode`] processes: requests are
/// one-shot framed record exchanges, tried against each node in turn so a
/// dead node is simply skipped (failover). It speaks [`WireContact`]s — an
/// `Arc<LinkState>` cannot cross a process — so it is not a
/// [`crate::DirectoryService`].
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

    /// Put `req` to every node in turn until one gives a `kind` reply.
    fn request_until(&self, req: &Record, kind: &str, budget: Duration) -> Option<Record> {
        let wanted = |node: &String| {
            Self::request_once(node, req).ok().filter(|reply| protocol::kind_of(reply) == kind)
        };
        block_inline(poll_until(Instant::now() + budget, || self.nodes.iter().find_map(wanted)))
    }

    /// Register an endpoint contact under `name` (first reachable node;
    /// gossip replicates it to the rest). A live name is replaced: a
    /// restarted rank re-registers the name its dead incarnation left.
    pub fn register(&self, name: &str, contact: &WireContact) -> Result<(), DirectoryError> {
        let req = protocol::message("dreg").with("name", FieldValue::Str(name.to_string()));
        match self.request_until(&with_contact(req, contact), "dok", REGISTER_BUDGET) {
            Some(_) => Ok(()),
            None => Err(DirectoryError::Unavailable(format!(
                "no directory node accepted registration of `{name}`"
            ))),
        }
    }

    /// Look `name` up, polling every node until `timeout` — the name may
    /// belong to a process that has not finished registering yet.
    pub fn lookup(&self, name: &str, timeout: Duration) -> Result<WireContact, DirectoryError> {
        let req = protocol::message("dlkp").with("name", FieldValue::Str(name.to_string()));
        self.request_until(&req, "dhit", timeout)
            .and_then(|hit| contact_of(&hit))
            .ok_or_else(|| DirectoryError::LookupTimeout(name.to_string()))
    }
}

/// Hand a directory node process its peer list (the parent that spawned
/// the cluster collects all addresses first, then bootstraps each node).
/// `peers[i]` is the address of the node bound with id `i`; the node's
/// own address may be among them.
pub fn send_peer_list(node_addr: &str, peers: &[String]) -> io::Result<()> {
    let req = protocol::message("dpeers").with("addrs", FieldValue::Str(peers.join(",")));
    RemoteDirectory::request_once(node_addr, &req).map(|_| ())
}

// --------------------------------------------------- directory (server)

/// How often an idle request port looks at its listener.
const ACCEPT_PACE: Duration = Duration::from_millis(1);

/// A cross-process directory node: a [`DirectoryNode`] of [`WireContact`]s
/// behind the one listener both its clients and its peers dial. A
/// connection opens with one framed record: a `dreg`/`dlkp`/`dpeers`
/// request, answered and closed, or a peer's `dgossip` hello, after which
/// the stream is that peer's gossip link into this node.
pub struct WireDirNode {
    node: Arc<DirectoryNode<WireContact>>,
    listener: SocketListener,
    gossip_every: Duration,
}

impl WireDirNode {
    /// Bind a node (ephemeral address). `id` stamps the entries and tokens
    /// it originates and is its position in the cluster's peer list;
    /// `faults` is as for [`crate::DirectoryCluster::new`].
    pub fn bind(
        id: u64,
        kind: SocketKind,
        gossip_every: Duration,
        faults: Option<Arc<FaultPlan>>,
    ) -> io::Result<WireDirNode> {
        let listener = SocketListener::bind(kind)?;
        listener.set_nonblocking(true)?;
        let node = Arc::new(DirectoryNode::new(id, 1, Arc::default(), faults));
        Ok(WireDirNode { node, listener, gossip_every })
    }

    /// The node's connectable address.
    pub fn addr(&self) -> &str {
        self.listener.local_addr()
    }

    /// The node behind the port (liveness, counters, its store).
    pub fn node(&self) -> &Arc<DirectoryNode<WireContact>> {
        &self.node
    }

    /// Spawn the node's two loops — its gossip rounds and its request
    /// port, [`crate::task`]'s periodic loop each — onto `reactor`. Both
    /// end when the node dies, which closes the listener: to a client, a
    /// dead node refuses connections.
    pub fn spawn_on(self, reactor: &mut Reactor) {
        reactor.spawn(self.node.serve_task(self.gossip_every).1);
        let (_, port) = periodic(ACCEPT_PACE, move || {
            let alive = self.node.is_alive();
            if alive {
                while let Ok(Some(stream)) = self.listener.try_accept() {
                    self.handle(stream);
                }
            }
            (None::<()>, !alive)
        });
        reactor.spawn(port);
    }

    fn handle(&self, mut stream: SockStream) {
        // The opening record follows the connect immediately; bound the
        // read so one bad connection cannot hold the node up for long.
        let _ = stream.set_nonblocking(false);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        let Ok(frame) = read_frame(&mut stream, CTRL_FRAME_MAX) else { return };
        let Ok(req) = Record::decode(&frame) else { return };
        let name = req.get_str("name");
        let reply = match protocol::kind_of(&req) {
            "dreg" => {
                let registered = match (name, contact_of(&req)) {
                    (Some(name), Some(contact)) => self.node.register(name, contact, true).is_ok(),
                    _ => false,
                };
                protocol::message(if registered { "dok" } else { "derr" })
            }
            "dlkp" => match name.and_then(|n| self.node.store.lookup_local(n)) {
                Some(contact) => with_contact(protocol::message("dhit"), &contact),
                None => protocol::message("dmiss"),
            },
            "dpeers" => {
                self.dial_peers(req.get_str("addrs").unwrap_or_default());
                protocol::message("dok")
            }
            "dgossip" => {
                let mut link = SocketReceiver::over(stream);
                link.set_max_frame(CTRL_FRAME_MAX);
                self.node.add_peer_receiver(Box::new(link));
                return;
            }
            _ => protocol::message("derr"),
        };
        let _ = write_frame(&mut stream, &reply.encode());
    }

    /// Open the outbound gossip links: dial every peer and say hello. No
    /// answer is awaited (nodes on one reactor cannot wait on each other);
    /// an unreachable peer gets no link, like one that has died.
    fn dial_peers(&self, addrs: &str) {
        let hello = protocol::message("dgossip").encode();
        for (peer, addr) in addrs.split(',').enumerate() {
            if addr.is_empty() || addr == self.addr() {
                continue;
            }
            let Ok(mut stream) = connect(addr) else { continue };
            if write_frame(&mut stream, &hello).is_ok() {
                self.node.add_peer_sender(peer as u64, Box::new(SocketSender::over(stream)));
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

    /// The reader roster, once the reader coordinator has dialed this
    /// (writer coordinator's) hub with its `attach` hello: the frame that
    /// follows it is read here, bounded as `WireDirNode::handle` bounds
    /// its own, by whoever probes for the reader side.
    pub(crate) fn take_attach(&self) -> Option<Vec<CoreLocation>> {
        let mut stream = self.hub.try_take(&self.attach_key())?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        let frame = read_frame(&mut stream, CTRL_FRAME_MAX).ok()?;
        unpack_roster(&contact_of(&Record::decode(&frame).ok()?)?.meta)
    }

    fn attach_key(&self) -> String {
        format!("{}|attach", self.stream)
    }

    /// Register this process's hub as endpoint `role``rank` (`w0`, `r3`).
    fn register_rank(&self, role: char, rank: usize, meta: Vec<u64>) -> io::Result<()> {
        let contact = WireContact { addr: self.hub.addr().to_string(), meta };
        self.dir
            .register(&self.endpoint_name(&format!("{role}{rank}")), &contact)
            .map_err(|e| io::Error::new(io::ErrorKind::AddrNotAvailable, e.to_string()))
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

    /// Nothing to wait on until the hub hands over the stream.
    fn wait_readable(&mut self, timeout: Duration) -> bool {
        self.inner.as_mut().is_some_and(|rx| rx.wait_readable(timeout))
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

/// Inverse of [`pack_roster`]. The count is a peer's word (the directory
/// `meta` of `w0`, the attach frame): sized with checked arithmetic, and
/// refused unless the words it claims are there.
fn unpack_roster(meta: &[u64]) -> Option<Vec<CoreLocation>> {
    let count = usize::try_from(*meta.first()?).ok()?;
    let body = meta.get(1..count.checked_mul(3)?.checked_add(1)?)?;
    Some(
        body.chunks_exact(3)
            .map(|c| CoreLocation { node: c[0] as usize, numa: c[1] as usize, core: c[2] as usize })
            .collect(),
    )
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
/// rank roster in its metadata. The reader coordinator's attach arrives at
/// rank 0's hub, where `LinkState::try_reader_info` finds it.
pub fn open_writer_proc(cfg: ProcConfig) -> io::Result<StreamWriter> {
    let fabric = fabric_for(&cfg)?;
    let cores = synth_cores(0, cfg.nranks);
    let link =
        LinkState::new(cfg.nranks, cores.clone(), None, &cfg.hints, Some(Arc::clone(&fabric)));
    let meta = if cfg.rank == 0 { pack_roster(&cores) } else { Vec::new() };
    fabric.register_rank('w', cfg.rank, meta)?;
    Ok(StreamWriter::new(link, cfg.rank, cfg.nranks, cfg.hints))
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
    fabric.register_rank('r', cfg.rank, Vec::new())?;
    if cfg.rank == 0 {
        let mut stream = connect_retry(&w0.addr, cfg.hints.net_connect_timeout)?;
        let attach =
            WireContact { addr: fabric.hub.addr().to_string(), meta: pack_roster(&reader_cores) };
        write_frame(&mut stream, fabric.attach_key().as_bytes())?;
        write_frame(&mut stream, &with_contact(protocol::message("attach"), &attach).encode())?;
    }
    Ok(StreamReader::new(link, cfg.rank, cfg.nranks, cfg.hints))
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
        let arrived =
            poll_until(Instant::now() + Duration::from_secs(2), || hub.try_take("s|data:0->1"));
        let mut parked = block_inline(arrived).expect("parked");
        assert!(hub.try_take("s|data:0->1").is_none(), "taken exactly once");
        let body = read_frame(&mut parked, CTRL_FRAME_MAX).unwrap();
        assert_eq!(body, b"payload-after-hello");
    }

    /// Bind `n` nodes gossiping every `every`, run them all on one
    /// reactor thread and bootstrap their peer lists. The nodes serve
    /// until killed; killing them all ends the thread.
    fn serve_cluster(
        n: u64,
        every: Duration,
    ) -> (Vec<String>, Vec<Arc<DirectoryNode<WireContact>>>, std::thread::JoinHandle<()>) {
        let wire: Vec<WireDirNode> =
            (0..n).map(|id| WireDirNode::bind(id, SocketKind::Uds, every, None).unwrap()).collect();
        let addrs: Vec<String> = wire.iter().map(|w| w.addr().to_string()).collect();
        let nodes = wire.iter().map(|w| Arc::clone(w.node())).collect();
        let thread = std::thread::spawn(move || {
            let mut reactor = Reactor::new();
            wire.into_iter().for_each(|w| w.spawn_on(&mut reactor));
            reactor.run();
        });
        for addr in &addrs {
            send_peer_list(addr, &addrs).unwrap();
        }
        (addrs, nodes, thread)
    }

    #[test]
    fn wire_dir_node_serves_register_and_lookup() {
        let (addrs, nodes, thread) = serve_cluster(1, Duration::from_millis(5));
        let dir = RemoteDirectory::new(addrs);
        assert!(dir.lookup("s#w0", Duration::from_millis(50)).is_err());
        let first = WireContact { addr: "tcp:127.0.0.1:9".into(), meta: vec![1, 2] };
        dir.register("s#w0", &first).unwrap();
        assert_eq!(dir.lookup("s#w0", Duration::from_secs(2)).unwrap(), first);
        // A restarted rank registers its old name again and replaces it.
        let second = WireContact { addr: "tcp:127.0.0.1:10".into(), meta: vec![] };
        dir.register("s#w0", &second).unwrap();
        assert_eq!(dir.lookup("s#w0", Duration::from_secs(2)).unwrap(), second);
        // A dead node refuses connections instead of answering.
        nodes[0].kill();
        thread.join().unwrap();
        assert!(dir.lookup("s#w0", Duration::from_millis(50)).is_err());
    }

    #[test]
    fn gossip_replicates_registrations_across_nodes() {
        let (addrs, nodes, thread) = serve_cluster(2, Duration::from_millis(5));
        // Register on A only; read back through B only.
        let only_a = RemoteDirectory::new(vec![addrs[0].clone()]);
        let contact = WireContact { addr: "uds:/tmp/r3".into(), meta: vec![7] };
        only_a.register("s#r3", &contact).unwrap();
        let only_b = RemoteDirectory::new(vec![addrs[1].clone()]);
        let hit = only_b.lookup("s#r3", Duration::from_secs(5)).expect("gossip converged");
        assert_eq!(hit, contact);
        nodes.iter().for_each(|n| n.kill());
        thread.join().unwrap();
    }

    #[test]
    fn a_hub_receiver_has_no_fd_to_wait_on_until_its_peer_dials_in() {
        let cfg = ProcConfig {
            stream: "s".into(),
            rank: 0,
            nranks: 1,
            dir_addrs: vec!["tcp:127.0.0.1:9".into()],
            kind: SocketKind::Tcp,
            hints: StreamHints::default(),
        };
        let fabric = fabric_for(&cfg).expect("bind hub");
        let id = ChannelId::Data { w: 0, r: 0 };
        let mut rx = fabric.make_receiver(id);
        let t0 = Instant::now();
        assert!(!rx.wait_readable(Duration::from_secs(5)), "nothing to wait on yet");
        assert!(t0.elapsed() < Duration::from_secs(1), "waited without a stream");

        let mut peer = connect_retry(fabric.hub.addr(), Duration::from_secs(2)).expect("dial");
        write_frame(&mut peer, fabric.channel_key(id).as_bytes()).unwrap();
        write_frame(&mut peer, b"first").unwrap();
        let msg = |rx: &mut BoxedReceiver| match rx.poll_recv() {
            RecvPoll::Msg(m) => Some(m),
            _ => None,
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let first = block_inline(poll_until(deadline, || msg(&mut rx)));
        assert_eq!(first.as_deref(), Some(&b"first"[..]));
        assert!(rx.wait_readable(Duration::from_millis(10)), "the adopted stream is waited on");
    }

    #[test]
    fn roster_round_trips() {
        let cores = synth_cores(3, 5);
        assert_eq!(unpack_roster(&pack_roster(&cores)), Some(cores));
        assert_eq!(unpack_roster(&[]), None, "no count");
        assert_eq!(unpack_roster(&[9, 0, 0, 0]), None, "truncated roster");
        // A hostile count must not overflow the range it sizes.
        assert_eq!(unpack_roster(&[u64::MAX]), None);
        assert_eq!(unpack_roster(&[u64::MAX / 3 + 1, 0, 0, 0]), None);
    }
}
