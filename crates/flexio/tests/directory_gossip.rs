//! Multi-node directory coverage: a 3-node gossip-replicated cluster
//! converging under a seeded fault plan that drops inter-node frames and
//! failing over when the fault schedule kills a node — each over both
//! deployments of the one node type, in-process nodes on in-proc links
//! and wire nodes on socket links — then tombstone propagation,
//! re-registration after a tombstone, the serve loops running as tasks on
//! one explicit reactor, and the trait-object API spanning all three
//! backends.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evpath::{FaultPlan, FaultSpec, SocketKind};
use flexio::directory::{Contact, DirectoryNode};
use flexio::link::LinkState;
use flexio::plugins::PluginPlacement;
use flexio::{
    DirectoryCluster, DirectoryError, DirectoryService, InProcDirectory, LoopHandle, MonitorEvent,
    PlacementManager, RemoteDirectory, ReplicatedDirectory, ShardedDirectory, WireContact,
    WireDirNode,
};

fn dummy_link() -> Arc<LinkState> {
    LinkState::for_tests()
}

/// What the convergence and failover suites need of a 3-node cluster
/// gossiping every millisecond under `plan`, so each runs once per
/// deployment. `via` lists the nodes a client may talk to, preferred
/// first.
trait Deployment {
    type Contact: Contact;
    fn start(plan: Arc<FaultPlan>) -> Self;
    fn node(&self, i: usize) -> &Arc<DirectoryNode<Self::Contact>>;
    fn contact(tag: u64) -> Self::Contact;
    fn same(a: &Self::Contact, b: &Self::Contact) -> bool;
    fn register(&self, via: &[usize], name: &str, contact: Self::Contact);
    fn lookup(&self, via: &[usize], name: &str) -> Result<Self::Contact, DirectoryError>;
}

const LOOKUP_BUDGET: Duration = Duration::from_secs(5);

/// Client registrations `node` took (replication does not count).
fn registrations<C: Contact>(node: &DirectoryNode<C>) -> u64 {
    node.store().shard_snapshots().iter().map(|s| s.0).sum()
}

struct InProcess(DirectoryCluster, #[allow(dead_code)] ReplicatedDirectory);

impl Deployment for InProcess {
    type Contact = Arc<LinkState>;
    fn start(plan: Arc<FaultPlan>) -> Self {
        let cluster = DirectoryCluster::new(3, 8, Duration::from_millis(1), Some(plan));
        let driver = cluster.spawn_driver();
        InProcess(cluster, driver)
    }
    fn node(&self, i: usize) -> &Arc<DirectoryNode> {
        self.0.node(i)
    }
    fn contact(_tag: u64) -> Arc<LinkState> {
        dummy_link()
    }
    fn same(a: &Arc<LinkState>, b: &Arc<LinkState>) -> bool {
        Arc::ptr_eq(a, b)
    }
    // A handle is served by its bound node alone until that node dies.
    fn register(&self, via: &[usize], name: &str, contact: Arc<LinkState>) {
        self.0.handle(via[0]).register(name, contact).unwrap();
    }
    fn lookup(&self, via: &[usize], name: &str) -> Result<Arc<LinkState>, DirectoryError> {
        self.0.handle(via[0]).lookup(name, LOOKUP_BUDGET)
    }
}

/// Three wire nodes in this process, their tasks on one reactor thread,
/// their gossip links Unix-domain sockets, clients going through the
/// request ports.
struct OverSockets {
    addrs: Vec<String>,
    nodes: Vec<Arc<DirectoryNode<WireContact>>>,
    reactor: Option<thread::JoinHandle<()>>,
}

impl OverSockets {
    fn client(&self, via: &[usize]) -> RemoteDirectory {
        RemoteDirectory::new(via.iter().map(|&i| self.addrs[i].clone()).collect())
    }
}

impl Deployment for OverSockets {
    type Contact = WireContact;
    fn start(plan: Arc<FaultPlan>) -> Self {
        let wire: Vec<WireDirNode> = (0..3)
            .map(|id| {
                let plan = Some(Arc::clone(&plan));
                WireDirNode::bind(id, SocketKind::Uds, Duration::from_millis(1), plan).unwrap()
            })
            .collect();
        let addrs: Vec<String> = wire.iter().map(|w| w.addr().to_string()).collect();
        let nodes = wire.iter().map(|w| Arc::clone(w.node())).collect();
        let reactor = thread::spawn(move || {
            let mut reactor = flexio_reactor::Reactor::new();
            wire.into_iter().for_each(|w| w.spawn_on(&mut reactor));
            reactor.run();
        });
        for addr in &addrs {
            flexio::send_peer_list(addr, &addrs).expect("peer bootstrap");
        }
        OverSockets { addrs, nodes, reactor: Some(reactor) }
    }
    fn node(&self, i: usize) -> &Arc<DirectoryNode<WireContact>> {
        &self.nodes[i]
    }
    fn contact(tag: u64) -> WireContact {
        WireContact { addr: format!("uds:/tmp/endpoint-{tag}"), meta: vec![tag] }
    }
    fn same(a: &WireContact, b: &WireContact) -> bool {
        a == b
    }
    fn register(&self, via: &[usize], name: &str, contact: WireContact) {
        self.client(via).register(name, &contact).unwrap();
    }
    fn lookup(&self, via: &[usize], name: &str) -> Result<WireContact, DirectoryError> {
        self.client(via).lookup(name, LOOKUP_BUDGET)
    }
}

impl Drop for OverSockets {
    fn drop(&mut self) {
        // Dead nodes end their tasks; the listeners (and their socket
        // files) go with the reactor thread.
        self.nodes.iter().for_each(|n| n.kill());
        let _ = self.reactor.take().map(thread::JoinHandle::join);
    }
}

/// Poll `cond` until it holds or `budget` elapses.
fn eventually(budget: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + budget;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn converges_while_dropping_gossip_frames<D: Deployment>() {
    // The acceptance scenario: a seeded fault plan drops >10% of every
    // gossip channel's frames, yet each node ends up serving lookups for
    // names registered at every other node — anti-entropy just re-sends
    // the digest next round.
    let mut plan = FaultPlan::new(42);
    plan.set("gossip", FaultSpec { drop_per_mille: 150, ..Default::default() });
    let plan = Arc::new(plan);
    let cluster = D::start(Arc::clone(&plan));

    let contacts: Vec<D::Contact> = (0..3).map(D::contact).collect();
    for (i, contact) in contacts.iter().enumerate() {
        cluster.register(&[i], &format!("stream/{i}"), contact.clone());
    }
    for served_by in 0..3 {
        for (registered_at, contact) in contacts.iter().enumerate() {
            let found =
                cluster.lookup(&[served_by], &format!("stream/{registered_at}")).unwrap_or_else(
                    |e| panic!("node {served_by} must serve stream/{registered_at}: {e:?}"),
                );
            assert!(D::same(contact, &found), "the replicated contact is the original");
        }
    }
    // The plan really was lossy: frames vanished, and more digests were
    // shipped than delivered. The cluster can converge in its first
    // round, before the seeded schedule's first drop comes due; gossip
    // keeps running, so wait for that drop rather than for luck.
    assert!(
        eventually(Duration::from_secs(5), || plan.counters().snapshot().0 > 0),
        "the seeded plan must have dropped gossip frames"
    );
    let sent: u64 = (0..3).map(|i| cluster.node(i).gossip_counters().snapshot().1).sum();
    let received: u64 = (0..3).map(|i| cluster.node(i).gossip_counters().snapshot().2).sum();
    assert!(received < sent, "drops must be visible in the traffic counters");
    assert!(received > 0, "and yet digests got through");
    // Each registration was counted once cluster-wide despite replication.
    assert_eq!((0..3).map(|i| registrations(cluster.node(i))).sum::<u64>(), 3);
}

#[test]
fn three_nodes_converge_while_dropping_gossip_frames() {
    converges_while_dropping_gossip_frames::<InProcess>();
}

#[test]
fn three_nodes_converge_while_dropping_gossip_frames_over_sockets() {
    converges_while_dropping_gossip_frames::<OverSockets>();
}

#[test]
fn tombstones_propagate_and_reregistration_overrides_them() {
    let cluster = DirectoryCluster::new(3, 4, Duration::from_millis(1), None);
    let _driver = cluster.spawn_driver();

    cluster.handle(0).register("s", dummy_link()).unwrap();
    cluster.handle(2).lookup("s", Duration::from_secs(2)).unwrap();

    // Unregister at a *different* node than the registrar: the tombstone
    // must beat the replicated live entry everywhere.
    assert!(cluster.handle(2).unregister("s"));
    assert!(
        eventually(Duration::from_secs(2), || (0..3)
            .all(|i| cluster.handle(i).try_lookup("s").is_none())),
        "the tombstone must reach every node"
    );

    // Re-registration at a third node bumps past the tombstone version
    // and wins everywhere, with the new contact.
    let second = dummy_link();
    cluster.handle(1).register("s", Arc::clone(&second)).unwrap();
    for i in 0..3 {
        let found = cluster.handle(i).lookup("s", Duration::from_secs(2)).unwrap();
        assert!(Arc::ptr_eq(&second, &found), "node {i} must serve the re-registered contact");
    }
}

fn fails_over_when_the_fault_schedule_kills_a_node<D: Deployment>() {
    // dirnode:0 dies after 5 gossip rounds — purely from the seeded
    // schedule, nobody calls kill(). A client that prefers it keeps
    // working by failing over, and entries registered before the death
    // survive on the remaining nodes.
    let mut plan = FaultPlan::new(7);
    plan.set("dirnode:0", FaultSpec { crash_sender_after: Some(5), ..Default::default() });
    let cluster = D::start(Arc::new(plan));

    let prefers_0 = [0, 1, 2];
    cluster.register(&prefers_0, "early", D::contact(1));
    cluster.lookup(&[1], "early").unwrap();
    assert!(
        eventually(Duration::from_secs(2), || !cluster.node(0).is_alive()),
        "the fault schedule must kill node 0"
    );

    let late = D::contact(2);
    cluster.register(&prefers_0, "late", late.clone());
    cluster.lookup(&prefers_0, "early").unwrap();
    assert!(D::same(&late, &cluster.lookup(&prefers_0, "late").unwrap()));
    // The survivors replicate to each other but never to the corpse: it
    // took no registration after "early" and ran no round (the only
    // place a node merges) after its fifth.
    cluster.lookup(&[2], "late").unwrap();
    let taken: Vec<u64> = (0..3).map(|i| registrations(cluster.node(i))).collect();
    assert!(taken[0] <= 1 && taken.iter().sum::<u64>() == 2, "{taken:?}");
    assert_eq!(cluster.node(0).gossip_counters().snapshot().0, 5, "dead nodes gossip nothing");
}

#[test]
fn fault_schedule_kills_a_node_and_handles_fail_over() {
    fails_over_when_the_fault_schedule_kills_a_node::<InProcess>();
}

#[test]
fn fault_schedule_kills_a_node_and_handles_fail_over_over_sockets() {
    fails_over_when_the_fault_schedule_kills_a_node::<OverSockets>();
}

#[test]
fn serve_loops_run_as_tasks_on_one_explicit_reactor() {
    // No spawn_driver: the test owns the reactor, spawning every node's
    // serve loop onto it the way a staging node would alongside its
    // stream couplings — three gossiping nodes, one OS thread.
    let cluster = DirectoryCluster::new(3, 4, Duration::from_millis(1), None);
    let (loops, tasks): (Vec<_>, Vec<_>) = (0..3).map(|i| cluster.serve_task(i)).unzip();
    let reactor_thread = thread::spawn(move || {
        let mut reactor = flexio_reactor::Reactor::new();
        for task in tasks {
            reactor.spawn(task);
        }
        reactor.run();
    });

    cluster.handle(1).register("on-reactor", dummy_link()).unwrap();
    for i in 0..3 {
        cluster.handle(i).lookup("on-reactor", Duration::from_secs(2)).unwrap();
    }
    loops.iter().for_each(LoopHandle::stop);
    reactor_thread.join().unwrap();
    assert!(cluster.node(0).gossip_counters().snapshot().0 > 0, "node 0 gossiped on the reactor");
}

#[test]
fn trait_object_api_spans_every_backend() {
    // The redesigned API's core promise: callers hold Arc<dyn
    // DirectoryService> and never know which backend serves them. The
    // placement manager decides from a link found through any of the three.
    let cluster = DirectoryCluster::new(2, 4, Duration::from_millis(1), None);
    let backends: Vec<(&str, Arc<dyn DirectoryService>)> = vec![
        ("in-proc", Arc::new(InProcDirectory::new())),
        ("sharded", Arc::new(ShardedDirectory::striped(8))),
        ("replicated", Arc::new(cluster.spawn_driver())),
    ];
    for (kind, dir) in backends {
        let link = dummy_link();
        link.monitor.record(MonitorEvent::DataSend, 0, 0, 64 << 20, 0);
        dir.register("managed", Arc::clone(&link)).unwrap();
        assert!(Arc::ptr_eq(&link, &dir.lookup("managed", Duration::from_secs(1)).unwrap()));

        let mut mgr = PlacementManager::builder()
            .initial_placement(PluginPlacement::ReaderSide)
            .build_manager();
        let found = dir.try_lookup("managed").expect("registered");
        let rec = mgr.decide(&found.monitor, 0);
        assert_eq!(rec.placement, PluginPlacement::WriterSide, "{kind}: heavy wire ⇒ writer side");
        assert!(dir.try_lookup("missing").is_none(), "{kind}");

        assert!(dir.unregister("managed"), "{kind}");
        assert!(dir.try_lookup("managed").is_none(), "{kind}");
        assert_eq!(dir.registration_count(), 1, "{kind}");
    }
}
