//! The replicated directory service: cluster assembly, the per-node
//! gossip/serve loop ([`crate::task`]'s periodic loop), and the
//! failover-capable client handle.
//!
//! A staging node spawns one [`DirectoryCluster::serve_task`] future per
//! local directory node onto the same single-threaded
//! `flexio_reactor::Reactor` that already drives its stream couplings, so
//! the whole control plane shares one core, and keeps the handle that
//! stops it. For deployments without their own reactor,
//! [`DirectoryCluster::spawn_driver`] runs the loops on a private reactor
//! thread that lives exactly as long as the returned handle.

use std::future::Future;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use evpath::{inproc_pair, FaultPlan};
use flexio_reactor::{block_inline, poll_for};

use crate::link::LinkState;
use crate::task::LoopHandle;

use super::gossip::DirectoryNode;
use super::{DirectoryError, DirectoryService};

/// A set of gossip-replicated directory nodes wired into a full mesh.
/// Cheap to clone; all clones share the same nodes.
#[derive(Clone)]
pub struct DirectoryCluster {
    nodes: Vec<Arc<DirectoryNode>>,
    interval: Duration,
}

impl DirectoryCluster {
    /// Build `node_count` nodes, each with a `shards`-striped store,
    /// gossiping every `interval`. With a fault plan installed, every
    /// inter-node channel `gossip:<from>-><to>` is wrapped (so frames
    /// can be dropped/delayed deterministically) and `dirnode:<id>`
    /// specs with `crash_sender_after = Some(r)` kill node `id` after
    /// `r` gossip rounds.
    pub fn new(
        node_count: usize,
        shards: usize,
        interval: Duration,
        faults: Option<Arc<FaultPlan>>,
    ) -> DirectoryCluster {
        let node_count = node_count.max(1);
        let contacts = Arc::default();
        let nodes: Vec<Arc<DirectoryNode>> = (0..node_count as u64)
            .map(|id| {
                Arc::new(DirectoryNode::new(id, shards, Arc::clone(&contacts), faults.clone()))
            })
            .collect();
        // Full mesh: one directed channel per ordered pair.
        for a in 0..node_count {
            for b in 0..node_count {
                if a == b {
                    continue;
                }
                // Senders and receivers are registered pairwise so node
                // `a` ships to `b` on the same channel `b` drains.
                let (tx, rx) = inproc_pair();
                nodes[a].add_peer_sender(b as u64, tx);
                nodes[b].add_peer_receiver(rx);
            }
        }
        DirectoryCluster { nodes, interval }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to node `i` (tests, counters).
    pub fn node(&self, i: usize) -> &Arc<DirectoryNode> {
        &self.nodes[i]
    }

    /// A client handle bound to node `i`: that node serves the handle's
    /// traffic until it dies, then the handle fails over round-robin.
    pub fn handle(&self, i: usize) -> ReplicatedDirectory {
        assert!(i < self.nodes.len());
        ReplicatedDirectory {
            nodes: self.nodes.clone(),
            preferred: Arc::new(AtomicUsize::new(i)),
            _driver: None,
        }
    }

    /// The gossip/serve loop of node `i`: spawn the future on any
    /// `flexio_reactor::Reactor` — e.g. the one already driving a staging
    /// node's stream couplings — and the node gossips every cluster
    /// interval until it dies or the handle's `stop`.
    pub fn serve_task(
        &self,
        i: usize,
    ) -> (LoopHandle<()>, impl Future<Output = ()> + Send + 'static) {
        self.nodes[i].serve_task(self.interval)
    }

    /// Run every node's serve loop on a private reactor thread and
    /// return a handle bound to node 0. The thread (and the gossip) stop
    /// when the last clone of the returned handle drops.
    pub fn spawn_driver(&self) -> ReplicatedDirectory {
        let (loops, tasks): (Vec<_>, Vec<_>) =
            (0..self.nodes.len()).map(|i| self.serve_task(i)).unzip();
        let thread = std::thread::Builder::new()
            .name("flexio-directory".into())
            .spawn(move || {
                let mut reactor = flexio_reactor::Reactor::new();
                for task in tasks {
                    reactor.spawn(task);
                }
                reactor.run();
            })
            .expect("spawn directory driver thread");
        let mut handle = self.handle(0);
        handle._driver = Some(Arc::new(DriverGuard { loops, thread: Some(thread) }));
        handle
    }
}

/// Keeps the driver thread alive while any handle clone exists; stops
/// the serve loops and joins the thread when the last one drops.
struct DriverGuard {
    loops: Vec<LoopHandle<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for DriverGuard {
    fn drop(&mut self) {
        self.loops.iter().for_each(LoopHandle::stop);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Client handle onto a [`DirectoryCluster`], implementing
/// [`DirectoryService`] with eventual consistency: writes go to the
/// handle's bound node and reach the others via gossip; lookups are
/// served entirely by the bound node's local store. When the bound node
/// dies the handle fails over to the next live node; with every node
/// dead, operations return [`DirectoryError::Unavailable`].
#[derive(Clone)]
pub struct ReplicatedDirectory {
    nodes: Vec<Arc<DirectoryNode>>,
    preferred: Arc<AtomicUsize>,
    /// Present on handles created by [`DirectoryCluster::spawn_driver`].
    _driver: Option<Arc<DriverGuard>>,
}

impl ReplicatedDirectory {
    /// The node currently serving this handle, failing over (and
    /// remembering the failover) if the preferred node is dead.
    fn pick(&self) -> Result<Arc<DirectoryNode>, DirectoryError> {
        let start = self.preferred.load(Ordering::Relaxed) % self.nodes.len();
        for off in 0..self.nodes.len() {
            let i = (start + off) % self.nodes.len();
            if self.nodes[i].is_alive() {
                if off != 0 {
                    self.preferred.store(i, Ordering::Relaxed);
                }
                return Ok(Arc::clone(&self.nodes[i]));
            }
        }
        Err(DirectoryError::Unavailable("every directory node is down".to_string()))
    }
}

impl DirectoryService for ReplicatedDirectory {
    fn register(&self, name: &str, contact: Arc<LinkState>) -> Result<(), DirectoryError> {
        loop {
            let node = self.pick()?;
            match node.register(name, Arc::clone(&contact), false) {
                // The node died between pick and register: fail over.
                Err(DirectoryError::Unavailable(_)) => continue,
                other => return other,
            }
        }
    }

    fn lookup(&self, name: &str, timeout: Duration) -> Result<Arc<LinkState>, DirectoryError> {
        // Every probe picks again, so a node dying mid-wait fails over.
        block_inline(poll_for(timeout, || match self.pick() {
            Ok(node) => node.store.lookup_local(name).map(Ok),
            Err(down) => Some(Err(down)),
        }))
        .unwrap_or_else(|| Err(DirectoryError::LookupTimeout(name.to_string())))
    }

    fn try_lookup(&self, name: &str) -> Option<Arc<LinkState>> {
        self.pick().ok()?.store.lookup_local(name)
    }

    fn unregister(&self, name: &str) -> bool {
        loop {
            match self.pick() {
                Err(_) => return false,
                Ok(node) => match node.unregister(name) {
                    Err(DirectoryError::Unavailable(_)) => continue,
                    Err(_) | Ok(false) => return false,
                    Ok(true) => return true,
                },
            }
        }
    }

    fn registration_count(&self) -> u64 {
        // Merges don't bump store counters, so summing across nodes
        // counts each client registration exactly once (at its origin).
        self.nodes.iter().map(|n| n.store.registration_count()).sum()
    }

    fn lookup_count(&self) -> u64 {
        self.nodes.iter().map(|n| n.store.lookup_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_link() -> Arc<LinkState> {
        crate::link::LinkState::for_tests()
    }

    fn driven_cluster(nodes: usize) -> (DirectoryCluster, ReplicatedDirectory) {
        let cluster = DirectoryCluster::new(nodes, 4, Duration::from_millis(1), None);
        let handle = cluster.spawn_driver();
        (cluster, handle)
    }

    #[test]
    fn same_handle_sees_its_own_writes_immediately() {
        let (_cluster, dir) = driven_cluster(3);
        let link = dummy_link();
        dir.register("mine", Arc::clone(&link)).unwrap();
        let found = dir.try_lookup("mine").expect("own write visible without waiting");
        assert!(Arc::ptr_eq(&link, &found));
    }

    #[test]
    fn gossip_replicates_to_every_node() {
        let (cluster, _driver) = driven_cluster(3);
        let link = dummy_link();
        cluster.handle(1).register("shared", Arc::clone(&link)).unwrap();
        for i in 0..3 {
            let found = cluster.handle(i).lookup("shared", Duration::from_secs(2)).unwrap();
            assert!(Arc::ptr_eq(&link, &found), "node {i} must serve the entry");
        }
        assert!(cluster.node(1).gossip_counters().snapshot().frames_sent > 0, "digests were sent");
    }

    #[test]
    fn dead_cluster_reports_unavailable() {
        let cluster = DirectoryCluster::new(2, 2, Duration::from_millis(1), None);
        cluster.node(0).kill();
        cluster.node(1).kill();
        let dir = cluster.handle(0);
        let err = dir.register("x", dummy_link()).unwrap_err();
        assert!(matches!(err, DirectoryError::Unavailable(_)), "{err:?}");
        let err = dir.lookup("x", Duration::from_millis(5)).err().expect("must fail");
        assert!(matches!(err, DirectoryError::Unavailable(_)), "{err:?}");
        assert!(dir.try_lookup("x").is_none());
        assert!(!dir.unregister("x"));
    }

    #[test]
    fn handle_fails_over_to_a_live_node() {
        let (cluster, _driver) = driven_cluster(3);
        let dir = cluster.handle(0);
        dir.register("before", dummy_link()).unwrap();
        // Let gossip replicate "before" off node 0, then kill it.
        cluster.handle(1).lookup("before", Duration::from_secs(2)).unwrap();
        cluster.node(0).kill();
        dir.register("after", dummy_link()).unwrap();
        let bound = dir.preferred.load(Ordering::Relaxed) % dir.nodes.len();
        assert_ne!(bound, 0, "handle must have failed over");
        dir.lookup("before", Duration::from_secs(2)).unwrap();
        dir.lookup("after", Duration::from_secs(2)).unwrap();
    }
}
