//! Multi-node directory coverage: a 3-node gossip-replicated cluster
//! converging under a seeded fault plan that drops inter-node frames,
//! tombstone propagation, re-registration after a tombstone, failover
//! when the fault schedule kills a node, the serve loops running as
//! tasks on one explicit reactor, and the trait-object API spanning all
//! three backends.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evpath::{FaultPlan, FaultSpec};
use flexio::link::LinkState;
use flexio::plugins::PluginPlacement;
use flexio::{
    DirectoryCluster, DirectoryError, DirectoryService, InProcDirectory, MonitorEvent,
    PlacementManager, ShardedDirectory,
};

fn dummy_link() -> Arc<LinkState> {
    LinkState::for_tests()
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

#[test]
fn three_nodes_converge_while_dropping_gossip_frames() {
    // The acceptance scenario: a seeded fault plan drops >10% of every
    // gossip channel's frames, yet each node ends up serving lookups for
    // names registered at every other node — anti-entropy just re-sends
    // the digest next round.
    let mut plan = FaultPlan::new(42);
    plan.set("gossip", FaultSpec { drop_per_mille: 150, ..Default::default() });
    let plan = Arc::new(plan);
    let cluster = DirectoryCluster::new(3, 8, Duration::from_millis(1), Some(Arc::clone(&plan)));
    let _driver = cluster.spawn_driver();

    let links: Vec<Arc<LinkState>> = (0..3).map(|_| dummy_link()).collect();
    for (i, link) in links.iter().enumerate() {
        cluster.handle(i).register(&format!("stream/{i}"), Arc::clone(link)).unwrap();
    }
    for served_by in 0..3 {
        let handle = cluster.handle(served_by);
        for (registered_at, link) in links.iter().enumerate() {
            let found = handle
                .lookup(&format!("stream/{registered_at}"), Duration::from_secs(5))
                .unwrap_or_else(|e| {
                    panic!("node {served_by} must serve stream/{registered_at}: {e:?}")
                });
            assert!(Arc::ptr_eq(link, &found), "the replicated contact is the original");
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
    assert_eq!(cluster.handle(0).registration_count(), 3);
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

#[test]
fn fault_schedule_kills_a_node_and_handles_fail_over() {
    // dirnode:0 dies after 5 gossip rounds — purely from the seeded
    // schedule, nobody calls kill(). A handle bound to it keeps working
    // by failing over, and entries registered before the death survive
    // on the remaining nodes.
    let mut plan = FaultPlan::new(7);
    plan.set("dirnode:0", FaultSpec { crash_sender_after: Some(5), ..Default::default() });
    let plan = Arc::new(plan);
    let cluster = DirectoryCluster::new(3, 4, Duration::from_millis(1), Some(plan));
    let _driver = cluster.spawn_driver();

    let dir = cluster.handle(0);
    dir.register("early", dummy_link()).unwrap();
    cluster.handle(1).lookup("early", Duration::from_secs(2)).unwrap();
    assert!(
        eventually(Duration::from_secs(2), || !cluster.node(0).is_alive()),
        "the fault schedule must kill node 0"
    );

    dir.register("late", dummy_link()).unwrap();
    assert_ne!(dir.bound_node(), 0, "the handle must have failed over off the dead node");
    dir.lookup("early", Duration::from_secs(2)).unwrap();
    dir.lookup("late", Duration::from_secs(2)).unwrap();
    // The survivors replicate to each other but never to the corpse.
    cluster.handle(2).lookup("late", Duration::from_secs(2)).unwrap();
    assert!(cluster.node(0).store().try_lookup("late").is_none());
}

#[test]
fn serve_loops_run_as_tasks_on_one_explicit_reactor() {
    // No spawn_driver: the test owns the reactor, spawning every node's
    // serve loop onto it the way a staging node would alongside its
    // stream couplings — three gossiping nodes, one OS thread.
    let cluster = DirectoryCluster::new(3, 4, Duration::from_millis(1), None);
    let tasks: Vec<_> = (0..3).map(|i| cluster.serve_task(i)).collect();
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
    cluster.shutdown();
    reactor_thread.join().unwrap();
    assert!(cluster.node(0).gossip_counters().snapshot().0 > 0, "node 0 gossiped on the reactor");
}

#[test]
fn trait_object_api_spans_every_backend() {
    // The redesigned API's core promise: callers hold Arc<dyn
    // DirectoryService> and never know which backend serves them. The
    // placement manager's decide_stream runs unchanged against all three.
    let cluster = DirectoryCluster::new(2, 4, Duration::from_millis(1), None);
    let backends: Vec<(&str, Arc<dyn DirectoryService>)> = vec![
        ("in-proc", Arc::new(InProcDirectory::new())),
        ("sharded", Arc::new(ShardedDirectory::new(8))),
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
        let rec = mgr.decide_stream(dir.as_ref(), "managed", 0).unwrap();
        assert_eq!(rec.placement, PluginPlacement::WriterSide, "{kind}: heavy wire ⇒ writer side");
        assert!(matches!(
            mgr.decide_stream(dir.as_ref(), "missing", 0),
            Err(DirectoryError::LookupTimeout(_))
        ));

        assert!(dir.unregister("managed"), "{kind}");
        assert!(dir.try_lookup("managed").is_none(), "{kind}");
        assert_eq!(dir.registration_count(), 1, "{kind}");
    }
}
