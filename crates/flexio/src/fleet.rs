//! The staging node's multi-core runtime: a [`ReactorFleet`] wired to
//! the machine's NUMA topology (paper §V applied to FlexIO itself).
//!
//! `flexio-reactor` provides the mechanism — worker threads each
//! running the one event loop over their shard, fed by shard injectors.
//! This module supplies the policy FlexIO cares about:
//!
//! * **thread count** — [`FleetRuntime::new`]'s argument; 0 means the
//!   host's available parallelism.
//! * **shard→core→domain assignment** — shards stripe over the modelled
//!   node's cores ([`machine::NodeParams`]), so every NUMA domain with a
//!   shard gets its own pinned buffer pool.
//! * **buffer placement** — each worker installs a per-shard
//!   [`shm::BufferPool`] pinned to its domain via
//!   [`shm::placement::install_thread_pool`]; every shm channel a shard
//!   creates from then on allocates pooled buffers "locally".
//! * **coupling placement** — [`FleetRuntime::spawn_for`] scores the
//!   candidate domains with [`memsim::best_domain`] over the coupling's
//!   endpoint cores and spawns into the cheapest one, which is
//!   producer-local placement (§III.B.3) when the producer is the lone
//!   endpoint.
//!
//! Everything a staging node runs is a fleet task, spawned through
//! [`FleetRuntime::spawn`] or [`FleetRuntime::spawn_for`]: each service's
//! `into_task` returns a `(handle, future)` pair, the future goes to the
//! fleet and the caller keeps the [`crate::task::LoopHandle`]. The
//! control plane's periodic loops (monitor-sink drain, placement manager,
//! elastic controller, directory gossip) and the step-driven query and
//! reader-group loops are one loop ([`crate::task`]) and ride the fleet
//! cores this way.

use std::future::Future;

use flexio_reactor::{FleetHandle, FleetTopology, ReactorFleet, ShardSnapshot};
use machine::{CoreLocation, MachineModel};
use shm::BufferPool;

/// Per-shard pool reclamation threshold: the same 64 MiB default as a
/// private channel pool, but shared by every channel the shard owns.
const SHARD_POOL_THRESHOLD: u64 = 64 << 20;

/// Nominal transfer size used when scoring candidate NUMA domains for a
/// coupling (the cost model only needs relative ordering).
const PLACEMENT_PROBE_BYTES: u64 = 1 << 20;

/// A [`ReactorFleet`] plus the NUMA-pinned per-shard buffer pools and
/// the machine model its placement decisions read. See the module docs.
pub struct FleetRuntime {
    fleet: ReactorFleet,
    /// Per-shard pinned pools, in shard order (also installed
    /// thread-locally on the matching workers).
    pools: Vec<BufferPool>,
    machine: MachineModel,
}

impl FleetRuntime {
    /// Build a fleet of `threads` workers (0 = the host's available
    /// parallelism) striped over `machine`'s node topology, with one
    /// NUMA-pinned buffer pool per shard.
    pub fn new(machine: &MachineModel, threads: usize) -> FleetRuntime {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let node = &machine.node;
        let topology = FleetTopology::striped(threads, node.numa_domains, node.cores_per_numa);
        let pools: Vec<BufferPool> = topology
            .slots()
            .iter()
            .map(|s| BufferPool::new_pinned(SHARD_POOL_THRESHOLD, s.numa_domain))
            .collect();
        let init_pools = pools.clone();
        let fleet = ReactorFleet::builder(topology)
            .worker_init(move |slot| {
                shm::placement::install_thread_pool(init_pools[slot.shard].clone());
            })
            .build();
        FleetRuntime { fleet, pools, machine: machine.clone() }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.fleet.threads()
    }

    /// A cloneable spawner/observer for the underlying fleet.
    pub fn handle(&self) -> FleetHandle {
        self.fleet.handle()
    }

    /// The machine model placement decisions are scored against.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Spawn onto the least-loaded shard.
    pub fn spawn(&self, fut: impl Future<Output = ()> + Send + 'static) {
        self.fleet.spawn(fut);
    }

    /// Spawn a coupling task near its endpoints: score every NUMA
    /// domain's copy cost to `endpoints` with [`memsim::best_domain`]
    /// and spawn into the cheapest domain's least-loaded shard. With one
    /// endpoint (the producer) this is the paper's producer-local
    /// placement; endpoints on other nodes can't matter to on-node
    /// buffer placement, so only same-node endpoints are scored.
    pub fn spawn_for(
        &self,
        endpoints: &[CoreLocation],
        fut: impl Future<Output = ()> + Send + 'static,
    ) {
        let local: Vec<CoreLocation> = match endpoints.first() {
            Some(first) => endpoints.iter().copied().filter(|e| e.node == first.node).collect(),
            None => Vec::new(),
        };
        if local.is_empty() {
            self.fleet.spawn(fut);
            return;
        }
        let domain = memsim::best_domain(&self.machine.node, &local, PLACEMENT_PROBE_BYTES);
        self.fleet.spawn_in_domain(domain, fut);
    }

    /// Stats of every shard's pinned pool, in shard order:
    /// `(shard, numa_domain, stats)`.
    pub fn pool_stats(&self) -> Vec<(usize, usize, shm::PoolStats)> {
        self.pools
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.numa_domain().expect("fleet pools are pinned"), p.stats()))
            .collect()
    }

    /// Wait for every spawned task to finish and stop the workers,
    /// returning final per-shard counters.
    pub fn join(self) -> Vec<ShardSnapshot> {
        self.fleet.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::laptop;

    #[test]
    fn zero_threads_means_the_hosts_parallelism() {
        let rt = FleetRuntime::new(&laptop(), 0);
        assert!(rt.threads() >= 1);
        rt.join();
    }

    #[test]
    fn shards_stripe_domains_and_pools_match() {
        // laptop: 2 NUMA domains × 2 cores. 4 shards cover both domains;
        // each shard's pool is pinned to its own domain.
        let rt = FleetRuntime::new(&laptop(), 4);
        assert_eq!(rt.threads(), 4);
        let topo = rt.handle().topology().clone();
        assert!(topo.slots().iter().any(|s| s.numa_domain == 0));
        assert!(topo.slots().iter().any(|s| s.numa_domain == 1));
        for (shard, domain, _) in rt.pool_stats() {
            assert_eq!(domain, topo.slot(shard).numa_domain);
        }
        rt.join();
    }

    #[test]
    fn workers_see_their_shard_pool() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let rt = FleetRuntime::new(&laptop(), 4);
        let expect = rt.handle().topology().clone();
        let checked = Arc::new(AtomicUsize::new(0));
        for shard in 0..rt.threads() {
            let expect = expect.clone();
            let checked = Arc::clone(&checked);
            rt.handle().spawn_on(shard, async move {
                let pool = shm::placement::thread_pool().expect("worker has a pool");
                assert_eq!(pool.numa_domain(), Some(expect.slot(shard).numa_domain));
                checked.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.join();
        assert_eq!(checked.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn spawn_for_places_producer_local() {
        // A producer in domain 1: the coupling must land on a shard
        // pinned to domain 1 (laptop has 2 domains; 4 shards cover both).
        let rt = FleetRuntime::new(&laptop(), 4);
        let topo = rt.handle().topology().clone();
        let domain1: Vec<usize> =
            topo.slots().iter().filter(|s| s.numa_domain == 1).map(|s| s.shard).collect();
        let producer = CoreLocation { node: 0, numa: 1, core: 0 };
        for _ in 0..6 {
            rt.spawn_for(&[producer], async {});
        }
        let snaps = rt.join();
        let on_domain1: u64 = domain1.iter().map(|&s| snaps[s].completed).sum();
        assert_eq!(on_domain1, 6, "producer-local placement violated: {snaps:?}");
    }
}
