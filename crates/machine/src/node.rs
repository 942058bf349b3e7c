//! Compute-node architecture description.

use crate::cache::CacheParams;

/// Location of one core inside the machine, used as the unit of placement
/// (paper §III maps each process/thread to one core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreLocation {
    /// Compute-node index.
    pub node: usize,
    /// NUMA domain index within the node.
    pub numa: usize,
    /// Core index within the NUMA domain.
    pub core: usize,
}

impl CoreLocation {
    /// True if both cores are on the same compute node.
    pub fn same_node(&self, other: &CoreLocation) -> bool {
        self.node == other.node
    }

    /// True if both cores share a NUMA domain (and hence, on the modelled
    /// machines, the same L3 cache).
    pub fn same_numa(&self, other: &CoreLocation) -> bool {
        self.node == other.node && self.numa == other.numa
    }
}

/// Per-node architecture parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeParams {
    /// Number of NUMA domains per node.
    pub numa_domains: usize,
    /// Cores per NUMA domain.
    pub cores_per_numa: usize,
    /// Core clock in GHz (drives instruction-time conversion in `dessim`).
    pub clock_ghz: f64,
    /// Shared last-level cache per NUMA domain.
    pub l3: CacheParams,
    /// Total DRAM per node, bytes.
    pub dram_bytes: u64,
    /// Sustained memory copy bandwidth within a NUMA domain, bytes/sec.
    /// This bounds the shared-memory transport (paper §II.D: two copies).
    pub local_copy_bw: f64,
    /// Sustained memory copy bandwidth across NUMA domains, bytes/sec
    /// (lower than local; drives the NUMA buffer-pinning policy §III.B.3).
    pub remote_copy_bw: f64,
    /// Latency of a small shared-memory queue transfer, nanoseconds.
    pub shm_latency_ns: f64,
}

impl NodeParams {
    /// Total cores in the node.
    pub fn cores_per_node(&self) -> usize {
        self.numa_domains * self.cores_per_numa
    }

    /// Flatten a core location to a machine-wide linear index.
    pub fn linear_index(&self, loc: CoreLocation) -> usize {
        loc.node * self.cores_per_node() + loc.numa * self.cores_per_numa + loc.core
    }

    /// Inverse of [`NodeParams::linear_index`].
    pub fn location_of(&self, linear: usize) -> CoreLocation {
        let per_node = self.cores_per_node();
        let node = linear / per_node;
        let within = linear % per_node;
        CoreLocation {
            node,
            numa: within / self.cores_per_numa,
            core: within % self.cores_per_numa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeParams {
        NodeParams {
            numa_domains: 4,
            cores_per_numa: 4,
            clock_ghz: 2.0,
            l3: CacheParams::barcelona_l3(),
            dram_bytes: 32 << 30,
            local_copy_bw: 4e9,
            remote_copy_bw: 2e9,
            shm_latency_ns: 200.0,
        }
    }

    #[test]
    fn linear_index_roundtrip() {
        let n = sample();
        for i in 0..64 {
            assert_eq!(n.linear_index(n.location_of(i)), i);
        }
    }

    #[test]
    fn cores_of_node_enumerates_all() {
        let n = sample();
        // Node 3's cores are the fourth block of linear indices.
        let cores: Vec<CoreLocation> = (48..64).map(|i| n.location_of(i)).collect();
        assert_eq!(cores.len(), 16);
        assert!(cores.iter().all(|c| c.node == 3));
        assert_eq!(cores[5], CoreLocation { node: 3, numa: 1, core: 1 });
    }

    #[test]
    fn numa_sharing_predicates() {
        let a = CoreLocation { node: 0, numa: 1, core: 0 };
        let b = CoreLocation { node: 0, numa: 1, core: 3 };
        let c = CoreLocation { node: 0, numa: 2, core: 0 };
        let d = CoreLocation { node: 1, numa: 1, core: 0 };
        assert!(a.same_numa(&b));
        assert!(a.same_node(&c) && !a.same_numa(&c));
        assert!(!a.same_node(&d));
    }
}
