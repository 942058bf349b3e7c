//! `machine` — parameterized models of the HPC machines used in the paper.
//!
//! The FlexIO evaluation runs on two ORNL machines:
//!
//! * **Smoky** — an 80-node InfiniBand cluster; each node has four quad-core
//!   2.0 GHz AMD Barcelona processors, i.e. four NUMA domains each with a
//!   shared L3 cache (paper Fig. 5), 32 GB RAM, DDR InfiniBand.
//! * **Titan** — a Cray XK6; each node has one 16-core 2.2 GHz AMD Opteron
//!   6274 "Interlagos" (two NUMA domains of 8 cores, each with its own
//!   shared L3), 32 GB RAM, Gemini interconnect.
//!
//! Neither machine is available to us, so this crate captures what the
//! placement algorithms and the discrete-event co-simulation actually
//! consume: the **topology tree** (node / NUMA / L3 / core levels with
//! per-level communication costs), interconnect parameters (bandwidth,
//! latency, registration costs), memory-system parameters, and file-system
//! parameters. The presets are calibrated from public specifications and the
//! paper's own measurements (e.g. Fig. 4's bandwidth plateau).
//!
//! Everything is a plain-old-data description; the behavioural models that
//! consume these parameters live in `netsim`, `memsim`, `dessim`.

mod cache;
mod interconnect;
mod node;
mod presets;
mod storage;
mod tree;

pub use cache::CacheParams;
pub use interconnect::{InterconnectParams, RegistrationParams};
pub use node::{CoreLocation, NodeParams};
pub use presets::{laptop, smoky, titan};
pub use storage::FileSystemParams;
pub use tree::{ArchTree, ArchTreeKind, TreeNodeId};

/// A complete machine description: node architecture, interconnect,
/// file system, and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Human-readable machine name (e.g. `"titan"`).
    pub name: String,
    /// Per-node architecture (cores, NUMA domains, caches, clock).
    pub node: NodeParams,
    /// Inter-node network parameters.
    pub interconnect: InterconnectParams,
    /// Shared parallel file system parameters.
    pub fs: FileSystemParams,
    /// Number of compute nodes available.
    pub num_nodes: usize,
}

impl MachineModel {
    /// Total cores across the whole machine.
    pub fn total_cores(&self) -> usize {
        self.num_nodes * self.node.cores_per_node()
    }

    /// Build the two-level architecture tree used by *holistic placement*
    /// (paper §III.B.2): root → nodes → cores, ignoring on-node structure.
    pub fn two_level_tree(&self, nodes: usize) -> ArchTree {
        ArchTree::build(self, nodes, ArchTreeKind::TwoLevel)
    }

    /// Build the multi-level topology tree used by *node-topology-aware
    /// placement* (paper §III.B.3): root → nodes → NUMA domains → cores.
    pub fn topology_tree(&self, nodes: usize) -> ArchTree {
        ArchTree::build(self, nodes, ArchTreeKind::NumaAware)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let t = titan();
        assert_eq!(t.node.cores_per_node(), 16);
        assert_eq!(t.node.numa_domains, 2);
        assert_eq!(t.num_nodes, 18688);
        let s = smoky();
        assert_eq!(s.node.cores_per_node(), 16);
        assert_eq!(s.node.numa_domains, 4);
        assert_eq!(s.num_nodes, 80);
    }

    #[test]
    fn total_cores() {
        assert_eq!(smoky().total_cores(), 80 * 16);
    }
}
