//! Architecture trees: the machine abstraction the placement algorithms map
//! process graphs onto.
//!
//! The paper models the target machine as a tree (§III.B.2–3): in *holistic
//! placement* it is a two-level tree (cores of the same node are siblings,
//! cheaper to talk to than cores of other nodes); in *node-topology-aware
//! placement* the tree gains a NUMA/cache level so that cores sharing an L3
//! are cheapest of all. The communication cost between two cores is the
//! per-byte cost of the deepest level that still contains both (their
//! lowest common ancestor).

use crate::MachineModel;

/// Index of a tree node in the flattened representation.
pub type TreeNodeId = usize;

/// Which machine abstraction to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchTreeKind {
    /// Root → compute nodes → cores (paper's holistic placement model).
    TwoLevel,
    /// Root → compute nodes → NUMA domains → cores (topology-aware model).
    NumaAware,
}

/// A flattened architecture tree over `nodes` compute nodes of a machine.
///
/// Leaves are cores, ordered by machine-linear index, so leaf `i` is core
/// `i % cores_per_node` of compute node `i / cores_per_node`.
#[derive(Debug, Clone)]
pub struct ArchTree {
    kind: ArchTreeKind,
    parent: Vec<Option<TreeNodeId>>,
    children: Vec<Vec<TreeNodeId>>,
    depth: Vec<usize>,
    /// Per-byte communication cost (ns/byte) of a message whose endpoints'
    /// lowest common ancestor sits at this depth. `level_cost[0]` is the
    /// root (inter-node) cost.
    level_cost: Vec<f64>,
    /// Leaf tree-node ids indexed by machine-linear core index.
    leaf_ids: Vec<TreeNodeId>,
}

impl ArchTree {
    /// Build the tree for the first `nodes` compute nodes of `machine`.
    pub fn build(machine: &MachineModel, nodes: usize, kind: ArchTreeKind) -> ArchTree {
        assert!(nodes >= 1, "need at least one compute node");
        assert!(
            nodes <= machine.num_nodes,
            "machine {} only has {} nodes (asked for {nodes})",
            machine.name,
            machine.num_nodes
        );
        let np = &machine.node;
        // Costs in ns/byte: inverse of the relevant sustained bandwidth.
        let inter_node = 1e9 / machine.interconnect.link_bw;
        let cross_numa = 1e9 / np.remote_copy_bw;
        let intra_numa = 1e9 / np.local_copy_bw;
        let level_cost = match kind {
            // Two-level: everything on-node costs the same (use the blended
            // on-node copy cost); crossing the root costs the network.
            ArchTreeKind::TwoLevel => vec![inter_node, (cross_numa + intra_numa) / 2.0],
            ArchTreeKind::NumaAware => vec![inter_node, cross_numa, intra_numa],
        };

        let mut tree = ArchTree {
            kind,
            parent: vec![None],
            children: vec![Vec::new()],
            depth: vec![0],
            level_cost,
            leaf_ids: Vec::new(),
        };
        let root = 0;
        for _ in 0..nodes {
            let node_id = tree.add_child(root);
            match kind {
                ArchTreeKind::TwoLevel => {
                    for _ in 0..np.cores_per_node() {
                        let leaf = tree.add_child(node_id);
                        tree.leaf_ids.push(leaf);
                    }
                }
                ArchTreeKind::NumaAware => {
                    for _ in 0..np.numa_domains {
                        let numa_id = tree.add_child(node_id);
                        for _ in 0..np.cores_per_numa {
                            let leaf = tree.add_child(numa_id);
                            tree.leaf_ids.push(leaf);
                        }
                    }
                }
            }
        }
        tree
    }

    fn add_child(&mut self, parent: TreeNodeId) -> TreeNodeId {
        let id = self.parent.len();
        self.parent.push(Some(parent));
        self.children.push(Vec::new());
        self.depth.push(self.depth[parent] + 1);
        self.children[parent].push(id);
        id
    }

    /// Which abstraction this tree encodes.
    pub fn kind(&self) -> ArchTreeKind {
        self.kind
    }

    /// Number of leaves (cores).
    pub fn num_leaves(&self) -> usize {
        self.leaf_ids.len()
    }

    /// Root node id.
    pub fn root(&self) -> TreeNodeId {
        0
    }

    /// Children of an internal node.
    pub fn children(&self, id: TreeNodeId) -> &[TreeNodeId] {
        &self.children[id]
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, id: TreeNodeId) -> usize {
        self.depth[id]
    }

    /// All leaf indices (machine-linear core indices) under subtree `id`.
    pub fn leaves_under(&self, id: TreeNodeId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if self.children[n].is_empty() {
                // Leaf: recover its machine-linear index.
                if let Ok(idx) = self.leaf_ids.binary_search(&n) {
                    out.push(idx);
                }
            } else {
                stack.extend(self.children[n].iter().rev());
            }
        }
        out.sort_unstable();
        out
    }

    /// Per-byte cost (ns/byte) of communication whose endpoints' lowest
    /// common ancestor sits at `depth`.
    pub fn cost_at_depth(&self, depth: usize) -> f64 {
        let idx = depth.min(self.level_cost.len() - 1);
        self.level_cost[idx]
    }

    /// Per-byte communication cost between two leaves (machine-linear core
    /// indices): the cost at their lowest common ancestor's depth.
    pub fn comm_cost(&self, leaf_a: usize, leaf_b: usize) -> f64 {
        if leaf_a == leaf_b {
            return 0.0;
        }
        let lca_depth = self.lca_depth(self.leaf_ids[leaf_a], self.leaf_ids[leaf_b]);
        self.cost_at_depth(lca_depth)
    }

    fn lca_depth(&self, mut a: TreeNodeId, mut b: TreeNodeId) -> usize {
        while self.depth[a] > self.depth[b] {
            a = self.parent[a].expect("non-root has parent");
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b].expect("non-root has parent");
        }
        while a != b {
            a = self.parent[a].expect("non-root has parent");
            b = self.parent[b].expect("non-root has parent");
        }
        self.depth[a]
    }
}

#[cfg(test)]
mod tests {
    use crate::node::CoreLocation;
    use crate::presets::smoky;

    #[test]
    fn two_level_tree_shape() {
        let m = smoky();
        let t = m.two_level_tree(2);
        assert_eq!(t.num_leaves(), 32);
        assert_eq!(t.children(t.root()).len(), 2);
        // Any two cores on the same node have the same (cheap) cost.
        let on_node = t.comm_cost(0, 15);
        let cross_node = t.comm_cost(0, 16);
        assert!(on_node < cross_node);
        // Two-level tree cannot distinguish NUMA domains.
        assert_eq!(t.comm_cost(0, 1), t.comm_cost(0, 15));
    }

    #[test]
    fn numa_tree_distinguishes_domains() {
        let m = smoky();
        let t = m.topology_tree(2);
        assert_eq!(t.num_leaves(), 32);
        let same_numa = t.comm_cost(0, 3); // cores 0..4 share NUMA 0
        let cross_numa = t.comm_cost(0, 4); // core 4 is NUMA 1
        let cross_node = t.comm_cost(0, 16);
        assert!(same_numa < cross_numa, "{same_numa} !< {cross_numa}");
        assert!(cross_numa < cross_node);
    }

    #[test]
    fn self_cost_is_zero() {
        let m = smoky();
        let t = m.topology_tree(1);
        assert_eq!(t.comm_cost(5, 5), 0.0);
    }

    #[test]
    fn leaves_under_subtrees() {
        let m = smoky();
        let t = m.topology_tree(2);
        let all = t.leaves_under(t.root());
        assert_eq!(all, (0..32).collect::<Vec<_>>());
        let first_node = t.children(t.root())[0];
        assert_eq!(t.leaves_under(first_node), (0..16).collect::<Vec<_>>());
        let first_numa = t.children(first_node)[0];
        assert_eq!(t.leaves_under(first_numa), (0..4).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_locations_are_linear() {
        // Leaf i is machine-linear core i: it sits under that core's node
        // (both tree kinds) and NUMA domain (the NUMA-aware tree).
        let m = smoky();
        for t in [m.two_level_tree(2), m.topology_tree(2)] {
            for (node, &node_id) in t.children(t.root()).iter().enumerate() {
                for leaf in t.leaves_under(node_id) {
                    assert_eq!(m.node.location_of(leaf).node, node);
                }
            }
        }
        let t = m.topology_tree(2);
        let second_node = t.children(t.root())[1];
        for (numa, &numa_id) in t.children(second_node).iter().enumerate() {
            let leaves = t.leaves_under(numa_id);
            let locs: Vec<CoreLocation> = leaves.iter().map(|&l| m.node.location_of(l)).collect();
            let want: Vec<CoreLocation> = (0..m.node.cores_per_numa)
                .map(|core| CoreLocation { node: 1, numa, core })
                .collect();
            assert_eq!(locs, want);
        }
    }
}
