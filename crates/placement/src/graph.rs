//! The weighted communication graph over coupled processes.

use std::collections::HashMap;

/// What a vertex is: a simulation process or an analytics process. The
/// data-aware policy uses only edges *between* the two kinds; holistic
/// placement also weighs edges *within* each program (paper §III.B.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// Simulation rank.
    Simulation(usize),
    /// Analytics rank.
    Analytics(usize),
}

impl ProcKind {
    /// True if this is a simulation process.
    pub fn is_simulation(&self) -> bool {
        matches!(self, ProcKind::Simulation(_))
    }
}

/// Undirected weighted communication graph. Edge weight = bytes moved per
/// I/O interval between the two processes (the "communication matrix" of
/// §III.B.1).
#[derive(Debug, Clone, Default)]
pub struct CommGraph {
    kinds: Vec<ProcKind>,
    /// Adjacency: for each vertex, (neighbor, weight) pairs.
    adj: Vec<HashMap<usize, f64>>,
}

impl CommGraph {
    /// Empty graph.
    pub fn new() -> CommGraph {
        CommGraph::default()
    }

    /// Add a vertex; returns its index.
    pub fn add_vertex(&mut self, kind: ProcKind) -> usize {
        self.kinds.push(kind);
        self.adj.push(HashMap::new());
        self.kinds.len() - 1
    }

    /// Add (accumulate) an undirected edge weight.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        assert!(u != v, "no self edges");
        assert!(weight >= 0.0);
        *self.adj[u].entry(v).or_insert(0.0) += weight;
        *self.adj[v].entry(u).or_insert(0.0) += weight;
    }

    /// Vertex count.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Vertex kind.
    pub fn kind(&self, v: usize) -> ProcKind {
        self.kinds[v]
    }

    /// Neighbors of `v` with weights.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adj[v].iter().map(|(&n, &w)| (n, w))
    }

    /// Weight of edge `(u, v)`, 0 if absent.
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        self.adj[u].get(&v).copied().unwrap_or(0.0)
    }

    /// Build the canonical coupled-workload graph used throughout the
    /// experiments: `nsim` simulation ranks in a `rows × cols` logical 2-D
    /// grid exchanging `halo_bytes` with grid neighbours, `nana` analytics
    /// ranks, each simulation rank sending `output_bytes` to analytics
    /// rank `sim_rank % nana` (the process-group pattern), and analytics
    /// ranks exchanging `ana_internal_bytes` in a ring.
    pub fn coupled(
        nsim: usize,
        grid_cols: usize,
        halo_bytes: f64,
        nana: usize,
        output_bytes: f64,
        ana_internal_bytes: f64,
    ) -> CommGraph {
        assert!(nsim >= 1 && nana >= 1);
        assert!(grid_cols >= 1);
        let mut g = CommGraph::new();
        let sim: Vec<usize> = (0..nsim).map(|r| g.add_vertex(ProcKind::Simulation(r))).collect();
        let ana: Vec<usize> = (0..nana).map(|r| g.add_vertex(ProcKind::Analytics(r))).collect();
        // Simulation 2-D halo exchange.
        for r in 0..nsim {
            let (row, col) = (r / grid_cols, r % grid_cols);
            if col + 1 < grid_cols && r + 1 < nsim {
                g.add_edge(sim[r], sim[r + 1], halo_bytes);
            }
            let below = (row + 1) * grid_cols + col;
            if below < nsim {
                g.add_edge(sim[r], sim[below], halo_bytes);
            }
        }
        // Inter-program output movement.
        for r in 0..nsim {
            g.add_edge(sim[r], ana[r % nana], output_bytes);
        }
        // Analytics internal exchange (e.g. histogram merge) as a ring.
        if nana > 1 && ana_internal_bytes > 0.0 {
            for r in 0..nana {
                let next = (r + 1) % nana;
                if next != r {
                    g.add_edge(ana[r], ana[next], ana_internal_bytes);
                }
            }
        }
        g
    }
}

// Graph measures only the tests read.
#[cfg(test)]
impl CommGraph {
    /// Sum of all edge weights (each edge counted once).
    pub(crate) fn total_weight(&self) -> f64 {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, nbrs)| nbrs.iter().filter(move |(&v, _)| v > u))
            .map(|(_, &w)| w)
            .sum()
    }

    /// Weight crossing a 2-way partition (`side[v]` ∈ {false,true}).
    pub(crate) fn cut_weight(&self, side: &[bool]) -> f64 {
        assert_eq!(side.len(), self.len());
        let mut cut = 0.0;
        for u in 0..self.len() {
            for (v, w) in self.neighbors(u) {
                if v > u && side[u] != side[v] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Indices of simulation vertices.
    pub(crate) fn simulation_vertices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| self.kinds[v].is_simulation()).collect()
    }

    /// Indices of analytics vertices.
    pub(crate) fn analytics_vertices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&v| !self.kinds[v].is_simulation()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_accumulate_symmetrically() {
        let mut g = CommGraph::new();
        let a = g.add_vertex(ProcKind::Simulation(0));
        let b = g.add_vertex(ProcKind::Analytics(0));
        g.add_edge(a, b, 10.0);
        g.add_edge(b, a, 5.0);
        assert_eq!(g.weight(a, b), 15.0);
        assert_eq!(g.weight(b, a), 15.0);
        assert_eq!(g.total_weight(), 15.0);
    }

    #[test]
    fn cut_weight_counts_crossing_edges_once() {
        let mut g = CommGraph::new();
        let v: Vec<usize> = (0..4).map(|i| g.add_vertex(ProcKind::Simulation(i))).collect();
        g.add_edge(v[0], v[1], 1.0);
        g.add_edge(v[1], v[2], 2.0);
        g.add_edge(v[2], v[3], 4.0);
        let side = vec![false, false, true, true];
        assert_eq!(g.cut_weight(&side), 2.0);
    }

    #[test]
    fn coupled_graph_shape() {
        let g = CommGraph::coupled(4, 2, 100.0, 2, 1000.0, 10.0);
        assert_eq!(g.len(), 6);
        assert_eq!(g.simulation_vertices().len(), 4);
        assert_eq!(g.analytics_vertices().len(), 2);
        // Sim 0 talks to sim 1 (right) and sim 2 (below) and ana 0.
        assert_eq!(g.weight(0, 1), 100.0);
        assert_eq!(g.weight(0, 2), 100.0);
        assert_eq!(g.weight(0, 4), 1000.0);
        // Analytics ring of 2: single edge 4-5 (deduped by next!=r logic
        // accumulating both directions).
        assert!(g.weight(4, 5) > 0.0);
    }

    #[test]
    fn coupled_graph_single_analytics() {
        let g = CommGraph::coupled(3, 3, 1.0, 1, 10.0, 5.0);
        // No analytics ring with one rank, no self edge.
        assert_eq!(g.analytics_vertices().len(), 1);
        assert_eq!(g.weight(3, 3), 0.0);
    }
}
