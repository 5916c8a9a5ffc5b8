//! A compact adjacency-list directed graph over dense node indices.

/// Index of a node in a [`DiGraph`]. Kept at 32 bits: dependency graphs in
/// this reproduction are indexed by execution step, and executions beyond
/// `u32::MAX` steps are far outside simulation scale.
pub type NodeId = u32;

/// A directed graph with nodes `0..n` and adjacency lists.
///
/// ```
/// use mla_graph::{DiGraph, topo_sort, find_cycle};
///
/// let dag = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
/// assert!(topo_sort(&dag).is_ok());
///
/// let cyclic = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
/// let cycle = find_cycle(&cyclic).unwrap();
/// assert_eq!(cycle.len(), 3);
/// ```
///
/// Parallel edges are permitted by [`DiGraph::add_edge`] and collapsed by
/// [`DiGraph::add_edge_unique`]; self-loops are permitted (and are reported
/// as cycles of length one by the cycle finders, matching the convention
/// that a dependency relation containing `(x, x)` with `x != x`'s reflexive
/// closure is not a partial order).
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    succ: Vec<Vec<NodeId>>,
    edge_count: usize,
    /// Emptied successor lists [`DiGraph::reset`] dropped from the node
    /// range, kept for the next reset that grows it again.
    spare: Vec<Vec<NodeId>>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        DiGraph {
            succ: vec![Vec::new(); n],
            edge_count: 0,
            spare: Vec::new(),
        }
    }

    /// Builds a graph from an edge list, sizing the node set to fit.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Empties the graph to `n` isolated nodes, keeping the successor
    /// lists' buffers, so a graph rebuilt over and over allocates only
    /// when it outgrows what it held before.
    pub fn reset(&mut self, n: usize) {
        self.succ.iter_mut().for_each(Vec::clear);
        while self.succ.len() > n {
            self.spare.extend(self.succ.pop());
        }
        while self.succ.len() < n {
            self.succ.push(self.spare.pop().unwrap_or_default());
        }
        self.edge_count = 0;
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges (counting duplicates inserted via [`Self::add_edge`]).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Appends a fresh isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.succ.push(Vec::new());
        (self.succ.len() - 1) as NodeId
    }

    /// Adds the edge `u -> v`. Duplicates are stored as-is.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!((v as usize) < self.succ.len(), "node {v} out of range");
        self.succ[u as usize].push(v);
        self.edge_count += 1;
    }

    /// Adds `u -> v` unless an identical edge already exists.
    /// Returns whether the edge was inserted.
    pub fn add_edge_unique(&mut self, u: NodeId, v: NodeId) -> bool {
        assert!((v as usize) < self.succ.len(), "node {v} out of range");
        if self.succ[u as usize].contains(&v) {
            return false;
        }
        self.succ[u as usize].push(v);
        self.edge_count += 1;
        true
    }

    /// Whether the edge `u -> v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succ.get(u as usize).is_some_and(|s| s.contains(&v))
    }

    /// Successors of `u`.
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.succ[u as usize]
    }

    /// Iterates over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u as NodeId, v)))
    }

    /// In-degree of every node.
    pub fn in_degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.succ.len()];
        for vs in &self.succ {
            for &v in vs {
                deg[v as usize] += 1;
            }
        }
        deg
    }

    /// The reverse graph (every edge flipped).
    pub fn reversed(&self) -> DiGraph {
        let mut rev = DiGraph::new(self.node_count());
        for (u, v) in self.edges() {
            rev.add_edge(v, u);
        }
        rev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.successors(1), &[2]);
    }

    #[test]
    fn unique_edges_deduplicate() {
        let mut g = DiGraph::new(2);
        assert!(g.add_edge_unique(0, 1));
        assert!(!g.add_edge_unique(0, 1));
        assert_eq!(g.edge_count(), 1);
        g.add_edge(0, 1); // non-unique insert keeps the duplicate
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn add_node_grows() {
        let mut g = DiGraph::new(1);
        let n = g.add_node();
        assert_eq!(n, 1);
        g.add_edge(0, n);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn from_edges_and_iteration() {
        let g = DiGraph::from_edges(4, [(0, 1), (2, 3), (0, 3)]);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 3), (2, 3)]);
    }

    #[test]
    fn in_degrees_and_reverse() {
        let g = DiGraph::from_edges(3, [(0, 2), (1, 2), (2, 0)]);
        assert_eq!(g.in_degrees(), vec![1, 0, 2]);
        let r = g.reversed();
        assert!(r.has_edge(2, 0));
        assert!(r.has_edge(2, 1));
        assert!(r.has_edge(0, 2));
        assert_eq!(r.edge_count(), 3);
    }

    #[test]
    fn reset_empties_and_resizes() {
        let mut g = DiGraph::from_edges(3, [(0, 1), (1, 2)]);
        g.reset(2);
        assert_eq!((g.node_count(), g.edge_count()), (2, 0));
        assert!(g.successors(0).is_empty() && g.successors(1).is_empty());
        g.reset(4);
        g.add_edge(3, 0);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(3, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_to_missing_node_panics() {
        DiGraph::new(1).add_edge(0, 5);
    }
}
