//! Online cycle detection via incremental topological ordering
//! (Pearce–Kelly algorithm).
//!
//! The cycle-detection schedulers of §6 of the paper "generate explicitly
//! the edges of the coherent closure of `<=_e` and check for cycles" as the
//! execution unfolds. Rebuilding a static graph per step would be
//! quadratic; [`IncrementalTopo`] instead maintains a topological order
//! under edge insertions, reporting a concrete [`Cycle`] the moment an
//! insertion would create one (the edge is then *not* inserted, so the
//! structure stays acyclic and the scheduler can roll back a victim and
//! retry).
//!
//! Node removal (needed when a transaction commits and its steps are
//! garbage-collected, or aborts and its steps are undone) only deletes
//! edges and therefore never invalidates the maintained order.

use crate::digraph::NodeId;
use crate::topo::Cycle;

/// An acyclic directed graph maintained under edge insertion with an
/// always-valid topological order.
///
/// ```
/// use mla_graph::IncrementalTopo;
///
/// let mut g = IncrementalTopo::new(3);
/// assert_eq!(g.add_edge(0, 1), Ok(true));
/// assert_eq!(g.add_edge(1, 2), Ok(true));
/// // Closing the cycle is rejected and the graph is left unchanged.
/// assert!(g.add_edge(2, 0).is_err());
/// assert!(g.position(0) < g.position(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalTopo {
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    /// `ord[v]` is the position of `v` in the maintained topological order:
    /// for every edge `(u, v)`, `ord[u] < ord[v]`. Always a permutation of
    /// `0..node_count`: reordering only redistributes positions.
    ord: Vec<u64>,
    edge_count: usize,
    /// Emptied edge lists of nodes [`compact`](Self::compact) dropped,
    /// kept with their capacity for the next [`add_node`](Self::add_node).
    spare: Vec<Vec<NodeId>>,
    /// Pearce–Kelly search buffers, kept between insertions. Boxed so
    /// that every holder of a topo does not grow by their size.
    search: Box<Search>,
}

/// `parent` of the forward search's root.
const NO_PARENT: NodeId = NodeId::MAX;

/// The buffers of one Pearce–Kelly insertion: the two region searches
/// and the position pool they are reordered over.
#[derive(Clone, Debug, Default)]
struct Search {
    /// `mark[w] == epoch` iff the current search has visited `w`, so
    /// starting a search clears nothing.
    mark: Vec<u32>,
    epoch: u32,
    /// Forward-search tree parent of each visited node (the witness path).
    parent: Vec<NodeId>,
    stack: Vec<NodeId>,
    /// Forward region (from the edge's head) and backward region (to its
    /// tail).
    delta_f: Vec<NodeId>,
    delta_b: Vec<NodeId>,
    pool: Vec<u64>,
}

impl Search {
    /// Starts a search over `n` nodes from `root`: only `root` is marked.
    fn begin(&mut self, n: usize, root: NodeId) {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.parent.resize(n, NO_PARENT);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.mark[root as usize] = self.epoch;
        self.parent[root as usize] = NO_PARENT;
        self.stack.clear();
        self.stack.push(root);
    }

    /// Marks `w`, returning whether the current search had not visited it.
    fn visit(&mut self, w: NodeId) -> bool {
        std::mem::replace(&mut self.mark[w as usize], self.epoch) != self.epoch
    }
}

impl IncrementalTopo {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        IncrementalTopo {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            ord: (0..n as u64).collect(),
            edge_count: 0,
            spare: Vec::new(),
            search: Box::default(),
        }
    }

    /// Number of nodes (including detached ones).
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Appends a fresh node, placed last in the topological order.
    pub fn add_node(&mut self) -> NodeId {
        let succ = self.spare.pop().unwrap_or_default();
        let pred = self.spare.pop().unwrap_or_default();
        self.succ.push(succ);
        self.pred.push(pred);
        // New nodes take the position beyond all existing ones, which is
        // the node count (positions are a permutation of `0..n`).
        self.ord.push(self.ord.len() as u64);
        (self.succ.len() - 1) as NodeId
    }

    /// Position of `v` in the maintained topological order.
    pub fn position(&self, v: NodeId) -> u64 {
        self.ord[v as usize]
    }

    /// Whether the edge `(u, v)` is present.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.succ[u as usize].contains(&v)
    }

    /// Successors of `u`.
    pub fn successors(&self, u: NodeId) -> &[NodeId] {
        &self.succ[u as usize]
    }

    /// Predecessors of `u`.
    pub fn predecessors(&self, u: NodeId) -> &[NodeId] {
        &self.pred[u as usize]
    }

    /// Inserts the edge `(u, v)`.
    ///
    /// Returns `Ok(true)` if inserted, `Ok(false)` if it already existed,
    /// and `Err(cycle)` — leaving the graph unchanged — if insertion would
    /// create a cycle. A self-edge is reported as a one-node cycle.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, Cycle> {
        if u == v {
            return Err(Cycle(vec![u]));
        }
        if self.contains_edge(u, v) {
            return Ok(false);
        }
        let (lb, ub) = (self.ord[v as usize], self.ord[u as usize]);
        if lb > ub {
            // Already consistent with the maintained order.
            self.insert_raw(u, v);
            return Ok(true);
        }
        // Affected region: positions in [lb, ub]. Forward-search from v
        // within the region; touching u means a v ->* u path exists and the
        // new edge would close a cycle.
        self.forward_region(v, u, ub)?;
        self.backward_region(u, lb);
        self.reorder();
        self.insert_raw(u, v);
        Ok(true)
    }

    /// Removes the edge `(u, v)` if present; returns whether it existed.
    /// Edge removal never invalidates the maintained order.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let before = self.succ[u as usize].len();
        self.succ[u as usize].retain(|&w| w != v);
        if self.succ[u as usize].len() == before {
            return false;
        }
        self.pred[v as usize].retain(|&w| w != u);
        self.edge_count -= 1;
        true
    }

    /// Detaches `v` from the graph: removes all incident edges. The node id
    /// remains valid (and isolated) so dense external indexing stays intact;
    /// its edge lists keep their capacity.
    pub fn detach_node(&mut self, v: NodeId) {
        let v = v as usize;
        for &w in &self.succ[v] {
            self.pred[w as usize].retain(|&x| x as usize != v);
        }
        for &w in &self.pred[v] {
            self.succ[w as usize].retain(|&x| x as usize != v);
        }
        self.edge_count -= self.succ[v].len() + self.pred[v].len();
        self.succ[v].clear();
        self.pred[v].clear();
    }

    /// Drops the nodes `map` sends to `u32::MAX`, which must be isolated,
    /// and renumbers the rest to `map[v]`. `map` must be increasing on
    /// the kept nodes and onto `0..kept`. Edge lists keep their order and
    /// the topological order keeps its relative order, so every later
    /// insertion and search behaves as it would have on the old numbers.
    pub fn compact(&mut self, map: &[u32]) {
        let mut kept = 0;
        for (v, &to) in map.iter().enumerate() {
            if to == u32::MAX {
                debug_assert!(self.succ[v].is_empty() && self.pred[v].is_empty());
                continue;
            }
            let to = to as usize;
            debug_assert_eq!(to, kept, "the map must be increasing and onto");
            kept += 1;
            for w in self.succ[v].iter_mut().chain(self.pred[v].iter_mut()) {
                *w = map[*w as usize];
            }
            self.succ.swap(to, v);
            self.pred.swap(to, v);
            self.ord.swap(to, v);
        }
        self.spare.extend(self.succ.drain(kept..));
        self.spare.extend(self.pred.drain(kept..));
        self.ord.truncate(kept);
        // Positions become ranks: a permutation of `0..kept` again.
        let mut by_pos: Vec<usize> = (0..kept).collect();
        by_pos.sort_unstable_by_key(|&v| self.ord[v]);
        for (rank, v) in by_pos.into_iter().enumerate() {
            self.ord[v] = rank as u64;
        }
    }

    /// Grows the graph until it has at least `n` nodes, appending fresh
    /// isolated nodes at the end of the order.
    pub fn ensure_nodes(&mut self, n: usize) {
        while self.node_count() < n {
            self.add_node();
        }
    }

    fn insert_raw(&mut self, u: NodeId, v: NodeId) {
        self.succ[u as usize].push(v);
        self.pred[v as usize].push(u);
        self.edge_count += 1;
    }

    /// DFS forward from `v` restricted to positions `<= ub`, collecting
    /// the region into `search.delta_f`. Errors with a concrete cycle if
    /// `target` (= the edge's source `u`) is reached.
    fn forward_region(&mut self, v: NodeId, target: NodeId, ub: u64) -> Result<(), Cycle> {
        let sr = &mut *self.search;
        sr.begin(self.succ.len(), v);
        sr.delta_f.clear();
        while let Some(w) = sr.stack.pop() {
            sr.delta_f.push(w);
            for &x in &self.succ[w as usize] {
                if x == target {
                    // Witness: v -> ... -> w -> target over existing edges;
                    // the wrap-around pair (target, v) is the rejected edge.
                    let mut path = vec![w];
                    let mut cur = w;
                    while sr.parent[cur as usize] != NO_PARENT {
                        cur = sr.parent[cur as usize];
                        path.push(cur);
                    }
                    path.reverse(); // v, ..., w
                    path.push(target);
                    return Err(Cycle(path));
                }
                if self.ord[x as usize] <= ub && sr.visit(x) {
                    sr.parent[x as usize] = w;
                    sr.stack.push(x);
                }
            }
        }
        Ok(())
    }

    /// DFS backward from `u` restricted to positions `>= lb`, collecting
    /// the region into `search.delta_b`.
    fn backward_region(&mut self, u: NodeId, lb: u64) {
        let sr = &mut *self.search;
        sr.begin(self.pred.len(), u);
        sr.delta_b.clear();
        while let Some(w) = sr.stack.pop() {
            sr.delta_b.push(w);
            for &x in &self.pred[w as usize] {
                if self.ord[x as usize] >= lb && sr.visit(x) {
                    sr.stack.push(x);
                }
            }
        }
    }

    /// Pearce–Kelly reordering: the backward region (ending at `u`) must
    /// precede the forward region (starting at `v`). Pool the positions of
    /// both regions and redistribute them: backward nodes first, forward
    /// nodes second, each sub-list keeping its existing relative order.
    fn reorder(&mut self) {
        let Search {
            delta_b,
            delta_f,
            pool,
            ..
        } = &mut *self.search;
        let ord = &mut self.ord;
        delta_b.sort_unstable_by_key(|&w| ord[w as usize]);
        delta_f.sort_unstable_by_key(|&w| ord[w as usize]);
        pool.clear();
        pool.extend(
            delta_b
                .iter()
                .chain(delta_f.iter())
                .map(|&w| ord[w as usize]),
        );
        pool.sort_unstable();
        for (&slot, &w) in pool.iter().zip(delta_b.iter().chain(delta_f.iter())) {
            ord[w as usize] = slot;
        }
    }

    /// Verifies the maintained order against every edge. Test/debug helper.
    pub fn check_invariants(&self) -> bool {
        self.succ
            .iter()
            .enumerate()
            .all(|(u, vs)| vs.iter().all(|&v| self.ord[u] < self.ord[v as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_insertions_are_cheap() {
        let mut t = IncrementalTopo::new(4);
        assert_eq!(t.add_edge(0, 1), Ok(true));
        assert_eq!(t.add_edge(1, 2), Ok(true));
        assert_eq!(t.add_edge(2, 3), Ok(true));
        assert_eq!(t.add_edge(0, 1), Ok(false));
        assert!(t.check_invariants());
        assert_eq!(t.edge_count(), 3);
    }

    #[test]
    fn against_order_insertion_reorders() {
        let mut t = IncrementalTopo::new(3);
        t.add_edge(1, 2).unwrap();
        t.add_edge(2, 0).unwrap(); // 0 initially precedes 1 and 2
        assert!(t.check_invariants());
        assert!(t.position(1) < t.position(2));
        assert!(t.position(2) < t.position(0));
    }

    #[test]
    fn cycle_rejected_and_graph_unchanged() {
        let mut t = IncrementalTopo::new(3);
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        let cycle = t.add_edge(2, 0).unwrap_err();
        // Witness runs over existing edges from the edge's head (0) to its
        // tail (2); the rejected edge closes the loop.
        assert_eq!(cycle.nodes().first(), Some(&0));
        assert_eq!(cycle.nodes().last(), Some(&2));
        assert!(!t.contains_edge(2, 0));
        assert_eq!(t.edge_count(), 2);
        assert!(t.check_invariants());
        // The structure remains usable.
        assert_eq!(t.add_edge(0, 2), Ok(true));
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = IncrementalTopo::new(1);
        let c = t.add_edge(0, 0).unwrap_err();
        assert_eq!(c.nodes(), &[0]);
    }

    #[test]
    fn cycle_witness_is_a_real_path() {
        let mut t = IncrementalTopo::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            t.add_edge(u, v).unwrap();
        }
        let c = t.add_edge(4, 0).unwrap_err();
        let nodes = c.nodes();
        // Every consecutive pair inside the witness is an existing edge;
        // the wrap-around pair is the rejected edge.
        for pair in nodes.windows(2) {
            assert!(t.contains_edge(pair[0], pair[1]));
        }
        assert_eq!(nodes[nodes.len() - 1], 4);
        assert_eq!(nodes[0], 0);
    }

    #[test]
    fn detach_allows_previously_cyclic_edge() {
        let mut t = IncrementalTopo::new(3);
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        assert!(t.add_edge(2, 0).is_err());
        t.detach_node(1); // breaks the 0 ->* 2 path
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.add_edge(2, 0), Ok(true));
        assert!(t.check_invariants());
    }

    #[test]
    fn compact_renumbers_in_order() {
        let mut t = IncrementalTopo::new(5);
        t.add_edge(3, 1).unwrap();
        t.add_edge(4, 3).unwrap();
        t.add_edge(4, 1).unwrap();
        t.add_edge(0, 2).unwrap();
        t.detach_node(0);
        t.detach_node(2);
        let before: Vec<u64> = [1, 3, 4].iter().map(|&v| t.position(v)).collect();
        t.compact(&[u32::MAX, 0, u32::MAX, 1, 2]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.successors(2), &[1, 0]);
        assert_eq!(t.predecessors(0), &[1, 2]);
        let after: Vec<u64> = (0..3).map(|v| t.position(v)).collect();
        let rank = |p: &[u64], i: usize| p.iter().filter(|&&q| q < p[i]).count();
        assert!((0..3).all(|i| rank(&before, i) == rank(&after, i)));
        assert!(t.check_invariants());
        assert_eq!(t.add_node(), 3);
        assert_eq!(t.position(3), 3);
    }

    #[test]
    fn remove_edge_semantics() {
        let mut t = IncrementalTopo::new(2);
        t.add_edge(0, 1).unwrap();
        assert!(t.remove_edge(0, 1));
        assert!(!t.remove_edge(0, 1));
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.add_edge(1, 0), Ok(true));
    }

    #[test]
    fn add_node_extends_order() {
        let mut t = IncrementalTopo::new(1);
        let n = t.add_node();
        assert_eq!(n, 1);
        t.add_edge(1, 0).unwrap();
        assert!(t.check_invariants());
    }

    #[test]
    fn removing_a_finished_nodes_edges_reopens_the_order() {
        // Scheduler pattern: node 1 is a committed/aborted transaction's
        // step. Dropping its incident edges one by one (not detach) must
        // let a previously cyclic edge in.
        let mut t = IncrementalTopo::new(4);
        t.add_edge(0, 1).unwrap();
        t.add_edge(1, 2).unwrap();
        t.add_edge(1, 3).unwrap();
        assert!(t.add_edge(2, 0).is_err());
        assert!(t.remove_edge(0, 1));
        assert!(t.remove_edge(1, 2));
        // 0 ->* 2 is broken now; the former cycle edge is acceptable.
        assert_eq!(t.add_edge(2, 0), Ok(true));
        assert!(t.contains_edge(1, 3), "unrelated edge must survive");
        assert_eq!(t.edge_count(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn detach_hub_node_then_reinsert_former_cycles() {
        // A hub with both fan-in and fan-out; detaching it must remove
        // every incident edge and unlock all cycles through it.
        let mut t = IncrementalTopo::new(5);
        for (u, v) in [(0, 2), (1, 2), (2, 3), (2, 4)] {
            t.add_edge(u, v).unwrap();
        }
        assert!(t.add_edge(3, 0).is_err());
        assert!(t.add_edge(4, 1).is_err());
        t.detach_node(2);
        assert_eq!(t.edge_count(), 0);
        assert_eq!(t.add_edge(3, 0), Ok(true));
        assert_eq!(t.add_edge(4, 1), Ok(true));
        // The node id stays valid and can rejoin later.
        assert_eq!(t.add_edge(0, 2), Ok(true));
        assert!(t.check_invariants());
    }

    #[test]
    fn search_marks_survive_epoch_wraparound() {
        // Searches across the wrap of the visit epoch: stale marks from
        // before it must not read as visited.
        let mut t = IncrementalTopo::new(4);
        t.search.epoch = u32::MAX - 1;
        t.add_edge(2, 1).unwrap(); // reorders: one search each way
        t.add_edge(3, 2).unwrap();
        assert!(t.search.epoch < 8, "the epoch wrapped");
        assert!(t.add_edge(1, 3).is_err());
        t.add_edge(1, 0).unwrap();
        assert!(t.check_invariants());
        assert!(t.position(3) < t.position(2) && t.position(1) < t.position(0));
    }

    #[test]
    fn ensure_nodes_grows_monotonically() {
        let mut t = IncrementalTopo::new(1);
        t.ensure_nodes(4);
        assert_eq!(t.node_count(), 4);
        t.ensure_nodes(2); // never shrinks
        assert_eq!(t.node_count(), 4);
        t.add_edge(3, 0).unwrap();
        assert!(t.check_invariants());
    }

    #[test]
    fn randomized_deletions_against_static_checker() {
        use crate::digraph::DiGraph;
        use crate::topo::is_acyclic;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        for trial in 0..60 {
            let n = rng.gen_range(2..12);
            let mut t = IncrementalTopo::new(n);
            let mut live: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..rng.gen_range(0..60) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                if rng.gen_bool(0.3) && !live.is_empty() {
                    let i = rng.gen_range(0..live.len());
                    let (a, b) = live.swap_remove(i);
                    assert!(t.remove_edge(a, b), "trial {trial}: edge vanished");
                } else {
                    let mut candidate = live.clone();
                    candidate.push((u, v));
                    let static_ok = is_acyclic(&DiGraph::from_edges(n, candidate.iter().copied()));
                    match t.add_edge(u, v) {
                        Ok(true) => {
                            assert!(static_ok, "trial {trial}: accepted cyclic ({u},{v})");
                            live.push((u, v));
                        }
                        Ok(false) => {}
                        Err(_) => {
                            assert!(!static_ok, "trial {trial}: rejected acyclic ({u},{v})");
                        }
                    }
                }
                assert!(t.check_invariants(), "trial {trial}: invariant broken");
            }
        }
    }

    #[test]
    fn randomized_against_static_checker() {
        use crate::digraph::DiGraph;
        use crate::topo::is_acyclic;
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(13);
        for trial in 0..100 {
            let n = rng.gen_range(2..15);
            let mut t = IncrementalTopo::new(n);
            let mut accepted: Vec<(NodeId, NodeId)> = Vec::new();
            for _ in 0..rng.gen_range(0..40) {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                // Oracle: would accepted + (u,v) still be acyclic?
                let mut candidate = accepted.clone();
                candidate.push((u, v));
                let static_ok = is_acyclic(&DiGraph::from_edges(n, candidate.iter().copied()));
                match t.add_edge(u, v) {
                    Ok(_) => {
                        assert!(static_ok, "trial {trial}: accepted a cyclic edge ({u},{v})");
                        accepted.push((u, v));
                    }
                    Err(_) => {
                        assert!(
                            !static_ok,
                            "trial {trial}: rejected an acyclic edge ({u},{v})"
                        );
                    }
                }
                assert!(
                    t.check_invariants(),
                    "trial {trial}: order invariant broken"
                );
            }
        }
    }

    #[test]
    fn dense_random_insertions_keep_invariant() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let n = 60;
        let mut t = IncrementalTopo::new(n);
        let mut ok = 0;
        for _ in 0..2000 {
            let u = rng.gen_range(0..n as NodeId);
            let v = rng.gen_range(0..n as NodeId);
            if t.add_edge(u, v).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 0);
        assert!(t.check_invariants());
    }
}
