//! Strongly connected components (iterative Tarjan) and condensation.
//!
//! Stage `i` of the constructive proof of the paper's Lemma 1 builds a
//! graph `G` over *segments*, totally orders its strongly connected
//! components "so that G contains no edges from any segment in I_n to any
//! segment in I_m, m < n", and then inserts all cross-component pairs. The
//! [`Condensation`] returned here delivers the components already in a
//! reverse-topological order (a property of Tarjan's algorithm), which the
//! stage then reverses to obtain exactly that total order.

use crate::digraph::{DiGraph, NodeId};

/// The strongly-connected-component decomposition of a graph.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// `comp_of[v]` is the component index of node `v`.
    pub comp_of: Vec<u32>,
    /// `members[c]` lists the nodes of component `c`.
    pub members: Vec<Vec<NodeId>>,
}

impl Condensation {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the graph had no nodes.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether every component is a singleton, i.e. the graph is a DAG
    /// (ignoring self-loops, which Tarjan places in singleton components).
    pub fn is_acyclic_ignoring_self_loops(&self) -> bool {
        self.members.iter().all(|m| m.len() == 1)
    }
}

/// Computes the strongly connected components of `g` with an iterative
/// Tarjan's algorithm.
///
/// Components are numbered in reverse topological order of the component
/// DAG: if there is an edge from component `a` to component `b != a`, then
/// `a > b`. This is one [`Tarjan::run`] on fresh buffers.
pub fn tarjan(g: &DiGraph) -> Condensation {
    let mut scc = Tarjan::default();
    scc.run(g);
    let members = (0..scc.count() as u32)
        .map(|c| scc.members(c).to_vec())
        .collect();
    Condensation {
        comp_of: scc.comp_of,
        members,
    }
}

/// Tarjan's algorithm with its working buffers kept between runs, so a
/// caller that condenses one graph after another (Lemma 1 condenses a
/// segment graph per stage) allocates only when a graph outgrows the
/// largest before it. [`tarjan`] is one run on fresh buffers.
#[derive(Clone, Debug, Default)]
pub struct Tarjan {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<NodeId>,
    /// Explicit DFS frames: (node, next successor position to examine).
    call: Vec<(NodeId, usize)>,
    comp_of: Vec<u32>,
    /// Nodes in the order their components were emitted: component `c`
    /// is `popped[starts[c]..starts[c + 1]]`.
    popped: Vec<NodeId>,
    starts: Vec<u32>,
}

impl Tarjan {
    /// Condenses `g`, numbering components as [`tarjan`] does, and
    /// returns how many there are.
    pub fn run(&mut self, g: &DiGraph) -> usize {
        const UNVISITED: u32 = u32::MAX;
        let n = g.node_count();
        for buf in [&mut self.index, &mut self.comp_of] {
            buf.clear();
            buf.resize(n, UNVISITED);
        }
        self.lowlink.clear();
        self.lowlink.resize(n, 0);
        self.on_stack.clear();
        self.on_stack.resize(n, false);
        self.popped.clear();
        self.starts.clear();
        self.starts.push(0);
        let mut next_index = 0u32;

        for root in 0..n as NodeId {
            if self.index[root as usize] != UNVISITED {
                continue;
            }
            self.call.push((root, 0));
            self.index[root as usize] = next_index;
            self.lowlink[root as usize] = next_index;
            next_index += 1;
            self.stack.push(root);
            self.on_stack[root as usize] = true;

            while let Some(&mut (v, ref mut pos)) = self.call.last_mut() {
                let succs = g.successors(v);
                if *pos < succs.len() {
                    let w = succs[*pos];
                    *pos += 1;
                    if self.index[w as usize] == UNVISITED {
                        self.index[w as usize] = next_index;
                        self.lowlink[w as usize] = next_index;
                        next_index += 1;
                        self.stack.push(w);
                        self.on_stack[w as usize] = true;
                        self.call.push((w, 0));
                    } else if self.on_stack[w as usize] {
                        self.lowlink[v as usize] =
                            self.lowlink[v as usize].min(self.index[w as usize]);
                    }
                } else {
                    self.call.pop();
                    if let Some(&(parent, _)) = self.call.last() {
                        self.lowlink[parent as usize] =
                            self.lowlink[parent as usize].min(self.lowlink[v as usize]);
                    }
                    if self.lowlink[v as usize] == self.index[v as usize] {
                        let comp_id = self.starts.len() as u32 - 1;
                        loop {
                            let w = self.stack.pop().expect("tarjan stack underflow");
                            self.on_stack[w as usize] = false;
                            self.comp_of[w as usize] = comp_id;
                            self.popped.push(w);
                            if w == v {
                                break;
                            }
                        }
                        self.starts.push(self.popped.len() as u32);
                    }
                }
            }
        }
        self.count()
    }

    /// Number of components the last run found.
    pub fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The last run's component of every node.
    pub fn comp_of(&self) -> &[u32] {
        &self.comp_of
    }

    /// The nodes of component `c` of the last run.
    pub fn members(&self, c: u32) -> &[NodeId] {
        &self.popped[self.starts[c as usize] as usize..self.starts[c as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comp_sets(c: &Condensation) -> Vec<Vec<NodeId>> {
        let mut sets: Vec<Vec<NodeId>> = c
            .members
            .iter()
            .map(|m| {
                let mut m = m.clone();
                m.sort_unstable();
                m
            })
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn single_cycle_is_one_component() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let c = tarjan(&g);
        assert_eq!(c.len(), 1);
        assert_eq!(comp_sets(&c), vec![vec![0, 1, 2]]);
        assert!(!c.is_acyclic_ignoring_self_loops());
    }

    #[test]
    fn dag_gives_singletons_in_reverse_topo_order() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (0, 3), (3, 2)]);
        let c = tarjan(&g);
        assert_eq!(c.len(), 4);
        assert!(c.is_acyclic_ignoring_self_loops());
        // Reverse topological numbering: every edge goes to a smaller comp.
        for (u, v) in g.edges() {
            assert!(
                c.comp_of[u as usize] > c.comp_of[v as usize],
                "edge ({u},{v}) violates reverse-topo numbering"
            );
        }
    }

    #[test]
    fn two_cycles_with_bridge() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]);
        let c = tarjan(&g);
        assert_eq!(comp_sets(&c), vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
        // {0,1} reaches {2,3,4} reaches {5}: numbering must strictly drop.
        let c01 = c.comp_of[0];
        let c234 = c.comp_of[2];
        let c5 = c.comp_of[5];
        assert!(c01 > c234 && c234 > c5);
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let g = DiGraph::from_edges(2, [(0, 0), (0, 1)]);
        let c = tarjan(&g);
        assert_eq!(c.len(), 2);
        // is_acyclic_ignoring_self_loops cannot see the self-loop.
        assert!(c.is_acyclic_ignoring_self_loops());
    }

    #[test]
    fn empty_graph() {
        let c = tarjan(&DiGraph::new(0));
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn disconnected_nodes_each_own_component() {
        let c = tarjan(&DiGraph::new(5));
        assert_eq!(c.len(), 5);
        assert!(c.is_acyclic_ignoring_self_loops());
    }

    #[test]
    fn reused_buffers_condense_each_graph_afresh() {
        // One Tarjan over graphs of shrinking and growing size must
        // number every graph as a fresh run does.
        let graphs = [
            DiGraph::from_edges(6, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2), (4, 5)]),
            DiGraph::from_edges(2, [(1, 0)]),
            DiGraph::from_edges(5, [(0, 1), (1, 2), (3, 1), (2, 4), (4, 2)]),
        ];
        let mut scc = Tarjan::default();
        for g in &graphs {
            let fresh = tarjan(g);
            assert_eq!(scc.run(g), fresh.len());
            assert_eq!(scc.comp_of(), fresh.comp_of.as_slice());
            for (c, members) in fresh.members.iter().enumerate() {
                assert_eq!(scc.members(c as u32), members.as_slice());
            }
        }
    }

    #[test]
    fn large_path_graph_does_not_overflow_stack() {
        // 200k-node path: recursion would overflow; the iterative version
        // must not.
        let n = 200_000;
        let g = DiGraph::from_edges(n, (0..n as NodeId - 1).map(|i| (i, i + 1)));
        let c = tarjan(&g);
        assert_eq!(c.len(), n);
    }
}
