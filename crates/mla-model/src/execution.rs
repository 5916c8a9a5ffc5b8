//! Executions and the dependency partial order `<=_e` (§3.1).

use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

use mla_graph::DiGraph;

use crate::ids::{EntityId, TxnId};
use crate::step::Step;

/// A (finite) execution: a totally ordered sequence of steps.
///
/// Invariants enforced at construction:
/// * within each transaction, step sequence numbers appear in order
///   `0, 1, 2, ...` (each transaction's subsequence is a prefix of its
///   program run);
/// * per-entity value chains are *not* enforced here — that is the
///   [`crate::program::System::validate`] consistency check, because an
///   `Execution` is also used to represent candidate reorderings whose
///   value chains are exactly what validation inspects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Execution {
    steps: Vec<Step>,
}

/// Errors from [`Execution::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionError {
    /// A transaction's sequence numbers were not `0, 1, 2, ...` in order.
    BadSequence {
        /// The offending transaction.
        txn: TxnId,
        /// The sequence number that was expected next.
        expected: u32,
        /// The sequence number found.
        found: u32,
    },
}

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionError::BadSequence {
                txn,
                expected,
                found,
            } => write!(
                f,
                "transaction {txn}: expected step seq {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for ExecutionError {}

impl Execution {
    /// Builds an execution, checking per-transaction sequence contiguity.
    pub fn new(steps: Vec<Step>) -> Result<Self, ExecutionError> {
        let mut next_seq: HashMap<TxnId, u32> = HashMap::new();
        for s in &steps {
            let expected = next_seq.entry(s.txn).or_insert(0);
            if s.seq != *expected {
                return Err(ExecutionError::BadSequence {
                    txn: s.txn,
                    expected: *expected,
                    found: s.seq,
                });
            }
            *expected += 1;
        }
        Ok(Execution { steps })
    }

    /// The empty execution.
    pub fn empty() -> Self {
        Execution { steps: Vec::new() }
    }

    /// The steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the execution has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Transactions in order of first appearance.
    pub fn txns(&self) -> Vec<TxnId> {
        let mut seen = HashSet::new();
        self.steps
            .iter()
            .map(|s| s.txn)
            .filter(|&t| seen.insert(t))
            .collect()
    }

    /// Global step indices belonging to `txn`, in execution order (which,
    /// by the construction invariant, is also `seq` order).
    pub fn txn_steps(&self, txn: TxnId) -> Vec<usize> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.txn == txn)
            .map(|(i, _)| i)
            .collect()
    }

    /// The dependency graph generating `<=_e`: an edge from each step to
    /// the next step of the same transaction and to the next step touching
    /// the same entity. The reflexive-transitive closure of this graph is
    /// exactly the paper's dependency partial order.
    pub fn dependency_graph(&self) -> DiGraph {
        let mut g = DiGraph::new(self.steps.len());
        let mut last_txn: HashMap<TxnId, usize> = HashMap::new();
        let mut last_entity: HashMap<EntityId, usize> = HashMap::new();
        for (i, s) in self.steps.iter().enumerate() {
            if let Some(&p) = last_txn.get(&s.txn) {
                g.add_edge_unique(p as u32, i as u32);
            }
            if let Some(&p) = last_entity.get(&s.entity) {
                g.add_edge_unique(p as u32, i as u32);
            }
            last_txn.insert(s.txn, i);
            last_entity.insert(s.entity, i);
        }
        g
    }

    /// Whether `<=_e` orders step `i` before step `j` (strictly).
    /// Quadratic helper for tests and small inputs.
    pub fn depends(&self, i: usize, j: usize) -> bool {
        mla_graph::reach::reaches(&self.dependency_graph(), i as u32, j as u32)
    }

    /// Whether every transaction's steps are contiguous — the paper's
    /// *serial* executions (all breakpoint interleaving aside, this is the
    /// `C` of classical serializability).
    pub fn is_serial(&self) -> bool {
        let mut finished: Vec<TxnId> = Vec::new();
        let mut current: Option<TxnId> = None;
        for s in &self.steps {
            if current != Some(s.txn) {
                if finished.contains(&s.txn) {
                    return false;
                }
                if let Some(prev) = current {
                    finished.push(prev);
                }
                current = Some(s.txn);
            }
        }
        true
    }

    /// Execution equivalence (§3.1): `e` and `e'` are equivalent iff
    /// `<=_e` is identical to `<=_e'`.
    ///
    /// Because the dependency order is generated by the per-transaction and
    /// per-entity subsequences, two executions over the same step set are
    /// equivalent iff those subsequences coincide. (Per-transaction order
    /// is forced by sequence numbers, so only per-entity order and the
    /// step sets need checking.)
    pub fn equivalent(&self, other: &Execution) -> bool {
        if self.steps.len() != other.steps.len() {
            return false;
        }
        // Same step set.
        let mut mine: Vec<&Step> = self.steps.iter().collect();
        let mut theirs: Vec<&Step> = other.steps.iter().collect();
        let by_key = |s: &&Step| (s.txn, s.seq);
        mine.sort_by_key(by_key);
        theirs.sort_by_key(by_key);
        if mine != theirs {
            return false;
        }
        // Same per-entity access sequences.
        let seq_of = |e: &Execution| {
            let mut m: HashMap<EntityId, Vec<(TxnId, u32)>> = HashMap::new();
            for s in &e.steps {
                m.entry(s.entity).or_default().push(s.key());
            }
            m
        };
        seq_of(self) == seq_of(other)
    }

    /// Enumerates every execution equivalent to `self` (every linear
    /// extension of `<=_e`), invoking `f` on each. `f` may stop the
    /// enumeration early by returning [`ControlFlow::Break`].
    ///
    /// The number of linear extensions is exponential in the worst case —
    /// this is the brute-force baseline that Theorem 2 renders unnecessary,
    /// retained as a test oracle and for the E-series experiments' tiny
    /// cross-validation runs.
    pub fn for_each_equivalent<B>(
        &self,
        mut f: impl FnMut(&Execution) -> ControlFlow<B>,
    ) -> Option<B> {
        let n = self.steps.len();
        let g = self.dependency_graph();
        let mut in_deg: Vec<usize> = g.in_degrees();
        let mut picked = vec![false; n];
        let mut prefix: Vec<Step> = Vec::with_capacity(n);
        self.extend_rec(&g, &mut in_deg, &mut picked, &mut prefix, &mut f)
    }

    fn extend_rec<B>(
        &self,
        g: &DiGraph,
        in_deg: &mut Vec<usize>,
        picked: &mut Vec<bool>,
        prefix: &mut Vec<Step>,
        f: &mut impl FnMut(&Execution) -> ControlFlow<B>,
    ) -> Option<B> {
        let n = self.steps.len();
        if prefix.len() == n {
            let candidate = Execution {
                steps: prefix.clone(),
            };
            return match f(&candidate) {
                ControlFlow::Break(b) => Some(b),
                ControlFlow::Continue(()) => None,
            };
        }
        for i in 0..n {
            if picked[i] || in_deg[i] > 0 {
                continue;
            }
            picked[i] = true;
            prefix.push(self.steps[i]);
            for &w in g.successors(i as u32) {
                in_deg[w as usize] -= 1;
            }
            let out = self.extend_rec(g, in_deg, picked, prefix, f);
            for &w in g.successors(i as u32) {
                in_deg[w as usize] += 1;
            }
            prefix.pop();
            picked[i] = false;
            if out.is_some() {
                return out;
            }
        }
        None
    }

    /// Collects all equivalent executions. Test helper; see
    /// [`Execution::for_each_equivalent`] for the streaming form.
    pub fn equivalents(&self) -> Vec<Execution> {
        let mut out = Vec::new();
        self.for_each_equivalent::<()>(|e| {
            out.push(e.clone());
            ControlFlow::Continue(())
        });
        out
    }
}

impl std::fmt::Display for Execution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for s in &self.steps {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Value;

    pub(crate) fn step(txn: u32, seq: u32, entity: u32, observed: Value, wrote: Value) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed,
            wrote,
        }
    }

    /// Two transfer transactions interleaved on disjoint entities.
    fn interleaved_disjoint() -> Execution {
        Execution::new(vec![
            step(0, 0, 0, 10, 0),
            step(1, 0, 2, 5, 0),
            step(0, 1, 1, 0, 10),
            step(1, 1, 3, 0, 5),
        ])
        .unwrap()
    }

    #[test]
    fn sequence_contiguity_enforced() {
        let err = Execution::new(vec![step(0, 1, 0, 0, 0)]).unwrap_err();
        assert_eq!(
            err,
            ExecutionError::BadSequence {
                txn: TxnId(0),
                expected: 0,
                found: 1
            }
        );
        assert!(Execution::new(vec![
            step(0, 0, 0, 0, 0),
            step(1, 0, 0, 0, 0),
            step(0, 1, 0, 0, 0)
        ])
        .is_ok());
    }

    #[test]
    fn dependency_graph_edges() {
        let e = interleaved_disjoint();
        let g = e.dependency_graph();
        // Only intra-transaction edges: entities are disjoint.
        assert!(g.has_edge(0, 2)); // t0 seq0 -> t0 seq1
        assert!(g.has_edge(1, 3)); // t1 seq0 -> t1 seq1
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn dependency_includes_entity_conflicts() {
        let e = Execution::new(vec![
            step(0, 0, 7, 0, 1),
            step(1, 0, 7, 1, 2),
            step(0, 1, 8, 0, 0),
        ])
        .unwrap();
        let g = e.dependency_graph();
        assert!(g.has_edge(0, 1)); // same entity 7
        assert!(g.has_edge(0, 2)); // same transaction
        assert!(!g.has_edge(1, 2));
        assert!(e.depends(0, 1));
        assert!(!e.depends(1, 2));
    }

    #[test]
    fn serial_detection() {
        let serial = Execution::new(vec![
            step(0, 0, 0, 0, 0),
            step(0, 1, 1, 0, 0),
            step(1, 0, 0, 0, 0),
        ])
        .unwrap();
        assert!(serial.is_serial());
        assert!(!interleaved_disjoint().is_serial());
        assert!(Execution::empty().is_serial());
    }

    #[test]
    fn serial_rejects_revisit() {
        // t0, then t1, then t0 again.
        let e = Execution::new(vec![
            step(0, 0, 0, 0, 0),
            step(1, 0, 1, 0, 0),
            step(0, 1, 2, 0, 0),
        ])
        .unwrap();
        assert!(!e.is_serial());
    }

    #[test]
    fn equivalence_is_dependency_identity() {
        let e = interleaved_disjoint();
        // Swap the two middle steps: no dependency crosses them.
        let e2 = Execution::new(vec![e.steps[0], e.steps[2], e.steps[1], e.steps[3]]).unwrap();
        assert!(e.equivalent(&e2));

        // An execution with the same steps but reordered entity access is
        // NOT equivalent.
        let conflicting = Execution::new(vec![step(0, 0, 7, 0, 1), step(1, 0, 7, 1, 2)]).unwrap();
        let swapped = Execution::new(vec![step(1, 0, 7, 1, 2), step(0, 0, 7, 0, 1)]).unwrap();
        assert!(!conflicting.equivalent(&swapped));
        assert!(conflicting.equivalent(&conflicting));
    }

    #[test]
    fn equivalence_requires_same_steps() {
        let a = Execution::new(vec![step(0, 0, 0, 0, 1)]).unwrap();
        let b = Execution::new(vec![step(0, 0, 0, 0, 2)]).unwrap();
        assert!(!a.equivalent(&b));
    }

    #[test]
    fn equivalents_of_disjoint_interleaving() {
        let e = interleaved_disjoint();
        let all = e.equivalents();
        // Two chains of length 2 with no cross dependencies: C(4,2) = 6
        // linear extensions.
        assert_eq!(all.len(), 6);
        for e2 in &all {
            assert!(e.equivalent(e2), "enumerated non-equivalent execution");
        }
        // All distinct.
        for i in 0..all.len() {
            for j in 0..i {
                assert_ne!(all[i], all[j]);
            }
        }
        // Exactly two of them are serial (t0;t1 and t1;t0).
        assert_eq!(all.iter().filter(|e| e.is_serial()).count(), 2);
    }

    #[test]
    fn equivalents_of_fully_conflicting_is_singleton() {
        let e = Execution::new(vec![
            step(0, 0, 7, 0, 1),
            step(1, 0, 7, 1, 2),
            step(2, 0, 7, 2, 3),
        ])
        .unwrap();
        assert_eq!(e.equivalents().len(), 1);
    }

    #[test]
    fn for_each_equivalent_early_exit() {
        let e = interleaved_disjoint();
        let mut count = 0;
        let found = e.for_each_equivalent(|_| {
            count += 1;
            if count == 3 {
                ControlFlow::Break("stopped")
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(found, Some("stopped"));
        assert_eq!(count, 3);
    }

    #[test]
    fn txn_views() {
        let e = interleaved_disjoint();
        assert_eq!(e.txns(), vec![TxnId(0), TxnId(1)]);
        assert_eq!(e.txn_steps(TxnId(1)), vec![1, 3]);

        // Many transactions, first appearing out of id order and
        // revisited after later ones start.
        let ids: Vec<u32> = (0..64).map(|i| (i * 37) % 64).collect();
        let mut steps: Vec<Step> = ids.iter().map(|&t| step(t, 0, t, 0, 0)).collect();
        steps.extend(ids.iter().rev().map(|&t| step(t, 1, t, 0, 0)));
        let e = Execution::new(steps).unwrap();
        assert_eq!(e.txns(), ids.iter().map(|&t| TxnId(t)).collect::<Vec<_>>());
    }

    #[test]
    fn empty_execution() {
        let e = Execution::empty();
        assert!(e.is_empty());
        assert_eq!(e.equivalents().len(), 1);
        assert!(e.equivalent(&Execution::empty()));
    }
}
