//! Transaction-pair summaries: the deduplicated transaction-level edge
//! sets that window eviction forward-reaches over.
//!
//! The closure engine's maintained frontier induces a transaction-level
//! relation ("some step of `u` precedes some step of `v`"). For
//! eviction only this summary matters, not the per-step frontier rows,
//! so the engine projects its frontier down to a [`PairSummary`] and
//! keeps what is reachable from the live transactions.

use std::collections::HashMap;

/// A deduplicated set of directed transaction pairs `u -> v` over stable
/// `u32` transaction ids, with forward reachability.
#[derive(Clone, Debug, Default)]
pub struct PairSummary {
    /// Successor lists in insertion order, deduplicated.
    adj: HashMap<u32, Vec<u32>>,
    edges: usize,
}

impl PairSummary {
    /// An empty summary.
    pub fn new() -> Self {
        PairSummary::default()
    }

    /// Records the pair `u -> v` (self-pairs and duplicates are ignored).
    pub fn add(&mut self, u: u32, v: u32) {
        if u == v {
            return;
        }
        let succ = self.adj.entry(u).or_default();
        if !succ.contains(&v) {
            succ.push(v);
            self.edges += 1;
        }
    }

    /// Successors of `u` recorded so far.
    pub fn successors(&self, u: u32) -> &[u32] {
        self.adj.get(&u).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct pairs recorded.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Everything forward-reachable from `sources` (sources included) —
    /// the live-window "keep" set when sources are the uncommitted
    /// transactions.
    pub fn reachable_from(&self, sources: impl IntoIterator<Item = u32>) -> Vec<u32> {
        let mut keep: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for s in sources {
            if !keep.contains(&s) {
                keep.push(s);
                stack.push(s);
            }
        }
        while let Some(u) = stack.pop() {
            for &v in self.successors(u) {
                if !keep.contains(&v) {
                    keep.push(v);
                    stack.push(v);
                }
            }
        }
        keep.sort_unstable();
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let mut s = PairSummary::new();
        s.add(1, 2);
        s.add(1, 2);
        s.add(3, 3);
        assert_eq!(s.edge_count(), 1);
        assert_eq!(s.successors(1), &[2]);
        assert!(s.successors(3).is_empty());
    }

    #[test]
    fn reachability_follows_direction() {
        let mut s = PairSummary::new();
        s.add(1, 2);
        s.add(2, 4);
        s.add(5, 1);
        assert_eq!(s.reachable_from([1]), vec![1, 2, 4]);
        assert_eq!(s.reachable_from([4]), vec![4]);
        assert_eq!(s.reachable_from([5, 4]), vec![1, 2, 4, 5]);
    }
}
