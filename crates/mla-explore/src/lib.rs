//! Exhaustive schedule exploration for bounded nests — dynamic
//! partial-order reduction (DPOR) with the coherent closure as the
//! independence relation.
//!
//! The random harnesses (`closure_engine_equivalence`,
//! `check_differential`) sample schedules, so a bug that needs one
//! specific interleaving can survive every run. This crate instead
//! enumerates *every* schedule of a bounded nest up to
//! dependency-equivalence: two adjacent steps of different transactions
//! are independent exactly when swapping them changes neither verdict
//! nor the resulting coherent closure, which the incremental
//! [`ClosureEngine`] answers directly via its tentative
//! apply/rollback probe ([`ClosureEngine::steps_commute`]).
//!
//! The exploration is a depth-first search over *offer* sequences with
//! sleep sets (Godefroid): when several enabled transactions' next steps
//! pairwise commute in the current state, only one order is explored and
//! the others are put to sleep. For an all-grant input the number of
//! maximal schedules explored equals the number of Mazurkiewicz traces —
//! [`trace_classes`] computes that count independently by brute force so
//! tests can cross-check completeness.
//!
//! Scheduling semantics match the differential harnesses: each offer is
//! the next step of a live transaction; a granted step commits, a denied
//! step aborts the requesting transaction ([`ClosureEngine::remove_txns`]),
//! which stops offering and whose accepted steps leave the window.
//!
//! ```
//! use mla_core::nest::Nest;
//! use mla_core::spec::AtomicSpec;
//! use mla_explore::{explore, BoundedNest};
//! use mla_model::EntityId;
//!
//! // Two 2-step transactions on disjoint entities: every interleaving
//! // commutes, so one representative covers all six schedules.
//! let input = BoundedNest {
//!     nest: Nest::flat(2),
//!     spec: AtomicSpec { k: 2 },
//!     scripts: vec![vec![EntityId(0); 2], vec![EntityId(1); 2]],
//! };
//! let stats = explore(&input, |_schedule| {});
//! assert_eq!(stats.explored, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};

use mla_core::engine::{ClosureEngine, RelationSignature};
use mla_core::nest::Nest;
use mla_core::spec::BreakpointSpecification;
use mla_model::{EntityId, Execution, Step, TxnId};

pub mod mutant;

pub use mutant::{MutantEngine, TriggerPair};

/// A bounded exploration input: a nest, its breakpoint specification,
/// and one fixed entity script per transaction. Transaction `t`'s step
/// `i` touches `scripts[t][i]`; values are immaterial to scheduling and
/// are fixed at zero.
#[derive(Clone, Debug)]
pub struct BoundedNest<S> {
    /// The k-nest over the scripted transactions.
    pub nest: Nest,
    /// The breakpoint specification every transaction runs under.
    pub spec: S,
    /// Per-transaction entity scripts, indexed by `TxnId`.
    pub scripts: Vec<Vec<EntityId>>,
}

impl<S> BoundedNest<S> {
    fn step(&self, t: usize, seq: usize) -> Step {
        Step {
            txn: TxnId(t as u32),
            seq: seq as u32,
            entity: self.scripts[t][seq],
            observed: 0,
            wrote: 0,
        }
    }
}

/// One fully explored maximal schedule — a Mazurkiewicz-trace
/// representative, plus everything a differential harness needs to
/// replay it against another backend.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Every offer, in order: granted steps and the final (denied) offer
    /// of each aborted transaction.
    pub offers: Vec<Step>,
    /// Per-offer verdict: `true` granted, `false` denied (the offering
    /// transaction aborted and stopped contributing).
    pub verdicts: Vec<bool>,
    /// The surviving execution: accepted steps of unaborted
    /// transactions, in performance order.
    pub exec: Execution,
}

impl Schedule {
    /// Whether every offer was granted.
    pub fn all_granted(&self) -> bool {
        self.verdicts.iter().all(|&v| v)
    }
}

/// Deterministic exploration counters. With a fixed input every field is
/// reproducible, so tests pin them against hand-computed totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Maximal schedules visited (for an all-grant input under
    /// reduction: the number of Mazurkiewicz traces).
    pub explored: u64,
    /// Offers actually applied during the search (interior tree edges).
    pub transitions: u64,
    /// Enabled actions skipped because they were asleep.
    pub sleep_skips: u64,
    /// Interior nodes abandoned with every enabled action asleep (the
    /// redundant branches sleep sets prune; not counted as explored).
    pub sleep_blocked: u64,
    /// Independence queries answered by engine probes.
    pub probes: u64,
    /// Independence queries served from the memoized commutativity
    /// cache.
    pub cache_hits: u64,
}

// A memoized independence answer is sound to reuse exactly when the
// probe's inputs coincide: the per-transaction progress (which fixes
// every breakpoint description), the aborted set, the maintained
// relation itself, and the pair. Two different interleavings reaching
// the same progress vector can carry different closures, hence the full
// signature in the key rather than just the counts.
type CacheKey = (Vec<u32>, u64, RelationSignature, usize, usize);

struct Dfs<'a, S, F> {
    input: &'a BoundedNest<S>,
    visit: F,
    reduce: bool,
    stats: ExploreStats,
    cache: HashMap<CacheKey, bool>,
    offers: Vec<Step>,
    verdicts: Vec<bool>,
}

impl<S: BreakpointSpecification + Clone, F: FnMut(&Schedule)> Dfs<'_, S, F> {
    fn node(
        &mut self,
        engine: &mut ClosureEngine<S>,
        next: &[usize],
        aborted: &[bool],
        sleep: &BTreeSet<usize>,
    ) {
        let n = self.input.scripts.len();
        let enabled: Vec<usize> = (0..n)
            .filter(|&t| !aborted[t] && next[t] < self.input.scripts[t].len())
            .collect();
        if enabled.is_empty() {
            self.stats.explored += 1;
            let schedule = Schedule {
                offers: self.offers.clone(),
                verdicts: self.verdicts.clone(),
                exec: engine.execution(),
            };
            (self.visit)(&schedule);
            return;
        }
        let awake: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|t| !sleep.contains(t))
            .collect();
        self.stats.sleep_skips += (enabled.len() - awake.len()) as u64;
        if awake.is_empty() {
            self.stats.sleep_blocked += 1;
            return;
        }
        let mut done: Vec<usize> = Vec::new();
        for &t in &awake {
            // Sleep set for the child: everything asleep here, plus the
            // siblings already explored at this node, kept only if it
            // commutes with `t` in the *current* state — taking `t`
            // then must lead to the same state as taking it before.
            let mut child_sleep = BTreeSet::new();
            if self.reduce {
                for &u in sleep.iter().chain(done.iter()) {
                    if self.independent(engine, next, aborted, t, u) {
                        child_sleep.insert(u);
                    }
                }
            }
            let candidate = self.input.step(t, next[t]);
            let mut child = engine.snapshot();
            self.stats.transitions += 1;
            let granted = match child.apply_step(candidate) {
                Ok(()) => {
                    child.commit_step();
                    true
                }
                Err(_) => {
                    child.remove_txns(&[candidate.txn]);
                    false
                }
            };
            self.offers.push(candidate);
            self.verdicts.push(granted);
            let mut cnext = next.to_vec();
            let mut caborted = aborted.to_vec();
            if granted {
                cnext[t] += 1;
            } else {
                caborted[t] = true;
            }
            self.node(&mut child, &cnext, &caborted, &child_sleep);
            self.offers.pop();
            self.verdicts.pop();
            done.push(t);
        }
    }

    fn independent(
        &mut self,
        engine: &mut ClosureEngine<S>,
        next: &[usize],
        aborted: &[bool],
        a: usize,
        b: usize,
    ) -> bool {
        let (lo, hi) = (a.min(b), a.max(b));
        let key = (
            next.iter().map(|&x| x as u32).collect::<Vec<u32>>(),
            aborted_mask(aborted),
            engine.relation_signature(),
            lo,
            hi,
        );
        if let Some(&known) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return known;
        }
        self.stats.probes += 1;
        let commute =
            engine.steps_commute(self.input.step(lo, next[lo]), self.input.step(hi, next[hi]));
        self.cache.insert(key, commute);
        commute
    }
}

fn aborted_mask(aborted: &[bool]) -> u64 {
    aborted
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, &a)| if a { m | (1 << i) } else { m })
}

fn run<S: BreakpointSpecification + Clone>(
    input: &BoundedNest<S>,
    reduce: bool,
    visit: impl FnMut(&Schedule),
) -> ExploreStats {
    assert_eq!(
        input.scripts.len(),
        input.nest.txn_count(),
        "one script per nest transaction"
    );
    assert!(
        input.scripts.len() <= 64,
        "at most 64 scripted transactions"
    );
    let mut dfs = Dfs {
        input,
        visit,
        reduce,
        stats: ExploreStats::default(),
        cache: HashMap::new(),
        offers: Vec::new(),
        verdicts: Vec::new(),
    };
    let mut engine = ClosureEngine::new(input.nest.clone(), input.spec.clone());
    let next = vec![0usize; input.scripts.len()];
    let aborted = vec![false; input.scripts.len()];
    dfs.node(&mut engine, &next, &aborted, &BTreeSet::new());
    dfs.stats
}

/// Explores every maximal schedule of `input` up to
/// dependency-equivalence (sleep-set DPOR), invoking `visit` once per
/// trace representative. For an all-grant input, `explored` equals the
/// number of Mazurkiewicz traces; when denials occur the pair involved
/// is always dependent, so the denied branches are never pruned.
pub fn explore<S: BreakpointSpecification + Clone>(
    input: &BoundedNest<S>,
    visit: impl FnMut(&Schedule),
) -> ExploreStats {
    run(input, true, visit)
}

/// Explores every maximal schedule with no reduction at all — the
/// brute-force ground truth the DPOR counts are checked against.
pub fn explore_all<S: BreakpointSpecification + Clone>(
    input: &BoundedNest<S>,
    visit: impl FnMut(&Schedule),
) -> ExploreStats {
    run(input, false, visit)
}

/// The brute-force trace census of an all-grant input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCensus {
    /// Total maximal schedules (no reduction).
    pub schedules: usize,
    /// Mazurkiewicz-trace classes: schedules joined whenever two of
    /// them differ by one adjacent swap of independent steps.
    pub classes: usize,
    /// Adjacent-pair independence queries answered by engine probes.
    pub probes: u64,
    /// Queries served from the memoized commutativity cache — schedules
    /// share dependency-equivalent prefixes, so the census is where
    /// memoization pays off most.
    pub cache_hits: u64,
}

/// Computes the trace census of an all-grant input independently of the
/// sleep-set machinery: enumerate every schedule, then union-find over
/// single adjacent swaps of steps that commute at the swap point (the
/// probe answers, on a replayed prefix). DPOR is complete iff
/// [`ExploreStats::explored`] equals `classes`. Panics if any schedule
/// contains a denial — dependency-equivalence of offer sequences is only
/// defined when every offer commits.
pub fn trace_classes<S: BreakpointSpecification + Clone>(input: &BoundedNest<S>) -> TraceCensus {
    let mut schedules: Vec<Vec<Step>> = Vec::new();
    explore_all(input, |s| {
        assert!(s.all_granted(), "trace_classes requires an all-grant input");
        schedules.push(s.offers.clone());
    });
    let index: HashMap<Vec<u32>, usize> = schedules
        .iter()
        .enumerate()
        .map(|(i, s)| (s.iter().map(|st| st.txn.0).collect(), i))
        .collect();
    let mut uf = UnionFind::new(schedules.len());
    let mut cache: HashMap<CacheKey, bool> = HashMap::new();
    let (mut probes, mut cache_hits) = (0u64, 0u64);
    for (i, offers) in schedules.iter().enumerate() {
        let mut engine = ClosureEngine::new(input.nest.clone(), input.spec.clone());
        let mut next = vec![0u32; input.scripts.len()];
        for p in 0..offers.len().saturating_sub(1) {
            let (x, y) = (offers[p], offers[p + 1]);
            let commute = x.txn != y.txn && {
                let (lo, hi) = (x.txn.0.min(y.txn.0), x.txn.0.max(y.txn.0));
                let key = (
                    next.clone(),
                    0u64,
                    engine.relation_signature(),
                    lo as usize,
                    hi as usize,
                );
                match cache.get(&key) {
                    Some(&known) => {
                        cache_hits += 1;
                        known
                    }
                    None => {
                        probes += 1;
                        let fresh = engine.steps_commute(x, y);
                        cache.insert(key, fresh);
                        fresh
                    }
                }
            };
            if commute {
                // Swapping an adjacent independent pair of an all-grant
                // schedule yields another all-grant schedule, so the
                // lookup cannot miss.
                let mut swapped: Vec<u32> = offers.iter().map(|s| s.txn.0).collect();
                swapped.swap(p, p + 1);
                let j = *index
                    .get(&swapped)
                    .expect("independent adjacent swap of a schedule is a schedule");
                uf.union(i, j);
            }
            engine
                .apply_step(x)
                .expect("all-grant schedule replays without denial");
            engine.commit_step();
            next[x.txn.0 as usize] += 1;
        }
    }
    TraceCensus {
        schedules: schedules.len(),
        classes: uf.classes(),
        probes,
        cache_hits,
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    fn classes(&mut self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.find(i) == i)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::spec::{AtomicSpec, FreeSpec};

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    #[test]
    fn single_txn_has_one_schedule_and_no_probes() {
        let input = BoundedNest {
            nest: Nest::flat(1),
            spec: AtomicSpec { k: 2 },
            scripts: vec![vec![e(0), e(1), e(0)]],
        };
        let mut seen = 0usize;
        let stats = explore(&input, |s| {
            seen += 1;
            assert!(s.all_granted());
            assert_eq!(s.exec.len(), 3);
        });
        assert_eq!(seen, 1);
        assert_eq!(
            stats,
            ExploreStats {
                explored: 1,
                transitions: 3,
                ..ExploreStats::default()
            }
        );
    }

    #[test]
    fn explore_all_counts_every_interleaving() {
        // Two 2-step transactions: C(4, 2) = 6 maximal offer sequences,
        // disjoint entities so all grant.
        let input = BoundedNest {
            nest: Nest::flat(2),
            spec: AtomicSpec { k: 2 },
            scripts: vec![vec![e(0); 2], vec![e(1); 2]],
        };
        let stats = explore_all(&input, |s| assert!(s.all_granted()));
        assert_eq!(stats.explored, 6);
        assert_eq!(stats.sleep_skips, 0);
        assert_eq!(stats.probes, 0);
    }

    #[test]
    fn free_spec_on_shared_entity_grants_but_never_commutes() {
        // k = 3, both transactions in class [0]: level 2 breakpoints
        // everywhere, so every interleaving is granted — but the steps
        // share an entity, so no pair commutes and DPOR must keep all
        // six schedules.
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let input = BoundedNest {
            nest,
            spec: FreeSpec { k: 3 },
            scripts: vec![vec![e(7); 2], vec![e(7); 2]],
        };
        let stats = explore(&input, |s| assert!(s.all_granted()));
        assert_eq!(stats.explored, 6);
        assert_eq!(stats.sleep_skips, 0);
        assert_eq!(stats.sleep_blocked, 0);
    }

    #[test]
    fn census_agrees_with_dpor_on_free_disjoint_pair() {
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let input = BoundedNest {
            nest,
            spec: FreeSpec { k: 3 },
            scripts: vec![vec![e(0); 2], vec![e(1); 2]],
        };
        let census = trace_classes(&input);
        assert_eq!(census.schedules, 6);
        assert_eq!(census.classes, 1);
        let stats = explore(&input, |_| {});
        assert_eq!(stats.explored as usize, census.classes);
    }
}
