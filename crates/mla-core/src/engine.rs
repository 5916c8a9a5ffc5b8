//! Online maintenance of the coherent closure — the incremental engine
//! behind the §6 schedulers.
//!
//! [`CoherentClosure::compute`](crate::closure::CoherentClosure::compute)
//! rebuilds the whole frontier matrix from scratch for every execution it
//! is handed; a scheduler calling it once per decision pays `O(n² · T)`
//! *per step*. [`ClosureEngine`] maintains the same fixpoint *across*
//! decisions and charges each decision only for the rows its new step
//! actually disturbs:
//!
//! * [`ClosureEngine::apply_step`] appends one tentative step and runs a
//!   worklist fixpoint seeded with exactly the rows the append can
//!   affect. It returns `Ok(())` — leaving the step pending — or a
//!   concrete [`CycleWitness`] after rolling the attempt back.
//! * [`ClosureEngine::commit_step`] / [`ClosureEngine::rollback_step`]
//!   resolve a pending step. Rollback replays an undo journal, so a
//!   deferred or rejected candidate costs only the work its own fixpoint
//!   did.
//! * [`ClosureEngine::evict`] projects a committed transaction out of the
//!   maintained state in `O(window)` without recomputation.
//! * [`ClosureEngine::remove_txn`] handles aborts by scheduling a *full
//!   rebuild* (the rebuild-on-abort invariant): removal can only shrink
//!   the relation, so replaying the surviving steps is always cycle-free,
//!   and it is the one place the engine pays batch cost.
//!
//! # How incrementality stays sound
//!
//! The engine keeps three structures in lockstep:
//!
//! 1. the **frontier matrix** `m[v][t]` of
//!    [`CoherentClosure`](crate::closure::CoherentClosure), updated
//!    monotonically by the same three rules (base edges, condition-(b)
//!    segment lift, transitivity through the frontier step);
//! 2. a **dependency index** `dependents[u]` = rows that pulled row `u`
//!    via transitivity, so a later growth of `u`'s row re-triggers exactly
//!    the rows that could observe it;
//! 3. an [`IncrementalTopo`] holding one edge per maintained frontier
//!    entry plus each transaction's intra chain. Reachability in this
//!    graph equals the closure relation at fixpoint, so Pearce–Kelly edge
//!    insertion is an *authoritative online acyclicity check*: the first
//!    frontier increment that would relate a step before itself is
//!    rejected with a real cycle path, which becomes the
//!    [`CycleWitness`].
//!
//! The only cross-row trigger an append needs beyond `dependents` is the
//! condition-(b) *segment extension*: when transaction `t'` performs step
//! `s`, a row `v` of another transaction can gain `(t', s)` only if its
//! frontier already sat at `s - 1` — the previous end of `t'`'s last
//! segment (the §6 breakpoint-compatibility condition guarantees earlier
//! segments never change). Those rows are exactly the topo successors of
//! `t'`'s previous step, which seed the worklist together with the new
//! row.
//!
//! # Invariants
//!
//! * Committed engine state is always acyclic; cyclic candidates never
//!   commit (they are rolled back inside [`ClosureEngine::apply_step`]).
//! * For every live row `v` and transaction column `t` with
//!   `m[v][t] != NONE`, the topo contains the edge
//!   `steps_of(t)[m[v][t]] -> v` (or `v` is that step itself).
//! * Aborted transactions schedule [`needs_rebuild`]; the rebuild is lazy
//!   (performed at the next [`ClosureEngine::apply_step`]) and compacts
//!   dead rows out of the arena.
//! * Breakpoint descriptions are refreshed per append from the *stored*
//!   steps, whose values [`ClosureEngine::performed`] keeps in sync with
//!   the store — so a position-based specification sees exactly what the
//!   batch checker would. Value-*dependent* specifications are outside
//!   the engine's contract (debug builds assert against them).
//!
//! [`needs_rebuild`]: ClosureEngine::rebuild_pending

use std::collections::{HashMap, VecDeque};

use mla_graph::topo::Cycle;
use mla_graph::{BitSet, DenseMap, IncrementalTopo, PairSummary};
use mla_model::{EntityId, Execution, Step, TxnId};

use crate::breakpoints::BreakpointDescription;
use crate::nest::Nest;
use crate::spec::BreakpointSpecification;

/// Sentinel for "no related predecessor from this transaction".
const NONE: i64 = -1;

/// Work counters the engine accumulates; schedulers surface these as
/// decision-cost metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Steps offered via [`ClosureEngine::apply_step`] (including
    /// rejected and rolled-back ones, excluding rebuild replays).
    pub steps_applied: u64,
    /// Closure edges inserted into the incremental topological order
    /// (frontier increments), including those re-inserted by rebuilds.
    pub edges_inserted: u64,
    /// Worklist rows processed across all fixpoints — the per-decision
    /// work measure.
    pub rows_touched: u64,
    /// Full rebuilds performed (abort handling and dead-row compaction).
    pub rebuilds: u64,
    /// Tentative steps rolled back (cycle rejections and scheduler
    /// defers).
    pub rollbacks: u64,
}

/// A placeholder with no producer: the closure engine is serial, so no
/// engine reports worker-pool statistics. It exists only because the
/// `parallel_stats` forwarder in `perfbench/src/adapter.rs` names it;
/// it goes together with that forwarder and
/// `mla_sim::Control::parallel_stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParallelStats;

/// A stable-identity snapshot of the maintained relation: for each live
/// step `(txn, seq)`, the frontier entries `(other_txn, frontier_seq)`
/// over columns that still have live rows, everything sorted. Two
/// engines hold the same relation iff their signatures are equal —
/// regardless of arena row order or column creation order, which differ
/// legitimately between schedules that perform the same steps.
pub type RelationSignature = Vec<((u32, u32), Vec<(u32, i64)>)>;

/// Outcome of a two-step commutativity probe
/// ([`ClosureEngine::probe_pair`]). The probe is fully rolled back
/// before this is returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PairProbe {
    /// Whether the first step was granted.
    pub first_ok: bool,
    /// Whether the second step was granted (after the first).
    pub second_ok: bool,
    /// The relation signature after both steps, when both were granted.
    pub signature: Option<RelationSignature>,
}

/// A concrete closure cycle reported by [`ClosureEngine::apply_step`],
/// already translated from arena rows to stable step identities (the
/// tentative row is rolled back before this is returned).
#[derive(Clone, Debug)]
pub struct CycleWitness {
    /// The cycle as `(transaction, seq)` pairs in path order; consecutive
    /// entries (wrapping around) are related by the closure.
    pub steps: Vec<(TxnId, u32)>,
    /// Distinct transactions on the cycle, ascending — the scheduler's
    /// victim candidates.
    pub txns: Vec<TxnId>,
}

/// Undo-journal entries for one tentative [`ClosureEngine::apply_step`].
/// Replayed in reverse by [`ClosureEngine::rollback_step`].
enum Op {
    /// `txns`/`local`/`txn_steps`/`bds` grew by one and every frontier
    /// row gained a trailing column.
    NewTxn,
    /// The step arena (and all row-parallel vectors) grew by one.
    NewRow,
    /// A transaction's breakpoint description was refreshed.
    BdChanged {
        txn: usize,
        old: BreakpointDescription,
    },
    /// `m[row][col]` was raised from `old`.
    Frontier { row: u32, col: u32, old: i64 },
    /// Edge inserted into the topo.
    EdgeInserted { from: u32, to: u32 },
    /// Superseded frontier edge removed from the topo.
    EdgeRemoved { from: u32, to: u32 },
}

/// Incremental coherent-closure maintenance: per-step delta cost instead
/// of per-step full recomputation. See the [module docs](self) for the
/// architecture and soundness argument.
pub struct ClosureEngine<S> {
    nest: Nest,
    spec: S,
    /// Column index -> TxnId, in order of first (surviving) appearance.
    txns: Vec<TxnId>,
    /// Inverse of `txns` for transactions that may still grow. Dense
    /// (`TxnId`s are arena-style): one indexed load per decision-loop
    /// lookup instead of a hash probe.
    local: DenseMap,
    /// Step arena in performance order; dead (evicted/aborted) rows stay
    /// until the next rebuild compacts them.
    steps: Vec<Step>,
    step_txn: Vec<usize>,
    step_seq: Vec<usize>,
    /// Column -> its arena rows, ascending.
    txn_steps: Vec<Vec<usize>>,
    /// Column -> current breakpoint description of its subsequence.
    bds: Vec<BreakpointDescription>,
    /// The frontier matrix (see `closure.rs`).
    m: Vec<Vec<i64>>,
    /// `dependents[u]` = rows that unioned row `u` (re-processed when
    /// `u`'s row grows). Bitset rows: registering a dependent is one bit
    /// test instead of a linear scan of the row's dependents. Entries may
    /// go stale after rollbacks; stale rows are skipped at pop time.
    dependents: Vec<BitSet>,
    /// One node per arena row; edges mirror the maintained frontier plus
    /// intra chains. Rejecting an insertion = closure cycle.
    topo: IncrementalTopo,
    /// Entity -> arena rows that touched it, ascending (dead rows are
    /// skipped when seeding base conflicts). Indexed by `EntityId` —
    /// entity spaces are dense, so the per-append lookup is a load.
    entity_rows: Vec<Vec<u32>>,
    dead: Vec<bool>,
    dead_count: usize,
    needs_rebuild: bool,
    tentative: bool,
    journal: Vec<Op>,
    queue: VecDeque<u32>,
    in_queue: Vec<bool>,
    counters: EngineCounters,
}

impl<S: BreakpointSpecification> ClosureEngine<S> {
    /// An empty engine for the given nest and specification.
    pub fn new(nest: Nest, spec: S) -> Self {
        ClosureEngine {
            nest,
            spec,
            txns: Vec::new(),
            local: DenseMap::new(),
            steps: Vec::new(),
            step_txn: Vec::new(),
            step_seq: Vec::new(),
            txn_steps: Vec::new(),
            bds: Vec::new(),
            m: Vec::new(),
            dependents: Vec::new(),
            topo: IncrementalTopo::new(0),
            entity_rows: Vec::new(),
            dead: Vec::new(),
            dead_count: 0,
            needs_rebuild: false,
            tentative: false,
            journal: Vec::new(),
            queue: VecDeque::new(),
            in_queue: Vec::new(),
            counters: EngineCounters::default(),
        }
    }

    /// Offers one step, tentatively. On `Ok` the step is *pending*:
    /// resolve it with [`commit_step`](Self::commit_step) (the scheduler
    /// granted it) or [`rollback_step`](Self::rollback_step) (deferred).
    /// On `Err` the engine has already rolled the attempt back and
    /// returns the closure cycle the step would have created.
    ///
    /// Steps must arrive in per-transaction sequence order (the
    /// scheduler's performance order). A scheduled rebuild (see
    /// [`remove_txn`](Self::remove_txn)) runs first.
    pub fn apply_step(&mut self, step: Step) -> Result<(), CycleWitness> {
        assert!(!self.tentative, "previous tentative step not resolved");
        if self.needs_rebuild {
            self.rebuild();
        }
        self.counters.steps_applied += 1;
        self.tentative = true;
        match self.apply_inner(step) {
            Ok(()) => Ok(()),
            Err(cycle) => {
                let witness = self.witness_from(&cycle);
                self.rollback_step();
                Err(witness)
            }
        }
    }

    /// Makes the pending step permanent.
    pub fn commit_step(&mut self) {
        assert!(self.tentative, "no pending step to commit");
        self.journal.clear();
        self.tentative = false;
    }

    /// Decides a whole stream under the batch poison rule: grants
    /// auto-commit; a denial poisons its transaction for the rest of the
    /// batch (later steps are denied with the same witness, never
    /// applied — the transaction's `seq` chain is broken anyway).
    pub fn decide_batch(&mut self, steps: &[Step]) -> Vec<Result<(), CycleWitness>> {
        let mut poisoned: HashMap<TxnId, CycleWitness> = HashMap::new();
        let mut verdicts = Vec::with_capacity(steps.len());
        for &step in steps {
            if let Some(w) = poisoned.get(&step.txn) {
                verdicts.push(Err(w.clone()));
                continue;
            }
            match self.apply_step(step) {
                Ok(()) => {
                    self.commit_step();
                    verdicts.push(Ok(()));
                }
                Err(w) => {
                    poisoned.insert(step.txn, w.clone());
                    verdicts.push(Err(w));
                }
            }
        }
        verdicts
    }

    /// Closure predecessors of the *pending* step: live columns (other
    /// than the requester's) whose last live step is related before the
    /// tentative row in the maintained closure. This is the §6
    /// prevention probe — one O(1) frontier lookup per column. Returned
    /// ascending by `TxnId` so the answer is independent of
    /// column-creation order.
    pub fn pending_predecessors(&self) -> Vec<TxnId> {
        assert!(self.tentative, "no pending step to probe");
        let beta = self.steps.len() - 1;
        let requester = self.step_txn[beta];
        let mut preds: Vec<TxnId> = Vec::new();
        for lt in 0..self.txns.len() {
            if lt == requester {
                continue;
            }
            let Some(&alpha) = self.txn_steps[lt].last() else {
                continue;
            };
            // Stale column of a since-restarted transaction: its rows
            // died with the rollback.
            if self.dead[alpha] {
                continue;
            }
            if self.related(alpha, beta) {
                preds.push(self.txns[lt]);
            }
        }
        preds.sort_unstable_by_key(|t| t.0);
        preds
    }

    /// Applies the live-window eviction rule directly on the maintained
    /// state: build the transaction-level pair summary of the live
    /// frontier, forward-reach from every transaction `is_source` keeps
    /// alive (the uncommitted ones, for the window), and
    /// [`evict`](Self::evict) each live column that is neither a source
    /// nor reached. Returns the evicted `TxnId`s. Sound by the same
    /// argument as the window rule: once no live transaction reaches a
    /// committed one in the closure, nothing ever will again.
    pub fn evict_unreachable(&mut self, is_source: impl Fn(TxnId) -> bool) -> Vec<TxnId> {
        assert!(!self.tentative, "resolve the pending step before eviction");
        let tc = self.txns.len();
        let mut live_col = vec![false; tc];
        for (lt, col) in live_col.iter_mut().enumerate() {
            *col = self.txn_steps[lt].iter().any(|&r| !self.dead[r]);
        }
        let mut pairs = PairSummary::new();
        for v in 0..self.steps.len() {
            if self.dead[v] {
                continue;
            }
            let tv = self.step_txn[v];
            for t in 0..tc {
                // Columns without live rows are inert either way (their
                // stale frontier entries are cleared on eviction and
                // compacted on rebuild); skip them so the summary speaks
                // only about window members.
                if t != tv && live_col[t] && self.m[v][t] != NONE {
                    pairs.add(self.txns[t].0, self.txns[tv].0);
                }
            }
        }
        let keep = pairs.reachable_from(
            (0..tc)
                .filter(|&lt| live_col[lt] && is_source(self.txns[lt]))
                .map(|lt| self.txns[lt].0),
        );
        let mut evicted: Vec<TxnId> = Vec::new();
        for lt in 0..tc {
            let t = self.txns[lt];
            if live_col[lt] && !is_source(t) && keep.binary_search(&t.0).is_err() {
                evicted.push(t);
            }
        }
        for &t in &evicted {
            let lt = self.local.get(t.0).expect("evicted txn has a column") as usize;
            self.evict(lt);
        }
        evicted
    }

    /// Undoes the pending step by replaying the journal in reverse. The
    /// engine returns exactly to its pre-[`apply_step`](Self::apply_step)
    /// state (work counters excepted — they measure work done).
    pub fn rollback_step(&mut self) {
        assert!(self.tentative, "no pending step to roll back");
        self.counters.rollbacks += 1;
        while let Some(op) = self.journal.pop() {
            match op {
                Op::Frontier { row, col, old } => self.m[row as usize][col as usize] = old,
                Op::EdgeInserted { from, to } => {
                    let removed = self.topo.remove_edge(from, to);
                    debug_assert!(removed, "journaled edge vanished");
                }
                Op::EdgeRemoved { from, to } => {
                    let re = self.topo.add_edge(from, to);
                    debug_assert!(
                        matches!(re, Ok(true)),
                        "re-adding a journaled edge must succeed"
                    );
                }
                Op::BdChanged { txn, old } => self.bds[txn] = old,
                Op::NewRow => {
                    let step = self.steps.pop().expect("journal/arena desync");
                    let lt = self.step_txn.pop().expect("journal/arena desync");
                    self.step_seq.pop();
                    self.txn_steps[lt].pop();
                    self.m.pop();
                    self.dependents.pop();
                    self.dead.pop();
                    let rows = &mut self.entity_rows[step.entity.index()];
                    debug_assert_eq!(rows.last().copied(), Some(self.steps.len() as u32));
                    rows.pop();
                    // All incident edges were journaled and already undone.
                    debug_assert!(self.topo.successors(self.steps.len() as u32).is_empty());
                    debug_assert!(self.topo.predecessors(self.steps.len() as u32).is_empty());
                }
                Op::NewTxn => {
                    let t = self.txns.pop().expect("journal/txn desync");
                    self.local.remove(t.0);
                    self.txn_steps.pop();
                    self.bds.pop();
                    for row in &mut self.m {
                        row.pop();
                    }
                }
            }
        }
        self.tentative = false;
    }

    /// Records the store-observed values of the just-performed step (the
    /// scheduler's `performed` hook). Keeps the stored subsequence equal
    /// to what a batch checker reading the journal would see, so the next
    /// breakpoint-description refresh matches.
    pub fn performed(&mut self, step: &Step) {
        let Some(lt) = self.local.get(step.txn.0).map(|v| v as usize) else {
            return;
        };
        let Some(&row) = self.txn_steps[lt].last() else {
            return;
        };
        if self.step_seq[row] != step.seq as usize {
            return;
        }
        self.steps[row].observed = step.observed;
        self.steps[row].wrote = step.wrote;
        #[cfg(debug_assertions)]
        {
            let sub: Vec<Step> = self.txn_steps[lt].iter().map(|&i| self.steps[i]).collect();
            debug_assert_eq!(
                self.spec.describe(step.txn, &sub),
                self.bds[lt],
                "value-dependent breakpoint specifications are outside the \
                 incremental engine's contract"
            );
        }
    }

    /// Removes an aborted transaction. Cheap at call time: its rows are
    /// marked dead and a full rebuild (replay of the surviving steps,
    /// compacting the arena) is scheduled for the next
    /// [`apply_step`](Self::apply_step) — the rebuild-on-abort invariant.
    pub fn remove_txn(&mut self, t: TxnId) {
        assert!(!self.tentative, "resolve the pending step before removal");
        let Some(lt) = self.local.remove(t.0).map(|v| v as usize) else {
            return; // unknown or already compacted away — nothing to do
        };
        for &r in &self.txn_steps[lt] {
            if !self.dead[r] {
                self.dead[r] = true;
                self.dead_count += 1;
            }
        }
        self.needs_rebuild = true;
    }

    /// Projects a *committed* transaction (by column index) out of the
    /// maintained state: its rows die, their topo edges drop, and every
    /// live frontier forgets the column. Sound when no live pair can ever
    /// again relate through the transaction — exactly the live-window
    /// eviction rule (nothing uncommitted reaches it in the closure).
    /// O(window), no recomputation; dead rows are compacted away by the
    /// next rebuild (one is scheduled when they outnumber live rows).
    pub fn evict(&mut self, lt: usize) {
        assert!(!self.tentative, "resolve the pending step before eviction");
        let rows = self.txn_steps[lt].clone();
        for r in rows {
            if !self.dead[r] {
                self.dead[r] = true;
                self.dead_count += 1;
                self.topo.detach_node(r as u32);
                self.dependents[r].clear();
            }
        }
        for v in 0..self.steps.len() {
            if !self.dead[v] {
                self.m[v][lt] = NONE;
            }
        }
        if let Some(t) = self.txns.get(lt) {
            self.local.remove(t.0);
        }
        if self.dead_count > 64 && self.dead_count > self.steps.len() - self.dead_count {
            self.needs_rebuild = true;
        }
    }

    /// Schedules a full rebuild before the next
    /// [`apply_step`](Self::apply_step). The ablation hook: calling this
    /// before every decision makes the engine pay honest batch cost
    /// through the same code path.
    pub fn force_rebuild(&mut self) {
        assert!(!self.tentative, "resolve the pending step first");
        self.needs_rebuild = true;
    }

    /// Performs any scheduled rebuild immediately. Rebuilds normally run
    /// lazily at the next [`apply_step`](Self::apply_step); call this
    /// before inspecting the maintained relation (e.g.
    /// [`related`](Self::related) or [`frontier`](Self::frontier)) after
    /// removals, when the stale dead-row contributions would otherwise
    /// still be visible.
    pub fn flush_rebuild(&mut self) {
        assert!(!self.tentative, "resolve the pending step first");
        if self.needs_rebuild {
            self.rebuild();
        }
    }

    /// Whether a rebuild is scheduled.
    pub fn rebuild_pending(&self) -> bool {
        self.needs_rebuild
    }

    /// Whether a tentative step is pending resolution.
    pub fn pending(&self) -> bool {
        self.tentative
    }

    /// Accumulated work counters.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// Number of live (non-dead) steps.
    pub fn live_count(&self) -> usize {
        self.steps.len() - self.dead_count
    }

    /// Number of transaction columns (including dead ones awaiting
    /// compaction).
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// The TxnId of a column.
    pub fn txn_id(&self, lt: usize) -> TxnId {
        self.txns[lt]
    }

    /// The column of a transaction, if it has live state.
    pub fn local_of(&self, t: TxnId) -> Option<usize> {
        self.local.get(t.0).map(|v| v as usize)
    }

    /// Arena rows of a column, ascending.
    pub fn steps_of(&self, lt: usize) -> &[usize] {
        &self.txn_steps[lt]
    }

    /// Whether an arena row is live.
    pub fn is_live(&self, row: usize) -> bool {
        !self.dead[row]
    }

    /// The stored step at an arena row.
    pub fn step(&self, row: usize) -> &Step {
        &self.steps[row]
    }

    /// Column of an arena row.
    pub fn txn_of(&self, row: usize) -> usize {
        self.step_txn[row]
    }

    /// Sequence number of an arena row within its transaction.
    pub fn seq_of(&self, row: usize) -> usize {
        self.step_seq[row]
    }

    /// The frontier row of a step (largest related seq per column, `-1`
    /// if none) — same encoding as
    /// [`CoherentClosure::frontier`](crate::closure::CoherentClosure::frontier).
    pub fn frontier(&self, row: usize) -> &[i64] {
        &self.m[row]
    }

    /// Whether row `u` is related strictly before row `v` in the
    /// maintained closure.
    pub fn related(&self, u: usize, v: usize) -> bool {
        self.m[v][self.step_txn[u]] >= self.step_seq[u] as i64
    }

    /// Transaction-level successor adjacency derived from the live
    /// frontier: an edge `t -> txn(v)` for every live row `v` whose
    /// frontier includes column `t`. This is what the live-window
    /// eviction rule forward-reaches over.
    pub fn txn_frontier_adj(&self) -> Vec<Vec<usize>> {
        let tc = self.txns.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); tc];
        for v in 0..self.steps.len() {
            if self.dead[v] {
                continue;
            }
            let tv = self.step_txn[v];
            for (t, adj_t) in adj.iter_mut().enumerate() {
                if t != tv && self.m[v][t] != NONE && !adj_t.contains(&tv) {
                    adj_t.push(tv);
                }
            }
        }
        adj
    }

    /// The live steps as an [`Execution`] (arena order = performance
    /// order). For oracles and equivalence tests; the scheduling hot path
    /// never materializes this.
    pub fn execution(&self) -> Execution {
        let live: Vec<Step> = (0..self.steps.len())
            .filter(|&v| !self.dead[v])
            .map(|v| self.steps[v])
            .collect();
        Execution::new(live).expect("engine arena holds per-txn ordered steps")
    }

    /// The maintained relation as a [`RelationSignature`] — stable step
    /// identities, no arena or column order. Reflects the current state
    /// including a pending tentative step; after removals, call
    /// [`flush_rebuild`](Self::flush_rebuild) first (stale dead-column
    /// contributions are otherwise still folded in).
    pub fn relation_signature(&self) -> RelationSignature {
        debug_assert!(
            !self.needs_rebuild,
            "flush_rebuild before taking a relation signature"
        );
        let live_col: Vec<bool> = self
            .txn_steps
            .iter()
            .map(|rows| rows.iter().any(|&r| !self.dead[r]))
            .collect();
        let mut sig: RelationSignature = Vec::with_capacity(self.live_count());
        for v in 0..self.steps.len() {
            if self.dead[v] {
                continue;
            }
            let mut row: Vec<(u32, i64)> = Vec::new();
            for (t, &f) in self.m[v].iter().enumerate() {
                if f != NONE && live_col[t] {
                    row.push((self.txns[t].0, f));
                }
            }
            row.sort_unstable();
            sig.push((
                (self.txns[self.step_txn[v]].0, self.step_seq[v] as u32),
                row,
            ));
        }
        sig.sort_unstable();
        sig
    }

    /// Applies `a` then `b` tentatively (two steps of *different*
    /// transactions, each its transaction's next step), captures the
    /// relation signature when both are granted, and rolls the whole
    /// attempt back — the engine returns exactly to its prior state
    /// (work counters excepted). This is the DPOR commutativity probe:
    /// `a` and `b` commute in the current state iff `probe_pair(a, b)`
    /// and `probe_pair(b, a)` both grant fully and produce equal
    /// signatures (see [`steps_commute`](Self::steps_commute)).
    pub fn probe_pair(&mut self, a: Step, b: Step) -> PairProbe {
        assert!(!self.tentative, "previous tentative step not resolved");
        assert_ne!(a.txn, b.txn, "probe steps must belong to different txns");
        if self.needs_rebuild {
            self.rebuild();
        }
        self.tentative = true;
        let (first_ok, second_ok, signature) = match self.apply_inner(a) {
            Ok(()) => match self.apply_inner(b) {
                Ok(()) => (true, true, Some(self.relation_signature())),
                Err(_) => (true, false, None),
            },
            Err(_) => (false, false, None),
        };
        // The journal holds both steps' ops; one reverse replay undoes
        // the pair.
        self.rollback_step();
        PairProbe {
            first_ok,
            second_ok,
            signature,
        }
    }

    /// Whether `a` and `b` (next steps of two different transactions)
    /// commute in the current state: both orders fully granted with
    /// identical resulting relations. Any denial in either order makes
    /// the pair dependent — conservative, since a verdict that differs
    /// by order is itself an observable difference.
    pub fn steps_commute(&mut self, a: Step, b: Step) -> bool {
        let ab = self.probe_pair(a, b);
        if ab.signature.is_none() {
            return false;
        }
        let ba = self.probe_pair(b, a);
        ab.signature == ba.signature
    }

    /// A deep copy of the committed state — the DFS backtracking hook
    /// for exhaustive schedule exploration (`mla-explore`). Panics if a
    /// tentative step is pending.
    pub fn snapshot(&self) -> Self
    where
        S: Clone,
    {
        assert!(!self.tentative, "resolve the pending step before snapshot");
        debug_assert!(self.journal.is_empty() && self.queue.is_empty());
        ClosureEngine {
            nest: self.nest.clone(),
            spec: self.spec.clone(),
            txns: self.txns.clone(),
            local: self.local.clone(),
            steps: self.steps.clone(),
            step_txn: self.step_txn.clone(),
            step_seq: self.step_seq.clone(),
            txn_steps: self.txn_steps.clone(),
            bds: self.bds.clone(),
            m: self.m.clone(),
            dependents: self.dependents.clone(),
            topo: self.topo.clone(),
            entity_rows: self.entity_rows.clone(),
            dead: self.dead.clone(),
            dead_count: self.dead_count,
            needs_rebuild: self.needs_rebuild,
            tentative: false,
            journal: Vec::new(),
            queue: VecDeque::new(),
            in_queue: vec![false; self.in_queue.len()],
            counters: self.counters,
        }
    }

    // ---- internals ------------------------------------------------------

    /// Full rebuild: replay the surviving steps in performance order,
    /// compacting dead rows, dead columns, and stale indices away. The
    /// one batch-cost operation; counted in
    /// [`EngineCounters::rebuilds`].
    fn rebuild(&mut self) {
        self.counters.rebuilds += 1;
        self.needs_rebuild = false;
        let live: Vec<Step> = (0..self.steps.len())
            .filter(|&v| !self.dead[v])
            .map(|v| self.steps[v])
            .collect();
        self.txns.clear();
        self.local.clear();
        self.steps.clear();
        self.step_txn.clear();
        self.step_seq.clear();
        self.txn_steps.clear();
        self.bds.clear();
        self.m.clear();
        self.dependents.clear();
        self.dead.clear();
        self.dead_count = 0;
        self.entity_rows.clear();
        self.topo.reset();
        for step in live {
            let replay = self.apply_inner(step);
            debug_assert!(
                replay.is_ok(),
                "replaying an acyclic live history cannot create a cycle"
            );
            self.journal.clear();
        }
    }

    fn apply_inner(&mut self, step: Step) -> Result<(), Cycle> {
        let lt = match self.local.get(step.txn.0) {
            Some(lt) => lt as usize,
            None => {
                let lt = self.txns.len();
                self.txns.push(step.txn);
                self.local.insert(step.txn.0, lt as u32);
                self.txn_steps.push(Vec::new());
                self.bds
                    .push(BreakpointDescription::atomic(self.nest.k(), 0));
                for row in &mut self.m {
                    row.push(NONE);
                }
                self.journal.push(Op::NewTxn);
                lt
            }
        };
        let s = self.txn_steps[lt].len();
        debug_assert_eq!(
            step.seq as usize, s,
            "steps must arrive in per-transaction order"
        );
        let w = self.steps.len();
        self.steps.push(step);
        self.step_txn.push(lt);
        self.step_seq.push(s);
        self.txn_steps[lt].push(w);
        self.m.push(vec![NONE; self.txns.len()]);
        self.dependents.push(BitSet::default());
        self.dead.push(false);
        self.topo.ensure_nodes(w + 1);
        let e = step.entity.index();
        if e >= self.entity_rows.len() {
            self.entity_rows.resize_with(e + 1, Vec::new);
        }
        self.entity_rows[e].push(w as u32);
        self.journal.push(Op::NewRow);

        // Refresh the transaction's breakpoint description over its grown
        // subsequence (§6 compatibility: only the last segment can have
        // changed, which the trigger seeding below relies on).
        let sub: Vec<Step> = self.txn_steps[lt].iter().map(|&i| self.steps[i]).collect();
        let bd = self.spec.describe(step.txn, &sub);
        debug_assert_eq!(bd.k(), self.nest.k(), "spec depth must match nest");
        debug_assert_eq!(bd.step_count(), s + 1);
        let old = std::mem::replace(&mut self.bds[lt], bd);
        self.journal.push(Op::BdChanged { txn: lt, old });

        // Base relation seeds: intra predecessor and last live step on
        // the same entity (mirrors Execution::dependency_graph).
        let prev = if s > 0 {
            let p = self.txn_steps[lt][s - 1];
            self.raise(w, lt, (s - 1) as i64)?;
            Some(p)
        } else {
            None
        };
        if let Some(u) = self.last_live_on_entity(step.entity, w) {
            let tu = self.step_txn[u];
            let su = self.step_seq[u] as i64;
            if self.m[w][tu] < su {
                self.raise(w, tu, su)?;
            }
        }

        // Worklist seeds: the new row, plus every row whose frontier sat
        // at the previous end of this transaction's last segment (they
        // are exactly the topo successors of the previous step).
        self.push_queue(w);
        if let Some(p) = prev {
            let succ: Vec<u32> = self.topo.successors(p as u32).to_vec();
            for v in succ {
                self.push_queue(v as usize);
            }
        }
        self.drain_queue()
    }

    /// Last live arena row touching `entity`, excluding `w` itself.
    fn last_live_on_entity(&self, entity: EntityId, w: usize) -> Option<usize> {
        let rows = self.entity_rows.get(entity.index())?;
        rows.iter()
            .rev()
            .map(|&r| r as usize)
            .find(|&r| r != w && !self.dead[r])
    }

    /// Raises `m[v][col]` to `new_s`, maintaining the topo mirror: the
    /// superseded frontier edge is dropped (the pair it encoded is
    /// implied by the new edge plus the intra chain) and the new edge
    /// inserted. A rejected insertion *is* the closure cycle.
    fn raise(&mut self, v: usize, col: usize, new_s: i64) -> Result<(), Cycle> {
        let old = self.m[v][col];
        debug_assert!(new_s > old);
        self.journal.push(Op::Frontier {
            row: v as u32,
            col: col as u32,
            old,
        });
        self.m[v][col] = new_s;
        let u_new = self.txn_steps[col][new_s as usize];
        if u_new == v {
            // The step would precede itself (m[v][tv] = seq(v)).
            return Err(Cycle(vec![v as u32]));
        }
        if old != NONE {
            let u_old = self.txn_steps[col][old as usize];
            if u_old != v && self.topo.remove_edge(u_old as u32, v as u32) {
                self.journal.push(Op::EdgeRemoved {
                    from: u_old as u32,
                    to: v as u32,
                });
            }
        }
        match self.topo.add_edge(u_new as u32, v as u32) {
            Ok(true) => {
                self.journal.push(Op::EdgeInserted {
                    from: u_new as u32,
                    to: v as u32,
                });
                self.counters.edges_inserted += 1;
                Ok(())
            }
            Ok(false) => Ok(()),
            Err(cycle) => Err(cycle),
        }
    }

    fn push_queue(&mut self, v: usize) {
        if v >= self.in_queue.len() {
            self.in_queue.resize(v + 1, false);
        }
        if !std::mem::replace(&mut self.in_queue[v], true) {
            self.queue.push_back(v as u32);
        }
    }

    fn drain_queue(&mut self) -> Result<(), Cycle> {
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            self.in_queue[v] = false;
            if v >= self.steps.len() || self.dead[v] {
                continue; // stale trigger from a rolled-back or evicted row
            }
            self.counters.rows_touched += 1;
            match self.process(v) {
                Ok(false) => {}
                Ok(true) => {
                    // The row grew: re-run it (pending lifts) and everyone
                    // who pulled it.
                    self.push_queue(v);
                    let deps = std::mem::take(&mut self.dependents[v]);
                    for d in deps.iter() {
                        self.push_queue(d);
                    }
                    self.dependents[v] = deps;
                }
                Err(cycle) => {
                    self.queue.clear();
                    self.in_queue.iter_mut().for_each(|f| *f = false);
                    return Err(cycle);
                }
            }
        }
        Ok(())
    }

    /// One pass of the closure rules over row `v` (the batch fixpoint's
    /// inner loop). Returns whether the row grew.
    fn process(&mut self, v: usize) -> Result<bool, Cycle> {
        let tv = self.step_txn[v];
        let sv = self.step_seq[v];
        let tcount = self.txns.len();
        let mut changed = false;
        for t in 0..tcount {
            let s = self.m[v][t];
            if s == NONE {
                continue;
            }
            if t == tv {
                // Own transaction: keep the row monotone along the intra
                // chain. (A frontier at or past v itself is impossible
                // here — `raise` rejects it as a cycle.)
                if sv > 0 {
                    let u = self.txn_steps[t][sv - 1];
                    changed |= self.union_from(v, u)?;
                }
                continue;
            }
            // Condition (b): lift the frontier to its segment end at
            // level(t, tv).
            let level = self.nest.level(self.txns[t], self.txns[tv]);
            let end = self.bds[t].segment_end(level, s as usize) as i64;
            if end > s {
                self.raise(v, t, end)?;
                changed = true;
            }
            // Transitivity through t's frontier step.
            let u = self.txn_steps[t][end as usize];
            changed |= self.union_from(v, u)?;
        }
        Ok(changed)
    }

    /// `m[v] |= m[u]` pointwise, registering `v` as a dependent of `u`.
    fn union_from(&mut self, v: usize, u: usize) -> Result<bool, Cycle> {
        if self.dependents[u].capacity() <= v {
            self.dependents[u].grow(self.steps.len());
        }
        self.dependents[u].insert(v);
        let mut changed = false;
        for t in 0..self.txns.len() {
            let uw = self.m[u][t];
            if uw > self.m[v][t] {
                self.raise(v, t, uw)?;
                changed = true;
            }
        }
        Ok(changed)
    }

    /// Translates a topo cycle (arena rows) into stable step identities.
    fn witness_from(&self, cycle: &Cycle) -> CycleWitness {
        let steps: Vec<(TxnId, u32)> = cycle
            .nodes()
            .iter()
            .map(|&r| {
                let r = r as usize;
                (self.txns[self.step_txn[r]], self.step_seq[r] as u32)
            })
            .collect();
        let mut txns: Vec<TxnId> = steps.iter().map(|&(t, _)| t).collect();
        txns.sort_unstable_by_key(|t| t.0);
        txns.dedup();
        CycleWitness { steps, txns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closure::CoherentClosure;
    use crate::spec::{AtomicSpec, ExecContext, FreeSpec};
    use std::collections::HashMap;

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    /// A positional per-transaction breakpoint spec usable on prefixes
    /// (FixedSpec asserts exact lengths and so cannot drive an engine).
    #[derive(Clone)]
    struct PrefixSpec {
        k: usize,
        /// txn -> mid-level breakpoint positions, per mid level.
        mids: HashMap<u32, Vec<Vec<usize>>>,
    }

    impl BreakpointSpecification for PrefixSpec {
        fn k(&self) -> usize {
            self.k
        }

        fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
            let n = steps.len();
            match self.mids.get(&t.0) {
                Some(mids) => {
                    let clipped: Vec<Vec<usize>> = mids
                        .iter()
                        .map(|level| level.iter().copied().filter(|&p| p < n).collect())
                        .collect();
                    BreakpointDescription::from_mid_levels(self.k, n, &clipped).unwrap()
                }
                None => BreakpointDescription::atomic(self.k, n),
            }
        }
    }

    /// Asserts the engine (fed step by step) agrees with the batch
    /// closure on every acyclic prefix, and that a rejected step is
    /// exactly a batch-cyclic prefix. Returns how many steps were
    /// accepted.
    fn check_against_batch(
        nest: &Nest,
        spec: &(impl BreakpointSpecification + Clone),
        order: &[(u32, u32, u32)],
    ) -> usize {
        let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
        let mut accepted: Vec<Step> = Vec::new();
        let mut blocked: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for &(t, s, x) in order {
            if blocked.contains(&t) {
                // A real scheduler would defer or abort; for equivalence
                // checking, a rejected transaction stops contributing
                // (its seq chain is broken).
                continue;
            }
            let candidate = step(t, s, x);
            let mut with: Vec<Step> = accepted.clone();
            with.push(candidate);
            let exec = Execution::new(with).unwrap();
            let ctx = ExecContext::new(&exec, nest, spec).unwrap();
            let batch = CoherentClosure::compute(&ctx);
            match engine.apply_step(candidate) {
                Ok(()) => {
                    engine.commit_step();
                    assert!(
                        batch.is_partial_order(),
                        "engine accepted a step the batch closure rejects"
                    );
                    accepted.push(candidate);
                    assert_engine_matches(&engine, &ctx, &batch);
                }
                Err(witness) => {
                    blocked.insert(t);
                    assert!(
                        !batch.is_partial_order(),
                        "engine rejected a step the batch closure accepts"
                    );
                    assert!(!witness.txns.is_empty());
                    // The engine rolled back: it must still match the
                    // batch closure of the accepted prefix.
                    let exec = Execution::new(accepted.clone()).unwrap();
                    let ctx = ExecContext::new(&exec, nest, spec).unwrap();
                    let batch = CoherentClosure::compute(&ctx);
                    assert_engine_matches(&engine, &ctx, &batch);
                }
            }
        }
        accepted.len()
    }

    /// Frontier-for-frontier comparison keyed by stable identities
    /// (engine columns and batch locals can be ordered differently).
    fn assert_engine_matches<S: BreakpointSpecification>(
        engine: &ClosureEngine<S>,
        ctx: &ExecContext<'_>,
        batch: &CoherentClosure,
    ) {
        assert!(batch.is_partial_order());
        // Map (TxnId, seq) -> batch global index.
        let mut batch_of: HashMap<(u32, u32), usize> = HashMap::new();
        for v in 0..ctx.n() {
            let t = ctx.txn_id(ctx.txn_of(v));
            batch_of.insert((t.0, ctx.seq_of(v) as u32), v);
        }
        let mut live = 0;
        for row in 0..engine.steps.len() {
            if !engine.is_live(row) {
                continue;
            }
            live += 1;
            let key = (
                engine.txn_id(engine.txn_of(row)).0,
                engine.seq_of(row) as u32,
            );
            let bv = *batch_of
                .get(&key)
                .expect("live engine row missing in batch");
            let bf = batch.frontier(bv);
            for (col, &ef) in engine.frontier(row).iter().enumerate() {
                let t = engine.txn_id(col);
                // Find the batch column for this TxnId, if any.
                let bcol = (0..ctx.txn_count()).find(|&c| ctx.txn_id(c) == t);
                match bcol {
                    Some(c) => {
                        assert_eq!(
                            ef,
                            i64::from(bf[c]),
                            "frontier mismatch at step {key:?} column {t}"
                        )
                    }
                    None => assert_eq!(ef, NONE, "engine frontier into absent txn {t}"),
                }
            }
        }
        assert_eq!(live, ctx.n(), "live row count != batch steps");
    }

    #[test]
    fn agrees_on_serializable_pattern() {
        let nest = Nest::flat(2);
        let n = check_against_batch(
            &nest,
            &AtomicSpec { k: 2 },
            &[(0, 0, 7), (0, 1, 8), (1, 0, 7), (1, 1, 8)],
        );
        assert_eq!(n, 4);
    }

    #[test]
    fn rejects_classic_weave_where_batch_is_cyclic() {
        let nest = Nest::flat(2);
        // The last step closes t0 -> t1 -> t0; the engine must reject
        // exactly it.
        let n = check_against_batch(
            &nest,
            &AtomicSpec { k: 2 },
            &[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)],
        );
        assert_eq!(n, 3);
    }

    #[test]
    fn free_breakpoints_admit_the_same_weave() {
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let n = check_against_batch(
            &nest,
            &FreeSpec { k: 3 },
            &[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)],
        );
        assert_eq!(n, 4);
    }

    #[test]
    fn paper_r3_cycle_is_caught_online() {
        // §4.2's R3 realization from closure.rs: cyclic at the end.
        let order = [
            (2u32, 0u32, 100u32),
            (0, 0, 100),
            (0, 1, 101),
            (1, 0, 102),
            (1, 1, 101),
            (0, 2, 102),
            (0, 3, 103),
            (1, 2, 104),
            (1, 3, 105),
            (2, 1, 106),
            (2, 2, 105),
            (2, 3, 107),
        ];
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![1]]).unwrap();
        let spec = PrefixSpec {
            k: 3,
            mids: [(0, vec![vec![2]]), (1, vec![vec![2]]), (2, vec![vec![2]])]
                .into_iter()
                .collect(),
        };
        let accepted = check_against_batch(&nest, &spec, &order);
        assert!(accepted < order.len(), "R3 must be rejected somewhere");
    }

    #[test]
    fn witness_names_the_conflicting_transactions() {
        let nest = Nest::flat(2);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let witness = engine.apply_step(step(0, 1, 8)).unwrap_err();
        assert_eq!(witness.txns, vec![TxnId(0), TxnId(1)]);
        assert!(witness.steps.len() >= 2);
        // Rolled back: the same step set minus the offender is intact.
        assert_eq!(engine.live_count(), 3);
        assert!(!engine.pending());
    }

    #[test]
    fn rollback_restores_pre_step_state_exactly() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest.clone(), AtomicSpec { k: 2 });
        let prefix = [step(0, 0, 1), step(1, 0, 1), step(1, 1, 2)];
        for st in prefix {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let edges_before = engine.topo.edge_count();
        let m_before = engine.m.clone();
        // A fresh transaction's step, applied then rolled back (defer).
        engine.apply_step(step(2, 0, 2)).unwrap();
        engine.rollback_step();
        assert_eq!(engine.topo.edge_count(), edges_before);
        assert_eq!(engine.m, m_before);
        assert_eq!(engine.txn_count(), 2, "tentative txn fully retracted");
        // And the same step can come back later.
        engine.apply_step(step(2, 0, 2)).unwrap();
        engine.commit_step();
        assert_eq!(engine.txn_count(), 3);
    }

    #[test]
    fn probe_pair_rolls_back_exactly_and_detects_commutation() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 1), step(1, 0, 2)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let m_before = engine.m.clone();
        let edges_before = engine.topo.edge_count();
        let sig_before = engine.relation_signature();
        // Disjoint entities: both orders grant with the same relation.
        assert!(engine.steps_commute(step(0, 1, 3), step(1, 1, 4)));
        // Shared entity: both orders grant but the relations differ
        // (the base edge flips), so the pair is dependent.
        assert!(!engine.steps_commute(step(0, 1, 5), step(1, 1, 5)));
        // Either way the probes left no trace.
        assert_eq!(engine.m, m_before);
        assert_eq!(engine.topo.edge_count(), edges_before);
        assert_eq!(engine.relation_signature(), sig_before);
        assert!(!engine.pending());
    }

    #[test]
    fn probe_pair_reports_denials_without_applying() {
        // Atomic t0 and t1 crossed on two entities: after the prefix,
        // t0's next step is denied outright in one order.
        let nest = Nest::flat(2);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let live_before = engine.live_count();
        let probe = engine.probe_pair(step(0, 1, 8), step(2, 0, 9));
        assert!(!probe.first_ok);
        assert!(!probe.second_ok);
        assert_eq!(probe.signature, None);
        // Second-position denial: the fresh step grants, then the weave
        // closes the cycle.
        let probe = engine.probe_pair(step(2, 0, 9), step(0, 1, 8));
        assert!(probe.first_ok);
        assert!(!probe.second_ok);
        assert_eq!(engine.live_count(), live_before);
        assert!(!engine.pending());
        // A denial in either order means dependence.
        assert!(!engine.steps_commute(step(0, 1, 8), step(2, 0, 9)));
    }

    #[test]
    fn snapshot_is_a_deep_independent_copy() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 1), step(1, 0, 1)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let mut copy = engine.snapshot();
        assert_eq!(copy.relation_signature(), engine.relation_signature());
        // Diverge the copy; the original must not move.
        copy.apply_step(step(0, 1, 2)).unwrap();
        copy.commit_step();
        assert_eq!(copy.live_count(), 3);
        assert_eq!(engine.live_count(), 2);
        assert_ne!(copy.relation_signature(), engine.relation_signature());
        // And the original still decides independently.
        engine.apply_step(step(1, 1, 2)).unwrap();
        engine.commit_step();
        assert_eq!(engine.live_count(), 3);
    }

    #[test]
    fn signature_is_arena_order_independent() {
        // The same step set reached through different schedules (and
        // hence different column creation orders) must sign identically
        // when the closure relations coincide: two disjoint txns.
        let nest = Nest::flat(3);
        let spec = AtomicSpec { k: 2 };
        let mut e1 = ClosureEngine::new(nest.clone(), spec);
        for st in [step(0, 0, 1), step(0, 1, 1), step(1, 0, 2), step(1, 1, 2)] {
            e1.apply_step(st).unwrap();
            e1.commit_step();
        }
        let mut e2 = ClosureEngine::new(nest, spec);
        for st in [step(1, 0, 2), step(1, 1, 2), step(0, 0, 1), step(0, 1, 1)] {
            e2.apply_step(st).unwrap();
            e2.commit_step();
        }
        assert_eq!(e1.relation_signature(), e2.relation_signature());
    }

    #[test]
    fn remove_txn_schedules_rebuild_and_unblocks() {
        let nest = Nest::flat(2);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [step(0, 0, 7), step(1, 0, 7), step(1, 1, 8)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        assert!(engine.apply_step(step(0, 1, 8)).is_err());
        // Abort t1: its steps leave; the rebuild happens lazily.
        engine.remove_txn(TxnId(1));
        assert!(engine.rebuild_pending());
        assert_eq!(engine.counters().rebuilds, 0);
        engine.apply_step(step(0, 1, 8)).unwrap();
        engine.commit_step();
        assert_eq!(engine.counters().rebuilds, 1);
        assert_eq!(engine.live_count(), 2);
        // t1 restarts from seq 0 as a fresh incarnation.
        engine.apply_step(step(1, 0, 9)).unwrap();
        engine.commit_step();
        assert_eq!(engine.live_count(), 3);
    }

    #[test]
    fn eviction_projects_without_rebuild() {
        let nest = Nest::flat(3);
        let mut engine = ClosureEngine::new(nest.clone(), AtomicSpec { k: 2 });
        // t0 fully before t1; t0 commits and is unreachable from t1's
        // future (t1 already saw it) — evictable.
        for st in [step(0, 0, 1), step(0, 1, 2), step(1, 0, 1), step(1, 1, 2)] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let rebuilds_before = engine.counters().rebuilds;
        let lt0 = engine.local_of(TxnId(0)).unwrap();
        engine.evict(lt0);
        assert_eq!(engine.counters().rebuilds, rebuilds_before);
        assert_eq!(engine.live_count(), 2);
        // Post-eviction state matches the batch closure of the filtered
        // execution.
        let exec = engine.execution();
        let spec = AtomicSpec { k: 2 };
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        let batch = CoherentClosure::compute(&ctx);
        assert_engine_matches(&engine, &ctx, &batch);
        // A step that would have conflicted with t0 no longer can: t2
        // reusing t0's entities against the execution order is now fine.
        engine.apply_step(step(2, 0, 1)).unwrap();
        engine.commit_step();
        assert_eq!(engine.counters().rebuilds, rebuilds_before);
    }

    #[test]
    fn grant_path_inserts_edges_without_rebuilds() {
        let nest = Nest::flat(4);
        let mut engine = ClosureEngine::new(nest, AtomicSpec { k: 2 });
        for st in [
            step(0, 0, 1),
            step(1, 0, 2),
            step(2, 0, 3),
            step(0, 1, 2),
            step(1, 1, 3),
            step(2, 1, 4),
        ] {
            engine.apply_step(st).unwrap();
            engine.commit_step();
        }
        let c = engine.counters();
        assert_eq!(c.rebuilds, 0, "pure grants must never rebuild");
        assert!(c.edges_inserted > 0);
        assert!(c.rows_touched >= 6);
    }

    #[test]
    fn randomized_engine_matches_batch() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        for _trial in 0..120 {
            let txns = rng.gen_range(2..4usize);
            let entities = rng.gen_range(1..4u32);
            let k = rng.gen_range(2..4usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..2u32)).collect())
                    .collect(),
            )
            .unwrap();
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..4)).collect();
            let total: u32 = lens.iter().sum();
            let mut order: Vec<(u32, u32, u32)> = Vec::new();
            let mut next_seq = vec![0u32; txns];
            for _ in 0..total {
                loop {
                    let t = rng.gen_range(0..txns);
                    if next_seq[t] < lens[t] {
                        order.push((t as u32, next_seq[t], rng.gen_range(0..entities)));
                        next_seq[t] += 1;
                        break;
                    }
                }
            }
            // Random refining mid-level breakpoints, positional.
            let mut mids: HashMap<u32, Vec<Vec<usize>>> = HashMap::new();
            for (t, &len) in lens.iter().enumerate() {
                let mut levels: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if rng.gen_bool(0.4) && !cur.contains(&p) {
                            cur.push(p);
                        }
                    }
                    cur.sort_unstable();
                    levels.push(cur.clone());
                    prev = cur;
                }
                mids.insert(t as u32, levels);
            }
            let spec = PrefixSpec { k, mids };
            check_against_batch(&nest, &spec, &order);
        }
    }

    #[test]
    fn randomized_with_aborts_matches_batch_after_rebuild() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _trial in 0..60 {
            let txns = rng.gen_range(2..5usize);
            let nest = Nest::flat(txns);
            let spec = AtomicSpec { k: 2 };
            let mut engine = ClosureEngine::new(nest.clone(), spec);
            let mut accepted: Vec<Step> = Vec::new();
            let mut next_seq = vec![0u32; txns];
            for _ in 0..rng.gen_range(4..16) {
                if rng.gen_bool(0.15) && !accepted.is_empty() {
                    // Abort a random present transaction.
                    let t = accepted[rng.gen_range(0..accepted.len())].txn;
                    engine.remove_txn(t);
                    accepted.retain(|s| s.txn != t);
                    next_seq[t.index()] = 0;
                    continue;
                }
                let t = rng.gen_range(0..txns);
                let candidate = step(t as u32, next_seq[t], rng.gen_range(0..3u32));
                match engine.apply_step(candidate) {
                    Ok(()) => {
                        engine.commit_step();
                        accepted.push(candidate);
                        next_seq[t] += 1;
                    }
                    Err(_) => {
                        // Deny: state unchanged; nothing to track.
                    }
                }
                // Cross-check the maintained state against batch.
                let exec = Execution::new(accepted.clone()).unwrap();
                let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
                let batch = CoherentClosure::compute(&ctx);
                if !engine.rebuild_pending() {
                    assert_engine_matches(&engine, &ctx, &batch);
                }
            }
        }
    }

    #[test]
    fn decide_batch_poisons_denied_transactions() {
        // Eight transactions of four steps over six entities in clashing
        // orders, randomly interleaved: genuine denials, with later
        // offers from the denied transactions still in the stream. Even
        // transactions are atomic; odd ones carry a level-2 breakpoint
        // after their first step, so both grant rules are in play.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xD57);
        let nest = Nest::new(3, (0..8).map(|t| vec![t % 3]).collect()).expect("depth k-2");
        let scripts: Vec<Vec<u32>> = (0..8)
            .map(|_| (0..4).map(|_| rng.gen_range(0..6u32)).collect())
            .collect();
        let mut next = [0u32; 8];
        let mut schedule = Vec::new();
        while schedule.len() < 32 {
            let t = rng.gen_range(0..8usize);
            if let Some(&x) = scripts[t].get(next[t] as usize) {
                schedule.push(step(t as u32, next[t], x));
                next[t] += 1;
            }
        }

        let spec = PrefixSpec {
            k: 3,
            mids: (1..8).step_by(2).map(|t| (t, vec![vec![1]])).collect(),
        };
        let mut engine = ClosureEngine::new(nest, spec);
        let verdicts = engine.decide_batch(&schedule);
        let mut first: HashMap<TxnId, &CycleWitness> = HashMap::new();
        let mut repeats = 0;
        for (s, v) in schedule.iter().zip(&verdicts) {
            let Err(w) = v else {
                assert!(!first.contains_key(&s.txn), "{s:?} granted after a denial");
                continue;
            };
            match first.get(&s.txn) {
                Some(w0) => {
                    assert_eq!((&w.steps, &w.txns), (&w0.steps, &w0.txns));
                    repeats += 1;
                }
                None => {
                    first.insert(s.txn, w);
                }
            }
        }
        assert!(repeats > 0, "a denied transaction must offer again");
        // Denied offers were never applied: the history is exactly the
        // granted offers, in offer order.
        let granted: Vec<Step> = schedule
            .iter()
            .zip(&verdicts)
            .filter_map(|(&s, v)| v.is_ok().then_some(s))
            .collect();
        assert_eq!(engine.execution().steps(), granted.as_slice());
    }
}
