//! Sharding the closure engine by entity partition.
//!
//! Lynch's model is explicitly distributed: asynchronous processes touch
//! disjoint entities (§2), and decisions about steps on disjoint
//! partitions should not have to contend on one shared engine. A
//! [`ShardedClosureEngine`] partitions entities across `N` shards
//! (entity `x` belongs to shard `x mod N`) and keeps one partition-local
//! [`ClosureEngine`] per *shard group*, so each decision pays frontier
//! and eviction cost proportional to its own partition's window, not the
//! global one.
//!
//! # Why groups, and why the exchange is exact
//!
//! Every closure-generating rule is local to the entities a transaction
//! touches: base edges need a shared entity, intra edges and
//! condition-(b) lifts stay inside one transaction, and transitivity
//! composes pairs that already exist. Hence, **as long as every
//! transaction's steps live inside one shard group, the global coherent
//! closure is exactly the disjoint union of the per-group closures** —
//! every cross-group frontier entry is `NONE`, and a candidate is cyclic
//! globally iff it is cyclic in its own group. That is the second
//! sharding invariant (see DESIGN.md), and it is what the differential
//! harness in `tests/sharded_engine_equivalence.rs` pins.
//!
//! A transaction is routed to the group owning its first step's shard.
//! When a later step crosses into a different group — which §6's
//! breakpoint discipline puts at a segment boundary, the only place a
//! transaction's entity set can grow across partitions — the two groups
//! *coalesce*: each side hands over its **ordered mailbox** (the
//! stamp-ordered log of its committed live steps), the merged log is
//! replayed stamp-ascending into a fresh engine via
//! [`ClosureEngine::absorb_step`], and the union group continues. The
//! replay cannot fail: the two histories are acyclic and entity-disjoint,
//! so their union is acyclic. Merging is monotone (groups only grow), so
//! a fully partitioned workload never merges and keeps per-partition
//! cost, while an adversarial workload degrades gracefully to one group
//! — i.e. to the unsharded engine.
//!
//! # Window eviction as a per-shard projection
//!
//! Eviction eligibility of a transaction in group `G` only changes when
//! `G`'s own state changes (a step committed in `G`, or a `G`
//! transaction aborted): cross-group closure pairs do not exist, so
//! reachability from live transactions decomposes per group. The engine
//! therefore tracks which groups were touched since the last
//! [`evict_unreachable`](ShardedClosureEngine::evict_unreachable) call
//! and projects only those — the same evictions, at the same decisions,
//! as a global scan.
//!
//! [`EngineBackend`] is the routing API the §6 controls program against:
//! one enum over the unsharded engine and the sharded one, so `MlaDetect`
//! / `MlaPrevent` stay monomorphic and the shard count is a runtime
//! choice.

use std::collections::{BTreeSet, HashMap};

use mla_model::{Execution, Step, TxnId};

use crate::engine::{ClosureEngine, CycleWitness, EngineCounters};
use crate::nest::Nest;
use crate::spec::BreakpointSpecification;

/// One shard group: a partition-local engine plus its ordered mailbox.
struct Group<S> {
    engine: ClosureEngine<S>,
    /// The group's ordered mailbox: its committed live steps, stamped
    /// with the global commit order — what the group hands over when it
    /// coalesces with another.
    log: Vec<(u64, Step)>,
    /// Counters inherited from engines retired by merges, so the sum
    /// over groups accounts for all work ever done.
    carry: EngineCounters,
}

/// A tentative step pending resolution.
struct Pending {
    group: usize,
    step: Step,
    /// Whether the transaction was new to the engine (its group routing
    /// only persists on commit).
    new_txn: bool,
}

/// An entity-partitioned closure engine: N shards, dynamically coalesced
/// groups, exact equivalence with the unsharded [`ClosureEngine`]. See
/// the [module docs](self).
pub struct ShardedClosureEngine<S> {
    nest: Nest,
    spec: S,
    shards: usize,
    /// Shard -> owning group slot (updated eagerly on merge).
    shard_group: Vec<usize>,
    /// Group slots; merged-away slots become `None`.
    groups: Vec<Option<Group<S>>>,
    /// Transaction -> its group (every transaction's steps live in
    /// exactly one group — the grouping invariant).
    txn_group: HashMap<TxnId, usize>,
    /// Global commit stamp, totally ordering steps across groups.
    stamp: u64,
    pending: Option<Pending>,
    /// Groups whose state changed since the last eviction pass.
    touched: BTreeSet<usize>,
    merges: u64,
}

impl<S: BreakpointSpecification + Clone> ShardedClosureEngine<S> {
    /// An empty sharded engine with `shards >= 1` entity partitions.
    pub fn new(nest: Nest, spec: S, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let groups = (0..shards)
            .map(|_| {
                Some(Group {
                    engine: ClosureEngine::new(nest.clone(), spec.clone()),
                    log: Vec::new(),
                    carry: EngineCounters::default(),
                })
            })
            .collect();
        ShardedClosureEngine {
            nest,
            spec,
            shards,
            shard_group: (0..shards).collect(),
            groups,
            txn_group: HashMap::new(),
            stamp: 0,
            pending: None,
            touched: BTreeSet::new(),
            merges: 0,
        }
    }

    /// Number of live (non-coalesced) groups.
    pub fn group_count(&self) -> usize {
        self.groups.iter().flatten().count()
    }

    /// How many group coalescences have happened.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    fn shard_of(&self, step: &Step) -> usize {
        step.entity.0 as usize % self.shards
    }

    fn group_mut(&mut self, g: usize) -> &mut Group<S> {
        self.groups[g].as_mut().expect("group slot is live")
    }

    /// Offers one step tentatively — the sharded mirror of
    /// [`ClosureEngine::apply_step`]: route the step to its entity's
    /// group (coalescing with the transaction's current group first if
    /// they differ), and apply it there.
    pub fn apply_step(&mut self, step: Step) -> Result<(), CycleWitness> {
        assert!(
            self.pending.is_none(),
            "previous tentative step not resolved"
        );
        let home = self.shard_group[self.shard_of(&step)];
        let new_txn = !self.txn_group.contains_key(&step.txn);
        let group = match self.txn_group.get(&step.txn).copied() {
            Some(g) if g != home => self.merge(g, home),
            Some(g) => g,
            None => home,
        };
        match self.group_mut(group).engine.apply_step(step) {
            Ok(()) => {
                self.pending = Some(Pending {
                    group,
                    step,
                    new_txn,
                });
                Ok(())
            }
            Err(witness) => Err(witness),
        }
    }

    /// Makes the pending step permanent and appends it to its group's
    /// mailbox.
    pub fn commit_step(&mut self) {
        let p = self.pending.take().expect("no pending step to commit");
        let stamp = self.stamp;
        self.stamp += 1;
        let g = self.group_mut(p.group);
        g.engine.commit_step();
        g.log.push((stamp, p.step));
        if p.new_txn {
            self.txn_group.insert(p.step.txn, p.group);
        }
        self.touched.insert(p.group);
    }

    /// Undoes the pending step. A merge the attempt triggered stays — it
    /// is semantics-preserving (the merged engine maintains the same
    /// union closure) and merging is monotone anyway.
    pub fn rollback_step(&mut self) {
        let p = self.pending.take().expect("no pending step to roll back");
        self.group_mut(p.group).engine.rollback_step();
    }

    /// Whether a tentative step is pending resolution.
    pub fn pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Mirrors [`ClosureEngine::performed`]: backfills observed values in
    /// the owning group's engine and mailbox.
    pub fn performed(&mut self, step: &Step) {
        let Some(&g) = self.txn_group.get(&step.txn) else {
            return;
        };
        let grp = self.group_mut(g);
        grp.engine.performed(step);
        if let Some(entry) = grp
            .log
            .iter_mut()
            .rev()
            .find(|(_, s)| s.txn == step.txn && s.seq == step.seq)
        {
            entry.1.observed = step.observed;
            entry.1.wrote = step.wrote;
        }
    }

    /// Mirrors [`ClosureEngine::remove_txn`] in the owning group; the
    /// transaction's mailbox entries leave with it (a restarted
    /// incarnation routes afresh by its first new step).
    pub fn remove_txn(&mut self, t: TxnId) {
        assert!(
            self.pending.is_none(),
            "resolve the pending step before removal"
        );
        let Some(g) = self.txn_group.remove(&t) else {
            return;
        };
        let grp = self.group_mut(g);
        grp.engine.remove_txn(t);
        grp.log.retain(|(_, s)| s.txn != t);
        self.touched.insert(g);
    }

    /// The per-shard eviction projection: runs
    /// [`ClosureEngine::evict_unreachable`] on exactly the groups whose
    /// state changed since the last call (commits and aborts mark their
    /// group; untouched groups cannot have changed eligibility — see the
    /// module docs). Returns the union of evicted transactions,
    /// ascending.
    pub fn evict_unreachable(&mut self, is_source: impl Fn(TxnId) -> bool) -> Vec<TxnId> {
        assert!(
            self.pending.is_none(),
            "resolve the pending step before eviction"
        );
        let scope: Vec<usize> = std::mem::take(&mut self.touched).into_iter().collect();
        let mut evicted: Vec<TxnId> = Vec::new();
        for g in scope {
            let grp = self.groups[g].as_mut().expect("touched groups are live");
            let out = grp.engine.evict_unreachable(&is_source);
            if !out.is_empty() {
                grp.log.retain(|(_, s)| !out.contains(&s.txn));
                for &t in &out {
                    self.txn_group.remove(&t);
                }
                evicted.extend(out);
            }
        }
        evicted.sort_unstable_by_key(|t| t.0);
        evicted
    }

    /// Closure predecessors of the pending step (see
    /// [`ClosureEngine::pending_predecessors`]): answered entirely by
    /// the one group holding the candidate — other groups' transactions
    /// cannot be related to it.
    pub fn pending_predecessors(&self) -> Vec<TxnId> {
        let p = self.pending.as_ref().expect("no pending step to probe");
        self.groups[p.group]
            .as_ref()
            .expect("pending group is live")
            .engine
            .pending_predecessors()
    }

    /// Schedules a rebuild in every group (the A1 ablation hook).
    pub fn force_rebuild(&mut self) {
        for g in self.groups.iter_mut().flatten() {
            g.engine.force_rebuild();
        }
    }

    /// Flushes scheduled rebuilds in every group.
    pub fn flush_rebuild(&mut self) {
        for g in self.groups.iter_mut().flatten() {
            g.engine.flush_rebuild();
        }
    }

    /// Whether any group has a rebuild scheduled.
    pub fn rebuild_pending(&self) -> bool {
        self.groups
            .iter()
            .flatten()
            .any(|g| g.engine.rebuild_pending())
    }

    /// Total live steps across groups.
    pub fn live_count(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.engine.live_count())
            .sum()
    }

    /// Work counters per live group (each including the counters of the
    /// engines it absorbed by merging). Their sum is the engine-wide
    /// total reported by [`counters`](Self::counters).
    pub fn shard_counters(&self) -> Vec<EngineCounters> {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.carry + *g.engine.counters())
            .collect()
    }

    /// Engine-wide work counters: the sum of
    /// [`shard_counters`](Self::shard_counters). `steps_applied` counts
    /// each offered decision exactly once (merge replays are not offers),
    /// so per-decision ratios stay comparable to the unsharded engine.
    pub fn counters(&self) -> EngineCounters {
        self.shard_counters().into_iter().sum()
    }

    /// The live steps across all groups as one [`Execution`], in global
    /// commit-stamp order — identical to the unsharded engine's arena
    /// order for the same decision sequence.
    pub fn execution(&self) -> Execution {
        let mut stamped: Vec<(u64, Step)> = self
            .groups
            .iter()
            .flatten()
            .flat_map(|g| g.log.iter().copied())
            .collect();
        stamped.sort_unstable_by_key(|&(stamp, _)| stamp);
        Execution::new(stamped.into_iter().map(|(_, s)| s).collect::<Vec<_>>())
            .expect("group mailboxes preserve per-transaction order")
    }

    /// Whether step `u` precedes step `v` in the maintained (union)
    /// closure, by stable identity. Steps in different groups are never
    /// related — the disjoint-union invariant.
    pub fn related_steps(&self, u: (TxnId, u32), v: (TxnId, u32)) -> bool {
        let (Some(&gu), Some(&gv)) = (self.txn_group.get(&u.0), self.txn_group.get(&v.0)) else {
            return false;
        };
        if gu != gv {
            return false;
        }
        let engine = &self.groups[gu].as_ref().expect("group slot is live").engine;
        let row = |(t, s): (TxnId, u32)| -> Option<usize> {
            let lt = engine.local_of(t)?;
            engine.steps_of(lt).get(s as usize).copied()
        };
        match (row(u), row(v)) {
            (Some(ru), Some(rv)) => engine.related(ru, rv),
            _ => false,
        }
    }

    /// Coalesces two groups: merge the stamped mailboxes, replay into a
    /// fresh engine, repoint shards and transactions. Returns the
    /// surviving slot.
    fn merge(&mut self, a: usize, b: usize) -> usize {
        debug_assert_ne!(a, b);
        let (dst, src) = (a.min(b), a.max(b));
        let gs = self.groups[src].take().expect("merging a live group");
        let gd = self.groups[dst].take().expect("merging into a live group");
        let carry = gd.carry + *gd.engine.counters() + gs.carry + *gs.engine.counters();
        // Merge the two stamp-ascending mailboxes.
        let mut log: Vec<(u64, Step)> = Vec::with_capacity(gd.log.len() + gs.log.len());
        let (mut i, mut j) = (0, 0);
        while i < gd.log.len() || j < gs.log.len() {
            let from_dst = j >= gs.log.len() || (i < gd.log.len() && gd.log[i].0 < gs.log[j].0);
            if from_dst {
                log.push(gd.log[i]);
                i += 1;
            } else {
                log.push(gs.log[j]);
                j += 1;
            }
        }
        let mut engine = ClosureEngine::new(self.nest.clone(), self.spec.clone());
        for &(_, s) in &log {
            engine
                .absorb_step(s)
                .expect("disjoint acyclic shard histories merge acyclically");
        }
        for g in self.shard_group.iter_mut() {
            if *g == src {
                *g = dst;
            }
        }
        for g in self.txn_group.values_mut() {
            if *g == src {
                *g = dst;
            }
        }
        if self.touched.remove(&src) {
            self.touched.insert(dst);
        }
        self.groups[dst] = Some(Group { engine, log, carry });
        self.merges += 1;
        dst
    }
}

/// A placeholder with no producer: every closure backend is serial, so
/// no engine reports worker-pool statistics. It exists only because the
/// `parallel_stats` forwarder in `perfbench/src/adapter.rs` names it;
/// it goes together with that forwarder and
/// `mla_sim::Control::parallel_stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParallelStats;

/// The engine-routing API the §6 controls program against: either one
/// global [`ClosureEngine`] or a [`ShardedClosureEngine`], behind one
/// monomorphic surface. The two are exactly equivalent decision for
/// decision (`tests/sharded_engine_equivalence.rs` is the oracle); the
/// sharded variant additionally reports per-shard counters.
// One backend exists per control, never in a collection, so the size
// spread between the inline engines is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum EngineBackend<S> {
    /// One global engine (the PR-1 behavior).
    Unsharded(ClosureEngine<S>),
    /// The entity-partitioned engine.
    Sharded(ShardedClosureEngine<S>),
}

impl<S: BreakpointSpecification + Clone> EngineBackend<S> {
    /// An unsharded backend.
    pub fn unsharded(nest: Nest, spec: S) -> Self {
        EngineBackend::Unsharded(ClosureEngine::new(nest, spec))
    }

    /// `shards == 0` selects the unsharded engine, otherwise the sharded
    /// one — the constructor controls expose as a runtime knob.
    pub fn with_shards(nest: Nest, spec: S, shards: usize) -> Self {
        if shards == 0 {
            Self::unsharded(nest, spec)
        } else {
            EngineBackend::Sharded(ShardedClosureEngine::new(nest, spec, shards))
        }
    }

    /// See [`ClosureEngine::apply_step`].
    pub fn apply_step(&mut self, step: Step) -> Result<(), CycleWitness> {
        match self {
            EngineBackend::Unsharded(e) => e.apply_step(step),
            EngineBackend::Sharded(e) => e.apply_step(step),
        }
    }

    /// See [`ClosureEngine::commit_step`].
    pub fn commit_step(&mut self) {
        match self {
            EngineBackend::Unsharded(e) => e.commit_step(),
            EngineBackend::Sharded(e) => e.commit_step(),
        }
    }

    /// See [`ClosureEngine::rollback_step`].
    pub fn rollback_step(&mut self) {
        match self {
            EngineBackend::Unsharded(e) => e.rollback_step(),
            EngineBackend::Sharded(e) => e.rollback_step(),
        }
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

    /// See [`ClosureEngine::performed`].
    pub fn performed(&mut self, step: &Step) {
        match self {
            EngineBackend::Unsharded(e) => e.performed(step),
            EngineBackend::Sharded(e) => e.performed(step),
        }
    }

    /// See [`ClosureEngine::remove_txn`].
    pub fn remove_txn(&mut self, t: TxnId) {
        match self {
            EngineBackend::Unsharded(e) => e.remove_txn(t),
            EngineBackend::Sharded(e) => e.remove_txn(t),
        }
    }

    /// See [`ClosureEngine::evict_unreachable`] /
    /// [`ShardedClosureEngine::evict_unreachable`].
    pub fn evict_unreachable(&mut self, is_source: impl Fn(TxnId) -> bool) -> Vec<TxnId> {
        match self {
            EngineBackend::Unsharded(e) => {
                let mut out = e.evict_unreachable(is_source);
                out.sort_unstable_by_key(|t| t.0);
                out
            }
            EngineBackend::Sharded(e) => e.evict_unreachable(is_source),
        }
    }

    /// See [`ClosureEngine::pending_predecessors`].
    pub fn pending_predecessors(&self) -> Vec<TxnId> {
        match self {
            EngineBackend::Unsharded(e) => e.pending_predecessors(),
            EngineBackend::Sharded(e) => e.pending_predecessors(),
        }
    }

    /// See [`ClosureEngine::force_rebuild`].
    pub fn force_rebuild(&mut self) {
        match self {
            EngineBackend::Unsharded(e) => e.force_rebuild(),
            EngineBackend::Sharded(e) => e.force_rebuild(),
        }
    }

    /// See [`ClosureEngine::flush_rebuild`].
    pub fn flush_rebuild(&mut self) {
        match self {
            EngineBackend::Unsharded(e) => e.flush_rebuild(),
            EngineBackend::Sharded(e) => e.flush_rebuild(),
        }
    }

    /// Total live steps.
    pub fn live_count(&self) -> usize {
        match self {
            EngineBackend::Unsharded(e) => e.live_count(),
            EngineBackend::Sharded(e) => e.live_count(),
        }
    }

    /// Total work counters (the sum over shards for the sharded engine).
    pub fn counters(&self) -> EngineCounters {
        match self {
            EngineBackend::Unsharded(e) => *e.counters(),
            EngineBackend::Sharded(e) => e.counters(),
        }
    }

    /// Per-shard work counters — a single entry for the unsharded
    /// engine, one per live group for the sharded one. Always sums to
    /// [`counters`](Self::counters).
    pub fn shard_counters(&self) -> Vec<EngineCounters> {
        match self {
            EngineBackend::Unsharded(e) => vec![*e.counters()],
            EngineBackend::Sharded(e) => e.shard_counters(),
        }
    }

    /// Group coalescences so far (0 for the unsharded engine).
    pub fn merge_count(&self) -> u64 {
        match self {
            EngineBackend::Unsharded(_) => 0,
            EngineBackend::Sharded(e) => e.merge_count(),
        }
    }

    /// The maintained live execution in performance order.
    pub fn execution(&self) -> Execution {
        match self {
            EngineBackend::Unsharded(e) => e.execution(),
            EngineBackend::Sharded(e) => e.execution(),
        }
    }

    /// Whether step `u` precedes step `v` in the maintained closure, by
    /// stable `(transaction, seq)` identity; `false` if either step is
    /// not live.
    pub fn related_steps(&self, u: (TxnId, u32), v: (TxnId, u32)) -> bool {
        match self {
            EngineBackend::Unsharded(e) => {
                let row = |(t, s): (TxnId, u32)| -> Option<usize> {
                    let lt = e.local_of(t)?;
                    e.steps_of(lt).get(s as usize).copied()
                };
                match (row(u), row(v)) {
                    (Some(ru), Some(rv)) => e.related(ru, rv),
                    _ => false,
                }
            }
            EngineBackend::Sharded(e) => e.related_steps(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointDescription;
    use crate::spec::AtomicSpec;
    use mla_model::EntityId;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    /// Drives the same step list through the unsharded engine and a
    /// sharded one, asserting verdict-by-verdict agreement, and returns
    /// both for further probing.
    fn drive(
        shards: usize,
        order: &[Step],
    ) -> (ClosureEngine<AtomicSpec>, ShardedClosureEngine<AtomicSpec>) {
        let nest = Nest::flat(8);
        let spec = AtomicSpec { k: 2 };
        let mut flat = ClosureEngine::new(nest.clone(), spec);
        let mut sharded = ShardedClosureEngine::new(nest, spec, shards);
        for &s in order {
            let a = flat.apply_step(s);
            let b = sharded.apply_step(s);
            assert_eq!(a.is_ok(), b.is_ok(), "verdict diverged at {s:?}");
            if a.is_ok() {
                flat.commit_step();
                sharded.commit_step();
            }
        }
        (flat, sharded)
    }

    #[test]
    fn disjoint_partitions_never_merge() {
        // Entities 0/2 and 1/3 split cleanly across 2 shards.
        let order = [
            step(0, 0, 0),
            step(1, 0, 1),
            step(0, 1, 2),
            step(1, 1, 3),
            step(2, 0, 0),
            step(3, 0, 1),
        ];
        let (flat, sharded) = drive(2, &order);
        assert_eq!(sharded.merge_count(), 0);
        assert_eq!(sharded.group_count(), 2);
        assert_eq!(sharded.live_count(), flat.live_count());
        assert_eq!(sharded.execution().steps(), flat.execution().steps());
        // Cross-partition steps are unrelated; in-partition conflicts are.
        assert!(sharded.related_steps((TxnId(0), 0), (TxnId(2), 0)));
        assert!(!sharded.related_steps((TxnId(0), 0), (TxnId(1), 0)));
    }

    #[test]
    fn crossing_step_coalesces_groups_exactly() {
        // t0 starts on shard 0, t1 on shard 1, then t0 crosses onto
        // entity 1: the groups must merge and the conflict be seen.
        let order = [step(0, 0, 0), step(1, 0, 1), step(0, 1, 1)];
        let (flat, sharded) = drive(2, &order);
        assert_eq!(sharded.merge_count(), 1);
        assert_eq!(sharded.group_count(), 1);
        assert_eq!(sharded.execution().steps(), flat.execution().steps());
        assert!(sharded.related_steps((TxnId(1), 0), (TxnId(0), 1)));
    }

    #[test]
    fn cycle_rejected_identically_after_merge() {
        // The classic weave across two entities on different shards:
        // rejection must survive coalescing.
        let order = [step(0, 0, 0), step(1, 0, 0), step(1, 1, 1)];
        let nest = Nest::flat(4);
        let spec = AtomicSpec { k: 2 };
        let mut flat = ClosureEngine::new(nest.clone(), spec);
        let mut sharded = ShardedClosureEngine::new(nest, spec, 2);
        for &s in &order {
            flat.apply_step(s).unwrap();
            flat.commit_step();
            sharded.apply_step(s).unwrap();
            sharded.commit_step();
        }
        let closing = step(0, 1, 1);
        let wf = flat.apply_step(closing).unwrap_err();
        let ws = sharded.apply_step(closing).unwrap_err();
        assert_eq!(wf.txns, ws.txns);
        assert!(!sharded.pending());
        assert_eq!(sharded.live_count(), flat.live_count());
    }

    #[test]
    fn one_shard_counters_match_unsharded_exactly() {
        let order = [
            step(0, 0, 0),
            step(1, 0, 1),
            step(0, 1, 1),
            step(2, 0, 2),
            step(1, 1, 2),
        ];
        let (flat, sharded) = drive(1, &order);
        assert_eq!(sharded.merge_count(), 0);
        assert_eq!(sharded.counters(), *flat.counters());
        assert_eq!(sharded.shard_counters(), vec![*flat.counters()]);
    }

    #[test]
    fn shard_counters_sum_to_total() {
        let order = [
            step(0, 0, 0),
            step(1, 0, 1),
            step(2, 0, 2),
            step(0, 1, 4),
            step(1, 1, 5),
            step(2, 1, 2),
        ];
        let (_, sharded) = drive(4, &order);
        let total: EngineCounters = sharded.shard_counters().into_iter().sum();
        assert_eq!(total, sharded.counters());
        assert_eq!(total.steps_applied, 6);
    }

    #[test]
    fn scoped_eviction_matches_global_rule() {
        // t0 committed and fully before t1 in shard 0; shard 1 untouched
        // by the abort machinery. The scoped pass must evict exactly what
        // a global scan would.
        let order = [
            step(0, 0, 0),
            step(0, 1, 2),
            step(1, 0, 0),
            step(1, 1, 2),
            step(2, 0, 1),
        ];
        let (mut flat, mut sharded) = drive(2, &order);
        let committed = |t: TxnId| t != TxnId(0);
        let mut ef = flat.evict_unreachable(committed);
        ef.sort_unstable_by_key(|t| t.0);
        let es = sharded.evict_unreachable(committed);
        assert_eq!(ef, vec![TxnId(0)]);
        assert_eq!(es, ef);
        assert_eq!(sharded.live_count(), flat.live_count());
    }

    #[test]
    fn rollback_leaves_routing_unpersisted() {
        let nest = Nest::flat(4);
        let spec = AtomicSpec { k: 2 };
        let mut sharded = ShardedClosureEngine::new(nest, spec, 2);
        sharded.apply_step(step(0, 0, 0)).unwrap();
        sharded.rollback_step();
        // The transaction never committed a step: it can route to a
        // different shard afresh.
        sharded.apply_step(step(0, 0, 1)).unwrap();
        sharded.commit_step();
        assert_eq!(sharded.merge_count(), 0);
        assert_eq!(sharded.live_count(), 1);
    }

    #[test]
    fn backend_routes_both_variants() {
        let nest = Nest::flat(4);
        let spec = AtomicSpec { k: 2 };
        for shards in [0usize, 2] {
            let mut b = EngineBackend::with_shards(nest.clone(), spec, shards);
            b.apply_step(step(0, 0, 0)).unwrap();
            b.commit_step();
            b.apply_step(step(1, 0, 0)).unwrap();
            assert_eq!(b.pending_predecessors(), vec![TxnId(0)]);
            b.commit_step();
            assert_eq!(b.live_count(), 2);
            assert_eq!(
                b.shard_counters().into_iter().sum::<EngineCounters>(),
                b.counters()
            );
            assert!(b.related_steps((TxnId(0), 0), (TxnId(1), 0)));
        }
    }

    /// Even transactions are atomic; odd ones carry a level-2
    /// breakpoint after their first step, so both grant rules are in
    /// play.
    #[derive(Clone)]
    struct PhaseSpec;

    impl BreakpointSpecification for PhaseSpec {
        fn k(&self) -> usize {
            3
        }

        fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
            let n = steps.len();
            let mid = if t.0 % 2 == 1 && n > 1 {
                vec![1]
            } else {
                vec![]
            };
            BreakpointDescription::from_mid_levels(3, n, &[mid]).expect("well-formed")
        }
    }

    /// Eight transactions of four steps over six entities in clashing
    /// orders, randomly interleaved: genuine denials, with later offers
    /// from the denied transactions still in the stream.
    fn conflicted_setup(seed: u64) -> (Nest, Vec<Step>) {
        let mut rng = SmallRng::seed_from_u64(seed);
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
        (nest, schedule)
    }

    #[test]
    fn decide_batch_poisons_denied_transactions() {
        let (nest, schedule) = conflicted_setup(0xD57);
        let mut runs = Vec::new();
        for shards in [0usize, 4] {
            let mut b = EngineBackend::with_shards(nest.clone(), PhaseSpec, shards);
            let verdicts = b.decide_batch(&schedule);
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
            // Denied offers were never applied: the history is exactly
            // the granted offers, in offer order.
            let granted: Vec<Step> = schedule
                .iter()
                .zip(&verdicts)
                .filter_map(|(&s, v)| v.is_ok().then_some(s))
                .collect();
            assert_eq!(b.execution().steps(), granted.as_slice());
            runs.push((
                verdicts.iter().map(Result::is_ok).collect::<Vec<_>>(),
                granted,
            ));
        }
        assert_eq!(runs[0], runs[1], "unsharded and sharded x4 diverged");
    }
}
