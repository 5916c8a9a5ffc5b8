//! Constructive Lemma 1: extending a coherent partial order to a coherent
//! total order (§5.1 and the Appendix).
//!
//! The Appendix proof is algorithmic and we implement it operationally.
//! Starting from the coherent closure `<(1)` of `<=_e`, stages `i = 2..=k`
//! each insert additional pairs:
//!
//! 1. partition all steps into segments — the equivalence classes of
//!    `B_t(i-1)` for each transaction `t`;
//! 2. build the segment digraph `G` (an edge `S1 -> S2` iff some step of
//!    `S1` precedes some step of `S2` in `<(i-1)`);
//! 3. condense `G` into strongly connected components and order the
//!    components topologically;
//! 4. add to the relation every pair `(α, β)` with `α`'s segment in an
//!    earlier component than `β`'s.
//!
//! After stage `k`, every pair of steps from distinct transactions is
//! comparable (every cross pair has `level < k`), so the relation is a
//! coherent *total* order — an execution in `C(π, 𝔅)` equivalent to the
//! input. That witness is what [`extend_to_total_order`] returns.
//!
//! The proof's Lemma 5 invariant — segments sharing a component belong to
//! `π(i)`-equivalent transactions — is asserted (in debug builds) at every
//! stage; it is what guarantees the added pairs never conflict with
//! coherence.
//!
//! Like [`crate::closure::CoherentClosure`], the relation is carried in
//! frontier-matrix form (`m[v * tcount + t]` = largest seq of `t` ordered
//! before `v`), which every stage preserves: the components earlier than a step's
//! component contain a *prefix* of each transaction's segments, because
//! each transaction's segment chain is monotone in component order.
//!
//! The input closure is read through [`FrontierView`], so the same
//! stages run over the batch fixpoint (`(&ExecContext, &CoherentClosure)`,
//! what [`crate::theorem::decide`] extends) and over a closure engine's
//! retired batch ([`crate::engine::RetiredBatch`], what `mla-check`
//! extends). [`Extender`] keeps every stage's buffers between calls.

use mla_graph::{DiGraph, Tarjan};
use mla_model::{Execution, Step};

use crate::breakpoints::BreakpointDescription;
use crate::closure::CoherentClosure;
use crate::spec::ExecContext;

/// What Lemma 1 reads of a coherent closure in frontier form: steps
/// `0..n` in execution order, transactions `0..txn_count`, and for each
/// step and transaction the frontier cell. Each transaction's breakpoint
/// description covers exactly its steps here, so its
/// [`step_count`](BreakpointDescription::step_count) is how many it has.
///
/// `(&ExecContext, &CoherentClosure)` is the batch closure of a whole
/// execution; a retired batch of a
/// [`ClosureEngine`](crate::ClosureEngine) is the engine's maintained
/// rows and columns of that batch, read in place.
pub trait FrontierView {
    /// The nest depth `k`.
    fn k(&self) -> usize;
    /// Number of steps.
    fn n(&self) -> usize;
    /// Number of transactions.
    fn txn_count(&self) -> usize;
    /// The recorded step `v`.
    fn step(&self, v: usize) -> Step;
    /// The transaction of step `v`.
    fn txn_of(&self, v: usize) -> usize;
    /// The sequence number of step `v` within its transaction.
    fn seq_of(&self, v: usize) -> usize;
    /// The breakpoint description of transaction `t` over its steps.
    fn bd(&self, t: usize) -> &BreakpointDescription;
    /// `level(t, t')` between transactions `a` and `b`.
    fn level(&self, a: usize, b: usize) -> usize;
    /// The largest seq of transaction `t` related strictly before step
    /// `v`, or `-1` if none.
    fn frontier(&self, v: usize, t: usize) -> i32;
    /// Whether the relation is a partial order (acyclic).
    fn is_partial_order(&self) -> bool;
}

/// The batch closure of the context's execution.
impl FrontierView for (&ExecContext<'_>, &CoherentClosure) {
    fn k(&self) -> usize {
        self.0.nest().k()
    }

    fn n(&self) -> usize {
        self.0.n()
    }

    fn txn_count(&self) -> usize {
        self.0.txn_count()
    }

    fn step(&self, v: usize) -> Step {
        self.0.exec().steps()[v]
    }

    fn txn_of(&self, v: usize) -> usize {
        self.0.txn_of(v)
    }

    fn seq_of(&self, v: usize) -> usize {
        self.0.seq_of(v)
    }

    fn bd(&self, t: usize) -> &BreakpointDescription {
        self.0.bd(t)
    }

    fn level(&self, a: usize, b: usize) -> usize {
        self.0.level(a, b)
    }

    fn frontier(&self, v: usize, t: usize) -> i32 {
        self.1.frontier(v)[t]
    }

    fn is_partial_order(&self) -> bool {
        self.1.is_partial_order()
    }
}

/// Errors from [`extend_to_total_order`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtendError {
    /// The input closure is not a partial order (the execution is not
    /// correctable): Lemma 1 does not apply.
    NotAPartialOrder,
}

impl std::fmt::Display for ExtendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtendError::NotAPartialOrder => {
                write!(
                    f,
                    "coherent closure is cyclic; no coherent extension exists"
                )
            }
        }
    }
}

impl std::error::Error for ExtendError {}

/// Lemma 1 with its buffers kept between stages and between calls: the
/// working frontier, the segment tables, the segment digraph and its
/// Tarjan state. A caller that extends one closure after another (the
/// checker, once per retired batch) allocates only when a closure
/// outgrows the largest before it.
#[derive(Clone, Debug, Default)]
pub struct Extender {
    /// The working frontier matrix `<(i)`, `n × tcount`, row-major.
    m: Vec<i32>,
    /// Steps laid out transaction by transaction, in chain order: `t`'s
    /// step `seq` has *slot* `offset[t] + seq`; `offset[tcount] = n`.
    offset: Vec<usize>,
    /// Per step: its transaction and its slot.
    txn: Vec<u32>,
    slot: Vec<u32>,
    /// Per slot: its step.
    step_at: Vec<u32>,
    /// Per slot: the stage's segment.
    seg_of: Vec<u32>,
    /// Segments are numbered transaction by transaction, in chain order:
    /// `t`'s are `seg_first[t]..seg_first[t + 1]`.
    seg_first: Vec<u32>,
    /// Per segment: its last seq.
    seg_end: Vec<u32>,
    /// Per segment: its component's position in topological order.
    seg_pos: Vec<u32>,
    /// Per transaction: a cursor into its segments.
    cursor: Vec<u32>,
    graph: DiGraph,
    scc: Tarjan,
    order: Vec<usize>,
}

impl Extender {
    /// Extends the coherent closure `view` to a coherent total order,
    /// returning its steps in witness order, in a buffer the next call
    /// reuses.
    pub fn total_order<V: FrontierView + ?Sized>(
        &mut self,
        view: &V,
    ) -> Result<&[usize], ExtendError> {
        if !view.is_partial_order() {
            return Err(ExtendError::NotAPartialOrder);
        }
        let n = view.n();
        let tcount = view.txn_count();
        self.order.clear();
        if tcount <= 1 {
            // One transaction's steps, in order, are their own witness.
            self.order.extend(0..n);
            return Ok(&self.order);
        }

        // Working frontier matrix <(i), initialized to <(1) = the closure.
        self.m.clear();
        self.m
            .extend((0..n).flat_map(|v| (0..tcount).map(move |t| view.frontier(v, t))));
        self.offset.clear();
        let mut at = 0;
        for t in 0..tcount {
            self.offset.push(at);
            at += view.bd(t).step_count();
        }
        self.offset.push(at);
        debug_assert_eq!(at, n, "the descriptions cover every step once");
        self.txn.clear();
        self.slot.clear();
        self.step_at.clear();
        self.step_at.resize(n, 0);
        for v in 0..n {
            let t = view.txn_of(v);
            let slot = self.offset[t] + view.seq_of(v);
            self.txn.push(t as u32);
            self.slot.push(slot as u32);
            self.step_at[slot] = v as u32;
        }
        self.seg_of.clear();
        self.seg_of.resize(n, 0);

        for stage in 2..=view.k() {
            self.stage(view, stage);
        }

        // The relation is now total: rank every step by the number of
        // steps ordered before it. In a total order the ranks are exactly
        // 0..n-1.
        self.order.resize(n, usize::MAX);
        for (v, row) in self.m.chunks_exact(tcount).enumerate() {
            let tv = self.txn[v] as usize;
            let before: i32 = row.iter().map(|&s| s + 1).sum::<i32>() - (row[tv] + 1);
            let r = self.slot[v] as usize - self.offset[tv] + before as usize;
            assert!(
                r < n && self.order[r] == usize::MAX,
                "Lemma 1 output is not a total order — input was not coherent"
            );
            self.order[r] = v;
        }
        Ok(&self.order)
    }

    /// Stage `stage` of the Appendix construction: adds the pairs between
    /// `B_t(stage - 1)` segments in different components of the segment
    /// digraph, folded into the working frontier.
    fn stage<V: FrontierView + ?Sized>(&mut self, view: &V, stage: usize) {
        let level = stage - 1;
        let tcount = view.txn_count();

        // Segment table: per txn, its B_t(level) segments in order, with
        // dense ids.
        self.seg_first.clear();
        self.seg_end.clear();
        for t in 0..tcount {
            self.seg_first.push(self.seg_end.len() as u32);
            let bd = view.bd(t);
            let mut start = 0;
            while start < bd.step_count() {
                let end = bd.segment_end(level, start);
                let id = self.seg_end.len() as u32;
                self.seg_end.push(end as u32);
                self.seg_of[self.offset[t] + start..=self.offset[t] + end].fill(id);
                start = end + 1;
            }
        }
        let seg_count = self.seg_end.len();
        self.seg_first.push(seg_count as u32);

        // Segment digraph: intra-transaction chains plus one edge per
        // frontier entry (the frontier subsumes all earlier steps of the
        // same transaction, whose segments chain into the frontier's).
        //
        // The steps of one segment raise the same edge many times; each
        // repeat is dropped in O(1), keeping first-insertion order (and so
        // Tarjan's numbering) without a set. Frontiers only grow along a
        // transaction's chain, and steps are visited in chain order, so
        // the edges into `target` from t arrive with nondecreasing source
        // segments: v's edge from t repeats an earlier one iff v's
        // predecessor in the same segment has its t-frontier in the same
        // source segment.
        self.graph.reset(seg_count);
        for t in 0..tcount {
            for id in self.seg_first[t] + 1..self.seg_first[t + 1] {
                self.graph.add_edge(id - 1, id);
            }
        }
        let (m, offset, seg_of) = (&self.m, &self.offset, &self.seg_of);
        for (v, row) in m.chunks_exact(tcount).enumerate() {
            let tv = self.txn[v] as usize;
            let slot = self.slot[v] as usize;
            let target = seg_of[slot];
            let pred = (slot > offset[tv] && seg_of[slot - 1] == target)
                .then(|| &m[self.step_at[slot - 1] as usize * tcount..][..tcount]);
            for (t, &s) in row.iter().enumerate() {
                if t == tv || s < 0 {
                    continue;
                }
                let source = seg_of[offset[t] + s as usize];
                if let Some(pred) = pred {
                    let ps = pred[t];
                    debug_assert!(ps <= s, "frontiers grow along a chain");
                    if ps >= 0 && seg_of[offset[t] + ps as usize] == source {
                        continue;
                    }
                }
                debug_assert!(!self.graph.has_edge(source, target));
                self.graph.add_edge(source, target);
            }
        }

        // Condense and order components. Tarjan numbers components in
        // reverse topological order (edges go from higher to lower ids),
        // so position = (count - 1 - id) increases along edges.
        let comps = self.scc.run(&self.graph);

        // Lemma 5: same-component segments belong to pi(stage)-equivalent
        // transactions. For a coherent input this always holds.
        #[cfg(debug_assertions)]
        for c in 0..comps as u32 {
            let txn_of = |s: u32| self.seg_first.partition_point(|&f| f <= s) - 1;
            for w in self.scc.members(c).windows(2) {
                let (ta, tb) = (txn_of(w[0]), txn_of(w[1]));
                debug_assert!(
                    view.level(ta, tb) >= stage,
                    "Lemma 5 violated at stage {stage}: segments of transactions \
                     {ta} and {tb} share a component",
                );
            }
        }

        // Per segment, its component's position. Positions are
        // nondecreasing along each transaction's chain.
        self.seg_pos.clear();
        self.seg_pos
            .extend(self.scc.comp_of().iter().map(|&c| (comps - 1) as u32 - c));

        // Add the cross-component pairs, folding them into the frontier:
        // for step v at component position p, each transaction t
        // contributes its latest segment strictly before p. Walking each
        // transaction's chain, p never decreases, so a cursor per t that
        // only moves forward finds that segment.
        for tv in 0..tcount {
            self.cursor.clear();
            self.cursor.extend_from_slice(&self.seg_first[..tcount]);
            for slot in self.offset[tv]..self.offset[tv + 1] {
                let p = self.seg_pos[self.seg_of[slot] as usize];
                let v = self.step_at[slot] as usize;
                let row = &mut self.m[v * tcount..][..tcount];
                for (t, cell) in row.iter_mut().enumerate() {
                    if t == tv {
                        continue;
                    }
                    let (first, last) = (self.seg_first[t], self.seg_first[t + 1]);
                    let mut at = self.cursor[t];
                    while at < last && self.seg_pos[at as usize] < p {
                        at += 1;
                    }
                    self.cursor[t] = at;
                    if at > first {
                        *cell = (*cell).max(self.seg_end[at as usize - 1] as i32);
                    }
                }
            }
        }
    }
}

/// Extends the coherent closure to a coherent total order, returning the
/// step indices in witness order. One [`Extender::total_order`] call on
/// fresh buffers.
pub fn extend_to_total_order<V: FrontierView + ?Sized>(
    view: &V,
) -> Result<Vec<usize>, ExtendError> {
    Extender::default().total_order(view).map(<[usize]>::to_vec)
}

/// Extends the closure and materializes the witness [`Execution`]: a
/// multilevel-atomic execution equivalent to the view's execution.
pub fn witness_execution<V: FrontierView + ?Sized>(view: &V) -> Result<Execution, ExtendError> {
    let order = extend_to_total_order(view)?;
    let steps = order.iter().map(|&v| view.step(v)).collect();
    Ok(Execution::new(steps).expect("witness preserves per-transaction step order"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomicity::is_multilevel_atomic;
    use crate::breakpoints::BreakpointDescription;
    use crate::nest::Nest;
    use crate::spec::{AtomicSpec, BreakpointSpecification, ExecContext, FixedSpec, FreeSpec};
    use mla_model::{EntityId, Execution, Step, TxnId};

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    fn exec(order: &[(u32, u32, u32)]) -> Execution {
        Execution::new(order.iter().map(|&(t, s, x)| step(t, s, x)).collect()).unwrap()
    }

    /// Full pipeline assertion: closure acyclic -> witness exists, is a
    /// permutation, is equivalent to the input, and is multilevel atomic.
    fn assert_witness_ok(
        e: &Execution,
        nest: &Nest,
        spec: &dyn BreakpointSpecification,
    ) -> Execution {
        let ctx = ExecContext::new(e, nest, spec).unwrap();
        let closure = CoherentClosure::compute(&ctx);
        assert!(closure.is_partial_order(), "expected correctable input");
        let w = witness_execution(&(&ctx, &closure)).unwrap();
        assert_eq!(w.len(), e.len());
        assert!(
            e.equivalent(&w),
            "witness not equivalent to input\n  input:   {e}\n  witness: {w}"
        );
        assert!(
            is_multilevel_atomic(&w, nest, spec).unwrap(),
            "witness not multilevel atomic: {w}"
        );
        w
    }

    #[test]
    fn serializable_input_yields_serial_witness_at_k2() {
        // Interleaved but serializable: the witness must be serial.
        let e = exec(&[(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)]);
        let nest = Nest::flat(2);
        let w = assert_witness_ok(&e, &nest, &AtomicSpec { k: 2 });
        assert!(w.is_serial());
    }

    #[test]
    fn conflicting_but_serializable_respects_conflict_order() {
        // t1 -> t0 on entity 5: witness must serialize t1 first.
        let e = exec(&[(1, 0, 5), (0, 0, 5), (1, 1, 6), (0, 1, 7)]);
        let nest = Nest::flat(2);
        let w = assert_witness_ok(&e, &nest, &AtomicSpec { k: 2 });
        assert!(w.is_serial());
        assert_eq!(w.steps()[0].txn, TxnId(1));
    }

    #[test]
    fn cyclic_closure_is_rejected() {
        let e = exec(&[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)]);
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        let closure = CoherentClosure::compute(&ctx);
        assert_eq!(
            extend_to_total_order(&(&ctx, &closure)).unwrap_err(),
            ExtendError::NotAPartialOrder
        );
    }

    #[test]
    fn free_spec_witness_can_remain_interleaved() {
        // Everything pi(2)-related with free breakpoints: the input order
        // itself is coherent, so the witness is equivalent (and the
        // identity reordering is acceptable).
        let e = exec(&[(0, 0, 7), (1, 0, 7), (0, 1, 8), (1, 1, 8)]);
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        assert_witness_ok(&e, &nest, &FreeSpec { k: 3 });
    }

    #[test]
    fn banking_phase_interleaving_witness() {
        // Transfers of different families with a level-2 breakpoint after
        // the withdrawal phase; an interleaving that is correctable but
        // not multilevel atomic must produce a reordered atomic witness.
        let nest = Nest::new(4, vec![vec![0, 0], vec![0, 1]]).unwrap();
        let bd = |n: usize| {
            let l2: Vec<usize> = if n > 2 { vec![2] } else { Vec::new() };
            BreakpointDescription::from_mid_levels(4, n, &[l2.clone(), l2]).unwrap()
        };
        // t0: w w d d (breakpoint after 2 steps); t1 same; disjoint
        // entities so every reordering is equivalent.
        let e = exec(&[
            (0, 0, 1),
            (1, 0, 11),
            (0, 1, 2),
            (1, 1, 12),
            (0, 2, 3),
            (1, 2, 13),
            (0, 3, 4),
            (1, 3, 14),
        ]);
        let spec = FixedSpec::new(4).set(TxnId(0), bd(4)).set(TxnId(1), bd(4));
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        assert!(
            crate::atomicity::check_multilevel_atomic(&ctx).is_err(),
            "the fine-grained weave itself is not atomic"
        );
        let w = assert_witness_ok(&e, &nest, &spec);
        // Witness interleaves only at phase boundaries.
        assert!(is_multilevel_atomic(&w, &nest, &spec).unwrap());
    }

    #[test]
    fn paper_5_1_example_two_coherent_total_orders() {
        // §5.1's example: R1's coherent extensions keep t3 last and order
        // the {t1, t2} segments. Our algorithm returns one of the two
        // coherent total orders the paper lists (which one depends on
        // tie-breaking); we verify it is coherent and equivalent.
        let order = [
            (0u32, 0u32, 0u32),
            (0, 1, 1),
            (1, 0, 2),
            (1, 1, 1), // (a12, a22)
            (1, 2, 4),
            (0, 2, 4), // (a23, a13)
            (0, 3, 5),
            (1, 3, 6),
            (2, 0, 5), // (a14, a31)
            (2, 1, 7),
            (2, 2, 6), // (a24, a33)
            (2, 3, 8),
        ];
        let e = exec(&order);
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![1]]).unwrap();
        let bd = |n: usize| BreakpointDescription::from_mid_levels(3, n, &[vec![2]]).unwrap();
        let spec = FixedSpec::new(3)
            .set(TxnId(0), bd(4))
            .set(TxnId(1), bd(4))
            .set(TxnId(2), bd(4));
        let w = assert_witness_ok(&e, &nest, &spec);
        // t3 (local t2) must come after both others: its steps conflict
        // into... in our realization t3 reads entities 5 and 6 after t0
        // and t1 wrote them, so it must be last in any coherent order.
        let last_four: Vec<TxnId> = w.steps()[8..].iter().map(|s| s.txn).collect();
        assert_eq!(last_four, vec![TxnId(2); 4]);
    }

    #[test]
    fn witness_is_stable_for_already_atomic_input() {
        // An input that is already multilevel atomic stays equivalent
        // (though not necessarily identical) after extension.
        let e = exec(&[(0, 0, 1), (0, 1, 2), (1, 0, 1), (1, 1, 3)]);
        let nest = Nest::flat(2);
        let w = assert_witness_ok(&e, &nest, &AtomicSpec { k: 2 });
        assert!(w.is_serial());
    }

    #[test]
    fn empty_execution_extends_trivially() {
        let e = Execution::empty();
        let nest = Nest::flat(1);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        let closure = CoherentClosure::compute(&ctx);
        let order = extend_to_total_order(&(&ctx, &closure)).unwrap();
        assert!(order.is_empty());
    }

    #[test]
    fn randomized_witness_pipeline() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        let mut correctable_seen = 0;
        for _ in 0..200 {
            let txns = rng.gen_range(2..4usize);
            let entities = rng.gen_range(1..5u32);
            let k = rng.gen_range(2..5usize);
            let nest = Nest::new(
                k,
                (0..txns)
                    .map(|_| (0..k - 2).map(|_| rng.gen_range(0..2u32)).collect())
                    .collect(),
            )
            .unwrap();
            let lens: Vec<u32> = (0..txns).map(|_| rng.gen_range(1..4)).collect();
            let total: u32 = lens.iter().sum();
            let mut next_seq = vec![0u32; txns];
            let mut order = Vec::new();
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
            let e = exec(&order);
            let mut spec = FixedSpec::new(k);
            for (t, &len) in lens.iter().enumerate() {
                let mut mid: Vec<Vec<usize>> = Vec::new();
                let mut prev: Vec<usize> = Vec::new();
                for _ in 0..k.saturating_sub(2) {
                    let mut cur = prev.clone();
                    for p in 1..len as usize {
                        if rng.gen_bool(0.5) && !cur.contains(&p) {
                            cur.push(p);
                        }
                    }
                    mid.push(cur.clone());
                    prev = cur;
                }
                spec = spec.set(
                    TxnId(t as u32),
                    BreakpointDescription::from_mid_levels(k, len as usize, &mid).unwrap(),
                );
            }
            let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
            let closure = CoherentClosure::compute(&ctx);
            if closure.is_partial_order() {
                correctable_seen += 1;
                let w = witness_execution(&(&ctx, &closure)).unwrap();
                assert!(e.equivalent(&w));
                assert!(is_multilevel_atomic(&w, &nest, &spec).unwrap());
            } else {
                assert_eq!(
                    extend_to_total_order(&(&ctx, &closure)).unwrap_err(),
                    ExtendError::NotAPartialOrder
                );
            }
        }
        assert!(
            correctable_seen > 20,
            "sampling should hit correctable cases"
        );
    }
}
