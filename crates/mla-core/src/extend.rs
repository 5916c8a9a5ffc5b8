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

use mla_graph::{tarjan, DiGraph};
use mla_model::Execution;

use crate::closure::CoherentClosure;
use crate::spec::ExecContext;

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

/// Extends the coherent closure to a coherent total order, returning the
/// global step indices in witness order.
pub fn extend_to_total_order(
    ctx: &ExecContext<'_>,
    closure: &CoherentClosure,
) -> Result<Vec<usize>, ExtendError> {
    if !closure.is_partial_order() {
        return Err(ExtendError::NotAPartialOrder);
    }
    let n = ctx.n();
    let tcount = ctx.txn_count();
    let k = ctx.nest().k();

    // Working frontier matrix <(i), initialized to <(1) = the closure.
    let mut m: Vec<i32> = (0..n)
        .flat_map(|v| closure.frontier(v).iter().copied())
        .collect();

    for stage in 2..=k {
        let level = stage - 1;

        // Segment table: per txn, its B_t(level) segments in order.
        // seg_of[t][seq] -> global segment id; seg ids are dense.
        let mut seg_of: Vec<Vec<usize>> = Vec::with_capacity(tcount);
        let mut seg_txn: Vec<usize> = Vec::new();
        let mut seg_end_seq: Vec<usize> = Vec::new();
        let mut txn_segs: Vec<Vec<usize>> = vec![Vec::new(); tcount];
        for t in 0..tcount {
            let len = ctx.steps_of(t).len();
            let mut of = vec![0usize; len];
            if len > 0 {
                for (start, end) in ctx.bd(t).segments(level) {
                    let id = seg_txn.len();
                    seg_txn.push(t);
                    seg_end_seq.push(end);
                    txn_segs[t].push(id);
                    for item in of.iter_mut().take(end + 1).skip(start) {
                        *item = id;
                    }
                }
            }
            seg_of.push(of);
        }
        let seg_count = seg_txn.len();

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
        let mut g = DiGraph::new(seg_count);
        for segs in &txn_segs {
            for w in segs.windows(2) {
                g.add_edge(w[0] as u32, w[1] as u32);
            }
        }
        for v in 0..n {
            let tv = ctx.txn_of(v);
            let sv = ctx.seq_of(v);
            let target = seg_of[tv][sv];
            let pred = (sv > 0 && seg_of[tv][sv - 1] == target).then(|| ctx.global_of(tv, sv - 1));
            for t in 0..tcount {
                if t == tv {
                    continue;
                }
                let s = m[v * tcount + t];
                if s < 0 {
                    continue;
                }
                let source = seg_of[t][s as usize];
                if let Some(p) = pred {
                    let ps = m[p * tcount + t];
                    debug_assert!(ps <= s, "frontiers grow along a chain");
                    if ps >= 0 && seg_of[t][ps as usize] == source {
                        continue;
                    }
                }
                debug_assert!(!g.has_edge(source as u32, target as u32));
                g.add_edge(source as u32, target as u32);
            }
        }

        // Condense and order components. Tarjan numbers components in
        // reverse topological order (edges go from higher to lower ids),
        // so position = (count - 1 - id) increases along edges.
        let cond = tarjan(&g);
        let comp_count = cond.len();
        let pos_of_comp = |c: u32| (comp_count - 1) as i64 - c as i64;

        // Lemma 5: same-component segments belong to pi(stage)-equivalent
        // transactions. For a coherent input this always holds.
        #[cfg(debug_assertions)]
        for members in &cond.members {
            for w in members.windows(2) {
                let (ta, tb) = (seg_txn[w[0] as usize], seg_txn[w[1] as usize]);
                debug_assert!(
                    ctx.level(ta, tb) >= stage,
                    "Lemma 5 violated at stage {stage}: segments of {} and {} share a component",
                    ctx.txn_id(ta),
                    ctx.txn_id(tb)
                );
            }
        }

        // Per transaction: (component position, segment end seq) per
        // segment, in segment order. Positions are nondecreasing along
        // the chain, so "latest segment with position < p" is a suffix
        // boundary found by scanning (or binary search; chains are short).
        let seg_pos: Vec<i64> = (0..seg_count)
            .map(|s| pos_of_comp(cond.comp_of[s]))
            .collect();

        // Add the cross-component pairs, folding them into the frontier:
        // for step v at component position p, each transaction t
        // contributes its latest segment strictly before p.
        for v in 0..n {
            let tv = ctx.txn_of(v);
            let sv = ctx.seq_of(v);
            let p = seg_pos[seg_of[tv][sv]];
            for t in 0..tcount {
                if t == tv {
                    continue;
                }
                // Find the last segment of t with position < p.
                let segs = &txn_segs[t];
                let idx = segs.partition_point(|&s| seg_pos[s] < p);
                if idx > 0 {
                    let s = segs[idx - 1];
                    let end = seg_end_seq[s] as i32;
                    let e = &mut m[v * tcount + t];
                    *e = (*e).max(end);
                }
            }
        }
    }

    // The relation is now total: rank every step by the number of steps
    // ordered before it. In a total order the ranks are exactly 0..n-1.
    let mut rank: Vec<(usize, usize)> = (0..n)
        .map(|v| {
            let tv = ctx.txn_of(v);
            let mut r = ctx.seq_of(v);
            for t in 0..tcount {
                if t != tv {
                    r += (m[v * tcount + t] + 1) as usize;
                }
            }
            (r, v)
        })
        .collect();
    rank.sort_unstable();
    debug_assert!(
        rank.iter().enumerate().all(|(i, &(r, _))| i == r),
        "Lemma 1 output is not a total order — input was not coherent"
    );
    Ok(rank.into_iter().map(|(_, v)| v).collect())
}

/// Extends the closure and materializes the witness [`Execution`]: a
/// multilevel-atomic execution equivalent to the context's execution.
pub fn witness_execution(
    ctx: &ExecContext<'_>,
    closure: &CoherentClosure,
) -> Result<Execution, ExtendError> {
    let order = extend_to_total_order(ctx, closure)?;
    let steps = order.iter().map(|&v| ctx.exec().steps()[v]).collect();
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
        let w = witness_execution(&ctx, &closure).unwrap();
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
            extend_to_total_order(&ctx, &closure).unwrap_err(),
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
        let order = extend_to_total_order(&ctx, &closure).unwrap();
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
                let w = witness_execution(&ctx, &closure).unwrap();
                assert!(e.equivalent(&w));
                assert!(is_multilevel_atomic(&w, &nest, &spec).unwrap());
            } else {
                assert_eq!(
                    extend_to_total_order(&ctx, &closure).unwrap_err(),
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
