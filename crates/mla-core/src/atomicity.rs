//! Membership in `C(π, 𝔅)`: is an execution multilevel atomic? (§4.3)
//!
//! An execution `e` is multilevel atomic for nest `π` and specification `𝔅`
//! iff its total step order is *coherent* for `π` and the derived
//! interleaving specification `𝔍(𝔅, e)`. Coherence condition (a) — the
//! order contains each transaction's own step order — holds for any valid
//! execution; condition (b) reduces, for a total order, to a local check:
//!
//! > whenever a step `β` of `t'` is performed, every other transaction `t`
//! > must currently sit at the end of one of its `B_t(level(t,t'))`
//! > segments — i.e. `t`'s most recent step must be a segment end at the
//! > level `t` shares with `t'`.
//!
//! (If `t`'s latest step `α` were mid-segment, the segment's next step
//! `α'` would follow `β` in the order even though condition (b) demands
//! `(α, β) ∈ R ⟹ (α', β) ∈ R` — with `R` total, that means `α'` *before*
//! `β` — a contradiction.)

use std::collections::BTreeSet;

use mla_model::{Criterion, Execution, TxnId};

use crate::nest::Nest;
use crate::spec::{BreakpointSpecification, ContextError, ExecContext};

/// A witness that an execution is not multilevel atomic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicityViolation {
    /// Global index of the interrupting step `β`.
    pub at: usize,
    /// The transaction performing `β`.
    pub interrupter: TxnId,
    /// The transaction that was interrupted mid-segment.
    pub interrupted: TxnId,
    /// Global index of the interrupted transaction's most recent step `α`.
    pub last_step: usize,
    /// The level `level(t, t')` whose segment was violated.
    pub level: usize,
    /// The sequence number at which `α`'s segment actually ends.
    pub segment_end_seq: usize,
}

impl std::fmt::Display for AtomicityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {} of {} interrupts {} mid-segment: its last step (index {}) \
             is not at a level-{} breakpoint (segment runs to seq {})",
            self.at,
            self.interrupter,
            self.interrupted,
            self.last_step,
            self.level,
            self.segment_end_seq
        )
    }
}

/// Checks whether the context's execution is multilevel atomic, returning
/// the first violation found (in execution order) otherwise.
///
/// Only a transaction that has started and not finished can be
/// interrupted: a finished one's last step ends every segment. So each
/// step is checked against the *active* transactions only, in ascending
/// local order, which reports the same first violation as a scan over
/// every transaction at a cost of O(steps × concurrent transactions).
pub fn check_multilevel_atomic(ctx: &ExecContext<'_>) -> Result<(), AtomicityViolation> {
    // last[t] = global index of local txn t's most recent step.
    let mut last: Vec<usize> = vec![0; ctx.txn_count()];
    let mut active: BTreeSet<usize> = BTreeSet::new();
    for j in 0..ctx.n() {
        let tj = ctx.txn_of(j);
        for &t in active.range(..tj).chain(active.range(tj + 1..)) {
            interrupts(ctx, j, t, last[t])?;
        }
        last[tj] = j;
        if ctx.steps_of(tj).last() == Some(&j) {
            active.remove(&tj);
        } else {
            active.insert(tj);
        }
    }
    Ok(())
}

/// The violation, if step `j` interrupts local transaction `t` — whose
/// most recent step is `alpha` — mid-segment.
fn interrupts(
    ctx: &ExecContext<'_>,
    j: usize,
    t: usize,
    alpha: usize,
) -> Result<(), AtomicityViolation> {
    let tj = ctx.txn_of(j);
    let level = ctx.level(t, tj);
    let seq = ctx.seq_of(alpha);
    let end = ctx.segment_end(t, level, seq);
    if seq == end {
        return Ok(());
    }
    Err(AtomicityViolation {
        at: j,
        interrupter: ctx.txn_id(tj),
        interrupted: ctx.txn_id(t),
        last_step: alpha,
        level,
        segment_end_seq: end,
    })
}

/// Convenience wrapper: builds the context and checks atomicity.
pub fn is_multilevel_atomic(
    exec: &Execution,
    nest: &Nest,
    spec: &dyn BreakpointSpecification,
) -> Result<bool, ContextError> {
    let ctx = ExecContext::new(exec, nest, spec)?;
    Ok(check_multilevel_atomic(&ctx).is_ok())
}

/// `C(π, 𝔅)` as a [`Criterion`] for use with the brute-force
/// correctability oracle of `mla-model`.
pub struct MlaCriterion<'a, S: BreakpointSpecification> {
    /// The nest `π`.
    pub nest: &'a Nest,
    /// The specification `𝔅`.
    pub spec: &'a S,
}

impl<S: BreakpointSpecification> Criterion for MlaCriterion<'_, S> {
    fn is_correct(&self, e: &Execution) -> bool {
        is_multilevel_atomic(e, self.nest, self.spec).unwrap_or(false)
    }

    fn name(&self) -> &'static str {
        "multilevel-atomic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints::BreakpointDescription;
    use crate::spec::{AtomicSpec, FixedSpec, FreeSpec};
    use mla_model::{EntityId, Step};

    /// The full scan `check_multilevel_atomic` replaced: every
    /// transaction that has started, at every step.
    fn check_by_full_scan(ctx: &ExecContext<'_>) -> Result<(), AtomicityViolation> {
        let mut last: Vec<Option<usize>> = vec![None; ctx.txn_count()];
        for j in 0..ctx.n() {
            let tj = ctx.txn_of(j);
            for t in 0..ctx.txn_count() {
                if t == tj {
                    continue;
                }
                if let Some(alpha) = last[t] {
                    interrupts(ctx, j, t, alpha)?;
                }
            }
            last[tj] = Some(j);
        }
        Ok(())
    }

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    /// The paper's §4.3 multilevel-atomic banking execution:
    /// three transfers (5 steps each: w1 w2 w3 d1 d2, level-2 breakpoint
    /// between w3 and d1) and one audit (3 steps, atomic), 4-nest with
    /// `π(2)` = {transfers} | {audit}, `π(3)` singling out each transfer.
    ///
    /// The paper's order:
    /// a1, w11, w31, w21, w22, w12, d31, d32, w23, w13, d21, d22, w32,
    /// w33, d11, d12, a2, a3
    ///
    /// (subscripts: transfer index then step; entities are chosen so that
    /// everything is distinct — the atomicity check is order-based and
    /// ignores values.)
    fn banking_nest() -> Nest {
        // t0, t1, t2 = transfers (family-separated at level 3 by path[1]);
        // t3 = audit.
        Nest::new(4, vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 3]]).unwrap()
    }

    fn transfer_bd(n: usize) -> BreakpointDescription {
        // level 2: breakpoint between withdrawals (first 3) and deposits;
        // level 3: breakpoints everywhere (same-family txns interleave
        // freely). Truncated runs (n <= 3) never reach the deposit phase.
        let l2: Vec<usize> = if n > 3 { vec![3] } else { Vec::new() };
        BreakpointDescription::from_mid_levels(4, n, &[l2, (1..n).collect()]).unwrap()
    }

    fn banking_spec() -> FixedSpec {
        FixedSpec::new(4)
            .set(TxnId(0), transfer_bd(5))
            .set(TxnId(1), transfer_bd(5))
            .set(TxnId(2), transfer_bd(5))
            .set(TxnId(3), BreakpointDescription::atomic(4, 3))
    }

    fn paper_order() -> Execution {
        // (txn, seq) pairs in the paper's §4.3 order. Transfer i uses
        // entities 10i..10i+4; the audit reads 100..102.
        let order: Vec<(u32, u32)> = vec![
            (3, 0), // a1
            (0, 0), // w11
            (2, 0), // w31
            (1, 0), // w21
            (1, 1), // w22
            (0, 1), // w12
            (2, 1), // d31  -- wait: transfers have 3 withdrawals
            (2, 2),
            (1, 2), // w23
            (0, 2), // w13
            (1, 3), // d21
            (1, 4), // d22
            (2, 3),
            (2, 4),
            (0, 3), // d11
            (0, 4), // d12
            (3, 1), // a2
            (3, 2), // a3
        ];
        let steps = order
            .into_iter()
            .map(|(t, s)| step(t, s, t * 10 + s))
            .collect();
        Execution::new(steps).unwrap()
    }

    #[test]
    fn audit_step_interleaved_with_transfers_is_not_atomic() {
        // The audit is atomic with respect to transfers (level(transfer,
        // audit) = 1, and B_audit(1) has a single segment). An order in
        // which the audit performs a1, transfers run, and the audit then
        // resumes leaves the audit mid-segment while others step —
        // exactly the "money in transit" interruption §1 forbids. Such
        // orders may still be *correctable* (§5.2's example is); they are
        // not *multilevel atomic*.
        let e = paper_order();
        let nest = banking_nest();
        let spec = banking_spec();
        // a1 (audit, seq 0, mid-segment) is followed by transfer steps:
        // violation.
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        let v = check_multilevel_atomic(&ctx).unwrap_err();
        assert_eq!(v.interrupted, TxnId(3));
        assert_eq!(v.at, 1);
    }

    #[test]
    fn transfers_interleaving_at_phase_boundary_is_atomic() {
        // t0 completes withdrawals, t1 runs entirely, t0 deposits:
        // t1 interrupts t0 exactly at its level-2 breakpoint. Levels:
        // level(t0, t1) = 2 (different families).
        let order: Vec<(u32, u32)> = vec![
            (0, 0),
            (0, 1),
            (0, 2), // t0 withdrawals complete (segment end at level 2)
            (1, 0),
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 4), // whole of t1
            (0, 3),
            (0, 4), // t0 deposits
        ];
        let steps = order
            .into_iter()
            .map(|(t, s)| step(t, s, t * 10 + s))
            .collect();
        let e = Execution::new(steps).unwrap();
        let nest = banking_nest();
        let spec = banking_spec();
        assert!(is_multilevel_atomic(&e, &nest, &spec).unwrap());
    }

    #[test]
    fn transfer_interrupted_mid_withdrawals_by_other_family_is_not_atomic() {
        let order: Vec<(u32, u32)> = vec![
            (0, 0),
            (1, 0), // t1 interrupts t0 after w1 — not a level-2 breakpoint
        ];
        let steps: Vec<Step> = order
            .into_iter()
            .map(|(t, s)| step(t, s, t * 10 + s))
            .collect();
        let e = Execution::new(steps).unwrap();
        let nest = banking_nest();
        let spec = FixedSpec::new(4)
            .set(TxnId(0), transfer_bd(1))
            .set(TxnId(1), transfer_bd(1));
        // With only 1 step performed, t0's single step IS a segment end
        // (truncated executions are interruptible at their frontier): this
        // is atomic.
        assert!(is_multilevel_atomic(&e, &nest, &spec).unwrap());

        // But with t0 continuing afterwards, the interruption is exposed:
        let order: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1)];
        let steps: Vec<Step> = order
            .into_iter()
            .map(|(t, s)| step(t, s, t * 10 + s))
            .collect();
        let e = Execution::new(steps).unwrap();
        let spec = FixedSpec::new(4)
            .set(TxnId(0), transfer_bd(2))
            .set(TxnId(1), transfer_bd(1));
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        let v = check_multilevel_atomic(&ctx).unwrap_err();
        assert_eq!(v.interrupter, TxnId(1));
        assert_eq!(v.interrupted, TxnId(0));
        assert_eq!(v.level, 2);
    }

    #[test]
    fn same_family_interleaves_freely() {
        // Make t0 and t1 the same family (level 3): breakpoints everywhere
        // at level 3 allow arbitrary interleaving.
        let nest = Nest::new(4, vec![vec![0, 0], vec![0, 0]]).unwrap();
        let order: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)];
        let steps: Vec<Step> = order
            .into_iter()
            .map(|(t, s)| step(t, s, t * 10 + s))
            .collect();
        let e = Execution::new(steps).unwrap();
        let spec = FixedSpec::new(4)
            .set(TxnId(0), transfer_bd(3))
            .set(TxnId(1), transfer_bd(3));
        assert!(is_multilevel_atomic(&e, &nest, &spec).unwrap());
    }

    #[test]
    fn k2_atomicity_is_seriality() {
        // §4.3: with k = 2 the multilevel atomic executions are exactly
        // the serial executions.
        let nest = Nest::flat(3);
        let spec = AtomicSpec { k: 2 };
        let serial: Vec<(u32, u32)> = vec![(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)];
        let interleaved: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1)];
        let make = |v: Vec<(u32, u32)>| {
            Execution::new(
                v.into_iter()
                    .map(|(t, s)| step(t, s, t + 100 * s))
                    .collect(),
            )
            .unwrap()
        };
        let es = make(serial);
        let ei = make(interleaved);
        assert!(es.is_serial());
        assert!(is_multilevel_atomic(&es, &nest, &spec).unwrap());
        assert!(!ei.is_serial());
        assert!(!is_multilevel_atomic(&ei, &nest, &spec).unwrap());
    }

    #[test]
    fn free_spec_admits_everything_within_pi2() {
        let nest = Nest::new(3, vec![vec![0], vec![0], vec![0]]).unwrap();
        let spec = FreeSpec { k: 3 };
        let order: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (1, 1), (0, 2)];
        let steps: Vec<Step> = order.into_iter().map(|(t, s)| step(t, s, 7)).collect();
        let e = Execution::new(steps).unwrap();
        assert!(is_multilevel_atomic(&e, &nest, &spec).unwrap());
    }

    #[test]
    fn free_spec_still_serializes_across_pi2_classes() {
        let nest = Nest::new(3, vec![vec![0], vec![1]]).unwrap();
        let spec = FreeSpec { k: 3 };
        let order: Vec<(u32, u32)> = vec![(0, 0), (1, 0), (0, 1)];
        let steps: Vec<Step> = order.into_iter().map(|(t, s)| step(t, s, 7)).collect();
        let e = Execution::new(steps).unwrap();
        assert!(!is_multilevel_atomic(&e, &nest, &spec).unwrap());
    }

    #[test]
    fn empty_and_single_step_atomic() {
        let nest = Nest::flat(1);
        let spec = AtomicSpec { k: 2 };
        assert!(is_multilevel_atomic(&Execution::empty(), &nest, &spec).unwrap());
        let e = Execution::new(vec![step(0, 0, 0)]).unwrap();
        assert!(is_multilevel_atomic(&e, &nest, &spec).unwrap());
    }

    #[test]
    fn k2_matches_is_serial_exhaustively() {
        // Every interleaving of two 2-step txns: multilevel atomicity at
        // k = 2 must coincide with seriality.
        let nest = Nest::flat(2);
        let spec = AtomicSpec { k: 2 };
        // All 6 orderings of t0:{0,1}, t1:{0,1} preserving seq order.
        let orders: Vec<Vec<(u32, u32)>> = vec![
            vec![(0, 0), (0, 1), (1, 0), (1, 1)],
            vec![(0, 0), (1, 0), (0, 1), (1, 1)],
            vec![(0, 0), (1, 0), (1, 1), (0, 1)],
            vec![(1, 0), (0, 0), (0, 1), (1, 1)],
            vec![(1, 0), (0, 0), (1, 1), (0, 1)],
            vec![(1, 0), (1, 1), (0, 0), (0, 1)],
        ];
        for order in orders {
            let steps: Vec<Step> = order.iter().map(|&(t, s)| step(t, s, t * 2 + s)).collect();
            let e = Execution::new(steps).unwrap();
            assert_eq!(
                is_multilevel_atomic(&e, &nest, &spec).unwrap(),
                e.is_serial(),
                "mismatch for {e}"
            );
        }
    }

    /// A seeded execution with its nest and specification: up to 6
    /// transactions of up to 6 steps, interleaved at random or run
    /// serially (serial runs are always atomic), with random breakpoints
    /// refining level by level and random two-way nest splits.
    fn generated(seed: u64) -> (Execution, Nest, FixedSpec) {
        let mut state = seed;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let k = 2 + next(3) as usize;
        let txns = 2 + next(5) as usize;
        let lens: Vec<usize> = (0..txns).map(|_| 1 + next(6) as usize).collect();
        let mut order: Vec<u32> = Vec::new();
        if next(4) == 0 {
            for (t, &len) in lens.iter().enumerate() {
                order.extend(std::iter::repeat_n(t as u32, len));
            }
        } else {
            let mut left = lens.clone();
            while left.iter().any(|&l| l > 0) {
                let t = next(txns as u64) as usize;
                if left[t] > 0 {
                    left[t] -= 1;
                    order.push(t as u32);
                }
            }
        }
        let mut seqs = vec![0u32; txns];
        let steps = order
            .iter()
            .map(|&t| {
                let s = seqs[t as usize];
                seqs[t as usize] += 1;
                step(t, s, next(4) as u32)
            })
            .collect();
        let mut spec = FixedSpec::new(k);
        for (t, &len) in lens.iter().enumerate() {
            let mut mid: Vec<Vec<usize>> = Vec::new();
            let mut cur: Vec<usize> = Vec::new();
            for _ in 2..k {
                for p in 1..len {
                    if next(3) == 0 && !cur.contains(&p) {
                        cur.push(p);
                    }
                }
                mid.push(cur.clone());
            }
            let bd = BreakpointDescription::from_mid_levels(k, len, &mid).unwrap();
            spec = spec.set(TxnId(t as u32), bd);
        }
        let paths = (0..txns)
            .map(|_| (2..k).map(|_| next(2) as u32).collect())
            .collect();
        let nest = Nest::new(k, paths).unwrap();
        (Execution::new(steps).unwrap(), nest, spec)
    }

    #[test]
    fn active_set_scan_matches_the_full_scan() {
        let (mut atomic, mut violated) = (0, 0);
        for seed in 0..2_000 {
            let (exec, nest, spec) = generated(seed);
            let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
            let verdict = check_multilevel_atomic(&ctx);
            assert_eq!(verdict, check_by_full_scan(&ctx), "seed {seed}: {exec}");
            match verdict {
                Ok(()) => atomic += 1,
                Err(_) => violated += 1,
            }
        }
        // Both verdicts are well represented.
        assert!(atomic > 200 && violated > 200, "{atomic} / {violated}");
    }
}
