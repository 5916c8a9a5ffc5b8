//! Theorem 2: the characterization of correctable executions (§5.2).
//!
//! > Let `e` be an execution of `S`. Then `e` is correctable if and only
//! > if the coherent closure of `<=_e` with respect to `π` and `𝔍(𝔅, e)`
//! > is a partial order.
//!
//! [`decide`] is the decision procedure: it computes the coherent closure
//! in frontier form and returns either a multilevel-atomic *witness*
//! execution (via the constructive Lemma 1) or a concrete dependency
//! *cycle* explaining why no equivalent multilevel-atomic execution
//! exists. This mirrors the classical serializability pipeline — conflict
//! graph, acyclicity, topological serialization order — generalized to
//! arbitrary nests and breakpoints.

use mla_model::{Execution, TxnId};

use crate::closure::CoherentClosure;
use crate::extend::witness_execution;
use crate::nest::Nest;
use crate::spec::{BreakpointSpecification, ContextError, ExecContext};

/// A step reference in a cycle report: which transaction, which of its
/// steps, and where the step sat in the checked execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRef {
    /// The transaction.
    pub txn: TxnId,
    /// The step's sequence number within the transaction.
    pub seq: u32,
    /// The step's global index in the checked execution.
    pub global: usize,
}

/// Why an execution is not correctable: a cycle in the coherent closure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleReport {
    /// The steps on the cycle, in relation order (each is related before
    /// the next; the last is related before the first).
    pub steps: Vec<StepRef>,
}

impl std::fmt::Display for CycleReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coherent-closure cycle:")?;
        for s in &self.steps {
            write!(f, " {}#{}", s.txn, s.seq)?;
        }
        Ok(())
    }
}

/// The outcome of the Theorem 2 decision procedure.
pub enum Correctability {
    /// The execution is correctable; `witness` is an equivalent
    /// multilevel-atomic execution (Lemma 1's coherent total order).
    Correctable {
        /// The reordered, multilevel-atomic witness.
        witness: Execution,
    },
    /// The execution is not correctable; `cycle` is a coherent-closure
    /// cycle.
    NotCorrectable {
        /// The offending cycle.
        cycle: CycleReport,
    },
}

impl Correctability {
    /// Whether the verdict is "correctable".
    pub fn is_correctable(&self) -> bool {
        matches!(self, Correctability::Correctable { .. })
    }
}

/// Runs the full decision procedure on a prepared context.
pub fn decide_ctx(ctx: &ExecContext<'_>) -> Correctability {
    let closure = CoherentClosure::compute(ctx);
    if closure.is_partial_order() {
        let witness =
            witness_execution(&(ctx, &closure)).expect("acyclic closure always extends (Lemma 1)");
        Correctability::Correctable { witness }
    } else {
        let cycle = closure
            .witness_cycle(ctx)
            .expect("cyclic closure yields a witness cycle");
        let steps = cycle
            .nodes()
            .iter()
            .map(|&v| {
                let v = v as usize;
                StepRef {
                    txn: ctx.txn_id(ctx.txn_of(v)),
                    seq: ctx.seq_of(v) as u32,
                    global: v,
                }
            })
            .collect();
        Correctability::NotCorrectable {
            cycle: CycleReport { steps },
        }
    }
}

/// Builds the context and runs the decision procedure.
pub fn decide(
    exec: &Execution,
    nest: &Nest,
    spec: &dyn BreakpointSpecification,
) -> Result<Correctability, ContextError> {
    let ctx = ExecContext::new(exec, nest, spec)?;
    Ok(decide_ctx(&ctx))
}

/// Boolean form of [`decide`], skipping witness construction: just the
/// acyclicity test. This is the hot path the schedulers and experiment
/// sweeps use.
pub fn is_correctable(
    exec: &Execution,
    nest: &Nest,
    spec: &dyn BreakpointSpecification,
) -> Result<bool, ContextError> {
    let ctx = ExecContext::new(exec, nest, spec)?;
    Ok(CoherentClosure::compute(&ctx).is_partial_order())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomicity::{is_multilevel_atomic, MlaCriterion};
    use crate::breakpoints::BreakpointDescription;
    use crate::spec::{AtomicSpec, FixedSpec};
    use mla_model::appdb::is_correctable_by_enumeration;
    use mla_model::{EntityId, Step};

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

    #[test]
    fn correctable_yields_atomic_witness() {
        let e = exec(&[(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)]);
        let nest = Nest::flat(2);
        let spec = AtomicSpec { k: 2 };
        match decide(&e, &nest, &spec).unwrap() {
            Correctability::Correctable { witness } => {
                assert!(witness.is_serial());
                assert!(e.equivalent(&witness));
            }
            Correctability::NotCorrectable { cycle } => {
                panic!("unexpected cycle: {cycle}")
            }
        }
    }

    #[test]
    fn uncorrectable_yields_cycle_over_real_steps() {
        let e = exec(&[(0, 0, 7), (1, 0, 7), (1, 1, 8), (0, 1, 8)]);
        let nest = Nest::flat(2);
        let spec = AtomicSpec { k: 2 };
        match decide(&e, &nest, &spec).unwrap() {
            Correctability::Correctable { .. } => panic!("expected cycle"),
            Correctability::NotCorrectable { cycle } => {
                assert!(cycle.steps.len() >= 2);
                // Cycle involves both transactions.
                let txns: std::collections::HashSet<TxnId> =
                    cycle.steps.iter().map(|s| s.txn).collect();
                assert!(txns.contains(&TxnId(0)) && txns.contains(&TxnId(1)));
                assert!(!cycle.to_string().is_empty());
            }
        }
    }

    #[test]
    fn paper_5_2_correctable_and_uncorrectable_banking_orders() {
        // §5.2's worked example, with the entity assignments the paper
        // gives: transfers t1..t3 (5 steps: w1 w2 w3 d1 d2) and audit a
        // (3 steps), 4-nest; transfers have a level-2 breakpoint between
        // withdrawals and deposits.
        //
        //   w11:A  w21:A  w31:E'  a1:A
        //   w12:B  w22:C  w32:D   a2:B
        //   w13:C  w23:E  w33:F   a3:C
        //   d11:D  d21:G  d31:H
        //   d12:?  d22:?  d32:?
        //
        // (The OCR of the table is partly garbled; we use a faithful
        // realization that preserves its structure: the *correctable*
        // order interleaves audit steps only at points where an
        // equivalent reordering can pull the audit out whole; the
        // *uncorrectable* order wedges the audit between conflicting
        // transfer phases so no reordering works.)
        let nest = Nest::new(4, vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 3]]).unwrap();
        let tbd = |n: usize| {
            let l2: Vec<usize> = if n > 3 { vec![3] } else { Vec::new() };
            BreakpointDescription::from_mid_levels(4, n, &[l2, (1..n).collect()]).unwrap()
        };
        let spec = FixedSpec::new(4)
            .set(TxnId(0), tbd(5))
            .set(TxnId(1), tbd(5))
            .set(TxnId(2), tbd(5))
            .set(TxnId(3), BreakpointDescription::atomic(4, 3));

        // Correctable: audit reads A, B, C interleaved among transfer
        // steps that never conflict with it in opposing directions — all
        // audit reads happen before any transfer touches A, B, C.
        let correctable = exec(&[
            (3, 0, 0), // a1: A
            (3, 1, 1), // a2: B
            (0, 0, 0), // w11: A (after audit)
            (1, 0, 2), // w21
            (3, 2, 2), // a3 reads entity 2 AFTER w21 — potential conflict
            (0, 1, 3),
            (0, 2, 4),
            (1, 1, 5),
            (0, 3, 6),
            (0, 4, 7),
            (1, 2, 8),
            (1, 3, 9),
            (1, 4, 10),
        ]);
        // Audit saw entity 2 after w21 wrote it, and entities 0,1 before
        // transfers: the audit serializes after t1's withdrawal phase...
        // but the audit must be atomic wrt transfers as a whole. Is there
        // a reordering? Audit order constraints: a1 < w11 (entity 0),
        // w21 < a3 (entity 2). So audit must land between w21 and w11 —
        // but w11 < w21? No: w11 at position 2, w21 at 3, so w11 < w21 in
        // <=_e... then audit-before-w11 and audit-after-w21 conflict?
        // a1 < w11 constrains audit start before w11; a3 > w21 means
        // audit end after w21 — the audit STRADDLES w11 and w21, and
        // since t0 and t1 interrupt it, the whole-audit atomicity demands
        // all of t0 and t1 clear of [a1, a3] — impossible? Not quite:
        // t0's steps can move after a3 (only w11's entity-0 conflict
        // pins a1 < w11 — w11 can come after a3). t1: w21 < a3 pins w21
        // before a3; t1's remaining steps can move after a3 — but then
        // t1 is INTERRUPTED by the audit mid-withdrawals... withdrawals
        // of t1: w21 w22 w23, level(t1, audit) = 1, B_t1(1) is one
        // segment — t1 may not be interrupted by the audit at all. w21
        // before a3 and (rest of t1) after a3 violates that. UNLESS the
        // closure tolerates it — the lift forces all of t1 before a3,
        // and a1 < w11 forces audit before t0 — consistent: order
        // t1(all) < audit < t0(all)? Check: w21 < a3 OK; a1 < w11 OK;
        // does anything force t1 after the audit or t0 before it? a2
        // reads entity 1, untouched by transfers. No. So correctable,
        // with witness t1; audit; t0.
        match decide(&correctable, &nest, &spec).unwrap() {
            Correctability::Correctable { witness } => {
                assert!(is_multilevel_atomic(&witness, &nest, &spec).unwrap());
            }
            Correctability::NotCorrectable { cycle } => {
                panic!("expected correctable, got {cycle}")
            }
        }

        // Uncorrectable: audit reads A before t0 writes it AND reads C
        // after t0 writes C — the audit both precedes and follows t0.
        let uncorrectable = exec(&[
            (3, 0, 0),  // a1: A
            (0, 0, 0),  // w11: A  => audit < t0
            (0, 1, 1),  // w12: B
            (0, 2, 2),  // w13: C
            (3, 1, 10), // a2: (neutral)
            (3, 2, 2),  // a3: C after w13 => t0 < audit. Contradiction.
            (0, 3, 3),
            (0, 4, 4),
        ]);
        match decide(&uncorrectable, &nest, &spec).unwrap() {
            Correctability::Correctable { .. } => panic!("expected uncorrectable"),
            Correctability::NotCorrectable { cycle } => {
                let txns: std::collections::HashSet<TxnId> =
                    cycle.steps.iter().map(|s| s.txn).collect();
                assert!(txns.contains(&TxnId(0)) && txns.contains(&TxnId(3)));
            }
        }
    }

    #[test]
    fn theorem_matches_enumeration_oracle_randomized() {
        // The semantic ground truth: e is correctable iff some equivalent
        // execution is multilevel atomic. Cross-check Theorem 2 against
        // brute force on small random instances.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4242);
        let mut agree_correctable = 0;
        let mut agree_not = 0;
        for trial in 0..250 {
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
                        if rng.gen_bool(0.4) && !cur.contains(&p) {
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
            let theorem = is_correctable(&e, &nest, &spec).unwrap();
            let oracle = is_correctable_by_enumeration(
                &e,
                &MlaCriterion {
                    nest: &nest,
                    spec: &spec,
                },
            );
            assert_eq!(
                theorem, oracle,
                "trial {trial}: Theorem 2 disagrees with enumeration on {e}"
            );
            if theorem {
                agree_correctable += 1;
            } else {
                agree_not += 1;
            }
        }
        assert!(agree_correctable > 10, "need both outcomes sampled");
        assert!(agree_not > 10, "need both outcomes sampled");
    }
}
