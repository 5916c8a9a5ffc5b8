//! Property-based tests for the multilevel-atomicity theory.
//!
//! The central properties:
//! 1. the frontier closure equals the literal definitional closure;
//! 2. Theorem 2 equals brute-force enumeration over all equivalent
//!    executions;
//! 3. Lemma 1's witness is equivalent and multilevel atomic;
//! 4. at k = 2 everything collapses to classical serializability;
//! 5. *monotonicity*: adding breakpoints never destroys correctability
//!    (coarser condition-(b) lifts produce a sub-relation).

#![allow(clippy::needless_range_loop)] // dense-index pairwise comparisons

use mla_core::breakpoints::BreakpointDescription;
use mla_core::closure::{coherent_closure_exact, exact_is_partial_order, CoherentClosure};
use mla_core::extend::witness_execution;
use mla_core::nest::Nest;
use mla_core::serializability::is_serializable;
use mla_core::spec::{AtomicSpec, ExecContext, FixedSpec};
use mla_core::theorem::is_correctable;
use mla_core::{is_multilevel_atomic, MlaCriterion};
use mla_model::appdb::is_correctable_by_enumeration;
use mla_model::{EntityId, Execution, Step, TxnId};
use proptest::prelude::*;

/// A randomly interleaved execution over `txns` transactions: per step,
/// (txn choice, entity). Sequence numbers are assigned in order.
#[derive(Clone, Debug)]
struct RandomExec {
    txns: usize,
    steps: Vec<Step>,
}

fn exec_strategy(
    max_txns: usize,
    max_steps: usize,
    max_entities: u32,
) -> impl Strategy<Value = RandomExec> {
    (2..=max_txns).prop_flat_map(move |txns| {
        proptest::collection::vec((0..txns as u32, 0..max_entities), 1..=max_steps).prop_map(
            move |picks| {
                let mut next_seq = vec![0u32; txns];
                let steps = picks
                    .into_iter()
                    .map(|(t, e)| {
                        let seq = next_seq[t as usize];
                        next_seq[t as usize] += 1;
                        Step {
                            txn: TxnId(t),
                            seq,
                            entity: EntityId(e),
                            observed: 0,
                            wrote: 0,
                        }
                    })
                    .collect();
                RandomExec { txns, steps }
            },
        )
    })
}

/// A random spec: per transaction, random breakpoint positions per mid
/// level (refining by construction: deeper levels take a superset).
fn spec_for(re: &RandomExec, k: usize, picks: &[bool]) -> FixedSpec {
    let exec = Execution::new(re.steps.clone()).unwrap();
    let mut spec = FixedSpec::new(k);
    let mut pick_idx = 0;
    let pick = |i: &mut usize| {
        let v = picks.get(*i).copied().unwrap_or(false);
        *i += 1;
        v
    };
    for t in 0..re.txns as u32 {
        let len = exec.txn_steps(TxnId(t)).len();
        let mut mid: Vec<Vec<usize>> = Vec::new();
        let mut prev: Vec<usize> = Vec::new();
        for _ in 0..k.saturating_sub(2) {
            let mut cur = prev.clone();
            for p in 1..len {
                if pick(&mut pick_idx) && !cur.contains(&p) {
                    cur.push(p);
                }
            }
            mid.push(cur.clone());
            prev = cur;
        }
        spec = spec.set(
            TxnId(t),
            BreakpointDescription::from_mid_levels(k, len, &mid).unwrap(),
        );
    }
    spec
}

fn nest_for(re: &RandomExec, k: usize, classes: &[u8]) -> Nest {
    let paths: Vec<Vec<u32>> = (0..re.txns)
        .map(|t| {
            (0..k - 2)
                .map(|j| (classes.get(t * (k - 2) + j).copied().unwrap_or(0) % 2) as u32)
                .collect()
        })
        .collect();
    Nest::new(k, paths).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closures_agree(re in exec_strategy(3, 8, 4),
                      k in 2usize..4,
                      picks in proptest::collection::vec(any::<bool>(), 0..64),
                      classes in proptest::collection::vec(any::<u8>(), 0..8)) {
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = nest_for(&re, k, &classes);
        let spec = spec_for(&re, k, &picks);
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        let fast = CoherentClosure::compute(&ctx);
        let slow = coherent_closure_exact(&ctx);
        prop_assert_eq!(fast.is_partial_order(), exact_is_partial_order(&slow));
        for v in 0..ctx.n() {
            for u in 0..ctx.n() {
                if u != v {
                    prop_assert_eq!(fast.related(&ctx, u, v), slow[v].contains(u),
                        "pair ({}, {}) disagreement on {}", u, v, &exec);
                }
            }
        }
    }

    #[test]
    fn theorem_equals_enumeration(re in exec_strategy(3, 7, 3),
                                  k in 2usize..4,
                                  picks in proptest::collection::vec(any::<bool>(), 0..64),
                                  classes in proptest::collection::vec(any::<u8>(), 0..8)) {
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = nest_for(&re, k, &classes);
        let spec = spec_for(&re, k, &picks);
        let theorem = is_correctable(&exec, &nest, &spec).unwrap();
        let oracle = is_correctable_by_enumeration(&exec, &MlaCriterion {
            nest: &nest, spec: &spec,
        });
        prop_assert_eq!(theorem, oracle, "Theorem 2 vs enumeration on {}", &exec);
    }

    #[test]
    fn witness_pipeline(re in exec_strategy(3, 8, 4),
                        k in 2usize..5,
                        picks in proptest::collection::vec(any::<bool>(), 0..96),
                        classes in proptest::collection::vec(any::<u8>(), 0..12)) {
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = nest_for(&re, k, &classes);
        let spec = spec_for(&re, k, &picks);
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        let closure = CoherentClosure::compute(&ctx);
        if closure.is_partial_order() {
            let w = witness_execution(&(&ctx, &closure)).unwrap();
            prop_assert!(exec.equivalent(&w), "witness equivalent: {} vs {}", &exec, &w);
            prop_assert!(is_multilevel_atomic(&w, &nest, &spec).unwrap(),
                "witness atomic: {}", &w);
        } else {
            let cycle = closure.witness_cycle(&ctx).unwrap();
            prop_assert!(!cycle.is_empty());
            // The cycle is a genuine relation cycle: consecutive steps
            // related, wrap-around included.
            let nodes = cycle.nodes();
            for i in 0..nodes.len() {
                let u = nodes[i] as usize;
                let v = nodes[(i + 1) % nodes.len()] as usize;
                prop_assert!(closure.related(&ctx, u, v),
                    "cycle pair ({u},{v}) not in relation");
            }
        }
    }

    #[test]
    fn k2_is_serializability(re in exec_strategy(4, 10, 4)) {
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = Nest::flat(re.txns);
        let thm = is_correctable(&exec, &nest, &AtomicSpec { k: 2 }).unwrap();
        prop_assert_eq!(thm, is_serializable(&exec), "k=2 collapse on {}", &exec);
    }

    #[test]
    fn more_breakpoints_never_hurt(re in exec_strategy(3, 8, 4),
                                   picks in proptest::collection::vec(any::<bool>(), 0..48),
                                   extra in proptest::collection::vec(any::<bool>(), 0..48),
                                   classes in proptest::collection::vec(any::<u8>(), 0..8)) {
        // Build two specs where the second's breakpoint sets contain the
        // first's; correctability must be monotone.
        let k = 3;
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = nest_for(&re, k, &classes);

        let mut sparse = FixedSpec::new(k);
        let mut dense = FixedSpec::new(k);
        let mut idx = 0;
        for t in 0..re.txns as u32 {
            let len = exec.txn_steps(TxnId(t)).len();
            let mut base: Vec<usize> = Vec::new();
            let mut more: Vec<usize> = Vec::new();
            for p in 1..len {
                let b = picks.get(idx).copied().unwrap_or(false);
                let e = extra.get(idx).copied().unwrap_or(false);
                idx += 1;
                if b { base.push(p); }
                if b || e { more.push(p); }
            }
            sparse = sparse.set(TxnId(t),
                BreakpointDescription::from_mid_levels(k, len, &[base]).unwrap());
            dense = dense.set(TxnId(t),
                BreakpointDescription::from_mid_levels(k, len, &[more]).unwrap());
        }
        let c_sparse = is_correctable(&exec, &nest, &sparse).unwrap();
        let c_dense = is_correctable(&exec, &nest, &dense).unwrap();
        prop_assert!(!c_sparse || c_dense,
            "adding breakpoints destroyed correctability on {}", &exec);
    }

    #[test]
    fn atomicity_implies_correctability(re in exec_strategy(3, 8, 4),
                                        k in 2usize..4,
                                        picks in proptest::collection::vec(any::<bool>(), 0..64),
                                        classes in proptest::collection::vec(any::<u8>(), 0..8)) {
        let exec = Execution::new(re.steps.clone()).unwrap();
        let nest = nest_for(&re, k, &classes);
        let spec = spec_for(&re, k, &picks);
        if is_multilevel_atomic(&exec, &nest, &spec).unwrap() {
            prop_assert!(is_correctable(&exec, &nest, &spec).unwrap(),
                "a correct execution is trivially correctable: {}", &exec);
        }
    }

    #[test]
    fn deeper_nesting_never_hurts(re in exec_strategy(3, 8, 4),
                                  classes in proptest::collection::vec(any::<u8>(), 0..8)) {
        // Refining the nest while giving every transaction breakpoints at
        // the new level everywhere can only admit more executions than a
        // flat serializability nest.
        let exec = Execution::new(re.steps.clone()).unwrap();
        let flat = Nest::flat(re.txns);
        let serial_ok = is_correctable(&exec, &flat, &AtomicSpec { k: 2 }).unwrap();
        let nest = nest_for(&re, 3, &classes);
        let mut spec = FixedSpec::new(3);
        for t in 0..re.txns as u32 {
            let len = exec.txn_steps(TxnId(t)).len();
            spec = spec.set(TxnId(t), BreakpointDescription::free(3, len));
        }
        let mla_ok = is_correctable(&exec, &nest, &spec).unwrap();
        prop_assert!(!serial_ok || mla_ok,
            "free breakpoints under a 3-nest must accept all serializable executions");
    }
}
