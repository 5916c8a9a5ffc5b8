//! Cross-crate semantic tests: Theorem 2 against ground truth, on *real*
//! executions produced by running actual workload programs (values and
//! branching included), not just synthetic step patterns.

#![allow(clippy::needless_range_loop)] // dense-index pairwise comparisons

mod common;

use std::ops::ControlFlow;

use common::random_execution;

use multilevel_atomicity::cc::{MlaDetect, VictimPolicy};
use multilevel_atomicity::core::closure::{
    coherent_closure_exact, exact_is_partial_order, CoherentClosure,
};
use multilevel_atomicity::core::serializability::is_serializable;
use multilevel_atomicity::core::spec::ExecContext;
use multilevel_atomicity::core::theorem::{decide, Correctability};
use multilevel_atomicity::core::{is_multilevel_atomic, MlaCriterion};
use multilevel_atomicity::model::appdb::is_correctable_by_enumeration;
use multilevel_atomicity::model::{Execution, TxnId};
use multilevel_atomicity::sim::{run, SimConfig};
use multilevel_atomicity::workload::banking::{generate as banking, BankingConfig};
use multilevel_atomicity::workload::synthetic::{generate as synthetic, SyntheticConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[test]
fn theorem_matches_enumeration_on_banking_runs() {
    let mut rng = SmallRng::seed_from_u64(101);
    let mut correctable = 0;
    let mut uncorrectable = 0;
    for round in 0..60 {
        let b = banking(BankingConfig {
            families: 2,
            accounts_per_family: 2,
            transfers: 2,
            bank_audits: 1,
            credit_audits: 0,
            seed: round,
            ..BankingConfig::default()
        });
        let exec = random_execution(&b.workload, &mut rng, 10);
        if exec.len() < 2 {
            continue;
        }
        let nest = &b.workload.nest;
        let spec = b.workload.spec();
        let theorem = match decide(&exec, nest, &spec).unwrap() {
            Correctability::Correctable { witness } => {
                assert!(exec.equivalent(&witness), "witness must be equivalent");
                assert!(
                    is_multilevel_atomic(&witness, nest, &spec).unwrap(),
                    "witness must be multilevel atomic"
                );
                true
            }
            Correctability::NotCorrectable { .. } => false,
        };
        let oracle = is_correctable_by_enumeration(&exec, &MlaCriterion { nest, spec: &spec });
        assert_eq!(theorem, oracle, "round {round}: mismatch on {exec}");
        if theorem {
            correctable += 1;
        } else {
            uncorrectable += 1;
        }
    }
    assert!(correctable > 5, "need correctable samples ({correctable})");
    assert!(
        uncorrectable > 0,
        "need at least one uncorrectable sample ({uncorrectable})"
    );
}

#[test]
fn closures_agree_on_synthetic_runs() {
    let mut rng = SmallRng::seed_from_u64(2002);
    for round in 0..40 {
        let s = synthetic(SyntheticConfig {
            txns: 4,
            k: 4,
            fanout: vec![2, 2],
            densities: vec![0.3, 0.7],
            len_min: 2,
            len_max: 4,
            entities: 5,
            seed: round,
            ..SyntheticConfig::default()
        });
        let exec = random_execution(&s.workload, &mut rng, 14);
        let nest = &s.workload.nest;
        let spec = s.workload.spec();
        let ctx = ExecContext::new(&exec, nest, &spec).unwrap();
        let fast = CoherentClosure::compute(&ctx);
        let slow = coherent_closure_exact(&ctx);
        assert_eq!(
            fast.is_partial_order(),
            exact_is_partial_order(&slow),
            "round {round}: acyclicity disagreement on {exec}"
        );
        for v in 0..ctx.n() {
            for u in 0..ctx.n() {
                if u != v {
                    assert_eq!(
                        fast.related(&ctx, u, v),
                        slow[v].contains(u),
                        "round {round}: pair ({u},{v}) disagreement"
                    );
                }
            }
        }
    }
}

/// One seeded §2 banking replay under `MlaDetect`: a few hundred steps
/// of 99 transactions, well past the small random instances above.
/// Every pair must agree with the reference closure.
#[test]
#[cfg_attr(miri, ignore)]
fn closures_agree_on_a_seeded_banking_replay() {
    let b = banking(BankingConfig {
        transfers: 96,
        seed: 0x5EED,
        ..BankingConfig::default()
    });
    let wl = &b.workload;
    let spec = wl.spec();
    let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(7),
        &mut detect,
    );
    let exec = &out.execution;
    assert!(exec.len() >= 250, "replay too short: {} steps", exec.len());
    let ctx = ExecContext::new(exec, &wl.nest, &spec).unwrap();
    let fast = CoherentClosure::compute(&ctx);
    let slow = coherent_closure_exact(&ctx);
    assert!(
        fast.is_partial_order(),
        "MlaDetect admitted a cyclic history"
    );
    assert!(exact_is_partial_order(&slow));
    for v in 0..ctx.n() {
        for u in 0..ctx.n() {
            if u != v {
                assert_eq!(
                    fast.related(&ctx, u, v),
                    slow[v].contains(u),
                    "pair ({u},{v}) disagreement"
                );
            }
        }
    }
}

#[test]
fn k2_correctability_equals_serializability_on_real_runs() {
    // §4.3: with k = 2 multilevel atomicity is seriality, so Theorem 2
    // must coincide with conflict-graph serializability.
    let mut rng = SmallRng::seed_from_u64(33);
    let mut agree_yes = 0;
    let mut agree_no = 0;
    for round in 0..60 {
        let s = synthetic(SyntheticConfig {
            txns: 3,
            k: 2,
            fanout: vec![],
            densities: vec![],
            len_min: 2,
            len_max: 3,
            entities: 3,
            seed: 500 + round,
            ..SyntheticConfig::default()
        });
        let exec = random_execution(&s.workload, &mut rng, 9);
        let spec = s.workload.spec();
        let thm =
            multilevel_atomicity::core::is_correctable(&exec, &s.workload.nest, &spec).unwrap();
        let sgt = is_serializable(&exec);
        assert_eq!(thm, sgt, "round {round}: k=2 mismatch on {exec}");
        if thm {
            agree_yes += 1;
        } else {
            agree_no += 1;
        }
    }
    assert!(agree_yes > 5 && agree_no > 5, "{agree_yes}/{agree_no}");
}

#[test]
fn acceptance_is_monotone_in_breakpoint_density() {
    // More breakpoints can only admit more executions: any execution
    // correctable at density d must remain correctable at density d' > d
    // (with nested hash draws the breakpoint sets are nested). We verify
    // statistically: acceptance rate is nondecreasing along the sweep.
    let mut rng = SmallRng::seed_from_u64(77);
    let densities = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut rates = Vec::new();
    for &d in &densities {
        let mut accepted = 0;
        let total = 40;
        for round in 0..total {
            let s = synthetic(SyntheticConfig {
                txns: 3,
                k: 3,
                fanout: vec![1], // all in one pi(2) class
                densities: vec![d],
                len_min: 2,
                len_max: 3,
                entities: 3,
                seed: 9000 + round,
                ..SyntheticConfig::default()
            });
            let exec = random_execution(&s.workload, &mut rng, 9);
            if multilevel_atomicity::core::is_correctable(
                &exec,
                &s.workload.nest,
                &s.workload.spec(),
            )
            .unwrap()
            {
                accepted += 1;
            }
        }
        rates.push(accepted);
    }
    // Different random executions per density, so only demand a clear
    // trend: the extremes must be ordered and dramatic.
    assert!(
        rates[4] > rates[0],
        "density 1.0 must accept more than density 0.0: {rates:?}"
    );
    assert_eq!(
        rates[4], 40,
        "density 1.0 in one class accepts everything: {rates:?}"
    );
}

#[test]
fn enumeration_oracle_streams_lazily() {
    // for_each_equivalent with early exit must not materialize the whole
    // (potentially huge) extension set.
    let s = synthetic(SyntheticConfig {
        txns: 6,
        k: 2,
        fanout: vec![],
        densities: vec![],
        len_min: 2,
        len_max: 2,
        entities: 50, // disjoint-ish: very many linear extensions
        seed: 4,
        ..SyntheticConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(5);
    let exec = random_execution(&s.workload, &mut rng, 12);
    let mut seen = 0usize;
    exec.for_each_equivalent::<()>(|_| {
        seen += 1;
        if seen >= 1000 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    assert!(seen <= 1000);
}

/// The schedule-replay body `random_execution` had before it stepped
/// instances against one value map: re-run the whole growing schedule
/// after every pick.
fn replayed_random_execution(
    wl: &multilevel_atomicity::workload::Workload,
    rng: &mut SmallRng,
    max_steps: usize,
) -> Execution {
    let sys = wl.system();
    let mut schedule = Vec::new();
    let mut finished = vec![false; wl.txn_count()];
    let mut exec = Execution::empty();
    while schedule.len() < max_steps {
        let live: Vec<u32> = (0..wl.txn_count() as u32)
            .filter(|&t| !finished[t as usize])
            .collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.gen_range(0..live.len())];
        schedule.push(TxnId(t));
        match sys.run_schedule(&schedule) {
            Ok(e) => exec = e,
            Err(_) => {
                schedule.pop();
                finished[t as usize] = true;
            }
        }
    }
    exec
}

#[test]
fn random_execution_matches_schedule_replay() {
    // Small banking rounds and synthetic shapes like those the tests
    // above draw, plus a longer banking load; each with a cap that cuts
    // the run short and one that lets every transaction finish.
    let mut workloads = Vec::new();
    for seed in 0..3 {
        workloads.push(
            banking(BankingConfig {
                families: 2,
                accounts_per_family: 2,
                transfers: 2,
                bank_audits: 1,
                credit_audits: 0,
                seed,
                ..BankingConfig::default()
            })
            .workload,
        );
    }
    workloads.push(
        banking(BankingConfig {
            transfers: 12,
            seed: 0x5EED,
            ..BankingConfig::default()
        })
        .workload,
    );
    for (txns, k, fanout, densities, entities) in [
        (4, 4, vec![2, 2], vec![0.3, 0.7], 5),
        (3, 2, vec![], vec![], 3),
    ] {
        workloads.push(
            synthetic(SyntheticConfig {
                txns,
                k,
                fanout,
                densities,
                len_min: 2,
                len_max: 4,
                entities,
                seed: 7,
                ..SyntheticConfig::default()
            })
            .workload,
        );
    }
    for (i, wl) in workloads.iter().enumerate() {
        for seed in 1..=4 {
            for max_steps in [9, 1_000] {
                let mut a = SmallRng::seed_from_u64(seed);
                let mut b = SmallRng::seed_from_u64(seed);
                let stepped = random_execution(wl, &mut a, max_steps);
                let replayed = replayed_random_execution(wl, &mut b, max_steps);
                assert_eq!(
                    stepped, replayed,
                    "workload {i}, seed {seed}, cap {max_steps}"
                );
                // The two runs also leave their generators in step.
                assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            }
        }
    }
}
