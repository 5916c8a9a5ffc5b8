//! Property-based tests for the §3 model: executions, dependency order,
//! equivalence, and validation.

use std::sync::Arc;

use mla_model::appdb::{is_correctable_by_enumeration, SerialCriterion};
use mla_model::program::{ScriptOp, ScriptProgram, System};
use mla_model::{EntityId, Execution, TxnId};
use proptest::prelude::*;

/// Strategy: a small system (programs as (entity, delta) op lists) plus a
/// raw interleaving choice sequence.
fn system_strategy() -> impl Strategy<Value = (Vec<Vec<(u32, i64)>>, Vec<u8>)> {
    let program = proptest::collection::vec((0u32..5, -3i64..=3), 1..4);
    let programs = proptest::collection::vec(program, 1..4);
    let choices = proptest::collection::vec(any::<u8>(), 0..24);
    (programs, choices)
}

fn build(programs: &[Vec<(u32, i64)>]) -> System {
    System::new(
        programs
            .iter()
            .map(|ops| {
                Arc::new(ScriptProgram::new(
                    ops.iter()
                        .map(|&(e, d)| ScriptOp::Add(EntityId(e), d))
                        .collect(),
                )) as Arc<dyn mla_model::Program + Send + Sync>
            })
            .collect(),
        (0..5).map(|e| (EntityId(e), 100)),
    )
}

/// Drives the system with the choice sequence (skipping finished txns)
/// to produce a valid execution.
fn drive(sys: &System, n_txns: usize, choices: &[u8]) -> Execution {
    let mut schedule = Vec::new();
    let mut finished = vec![false; n_txns];
    let mut exec = Execution::empty();
    for &c in choices {
        let live: Vec<u32> = (0..n_txns as u32)
            .filter(|&t| !finished[t as usize])
            .collect();
        if live.is_empty() {
            break;
        }
        let t = live[c as usize % live.len()];
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_executions_validate((programs, choices) in system_strategy()) {
        let sys = build(&programs);
        let exec = drive(&sys, programs.len(), &choices);
        prop_assert!(sys.validate(&exec).is_ok(), "generated execution must validate: {}", exec);
    }

    #[test]
    fn dependency_graph_is_a_dag((programs, choices) in system_strategy()) {
        let sys = build(&programs);
        let exec = drive(&sys, programs.len(), &choices);
        // Dependency edges always point forward in execution order.
        let g = exec.dependency_graph();
        prop_assert!(mla_graph::topo::is_acyclic(&g));
        for (u, v) in g.edges() {
            prop_assert!(u < v, "dependency edge must point forward");
        }
    }

    #[test]
    fn all_linear_extensions_are_equivalent_and_valid((programs, choices) in system_strategy()) {
        let sys = build(&programs);
        let exec = drive(&sys, programs.len(), &choices);
        prop_assume!(exec.len() <= 7); // bound the extension count
        let all = exec.equivalents();
        prop_assert!(!all.is_empty());
        // §3.1: every reordering consistent with <=_e is an execution of
        // S with the same value sequences; equivalence is symmetric and
        // includes the original.
        prop_assert!(all.iter().any(|e| e == &exec));
        for e2 in &all {
            prop_assert!(exec.equivalent(e2));
            prop_assert!(e2.equivalent(&exec), "equivalence must be symmetric");
            prop_assert!(sys.validate(e2).is_ok(), "extension must stay valid");
        }
    }

    #[test]
    fn serial_executions_are_correctable((programs, _) in system_strategy()) {
        let sys = build(&programs);
        let order: Vec<TxnId> = (0..programs.len() as u32).map(TxnId).collect();
        let exec = sys.run_serial(&order).unwrap();
        prop_assert!(exec.is_serial());
        prop_assume!(exec.len() <= 8);
        prop_assert!(is_correctable_by_enumeration(&exec, &SerialCriterion));
    }

    #[test]
    fn value_conservation_under_adds((programs, choices) in system_strategy()) {
        // Every op is Add(e, d): the final sum over entities equals the
        // initial sum plus all applied deltas — regardless of order.
        let sys = build(&programs);
        let exec = drive(&sys, programs.len(), &choices);
        let mut values: std::collections::HashMap<EntityId, i64> =
            (0..5).map(|e| (EntityId(e), 100)).collect();
        for s in exec.steps() {
            values.insert(s.entity, s.wrote);
        }
        let applied: i64 = exec.steps().iter().map(|s| s.wrote - s.observed).sum();
        let total: i64 = values.values().sum();
        prop_assert_eq!(total, 500 + applied);
    }

    #[test]
    fn equivalence_respects_entity_order((programs, choices) in system_strategy()) {
        let sys = build(&programs);
        let exec = drive(&sys, programs.len(), &choices);
        prop_assume!(exec.len() >= 2 && exec.len() <= 7);
        for e2 in exec.equivalents() {
            // Per-entity access sequences must be identical.
            for ent in 0..5u32 {
                let a: Vec<(TxnId, u32)> = exec.steps().iter()
                    .filter(|s| s.entity == EntityId(ent))
                    .map(|s| s.key()).collect();
                let b: Vec<(TxnId, u32)> = e2.steps().iter()
                    .filter(|s| s.entity == EntityId(ent))
                    .map(|s| s.key()).collect();
                prop_assert_eq!(a, b);
            }
        }
    }
}
