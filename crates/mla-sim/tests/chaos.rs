//! Failure injection: a control that makes *random* (but seeded)
//! decisions — grants, defers, and aborts of arbitrary live transactions
//! — to fuzz the simulator's cascade/rollback machinery. Whatever the
//! control does, the simulator must preserve its invariants:
//!
//! * the run terminates (all commit, or the event budget trips);
//! * the surviving journal replays as a *valid* execution of the system;
//! * conservation arithmetic holds on the final store;
//! * `performed - undone = |surviving history|`;
//! * cascade metrics are internally consistent.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp::*, ScriptProgram, System};
use mla_model::{EntityId, Program, TxnId};
use mla_sim::control::{Control, Decision};
use mla_sim::{run, SimConfig, TxnStatus, World};
use mla_txn::{NoBreakpoints, TxnInstance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct ChaosControl {
    rng: SmallRng,
    abort_budget: u32,
}

impl Control for ChaosControl {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let roll: f64 = self.rng.gen();
        if roll < 0.12 && self.abort_budget > 0 {
            // Abort a random non-committed transaction (possibly the
            // requester, possibly one that is mid-flight elsewhere).
            let live: Vec<TxnId> = world
                .txns_with_status(TxnStatus::Running)
                .filter(|t| world.instance(*t).seq() > 0 || *t == txn)
                .collect();
            if let Some(&victim) = live.get(
                self.rng
                    .gen_range(0..live.len().max(1))
                    .min(live.len().saturating_sub(1)),
            ) {
                self.abort_budget -= 1;
                return Decision::Abort(vec![victim]);
            }
            Decision::Grant
        } else if roll < 0.30 {
            Decision::Defer
        } else {
            Decision::Grant
        }
    }
}

fn chain_programs(n: u32, entities: u32) -> Vec<Arc<dyn Program + Send + Sync>> {
    (0..n)
        .map(|i| {
            Arc::new(ScriptProgram::new(vec![
                Add(EntityId(i % entities), 1),
                Add(EntityId((i + 1) % entities), 2),
                Add(EntityId((i + 2) % entities), 3),
            ])) as Arc<dyn Program + Send + Sync>
        })
        .collect()
}

#[test]
fn chaos_runs_preserve_all_invariants() {
    for seed in 0..25u64 {
        let n = 8u32;
        let entities = 4u32;
        let programs = chain_programs(n, entities);
        let instances: Vec<TxnInstance> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                TxnInstance::new(TxnId(i as u32), p.clone(), Arc::new(NoBreakpoints { k: 2 }))
            })
            .collect();
        let arrivals: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
        let out = run(
            Nest::flat(n as usize),
            instances,
            [],
            &arrivals,
            &SimConfig::seeded(seed),
            &mut ChaosControl {
                rng: SmallRng::seed_from_u64(seed ^ 0xC4A0),
                abort_budget: 12,
            },
        );
        assert!(!out.metrics.timed_out, "seed {seed}: chaos run timed out");
        assert_eq!(out.metrics.committed, n as u64, "seed {seed}");

        // The surviving journal replays as a valid execution.
        let sys = System::new(chain_programs(n, entities), []);
        sys.validate(&out.execution)
            .unwrap_or_else(|e| panic!("seed {seed}: invalid surviving history: {e}"));
        assert!(sys.is_complete(&out.execution), "seed {seed}");

        // Conservation: each committed transaction contributed +6 total.
        let total: i64 = (0..entities).map(|e| out.store.value(EntityId(e))).sum();
        assert_eq!(total, n as i64 * 6, "seed {seed}");

        // Accounting: performed - undone = surviving steps.
        assert_eq!(
            out.metrics.steps_performed - out.metrics.steps_undone,
            out.execution.len() as u64,
            "seed {seed}"
        );
        assert_eq!(
            out.metrics.steps_undone,
            out.store.undone_count(),
            "seed {seed}"
        );
        // Cascade events sum to at least the abort count... each abort
        // event recorded one cascade whose size counts every rolled-back
        // transaction.
        assert_eq!(
            out.metrics.cascade_sizes.iter().sum::<usize>() as u64,
            out.metrics.aborts,
            "seed {seed}: cascade sizes must sum to total aborts"
        );
    }
}

#[test]
fn chaos_with_heavy_abort_budget_still_terminates() {
    let n = 6u32;
    let programs = chain_programs(n, 3);
    let instances: Vec<TxnInstance> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            TxnInstance::new(TxnId(i as u32), p.clone(), Arc::new(NoBreakpoints { k: 2 }))
        })
        .collect();
    let out = run(
        Nest::flat(n as usize),
        instances,
        [],
        &vec![0; n as usize],
        &SimConfig::seeded(7),
        &mut ChaosControl {
            rng: SmallRng::seed_from_u64(999),
            abort_budget: 40,
        },
    );
    assert!(!out.metrics.timed_out);
    assert_eq!(out.metrics.committed, n as u64);
    assert!(out.metrics.aborts > 0, "the chaos must actually have fired");
}
