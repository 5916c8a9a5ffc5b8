//! Rollback cascades and the commit-point hazard (§6): the paper warns
//! that multilevel atomicity admits chains "t1, t2, t3, ..." where
//! rolling back t(i+1) forces rolling back t(i) — and that determining a
//! safe commit point is therefore hard. These tests build such chains
//! deliberately and check the machinery handles them soundly.

use std::sync::Arc;

use multilevel_atomicity::cc::{oracle, MlaDetect, VictimPolicy};
use multilevel_atomicity::core::nest::Nest;
use multilevel_atomicity::model::program::{ScriptOp::*, ScriptProgram};
use multilevel_atomicity::model::{EntityId, TxnId};
use multilevel_atomicity::sim::control::{Control, Decision};
use multilevel_atomicity::sim::{run, SimConfig, World};
use multilevel_atomicity::txn::{EveryStep, NoBreakpoints, RuntimeSpec, TxnInstance};

fn e(x: u32) -> EntityId {
    EntityId(x)
}

/// A control that grants everything but, once a configured step count is
/// reached, aborts transaction 0 — whose published values everyone
/// downstream has read. Exercises deep cascades deterministically. Until
/// it fires nothing is rolled back, so the journal's length is the
/// number of steps performed.
struct CascadeTrigger {
    fire_at: u64,
    fired: bool,
}

impl Control for CascadeTrigger {
    fn name(&self) -> &'static str {
        "cascade-trigger"
    }

    fn decide(&mut self, _txn: TxnId, world: &World) -> Decision {
        if !self.fired && world.store.journal().len() as u64 >= self.fire_at {
            self.fired = true;
            return Decision::Abort(vec![TxnId(0)]);
        }
        Decision::Grant
    }
}

#[test]
fn chain_cascade_rolls_back_everyone_downstream() {
    // t0 writes e0; t1 reads e0, writes e1; t2 reads e1, writes e2; ...
    // Aborting t0 after the chain has formed must cascade through all.
    let n = 6u32;
    let instances: Vec<TxnInstance> = (0..n)
        .map(|i| {
            let ops = if i == 0 {
                vec![Add(e(0), 1), Add(e(100), 1)]
            } else {
                vec![Add(e(i - 1), 1), Add(e(i), 1)]
            };
            TxnInstance::new(
                TxnId(i),
                Arc::new(ScriptProgram::new(ops)),
                Arc::new(EveryStep { k: 3, level: 2 }),
            )
        })
        .collect();
    // Staggered arrivals so the chain forms in order.
    let arrivals: Vec<u64> = (0..n as u64).map(|i| i * 30).collect();
    let out = run(
        Nest::new(3, vec![vec![0]; n as usize]).unwrap(),
        instances,
        [],
        &arrivals,
        &SimConfig {
            latency_jitter: 0,
            ..SimConfig::seeded(50)
        },
        &mut CascadeTrigger {
            fire_at: 9, // most of the chain has run
            fired: false,
        },
    );
    assert_eq!(out.metrics.committed, n as u64, "all eventually commit");
    assert!(out.metrics.aborts >= 2, "the cascade must reach dependents");
    assert!(
        out.metrics.max_cascade() >= 2,
        "at least one multi-transaction cascade: {:?}",
        out.metrics.cascade_sizes
    );
    // The §6 hazard made visible: some already-committed transaction was
    // rolled back by the cascade.
    assert!(
        out.metrics.commit_rollbacks >= 1,
        "expected a commit rollback, got {:?}",
        out.metrics
    );
    // Despite the violence, the final history is sound.
    assert_eq!(out.store.value(e(100)), 1);
    for i in 1..n {
        assert_eq!(
            out.store.value(e(i - 1)),
            2,
            "entity e{} chain value",
            i - 1
        );
    }
}

#[test]
fn cascade_metrics_track_wasted_work() {
    let instances: Vec<TxnInstance> = (0..3u32)
        .map(|i| {
            TxnInstance::new(
                TxnId(i),
                Arc::new(ScriptProgram::new(vec![Add(e(0), 1), Add(e(1), 1)])),
                Arc::new(NoBreakpoints { k: 2 }),
            )
        })
        .collect();
    let out = run(
        Nest::flat(3),
        instances,
        [],
        &[0, 5, 10],
        &SimConfig::seeded(51),
        &mut CascadeTrigger {
            fire_at: 4,
            fired: false,
        },
    );
    assert_eq!(out.metrics.committed, 3);
    assert!(out.metrics.steps_undone > 0);
    assert!(out.metrics.wasted_work() > 0.0);
    assert_eq!(
        out.metrics.steps_performed - out.metrics.steps_undone,
        out.execution.len() as u64,
        "performed minus undone equals surviving history"
    );
}

#[test]
fn mla_detect_under_churn_remains_sound() {
    // High-contention synthetic chains under MLA-detect with frequent
    // aborts: the final history must still pass Theorem 2 and conserve
    // the chain arithmetic.
    let n = 10u32;
    let instances: Vec<TxnInstance> = (0..n)
        .map(|i| {
            TxnInstance::new(
                TxnId(i),
                Arc::new(ScriptProgram::new(vec![
                    Add(e(i % 3), 1),
                    Add(e((i + 1) % 3), 1),
                    Add(e((i + 2) % 3), 1),
                ])),
                Arc::new(NoBreakpoints { k: 2 }), // pure serializability mode
            )
        })
        .collect();
    let nest = Nest::flat(n as usize);
    let spec = RuntimeSpec::new(2);
    let mut control = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
    let out = run(
        nest.clone(),
        instances,
        [],
        &vec![0; n as usize],
        &SimConfig::seeded(52),
        &mut control,
    );
    assert_eq!(out.metrics.committed, n as u64);
    assert!(!out.metrics.timed_out);
    assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
    assert!(
        oracle::is_serializable_outcome(&out),
        "k=2 MLA-detect must behave as a serializability certifier"
    );
    let total: i64 = (0..3).map(|i| out.store.value(e(i))).sum();
    assert_eq!(total, n as i64 * 3);
}
