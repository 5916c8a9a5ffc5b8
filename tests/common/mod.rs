//! Helpers shared by the root integration tests.

// Each suite that includes this module uses only some of its helpers.
#![allow(dead_code)]

use std::collections::HashMap;

use multilevel_atomicity::model::{EntityId, Execution, Value};
use multilevel_atomicity::workload::banking::{generate, Banking, BankingConfig};
use multilevel_atomicity::workload::Workload;
use rand::rngs::SmallRng;
use rand::Rng;

/// The §2 banking shape `perfbench`'s `replay_audit` replays: 4 families
/// of 4 accounts, Zipf 0.6 account choice, 1–3 withdrawal sources per
/// transfer, and one bank audit plus two credit audits per 512
/// transfers.
pub fn replay_audit_banking(transfers: usize, seed: u64) -> Banking {
    let per = transfers.div_ceil(512);
    generate(BankingConfig {
        families: 4,
        accounts_per_family: 4,
        transfers,
        zipf_theta: 0.6,
        sources_min: 1,
        sources_max: 3,
        bank_audits: per,
        credit_audits: 2 * per,
        seed,
        ..BankingConfig::default()
    })
}

/// Drives `wl`'s system under a uniformly random interleaving (one
/// random live transaction per step) until every transaction finishes or
/// `max_steps` is reached. The execution is genuine and value-correct:
/// each pick steps that transaction's instance against one running value
/// map. A transaction leaves the draw only when a pick finds it finished,
/// so a finished transaction still costs a draw, exactly as when the
/// whole schedule was replayed after every pick.
pub fn random_execution(wl: &Workload, rng: &mut SmallRng, max_steps: usize) -> Execution {
    let mut instances = wl.instances();
    let mut values: HashMap<EntityId, Value> = wl.initial.iter().copied().collect();
    let mut finished = vec![false; instances.len()];
    let mut steps = Vec::new();
    while steps.len() < max_steps {
        let live: Vec<usize> = (0..instances.len()).filter(|&t| !finished[t]).collect();
        if live.is_empty() {
            break;
        }
        let t = live[rng.gen_range(0..live.len())];
        let Some(entity) = instances[t].next_entity() else {
            finished[t] = true;
            continue;
        };
        let value = values.entry(entity).or_insert(0);
        let step = instances[t].perform(*value);
        *value = step.wrote;
        steps.push(step);
    }
    Execution::new(steps).expect("per-transaction sequences are contiguous")
}
