//! Experiment implementations E1–E13 and A2–A8 (A6 retired). Each returns a [`Table`];
//! the `quick` flag shrinks sweeps for CI/tests.

pub mod a2;
pub mod a3;
pub mod a4;
pub mod a5;
pub mod a7;
pub mod a8;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use mla_model::{Execution, TxnId};
use mla_workload::Workload;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::table::Table;

/// Drives a workload's system under a uniformly random interleaving
/// (one random live transaction per step) until every transaction
/// finishes or `max_steps` is reached. Produces a genuine, value-correct
/// execution.
pub fn random_execution(wl: &Workload, rng: &mut SmallRng, max_steps: usize) -> Execution {
    let sys = wl.system();
    let mut schedule: Vec<TxnId> = Vec::new();
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

/// The seed set for a sweep.
pub fn seeds(quick: bool) -> Vec<u64> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 3, 4, 5]
    }
}

/// Every experiment, rendered in order. The `all_experiments` binary and
/// EXPERIMENTS.md regeneration use this.
pub fn run_all(quick: bool) -> Vec<Table> {
    vec![
        e1::run(quick),
        e2::run(quick),
        e3::run(quick),
        e4::run(quick),
        e5::run(quick),
        e6::run(quick),
        e7::run(quick),
        e8::run(quick),
        e9::run(quick),
        e10::run(quick),
        e11::run(quick),
        e12::run(quick),
        e13::run(quick),
        a4::run(quick),
        a5::run(quick),
        a7::run(quick),
        a8::run(quick),
        a2::run(quick),
        a3::run(quick),
    ]
}
