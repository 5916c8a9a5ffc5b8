//! The event loop: migrating transactions over processors. Grants and
//! cascading rollbacks change the [`World`] through [`World::perform`]
//! and [`World::roll_back`]; the clock, the processor queues and the
//! metrics are the loop's own.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mla_core::nest::Nest;
use mla_model::{EntityId, Execution, TxnId, Value};
use mla_storage::{Cause, Store};
use mla_txn::TxnInstance;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::{
    SimConfig, LATENCY_LOCAL, MAX_EVENTS, PROCESSORS, RESTART_BASE, RETRY_DELAY, STEP_SERVICE,
};
use crate::control::{Control, Decision};
use crate::metrics::Metrics;
use crate::world::{TxnStatus, World};

/// The result of a simulation run.
pub struct SimOutcome {
    /// Collected metrics.
    pub metrics: Metrics,
    /// The final (surviving) execution, for post-hoc Theorem 2 checking.
    pub execution: Execution,
    /// Final entity values.
    pub store: Store,
    /// Per-transaction attempt counts at the end of the run.
    pub attempts: Vec<u32>,
}

/// An event: transaction `txn`'s `attempt`-th incarnation requests its
/// next step at `time`. Ordered by time, then insertion sequence.
type Event = Reverse<(u64, u64, u32, u32)>;

/// Runs the simulation to completion (all transactions committed) or
/// until the event budget is exhausted.
///
/// * `nest` — the k-nest over `instances` (dense `TxnId`s).
/// * `instances` — one runtime transaction per id.
/// * `initial_values` — entity initial values (absent = 0).
/// * `arrivals` — injection time per transaction (index = id).
/// * `control` — the concurrency control under test.
pub fn run(
    nest: Nest,
    instances: Vec<TxnInstance>,
    initial_values: impl IntoIterator<Item = (EntityId, Value)>,
    arrivals: &[u64],
    config: &SimConfig,
    control: &mut dyn Control,
) -> SimOutcome {
    assert_eq!(
        instances.len(),
        arrivals.len(),
        "one arrival time per transaction"
    );
    assert!(
        nest.txn_count() >= instances.len(),
        "nest must cover every transaction"
    );
    let n = instances.len();
    let mut world = World {
        store: Store::new(initial_values),
        instances,
        status: vec![TxnStatus::Running; n],
        nest,
    };
    let mut clock: u64 = 0;
    let mut metrics = Metrics::default();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut queue: BinaryHeap<Event> = BinaryHeap::new();
    let mut event_seq: u64 = 0;
    let mut busy_until = [0u64; PROCESSORS];
    let mut committed_at: Vec<Option<u64>> = vec![None; n];

    let push = |queue: &mut BinaryHeap<Event>, seq: &mut u64, time: u64, txn: u32, attempt: u32| {
        queue.push(Reverse((time, *seq, txn, attempt)));
        *seq += 1;
    };

    for (i, &at) in arrivals.iter().enumerate() {
        // Empty transactions commit instantly at injection.
        if world.instances[i].is_finished() {
            world.status[i] = TxnStatus::Committed;
            committed_at[i] = Some(at);
            metrics.committed += 1;
        } else {
            push(&mut queue, &mut event_seq, at, i as u32, 1);
        }
    }

    let mut events_processed: u64 = 0;
    while let Some(Reverse((time, _, txn_raw, attempt))) = queue.pop() {
        if metrics.committed as usize == n {
            break;
        }
        events_processed += 1;
        if events_processed > MAX_EVENTS {
            metrics.timed_out = true;
            break;
        }
        let txn = TxnId(txn_raw);
        let ti = txn.index();
        // Stale events: the transaction was rolled back (attempt bumped)
        // or committed since this event was scheduled.
        if world.instances[ti].attempts() != attempt
            || world.status[ti] == TxnStatus::Committed
            || world.instances[ti].is_finished()
        {
            continue;
        }
        world.status[ti] = TxnStatus::Running;
        let entity = world.instances[ti]
            .next_entity()
            .expect("running transaction has a next entity");
        let proc = entity.index() % busy_until.len();
        if busy_until[proc] > time {
            // Processor busy: the message waits in its queue.
            push(
                &mut queue,
                &mut event_seq,
                busy_until[proc],
                txn_raw,
                attempt,
            );
            continue;
        }
        clock = time;

        match control.decide(txn, &world) {
            Decision::Grant => {
                // Only granted steps (and rollback work) occupy the
                // processor: a deferred request is a scheduler-queue
                // check, not service — charging it service time lets
                // waiting polls starve the actual work at scale.
                busy_until[proc] = time + STEP_SERVICE;
                world.perform(txn, control);
                metrics.steps_performed += 1;
                if world.status[ti] == TxnStatus::Committed {
                    committed_at[ti] = Some(time + STEP_SERVICE);
                    metrics.committed += 1;
                } else {
                    let next_entity = world.instances[ti]
                        .next_entity()
                        .expect("unfinished transaction continues");
                    let next_proc = next_entity.index() % busy_until.len();
                    let latency = if next_proc == proc {
                        LATENCY_LOCAL
                    } else {
                        config.latency_base
                            + if config.latency_jitter > 0 {
                                rng.gen_range(0..=config.latency_jitter)
                            } else {
                                0
                            }
                    };
                    push(
                        &mut queue,
                        &mut event_seq,
                        time + STEP_SERVICE + latency,
                        txn_raw,
                        attempt,
                    );
                }
            }
            Decision::Defer => {
                metrics.defers += 1;
                push(
                    &mut queue,
                    &mut event_seq,
                    time + STEP_SERVICE + RETRY_DELAY,
                    txn_raw,
                    attempt,
                );
            }
            Decision::Abort(victims) => {
                busy_until[proc] = time + STEP_SERVICE;
                assert!(!victims.is_empty(), "control must name at least one victim");
                let (rollback, had_committed) = world.roll_back(victims, control);
                metrics.steps_undone += rollback.undone.len() as u64;
                metrics.cascade_sizes.push(rollback.victims.len());
                metrics.commit_rollbacks += had_committed.len() as u64;
                metrics.committed -= had_committed.len() as u64;
                for v in had_committed {
                    committed_at[v.index()] = None;
                }
                for &(v, cause) in &rollback.victims {
                    metrics.aborts += 1;
                    if cause == Cause::Cascaded {
                        metrics.cascade_aborts += 1;
                    }
                    let attempts = world.instances[v.index()].attempts();
                    let backoff = RESTART_BASE
                        * (1u64 << (attempts.saturating_sub(1)).min(5) as u64)
                        + rng.gen_range(0..=RESTART_BASE);
                    push(
                        &mut queue,
                        &mut event_seq,
                        time + STEP_SERVICE + backoff,
                        v.0,
                        attempts,
                    );
                }
                if !rollback.contains(txn) {
                    // Requester retries once the victims are out of the way.
                    push(
                        &mut queue,
                        &mut event_seq,
                        time + STEP_SERVICE + RETRY_DELAY,
                        txn_raw,
                        attempt,
                    );
                }
            }
        }
    }

    metrics.makespan = clock;
    metrics.certified_skips = control.certified_skips();
    metrics.certified_skips_per_universe = control.certified_skips_per_universe();
    metrics.cert_re_arms = control.cert_re_arms();
    metrics.decision_cost = control.decision_cost().unwrap_or_default();
    metrics.commit_latencies = committed_at
        .iter()
        .zip(arrivals)
        .filter_map(|(c, &a)| c.map(|c| c.saturating_sub(a)))
        .collect();
    SimOutcome {
        execution: world.store.execution(),
        attempts: world.instances.iter().map(|i| i.attempts()).collect(),
        metrics,
        store: world.store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::FreeForAll;
    use mla_model::program::{ScriptOp::*, ScriptProgram};
    use mla_txn::NoBreakpoints;
    use std::sync::Arc;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    fn transfer(from: u32, to: u32, amount: Value) -> Arc<ScriptProgram> {
        Arc::new(ScriptProgram::new(vec![
            Add(e(from), -amount),
            Add(e(to), amount),
        ]))
    }

    fn instances(programs: Vec<Arc<ScriptProgram>>, k: usize) -> Vec<TxnInstance> {
        programs
            .into_iter()
            .enumerate()
            .map(|(i, p)| TxnInstance::new(TxnId(i as u32), p, Arc::new(NoBreakpoints { k })))
            .collect()
    }

    #[test]
    fn free_for_all_completes_and_conserves_money() {
        let programs = vec![transfer(0, 1, 10), transfer(1, 2, 5), transfer(2, 0, 3)];
        let nest = Nest::flat(3);
        let out = run(
            nest,
            instances(programs, 2),
            [(e(0), 100), (e(1), 100), (e(2), 100)],
            &[0, 0, 0],
            &SimConfig::seeded(1),
            &mut FreeForAll,
        );
        assert_eq!(out.metrics.committed, 3);
        assert!(!out.metrics.timed_out);
        assert_eq!(out.metrics.steps_performed, 6);
        assert_eq!(out.metrics.aborts, 0);
        let total: Value = (0..3).map(|i| out.store.value(e(i))).sum();
        assert_eq!(total, 300, "transfers conserve money");
        assert_eq!(out.execution.len(), 6);
        assert_eq!(out.metrics.commit_latencies.len(), 3);
        assert!(out.metrics.makespan > 0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mk = || {
            let programs = vec![transfer(0, 1, 10), transfer(1, 0, 5), transfer(0, 1, 2)];
            run(
                Nest::flat(3),
                instances(programs, 2),
                [(e(0), 50), (e(1), 50)],
                &[0, 3, 6],
                &SimConfig::seeded(99),
                &mut FreeForAll,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.execution, b.execution);
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }

    #[test]
    fn different_seeds_can_differ() {
        // Not guaranteed for every pair, but these seeds produce different
        // jitter and hence different interleavings for racing transfers.
        let mk = |seed| {
            let programs = vec![transfer(0, 1, 1), transfer(1, 0, 1), transfer(0, 1, 1)];
            run(
                Nest::flat(3),
                instances(programs, 2),
                [(e(0), 9), (e(1), 9)],
                &[0, 0, 0],
                &SimConfig::seeded(seed),
                &mut FreeForAll,
            )
            .metrics
            .makespan
        };
        let spans: std::collections::HashSet<u64> = (0..8).map(mk).collect();
        assert!(spans.len() > 1, "jitter should vary makespans");
    }

    /// A control that aborts the *other* transaction the first time it is
    /// asked about t1's second step, to exercise the cascade machinery.
    struct AbortOnce {
        fired: bool,
    }

    impl Control for AbortOnce {
        fn name(&self) -> &'static str {
            "abort-once"
        }

        fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
            if !self.fired && txn == TxnId(1) && world.instance(txn).seq() == 1 {
                self.fired = true;
                return Decision::Abort(vec![TxnId(0)]);
            }
            Decision::Grant
        }
    }

    #[test]
    fn abort_rolls_back_and_restarts() {
        // Both transactions hit entity 0 first, so aborting t0 after t1
        // also touched e0 cascades into t1.
        let programs = vec![transfer(0, 1, 10), transfer(0, 2, 5)];
        let out = run(
            Nest::flat(2),
            instances(programs, 2),
            [(e(0), 100)],
            &[0, 2],
            &SimConfig::seeded(7),
            &mut AbortOnce { fired: false },
        );
        assert_eq!(out.metrics.committed, 2, "both eventually commit");
        assert!(out.metrics.aborts >= 1);
        assert!(out.metrics.steps_undone >= 1);
        assert!(!out.metrics.timed_out);
        // Money conserved despite rollback.
        let total = out.store.value(e(0)) + out.store.value(e(1)) + out.store.value(e(2));
        assert_eq!(total, 100);
        // The final execution replays cleanly.
        assert!(out.execution.len() >= 4);
        assert!(out.attempts.iter().any(|&a| a > 1));
    }

    #[test]
    fn empty_transaction_commits_immediately() {
        let programs = vec![Arc::new(ScriptProgram::new(vec![]))];
        let out = run(
            Nest::flat(1),
            instances(programs, 2),
            [],
            &[5],
            &SimConfig::seeded(3),
            &mut FreeForAll,
        );
        assert_eq!(out.metrics.committed, 1);
        assert_eq!(out.metrics.steps_performed, 0);
    }

    #[test]
    fn staggered_arrivals_respected() {
        let programs = vec![transfer(0, 1, 1), transfer(2, 3, 1)];
        let out = run(
            Nest::flat(2),
            instances(programs, 2),
            [(e(0), 10), (e(2), 10)],
            &[0, 1000],
            &SimConfig::seeded(11),
            &mut FreeForAll,
        );
        // Second transaction cannot commit before its injection.
        assert!(out.metrics.makespan >= 1000);
        assert_eq!(out.metrics.committed, 2);
    }

    #[test]
    fn processor_serialization_orders_same_entity_steps() {
        // Many transactions hammering one entity: the journal must be a
        // valid value chain (each observed equals predecessor's wrote).
        let programs: Vec<Arc<ScriptProgram>> = (0..10)
            .map(|_| Arc::new(ScriptProgram::new(vec![Add(e(0), 1)])))
            .collect();
        let out = run(
            Nest::flat(10),
            instances(programs, 2),
            [],
            &[0; 10],
            &SimConfig::seeded(5),
            &mut FreeForAll,
        );
        assert_eq!(out.store.value(e(0)), 10);
        let mut prev = 0;
        for s in out.execution.steps() {
            assert_eq!(s.observed, prev);
            prev = s.wrote;
        }
    }
}
