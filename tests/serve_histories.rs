//! Differential audit of the live service: every history `mla-serve`
//! records — real threads, MVCC storage, admission gated by MlaDetect or
//! MlaPrevent — must pass `mla-check`'s Theorem 2 check, exactly like
//! the simulator's histories do.
//!
//! The service runs are nondeterministic (OS scheduling), so these tests
//! assert *universally quantified* properties: correctability of the
//! recorded history, per-entity value chains in ticket order,
//! conservation of the transferred totals, and full-commit drains.

use std::collections::HashMap;
use std::time::Duration;

use multilevel_atomicity::check::{check, History, Verdict};
use multilevel_atomicity::model::{Execution, Step};
use multilevel_atomicity::serve::{
    contended_load, partitioned_load, run, SchedKind, ServeConfig, ServeLoad, ServeReport,
};

fn config(sched: SchedKind) -> ServeConfig {
    ServeConfig {
        sched,
        workers: 3,
        deadline: Duration::from_secs(120),
        ..Default::default()
    }
}

/// Asserts that `history`, recorded under `load`, passes `mla-check`,
/// naming the violation otherwise.
fn assert_correctable(load: &ServeLoad, history: &[Step]) {
    let exec = Execution::new(history.to_vec()).expect("service histories are seq-contiguous");
    let h = History::from_execution(&exec, &load.workload.nest, &load.workload.spec())
        .expect("service history matches its nest and spec");
    if let Verdict::Fail { violation } = check(&h) {
        panic!("recorded history must be correctable: {violation}");
    }
}

/// Drains `load` under `config` and runs the full battery of
/// history-level checks. Returns the report.
fn drain_and_audit(load: &ServeLoad, config: &ServeConfig) -> ServeReport {
    let report = run(load, config);
    assert!(report.clean, "drain must complete before the deadline");
    assert_eq!(report.snapshot_violations, 0, "snapshot probes must hold");
    // Every wait is a waits-for edge the scheduler checks, so the stall
    // breaker has nothing to break.
    assert_eq!(
        report.stall_breaks, 0,
        "no drain may need the stall breaker"
    );
    assert_eq!(
        report.committed,
        load.txn_count() as u64,
        "every submitted transaction must commit"
    );
    // The drain's last GC pass folds every version: nothing is left
    // running, so nothing can be undone.
    assert!(report.gc_folded > 0, "GC must fold");
    assert_eq!(report.live_versions, 0, "a clean drain folds every version");

    // The theorem oracle: the recorded history is correctable.
    assert_correctable(load, &report.history);
    assert_program_order(&report.history);
    assert_value_chains(load, &report.history);
    report
}

/// Conservation on a contended load: replaying the last write per
/// account sums to the initial ring total.
fn assert_conserved(load: &ServeLoad, history: &[Step]) {
    let mut last: HashMap<u32, i64> = load
        .workload
        .initial
        .iter()
        .map(|&(e, v)| (e.0, v))
        .collect();
    for step in history {
        last.insert(step.entity.0, step.wrote);
    }
    assert_eq!(
        last.values().sum::<i64>(),
        load.initial_total,
        "ring total must be conserved"
    );
}

/// Histories come out in ticket order, so on each entity every step
/// must observe what the previous step on it wrote, and the first one
/// the load's initial value. A step drawn out of per-entity order, or a
/// step left behind by an undo that removed the write it observed,
/// breaks the chain.
fn assert_value_chains(load: &ServeLoad, history: &[Step]) {
    let mut current: HashMap<u32, i64> = load
        .workload
        .initial
        .iter()
        .map(|&(e, v)| (e.0, v))
        .collect();
    for (i, step) in history.iter().enumerate() {
        let before = current.insert(step.entity.0, step.wrote).unwrap_or(0);
        assert_eq!(
            step.observed, before,
            "history step {i} (txn {} seq {}) observed {} on entity {}, \
             but the previous step on it left {before}",
            step.txn.0, step.seq, step.observed, step.entity.0
        );
    }
}

/// Histories come out in global admission-ticket order, which must be
/// per-session (= per-transaction) program order: seq values of each
/// transaction appear contiguous ascending.
fn assert_program_order(history: &[Step]) {
    let mut seqs: HashMap<u32, u32> = HashMap::new();
    for step in history {
        let next = seqs.entry(step.txn.0).or_insert(0);
        assert_eq!(
            step.seq, *next,
            "txn {} steps out of program order",
            step.txn.0
        );
        *next += 1;
    }
}

#[test]
fn partitioned_histories_pass_the_oracle_under_both_schedulers() {
    let load = partitioned_load(8, 4);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        assert_eq!(drain_and_audit(&load, &config(sched)).committed, 32);
    }
}

#[test]
fn certified_partitioned_history_passes_the_oracle() {
    let load = partitioned_load(6, 8);
    let mut cfg = config(SchedKind::Prevent);
    cfg.certified = true;
    assert_eq!(drain_and_audit(&load, &cfg).committed, 48);
}

#[test]
fn contended_histories_pass_the_oracle_and_conserve_money() {
    // Transfers race atomic audits over one shared account ring: the
    // shape that actually defers, waits, and cascades. The second input
    // runs GC every 100 µs, so folding races the undo cascade (and the
    // debug build's assertion that no cascade undoes a record below
    // GC's undo floor).
    let load = contended_load(6, 6, 4, 3);
    let gc_intervals = [
        ServeConfig::default().gc_interval,
        Some(Duration::from_micros(100)),
    ];
    for (sched, gc_interval) in [SchedKind::Detect, SchedKind::Prevent]
        .into_iter()
        .flat_map(|s| gc_intervals.map(|gc| (s, gc)))
    {
        let report = run(
            &load,
            &ServeConfig {
                gc_interval,
                ..config(sched)
            },
        );
        assert!(report.clean);
        assert_eq!(report.stall_breaks, 0);
        assert_eq!(report.committed, 36);
        assert!(report.gc_folded > 0);
        assert_eq!(report.live_versions, 0);
        assert_correctable(&load, &report.history);
        assert_program_order(&report.history);
        assert_value_chains(&load, &report.history);
        assert_conserved(&load, &report.history);
    }
}

#[test]
fn four_worker_contended_histories_chain_values_in_ticket_order() {
    // Four workers race over four accounts, every other transaction an
    // audit reading the whole ring: same-entity steps from different
    // workers meet at the gate, which alone orders their tickets.
    let load = contended_load(16, 8, 4, 2);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        let cfg = ServeConfig {
            workers: 4,
            ..config(sched)
        };
        let report = drain_and_audit(&load, &cfg);
        assert_eq!(report.committed, 128);
        assert_conserved(&load, &report.history);
    }
}

#[test]
fn one_worker_contended_prevent_history_passes_every_check() {
    // One worker serves all sixteen sessions off the run queue. It
    // keeps each transaction until it commits, so the sessions take
    // turns one transaction at a time and nothing defers. Every eighth
    // transaction is an audit over the whole ring.
    let load = contended_load(16, 32, 16, 8);
    let cfg = ServeConfig {
        workers: 1,
        ..config(SchedKind::Prevent)
    };
    let report = drain_and_audit(&load, &cfg);
    assert_eq!(report.committed, 16 * 32);
    assert_conserved(&load, &report.history);
}
