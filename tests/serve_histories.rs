//! Differential audit of the live service: every history `mla-serve`
//! records — real threads, MVCC storage, admission gated by MlaDetect or
//! MlaPrevent — must pass the Theorem 2 oracle, exactly like the
//! simulator's histories do.
//!
//! The service runs are nondeterministic (OS scheduling), so these tests
//! assert *universally quantified* properties: correctability of the
//! recorded history, per-entity ticket monotonicity, conservation of the
//! transferred totals, and full-commit drains.

use std::collections::HashMap;
use std::time::Duration;

use multilevel_atomicity::serve::{
    audit_full, audit_windowed, contended_load, partitioned_load, run, SchedKind, ServeConfig,
    ServeLoad,
};

fn config(sched: SchedKind) -> ServeConfig {
    ServeConfig {
        sched,
        workers: 3,
        deadline: Duration::from_secs(120),
        ..Default::default()
    }
}

/// Drains `load` under `config` and runs the full battery of
/// history-level checks. Returns the committed count.
fn drain_and_audit(load: &ServeLoad, config: &ServeConfig) -> u64 {
    let report = run(load, config);
    assert!(report.clean, "drain must complete before the deadline");
    assert_eq!(report.snapshot_violations, 0, "snapshot probes must hold");
    assert_eq!(
        report.committed,
        load.txn_count() as u64,
        "every submitted transaction must commit"
    );

    // The theorem oracle: the recorded history is correctable.
    let audit = audit_full(&report.history, &load.workload.nest, &load.workload.spec());
    assert!(audit.passed(), "recorded history must be correctable");
    // The windowed variant agrees on a projection of the same history.
    let windowed = audit_windowed(
        &report.history,
        &load.workload.nest,
        &load.workload.spec(),
        64,
    );
    assert!(windowed.passed(), "windowed audit must concur");

    // Histories come out in global admission-ticket order, which must be
    // per-session (= per-transaction) program order: seq values of each
    // transaction appear contiguous ascending.
    let mut seqs: HashMap<u32, u32> = HashMap::new();
    for step in &report.history {
        let next = seqs.entry(step.txn.0).or_insert(0);
        assert_eq!(
            step.seq, *next,
            "txn {} steps out of program order",
            step.txn.0
        );
        *next += 1;
    }
    report.committed
}

#[test]
fn partitioned_histories_pass_the_oracle_under_both_schedulers() {
    let load = partitioned_load(8, 4);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        assert_eq!(drain_and_audit(&load, &config(sched)), 32);
    }
}

#[test]
fn certified_partitioned_history_passes_the_oracle() {
    let load = partitioned_load(6, 8);
    let mut cfg = config(SchedKind::Prevent);
    cfg.certified = true;
    assert_eq!(drain_and_audit(&load, &cfg), 48);
}

#[test]
fn contended_histories_pass_the_oracle_and_conserve_money() {
    // Transfers race atomic audits over one shared account ring: the
    // shape that actually defers, waits, and cascades.
    let load = contended_load(6, 6, 4, 3);
    for sched in [SchedKind::Detect, SchedKind::Prevent] {
        let report = run(&load, &config(sched));
        assert!(report.clean);
        assert_eq!(report.committed, 36);
        let audit = audit_full(&report.history, &load.workload.nest, &load.workload.spec());
        assert!(audit.passed(), "contended history must be correctable");

        // Conservation: replaying the last write per entity sums to the
        // initial ring total.
        let mut last: HashMap<u32, i64> = HashMap::new();
        for step in &report.history {
            last.insert(step.entity.0, step.wrote);
        }
        let total: i64 = (0..4u32)
            .map(|a| last.get(&a).copied().unwrap_or(100))
            .sum();
        assert_eq!(total, load.initial_total, "ring total must be conserved");
    }
}
