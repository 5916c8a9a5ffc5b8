//! A7 — the certified fast path: static safety analysis replacing
//! runtime closure maintenance.
//!
//! `mla-lint`'s third pass applies the §5 characterization *statically*:
//! it builds a may-conflict graph over breakpoint-free segments from the
//! transactions' entity footprints and, when no mixed cycle is possible
//! under any interleaving, issues a [`StaticCert`](mla_core::StaticCert).
//! A certified scheduler then answers every in-footprint decision with
//! an O(log n) footprint guard instead of incremental closure
//! maintenance. A7 measures what that buys and pins what it must not
//! change.
//!
//! Replay rows decide the partitioned workload's canonical
//! [`decision_stream`]
//! twice: through the closure engine and through the bare certificate
//! guard. Both
//! must reproduce the stream byte for byte; only wall-clock may move,
//! and in the full sweep the guard must win by ≥ 1.5x.
//!
//! Simulator rows run the full scheduler loop. `mla-detect/certified`
//! must produce the *identical history* to `mla-detect` — the
//! certificate only skips work the engine would have done to reach the
//! same Grant — with every decision counted in
//! [`Metrics::certified_skips`](mla_sim::Metrics) and zero closure cost.
//! `mla-prevent/certified` is sound but **not** history-identical to
//! `mla-prevent`: the uncertified preventer delays steps at breakpoints
//! it cannot prove safe, while the certificate proves every
//! interleaving correctable up front, so the certified run grants
//! everything with zero defers (`same-history` reads `no` by design;
//! `run_cell` still verifies the outcome against Theorem 2).
//!
//! The trailing `banking` row is the negative control: its audits close
//! mixed cycles through level-2 transfer segments, `certify_workload`
//! refuses a certificate, and the fast path is simply unavailable — no
//! silent unsound speedup.

use std::time::Instant;

use mla_cc::VictimPolicy;
use mla_core::ClosureEngine;
use mla_workload::banking::{generate as generate_banking, BankingConfig};
use mla_workload::partitioned::{decision_stream, generate, PartitionedConfig};

use crate::runner::{run_cell, ControlKind};
use crate::table::{f2, Table};

/// Runs A7.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "A7: certified fast path vs incremental closure maintenance",
        &[
            "row",
            "cert",
            "wall-ms",
            "speedup",
            "cert-skips",
            "defers",
            "closure-rows",
            "same-history",
        ],
    );
    let config = if quick {
        PartitionedConfig {
            partitions: 4,
            txns_per_partition: 20,
            scanner_len: 20,
            arrival_spacing: 2,
        }
    } else {
        PartitionedConfig::default()
    };
    let generated = generate(config.clone());
    let wl = &generated.workload;
    let certification = mla_lint::certify_workload(wl);
    let cert = certification
        .cert
        .expect("the partitioned workload must earn a static certificate");
    let stream = decision_stream(&config);

    // Replay baseline: the closure engine decides the stream.
    let mut engine = ClosureEngine::new(wl.nest.clone(), wl.spec());
    let started = Instant::now();
    let verdicts = engine.decide_batch(&stream);
    let engine_wall = started.elapsed().as_secs_f64();
    assert!(verdicts.iter().all(|v| v.is_ok()));
    assert_eq!(engine.execution().steps(), stream.as_slice());
    let engine_rows = engine.counters().rows_touched;
    table.row(vec![
        "replay/engine".to_string(),
        "-".to_string(),
        f2(engine_wall * 1e3),
        f2(1.0),
        "0".to_string(),
        "-".to_string(),
        engine_rows.to_string(),
        "yes".to_string(),
    ]);

    // Replay fast path: the same stream through the bare footprint
    // guard, maintaining the history the granted steps build.
    let started = Instant::now();
    let mut history = Vec::with_capacity(stream.len());
    let mut skips = 0u64;
    for step in &stream {
        assert!(
            cert.covers(step.txn, step.entity),
            "canonical stream strayed outside the certified footprints"
        );
        skips += 1;
        history.push(*step);
    }
    let guard_wall = started.elapsed().as_secs_f64();
    assert_eq!(history, stream, "the guard grants the stream verbatim");
    let replay_speedup = if guard_wall > 0.0 {
        engine_wall / guard_wall
    } else {
        f64::INFINITY
    };
    table.row(vec![
        "replay/cert".to_string(),
        "issued".to_string(),
        f2(guard_wall * 1e3),
        f2(replay_speedup.min(9999.0)),
        skips.to_string(),
        "-".to_string(),
        "0".to_string(),
        "yes".to_string(),
    ]);
    if !quick {
        assert!(
            replay_speedup >= 1.5,
            "the certificate guard must beat closure maintenance by 1.5x \
             on the partitioned stream (got {replay_speedup:.2}x)"
        );
    }

    // Simulator rows: full scheduler loop, certificate against engine.
    let policy = VictimPolicy::FewestSteps;
    let seed = 0xA7;
    let detect = run_cell(wl, ControlKind::MlaDetect(policy), seed);
    let detect_cert = run_cell(wl, ControlKind::MlaDetectCertified(policy), seed);
    assert_eq!(
        detect_cert.outcome.execution, detect.outcome.execution,
        "certified detection must replicate the uncertified history"
    );
    let dm = &detect.outcome.metrics;
    let cm = &detect_cert.outcome.metrics;
    assert_eq!(cm.committed, dm.committed);
    assert!(cm.certified_skips > 0, "the fast path must actually fire");
    assert_eq!(
        cm.decision_cost.rows_touched, 0,
        "a fully certified run must never touch the closure"
    );
    assert_eq!(dm.certified_skips, 0);

    let prevent = run_cell(wl, ControlKind::MlaPrevent(policy), seed);
    let prevent_cert = run_cell(wl, ControlKind::MlaPreventCertified(policy), seed);
    let pm = &prevent.outcome.metrics;
    let qm = &prevent_cert.outcome.metrics;
    assert_eq!(qm.committed, pm.committed);
    assert!(qm.certified_skips > 0);
    assert_eq!(
        qm.defers, 0,
        "the certificate discharges every breakpoint wait up front"
    );
    for (label, cell, base, same) in [
        ("sim/detect", &detect, None, "-"),
        ("sim/detect+cert", &detect_cert, Some(&detect), "yes"),
        ("sim/prevent", &prevent, None, "-"),
        ("sim/prevent+cert", &prevent_cert, Some(&prevent), "no"),
    ] {
        let m = &cell.outcome.metrics;
        let speedup = match base {
            Some(b) if cell.wall_seconds > 0.0 => f2(b.wall_seconds / cell.wall_seconds),
            _ => "-".to_string(),
        };
        table.row(vec![
            label.to_string(),
            if base.is_some() { "issued" } else { "-" }.to_string(),
            f2(cell.wall_seconds * 1e3),
            speedup,
            m.certified_skips.to_string(),
            m.defers.to_string(),
            m.decision_cost.rows_touched.to_string(),
            same.to_string(),
        ]);
    }

    // Negative control: banking's audits deny certification.
    let banking = generate_banking(if quick {
        BankingConfig {
            transfers: 8,
            ..BankingConfig::default()
        }
    } else {
        BankingConfig::default()
    });
    let denial = mla_lint::certify_workload(&banking.workload);
    assert!(
        denial.cert.is_none(),
        "banking must not certify: the audits close mixed cycles"
    );
    table.row(vec![
        "banking".to_string(),
        "denied".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a7_certifies_partitioned_and_denies_banking() {
        let t = run(true);
        // 2 replay rows + 4 simulator rows + the banking denial.
        assert_eq!(t.len(), 7);
        assert_eq!(t.cell(1, 1), "issued");
        assert_eq!(t.cell(1, 7), "yes");
        // The certified guard replays with zero closure rows.
        assert_eq!(t.cell(1, 6), "0");
        assert_ne!(t.cell(0, 6), "0");
        // Certified detection: history-identical, all decisions skipped.
        assert_eq!(t.cell(3, 7), "yes");
        assert_ne!(t.cell(3, 4), "0");
        assert_eq!(t.cell(3, 6), "0");
        // Certified prevention: sound but deliberately not identical.
        assert_eq!(t.cell(5, 7), "no");
        assert_eq!(t.cell(5, 5), "0");
        // The negative control stays denied.
        assert_eq!(t.cell(6, 1), "denied");
    }
}
