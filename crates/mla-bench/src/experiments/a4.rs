//! A4 — incremental vs. full-rebuild closure maintenance.
//!
//! The MLA detector keeps one coherent-closure engine alive across
//! decisions and feeds it deltas; the pre-incremental design recomputed
//! the closure of the whole window per decision. `mla-detect/rebuild`
//! forces that old cost model through the identical decision procedure
//! (`ClosureEngine::force_rebuild` before every step), so any difference
//! is pure maintenance cost: the decisions, and hence the history, are
//! the same by construction.
//!
//! `rows/dec` is the deterministic work measure (closure rows processed
//! per decision); wall-clock is reported alongside. The incremental
//! column's rebuild count is zero: aborts rederive the rows they touch
//! and compaction renumbers, so only the forced arm rebuilds, once per
//! decision, rederiving every live row in place.

use mla_cc::VictimPolicy;
use mla_workload::banking::{generate, BankingConfig};

use crate::runner::{run_cell, ControlKind};
use crate::table::{f2, Table};

/// Runs A4.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "A4: incremental vs full-rebuild closure maintenance (mla-detect)",
        &[
            "transfers",
            "incr-ms",
            "rebuild-ms",
            "speedup",
            "rows/dec-incr",
            "rows/dec-full",
            "rebuilds-incr",
            "rebuilds-full",
            "edges",
            "same-history",
        ],
    );
    let loads: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 96] };
    let policy = VictimPolicy::FewestSteps;
    for &transfers in loads {
        let b = generate(BankingConfig {
            transfers,
            bank_audits: 1,
            credit_audits: 1,
            arrival_spacing: 2, // dense injection: large live windows
            ..BankingConfig::default()
        });
        let inc = run_cell(&b.workload, ControlKind::MlaDetect(policy), 0xA4);
        let full = run_cell(&b.workload, ControlKind::MlaDetectFullRebuild(policy), 0xA4);
        let same = inc.outcome.execution == full.outcome.execution;
        let mi = &inc.outcome.metrics;
        let mf = &full.outcome.metrics;
        table.row(vec![
            transfers.to_string(),
            f2(inc.wall_seconds * 1e3),
            f2(full.wall_seconds * 1e3),
            f2(if inc.wall_seconds > 0.0 {
                full.wall_seconds / inc.wall_seconds
            } else {
                0.0
            }),
            f2(mi.rows_per_decision()),
            f2(mf.rows_per_decision()),
            mi.decision_cost.rebuilds.to_string(),
            mf.decision_cost.rebuilds.to_string(),
            mi.decision_cost.edges_inserted.to_string(),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(same, "forced rebuilds changed the produced history");
        assert!(
            mi.decision_cost.rows_touched < mf.decision_cost.rows_touched,
            "incremental maintenance must do strictly less closure work"
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a4_histories_identical_and_incremental_cheaper() {
        let t = run(true);
        assert_eq!(t.len(), 2);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 9), "yes");
            let inc: f64 = t.cell(r, 4).parse().unwrap();
            let full: f64 = t.cell(r, 5).parse().unwrap();
            assert!(
                inc < full,
                "rows/dec incremental ({inc}) must undercut full rebuild ({full})"
            );
            let rebuilds_full: u64 = t.cell(r, 7).parse().unwrap();
            let rebuilds_inc: u64 = t.cell(r, 6).parse().unwrap();
            assert!(rebuilds_inc < rebuilds_full);
        }
    }
}
