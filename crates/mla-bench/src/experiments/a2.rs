//! A2 — window-eviction ablation for the online closure checks.
//!
//! The MLA controls maintain the coherent closure over a *window* of the
//! journal; committed transactions are evicted once no live transaction
//! reaches them in the closure (sound per the lift argument in the
//! docs of `ClosureEngine::evict_unreachable`). Disabling eviction makes
//! every check pay for the
//! entire history. This table measures the scheduler's wall-clock cost
//! both ways as the run grows; simulated-time metrics are identical by
//! construction (eviction never changes decisions, only their cost).
//! `evict-scans` counts the evicting arm's full reachability passes:
//! eviction is offered after every grant, but a pass runs only when a
//! commit or an abort may have freed a transaction.

use mla_cc::VictimPolicy;
use mla_workload::banking::{generate, BankingConfig};

use crate::runner::{run_cell, ControlKind};
use crate::table::{f2, Table};

/// Runs A2.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "A2: window eviction ablation (mla-detect wall-clock ms per run)",
        &[
            "transfers",
            "evicting",
            "no-evict",
            "slowdown",
            "evict-scans",
            "same-history",
        ],
    );
    let loads: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 96] };
    let policy = VictimPolicy::FewestSteps;
    for &transfers in loads {
        // Staggered arrivals create a steady state in which early
        // transactions' commit cohorts complete and eviction can actually
        // fire; dense arrivals would keep every cohort overlapping and
        // mask the effect.
        let b = generate(BankingConfig {
            transfers,
            bank_audits: 1,
            credit_audits: 1,
            arrival_spacing: 40,
            ..BankingConfig::default()
        });
        let with = run_cell(&b.workload, ControlKind::MlaDetect(policy), 0xA2);
        let without = run_cell(&b.workload, ControlKind::MlaDetectNoEvict(policy), 0xA2);
        // Eviction is a pure cost optimization: the decisions, and hence
        // the produced history, must be identical.
        let same = with.outcome.execution == without.outcome.execution;
        table.row(vec![
            transfers.to_string(),
            f2(with.wall_seconds * 1e3),
            f2(without.wall_seconds * 1e3),
            f2(if with.wall_seconds > 0.0 {
                without.wall_seconds / with.wall_seconds
            } else {
                0.0
            }),
            with.outcome.metrics.decision_cost.evict_scans.to_string(),
            if same { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(same, "eviction changed the produced history");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_histories_identical() {
        let t = run(true);
        assert_eq!(t.len(), 2);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 5), "yes");
        }
    }
}
