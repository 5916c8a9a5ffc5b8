//! Run metrics: the quantities the E-series experiments report.

use mla_core::EngineCounters;

/// Counters and samples collected over one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Transactions committed (and still committed at the end).
    pub committed: u64,
    /// Abort events (each transaction rollback counts once, including
    /// cascade members and re-aborts of restarted transactions).
    pub aborts: u64,
    /// Transactions aborted as cascade members rather than direct
    /// victims.
    pub cascade_aborts: u64,
    /// Rollbacks that hit an already-committed transaction — the §6
    /// commit-point hazard made measurable.
    pub commit_rollbacks: u64,
    /// Size (total transactions undone) of each cascading rollback event.
    pub cascade_sizes: Vec<usize>,
    /// Steps performed (including ones later undone).
    pub steps_performed: u64,
    /// Steps undone by rollbacks.
    pub steps_undone: u64,
    /// Requests deferred (lock waits / breakpoint waits).
    pub defers: u64,
    /// Commit latency samples: ticks from injection to (final) commit.
    pub commit_latencies: Vec<u64>,
    /// Simulated time at which the run ended.
    pub makespan: u64,
    /// Whether the run exhausted its event budget before finishing.
    pub timed_out: bool,
    /// Closure decision-cost counters reported by the control at the end
    /// of the run (all zeros for controls that do not maintain an
    /// incremental closure engine).
    pub decision_cost: EngineCounters,
    /// Decisions granted on a static-certificate fast path, skipping
    /// closure maintenance entirely (0 for controls without an
    /// `mla-lint` `StaticCert`).
    pub certified_skips: u64,
    /// The same fast-path grants split per universe (top-level nest
    /// class), indexed by the certificate lattice's universe ids; empty
    /// without a per-universe certificate.
    pub certified_skips_per_universe: Vec<u64>,
    /// Universes re-armed after an off-footprint void, once every
    /// blamed foreign transaction drained from the live window.
    pub cert_re_arms: u64,
}

impl Metrics {
    /// Committed transactions per 1000 ticks.
    pub fn throughput_per_kilotick(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.committed as f64 * 1000.0 / self.makespan as f64
    }

    /// Mean commit latency in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.commit_latencies.is_empty() {
            return 0.0;
        }
        self.commit_latencies.iter().sum::<u64>() as f64 / self.commit_latencies.len() as f64
    }

    /// The `p`-th percentile commit latency (0.0 ..= 1.0).
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.commit_latencies.is_empty() {
            return 0;
        }
        let mut sorted = self.commit_latencies.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p.clamp(0.0, 1.0)).round() as usize;
        sorted[idx]
    }

    /// Largest cascade observed.
    pub fn max_cascade(&self) -> usize {
        self.cascade_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of performed steps that were wasted (undone).
    pub fn wasted_work(&self) -> f64 {
        if self.steps_performed == 0 {
            return 0.0;
        }
        self.steps_undone as f64 / self.steps_performed as f64
    }

    /// Mean closure rows processed per decision — the per-decision work
    /// measure the incremental engine is judged by (0 when the control
    /// reported no engine counters).
    pub fn rows_per_decision(&self) -> f64 {
        if self.decision_cost.steps_applied == 0 {
            return 0.0;
        }
        self.decision_cost.rows_touched as f64 / self.decision_cost.steps_applied as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_latency() {
        let m = Metrics {
            committed: 10,
            makespan: 2000,
            commit_latencies: vec![10, 20, 30, 40],
            ..Metrics::default()
        };
        assert!((m.throughput_per_kilotick() - 5.0).abs() < 1e-9);
        assert!((m.mean_latency() - 25.0).abs() < 1e-9);
        assert_eq!(m.latency_percentile(0.0), 10);
        assert_eq!(m.latency_percentile(1.0), 40);
        assert_eq!(m.latency_percentile(0.5), 30);
    }

    #[test]
    fn degenerate_cases() {
        let m = Metrics::default();
        assert_eq!(m.throughput_per_kilotick(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.latency_percentile(0.5), 0);
        assert_eq!(m.max_cascade(), 0);
        assert_eq!(m.wasted_work(), 0.0);
    }

    #[test]
    fn ratios() {
        let m = Metrics {
            steps_performed: 100,
            steps_undone: 25,
            cascade_sizes: vec![1, 3, 2],
            ..Metrics::default()
        };
        assert!((m.wasted_work() - 0.25).abs() < 1e-9);
        assert_eq!(m.max_cascade(), 3);
    }
}
