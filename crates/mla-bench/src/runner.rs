//! The shared simulation runner: control selection, safety checking,
//! multi-seed aggregation.

use mla_cc::{
    oracle, MlaDetect, MlaPrevent, SerialControl, TimestampOrdering, TwoPhaseLocking, VictimPolicy,
};
use mla_core::cert::StaticCert;
use mla_sim::{run, Control, SimConfig, SimOutcome};
use mla_workload::Workload;

/// Which concurrency control to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlKind {
    /// One transaction at a time.
    Serial,
    /// Strict two-phase locking with wound-wait.
    TwoPl,
    /// Basic timestamp ordering.
    Timestamp,
    /// Serialization-graph testing: [`MlaDetect`] on the
    /// [flattened](Workload::flattened) workload, where the coherent
    /// closure is the conflict order (k = 2, §4.3).
    Sgt(VictimPolicy),
    /// Multilevel-atomicity cycle detection.
    MlaDetect(VictimPolicy),
    /// Multilevel-atomicity cycle prevention.
    MlaPrevent(VictimPolicy),
    /// Cycle detection armed with an `mla-lint` static safety
    /// certificate (A7). Panics if the workload does not certify.
    MlaDetectCertified(VictimPolicy),
    /// Cycle prevention armed with an `mla-lint` static safety
    /// certificate (A7). Panics if the workload does not certify.
    MlaPreventCertified(VictimPolicy),
}

impl ControlKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ControlKind::Serial => "serial",
            ControlKind::TwoPl => "strict-2pl",
            ControlKind::Timestamp => "timestamp",
            ControlKind::Sgt(_) => "sgt",
            ControlKind::MlaDetect(_) => "mla-detect",
            ControlKind::MlaPrevent(_) => "mla-prevent",
            ControlKind::MlaDetectCertified(_) => "mla-detect/certified",
            ControlKind::MlaPreventCertified(_) => "mla-prevent/certified",
        }
    }

    /// Whether the control guarantees serializability (vs. the weaker
    /// multilevel atomicity).
    pub fn is_serializable(self) -> bool {
        matches!(
            self,
            ControlKind::Serial | ControlKind::TwoPl | ControlKind::Timestamp | ControlKind::Sgt(_)
        )
    }
}

/// One simulation cell: outcome plus verified safety.
pub struct CellResult {
    /// The raw simulation outcome.
    pub outcome: SimOutcome,
    /// The control that produced it.
    pub kind: ControlKind,
    /// Prevention-rule fallback count (MlaPrevent only).
    pub prevention_misses: u64,
    /// Wall-clock seconds the simulation took (scheduler overhead
    /// included).
    pub wall_seconds: f64,
}

/// Runs `kind` on `wl` with the given seed, then *verifies* the history
/// against the appropriate offline checker. Panics on any safety
/// violation — experiments must never report unsound numbers.
pub fn run_cell(wl: &Workload, kind: ControlKind, seed: u64) -> CellResult {
    let config = SimConfig::seeded(seed);
    // The certificate is an offline input to the scheduler, like the
    // workload itself: build it before the timer starts so certified
    // cells measure scheduler work, not the static analysis pass.
    let cert = match kind {
        ControlKind::MlaDetectCertified(_) | ControlKind::MlaPreventCertified(_) => Some(
            mla_lint::certify_workload(wl)
                .cert
                .expect("workload must certify for the certified control"),
        ),
        _ => None,
    };
    // SGT is the detector on the flat 2-nest; flattening is offline too.
    let flat;
    let wl = match kind {
        ControlKind::Sgt(_) => {
            flat = wl.flattened();
            &flat
        }
        _ => wl,
    };
    let started = std::time::Instant::now();
    let (outcome, prevention_misses) = simulate(wl, kind, cert, &config);
    let wall_seconds = started.elapsed().as_secs_f64();

    assert!(
        !outcome.metrics.timed_out,
        "{} on {} (seed {seed}): timed out",
        kind.label(),
        wl.name
    );
    if kind.is_serializable() {
        assert!(
            oracle::is_serializable_outcome(&outcome),
            "{} on {} (seed {seed}): history not serializable",
            kind.label(),
            wl.name
        );
    } else {
        assert!(
            oracle::is_correctable_outcome(&outcome, &wl.nest, &wl.spec()),
            "{} on {} (seed {seed}): history violates Theorem 2",
            kind.label(),
            wl.name
        );
    }
    CellResult {
        outcome,
        kind,
        prevention_misses,
        wall_seconds,
    }
}

/// Builds `kind`'s control, runs it once, and returns the outcome with
/// the prevention-rule fallback count (`MlaPrevent`'s own figure, zero
/// for every other control).
fn simulate(
    wl: &Workload,
    kind: ControlKind,
    cert: Option<StaticCert>,
    config: &SimConfig,
) -> (SimOutcome, u64) {
    let run_with = |control: &mut dyn Control| {
        run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            config,
            control,
        )
    };
    let detect = |policy| MlaDetect::new(wl.spec(), policy);
    let mut control: Box<dyn Control> = match kind {
        ControlKind::Serial => Box::new(SerialControl::default()),
        ControlKind::TwoPl => Box::new(TwoPhaseLocking::new()),
        ControlKind::Timestamp => Box::new(TimestampOrdering::new()),
        ControlKind::Sgt(policy) | ControlKind::MlaDetect(policy) => Box::new(detect(policy)),
        ControlKind::MlaDetectCertified(policy) => Box::new(
            detect(policy).with_static_cert(cert.expect("certificate built before the timer")),
        ),
        ControlKind::MlaPrevent(policy) | ControlKind::MlaPreventCertified(policy) => {
            let mut c = MlaPrevent::new(wl.txn_count(), wl.spec(), policy);
            if let Some(cert) = cert {
                c = c.with_static_cert(cert);
            }
            return (run_with(&mut c), c.prevention_misses);
        }
    };
    (run_with(control.as_mut()), 0)
}

/// Aggregated metrics over seeds.
#[derive(Clone, Debug, Default)]
pub struct Aggregate {
    /// Mean throughput (commits / kilotick).
    pub throughput: f64,
    /// Mean of mean commit latencies.
    pub latency: f64,
    /// Total aborts across seeds.
    pub aborts: u64,
    /// Total defers across seeds.
    pub defers: u64,
    /// Mean wasted-work fraction.
    pub wasted: f64,
    /// Seeds aggregated.
    pub runs: usize,
}

/// Runs `kind` on `wl` for each seed — in parallel, one scoped thread
/// per seed (cells are fully independent: every thread builds its own
/// instances and control) — and averages.
pub fn run_seeds(wl: &Workload, kind: ControlKind, seeds: &[u64]) -> Aggregate {
    let cells: std::sync::Mutex<Vec<CellResult>> =
        std::sync::Mutex::new(Vec::with_capacity(seeds.len()));
    std::thread::scope(|scope| {
        for &seed in seeds {
            let cells = &cells;
            scope.spawn(move || {
                let cell = run_cell(wl, kind, seed);
                cells.lock().expect("seed worker poisoned").push(cell);
            });
        }
    });
    let mut agg = Aggregate::default();
    for cell in cells.into_inner().expect("seed worker panicked") {
        let m = &cell.outcome.metrics;
        agg.throughput += m.throughput_per_kilotick();
        agg.latency += m.mean_latency();
        agg.aborts += m.aborts;
        agg.defers += m.defers;
        agg.wasted += m.wasted_work();
        agg.runs += 1;
    }
    let n = agg.runs.max(1) as f64;
    agg.throughput /= n;
    agg.latency /= n;
    agg.wasted /= n;
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_workload::banking::{generate, BankingConfig};
    use mla_workload::partitioned;

    /// Every control commits everything, and a seeded cell replays to
    /// the same history and counters on a second run.
    #[test]
    fn run_cell_verifies_each_control() {
        let b = generate(BankingConfig {
            transfers: 6,
            bank_audits: 1,
            credit_audits: 1,
            ..BankingConfig::default()
        })
        .workload;
        let p = partitioned::generate(partitioned::PartitionedConfig {
            partitions: 4,
            txns_per_partition: 12,
            scanner_len: 12,
            arrival_spacing: 2,
        })
        .workload;
        let policy = VictimPolicy::FewestSteps;
        let cells = [
            (&b, ControlKind::Serial),
            (&b, ControlKind::TwoPl),
            (&b, ControlKind::Timestamp),
            (&b, ControlKind::Sgt(policy)),
            (&b, ControlKind::MlaDetect(policy)),
            (&b, ControlKind::MlaPrevent(policy)),
            (&p, ControlKind::MlaDetect(policy)),
            (&p, ControlKind::MlaDetectCertified(policy)),
            (&p, ControlKind::MlaPreventCertified(policy)),
        ];
        let key = |c: &CellResult| {
            let m = &c.outcome.metrics;
            let history = c.outcome.execution.clone();
            (m.committed, m.aborts, m.defers, m.makespan, history)
        };
        for (wl, kind) in cells {
            let cell = run_cell(wl, kind, 3);
            let label = kind.label();
            assert_eq!(
                cell.outcome.metrics.committed as usize,
                wl.txn_count(),
                "{label}"
            );
            let again = run_cell(wl, kind, 3);
            assert_eq!(key(&again), key(&cell), "{label} replay");
        }
    }

    #[test]
    fn aggregation_averages() {
        let b = generate(BankingConfig {
            transfers: 4,
            bank_audits: 0,
            credit_audits: 0,
            ..BankingConfig::default()
        });
        let agg = run_seeds(&b.workload, ControlKind::TwoPl, &[1, 2, 3]);
        assert_eq!(agg.runs, 3);
        assert!(agg.throughput > 0.0);
    }
}
