//! Criterion bench: whole-simulation cost per control (the scheduler
//! overhead axis of E4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mla_bench::runner::{run_cell, ControlKind};
use mla_cc::VictimPolicy;
use mla_workload::banking::{generate, BankingConfig};

fn bench_controls(c: &mut Criterion) {
    let b = generate(BankingConfig {
        transfers: 16,
        bank_audits: 1,
        credit_audits: 1,
        arrival_spacing: 2,
        ..BankingConfig::default()
    });
    let policy = VictimPolicy::FewestSteps;
    let mut group = c.benchmark_group("scheduler_cost");
    group.sample_size(10);
    for kind in [
        ControlKind::Serial,
        ControlKind::TwoPl,
        ControlKind::Timestamp,
        ControlKind::Sgt(policy),
        ControlKind::MlaDetect(policy),
        ControlKind::MlaPrevent(policy),
    ] {
        group.bench_with_input(
            BenchmarkId::new("banking16", kind.label()),
            &kind,
            |bch, &kind| {
                bch.iter(|| {
                    std::hint::black_box(
                        run_cell(&b.workload, kind, 0xBE).outcome.metrics.committed,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_controls);
criterion_main!(benches);
