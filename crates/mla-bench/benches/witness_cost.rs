//! Criterion bench for E10: Lemma 1 witness construction (stage-wise SCC
//! condensation) on correctable executions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mla_bench::experiments::random_execution;
use mla_core::closure::CoherentClosure;
use mla_core::extend::extend_to_total_order;
use mla_core::spec::ExecContext;
use mla_workload::synthetic::{generate, SyntheticConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn bench_witness(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness_cost");
    for &(txns, steps) in &[(8usize, 48usize), (16, 96), (32, 192), (64, 384)] {
        let s = generate(SyntheticConfig {
            txns,
            k: 4,
            fanout: vec![2, 2],
            densities: vec![0.3, 0.8],
            len_min: steps / txns,
            len_max: steps / txns,
            entities: txns * 4,
            zipf_theta: 0.0,
            seed: 0xE10,
            ..SyntheticConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(10);
        let exec = random_execution(&s.workload, &mut rng, steps);
        let nest = s.workload.nest.clone();
        let spec = s.workload.spec();
        let ctx = ExecContext::new(&exec, &nest, &spec).unwrap();
        let closure = CoherentClosure::compute(&ctx);
        if !closure.is_partial_order() {
            continue; // only correctable inputs have witnesses
        }
        group.bench_with_input(BenchmarkId::new("extend", exec.len()), &exec, |b, _| {
            b.iter(|| std::hint::black_box(extend_to_total_order(&(&ctx, &closure)).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_witness);
criterion_main!(benches);
