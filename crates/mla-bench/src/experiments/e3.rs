//! E3 — Checker cost: what does the Theorem 2 acyclicity test cost,
//! against the classical conflict-graph serializability test, as the
//! execution grows? Also reports the A1 ablation (frontier closure vs.
//! the literal bitset reference) at sizes the reference can stomach.
//! Each timing cell is the median of
//! [`TIMED_RUNS`](crate::experiments::TIMED_RUNS) runs.

use mla_core::closure::{coherent_closure_exact, CoherentClosure};
use mla_core::serializability::is_serializable;
use mla_core::spec::ExecContext;
use mla_workload::synthetic::{generate, SyntheticConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::experiments::{median_micros, random_execution};
use crate::table::Table;

/// Runs E3.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E3: offline checker cost (microseconds per execution)",
        &[
            "steps",
            "txns",
            "frontier-closure",
            "exact-closure",
            "sgt-check",
        ],
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(8, 64), (16, 128)]
    } else {
        &[(8, 64), (16, 128), (32, 256), (64, 512), (128, 1024)]
    };
    for &(txns, target_steps) in sizes {
        let s = generate(SyntheticConfig {
            txns,
            k: 3,
            fanout: vec![2],
            densities: vec![0.5],
            len_min: target_steps / txns,
            len_max: target_steps / txns,
            entities: txns * 2,
            seed: 0xE3,
            ..SyntheticConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(3);
        let exec = random_execution(&s.workload, &mut rng, target_steps);
        let nest = &s.workload.nest;
        let spec = s.workload.spec();
        let ctx = ExecContext::new(&exec, nest, &spec).expect("context");

        let frontier_us = median_micros(|| {
            let c = CoherentClosure::compute(&ctx);
            std::hint::black_box(c.is_partial_order());
        });
        let exact_us = if exec.len() <= 256 {
            format!(
                "{:.1}",
                median_micros(|| {
                    let p = coherent_closure_exact(&ctx);
                    std::hint::black_box(p.len());
                })
            )
        } else {
            "-".to_string()
        };
        let sgt_us = median_micros(|| {
            std::hint::black_box(is_serializable(&exec));
        });
        table.row(vec![
            exec.len().to_string(),
            txns.to_string(),
            format!("{frontier_us:.1}"),
            exact_us,
            format!("{sgt_us:.1}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_produces_rows() {
        let t = run(true);
        assert_eq!(t.len(), 2);
        let us: f64 = t.cell(0, 2).parse().unwrap();
        assert!(us > 0.0);
    }
}
