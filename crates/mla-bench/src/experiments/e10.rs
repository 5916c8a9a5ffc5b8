//! E10 — Lemma 1 as an algorithm: the cost of *constructing* the
//! equivalent multilevel-atomic witness, beyond merely deciding
//! acyclicity. Validates every produced witness against the membership
//! checker. Each timing cell is the median of
//! [`TIMED_RUNS`](crate::experiments::TIMED_RUNS) runs.
//!
//! Correctable executions of nontrivial length are exponentially rare
//! among random interleavings (that is E1/E2's point), so the inputs are
//! produced by actually running the workload under the §6 prevention
//! scheduler — whose histories are correctable by construction.

use mla_cc::{MlaPrevent, VictimPolicy};
use mla_core::closure::CoherentClosure;
use mla_core::extend::witness_execution;
use mla_core::is_multilevel_atomic;
use mla_core::spec::ExecContext;
use mla_sim::{run as sim_run, SimConfig};
use mla_workload::synthetic::{generate, SyntheticConfig};

use crate::experiments::median_micros;
use crate::table::Table;

/// Runs E10.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E10: Lemma 1 witness construction cost (microseconds)",
        &["steps", "closure-only", "closure+witness", "witness-valid"],
    );
    let sizes: &[(usize, usize)] = if quick {
        &[(8, 48), (16, 96)]
    } else {
        &[(8, 48), (16, 96), (32, 192), (64, 384), (96, 768)]
    };
    for &(txns, target_steps) in sizes {
        let s = generate(SyntheticConfig {
            txns,
            k: 4,
            fanout: vec![2, 2],
            densities: vec![0.3, 0.8],
            len_min: target_steps / txns,
            len_max: target_steps / txns,
            entities: txns * 2,
            zipf_theta: 0.4,
            arrival_spacing: 2,
            seed: 0xE10,
        });
        let wl = &s.workload;
        let spec = wl.spec();
        let mut control = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = sim_run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(0xE10),
            &mut control,
        );
        assert!(!out.metrics.timed_out, "E10 input simulation timed out");
        let exec = out.execution;
        let ctx = ExecContext::new(&exec, &wl.nest, &spec).expect("context");

        let closure = CoherentClosure::compute(&ctx);
        assert!(
            closure.is_partial_order(),
            "prevention histories are correctable by construction"
        );
        let witness = witness_execution(&(&ctx, &closure)).expect("acyclic extends");
        let closure_us = median_micros(|| {
            std::hint::black_box(CoherentClosure::compute(&ctx));
        });
        let witness_us = median_micros(|| {
            let closure = CoherentClosure::compute(&ctx);
            std::hint::black_box(witness_execution(&(&ctx, &closure)).expect("acyclic extends"));
        });
        let valid =
            exec.equivalent(&witness) && is_multilevel_atomic(&witness, &wl.nest, &spec).unwrap();
        table.row(vec![
            exec.len().to_string(),
            format!("{closure_us:.1}"),
            format!("{witness_us:.1}"),
            if valid { "yes" } else { "NO" }.to_string(),
        ]);
        assert!(valid, "Lemma 1 produced an invalid witness");
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_witnesses_validate() {
        let t = run(true);
        assert_eq!(t.len(), 2);
        for r in 0..t.len() {
            assert_ne!(t.cell(r, 3), "NO");
            // Witness construction cost is reported as a real number.
            let _: f64 = t.cell(r, 2).parse().unwrap();
        }
    }
}
