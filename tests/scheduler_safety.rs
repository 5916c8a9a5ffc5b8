//! Every concurrency control, against the theory, across workloads and
//! seeds: the "safety oracle" sweep of DESIGN.md.
//!
//! For each (control, workload, seed) cell:
//! * the run must complete (all transactions committed, no timeout);
//! * serializable controls must produce conflict-serializable histories;
//! * MLA controls must produce Theorem-2-correctable histories;
//! * domain invariants must hold (money conserved; audits consistent);
//! * the §6 delay rule must never need its fallback
//!   (`prevention_misses == 0`).

use multilevel_atomicity::cc::{
    oracle, MlaDetect, MlaPrevent, SerialControl, TimestampOrdering, TwoPhaseLocking, VictimPolicy,
};
use multilevel_atomicity::model::Value;
use multilevel_atomicity::sim::{run, Control, SimConfig, SimOutcome};
use multilevel_atomicity::workload::banking::{generate as banking, BankingConfig};
use multilevel_atomicity::workload::cad::{generate as cad, CadConfig};
use multilevel_atomicity::workload::synthetic::{generate as synthetic, SyntheticConfig};
use multilevel_atomicity::workload::Workload;

fn run_workload(wl: &Workload, control: &mut dyn Control, seed: u64) -> SimOutcome {
    run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(seed),
        control,
    )
}

fn assert_complete(out: &SimOutcome, wl: &Workload, label: &str) {
    assert!(!out.metrics.timed_out, "{label}: timed out");
    assert_eq!(
        out.metrics.committed as usize,
        wl.txn_count(),
        "{label}: not all transactions committed"
    );
}

fn banking_invariants(b: &multilevel_atomicity::workload::banking::Banking, out: &SimOutcome) {
    let total: Value = b.accounts.iter().map(|&a| out.store.value(a)).sum();
    assert_eq!(total, b.total_money(), "money must be conserved");
    for &a in &b.bank_audits {
        let sum: Value = out
            .execution
            .steps()
            .iter()
            .filter(|s| s.txn == a)
            .map(|s| s.observed)
            .sum();
        assert_eq!(sum, b.total_money(), "audit {a} observed money in transit");
    }
}

#[test]
fn serializable_controls_on_banking() {
    for seed in [1u64, 2, 3] {
        let b = banking(BankingConfig {
            transfers: 10,
            bank_audits: 1,
            credit_audits: 2,
            seed,
            ..BankingConfig::default()
        });
        let wl = &b.workload;

        let out = run_workload(wl, &mut SerialControl::default(), seed);
        assert_complete(&out, wl, "serial");
        assert!(out.execution.is_serial());
        banking_invariants(&b, &out);

        let out = run_workload(wl, &mut TwoPhaseLocking::new(), seed);
        assert_complete(&out, wl, "2pl");
        assert!(
            oracle::is_serializable_outcome(&out),
            "2PL not serializable"
        );
        banking_invariants(&b, &out);

        let out = run_workload(wl, &mut TimestampOrdering::new(), seed);
        assert_complete(&out, wl, "t/o");
        assert!(
            oracle::is_serializable_outcome(&out),
            "T/O not serializable"
        );
        banking_invariants(&b, &out);

        // Serialization-graph testing: the MLA detector on the flat
        // 2-nest, where multilevel atomicity is serializability.
        let flat = wl.flattened();
        let out = run_workload(
            &flat,
            &mut MlaDetect::new(flat.spec(), VictimPolicy::FewestSteps),
            seed,
        );
        assert_complete(&out, wl, "sgt");
        assert!(
            oracle::is_serializable_outcome(&out),
            "SGT not serializable"
        );
        banking_invariants(&b, &out);
    }
}

#[test]
fn mla_controls_on_banking() {
    for seed in [4u64, 5, 6] {
        let b = banking(BankingConfig {
            transfers: 12,
            bank_audits: 1,
            credit_audits: 2,
            seed,
            ..BankingConfig::default()
        });
        let wl = &b.workload;
        let spec = wl.spec();

        let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out = run_workload(wl, &mut detect, seed);
        assert_complete(&out, wl, "mla-detect");
        assert!(
            oracle::is_correctable_outcome(&out, &wl.nest, &spec),
            "mla-detect history not correctable"
        );
        banking_invariants(&b, &out);

        let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = run_workload(wl, &mut prevent, seed);
        assert_complete(&out, wl, "mla-prevent");
        assert!(
            oracle::is_correctable_outcome(&out, &wl.nest, &spec),
            "mla-prevent history not correctable"
        );
        assert_eq!(prevent.prevention_misses, 0, "the §6 rule missed a cycle");
        banking_invariants(&b, &out);
    }
}

#[test]
fn all_controls_on_cad() {
    let c = cad(CadConfig {
        modifications: 10,
        snapshots: 2,
        ..CadConfig::default()
    });
    let wl = &c.workload;
    let spec = wl.spec();

    let out = run_workload(wl, &mut TwoPhaseLocking::new(), 7);
    assert_complete(&out, wl, "2pl/cad");
    assert!(oracle::is_serializable_outcome(&out));

    let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::Requester);
    let out = run_workload(wl, &mut detect, 8);
    assert_complete(&out, wl, "mla-detect/cad");
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));

    let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::Requester);
    let out = run_workload(wl, &mut prevent, 9);
    assert_complete(&out, wl, "mla-prevent/cad");
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
    assert_eq!(prevent.prevention_misses, 0);

    // Snapshots must be read-only in the final history.
    for s in out.execution.steps() {
        if c.snapshots.contains(&s.txn) {
            assert!(s.is_read());
        }
    }
}

#[test]
fn mla_controls_on_synthetic_grid() {
    for (k, fanout, densities) in [
        (2usize, vec![], vec![]),
        (3, vec![2], vec![0.5]),
        (4, vec![2, 2], vec![0.3, 0.8]),
    ] {
        for seed in [11u64, 12] {
            let s = synthetic(SyntheticConfig {
                txns: 10,
                k,
                fanout: fanout.clone(),
                densities: densities.clone(),
                len_min: 2,
                len_max: 5,
                entities: 6,
                zipf_theta: 0.7,
                seed,
                ..SyntheticConfig::default()
            });
            let wl = &s.workload;
            let spec = wl.spec();

            let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
            let out = run_workload(wl, &mut detect, seed);
            assert_complete(&out, wl, "detect/synthetic");
            assert!(
                oracle::is_correctable_outcome(&out, &wl.nest, &spec),
                "k={k} seed={seed}: detect history not correctable"
            );

            let mut prevent =
                MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
            let out = run_workload(wl, &mut prevent, seed);
            assert_complete(&out, wl, "prevent/synthetic");
            assert!(
                oracle::is_correctable_outcome(&out, &wl.nest, &spec),
                "k={k} seed={seed}: prevent history not correctable"
            );
            assert_eq!(prevent.prevention_misses, 0);
        }
    }
}

#[test]
fn victim_policies_all_safe() {
    for policy in [
        VictimPolicy::Requester,
        VictimPolicy::FewestSteps,
        VictimPolicy::MostSteps,
    ] {
        let b = banking(BankingConfig {
            transfers: 10,
            bank_audits: 1,
            credit_audits: 1,
            families: 2,
            accounts_per_family: 3,
            seed: 99,
            ..BankingConfig::default()
        });
        let wl = &b.workload;
        let spec = wl.spec();
        let mut detect = MlaDetect::new(spec.clone(), policy);
        let out = run_workload(wl, &mut detect, 13);
        assert_complete(&out, wl, policy.label());
        assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
        banking_invariants(&b, &out);
    }
}

#[test]
fn escrow_banking_under_both_mla_controls() {
    use multilevel_atomicity::workload::banking_escrow::generate_escrow;
    for seed in [21u64, 22] {
        let b = generate_escrow(BankingConfig {
            transfers: 10,
            bank_audits: 2,
            credit_audits: 0,
            seed,
            ..BankingConfig::default()
        });
        let wl = &b.workload;
        let spec = wl.spec();

        let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = run_workload(wl, &mut prevent, seed);
        assert_complete(&out, wl, "prevent/escrow");
        assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
        assert_eq!(prevent.prevention_misses, 0);
        banking_invariants(&b, &out);

        let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::Requester);
        let out = run_workload(wl, &mut detect, seed);
        assert_complete(&out, wl, "detect/escrow");
        assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
        banking_invariants(&b, &out);
    }
}

#[test]
fn eviction_preserves_carrier_chains_cad_regression() {
    // Regression for the window-eviction carrier bug: in this exact CAD
    // cell (level-3 breakpoints every 2 steps, no level-2 breakpoints,
    // seed 2), a live modification's influence on future decisions routes
    // through a chain of *committed* transactions (late in-pair ->
    // lift-extended early out-pair). An eviction rule that only kept
    // direct live predecessors severed the chain, the §6 delay rule
    // missed a blocker, and the final history violated Theorem 2. The
    // reachability-based rule must keep the whole chain.
    use multilevel_atomicity::workload::cad::{generate as cad_gen, CadConfig};
    for seed in [1u64, 2] {
        let c = cad_gen(CadConfig {
            modifications: 10,
            snapshots: 2,
            level3_unit: 2,
            level2_unit: 0,
            arrival_spacing: 2,
            ..CadConfig::default()
        });
        let wl = &c.workload;
        let spec = wl.spec();
        let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = run_workload(wl, &mut prevent, seed);
        assert_complete(&out, wl, "prevent/cad-regression");
        assert!(
            oracle::is_correctable_outcome(&out, &wl.nest, &spec),
            "seed {seed}: eviction severed a carrier chain"
        );
        let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out = run_workload(wl, &mut detect, seed);
        assert_complete(&out, wl, "detect/cad-regression");
        assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
    }
}
