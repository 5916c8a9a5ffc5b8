//! Stress tests through the MLA controls with full oracle checking.
//!
//! The `bounded_*` tests are tier-1: shrunken versions of the opt-in
//! runs, sized to a couple of seconds in debug, so every `cargo test`
//! exercises the contended paths (aborts, cascades, window churn). The `stress_*` tests keep the original sizes and
//! stay opt-in (`cargo test --release -- --ignored`); the nightly CI
//! job runs them.

use multilevel_atomicity::cc::{oracle, MlaDetect, MlaPrevent, VictimPolicy};
use multilevel_atomicity::model::Value;
use multilevel_atomicity::sim::{run, SimConfig};
use multilevel_atomicity::workload::banking::{generate, BankingConfig};
use multilevel_atomicity::workload::cad::{generate as cad, CadConfig};

#[test]
fn bounded_stress_banking_all_mla_controls() {
    let b = generate(BankingConfig {
        families: 6,
        accounts_per_family: 5,
        transfers: 130,
        bank_audits: 2,
        credit_audits: 4,
        arrival_spacing: 6,
        ..BankingConfig::default()
    });
    let wl = &b.workload;
    let spec = wl.spec();

    let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::Requester);
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(0x57),
        &mut detect,
    );
    assert!(!out.metrics.timed_out);
    assert_eq!(out.metrics.committed as usize, wl.txn_count());
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
    let total: Value = b.accounts.iter().map(|&a| out.store.value(a)).sum();
    assert_eq!(total, b.total_money());

    let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(0x58),
        &mut prevent,
    );
    assert!(!out.metrics.timed_out);
    assert_eq!(out.metrics.committed as usize, wl.txn_count());
    assert_eq!(prevent.prevention_misses, 0);
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
}

#[test]
fn bounded_stress_cad_prevent() {
    for seed in 0..3u64 {
        let c = cad(CadConfig {
            specialties: 3,
            teams_per_specialty: 2,
            modifications: 40,
            snapshots: 3,
            elements_per_specialty: 8,
            shared_elements: 5,
            steps_per_mod: 6,
            arrival_spacing: 4,
            seed,
            ..CadConfig::default()
        });
        let wl = &c.workload;
        let spec = wl.spec();
        let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(seed),
            &mut prevent,
        );
        assert!(!out.metrics.timed_out, "seed {seed}");
        assert_eq!(
            out.metrics.committed as usize,
            wl.txn_count(),
            "seed {seed}"
        );
        assert_eq!(prevent.prevention_misses, 0, "seed {seed}");
        assert!(
            oracle::is_correctable_outcome(&out, &wl.nest, &spec),
            "seed {seed}"
        );
    }
}

#[test]
#[ignore = "stress: ~100+ transactions per control, run explicitly"]
fn stress_banking_detect_and_prevent() {
    let b = generate(BankingConfig {
        families: 8,
        accounts_per_family: 6,
        transfers: 150,
        bank_audits: 3,
        credit_audits: 6,
        arrival_spacing: 6,
        ..BankingConfig::default()
    });
    let wl = &b.workload;
    let spec = wl.spec();

    let mut detect = MlaDetect::new(spec.clone(), VictimPolicy::Requester);
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(0x57),
        &mut detect,
    );
    assert!(!out.metrics.timed_out);
    assert_eq!(out.metrics.committed as usize, wl.txn_count());
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
    let total: Value = b.accounts.iter().map(|&a| out.store.value(a)).sum();
    assert_eq!(total, b.total_money());

    let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(0x58),
        &mut prevent,
    );
    assert!(!out.metrics.timed_out);
    assert_eq!(out.metrics.committed as usize, wl.txn_count());
    assert_eq!(prevent.prevention_misses, 0);
    assert!(oracle::is_correctable_outcome(&out, &wl.nest, &spec));
}

#[test]
#[ignore = "stress: large CAD plan under heavy modification churn"]
fn stress_cad_prevent_many_seeds() {
    for seed in 0..6u64 {
        let c = cad(CadConfig {
            specialties: 4,
            teams_per_specialty: 3,
            modifications: 60,
            snapshots: 4,
            elements_per_specialty: 10,
            shared_elements: 6,
            steps_per_mod: 8,
            arrival_spacing: 4,
            seed,
            ..CadConfig::default()
        });
        let wl = &c.workload;
        let spec = wl.spec();
        let mut prevent = MlaPrevent::new(wl.txn_count(), spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(seed),
            &mut prevent,
        );
        assert!(!out.metrics.timed_out, "seed {seed}");
        assert_eq!(
            out.metrics.committed as usize,
            wl.txn_count(),
            "seed {seed}"
        );
        assert_eq!(prevent.prevention_misses, 0, "seed {seed}");
        assert!(
            oracle::is_correctable_outcome(&out, &wl.nest, &spec),
            "seed {seed}"
        );
    }
}
