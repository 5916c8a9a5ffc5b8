//! Property-based scheduler safety: random synthetic workloads through
//! every control, every history re-checked against the offline theory.

use mla_cc::{
    oracle, CertAdmit, CertGuard, MlaDetect, MlaPrevent, SerialControl, TimestampOrdering,
    TwoPhaseLocking, VictimPolicy,
};
use mla_core::cert::StaticCert;
use mla_model::{EntityId, TxnId};
use mla_sim::{run, Control, SimConfig};
use mla_workload::synthetic::{generate, SyntheticConfig};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Params {
    txns: usize,
    k: usize,
    densities: Vec<f64>,
    fanout: Vec<usize>,
    entities: usize,
    len_max: usize,
    seed: u64,
    sim_seed: u64,
}

impl Params {
    fn workload(&self) -> mla_workload::Workload {
        generate(SyntheticConfig {
            txns: self.txns,
            k: self.k,
            fanout: self.fanout.clone(),
            densities: self.densities.clone(),
            len_min: 1,
            len_max: self.len_max,
            entities: self.entities,
            zipf_theta: 0.6,
            arrival_spacing: 2,
            seed: self.seed,
        })
        .workload
    }
}

fn params() -> impl Strategy<Value = Params> {
    (2usize..5).prop_flat_map(|k| {
        (
            2usize..8,
            proptest::collection::vec(0.0f64..1.0, k - 2),
            proptest::collection::vec(1usize..3, k - 2),
            2usize..6,
            2usize..5,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                move |(txns, densities, fanout, entities, len_max, seed, sim_seed)| Params {
                    txns,
                    k,
                    densities,
                    fanout,
                    entities,
                    len_max,
                    seed,
                    sim_seed,
                },
            )
    })
}

fn drive(
    p: &Params,
    wl: mla_workload::Workload,
    control: &mut dyn Control,
) -> (mla_sim::sim::SimOutcome, mla_workload::Workload) {
    let out = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(p.sim_seed),
        control,
    );
    (out, wl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serializable_controls_stay_serializable(p in params()) {
        for name in ["serial", "2pl", "to", "sgt"] {
            let (out, wl) = match name {
                "serial" => drive(&p, p.workload(), &mut SerialControl::default()),
                "2pl" => drive(&p, p.workload(), &mut TwoPhaseLocking::new()),
                "to" => drive(&p, p.workload(), &mut TimestampOrdering::new()),
                _ => {
                    let flat = p.workload().flattened();
                    let mut sgt = MlaDetect::new(flat.spec(), VictimPolicy::FewestSteps);
                    drive(&p, flat, &mut sgt)
                }
            };
            prop_assert!(!out.metrics.timed_out, "{} timed out on {:?}", name, p);
            prop_assert_eq!(out.metrics.committed as usize, wl.txn_count(),
                "{} did not finish", name);
            prop_assert!(oracle::is_serializable_outcome(&out),
                "{} produced a non-serializable history on {:?}", name, p);
        }
    }

    #[test]
    fn mla_controls_stay_correctable(p in params()) {
        // Detect.
        let wl = p.workload();
        let mut detect = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps);
        let (out, wl) = drive(&p, wl, &mut detect);
        prop_assert!(!out.metrics.timed_out, "detect timed out on {:?}", p);
        prop_assert_eq!(out.metrics.committed as usize, wl.txn_count());
        prop_assert!(oracle::is_correctable_outcome(&out, &wl.nest, &wl.spec()),
            "detect violated Theorem 2 on {:?}", p);

        // Prevent.
        let wl2 = p.workload();
        let mut prevent = MlaPrevent::new(wl2.txn_count(), wl2.spec(), VictimPolicy::FewestSteps);
        let (out, wl2) = drive(&p, wl2, &mut prevent);
        prop_assert!(!out.metrics.timed_out, "prevent timed out on {:?}", p);
        prop_assert_eq!(out.metrics.committed as usize, wl2.txn_count());
        prop_assert_eq!(prevent.prevention_misses, 0, "the §6 rule needed its fallback");
        prop_assert!(oracle::is_correctable_outcome(&out, &wl2.nest, &wl2.spec()),
            "prevent violated Theorem 2 on {:?}", p);
    }

    /// The re-arm protocol, under randomized foreign footprints: while
    /// a straying foreign transaction is live, every universe it
    /// touched must refuse the fast path; the moment it drains (and
    /// only then), each of those universes re-arms and earns at least
    /// one more certified skip. Universes the stray never touched keep
    /// skipping throughout, and condemned universes never skip at all.
    #[test]
    fn voided_certificates_rearm_only_after_the_stray_drains(
        universes in 1usize..4,
        txns_per in 1usize..4,
        certified_bits in proptest::collection::vec(any::<bool>(), 3),
        stray_entities in proptest::collection::vec(0u32..40, 1..6),
    ) {
        // Universe u owns entities u*10 .. : txn i of u gets the private
        // entity u*10+i plus the universe-shared u*10+9. At least one
        // universe is certified so the guard has something to void.
        let mut footprints = Vec::new();
        let mut universe_ids = Vec::new();
        for u in 0..universes {
            for i in 0..txns_per {
                footprints.push(vec![
                    EntityId((u * 10 + i) as u32),
                    EntityId((u * 10 + 9) as u32),
                ]);
                universe_ids.push(u as u32);
            }
        }
        let mut certified: Vec<bool> =
            (0..universes).map(|u| certified_bits[u]).collect();
        if certified.iter().all(|&c| !c) {
            certified[0] = true;
        }
        let cert = StaticCert::per_universe(3, footprints, universe_ids, certified.clone());
        let mut guard = CertGuard::new(cert.clone(), true);
        let total = universes * txns_per;
        let foreign = TxnId(total as u32);

        let expect = |guard: &mut CertGuard, disarmed: &[bool]| -> Result<(), TestCaseError> {
            for t in 0..total {
                let u = t / txns_per;
                let step = EntityId((u * 10 + t % txns_per) as u32);
                let admit = guard.admit(TxnId(t as u32), step);
                if certified[u] && !disarmed[u] {
                    prop_assert_eq!(admit, CertAdmit::Skip(u as u32));
                } else {
                    prop_assert_eq!(admit, CertAdmit::Engine);
                }
            }
            Ok(())
        };

        let armed_before = vec![false; universes];
        expect(&mut guard, &armed_before)?;

        // The foreign transaction strays over its randomized footprint.
        // Every certified universe whose entity union holds a strayed
        // entity is disarmed at first contact.
        let mut disarmed = vec![false; universes];
        for &raw in &stray_entities {
            guard.admit(foreign, EntityId(raw));
            for (u, hit) in disarmed.iter_mut().enumerate() {
                if certified[u] && cert.universe_entities(u as u32).contains(&EntityId(raw)) {
                    *hit = true;
                }
            }
        }
        // While the stray is live: no skip from any touched universe.
        expect(&mut guard, &disarmed)?;
        // A sweep that drains nothing changes nothing.
        guard.sweep(|_| false);
        expect(&mut guard, &disarmed)?;

        // The stray drains: every touched universe re-arms and skips
        // again, exactly once per disarmed universe.
        guard.sweep(|t| t == foreign);
        prop_assert_eq!(
            guard.re_arms,
            disarmed.iter().filter(|&&d| d).count() as u64
        );
        expect(&mut guard, &armed_before)?;
    }
}
