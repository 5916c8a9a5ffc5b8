//! The serializable baseline against the definition it stands for.
//!
//! The experiments' serializable cycle detector is `MlaDetect` on a
//! [`Workload::flattened`] workload: the flat 2-nest with no
//! breakpoints, where multilevel atomicity is serializability (§4.3).
//! These tests check that claim at every offer, not only on the final
//! history. A wrapping control asks the offline conflict-graph checker
//! whether the live history plus the offered step is serializable, and
//! requires the detector to grant exactly then and roll back otherwise.

use multilevel_atomicity::cc::{MlaDetect, VictimPolicy};
use multilevel_atomicity::core::serializability::is_serializable;
use multilevel_atomicity::model::{Execution, TxnId};
use multilevel_atomicity::sim::{run, Control, Decision, SimConfig, World};
use multilevel_atomicity::storage::StepRecord;
use multilevel_atomicity::workload::banking::{generate as banking, BankingConfig};
use multilevel_atomicity::workload::synthetic::{generate as synthetic, SyntheticConfig};
use multilevel_atomicity::workload::Workload;
use proptest::prelude::*;

const POLICIES: [VictimPolicy; 3] = [
    VictimPolicy::Requester,
    VictimPolicy::FewestSteps,
    VictimPolicy::MostSteps,
];

/// Flat-nest `MlaDetect`, with every verdict checked against
/// `is_serializable` on the live history plus the candidate step.
struct Referenced {
    detect: MlaDetect,
    offers: u64,
    rollbacks: u64,
    /// The first offer whose verdict disagreed with the reference.
    mismatch: Option<String>,
}

impl Control for Referenced {
    fn name(&self) -> &'static str {
        "flat-detect/referenced"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let mut steps = world.history_steps();
        steps.push(world.candidate(txn));
        let serializable =
            is_serializable(&Execution::new(steps).expect("live history plus its next step"));
        let decision = self.detect.decide(txn, world);
        self.offers += 1;
        let granted = match &decision {
            Decision::Grant => true,
            Decision::Abort(_) => {
                self.rollbacks += 1;
                false
            }
            Decision::Defer => panic!("the detector never defers"),
        };
        if granted != serializable && self.mismatch.is_none() {
            self.mismatch = Some(format!(
                "offer {} of {:?}: granted {granted}, serializable {serializable}",
                self.offers,
                world.candidate(txn)
            ));
        }
        decision
    }

    fn performed(&mut self, record: &StepRecord, world: &World) {
        self.detect.performed(record, world);
    }

    fn committed(&mut self, txn: TxnId, world: &World) {
        self.detect.committed(txn, world);
    }

    fn aborted(&mut self, txn: TxnId, world: &World) {
        self.detect.aborted(txn, world);
    }
}

/// Runs flat-nest `MlaDetect` on `wl` flattened, checking every offer;
/// returns (offers, rollbacks) or the first mismatch.
fn referenced_run(wl: &Workload, policy: VictimPolicy, seed: u64) -> Result<(u64, u64), String> {
    let flat = wl.flattened();
    let mut control = Referenced {
        detect: MlaDetect::new(flat.spec(), policy),
        offers: 0,
        rollbacks: 0,
        mismatch: None,
    };
    let out = run(
        flat.nest.clone(),
        flat.instances(),
        flat.initial.iter().copied(),
        &flat.arrivals,
        &SimConfig::seeded(seed),
        &mut control,
    );
    if let Some(m) = control.mismatch {
        return Err(format!("{} ({policy:?}, seed {seed}): {m}", wl.name));
    }
    assert!(!out.metrics.timed_out, "{}: timed out", wl.name);
    assert_eq!(out.metrics.committed as usize, wl.txn_count());
    Ok((control.offers, control.rollbacks))
}

/// E5's account sweep at full size (24 transfers, 2 to 32 accounts),
/// under every victim policy and E5's five seeds.
#[test]
fn flat_detect_grants_exactly_the_serializable_steps_on_the_e5_sweep() {
    let (mut offers, mut rollbacks) = (0, 0);
    for (families, accounts_per_family) in [(1, 2), (1, 4), (2, 4), (4, 4), (8, 4)] {
        let b = banking(BankingConfig {
            families,
            accounts_per_family,
            transfers: 24,
            bank_audits: 0,
            credit_audits: 0,
            arrival_spacing: 2,
            intra_family_ratio: 0.7,
            ..BankingConfig::default()
        });
        for policy in POLICIES {
            for seed in 1..=5 {
                let (o, r) = referenced_run(&b.workload, policy, seed).unwrap();
                offers += o;
                rollbacks += r;
            }
        }
    }
    println!("E5 sweep: {offers} offers, {rollbacks} rollbacks, 0 mismatches");
    assert!(rollbacks > 0, "the sweep must exercise rollbacks");
}

fn synthetic_workload() -> impl Strategy<Value = (Workload, VictimPolicy, u64)> {
    (2usize..5).prop_flat_map(|k| {
        (
            2usize..9,
            proptest::collection::vec(0.0f64..1.0, k - 2),
            proptest::collection::vec(1usize..3, k - 2),
            2usize..6,
            2usize..5,
            0usize..3,
            any::<u64>(),
            any::<u64>(),
        )
            .prop_map(
                move |(txns, densities, fanout, entities, len_max, policy, seed, sim_seed)| {
                    let wl = synthetic(SyntheticConfig {
                        txns,
                        k,
                        fanout,
                        densities,
                        len_min: 1,
                        len_max,
                        entities,
                        zipf_theta: 0.6,
                        arrival_spacing: 2,
                        seed,
                    })
                    .workload;
                    (wl, POLICIES[policy], sim_seed)
                },
            )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random synthetic workloads of depth 2 to 4, flattened.
    #[test]
    fn flat_detect_grants_exactly_the_serializable_steps(case in synthetic_workload()) {
        let (wl, policy, seed) = case;
        let verdict = referenced_run(&wl, policy, seed);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
