//! Soundness of `mla-lint`'s §5 static safety certificates.
//!
//! A [`StaticCert`](multilevel_atomicity::core::StaticCert) claims that
//! *no* interleaving of the certified workload can fail Theorem 2. Two
//! consequences are tested here, over a sweep of randomly generated
//! partitioned-ish workloads (universe-local scripts touching a shared
//! entity at most once, random level-2 breakpoints — some certify, some
//! are denied; the sweep asserts both outcomes occur):
//!
//! 1. **Theorem oracle.** For every workload that certifies, random
//!    genuine executions (uniformly random live-transaction schedules,
//!    the same construction the experiment harness uses) must all be
//!    judged correctable by the offline Theorem 2 decision procedure.
//!    One counterexample falsifies the certificate.
//! 2. **Byte-identical histories.** The certified `MlaDetect` fast path
//!    must be observationally invisible: its simulated history equals
//!    the uncertified control's. (On a certified workload no decision
//!    is ever denied, so no victim policy fires and both runs walk the
//!    same grant sequence.)
//!
//! Denied workloads are exercised too: denial must come with a concrete
//! mixed-cycle witness diagnostic, never silently.
//!
//! Since the pass became a per-universe lattice, three more families of
//! checks ride along: partially-certified workloads must skip *only*
//! for their certified universes while still matching the uncertified
//! control byte-for-byte; random **sub-lattices** (certified universes
//! arbitrarily demoted to condemned — always sound, the lattice is
//! monotone) must never change a history; and the `mixed` workload
//! family — whose all-or-nothing certificate was always `None` — must
//! now produce nonzero certified skips for each certifiable universe
//! under both schedulers, with every admission blessed by the offline
//! Theorem 2 oracle.

mod common;

use std::sync::Arc;

use multilevel_atomicity::cc::{oracle, MlaDetect, MlaPrevent, VictimPolicy};
use multilevel_atomicity::core::theorem::is_correctable;
use multilevel_atomicity::core::{ClosureEngine, StaticCert};
use multilevel_atomicity::explore::{explore, BoundedNest};
use multilevel_atomicity::lint::{certify_workload, Code};
use multilevel_atomicity::model::program::{ScriptOp, ScriptProgram};
use multilevel_atomicity::model::{EntityId, TxnId};
use multilevel_atomicity::sim::{run, SimConfig, SimOutcome};
use multilevel_atomicity::txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};
use multilevel_atomicity::workload::mixed::{self, MixedConfig};
use multilevel_atomicity::workload::partitioned::{generate, PartitionedConfig};
use multilevel_atomicity::workload::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random workload in the partitioned family: each transaction lives
/// in one universe, touches its shared entity at most once, and may
/// carry level-2 breakpoints. Enough structure that many instances
/// certify; enough freedom (repeated shared access, breakpoint-free
/// multi-access transactions) that many are denied.
fn random_workload(rng: &mut SmallRng) -> Workload {
    let k = 3;
    let universes = rng.gen_range(1..=3usize);
    let n = rng.gen_range(2..=6usize);
    let mut programs: Vec<Arc<dyn multilevel_atomicity::model::Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut arrivals: Vec<u64> = Vec::new();
    let mut entities: Vec<EntityId> = (0..universes as u32).map(EntityId).collect();
    for t in 0..n {
        let u = rng.gen_range(0..universes);
        let len = rng.gen_range(1..=4usize);
        // Usually at most one shared access; sometimes more, which can
        // open a mixed cycle and deny certification.
        let shared_budget = if rng.gen_bool(0.8) { 1 } else { 2 };
        let mut shared_used = 0;
        let mut ops = Vec::with_capacity(len);
        for i in 0..len {
            let ent = if shared_used < shared_budget && rng.gen_bool(0.5) {
                shared_used += 1;
                EntityId(u as u32)
            } else {
                EntityId(((1 + t * 4 + i) * universes + u) as u32)
            };
            entities.push(ent);
            ops.push(ScriptOp::Add(ent, 1));
        }
        let bp: Arc<dyn RuntimeBreakpoints> = if len > 1 && rng.gen_bool(0.6) {
            let marks: Vec<(usize, usize)> = (1..len)
                .filter(|_| rng.gen_bool(0.5))
                .map(|p| (p, 2))
                .collect();
            Arc::new(PhaseTable::new(k, marks))
        } else {
            Arc::new(NoBreakpoints { k })
        };
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(bp);
        paths.push(vec![u as u32]);
        arrivals.push(rng.gen_range(0..8u64) * 2);
    }
    entities.sort_unstable();
    entities.dedup();
    Workload {
        name: "random-partitioned-ish".to_string(),
        nest: multilevel_atomicity::core::nest::Nest::new(k, paths)
            .expect("one universe path per transaction"),
        programs,
        breakpoints,
        initial: entities.into_iter().map(|e| (e, 0)).collect(),
        arrivals,
    }
}

fn detect_run(wl: &Workload, control: &mut MlaDetect, seed: u64) -> SimOutcome {
    run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(seed),
        control,
    )
}

fn detector(wl: &Workload) -> MlaDetect {
    MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps)
}

/// A random sound weakening of a certificate lattice: every condemned
/// universe stays condemned, and each certified universe is kept or
/// demoted by a coin flip. Demotion is always sound (fewer skips, more
/// engine checks), so any sub-lattice must leave histories unchanged.
fn random_sub_lattice(lattice: &StaticCert, rng: &mut SmallRng) -> StaticCert {
    let footprints = (0..lattice.txn_count())
        .map(|t| lattice.footprint(TxnId(t as u32)).to_vec())
        .collect();
    let universe = (0..lattice.txn_count())
        .map(|t| lattice.universe_of(TxnId(t as u32)).unwrap())
        .collect();
    let certified = (0..lattice.universe_count() as u32)
        .map(|u| lattice.is_certified(u) && rng.gen_bool(0.5))
        .collect();
    StaticCert::per_universe(lattice.k(), footprints, universe, certified)
}

#[test]
fn certificates_are_sound_on_random_workloads() {
    let mut certified = 0usize;
    let mut partial = 0usize;
    let mut denied = 0usize;
    for seed in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(0xCE27_0000 + seed);
        let wl = random_workload(&mut rng);
        let certification = certify_workload(&wl);
        let lattice = certification
            .lattice
            .expect("script programs always have known footprints");
        if !lattice.any_certified() {
            // Denial must carry the witness diagnostic, never be silent.
            assert!(
                certification
                    .diagnostics
                    .iter()
                    .any(|d| d.code == Code::CertDenied),
                "seed {seed}: denial without an MLA021 witness"
            );
            denied += 1;
            continue;
        }
        let fully = lattice.fully_certified();
        if fully {
            certified += 1;
            // 1. The theorem oracle agrees with the certificate on random
            //    genuine executions.
            for _ in 0..3 {
                let exec = common::random_execution(&wl, &mut rng, 256);
                if exec.steps().is_empty() {
                    continue;
                }
                assert!(
                    is_correctable(&exec, &wl.nest, &wl.spec())
                        .expect("random execution matches nest and spec"),
                    "seed {seed}: certified workload produced an uncorrectable execution"
                );
            }
        } else {
            partial += 1;
            assert!(
                certification
                    .diagnostics
                    .iter()
                    .any(|d| d.code == Code::CertDenied),
                "seed {seed}: partial certification still carries the MLA021 witness"
            );
        }
        // 2. The certified fast path is history-invisible against the
        //    uncertified control — for full *and* partial lattices.
        let cert = certification.cert.expect("any_certified implies a cert");
        let mut fast = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(cert);
        let out_fast = detect_run(&wl, &mut fast, seed);
        assert!(
            fast.core().certified_skips() > 0,
            "seed {seed}: certified run never took the fast path"
        );
        if fully {
            assert_eq!(
                fast.core().certified_skips(),
                fast.checks,
                "seed {seed}: fully certified run fell off the fast path"
            );
        }
        // Skips land only in certified universes, and account for the
        // whole total.
        let per = fast.core().certified_skips_per_universe();
        assert_eq!(per.iter().sum::<u64>(), fast.core().certified_skips());
        for (u, &skips) in per.iter().enumerate() {
            if !lattice.is_certified(u as u32) {
                assert_eq!(skips, 0, "seed {seed}: condemned universe {u} skipped");
            }
        }
        assert!(oracle::is_correctable_outcome(
            &out_fast,
            &wl.nest,
            &wl.spec()
        ));
        let out_base = detect_run(&wl, &mut detector(&wl), seed);
        if fully {
            assert_eq!(
                out_base.metrics.aborts, 0,
                "seed {seed}: certified workload aborted uncertified"
            );
        }
        assert_eq!(
            out_base.execution.steps(),
            out_fast.execution.steps(),
            "seed {seed}: uncertified history diverged from the certified run"
        );
        assert_eq!(
            out_base.metrics.aborts, out_fast.metrics.aborts,
            "seed {seed}: uncertified verdicts diverged from the certified run"
        );
        // 3. Random sound weakenings of the lattice change nothing.
        for _ in 0..2 {
            let sub = random_sub_lattice(&lattice, &mut rng);
            let mut weak =
                MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(sub);
            let out_weak = detect_run(&wl, &mut weak, seed);
            assert_eq!(
                out_weak.execution.steps(),
                out_fast.execution.steps(),
                "seed {seed}: a sub-lattice changed the history"
            );
            assert_eq!(out_weak.metrics.aborts, out_fast.metrics.aborts);
        }
    }
    // The sweep only means something if every verdict actually occurs.
    assert!(certified >= 5, "only {certified} of 60 workloads certified");
    assert!(denied >= 3, "only {denied} of 60 workloads denied");
    assert!(partial >= 1, "no workload exercised the partial lattice");
}

#[test]
fn certified_partitioned_history_is_identical_across_backends() {
    let p = generate(PartitionedConfig {
        partitions: 2,
        txns_per_partition: 8,
        scanner_len: 8,
        arrival_spacing: 2,
    });
    let wl = &p.workload;
    let cert = certify_workload(wl)
        .cert
        .expect("the partitioned workload must certify");
    let mut fast = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(cert);
    let out_fast = detect_run(wl, &mut fast, 7);
    assert_eq!(out_fast.metrics.committed as usize, wl.txn_count());
    assert_eq!(
        out_fast.metrics.certified_skips,
        fast.core().certified_skips()
    );
    assert_eq!(
        out_fast.metrics.certified_skips_per_universe,
        fast.core().certified_skips_per_universe()
    );
    let out_base = detect_run(wl, &mut detector(wl), 7);
    assert_eq!(out_base.execution.steps(), out_fast.execution.steps());
}

/// The mixed family is the lattice's reason to exist: its Free universe
/// certifies while Atomic and Classmates are condemned, so the old
/// all-or-nothing certificate was `None` and `certified_skips` was
/// pinned at zero. Per-universe certification must now skip for every
/// certifiable universe — under both schedulers — without moving a
/// single byte of history relative to the uncertified control, and
/// every admission stays inside Theorem 2.
#[test]
fn mixed_partial_certificate_skips_and_stays_sound() {
    let wl = mixed::generate(MixedConfig::default()).workload;
    let certification = certify_workload(&wl);
    let cert = certification
        .cert
        .expect("the mixed family must partially certify");
    assert!(cert.any_certified() && !cert.fully_certified());
    let certified = cert.certified_universes();
    assert!(!certified.is_empty());

    // MlaDetect: skips per certifiable universe, zero elsewhere.
    let mut fast =
        MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(cert.clone());
    let out_fast = detect_run(&wl, &mut fast, 11);
    let per = fast.core().certified_skips_per_universe();
    for &u in &certified {
        assert!(per[u as usize] > 0, "universe {u} earned no skips");
    }
    for u in 0..cert.universe_count() as u32 {
        if !cert.is_certified(u) {
            assert_eq!(per[u as usize], 0, "condemned universe {u} skipped");
        }
    }
    assert!(
        oracle::is_correctable_outcome(&out_fast, &wl.nest, &wl.spec()),
        "every certified admission must stay inside Theorem 2"
    );
    let out_base = detect_run(&wl, &mut detector(&wl), 11);
    assert_eq!(
        out_base.execution.steps(),
        out_fast.execution.steps(),
        "uncertified history diverged from the partially certified run"
    );
    assert_eq!(out_base.metrics.aborts, out_fast.metrics.aborts);

    // MlaPrevent: same partial fast path, same history as its own
    // uncertified reference.
    let mut prev_fast = MlaPrevent::new(wl.txn_count(), wl.spec(), VictimPolicy::FewestSteps)
        .with_static_cert(cert);
    let out_prev_fast = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(11),
        &mut prev_fast,
    );
    assert!(
        prev_fast.core().certified_skips() > 0,
        "MlaPrevent earned no certified skips on mixed"
    );
    assert!(oracle::is_correctable_outcome(
        &out_prev_fast,
        &wl.nest,
        &wl.spec()
    ));
    let mut prev_base = MlaPrevent::new(wl.txn_count(), wl.spec(), VictimPolicy::FewestSteps);
    let out_prev_base = run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(11),
        &mut prev_base,
    );
    assert_eq!(
        out_prev_base.execution.steps(),
        out_prev_fast.execution.steps(),
        "MlaPrevent history diverged under the partial certificate"
    );
}

/// Exhaustive check of the omission argument behind the fast path: over
/// *every* DPOR representative of the bounded mixed nest (the tier-1
/// 336-trace shape of the differential harness), an engine that never
/// sees the certified universe's steps reaches exactly the same
/// verdicts on everything else as the full engine. The certificate
/// claims certified steps are dead weight in closure maintenance; here
/// that claim is tested against all representative interleavings, not a
/// sampled few.
#[test]
fn dpor_sweep_certified_omission_engine_agrees_on_every_representative() {
    let cfg = MixedConfig {
        universes: 2,
        txns_per_universe: 2,
        arrival_spacing: 2,
    };
    let wl = mixed::generate(cfg).workload;
    let cert = certify_workload(&wl)
        .cert
        .expect("the bounded mixed nest must partially certify");
    assert!(
        cert.any_certified() && !cert.fully_certified(),
        "the sweep needs both a certified and a condemned universe"
    );
    let input = BoundedNest {
        nest: wl.nest.clone(),
        spec: wl.spec(),
        scripts: wl
            .programs
            .iter()
            .map(|p| p.step_entities().expect("mixed programs are scripted"))
            .collect(),
    };

    let mut reps = 0u64;
    let mut certified_offers = 0u64;
    let stats = explore(&input, |schedule| {
        reps += 1;
        let mut full = ClosureEngine::new(wl.nest.clone(), wl.spec());
        let mut partial = ClosureEngine::new(wl.nest.clone(), wl.spec());
        for (offer, &granted) in schedule.offers.iter().zip(&schedule.verdicts) {
            let certified_step = cert
                .universe_of(offer.txn)
                .is_some_and(|u| cert.is_certified(u));
            match full.apply_step(*offer) {
                Ok(()) => {
                    assert!(granted, "full engine granted a denied offer");
                    full.commit_step();
                }
                Err(witness) => {
                    assert!(!granted, "full engine denied a granted offer");
                    assert!(!witness.txns.is_empty());
                    full.remove_txns(&[offer.txn]);
                }
            }
            if certified_step {
                // The certificate's first claim: certified offers are
                // never denied, in any representative.
                assert!(
                    granted,
                    "representative {reps}: certified txn {:?} was denied",
                    offer.txn
                );
                assert!(
                    cert.covers(offer.txn, offer.entity),
                    "certified step strayed off its recorded footprint"
                );
                certified_offers += 1;
                // The second claim: the step can be omitted entirely.
                continue;
            }
            match partial.apply_step(*offer) {
                Ok(()) => {
                    assert!(
                        granted,
                        "representative {reps}: the omission engine granted what the \
                         full engine denied at {:?}",
                        offer.txn
                    );
                    partial.commit_step();
                }
                Err(_) => {
                    assert!(
                        !granted,
                        "representative {reps}: the omission engine denied what the \
                         full engine granted at {:?}",
                        offer.txn
                    );
                    partial.remove_txns(&[offer.txn]);
                }
            }
        }
        assert_eq!(
            full.execution().steps(),
            schedule.exec.steps(),
            "representative {reps}: full engine history diverged"
        );
        let condemned_only: Vec<_> = schedule
            .exec
            .steps()
            .iter()
            .filter(|s| {
                !cert
                    .universe_of(s.txn)
                    .is_some_and(|u| cert.is_certified(u))
            })
            .copied()
            .collect();
        assert_eq!(
            partial.execution().steps(),
            condemned_only.as_slice(),
            "representative {reps}: the omission engine's history is not the \
             condemned projection of the explored one"
        );
    });
    assert_eq!(reps, stats.explored);
    assert_eq!(reps, 336, "the tier-1 mixed shape changed size: {stats:?}");
    assert!(
        certified_offers > 0,
        "the sweep never exercised a certified offer"
    );
}
