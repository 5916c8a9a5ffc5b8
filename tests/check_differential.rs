//! Differential cross-check of the black-box `mla-check` history
//! checker against everything else that claims to understand
//! multilevel atomicity:
//!
//! 1. **Schedulers.** Every history `MlaDetect` and `MlaPrevent` admit
//!    — in the simulator and across `mla-serve` live runs — must pass `mla-check` after a trip
//!    through the text format, and the returned witness must actually
//!    be an equivalent multilevel-atomic execution.
//! 2. **The Theorem 2 oracle.** On generated random histories (both
//!    verdicts occur, nothing is biased) `mla-check`'s clustered
//!    saturation must agree with the monolithic `decide` on every
//!    history, and on every mutant (adjacent step swap, breakpoint
//!    drop, read-from rewrite). Every rejection must carry a concrete
//!    cycle witness whose steps resolve in the recorded execution and
//!    span at least two transactions.
//! 3. **Weak mode.** The constrained-linearization fallback may only
//!    strengthen: on a value-consistent history the recorded order
//!    itself realizes, so `Unrealizable` on a strong-pass history is a
//!    soundness bug.
//! 4. **The per-batch reference.** `check` reads each retired batch's
//!    Lemma 1 witness off the closure engine's rows; a reference that
//!    replays through the engine's public eviction API and runs
//!    `decide` on each batch's projection must give the same witness,
//!    step for step.
//!
//! The tier-1 sweep sizes put well over 500 generated histories through
//! the oracle comparison; the `#[ignore]`d loop runs the unbounded
//! version nightly.

use multilevel_atomicity::cc::{MlaDetect, MlaPrevent, VictimPolicy};
use multilevel_atomicity::check::checker::Verdict;
use multilevel_atomicity::check::{
    check, check_weak, communication_clusters, format_history, generate, mutate, parse, GenConfig,
    History, WeakVerdict, MUTATIONS,
};
use multilevel_atomicity::core::atomicity::is_multilevel_atomic;
use multilevel_atomicity::core::theorem::{decide, Correctability};
use multilevel_atomicity::core::ClosureEngine;
use multilevel_atomicity::explore::{explore, BoundedNest};
use multilevel_atomicity::model::program::{ScriptOp, ScriptProgram};
use multilevel_atomicity::model::{EntityId, Execution, Step, TxnId};
use multilevel_atomicity::serve::{
    contended_load, partitioned_load, run as serve_run, ServeConfig,
};
use multilevel_atomicity::sim::{run, SimConfig, SimOutcome};
use multilevel_atomicity::txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};
use multilevel_atomicity::workload::mixed::{self, IsolationDegree, MixedConfig};
use multilevel_atomicity::workload::Workload;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

mod common;

/// A random workload in the partitioned family (the construction the
/// certificate-soundness suite uses): universe-local scripts, a shared
/// entity per universe, random level-2 breakpoints.
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
        let mut ops = Vec::with_capacity(len);
        for i in 0..len {
            let ent = if rng.gen_bool(0.5) {
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

fn detector(wl: &Workload) -> MlaDetect {
    MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps)
}

fn sim_run(
    wl: &Workload,
    control: &mut dyn multilevel_atomicity::sim::Control,
    seed: u64,
) -> SimOutcome {
    run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig::seeded(seed),
        control,
    )
}

/// Captures, round-trips through the text format, and checks one
/// scheduler-admitted history; the witness must be equivalent and
/// multilevel atomic.
fn assert_admitted(wl: &Workload, out: &SimOutcome, label: &str) {
    assert_execution_admitted(wl, &out.execution, label);
}

/// The same end-to-end pipeline on a bare execution (DPOR
/// representatives don't come wrapped in a [`SimOutcome`]).
fn assert_execution_admitted(wl: &Workload, exec: &Execution, label: &str) {
    let h = History::from_execution(exec, &wl.nest, &wl.spec())
        .expect("admitted history matches nest and spec");
    let h = parse(&format_history(&h)).expect("format round-trip");
    match check(&h) {
        Verdict::Pass { witness, .. } => {
            assert!(
                witness.equivalent(h.exec()),
                "{label}: witness not equivalent to the admitted history"
            );
            assert!(
                is_multilevel_atomic(&witness, &wl.nest, &wl.spec())
                    .expect("witness matches nest and spec"),
                "{label}: witness is not multilevel atomic"
            );
        }
        Verdict::Fail { violation } => {
            panic!("{label}: admitted history rejected by mla-check: {violation}")
        }
    }
}

#[test]
fn detect_admitted_histories_pass_across_all_backends() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_0000 + seed);
        let wl = random_workload(&mut rng);
        let out = sim_run(&wl, &mut detector(&wl), seed);
        assert_admitted(&wl, &out, &format!("detect seed {seed}"));
    }
}

#[test]
fn prevent_admitted_histories_pass() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_1000 + seed);
        let wl = random_workload(&mut rng);
        let mut c = MlaPrevent::new(wl.txn_count(), wl.spec(), VictimPolicy::FewestSteps);
        let out = sim_run(&wl, &mut c, seed);
        assert_admitted(&wl, &out, &format!("prevent seed {seed}"));
    }
}

#[test]
fn serve_histories_pass() {
    for (load, label) in [
        (partitioned_load(4, 6), "partitioned"),
        (contended_load(4, 6, 4, 0), "contended"),
    ] {
        let report = serve_run(&load, &ServeConfig::default());
        assert!(report.clean, "{label}: serve drain incomplete");
        assert_eq!(report.stall_breaks, 0, "{label}: the stall breaker fired");
        let exec = multilevel_atomicity::model::Execution::new(report.history.clone())
            .expect("service histories are seq-contiguous");
        let h = History::from_execution(&exec, &load.workload.nest, &load.workload.spec())
            .expect("serve history matches nest and spec");
        let h = parse(&format_history(&h)).expect("format round-trip");
        assert!(
            check(&h).passed(),
            "{label}: serve history rejected by mla-check"
        );
    }
}

/// One oracle-vs-checker comparison; returns whether the history
/// passed. Rejections must locate a multi-transaction cycle in the
/// recorded steps.
fn assert_agreement(h: &History, label: &str) -> bool {
    let oracle = decide(h.exec(), h.nest(), h).expect("history is self-consistent");
    match (oracle.is_correctable(), check(h)) {
        (true, Verdict::Pass { witness, .. }) => {
            assert!(
                witness.equivalent(h.exec()),
                "{label}: witness not equivalent"
            );
            assert!(
                is_multilevel_atomic(&witness, h.nest(), h).expect("witness is self-consistent"),
                "{label}: witness not multilevel atomic"
            );
            true
        }
        (false, Verdict::Fail { violation }) => {
            assert!(
                violation.cycle.len() >= 2,
                "{label}: cycle witness too short"
            );
            let mut txns: Vec<TxnId> = violation.cycle.iter().map(|s| s.txn).collect();
            txns.sort_unstable();
            txns.dedup();
            assert!(
                txns.len() >= 2,
                "{label}: closure cycle confined to one transaction"
            );
            for s in &violation.cycle {
                let rec = h.exec().steps()[s.global];
                assert_eq!(
                    (rec.txn, rec.seq),
                    (s.txn, s.seq),
                    "{label}: dangling cycle ref"
                );
            }
            false
        }
        (correctable, verdict) => panic!(
            "{label}: oracle says correctable={correctable}, mla-check says {}",
            verdict.render()
        ),
    }
}

fn generated_sweep(cases: usize, seed_base: u64, with_mutants: bool) -> (usize, usize) {
    let (mut passed, mut failed) = (0usize, 0usize);
    for i in 0..cases {
        let mut rng = SmallRng::seed_from_u64(seed_base + i as u64);
        let cfg = GenConfig {
            txns: rng.gen_range(1..=6usize),
            entities: rng.gen_range(1..=4usize),
            k: rng.gen_range(2..=4usize),
            break_pct: rng.gen_range(0..=80u32),
            ..GenConfig::default()
        };
        let h = generate(&cfg, &mut rng);
        if assert_agreement(&h, &format!("gen {i}")) {
            passed += 1;
        } else {
            failed += 1;
        }
        if with_mutants {
            for m in MUTATIONS {
                if let Some(mutant) = mutate(&h, m, &mut rng) {
                    if assert_agreement(&mutant, &format!("gen {i} {m:?}")) {
                        passed += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
        }
    }
    (passed, failed)
}

#[test]
fn generated_histories_agree_with_the_theorem_oracle() {
    let (passed, failed) = generated_sweep(300, 0x0A11_0000, false);
    assert!(
        passed >= 40,
        "only {passed} correctable draws — sweep is biased"
    );
    assert!(
        failed >= 40,
        "only {failed} violating draws — sweep is biased"
    );
}

#[test]
fn oracle_rejected_mutants_fail_with_cycle_witnesses() {
    // assert_agreement panics on any disagreement and insists every
    // rejection carries a resolvable multi-transaction cycle, so the
    // counts just pin that mutation actually flips verdicts at scale.
    let (passed, failed) = generated_sweep(200, 0x0A11_9000, true);
    assert!(
        passed + failed >= 500,
        "sweep too small: {}",
        passed + failed
    );
    assert!(failed >= 100, "only {failed} rejections across mutants");
}

#[test]
fn weak_mode_never_contradicts_a_strong_pass() {
    let mut realized = 0usize;
    for i in 0..60u64 {
        let mut rng = SmallRng::seed_from_u64(0x3EA4_0000 + i);
        let cfg = GenConfig {
            txns: rng.gen_range(1..=4usize),
            dup_pct: rng.gen_range(0..=60u32),
            ..GenConfig::default()
        };
        let h = generate(&cfg, &mut rng);
        if !check(&h).passed() {
            continue;
        }
        match check_weak(&h, 100_000) {
            WeakVerdict::Realizable { order } => {
                realized += 1;
                let back = History::from_execution(&order, h.nest(), &h)
                    .expect("realization matches nest and spec");
                assert!(
                    check(&back).passed(),
                    "gen {i}: realization not correctable"
                );
            }
            WeakVerdict::Unrealizable => {
                panic!("gen {i}: weak mode contradicts a strong pass")
            }
            WeakVerdict::BudgetExhausted => {}
        }
    }
    assert!(
        realized >= 10,
        "weak mode realized only {realized} histories"
    );
}

/// The witness `check` gave before it read batches off the engine: the
/// same cluster-by-cluster replay through the engine's public API
/// (`finish_txn` after each transaction's last step, then
/// `evict_unreachable`), each retired batch's steps projected in
/// recorded order and handed to `decide`, the witnesses concatenated in
/// retirement order. `None` when the engine rejects a step.
fn per_batch_decide_witness(h: &History) -> Option<Vec<Step>> {
    let exec = h.exec();
    let mut left: HashMap<TxnId, usize> = HashMap::new();
    for s in exec.steps() {
        *left.entry(s.txn).or_default() += 1;
    }
    let mut engine = ClosureEngine::new(h.nest().clone(), h);
    let mut witness = Vec::with_capacity(exec.len());
    for indices in &communication_clusters(exec).step_indices {
        let mut batch_of: HashMap<TxnId, usize> = HashMap::new();
        for &i in indices {
            let step = exec.steps()[i];
            engine.apply_step(step).ok()?;
            engine.commit_step();
            let n = left.get_mut(&step.txn).expect("counted above");
            *n -= 1;
            if *n == 0 {
                engine.finish_txn(step.txn);
                let batch = batch_of.len();
                for &t in engine.evict_unreachable() {
                    batch_of.insert(t, batch);
                }
            }
        }
        let mut batches: Vec<Vec<Step>> = Vec::new();
        for &i in indices {
            let step = exec.steps()[i];
            let b = batch_of[&step.txn];
            batches.resize_with(batches.len().max(b + 1), Vec::new);
            batches[b].push(step);
        }
        for batch in batches.into_iter().filter(|b| !b.is_empty()) {
            let proj = Execution::new(batch).expect("a batch keeps whole transactions");
            match decide(&proj, h.nest(), h).expect("history is self-consistent") {
                Correctability::Correctable { witness: w } => witness.extend(w.steps()),
                Correctability::NotCorrectable { cycle } => {
                    panic!("a retired batch's projection is cyclic: {cycle}")
                }
            }
        }
    }
    Some(witness)
}

/// `check`'s witness equals the per-batch reference step for step and
/// is an equivalent multilevel-atomic execution, and the reference
/// passes exactly when `check` does. Returns whether the history passed.
fn assert_witness_matches_reference(h: &History, label: &str) -> bool {
    match (check(h), per_batch_decide_witness(h)) {
        (Verdict::Pass { witness, .. }, Some(reference)) => {
            assert_eq!(
                witness.steps(),
                reference.as_slice(),
                "{label}: witness differs from the per-batch decide reference"
            );
            assert!(
                witness.equivalent(h.exec())
                    && is_multilevel_atomic(&witness, h.nest(), h).expect("self-consistent"),
                "{label}: witness is not an equivalent multilevel-atomic execution"
            );
            true
        }
        (Verdict::Fail { .. }, None) => false,
        (verdict, reference) => panic!(
            "{label}: check says {}, the reference replay {}",
            verdict.render(),
            if reference.is_some() {
                "passes"
            } else {
                "fails"
            }
        ),
    }
}

#[test]
fn witnesses_match_the_per_batch_decide_reference() {
    // The `replay_audit` audit shape: 192-transfer banking replays under
    // MlaDetect, one cluster each, 32 seeds.
    for seed in 1..=32u64 {
        let banking = common::replay_audit_banking(192, seed);
        let wl = &banking.workload;
        let out = sim_run(wl, &mut detector(wl), seed);
        let h = History::from_execution(&out.execution, &wl.nest, &wl.spec())
            .expect("the replay matches its nest and spec");
        assert!(
            assert_witness_matches_reference(&h, &format!("banking seed {seed}")),
            "banking seed {seed}: an admitted history failed"
        );
    }
    // Every valid corpus file.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/valid");
    let mut files = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus/valid exists") {
        let path = entry.expect("readable corpus entry").path();
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let h = parse(&text).expect("corpus files parse");
        assert!(
            assert_witness_matches_reference(&h, &path.display().to_string()),
            "{}: a valid corpus file failed",
            path.display()
        );
        files += 1;
    }
    assert!(files >= 40, "only {files} corpus files");
    // The generated sweep and its mutants, both verdicts.
    let mut passed = 0;
    for i in 0..300u64 {
        let mut rng = SmallRng::seed_from_u64(0x0A11_0000 + i);
        let cfg = GenConfig {
            txns: rng.gen_range(1..=6usize),
            entities: rng.gen_range(1..=4usize),
            k: rng.gen_range(2..=4usize),
            break_pct: rng.gen_range(0..=80u32),
            ..GenConfig::default()
        };
        let h = generate(&cfg, &mut rng);
        passed += usize::from(assert_witness_matches_reference(&h, &format!("gen {i}")));
        for m in MUTATIONS {
            if let Some(mutant) = mutate(&h, m, &mut rng) {
                let label = format!("gen {i} {m:?}");
                passed += usize::from(assert_witness_matches_reference(&mutant, &label));
            }
        }
    }
    assert!(passed >= 250, "only {passed} generated histories passed");
}

/// Every universe in one nest at a *different* k-level — the mixed
/// isolation family — driven through the simulator; every admitted
/// history must survive the full
/// pipeline (text round-trip, `mla-check`, Theorem 2 witness).
#[test]
fn mixed_isolation_histories_pass_across_all_backends() {
    let configs = [
        MixedConfig::default(),
        MixedConfig {
            universes: 4,
            txns_per_universe: 3,
            arrival_spacing: 1,
        },
        MixedConfig {
            universes: 2,
            txns_per_universe: 5,
            arrival_spacing: 3,
        },
    ];
    for cfg in configs {
        let generated = mixed::generate(cfg);
        assert!(
            generated.degrees.contains(&IsolationDegree::Free)
                && generated.degrees.contains(&IsolationDegree::Atomic),
            "the family must actually mix degrees"
        );
        let wl = &generated.workload;
        for seed in [3u64, 11] {
            let out = sim_run(wl, &mut detector(wl), seed);
            assert_admitted(wl, &out, &format!("{} seed {seed}", wl.name));
        }
    }
}

/// Exhaustive mixed-isolation coverage shared by the tier-1 and
/// nightly tests: DPOR over a small mixed instance, every trace
/// representative's surviving execution through the full `mla-check` +
/// Theorem 2 pipeline, and the denials attributed per universe — a
/// free universe (level-2 breakpoints everywhere) must never deny,
/// while every atomic or subgroup-split classmates universe must deny
/// somewhere in the tree (the degree has to bite).
fn mixed_dpor(cfg: MixedConfig, expect_reps: u64) {
    let generated = mixed::generate(cfg.clone());
    let wl = &generated.workload;
    let input = BoundedNest {
        nest: wl.nest.clone(),
        spec: wl.spec(),
        scripts: wl
            .programs
            .iter()
            .map(|p| p.step_entities().expect("mixed programs are scripted"))
            .collect(),
    };

    let mut denials_by_universe = vec![0usize; cfg.universes];
    let mut representatives = 0usize;
    let stats = explore(&input, |schedule| {
        representatives += 1;
        for (offer, granted) in schedule.offers.iter().zip(&schedule.verdicts) {
            if !granted {
                denials_by_universe[offer.txn.0 as usize / cfg.txns_per_universe] += 1;
            }
        }
        assert_execution_admitted(
            wl,
            &schedule.exec,
            &format!("{} representative {representatives}", wl.name),
        );
    });
    assert_eq!(representatives as u64, stats.explored);
    assert_eq!(stats.explored, expect_reps, "{}: {stats:?}", wl.name);
    for (u, d) in generated.degrees.iter().enumerate() {
        if *d == IsolationDegree::Free {
            assert_eq!(
                denials_by_universe[u], 0,
                "free universe {u} denied a weave"
            );
        } else {
            assert!(
                denials_by_universe[u] > 0,
                "universe {u} ({d:?}) never denied — the degree is not biting"
            );
        }
    }
}

/// Tier-1 bound: one free and one atomic universe of two transactions
/// each (the classmates degree rides in the simulator sweep above and in
/// the nightly instance — adding its universe here multiplies the
/// denial-rich tree past the tier-1 budget). 336 representatives: the
/// free pair's 6 shared-step weaves times the atomic pair's 56
/// grant/deny branches.
#[test]
fn mixed_isolation_representatives_pass_end_to_end() {
    let cfg = MixedConfig {
        universes: 2,
        txns_per_universe: 2,
        arrival_spacing: 2,
    };
    mixed_dpor(cfg, 336);
}

/// The nightly lift: all three degrees in one nest. The two
/// denial-rich universes multiply the tree to 265,128 representatives
/// — several minutes of exploration, every one checked end-to-end.
#[test]
#[ignore = "nightly: unbounded mixed-isolation exploration"]
fn unbounded_mixed_isolation_exploration() {
    let cfg = MixedConfig {
        universes: 3,
        txns_per_universe: 2,
        arrival_spacing: 2,
    };
    mixed_dpor(cfg, 265_128);
}

/// The unbounded loop the nightly job runs: same assertions, much more
/// volume, fresh seeds each invocation position.
#[test]
#[ignore]
fn unbounded_random_differential() {
    let (passed, failed) = generated_sweep(1500, 0x2162_0000, true);
    assert!(passed > 0 && failed > 0);
    for seed in 100..130u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1FF_2000 + seed);
        let wl = random_workload(&mut rng);
        let out = sim_run(&wl, &mut detector(&wl), seed);
        assert_admitted(&wl, &out, &format!("nightly detect {seed}"));
    }
}
