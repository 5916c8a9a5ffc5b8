//! Cross-layer equivalence: the incremental [`ClosureEngine`] must make
//! exactly the decisions the batch [`CoherentClosure`] makes, on
//! arbitrary executions.
//!
//! Each case builds a random k-nest (k in 2..=4, random pi-paths), a
//! random phase-breakpoint specification, and random entity scripts,
//! then drives a scheduler-shaped loop: offer steps in random
//! interleavings, grant what the engine grants, and on every offer
//! recompute the coherent closure of the same prefix-plus-candidate from
//! scratch. The grant/deny verdicts must agree step by step — that is
//! the closure's partial-order check in both forms. Random aborts
//! (cycle victims and spontaneous ones) exercise the engine's
//! delete-and-rederive path mid-run, and random in-schedule window
//! evictions and rebuilds run between decisions; after each run the
//! engine's maintained relation is compared pairwise against the batch
//! closure of the surviving execution.
//!
//! The abort differential drives cascades of removals, finishes and
//! evictions and compares the engine, after every maintenance call,
//! with a fresh engine fed its live steps as grants: delete and rederive
//! must leave exactly the relation that replay builds.
//!
//! The eviction cases check [`ClosureEngine::evict_unreachable`], which
//! skips its reachability pass when no source was lost, against a
//! full-scan reference of the same rule after every grant, and pin each
//! path that must force the pass. A lockstep against an engine that
//! never evicts checks that eviction changes no verdict and leaves the
//! projection of the full relation onto the transactions it keeps.
//!
//! Two exhaustive checks replace sampling with enumeration: every
//! Mazurkiewicz-trace representative of a few bounded nests, as
//! `mla-explore` enumerates them, is replayed through the engine step by
//! step and through [`ClosureEngine::decide_batch`], and must reproduce
//! the explored verdicts and history byte for byte.

use std::sync::Arc;

use multilevel_atomicity::core::closure::CoherentClosure;
use multilevel_atomicity::core::nest::Nest;
use multilevel_atomicity::core::spec::ExecContext;
use multilevel_atomicity::core::{ClosureEngine, RelationSignature};
use multilevel_atomicity::explore::{explore, BoundedNest, Schedule};
use multilevel_atomicity::model::{EntityId, Execution, Step, TxnId};
use multilevel_atomicity::txn::{PhaseTable, RuntimeBreakpoints, RuntimeSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Setup {
    nest: Nest,
    spec: RuntimeSpec,
    /// Entity script per transaction.
    scripts: Vec<Vec<EntityId>>,
}

/// A random nest shape, breakpoint specification, and script set.
fn random_setup(rng: &mut SmallRng) -> Setup {
    let k = rng.gen_range(2..=4usize);
    let n = rng.gen_range(2..=6usize);
    let paths: Vec<Vec<u32>> = (0..n)
        .map(|_| {
            (0..k.saturating_sub(2))
                .map(|_| rng.gen_range(0..3u32))
                .collect()
        })
        .collect();
    let nest = Nest::new(k, paths).expect("generated paths have depth k-2");
    let mut spec = RuntimeSpec::new(k);
    let mut scripts = Vec::new();
    for t in 0..n {
        let len = rng.gen_range(1..=5usize);
        let script: Vec<EntityId> = (0..len).map(|_| EntityId(rng.gen_range(0..4u32))).collect();
        // Random phase boundaries at interior positions (levels 2..k are
        // the legal phase levels; k = 2 admits none).
        let mut marks: Vec<(usize, usize)> = Vec::new();
        for pos in 1..len {
            if k > 2 && rng.gen_bool(0.4) {
                marks.push((pos, rng.gen_range(2..k)));
            }
        }
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, marks));
        spec.insert(TxnId(t as u32), bp);
        scripts.push(script);
    }
    Setup {
        nest,
        spec,
        scripts,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_agrees_with_batch_closure(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let setup = random_setup(&mut rng);
        let n = setup.scripts.len();
        let mut engine = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
        let mut accepted: Vec<Step> = Vec::new();
        let mut next_seq = vec![0u32; n];
        let mut alive = vec![true; n];

        let finished = |next_seq: &[u32], t: usize| next_seq[t] as usize >= setup.scripts[t].len();

        loop {
            let runnable: Vec<usize> = (0..n)
                .filter(|&t| alive[t] && !finished(&next_seq, t))
                .collect();
            if runnable.is_empty() {
                break;
            }
            // In-schedule maintenance probes, at random frequency.
            // Eviction treats finished-and-alive transactions as
            // committed (the scheduler's rule): sources are the
            // still-running ones; evicting mid-run must not change any
            // later verdict relative to the shrunken window.
            if rng.gen_bool(0.10) {
                let evicted = engine.evict_unreachable().to_vec();
                accepted.retain(|s| !evicted.contains(&s.txn));
            }
            // A rebuild between decisions must be semantically invisible.
            if rng.gen_bool(0.08) {
                engine.rebuild();
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            // Occasionally abort a transaction with history outright,
            // exercising delete and rederive between decisions.
            if accepted.iter().any(|s| s.txn.0 == t as u32) && rng.gen_bool(0.06) {
                alive[t] = false;
                engine.remove_txns(&[TxnId(t as u32)]);
                accepted.retain(|s| s.txn.0 != t as u32);
                continue;
            }
            let candidate = Step {
                txn: TxnId(t as u32),
                seq: next_seq[t],
                entity: setup.scripts[t][next_seq[t] as usize],
                observed: 0,
                wrote: 0,
            };
            // Batch reference: closure of the same prefix + candidate.
            let mut steps = accepted.clone();
            steps.push(candidate);
            let exec = Execution::new(steps).expect("per-txn seqs stay contiguous");
            let ctx = ExecContext::new(&exec, &setup.nest, &setup.spec)
                .expect("execution matches nest and spec");
            let batch_ok = CoherentClosure::compute(&ctx).is_partial_order();
            match engine.apply_step(candidate) {
                Ok(()) => {
                    prop_assert!(batch_ok, "engine granted what batch denies (seed {seed})");
                    engine.commit_step();
                    accepted.push(candidate);
                    next_seq[t] += 1;
                    if finished(&next_seq, t) {
                        engine.finish_txn(candidate.txn);
                    }
                }
                Err(witness) => {
                    prop_assert!(!batch_ok, "engine denied what batch grants (seed {seed})");
                    prop_assert!(!witness.txns.is_empty());
                    // Abort a random witness transaction (the requester
                    // counts as present even with no accepted steps yet).
                    let victims = &witness.txns;
                    let v = victims[rng.gen_range(0..victims.len())];
                    alive[v.index()] = false;
                    engine.remove_txns(&[v]);
                    accepted.retain(|s| s.txn != v);
                    if v.index() != t {
                        // The requester's candidate was rolled back but
                        // the transaction itself survives to retry.
                    }
                }
            }
        }

        // Final-state agreement: the engine's surviving execution is the
        // accepted prefix, and its maintained relation matches the batch
        // closure of that execution pairwise.
        let survived = engine.execution();
        prop_assert_eq!(survived.steps(), accepted.as_slice());
        if !accepted.is_empty() {
            let ctx = ExecContext::new(&survived, &setup.nest, &setup.spec)
                .expect("surviving execution matches nest and spec");
            let closure = CoherentClosure::compute(&ctx);
            prop_assert!(closure.is_partial_order(), "granted history stayed acyclic");
            let row_of = |i: usize| -> usize {
                let lt = engine
                    .local_of(ctx.txn_id(ctx.txn_of(i)))
                    .expect("live transaction has a column");
                engine.steps_of(lt)[ctx.seq_of(i)]
            };
            for u in 0..ctx.n() {
                for v in 0..ctx.n() {
                    if u == v {
                        continue;
                    }
                    prop_assert_eq!(
                        closure.related(&ctx, u, v),
                        engine.related(row_of(u), row_of(v)),
                        "pair ({}, {}) disagrees (seed {})",
                        u,
                        v,
                        seed
                    );
                }
            }
        }
    }
}

/// The live-window eviction rule by full scan, with no early return and
/// no per-column shortcut: the transaction-level pair relation of every
/// live row's frontier, forward reachability from the live sources, and
/// every live non-source column not reached, in column order.
fn reference_evictions(
    engine: &ClosureEngine<RuntimeSpec>,
    is_source: &dyn Fn(TxnId) -> bool,
) -> Vec<TxnId> {
    let tc = engine.txn_count();
    let live: Vec<bool> = (0..tc)
        .map(|lt| engine.steps_of(lt).iter().any(|&r| engine.is_live(r)))
        .collect();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); tc];
    for tv in 0..tc {
        for &v in engine.steps_of(tv) {
            if !engine.is_live(v) {
                continue;
            }
            for (t, &f) in engine.frontier(v).iter().enumerate() {
                if f != -1 && t != tv && live[t] && !succ[t].contains(&tv) {
                    succ[t].push(tv);
                }
            }
        }
    }
    let mut keep = vec![false; tc];
    let mut stack: Vec<usize> = (0..tc)
        .filter(|&lt| live[lt] && is_source(engine.txn_id(lt)))
        .collect();
    for &lt in &stack {
        keep[lt] = true;
    }
    while let Some(u) = stack.pop() {
        for &w in &succ[u] {
            if !std::mem::replace(&mut keep[w], true) {
                stack.push(w);
            }
        }
    }
    (0..tc)
        .filter(|&lt| live[lt] && !keep[lt])
        .map(|lt| engine.txn_id(lt))
        .collect()
}

/// Calls `evict_unreachable` and asserts it evicts exactly what the
/// full-scan reference evicts on the same state, in the same order, when
/// the sources are the live columns `is_source` keeps (the caller has
/// told the engine of every finish).
fn evict_checked(
    engine: &mut ClosureEngine<RuntimeSpec>,
    is_source: &dyn Fn(TxnId) -> bool,
) -> Vec<TxnId> {
    let expected = reference_evictions(engine, is_source);
    let evicted = engine.evict_unreachable().to_vec();
    assert_eq!(evicted, expected, "eviction diverged from the full scan");
    evicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scheduler-shaped random runs: eviction after every grant, finished
    /// transactions count as committed, aborts (denial victims and
    /// spontaneous ones, committed transactions included) restart the
    /// transaction from its first step up to twice, and rebuilds run at
    /// random. Every eviction must equal the full-scan
    /// reference, and the surviving execution must be exactly the granted
    /// steps of unevicted, unaborted incarnations.
    #[test]
    fn eviction_matches_full_scan_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let setup = random_setup(&mut rng);
        let n = setup.scripts.len();
        let mut engine = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
        let mut accepted: Vec<Step> = Vec::new();
        let mut next_seq = vec![0u32; n];
        let mut restarts = vec![0u32; n];
        let mut alive = vec![true; n];
        let mut abort = |t: TxnId,
                         engine: &mut ClosureEngine<RuntimeSpec>,
                         accepted: &mut Vec<Step>,
                         next_seq: &mut [u32],
                         alive: &mut [bool]| {
            engine.remove_txns(&[t]);
            accepted.retain(|s| s.txn != t);
            next_seq[t.index()] = 0;
            restarts[t.index()] += 1;
            alive[t.index()] = restarts[t.index()] <= 2;
        };
        for _ in 0..200 {
            let runnable: Vec<usize> = (0..n)
                .filter(|&t| alive[t] && (next_seq[t] as usize) < setup.scripts[t].len())
                .collect();
            if runnable.is_empty() {
                break;
            }
            if rng.gen_bool(0.08) {
                engine.rebuild();
            }
            if !accepted.is_empty() && rng.gen_bool(0.06) {
                let t = accepted[rng.gen_range(0..accepted.len())].txn;
                abort(t, &mut engine, &mut accepted, &mut next_seq, &mut alive);
                continue;
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            let candidate = Step {
                txn: TxnId(t as u32),
                seq: next_seq[t],
                entity: setup.scripts[t][next_seq[t] as usize],
                observed: 0,
                wrote: 0,
            };
            match engine.apply_step(candidate) {
                Ok(()) => {
                    engine.commit_step();
                    accepted.push(candidate);
                    next_seq[t] += 1;
                    if next_seq[t] as usize == setup.scripts[t].len() {
                        engine.finish_txn(candidate.txn);
                    }
                    let is_source = |u: TxnId| {
                        alive[u.index()]
                            && (next_seq[u.index()] as usize) < setup.scripts[u.index()].len()
                    };
                    let evicted = evict_checked(&mut engine, &is_source);
                    accepted.retain(|s| !evicted.contains(&s.txn));
                }
                Err(witness) => {
                    let v = witness.txns[rng.gen_range(0..witness.txns.len())];
                    abort(v, &mut engine, &mut accepted, &mut next_seq, &mut alive);
                }
            }
        }
        let survived = engine.execution();
        prop_assert_eq!(survived.steps(), accepted.as_slice());
    }
}

/// `sig` restricted to the transactions `held` names: their rows, and in
/// each row their columns only.
fn restricted(sig: RelationSignature, held: &[u32]) -> RelationSignature {
    sig.into_iter()
        .filter(|((t, _), _)| held.contains(t))
        .map(|(step, row)| {
            (
                step,
                row.into_iter().filter(|(t, _)| held.contains(t)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eviction is a pure cost optimisation. Two engines take the same
    /// scheduler-shaped offers: grants, defers, finishes, the requester
    /// aborted on a denial, and random aborts of unfinished
    /// transactions, each restarting up to twice. One engine runs the
    /// eviction pass after every grant, as the §6 schedulers do; the
    /// other never evicts. Their verdicts must agree on every offer, and
    /// after every grant the evicting engine's relation must be the
    /// other's projected onto the transactions it still holds
    /// (DESIGN.md §6).
    #[test]
    fn eviction_never_changes_a_verdict(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let setup = random_setup(&mut rng);
        let n = setup.scripts.len();
        let mut evicting = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
        let mut full = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
        let mut next_seq = vec![0u32; n];
        let mut restarts = vec![0u32; n];
        let mut alive = vec![true; n];
        let finished = |next_seq: &[u32], t: usize| next_seq[t] as usize == setup.scripts[t].len();
        for _ in 0..240 {
            let runnable: Vec<usize> = (0..n)
                .filter(|&t| alive[t] && !finished(&next_seq, t))
                .collect();
            if runnable.is_empty() {
                break;
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            // A random abort of a running transaction with history, or
            // the requester on a denial: both engines remove it, and it
            // restarts from its first step.
            let mut victim = (next_seq[t] > 0 && rng.gen_bool(0.06)).then_some(t);
            if victim.is_none() {
                let candidate = Step {
                    txn: TxnId(t as u32),
                    seq: next_seq[t],
                    entity: setup.scripts[t][next_seq[t] as usize],
                    observed: 0,
                    wrote: 0,
                };
                let granted = evicting.apply_step(candidate).is_ok();
                prop_assert_eq!(
                    granted,
                    full.apply_step(candidate).is_ok(),
                    "eviction changed the verdict on {:?} (seed {})",
                    candidate,
                    seed
                );
                if !granted {
                    victim = Some(t);
                } else if rng.gen_bool(0.15) {
                    evicting.rollback_step();
                    full.rollback_step();
                } else {
                    evicting.commit_step();
                    full.commit_step();
                    evicting.evict_unreachable();
                    let sig = evicting.relation_signature();
                    let mut held: Vec<u32> = sig.iter().map(|((t, _), _)| *t).collect();
                    held.dedup();
                    prop_assert_eq!(
                        &sig,
                        &restricted(full.relation_signature(), &held),
                        "the evicting engine's relation is not the projection (seed {})",
                        seed
                    );
                    next_seq[t] += 1;
                    if finished(&next_seq, t) {
                        evicting.finish_txn(candidate.txn);
                        full.finish_txn(candidate.txn);
                    }
                }
            }
            if let Some(v) = victim {
                evicting.remove_txns(&[TxnId(v as u32)]);
                full.remove_txns(&[TxnId(v as u32)]);
                next_seq[v] = 0;
                restarts[v] += 1;
                alive[v] = restarts[v] <= 2;
            }
        }
    }
}

/// The replayed reference: a fresh engine fed `engine`'s live steps in
/// order, each applied and committed. No removal, rederive, eviction or
/// compaction runs in it, so it shares no maintenance path with `engine`.
fn replayed(engine: &ClosureEngine<RuntimeSpec>, setup: &Setup) -> ClosureEngine<RuntimeSpec> {
    let mut reference = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
    for &s in engine.execution().steps() {
        reference
            .apply_step(s)
            .expect("the live steps of an acyclic engine replay as grants");
        reference.commit_step();
    }
    reference
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The abort differential. Random grants and defers, cascades of
    /// one to three victims removed one by one or by one `remove_txns`
    /// call (denial victims, committed transactions, repeats and the
    /// requester included), finishes and eviction passes, with every
    /// aborted transaction restarting up to twice. After every
    /// maintenance call the engine's relation signature must equal that
    /// of a fresh engine fed its live steps, and that of a snapshot after
    /// `rebuild` (the engine's reference); its live execution must be
    /// the granted steps of live incarnations, and every verdict must
    /// equal the batch closure's on the same steps. No maintenance call
    /// may rebuild.
    #[test]
    fn abort_rederive_matches_rebuild_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let setup = random_setup(&mut rng);
        let n = setup.scripts.len();
        let mut engine = ClosureEngine::new(setup.nest.clone(), setup.spec.clone());
        let mut accepted: Vec<Step> = Vec::new();
        let mut next_seq = vec![0u32; n];
        let mut restarts = vec![0u32; n];
        let mut alive = vec![true; n];
        let check = |engine: &ClosureEngine<RuntimeSpec>, accepted: &[Step], what: &str| {
            assert_eq!(engine.execution().steps(), accepted, "{what} (seed {seed})");
            assert_eq!(
                engine.relation_signature(),
                replayed(engine, &setup).relation_signature(),
                "{what} left a relation a replay does not (seed {seed})"
            );
            let mut rebuilt = engine.snapshot();
            rebuilt.rebuild();
            assert_eq!(
                rebuilt.relation_signature(),
                engine.relation_signature(),
                "a rebuild after {what} moved the relation (seed {seed})"
            );
        };
        for _ in 0..240 {
            let runnable: Vec<usize> = (0..n)
                .filter(|&t| alive[t] && (next_seq[t] as usize) < setup.scripts[t].len())
                .collect();
            if runnable.is_empty() {
                break;
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            let candidate = Step {
                txn: TxnId(t as u32),
                seq: next_seq[t],
                entity: setup.scripts[t][next_seq[t] as usize],
                observed: 0,
                wrote: 0,
            };
            let mut steps = accepted.clone();
            steps.push(candidate);
            let exec = Execution::new(steps).expect("per-txn seqs stay contiguous");
            let ctx = ExecContext::new(&exec, &setup.nest, &setup.spec)
                .expect("execution matches nest and spec");
            let batch_ok = CoherentClosure::compute(&ctx).is_partial_order();
            // Victims of a cascade: on a denial a witness transaction,
            // otherwise now and then a transaction with history; then
            // up to two more with history.
            let mut victims: Vec<TxnId> = Vec::new();
            match engine.apply_step(candidate) {
                Ok(()) => {
                    prop_assert!(batch_ok, "engine granted what batch denies (seed {seed})");
                    if rng.gen_bool(0.2) {
                        engine.rollback_step();
                        continue;
                    }
                    engine.commit_step();
                    accepted.push(candidate);
                    next_seq[t] += 1;
                    if next_seq[t] as usize == setup.scripts[t].len() {
                        engine.finish_txn(candidate.txn);
                        check(&engine, &accepted, "a finish");
                    }
                    if rng.gen_bool(0.5) {
                        let evicted = engine.evict_unreachable().to_vec();
                        accepted.retain(|s| !evicted.contains(&s.txn));
                        check(&engine, &accepted, "an eviction pass");
                    }
                    if !accepted.is_empty() && rng.gen_bool(0.12) {
                        victims.push(accepted[rng.gen_range(0..accepted.len())].txn);
                    }
                }
                Err(witness) => {
                    prop_assert!(!batch_ok, "engine denied what batch grants (seed {seed})");
                    victims.push(witness.txns[rng.gen_range(0..witness.txns.len())]);
                }
            }
            if victims.is_empty() {
                continue;
            }
            for _ in 0..rng.gen_range(0..3) {
                if let Some(s) = accepted.get(rng.gen_range(0..accepted.len().max(1))) {
                    victims.push(s.txn);
                }
            }
            // The cascade leaves one at a time or, as the schedulers
            // remove it, all at once.
            let together = rng.gen_bool(0.5);
            if together {
                engine.remove_txns(&victims);
            }
            for &v in &victims {
                if !together {
                    engine.remove_txns(&[v]);
                }
                accepted.retain(|s| s.txn != v);
                next_seq[v.index()] = 0;
                restarts[v.index()] += 1;
                alive[v.index()] = restarts[v.index()] <= 2;
                if !together {
                    check(&engine, &accepted, "a removal");
                }
            }
            check(&engine, &accepted, "a cascade");
        }
        prop_assert_eq!(engine.counters().rebuilds, 0);
    }
}

fn step(txn: u32, seq: u32, entity: u32) -> Step {
    Step {
        txn: TxnId(txn),
        seq,
        entity: EntityId(entity),
        observed: 0,
        wrote: 0,
    }
}

/// A flat two-level engine fed `steps` in order, every one granted.
fn granted(txns: usize, steps: &[Step]) -> ClosureEngine<RuntimeSpec> {
    let mut engine = ClosureEngine::new(Nest::flat(txns), phase_spec(2, &vec![&[][..]; txns]));
    for &s in steps {
        engine.apply_step(s).expect("the fixture is acyclic");
        engine.commit_step();
    }
    engine
}

/// A pass is made only after a source is lost: skipped while every
/// source stays a source, and forced by a commit.
#[test]
fn eviction_rescans_after_a_commit() {
    // t0 and t1 on disjoint entities: neither reaches the other.
    let mut engine = granted(2, &[step(0, 0, 0), step(1, 0, 1)]);
    let running = |_: TxnId| true;
    assert!(evict_checked(&mut engine, &running).is_empty());
    assert_eq!(engine.counters().evict_scans, 0, "no source lost: no pass");
    // t0 commits: no source reaches it any more.
    engine.finish_txn(TxnId(0));
    let t0_committed = |t: TxnId| t != TxnId(0);
    assert_eq!(evict_checked(&mut engine, &t0_committed), vec![TxnId(0)]);
    assert_eq!(engine.counters().evict_scans, 1);
    assert!(evict_checked(&mut engine, &t0_committed).is_empty());
    assert_eq!(engine.counters().evict_scans, 1, "nothing changed: no pass");
    // A new transaction that commits at once forces a pass.
    engine.apply_step(step(2, 0, 2)).unwrap();
    engine.commit_step();
    engine.finish_txn(TxnId(2));
    let t2_committed = |t: TxnId| t == TxnId(1);
    assert_eq!(evict_checked(&mut engine, &t2_committed), vec![TxnId(2)]);
    assert_eq!(engine.counters().evict_scans, 2);
}

/// An abort after a pass removes pairs without any finish; the pass
/// must still run.
#[test]
fn eviction_rescans_after_remove_txn() {
    // t0 -> t1 -> t2 along entities 0 and 1; t1 and t2 are committed and
    // kept only because the running t0 reaches them.
    let mut engine = granted(
        3,
        &[step(0, 0, 0), step(1, 0, 0), step(1, 1, 1), step(2, 0, 1)],
    );
    engine.finish_txn(TxnId(1));
    engine.finish_txn(TxnId(2));
    let only_t0 = |t: TxnId| t == TxnId(0);
    assert!(evict_checked(&mut engine, &only_t0).is_empty());
    assert_eq!(engine.counters().evict_scans, 1);
    engine.remove_txns(&[TxnId(0)]);
    assert_eq!(
        evict_checked(&mut engine, &only_t0),
        vec![TxnId(1), TxnId(2)]
    );
    assert_eq!(engine.counters().evict_scans, 2);
}

/// A commit rolled back — the transaction leaves the engine and restarts
/// from its first step — comes back as a source; committing it again, or
/// the other transaction, brings the pass back.
#[test]
fn eviction_after_commit_rollback_resumes_source_status() {
    // t0 -> t1 along entity 0; t1 commits.
    let mut engine = granted(2, &[step(0, 0, 0), step(1, 0, 0)]);
    engine.finish_txn(TxnId(1));
    let only_t0 = |t: TxnId| t == TxnId(0);
    assert!(evict_checked(&mut engine, &only_t0).is_empty());
    assert_eq!(engine.counters().evict_scans, 1);
    // t1's commit is rolled back and it restarts on entity 1: a source
    // again. The removal forces a pass, which keeps both.
    engine.remove_txns(&[TxnId(1)]);
    engine.apply_step(step(1, 0, 1)).unwrap();
    engine.commit_step();
    let both = |_: TxnId| true;
    assert!(evict_checked(&mut engine, &both).is_empty());
    assert_eq!(engine.counters().evict_scans, 2);
    // Now t0 commits, and t1's new incarnation is the only source.
    engine.finish_txn(TxnId(0));
    let only_t1 = |t: TxnId| t == TxnId(1);
    assert_eq!(evict_checked(&mut engine, &only_t1), vec![TxnId(0)]);
    assert_eq!(engine.counters().evict_scans, 3);
    assert_eq!(engine.execution().steps(), [step(1, 0, 1)]);
}

/// A [`RuntimeSpec`] assigning each transaction a [`PhaseTable`] with
/// the given `(position, level)` marks.
fn phase_spec(k: usize, marks: &[&[(usize, usize)]]) -> RuntimeSpec {
    let mut spec = RuntimeSpec::new(k);
    for (t, m) in marks.iter().enumerate() {
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, m.to_vec()));
        spec.insert(TxnId(t as u32), bp);
    }
    spec
}

/// Replays one explored trace representative through the engine: it
/// must reproduce the recorded verdict for every offer (denials abort
/// the requester, as during exploration), and the surviving execution
/// must equal the representative's byte for byte.
fn lockstep_replay(nest: &Nest, spec: &RuntimeSpec, schedule: &Schedule) {
    let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
    for (offer, &granted) in schedule.offers.iter().zip(&schedule.verdicts) {
        match engine.apply_step(*offer) {
            Ok(()) => {
                assert!(
                    granted,
                    "engine granted what exploration denied at {:?}",
                    offer.key()
                );
                engine.commit_step();
            }
            Err(witness) => {
                assert!(
                    !granted,
                    "engine denied what exploration granted at {:?}",
                    offer.key()
                );
                assert!(!witness.txns.is_empty());
                engine.remove_txns(&[offer.txn]);
            }
        }
    }
    assert_eq!(
        engine.execution().steps(),
        schedule.exec.steps(),
        "engine history diverged from the explored representative"
    );
}

/// Exhaustive lockstep: every Mazurkiewicz-trace representative of four
/// fixed nests is replayed through the engine. The first three nests
/// are the hand-counted fixtures from `mla-explore` (their explored
/// counts are re-pinned here); the fourth spreads entities over two
/// classes with mid-level breakpoints so denials occur under exhaustive
/// — not sampled — scheduling.
#[test]
fn exhaustive_lockstep_covers_every_trace_representative() {
    // Nest 1: disjoint pair under flat serializability — one trace.
    let input = BoundedNest {
        nest: Nest::flat(2),
        spec: phase_spec(2, &[&[], &[]]),
        scripts: vec![vec![EntityId(0); 2], vec![EntityId(1); 2]],
    };
    let stats = explore(&input, |s| lockstep_replay(&input.nest, &input.spec, s));
    assert_eq!(stats.explored, 1);

    // Nest 2: the same shape contending on one entity — six schedules,
    // four of them carrying a denial.
    let input = BoundedNest {
        nest: Nest::flat(2),
        spec: phase_spec(2, &[&[], &[]]),
        scripts: vec![vec![EntityId(5); 2], vec![EntityId(5); 2]],
    };
    let mut denials = 0usize;
    let stats = explore(&input, |s| {
        denials += usize::from(!s.all_granted());
        lockstep_replay(&input.nest, &input.spec, s);
    });
    assert_eq!(stats.explored, 6);
    assert_eq!(denials, 4);

    // Nest 3: free weaving at k = 3 (a level-2 breakpoint between the
    // two steps of every transaction), t0/t1 contended, t2 independent.
    let nest = Nest::new(3, vec![vec![0], vec![0], vec![0]]).unwrap();
    let input = BoundedNest {
        nest,
        spec: phase_spec(3, &[&[(1, 2)], &[(1, 2)], &[(1, 2)]]),
        scripts: vec![
            vec![EntityId(0); 2],
            vec![EntityId(0); 2],
            vec![EntityId(1); 2],
        ],
    };
    let stats = explore(&input, |s| lockstep_replay(&input.nest, &input.spec, s));
    assert_eq!(stats.explored, 6);

    // Nest 4: four transactions in two k=3 classes over entities 0, 1,
    // 4 and 5, breakpoints mixed per transaction. In each class a
    // breakpointed transaction conflicts with an atomic one that
    // revisits its entity, so some weaves close a coherence cycle and
    // are denied. The count is pinned from the deterministic
    // exploration rather than hand-computed.
    let nest = Nest::new(3, vec![vec![0], vec![0], vec![1], vec![1]]).unwrap();
    let input = BoundedNest {
        nest,
        spec: phase_spec(3, &[&[(1, 2)], &[], &[(1, 2)], &[]]),
        scripts: vec![
            vec![EntityId(0), EntityId(4)],
            vec![EntityId(4), EntityId(4)],
            vec![EntityId(1), EntityId(5)],
            vec![EntityId(5), EntityId(5)],
        ],
    };
    let mut verdict_mix = (0usize, 0usize);
    let stats = explore(&input, |s| {
        if s.all_granted() {
            verdict_mix.0 += 1;
        } else {
            verdict_mix.1 += 1;
        }
        lockstep_replay(&input.nest, &input.spec, s);
    });
    assert_eq!(stats.explored, 38);
    assert_eq!(verdict_mix, (4, 34), "(all-grant, with-denial) split");
    assert!(stats.sleep_skips > 0, "cross-class independence pruned");
    assert!(stats.cache_hits > 0, "memoized probe answers were reused");
}

/// The batch path under every commit ordering: instead of *sampling*
/// orders, enumerate them. Every Mazurkiewicz-trace representative of
/// an all-grant bounded nest (two contended pairs in separate k=3
/// classes, level-2 breakpoints throughout) is fed to the engine as one
/// `decide_batch`. Verdicts and history must agree with exploration.
#[test]
fn batch_sequencer_agrees_on_every_commit_ordering() {
    let k = 3;
    let nest =
        Nest::new(k, vec![vec![0], vec![0], vec![1], vec![1]]).expect("paths have depth k-2");
    let spec = phase_spec(k, &[&[(1, 2)], &[(1, 2)], &[(1, 2)], &[(1, 2)]]);
    let input = BoundedNest {
        nest: nest.clone(),
        spec: spec.clone(),
        scripts: vec![
            vec![EntityId(0), EntityId(4)],
            vec![EntityId(4), EntityId(0)],
            vec![EntityId(1), EntityId(5)],
            vec![EntityId(5), EntityId(1)],
        ],
    };

    let mut representatives = 0usize;
    let stats = explore(&input, |schedule| {
        assert!(
            schedule.all_granted(),
            "free weaving must grant every offer (the test relies on it: \
             exploration aborts deniers, decide_batch poisons them)"
        );
        representatives += 1;
        let mut engine = ClosureEngine::new(nest.clone(), spec.clone());
        let verdicts = engine.decide_batch(&schedule.offers);
        assert!(
            verdicts.iter().all(|v| v.is_ok()),
            "the engine denied an offer exploration granted"
        );
        assert_eq!(
            engine.execution().steps(),
            schedule.exec.steps(),
            "engine history diverged from exploration"
        );
    });
    assert_eq!(representatives as u64, stats.explored);
    // Each pair's two conflict pairs admit three consistent
    // orientations (both forward, both reversed, or the fully
    // interleaved middle class), independently per class: 3² traces.
    assert_eq!(stats.explored, 9);
}
