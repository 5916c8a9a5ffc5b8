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
//! rebuild-on-shrink path mid-run, and random in-schedule window
//! evictions and `flush_rebuild` calls exercise the scheduler's
//! maintenance paths between decisions; after each run the engine's
//! maintained relation is compared pairwise against the batch closure
//! of the surviving execution.
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
use multilevel_atomicity::core::ClosureEngine;
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
                let evicted = engine
                    .evict_unreachable(|t| alive[t.index()] && !finished(&next_seq, t.index()));
                accepted.retain(|s| !evicted.contains(&s.txn));
            }
            // A rebuild between decisions must be semantically invisible.
            if rng.gen_bool(0.08) {
                engine.flush_rebuild();
            }
            let t = runnable[rng.gen_range(0..runnable.len())];
            // Occasionally abort a transaction with history outright,
            // exercising rebuild-on-shrink between decisions.
            if accepted.iter().any(|s| s.txn.0 == t as u32) && rng.gen_bool(0.06) {
                alive[t] = false;
                engine.remove_txn(TxnId(t as u32));
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
                }
                Err(witness) => {
                    prop_assert!(!batch_ok, "engine denied what batch grants (seed {seed})");
                    prop_assert!(!witness.txns.is_empty());
                    // Abort a random witness transaction (the requester
                    // counts as present even with no accepted steps yet).
                    let victims = &witness.txns;
                    let v = victims[rng.gen_range(0..victims.len())];
                    alive[v.index()] = false;
                    engine.remove_txn(v);
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
        // closure of that execution pairwise. A rebuild scheduled by a
        // trailing abort is normally replayed at the next decision; flush
        // it so the maintained relation is current before probing.
        engine.flush_rebuild();
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
                engine.remove_txn(offer.txn);
            }
        }
    }
    engine.flush_rebuild();
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
