//! The differential harness for the sharded closure engine: three
//! backends — the unsharded [`ClosureEngine`] and serial
//! [`ShardedClosureEngine`]s at 1 and 4 shards — are driven in lockstep
//! through random schedules and must be observationally
//! indistinguishable.
//!
//! Each case builds a random k-nest, breakpoint specification, and
//! entity scripts (entities span several shard residues, so every shard
//! count sees genuine splits *and* cross-shard transactions that force
//! group coalescing), then offers steps in a random interleaving. On
//! every offer the batch [`CoherentClosure`] of the current window plus
//! the candidate is the ground truth; all three backends must return the
//! same grant/deny verdict. Denials abort the *requester* on every
//! backend — a deterministic victim rule, because cycle-witness paths
//! (and hence witness-derived victim choices) are only guaranteed
//! identical up to compaction-rebuild timing, which legitimately differs
//! between a global engine and its shard groups.
//!
//! Between offers the harness randomly fires the two maintenance paths
//! the schedulers use: window eviction (all backends must evict the
//! same transactions — the sharded engine's touched-group projection
//! must match the global scan no matter how rarely it runs) and
//! `flush_rebuild` (rebuilds must be semantically invisible). At the
//! end, every backend's surviving execution must equal the accepted
//! window byte for byte, and the maintained relation is compared
//! pairwise across all backends and against the batch closure of that
//! window.

use std::sync::Arc;

use multilevel_atomicity::core::closure::CoherentClosure;
use multilevel_atomicity::core::nest::Nest;
use multilevel_atomicity::core::spec::ExecContext;
use multilevel_atomicity::core::EngineBackend;
use multilevel_atomicity::explore::{explore, BoundedNest, Schedule};
use multilevel_atomicity::model::{EntityId, Execution, Step, TxnId};
use multilevel_atomicity::txn::{PhaseTable, RuntimeBreakpoints, RuntimeSpec};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The lockstep backends, as shard counts: 0 is the unsharded engine.
const BACKENDS: [usize; 3] = [0, 1, 4];

fn label(shards: usize) -> String {
    match shards {
        0 => "unsharded".to_string(),
        s => format!("sharded({s})"),
    }
}

struct Setup {
    nest: Nest,
    spec: RuntimeSpec,
    scripts: Vec<Vec<EntityId>>,
}

/// A random nest shape, breakpoint specification, and script set. The
/// entity range (0..8) covers every residue class of the largest shard
/// count, and scripts hop residues freely, so coalescing is common.
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
        let script: Vec<EntityId> = (0..len).map(|_| EntityId(rng.gen_range(0..8u32))).collect();
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

/// Replays one explored trace representative through all three backends
/// in lockstep: every backend must reproduce the recorded verdict for
/// every offer (denials abort the requester, as during exploration),
/// and every surviving execution must equal the representative's byte
/// for byte.
fn lockstep_replay(nest: &Nest, spec: &RuntimeSpec, schedule: &Schedule) {
    let mut backends: Vec<EngineBackend<RuntimeSpec>> = BACKENDS
        .iter()
        .map(|&b| EngineBackend::with_shards(nest.clone(), spec.clone(), b))
        .collect();
    for (offer, &granted) in schedule.offers.iter().zip(&schedule.verdicts) {
        for (i, b) in backends.iter_mut().enumerate() {
            match b.apply_step(*offer) {
                Ok(()) => {
                    assert!(
                        granted,
                        "backend {} granted what exploration denied at {:?}",
                        label(BACKENDS[i]),
                        offer.key()
                    );
                    b.commit_step();
                }
                Err(witness) => {
                    assert!(
                        !granted,
                        "backend {} denied what exploration granted at {:?}",
                        label(BACKENDS[i]),
                        offer.key()
                    );
                    assert!(!witness.txns.is_empty());
                    b.remove_txn(offer.txn);
                }
            }
        }
    }
    for (i, b) in backends.iter_mut().enumerate() {
        b.flush_rebuild();
        assert_eq!(
            b.execution().steps(),
            schedule.exec.steps(),
            "backend {} history diverged from the explored representative",
            label(BACKENDS[i])
        );
    }
}

/// Exhaustive three-backend lockstep: every Mazurkiewicz-trace
/// representative of four fixed nests is replayed through all three
/// backends. The first three nests are the hand-counted fixtures from
/// `mla-explore` (their explored counts are re-pinned here); the fourth
/// spreads entities over several shard residues with mid-level
/// breakpoints so shard splits, group coalescing, and denials all occur
/// under exhaustive — not sampled — scheduling.
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

    // Nest 4: four transactions in two k=3 classes, entities spanning
    // residues of both shard counts (0, 1, 4, 5), breakpoints mixed per
    // transaction. In each class a breakpointed transaction conflicts
    // with an atomic one that revisits its entity, so some weaves close
    // a coherence cycle and are denied. The count is pinned from the
    // deterministic exploration rather than hand-computed.
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
/// classes, level-2 breakpoints throughout, entities across shard
/// residues) is fed as one `decide_batch` to the unsharded engine and
/// to the sharded engine at 4 shards. Verdicts and histories must agree
/// with exploration on both.
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
        for shards in [0usize, 4] {
            let mut backend = EngineBackend::with_shards(nest.clone(), spec.clone(), shards);
            let verdicts = backend.decide_batch(&schedule.offers);
            assert!(
                verdicts.iter().all(|v| v.is_ok()),
                "{} denied an offer exploration granted",
                label(shards)
            );
            assert_eq!(
                backend.execution().steps(),
                schedule.exec.steps(),
                "{} history diverged from exploration",
                label(shards)
            );
        }
    });
    assert_eq!(representatives as u64, stats.explored);
    // Each pair's two conflict pairs admit three consistent
    // orientations (both forward, both reversed, or the fully
    // interleaved middle class), independently per class: 3² traces.
    assert_eq!(stats.explored, 9);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_backends_are_indistinguishable(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let setup = random_setup(&mut rng);
        let n = setup.scripts.len();
        let mut backends: Vec<EngineBackend<RuntimeSpec>> = BACKENDS
            .iter()
            .map(|&b| EngineBackend::with_shards(setup.nest.clone(), setup.spec.clone(), b))
            .collect();
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

            // Maintenance probes, at random frequency. Eviction treats
            // finished-and-alive transactions as committed (the
            // scheduler's rule): sources are the still-running ones.
            if rng.gen_bool(0.10) {
                let mut evictions: Vec<Vec<TxnId>> = Vec::new();
                for b in backends.iter_mut() {
                    let is_source =
                        |t: TxnId| alive[t.index()] && !finished(&next_seq, t.index());
                    evictions.push(b.evict_unreachable(is_source));
                }
                for e in &evictions[1..] {
                    prop_assert_eq!(
                        e, &evictions[0],
                        "eviction sets diverged across backends (seed {})", seed
                    );
                }
                accepted.retain(|s| !evictions[0].contains(&s.txn));
            }
            if rng.gen_bool(0.08) {
                for b in backends.iter_mut() {
                    b.flush_rebuild();
                }
            }

            let t = runnable[rng.gen_range(0..runnable.len())];
            // Spontaneous aborts exercise rebuild-on-shrink mid-run.
            if accepted.iter().any(|s| s.txn.0 == t as u32) && rng.gen_bool(0.06) {
                alive[t] = false;
                for b in backends.iter_mut() {
                    b.remove_txn(TxnId(t as u32));
                }
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
            // Batch ground truth: closure of the current window + candidate.
            let mut steps = accepted.clone();
            steps.push(candidate);
            let exec = Execution::new(steps).expect("per-txn seqs stay contiguous");
            let ctx = ExecContext::new(&exec, &setup.nest, &setup.spec)
                .expect("execution matches nest and spec");
            let batch_ok = CoherentClosure::compute(&ctx).is_partial_order();

            let mut granted = 0usize;
            for (i, b) in backends.iter_mut().enumerate() {
                match b.apply_step(candidate) {
                    Ok(()) => {
                        prop_assert!(
                            batch_ok,
                            "backend {} granted what batch denies (seed {})",
                            label(BACKENDS[i]), seed
                        );
                        b.commit_step();
                        granted += 1;
                    }
                    Err(witness) => {
                        prop_assert!(
                            !batch_ok,
                            "backend {} denied what batch grants (seed {})",
                            label(BACKENDS[i]), seed
                        );
                        // Witness *paths* are only identical up to
                        // compaction timing, so assert presence, not
                        // content, and abort the requester deterministically.
                        prop_assert!(!witness.txns.is_empty());
                    }
                }
            }
            if granted > 0 {
                prop_assert_eq!(granted, backends.len());
                accepted.push(candidate);
                next_seq[t] += 1;
            } else {
                // Deterministic victim: abort the requester everywhere.
                alive[t] = false;
                for b in backends.iter_mut() {
                    b.remove_txn(TxnId(t as u32));
                }
                accepted.retain(|s| s.txn.0 != t as u32);
            }
        }

        // Final state: every backend holds exactly the accepted window,
        // and the maintained relations agree pairwise — with each other
        // and with the batch closure of that window.
        for b in backends.iter_mut() {
            b.flush_rebuild();
        }
        for (i, b) in backends.iter().enumerate() {
            let survived = b.execution();
            prop_assert_eq!(
                survived.steps(),
                accepted.as_slice(),
                "backend {} window diverged (seed {})",
                label(BACKENDS[i]),
                seed
            );
        }
        if !accepted.is_empty() {
            let survived = backends[0].execution();
            let ctx = ExecContext::new(&survived, &setup.nest, &setup.spec)
                .expect("surviving execution matches nest and spec");
            let closure = CoherentClosure::compute(&ctx);
            prop_assert!(closure.is_partial_order(), "granted history stayed acyclic");
            let key = |i: usize| -> (TxnId, u32) {
                (ctx.txn_id(ctx.txn_of(i)), ctx.seq_of(i) as u32)
            };
            for u in 0..ctx.n() {
                for v in 0..ctx.n() {
                    if u == v {
                        continue;
                    }
                    let want = closure.related(&ctx, u, v);
                    for (i, b) in backends.iter().enumerate() {
                        prop_assert_eq!(
                            want,
                            b.related_steps(key(u), key(v)),
                            "pair ({}, {}) disagrees on backend {} (seed {})",
                            u, v, label(BACKENDS[i]), seed
                        );
                    }
                }
            }
        }
    }
}
