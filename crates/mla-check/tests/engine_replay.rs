//! Strong mode against the batch decision procedure.
//!
//! `check` replays each cluster through the closure engine and builds
//! its witness one retired batch at a time, running Lemma 1 over the
//! engine's own rows of the batch as it retires; `theorem::decide`
//! saturates the whole history's coherent closure at once. The two
//! share no code on the verdict path (only Lemma 1's `extend`, which
//! orders a `Pass`), so agreement here is a real cross-check:
//!
//! * on generated histories and their mutants the verdicts agree, and
//!   every `Pass` witness is an equivalent multilevel-atomic execution;
//! * a `Fail` reports exactly the cycle `decide` finds on the cluster;
//! * hand-built shapes pin what the batches look like: an early
//!   transaction retiring mid-cluster, and a carrier chain through a
//!   finished transaction that eviction must not cut;
//! * the checked-in corpus keeps its verdicts, with every witness
//!   re-validated.

use std::path::Path;

use mla_check::{check, generate, mutate, parse, GenConfig, History, Verdict, MUTATIONS};
use mla_core::atomicity::is_multilevel_atomic;
use mla_core::nest::Nest;
use mla_core::theorem::{decide, Correctability, StepRef};
use mla_model::{EntityId, Execution, Step, TxnId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn step(t: u32, seq: u32, e: u32) -> Step {
    Step {
        txn: TxnId(t),
        seq,
        entity: EntityId(e),
        observed: 0,
        wrote: 0,
    }
}

fn history(
    k: usize,
    paths: Vec<Vec<u32>>,
    marks: Vec<Vec<Vec<usize>>>,
    steps: Vec<Step>,
) -> History {
    History::new(
        Nest::new(k, paths).unwrap(),
        marks,
        vec![],
        Execution::new(steps).unwrap(),
    )
    .unwrap()
}

fn order(witness: &Execution) -> Vec<(u32, u32)> {
    witness.steps().iter().map(|s| (s.txn.0, s.seq)).collect()
}

fn assert_valid_witness(h: &History, witness: &Execution, label: &str) {
    assert!(
        witness.equivalent(h.exec()),
        "{label}: witness not equivalent"
    );
    assert!(
        is_multilevel_atomic(witness, h.nest(), h).expect("witness is self-consistent"),
        "{label}: witness not multilevel atomic"
    );
}

/// The cycle `decide` reports on a history that is one cluster, with
/// its steps as `check` names them.
fn decide_cycle(h: &History) -> Vec<StepRef> {
    match decide(h.exec(), h.nest(), h).unwrap() {
        Correctability::NotCorrectable { cycle } => cycle.steps,
        Correctability::Correctable { .. } => panic!("decide accepts the history"),
    }
}

/// Compares `check` with `decide` on `h`. Returns `Some(moved)` on a
/// pass — whether the witness differs from `decide`'s — and `None` on a
/// fail.
fn assert_agreement(h: &History, label: &str) -> Option<bool> {
    let oracle = decide(h.exec(), h.nest(), h).expect("history is self-consistent");
    match (oracle, check(h)) {
        (Correctability::Correctable { witness: batch }, Verdict::Pass { witness, .. }) => {
            assert_valid_witness(h, &witness, label);
            Some(witness != batch)
        }
        (Correctability::NotCorrectable { .. }, Verdict::Fail { violation }) => {
            assert!(violation.cycle.len() >= 2, "{label}: cycle too short");
            for s in &violation.cycle {
                let rec = h.exec().steps()[s.global];
                assert_eq!((rec.txn, rec.seq), (s.txn, s.seq), "{label}: dangling ref");
            }
            None
        }
        (oracle, verdict) => panic!(
            "{label}: decide says correctable={}, check says {}",
            oracle.is_correctable(),
            verdict.render()
        ),
    }
}

#[test]
fn generated_and_mutated_histories_agree_with_decide() {
    let (mut passed, mut failed, mut moved) = (0usize, 0usize, 0usize);
    for i in 0..400u64 {
        let mut rng = SmallRng::seed_from_u64(0xE_4E91_0000 + i);
        let cfg = GenConfig {
            txns: rng.gen_range(2..=13usize),
            entities: rng.gen_range(1..=6usize),
            k: rng.gen_range(2..=5usize),
            max_len: rng.gen_range(1..=5usize),
            break_pct: rng.gen_range(0..=90u32),
            ..GenConfig::default()
        };
        let h = generate(&cfg, &mut rng);
        let mut cases = vec![(h.clone(), format!("gen {i}"))];
        for m in MUTATIONS {
            if let Some(mutant) = mutate(&h, m, &mut rng) {
                cases.push((mutant, format!("gen {i} {m:?}")));
            }
        }
        for (h, label) in &cases {
            match assert_agreement(h, label) {
                Some(m) => {
                    passed += 1;
                    moved += usize::from(m);
                }
                None => failed += 1,
            }
        }
    }
    assert!(passed >= 300, "only {passed} correctable cases");
    assert!(failed >= 500, "only {failed} violating cases");
    // Witnesses that differ from the whole-history extension: batches
    // (or clusters) that retire separately.
    assert!(moved >= 150, "only {moved} witnesses moved");
}

#[test]
fn an_early_transaction_retires_mid_cluster() {
    // t1 finishes before anyone else starts; t0 finishes before t2
    // starts. t2 then joins both on x0 and x1, so the history is one
    // cluster, but it retires in three batches: [t1], [t0], [t2].
    let h = history(
        2,
        vec![vec![]; 3],
        vec![],
        vec![
            step(1, 0, 1),
            step(0, 0, 0),
            step(0, 1, 0),
            step(2, 0, 0),
            step(2, 1, 1),
        ],
    );
    let Verdict::Pass { witness, clusters } = check(&h) else {
        panic!("the serial history passes");
    };
    assert_eq!(clusters, 1);
    assert_eq!(
        order(&witness),
        vec![(1, 0), (0, 0), (0, 1), (2, 0), (2, 1)]
    );
    assert_valid_witness(&h, &witness, "three batches");
    let Correctability::Correctable { witness: whole } = decide(h.exec(), h.nest(), &h).unwrap()
    else {
        panic!("decide rejects a serial history");
    };
    assert_ne!(
        order(&whole),
        order(&witness),
        "the batch witness should differ from the whole-cluster one"
    );
}

/// The carrier-chain shape behind
/// `eviction_preserves_carrier_chains_cad_regression`: a finished
/// transaction `C` carries a live one's influence from a late in-pair
/// to an early out-pair that a condition-(b) lift extends across `C`'s
/// segment. With `c_break`, `C` has a level-2 breakpoint between its
/// steps and there is no lift.
fn carrier_chain(c_break: bool) -> History {
    // k = 3, one level-2 class: level(t, t') = 2 for every pair.
    // C = t0: c0 on y(1), c1 on x(0). D = t1: d0 on y, d1 on z(2).
    // L = t2: l0 on x, l1 on z.
    let c_marks = if c_break { vec![vec![1]] } else { vec![vec![]] };
    history(
        3,
        vec![vec![0]; 3],
        vec![c_marks],
        vec![
            step(0, 0, 1), // c0
            step(1, 0, 1), // d0: c0 <= d0, lifted to c1 <= d0
            step(1, 1, 2), // d1: D is done; only C reaches it
            step(2, 0, 0), // l0
            step(0, 1, 0), // c1: l0 <= c1; C is done, L reaches it
            step(2, 1, 2), // l1: d1 <= l1, lifted l1 <= c1 closes the cycle
        ],
    )
}

#[test]
fn a_carrier_chain_through_a_finished_transaction_fails() {
    let h = carrier_chain(false);
    let Verdict::Fail { violation } = check(&h) else {
        panic!("the carrier chain is a closure cycle");
    };
    assert_eq!(violation.cluster, vec![TxnId(0), TxnId(1), TxnId(2)]);
    assert_eq!(violation.cycle, decide_cycle(&h));

    // Without the lift the same interleaving is correctable.
    let h = carrier_chain(true);
    let Verdict::Pass { witness, .. } = check(&h) else {
        panic!("a breakpoint in C removes the lift");
    };
    assert_valid_witness(&h, &witness, "carrier chain with a breakpoint");
}

#[test]
fn the_cross_window_plant_keeps_its_cycle() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("corpus/invalid/serve-cross-window.hist"))
        .expect("read the planted history");
    let h = parse(&text).expect("the plant parses");
    let Verdict::Fail { violation } = check(&h) else {
        panic!("the plant must fail");
    };
    assert_eq!(violation.cluster, vec![TxnId(127), TxnId(128)]);
    let cycle: Vec<(u32, u32, usize)> = violation
        .cycle
        .iter()
        .map(|s| (s.txn.0, s.seq, s.global))
        .collect();
    assert_eq!(cycle, vec![(128, 1, 256), (127, 1, 257)]);
}

#[test]
fn corpus_verdicts_hold_and_every_witness_validates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut seen = 0;
    for bucket in ["valid", "invalid"] {
        for entry in std::fs::read_dir(root.join(bucket)).expect("read corpus dir") {
            let path = entry.expect("dir entry").path();
            let text = std::fs::read_to_string(&path).expect("read corpus file");
            let h = parse(&text).expect("corpus file parses");
            let label = path.display().to_string();
            match (bucket, check(&h)) {
                ("valid", Verdict::Pass { witness, .. }) => {
                    assert_valid_witness(&h, &witness, &label)
                }
                ("invalid", Verdict::Fail { .. }) => {}
                (_, v) => panic!("{label}: {}", v.render()),
            }
            seen += 1;
        }
    }
    assert!(seen >= 100, "only {seen} corpus files");
}
