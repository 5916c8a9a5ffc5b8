//! Byte-identical decisions: replays of the `replay_audit` banking shape
//! under both §6 schedulers must keep producing exactly the recorded
//! histories. Any change to the closure engine, the Pearce–Kelly order
//! or a scheduler rule that moves a single grant, defer or victim moves
//! a hash or a count here, and any change to the work a decision does
//! moves the closure engine's row and edge counters. Every pinned
//! banking history must also pass `mla-check`.
//!
//! The certified pins replay the partitioned workload under a doctored
//! certificate, so each run voids a universe mid-run: `MlaPrevent`
//! re-arms it once the stray drains from the engine, and `MlaDetect`
//! catches its engine up on the journal. Those are the two paths the
//! uncertified banking pins never reach.

mod common;

use multilevel_atomicity::cc::{MlaDetect, MlaPrevent, VictimPolicy};
use multilevel_atomicity::check::{self as mla_check, History};
use multilevel_atomicity::core::cert::StaticCert;
use multilevel_atomicity::model::{EntityId, TxnId};
use multilevel_atomicity::sim::{run, Control, SimConfig, SimOutcome};
use multilevel_atomicity::workload::partitioned::{generate, PartitionedConfig};
use multilevel_atomicity::workload::Workload;

/// Transfers per replay (one bank and two credit audits ride along).
const TRANSFERS: usize = 512;

/// `(seed, history hash, commits, aborts, defers, rows touched, edges
/// inserted)` under `MlaDetect`.
const DETECT: [(u64, u64, u64, u64, u64, u64, u64); 8] = [
    (1, 13007645284252365900, 515, 62, 0, 2643, 3042),
    (2, 17378994795600343332, 515, 37, 0, 2733, 4010),
    (3, 4809312223094042827, 515, 125, 0, 3014, 3632),
    (4, 5467942433295742187, 515, 76, 0, 3007, 3934),
    (5, 5184705673934757935, 515, 85, 0, 3133, 4057),
    (6, 252127855636301996, 515, 24, 0, 2461, 2890),
    (7, 16780792341176625393, 515, 37, 0, 2602, 3218),
    (8, 13559745852072462157, 515, 80, 0, 2946, 3833),
];

/// `(seed, history hash, commits, aborts, defers, rows touched, edges
/// inserted)` under `MlaPrevent`.
const PREVENT: [(u64, u64, u64, u64, u64, u64, u64); 8] = [
    (1, 309615343605190379, 515, 20, 144, 2775, 3916),
    (2, 7699278550475662923, 515, 10, 138, 2718, 3333),
    (3, 13680357443307172917, 515, 21, 119, 2448, 3126),
    (4, 15463424761573474667, 515, 9, 125, 2433, 2937),
    (5, 6344479900936969878, 515, 18, 132, 2589, 3799),
    (6, 11958736019825280014, 515, 13, 135, 2439, 3143),
    (7, 11461585263562559111, 515, 23, 147, 2646, 3312),
    (8, 9010442171637633277, 515, 16, 127, 2599, 3422),
];

/// `(seed, history hash, commits, defers, certified skips, voids,
/// re-arms)` under `MlaPrevent` with the first arrival's footprint
/// emptied.
const PREVENT_REARM: [(u64, u64, u64, u64, u64, u64, u64); 4] = [
    (1, 16012958483669754480, 51, 167, 119, 1, 1),
    (2, 6476107340975178032, 51, 173, 119, 1, 1),
    (3, 6881850378174053840, 51, 183, 119, 1, 1),
    (4, 9990081517359089360, 51, 167, 119, 1, 1),
];

/// `(seed, history hash, checks, certified skips)` under `MlaDetect`
/// with the first short transaction's private entity dropped from its
/// footprint.
const DETECT_CATCH_UP: [(u64, u64, u64, u64); 4] = [
    (1, 10544286183887323664, 132, 93),
    (2, 4226897431997794512, 132, 93),
    (3, 13117463198282019344, 132, 93),
    (4, 17574931113964134416, 132, 93),
];

/// FNV-1a over every surviving step's identity and values, in
/// performance order.
fn history_hash(out: &SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in out.execution.steps() {
        let words = [
            u64::from(s.txn.0),
            u64::from(s.seq),
            u64::from(s.entity.0),
            s.observed as u64,
            s.wrote as u64,
        ];
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn replay(seed: u64, control: &mut dyn Control) -> [u64; 6] {
    let banking = common::replay_audit_banking(TRANSFERS, seed);
    let w = &banking.workload;
    let out = run(
        w.nest.clone(),
        w.instances(),
        w.initial.iter().copied(),
        &w.arrivals,
        &SimConfig::seeded(seed),
        control,
    );
    assert!(!out.metrics.timed_out, "seed {seed}: timed out");
    let h = History::from_execution(&out.execution, &w.nest, &w.spec())
        .expect("the replay matches its nest and spec");
    assert!(
        mla_check::check(&h).passed(),
        "seed {seed}: history fails mla-check"
    );
    let m = &out.metrics;
    let cost = control.decision_cost().expect("an engine-backed control");
    [
        history_hash(&out),
        m.committed,
        m.aborts,
        m.defers,
        cost.rows_touched,
        cost.edges_inserted,
    ]
}

fn check(
    label: &str,
    pinned: &[(u64, u64, u64, u64, u64, u64, u64)],
    mut make: impl FnMut(u64) -> Box<dyn Control>,
) {
    let got: Vec<(u64, u64, u64, u64, u64, u64, u64)> = (1..=8)
        .map(|seed| {
            let [hash, commits, aborts, defers, rows, edges] = replay(seed, make(seed).as_mut());
            (seed, hash, commits, aborts, defers, rows, edges)
        })
        .collect();
    assert_eq!(got, pinned, "{label}: histories moved");
}

#[test]
fn detect_histories_are_pinned() {
    check("MlaDetect", &DETECT, |seed| {
        let w = common::replay_audit_banking(TRANSFERS, seed).workload;
        Box::new(MlaDetect::new(w.spec(), VictimPolicy::FewestSteps))
    });
}

#[test]
fn prevent_histories_are_pinned() {
    check("MlaPrevent", &PREVENT, |seed| {
        let w = common::replay_audit_banking(TRANSFERS, seed).workload;
        Box::new(MlaPrevent::new(
            w.txn_count(),
            w.spec(),
            VictimPolicy::FewestSteps,
        ))
    });
}

/// Three universes of sixteen short transactions each. Three residue
/// classes over the simulator's four processors make steps migrate, so
/// the seed's latency jitter moves the interleaving.
fn partitioned() -> Workload {
    generate(PartitionedConfig {
        partitions: 3,
        txns_per_partition: 16,
        scanner_len: 12,
        arrival_spacing: 2,
    })
    .workload
}

/// The certificate `mla-lint` earns for `w`, with `doctor` applied to
/// each transaction's footprint. Doctored ⊆ real, so every skip the
/// guard still grants is genuinely certified.
fn doctored(w: &Workload, doctor: impl Fn(usize, &mut Vec<EntityId>)) -> StaticCert {
    let real = multilevel_atomicity::lint::certify_workload(w)
        .cert
        .expect("partitioned workload must certify");
    let mut footprints = Vec::new();
    let mut universes = Vec::new();
    for t in 0..w.txn_count() {
        let mut fp = real.footprint(TxnId(t as u32)).to_vec();
        doctor(t, &mut fp);
        footprints.push(fp);
        universes.push(real.universe_of(TxnId(t as u32)).unwrap());
    }
    let certified = (0..real.universe_count() as u32)
        .map(|u| real.is_certified(u))
        .collect();
    StaticCert::per_universe(real.k(), footprints, universes, certified)
}

fn run_partitioned(w: &Workload, seed: u64, control: &mut dyn Control) -> SimOutcome {
    let out = run(
        w.nest.clone(),
        w.instances(),
        w.initial.iter().copied(),
        &w.arrivals,
        &SimConfig::seeded(seed),
        control,
    );
    assert!(!out.metrics.timed_out, "seed {seed}: timed out");
    out
}

#[test]
fn certified_prevent_void_and_re_arm_is_pinned() {
    let w = partitioned();
    let first = (0..w.txn_count())
        .min_by_key(|&t| (w.arrivals[t], t))
        .unwrap();
    let cert = doctored(&w, |t, fp| {
        if t == first {
            fp.clear();
        }
    });
    let got: Vec<_> = (1..=4)
        .map(|seed| {
            let mut c = MlaPrevent::new(w.txn_count(), w.spec(), VictimPolicy::FewestSteps)
                .with_static_cert(cert.clone());
            let out = run_partitioned(&w, seed, &mut c);
            let m = &out.metrics;
            (
                seed,
                history_hash(&out),
                m.committed,
                m.defers,
                m.certified_skips,
                c.core().cert_voids(),
                m.cert_re_arms,
            )
        })
        .collect();
    assert_eq!(got, PREVENT_REARM, "certified MlaPrevent: histories moved");
}

#[test]
fn certified_detect_void_and_catch_up_is_pinned() {
    let w = partitioned();
    // Transactions 0..3 are the scanners; 3 is the first short one.
    let cert = doctored(&w, |t, fp| {
        if t == 3 {
            fp.pop();
        }
    });
    let got: Vec<_> = (1..=4)
        .map(|seed| {
            let mut c =
                MlaDetect::new(w.spec(), VictimPolicy::FewestSteps).with_static_cert(cert.clone());
            let out = run_partitioned(&w, seed, &mut c);
            (
                seed,
                history_hash(&out),
                c.checks,
                out.metrics.certified_skips,
            )
        })
        .collect();
    assert_eq!(got, DETECT_CATCH_UP, "certified MlaDetect: histories moved");
}
