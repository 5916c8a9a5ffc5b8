//! The crossing-transfers race: where multilevel atomicity pays off.
//!
//! Two transfers move money in opposite directions between the same two
//! accounts, with tight timing that produces the weave
//! `w0 w1 d1 d0` — opposing conflict orders on the two accounts.
//!
//! * Under **serializability** (MLA-detect on the flattened workload,
//!   whose flat 2-nest makes the coherent closure the conflict order),
//!   the weave closes a conflict cycle: one transfer must be rolled
//!   back and retried.
//! * Under **multilevel atomicity** with a withdraw/deposit breakpoint
//!   and the two transfers `π(2)`-related, the same weave is *inside*
//!   `C(π, 𝔅)`: the same detector on the workload's own nest grants
//!   every step, zero aborts.
//!
//! This is the paper's §6 conjecture ("fewer cycles would be detected
//! ... leading to fewer rollbacks") in its smallest concrete instance.
//!
//! Run with: `cargo run --release --example scheduler_race`

use std::sync::Arc;

use multilevel_atomicity::cc::{oracle, MlaDetect, VictimPolicy};
use multilevel_atomicity::core::nest::Nest;
use multilevel_atomicity::model::program::{ScriptOp::*, ScriptProgram};
use multilevel_atomicity::model::EntityId;
use multilevel_atomicity::sim::{run, Control, SimConfig, SimOutcome};
use multilevel_atomicity::txn::{PhaseTable, RuntimeBreakpoints};
use multilevel_atomicity::workload::Workload;

fn e(x: u32) -> EntityId {
    EntityId(x)
}

/// The two crossing transfers under a 3-nest that `π(2)`-relates them,
/// each with a withdraw/deposit breakpoint.
fn crossing_transfers() -> Workload {
    let k = 3;
    let phase_bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
    Workload {
        name: "crossing transfers".into(),
        nest: Nest::new(k, vec![vec![0], vec![0]]).unwrap(),
        programs: vec![
            Arc::new(ScriptProgram::new(vec![Add(e(0), -10), Add(e(1), 10)])),
            Arc::new(ScriptProgram::new(vec![Add(e(1), -10), Add(e(0), 10)])),
        ],
        breakpoints: vec![phase_bp; 2],
        initial: vec![(e(0), 100), (e(1), 100)],
        arrivals: vec![0, 0],
    }
}

fn race(control: &mut dyn Control, wl: &Workload, seed: u64) -> SimOutcome {
    run(
        wl.nest.clone(),
        wl.instances(),
        wl.initial.iter().copied(),
        &wl.arrivals,
        &SimConfig {
            // Tight symmetric timing maximizes the chance of the weave.
            latency_jitter: 2,
            ..SimConfig::seeded(seed)
        },
        control,
    )
}

fn main() {
    let wl = crossing_transfers();
    let spec = wl.spec();
    let flat = wl.flattened();

    let seeds: Vec<u64> = (0..50).collect();
    let mut sgt_aborts = 0u64;
    let mut mla_aborts = 0u64;
    let mut weaves_seen = 0u64;
    for &seed in &seeds {
        let mut sgt = MlaDetect::new(flat.spec(), VictimPolicy::FewestSteps);
        let out_sgt = race(&mut sgt, &flat, seed);
        assert!(
            oracle::is_serializable_outcome(&out_sgt),
            "the flat nest must serialize"
        );
        sgt_aborts += out_sgt.metrics.aborts;

        let mut mla = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out_mla = race(&mut mla, &wl, seed);
        assert!(
            oracle::is_correctable_outcome(&out_mla, &wl.nest, &spec),
            "MLA history must satisfy Theorem 2"
        );
        mla_aborts += out_mla.metrics.aborts;
        // Did the interesting weave actually occur in the MLA run?
        let txn_order: Vec<u32> = out_mla.execution.steps().iter().map(|s| s.txn.0).collect();
        if txn_order.windows(2).any(|w| w[0] != w[1]) {
            weaves_seen += 1;
        }
        // Money conserved either way.
        assert_eq!(out_mla.store.value(e(0)) + out_mla.store.value(e(1)), 200);
    }
    println!("crossing transfers, {} seeds:", seeds.len());
    println!("  interleaved weaves observed (MLA runs): {weaves_seen}");
    println!("  flat-nest aborts (serializability):     {sgt_aborts}");
    println!("  MLA-detect aborts (multilevel):         {mla_aborts}");
    assert!(
        mla_aborts <= sgt_aborts,
        "multilevel atomicity should never abort more than the flat nest here"
    );
    if sgt_aborts > 0 && mla_aborts == 0 {
        println!("  => the paper's §6 conjecture holds on this instance.");
    }
}
