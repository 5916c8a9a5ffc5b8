//! The partitioned "scanner" workload: independent universes that never
//! share an entity — the certified fast path's showcase (A7).
//!
//! `partitions` independent universes of entities, with entity ids
//! chosen so that universe `p` is exactly the residue class `p mod
//! partitions`.
//!
//! Each universe runs:
//!
//! * one long-lived **scanner**: an atomic (no-breakpoint) transaction
//!   whose first step touches the universe's shared entity and whose
//!   remaining steps walk private entities, sized to outlive the whole
//!   universe's traffic. Because the scanner is atomic, every
//!   transaction ordered after its shared-entity step keeps a
//!   closure pair *into the scanner's ever-growing segment*, so the
//!   scanner pins its universe's whole history in the live window — the
//!   §6 commit-point hazard made into a cost stressor;
//! * `txns_per_partition` **short transactions**, each touching the
//!   shared entity then a private one, with a mid-transaction phase
//!   breakpoint.
//!
//! The conflict structure is a forward chain per universe (scanner
//! first, then the short transactions in shared-entity order), so every
//! run is cycle-free: all controls grant every step, which is what lets
//! A7 assert byte-identical histories between the closure engine and
//! the certificate guard while only the *cost* of deciding moves.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, Step, TxnId};
use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};

use crate::Workload;

/// Parameters of the partitioned scanner workload.
#[derive(Clone, Debug)]
pub struct PartitionedConfig {
    /// Independent entity universes (and π(2) classes).
    pub partitions: usize,
    /// Short transactions per universe.
    pub txns_per_partition: usize,
    /// Steps of each universe's scanner (size it to outlive the short
    /// transactions: roughly `txns_per_partition` at the default
    /// spacing).
    pub scanner_len: usize,
    /// Ticks between short-transaction injections.
    pub arrival_spacing: u64,
}

impl Default for PartitionedConfig {
    fn default() -> Self {
        PartitionedConfig {
            partitions: 4,
            txns_per_partition: 60,
            scanner_len: 60,
            arrival_spacing: 2,
        }
    }
}

/// The generated partitioned workload.
pub struct Partitioned {
    /// The runnable workload.
    pub workload: Workload,
    /// The generating configuration.
    pub config: PartitionedConfig,
}

/// Generates the workload. Construction is deterministic (no seed):
/// transaction ids place the scanners first (`TxnId(p)` for universe
/// `p`), then the short transactions round-robin across universes in
/// arrival order.
pub fn generate(config: PartitionedConfig) -> Partitioned {
    let k = 3;
    let p_count = config.partitions;
    let t_count = config.txns_per_partition;
    assert!(p_count >= 1, "at least one partition");
    assert!(config.scanner_len >= 1, "scanners need at least one step");
    // Universe p owns the residue class p mod p_count: its shared entity
    // is p itself; private entities take the higher multiples.
    let shared = |p: usize| EntityId(p as u32);
    let short_private = |p: usize, round: usize| EntityId(((1 + round) * p_count + p) as u32);
    let scanner_private = |p: usize, i: usize| EntityId(((1 + t_count + i) * p_count + p) as u32);

    let mut programs: Vec<Arc<dyn mla_model::Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut arrivals: Vec<u64> = Vec::new();

    // Scanners: TxnId(0..p_count), injected at time 0.
    for p in 0..p_count {
        let mut ops = vec![ScriptOp::Add(shared(p), 1)];
        for i in 1..config.scanner_len {
            ops.push(ScriptOp::Add(scanner_private(p, i), 1));
        }
        programs.push(Arc::new(ScriptProgram::new(ops)));
        breakpoints.push(Arc::new(NoBreakpoints { k }));
        paths.push(vec![p as u32]);
        arrivals.push(0);
    }
    // Short transactions, round-robin across universes.
    for round in 0..t_count {
        for p in 0..p_count {
            programs.push(Arc::new(ScriptProgram::new(vec![
                ScriptOp::Add(shared(p), 1),
                ScriptOp::Add(short_private(p, round), 1),
            ])));
            breakpoints.push(Arc::new(PhaseTable::new(k, [(1, 2)])));
            paths.push(vec![p as u32]);
            arrivals.push((1 + round * p_count + p) as u64 * config.arrival_spacing);
        }
    }

    let nest = Nest::new(k, paths).expect("one non-empty path per transaction");
    let initial = (0..p_count).map(|p| (shared(p), 0)).collect();
    let name = format!(
        "partitioned(p={p_count},t={t_count},l={})",
        config.scanner_len
    );
    Partitioned {
        workload: Workload {
            name,
            nest,
            programs,
            breakpoints,
            initial,
            arrivals,
        },
        config,
    }
}

/// The workload's canonical decision stream: one step per transaction
/// per pass, transactions in id order, until every script is exhausted —
/// the offer order a round-robin scheduler would produce. Each
/// universe's shared entity sees its scanner first and then the short
/// transactions in ascending id order within the very first pass, so
/// the conflict structure is the same forward chain the simulator
/// produces and **every offer is grantable**. This is the replay input
/// for experiment A7: the engine and the certificate guard decide the
/// identical stream and their wall-clock is compared directly, without
/// simulator overhead between decisions.
pub fn decision_stream(config: &PartitionedConfig) -> Vec<Step> {
    let p_count = config.partitions;
    let t_count = config.txns_per_partition;
    let shared = |p: usize| EntityId(p as u32);
    let short_private = |p: usize, round: usize| EntityId(((1 + round) * p_count + p) as u32);
    let scanner_private = |p: usize, i: usize| EntityId(((1 + t_count + i) * p_count + p) as u32);

    // Entity scripts, indexed by transaction id (scanners first — the
    // same numbering as `generate`).
    let mut scripts: Vec<Vec<EntityId>> = Vec::new();
    for p in 0..p_count {
        let mut script = vec![shared(p)];
        for i in 1..config.scanner_len {
            script.push(scanner_private(p, i));
        }
        scripts.push(script);
    }
    for round in 0..t_count {
        for p in 0..p_count {
            scripts.push(vec![shared(p), short_private(p, round)]);
        }
    }

    let mut next = vec![0usize; scripts.len()];
    let mut out = Vec::new();
    loop {
        let mut progressed = false;
        for (t, script) in scripts.iter().enumerate() {
            if next[t] < script.len() {
                out.push(Step {
                    txn: TxnId(t as u32),
                    seq: next[t] as u32,
                    entity: script[next[t]],
                    observed: 0,
                    wrote: 0,
                });
                next[t] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::Program;

    fn entities_of(p: &(dyn Program + Send + Sync)) -> Vec<EntityId> {
        let mut out = Vec::new();
        let mut state = p.start();
        while let Some(e) = p.next_entity(&state) {
            out.push(e);
            state = p.apply(&state, 0).0;
        }
        out
    }

    #[test]
    fn entity_residues_match_partitions() {
        let cfg = PartitionedConfig {
            partitions: 4,
            txns_per_partition: 3,
            scanner_len: 5,
            arrival_spacing: 2,
        };
        let generated = generate(cfg);
        let wl = &generated.workload;
        assert_eq!(wl.txn_count(), 4 + 4 * 3);
        // Every entity a universe-p transaction touches is ≡ p (mod 4),
        // and each transaction opens on its universe's shared entity.
        for (i, prog) in wl.programs.iter().enumerate() {
            let p = if i < 4 { i } else { (i - 4) % 4 };
            let touched = entities_of(prog.as_ref());
            assert_eq!(touched[0], EntityId(p as u32), "txn {i}");
            for e in &touched {
                assert_eq!(e.0 as usize % 4, p, "txn {i}");
            }
        }
    }

    #[test]
    fn decision_stream_matches_scripts_and_is_grantable() {
        let cfg = PartitionedConfig {
            partitions: 4,
            txns_per_partition: 3,
            scanner_len: 5,
            arrival_spacing: 2,
        };
        let generated = generate(cfg.clone());
        let wl = &generated.workload;
        let stream = decision_stream(&cfg);
        // One step per script position, seqs contiguous per transaction.
        let total: usize = wl
            .programs
            .iter()
            .map(|p| entities_of(p.as_ref()).len())
            .sum();
        assert_eq!(stream.len(), total);
        for (t, prog) in wl.programs.iter().enumerate() {
            let script = entities_of(prog.as_ref());
            let steps: Vec<&Step> = stream.iter().filter(|s| s.txn.0 as usize == t).collect();
            assert_eq!(steps.len(), script.len());
            for (i, s) in steps.iter().enumerate() {
                assert_eq!(s.seq as usize, i);
                assert_eq!(s.entity, script[i]);
            }
        }
        // Every offer grants: replay through the closure engine.
        let mut engine = mla_core::ClosureEngine::new(wl.nest.clone(), wl.spec());
        for verdict in engine.decide_batch(&stream) {
            assert!(verdict.is_ok(), "the stream must be conflict-chain shaped");
        }
        assert_eq!(engine.execution().steps(), stream.as_slice());
    }

    #[test]
    fn scanners_arrive_first_and_privates_are_unique() {
        let generated = generate(PartitionedConfig::default());
        let wl = &generated.workload;
        for p in 0..4 {
            assert_eq!(wl.arrivals[p], 0);
        }
        assert!(*wl.arrivals.iter().max().unwrap() > 0);
        // No two transactions share a private entity (everything after
        // a program's opening shared-entity step).
        let mut privates = std::collections::HashSet::new();
        for prog in &wl.programs {
            for e in entities_of(prog.as_ref()).into_iter().skip(1) {
                assert!(privates.insert(e), "private entity reused");
            }
        }
    }
}
