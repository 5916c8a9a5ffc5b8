//! The mixed-isolation workload: one nest whose universes each carry a
//! *different* k-level of interleaving freedom.
//!
//! This is the MLA analogue of running transactions at mixed isolation
//! levels in one database. The nest is a 4-nest — universe, then
//! subgroup — and every transaction of universe `u` follows path
//! `[u, t mod 2]`. What varies per universe is the breakpoint degree:
//!
//! * [`IsolationDegree::Atomic`] — no breakpoints: the universe's
//!   transactions are serializable against everything;
//! * [`IsolationDegree::Classmates`] — level-3 breakpoints between
//!   steps: only subgroup-mates (level-3 related) may weave inside;
//! * [`IsolationDegree::Free`] — level-2 breakpoints: any
//!   same-universe transaction may weave inside.
//!
//! Universes are entity-disjoint (universe `u` owns residue class
//! `u mod universes`, the partitioned-workload convention), and every
//! transaction opens and closes on its universe's shared entity with a
//! private step in between — enough
//! conflict structure that the degrees actually bite: free universes
//! admit weaves the atomic ones deny.

use std::sync::Arc;

use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::EntityId;
use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};

use crate::Workload;

/// How much interleaving a universe's transactions admit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsolationDegree {
    /// No breakpoints: atomic with respect to everything.
    Atomic,
    /// Level-3 breakpoints: subgroup-mates may weave inside.
    Classmates,
    /// Level-2 breakpoints: the whole universe may weave inside.
    Free,
}

impl IsolationDegree {
    /// The degree cycle universes are assigned from.
    pub const ALL: [IsolationDegree; 3] = [
        IsolationDegree::Free,
        IsolationDegree::Atomic,
        IsolationDegree::Classmates,
    ];

    fn breakpoints(self, k: usize, len: usize) -> Arc<dyn RuntimeBreakpoints> {
        match self {
            IsolationDegree::Atomic => Arc::new(NoBreakpoints { k }),
            IsolationDegree::Classmates => Arc::new(PhaseTable::new(k, (1..len).map(|p| (p, 3)))),
            IsolationDegree::Free => Arc::new(PhaseTable::new(k, (1..len).map(|p| (p, 2)))),
        }
    }
}

/// Parameters of the mixed-isolation workload.
#[derive(Clone, Debug)]
pub struct MixedConfig {
    /// Entity-disjoint universes; universe `u` gets degree
    /// `IsolationDegree::ALL[u % 3]`.
    pub universes: usize,
    /// Transactions per universe, split into two subgroups.
    pub txns_per_universe: usize,
    /// Ticks between transaction injections.
    pub arrival_spacing: u64,
}

impl Default for MixedConfig {
    fn default() -> Self {
        MixedConfig {
            universes: 3,
            txns_per_universe: 4,
            arrival_spacing: 2,
        }
    }
}

/// The generated mixed-isolation workload.
pub struct Mixed {
    /// The runnable workload.
    pub workload: Workload,
    /// The generating configuration.
    pub config: MixedConfig,
    /// The degree each universe was assigned.
    pub degrees: Vec<IsolationDegree>,
}

/// Generates the workload. Construction is deterministic: transactions
/// are laid out universe-major (`TxnId(u * txns_per_universe + j)`),
/// each running shared → private → shared within its universe's entity
/// residue class.
pub fn generate(config: MixedConfig) -> Mixed {
    let k = 4;
    let u_count = config.universes;
    let t_count = config.txns_per_universe;
    assert!(u_count >= 1, "at least one universe");
    assert!(t_count >= 1, "at least one transaction per universe");

    let shared = |u: usize| EntityId(u as u32);
    let private = |u: usize, j: usize| EntityId(((1 + j) * u_count + u) as u32);

    let degrees: Vec<IsolationDegree> = (0..u_count)
        .map(|u| IsolationDegree::ALL[u % IsolationDegree::ALL.len()])
        .collect();

    let mut programs: Vec<Arc<dyn mla_model::Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut arrivals: Vec<u64> = Vec::new();

    for (u, degree) in degrees.iter().enumerate() {
        for j in 0..t_count {
            let ops = vec![
                ScriptOp::Add(shared(u), 1),
                ScriptOp::Add(private(u, j), 1),
                ScriptOp::Add(shared(u), 1),
            ];
            programs.push(Arc::new(ScriptProgram::new(ops.clone())));
            breakpoints.push(degree.breakpoints(k, ops.len()));
            paths.push(vec![u as u32, (j % 2) as u32]);
            arrivals.push((u * t_count + j) as u64 * config.arrival_spacing);
        }
    }

    let nest = Nest::new(k, paths).expect("paths have depth k-2");
    let initial = (0..u_count).map(|u| (shared(u), 0)).collect();
    let name = format!("mixed(u={u_count},t={t_count})");
    Mixed {
        workload: Workload {
            name,
            nest,
            programs,
            breakpoints,
            initial,
            arrivals,
        },
        config,
        degrees,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::TxnId;

    #[test]
    fn degrees_cycle_and_entities_stay_in_residue_class() {
        let cfg = MixedConfig {
            universes: 4,
            txns_per_universe: 3,
            arrival_spacing: 2,
        };
        let mixed = generate(cfg);
        assert_eq!(
            mixed.degrees,
            vec![
                IsolationDegree::Free,
                IsolationDegree::Atomic,
                IsolationDegree::Classmates,
                IsolationDegree::Free,
            ]
        );
        let wl = &mixed.workload;
        assert_eq!(wl.txn_count(), 12);
        assert_eq!(wl.nest.k(), 4);
        for (i, prog) in wl.programs.iter().enumerate() {
            let u = i / 3;
            let entities = prog.step_entities().expect("scripted program");
            assert_eq!(entities.len(), 3);
            assert_eq!(entities[0], EntityId(u as u32));
            assert_eq!(entities[2], EntityId(u as u32));
            for e in &entities {
                assert_eq!(e.0 as usize % 4, u, "txn {i} strayed from its universe");
            }
            assert_eq!(
                wl.nest.path(TxnId(i as u32)),
                &[u as u32, (i % 3 % 2) as u32]
            );
        }
    }

    #[test]
    fn same_subgroup_transactions_relate_at_level_three() {
        let mixed = generate(MixedConfig::default());
        let nest = &mixed.workload.nest;
        // txns 0 and 2 share universe 0 subgroup 0; 0 and 1 differ in
        // subgroup; 0 and 4 differ in universe.
        assert_eq!(nest.level(TxnId(0), TxnId(2)), 3);
        assert_eq!(nest.level(TxnId(0), TxnId(1)), 2);
        assert_eq!(nest.level(TxnId(0), TxnId(4)), 1);
    }
}
