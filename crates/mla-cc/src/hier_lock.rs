//! Hierarchical lock retention: the natural §7-style adaptation of
//! nested-transaction two-phase locking \[M, LS\] to multilevel atomicity —
//! implemented *to be measured*, not trusted.
//!
//! §7 asks whether implementing multilevel atomicity as a special case of
//! the nested transaction model "provides reasonable efficiency". The
//! obvious adaptation keeps per-entity locks with breakpoint-scoped
//! retention:
//!
//! * accessing an entity takes a hold on it, stamped with the accessor's
//!   current step;
//! * another transaction `u` may access the entity iff every live holder
//!   `t` has reached a breakpoint of level `level(t, u)` *since its last
//!   access to that entity* (it has "published" that entity at `u`'s
//!   trust level);
//! * holds are released at commit; waiting uses a waits-for graph with
//!   victim rollback, as in [`crate::MlaPrevent`].
//!
//! This is exactly the §6 delay rule **restricted to direct, per-entity
//! conflicts** — no transitive closure. The experiment E13 runs it
//! against the offline Theorem 2 oracle: where transitive carrier chains
//! matter (see `eviction_preserves_carrier_chains_cad_regression` in
//! `tests/scheduler_safety.rs`), this control
//! grants steps the closure-based rule would delay, and the resulting
//! histories are *not always correctable*. That is the reproduction's
//! answer to §7's question: lock retention alone is cheaper per decision
//! but does not implement multilevel atomicity; the dependency tracking
//! is essential.

use std::collections::HashMap;

use mla_graph::IncrementalTopo;
use mla_model::{EntityId, TxnId};
use mla_sim::{Control, Decision, TxnStatus, World};

use crate::victim::VictimPolicy;

/// A hold: which transaction touched the entity, at which of its steps.
#[derive(Clone, Copy, Debug)]
struct Hold {
    txn: TxnId,
    /// The holder's step count *after* the access (prefix length).
    after: u32,
}

/// The lock-retention control. Intentionally unsound for multilevel
/// atomicity in general — see the module docs; every run must be checked
/// against the oracle.
pub struct HierLocking {
    holds: HashMap<EntityId, Vec<Hold>>,
    waits: IncrementalTopo,
    policy: VictimPolicy,
    /// Steps delayed waiting for a holder's breakpoint.
    pub waits_count: u64,
}

impl HierLocking {
    /// A lock-retention control over `txn_count` transactions.
    pub fn new(txn_count: usize, policy: VictimPolicy) -> Self {
        HierLocking {
            holds: HashMap::new(),
            waits: IncrementalTopo::new(txn_count),
            policy,
            waits_count: 0,
        }
    }

    fn clear_out_edges(&mut self, txn: TxnId) {
        let outs: Vec<u32> = self.waits.successors(txn.0).to_vec();
        for o in outs {
            self.waits.remove_edge(txn.0, o);
        }
    }

    fn release_all(&mut self, txn: TxnId) {
        for holds in self.holds.values_mut() {
            holds.retain(|h| h.txn != txn);
        }
    }

    /// Whether holder `t` has reached a breakpoint of level `level` (or
    /// deeper... i.e. a breakpoint visible at `level`) at some position at
    /// or after `since` (prefix lengths), or is finished.
    fn published(world: &World, t: TxnId, since: u32, level: usize) -> bool {
        let inst = world.instance(t);
        if inst.is_finished() {
            return true;
        }
        let steps = inst.steps();
        for p in since as usize..=steps.len() {
            if p == 0 {
                continue;
            }
            if p == steps.len() {
                // The current frontier is only a breakpoint if the
                // structure says so (mid-run).
                if inst.at_breakpoint(level) {
                    return true;
                }
            } else if inst
                .breakpoints()
                .min_level_after(&steps[..p])
                .is_some_and(|l| l <= level)
            {
                return true;
            }
        }
        false
    }
}

impl Control for HierLocking {
    fn name(&self) -> &'static str {
        "hier-locking"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let entity = world
            .instance(txn)
            .next_entity()
            .expect("decide called with a next step");
        let mut blockers: Vec<TxnId> = Vec::new();
        if let Some(holds) = self.holds.get(&entity) {
            for h in holds {
                if h.txn == txn || world.status[h.txn.index()] == TxnStatus::Committed {
                    continue;
                }
                let level = world.level(h.txn, txn);
                if !Self::published(world, h.txn, h.after, level) {
                    blockers.push(h.txn);
                }
            }
        }
        if blockers.is_empty() {
            self.clear_out_edges(txn);
            let after = world.instance(txn).seq() + 1;
            let holds = self.holds.entry(entity).or_default();
            holds.retain(|h| h.txn != txn);
            holds.push(Hold { txn, after });
            return Decision::Grant;
        }
        self.waits_count += 1;
        self.clear_out_edges(txn);
        for b in &blockers {
            if let Err(cycle) = self.waits.add_edge(txn.0, b.0) {
                let candidates: Vec<TxnId> = cycle
                    .nodes()
                    .iter()
                    .map(|&v| TxnId(v))
                    .filter(|&t| world.status[t.index()] != TxnStatus::Committed)
                    .collect();
                let victim = if candidates.is_empty() {
                    txn
                } else {
                    self.policy.choose(txn, &candidates, world)
                };
                return Decision::Abort(vec![victim]);
            }
        }
        Decision::Defer
    }

    fn committed(&mut self, txn: TxnId, _world: &World) {
        self.release_all(txn);
        self.waits.detach_node(txn.0);
    }

    fn aborted(&mut self, txn: TxnId, _world: &World) {
        self.release_all(txn);
        self.waits.detach_node(txn.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use mla_core::nest::Nest;
    use mla_model::program::{ScriptOp::*, ScriptProgram};
    use mla_sim::{run, SimConfig};
    use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints, TxnInstance};
    use std::sync::Arc;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    #[test]
    fn without_breakpoints_behaves_like_2pl() {
        // Atomic transactions: holds are never published before commit,
        // so the control degenerates to strict 2PL and must serialize.
        let instances: Vec<TxnInstance> = (0..6u32)
            .map(|i| {
                TxnInstance::new(
                    TxnId(i),
                    Arc::new(ScriptProgram::new(vec![
                        Add(e(i % 2), 1),
                        Add(e((i + 1) % 2), 1),
                    ])),
                    Arc::new(NoBreakpoints { k: 2 }),
                )
            })
            .collect();
        let out = run(
            Nest::flat(6),
            instances,
            [],
            &[0; 6],
            &SimConfig::seeded(61),
            &mut HierLocking::new(6, VictimPolicy::FewestSteps),
        );
        assert_eq!(out.metrics.committed, 6);
        assert!(!out.metrics.timed_out);
        assert!(
            oracle::is_serializable_outcome(&out),
            "atomic breakpoints must yield serializable histories"
        );
    }

    #[test]
    fn phase_breakpoints_allow_the_opposing_weave() {
        // The crossing-transfers weave is granted (as with MLA-detect) —
        // here the per-entity rule happens to be sufficient because the
        // conflict structure has no transitive carriers.
        let k = 3;
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
        let instances = vec![
            TxnInstance::new(
                TxnId(0),
                Arc::new(ScriptProgram::new(vec![Add(e(0), -1), Add(e(1), 1)])),
                bp.clone(),
            ),
            TxnInstance::new(
                TxnId(1),
                Arc::new(ScriptProgram::new(vec![Add(e(1), -1), Add(e(0), 1)])),
                bp.clone(),
            ),
        ];
        let nest = Nest::new(k, vec![vec![0], vec![0]]).unwrap();
        let spec = mla_txn::RuntimeSpec::new(k)
            .with(TxnId(0), bp.clone())
            .with(TxnId(1), bp);
        let out = run(
            nest.clone(),
            instances,
            [(e(0), 10), (e(1), 10)],
            &[0, 0],
            &SimConfig::seeded(62),
            &mut HierLocking::new(2, VictimPolicy::FewestSteps),
        );
        assert_eq!(out.metrics.committed, 2);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
    }
}
