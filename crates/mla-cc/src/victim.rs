//! Victim selection for rollback — the A3 ablation axis.

use mla_model::TxnId;

use mla_sim::World;

/// How a cycle-resolving control picks the transaction to roll back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Abort the requesting transaction (whose step would close the
    /// cycle).
    Requester,
    /// Abort the candidate with the fewest performed steps (least work
    /// lost); ties broken by higher id.
    FewestSteps,
    /// Abort the candidate with the most performed steps (frees the most
    /// resources); ties broken by higher id.
    MostSteps,
}

impl VictimPolicy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Requester => "requester",
            VictimPolicy::FewestSteps => "fewest-steps",
            VictimPolicy::MostSteps => "most-steps",
        }
    }

    /// Chooses a victim among `candidates` (which must be non-empty; the
    /// requester is always a legal fallback).
    pub fn choose(self, requester: TxnId, candidates: &[TxnId], world: &World) -> TxnId {
        debug_assert!(!candidates.is_empty());
        match self {
            VictimPolicy::Requester => {
                if candidates.contains(&requester) {
                    requester
                } else {
                    // The requester is not on the cycle (possible when the
                    // cycle predates its request); fall back to least work.
                    VictimPolicy::FewestSteps.choose(requester, candidates, world)
                }
            }
            VictimPolicy::FewestSteps => candidates
                .iter()
                .copied()
                .min_by_key(|&t| (world.instance(t).seq(), std::cmp::Reverse(t.0)))
                .expect("non-empty candidates"),
            VictimPolicy::MostSteps => candidates
                .iter()
                .copied()
                .max_by_key(|&t| (world.instance(t).seq(), t.0))
                .expect("non-empty candidates"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::nest::Nest;
    use mla_model::program::{ScriptOp, ScriptProgram};
    use mla_model::EntityId;
    use mla_sim::TxnStatus;
    use mla_storage::Store;
    use mla_txn::{NoBreakpoints, TxnInstance};
    use std::sync::Arc;

    /// A world with three transactions having 0, 1, and 2 performed
    /// steps respectively.
    fn world() -> World {
        let mut instances: Vec<TxnInstance> = (0..3u32)
            .map(|i| {
                TxnInstance::new(
                    TxnId(i),
                    Arc::new(ScriptProgram::new(vec![
                        ScriptOp::Add(EntityId(i), 1),
                        ScriptOp::Add(EntityId(i + 10), 1),
                        ScriptOp::Add(EntityId(i + 20), 1),
                    ])),
                    Arc::new(NoBreakpoints { k: 2 }),
                )
            })
            .collect();
        instances[1].perform(0);
        instances[2].perform(0);
        instances[2].perform(0);
        World {
            store: Store::new([]),
            instances,
            status: vec![TxnStatus::Running; 3],
            nest: Nest::flat(3),
        }
    }

    #[test]
    fn fewest_steps_picks_least_work_lost() {
        let w = world();
        let all = [TxnId(0), TxnId(1), TxnId(2)];
        assert_eq!(
            VictimPolicy::FewestSteps.choose(TxnId(2), &all, &w),
            TxnId(0)
        );
        assert_eq!(VictimPolicy::MostSteps.choose(TxnId(0), &all, &w), TxnId(2));
    }

    #[test]
    fn requester_preferred_when_on_cycle() {
        let w = world();
        let all = [TxnId(0), TxnId(1), TxnId(2)];
        assert_eq!(VictimPolicy::Requester.choose(TxnId(1), &all, &w), TxnId(1));
        // Requester not among candidates: falls back to least work.
        assert_eq!(
            VictimPolicy::Requester.choose(TxnId(1), &[TxnId(2)], &w),
            TxnId(2)
        );
    }

    #[test]
    fn ties_broken_deterministically() {
        let w = world();
        // t0 has 0 steps; a second zero-step candidate forces the id
        // tiebreak (higher id wins under FewestSteps).
        let mut w2 = world();
        w2.instances[1].reset(); // back to 0 steps
        assert_eq!(
            VictimPolicy::FewestSteps.choose(TxnId(2), &[TxnId(0), TxnId(1)], &w2),
            TxnId(1)
        );
        let _ = w;
    }

    #[test]
    fn labels_are_distinct() {
        let labels = [
            VictimPolicy::Requester.label(),
            VictimPolicy::FewestSteps.label(),
            VictimPolicy::MostSteps.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 3);
    }
}
