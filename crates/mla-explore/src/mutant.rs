//! Planted interleaving-dependent defects for harness-sensitivity
//! tests.
//!
//! A differential harness is only as good as the schedules it drives: a
//! bug that manifests on one specific interleaving survives any sampler
//! whose draw count is small against the trace count. [`MutantEngine`]
//! makes that concrete — it is a scheduling backend that behaves exactly
//! like the reference [`ClosureEngine`] until the accepted execution's
//! projections onto designated entities form an exact alternation
//! between two transactions, at which point it denies a step the closure
//! grants. The trigger is a function of the Mazurkiewicz trace (steps on
//! one entity never commute, so per-entity projections are trace
//! invariants): a sampler misses it unless it draws the one triggering
//! trace, while exhaustive exploration visits a representative of every
//! trace and cannot miss it.

use mla_core::engine::ClosureEngine;
use mla_core::nest::Nest;
use mla_core::spec::BreakpointSpecification;
use mla_model::{EntityId, Step, TxnId};

/// One trigger clause: the complete projection of the accepted execution
/// onto `entity` must be exactly `a, b, a, b, …` with `steps_each` steps
/// from each transaction. The clause only fires once both transactions
/// have contributed all their steps, so prefixes of the pattern are
/// harmless.
#[derive(Clone, Copy, Debug)]
pub struct TriggerPair {
    /// The entity whose projection is inspected.
    pub entity: EntityId,
    /// The transaction that must perform the odd-numbered accesses.
    pub a: TxnId,
    /// The transaction that must perform the even-numbered accesses.
    pub b: TxnId,
    /// Steps each transaction performs on the entity.
    pub steps_each: usize,
}

impl TriggerPair {
    fn matches(&self, projection: &[TxnId]) -> bool {
        projection.len() == 2 * self.steps_each
            && projection
                .iter()
                .enumerate()
                .all(|(i, &t)| t == if i % 2 == 0 { self.a } else { self.b })
    }
}

/// A reference scheduler with a planted interleaving-dependent bug: it
/// grants and denies exactly like [`ClosureEngine`] unless every
/// [`TriggerPair`] matches the accepted execution after a commit, in
/// which case it reports that (correctly granted) step as denied.
///
/// Drive it offer-by-offer next to a reference engine and compare
/// verdicts; [`fired`](Self::fired) reports whether the defect ever
/// surfaced.
pub struct MutantEngine<S> {
    inner: ClosureEngine<S>,
    trigger: Vec<TriggerPair>,
    fired: bool,
}

impl<S: BreakpointSpecification> MutantEngine<S> {
    /// A mutant scheduler over `nest`/`spec` with the given trigger
    /// clauses (all must match for the defect to surface).
    pub fn new(nest: Nest, spec: S, trigger: Vec<TriggerPair>) -> Self {
        assert!(!trigger.is_empty(), "a mutant needs at least one trigger");
        MutantEngine {
            inner: ClosureEngine::new(nest, spec),
            trigger,
            fired: false,
        }
    }

    /// Decides one offer, committing grants — the buggy counterpart of
    /// an apply/commit round on the reference engine. Returns the
    /// reported verdict; the defect makes exactly the triggering grants
    /// come back as `false`.
    pub fn decide(&mut self, step: Step) -> bool {
        match self.inner.apply_step(step) {
            Err(_) => false,
            Ok(()) => {
                self.inner.commit_step();
                if self.triggered() {
                    self.fired = true;
                    return false;
                }
                true
            }
        }
    }

    /// Aborts a transaction, mirroring the reference deny rule.
    pub fn remove_txn(&mut self, t: TxnId) {
        self.inner.remove_txns(&[t]);
    }

    /// Whether the planted defect has surfaced on this run.
    pub fn fired(&self) -> bool {
        self.fired
    }

    fn triggered(&self) -> bool {
        let exec = self.inner.execution();
        self.trigger.iter().all(|clause| {
            let projection: Vec<TxnId> = exec
                .steps()
                .iter()
                .filter(|s| s.entity == clause.entity)
                .map(|s| s.txn)
                .collect();
            clause.matches(&projection)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::spec::FreeSpec;

    fn step(t: u32, seq: u32, x: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(x),
            observed: 0,
            wrote: 0,
        }
    }

    fn mutant() -> MutantEngine<FreeSpec> {
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        MutantEngine::new(
            nest,
            FreeSpec { k: 3 },
            vec![TriggerPair {
                entity: EntityId(5),
                a: TxnId(0),
                b: TxnId(1),
                steps_each: 2,
            }],
        )
    }

    #[test]
    fn fires_only_on_the_exact_complete_alternation() {
        // t0 t1 t0 t1 on the trigger entity: the defect surfaces on the
        // final commit and not before.
        let mut m = mutant();
        assert!(m.decide(step(0, 0, 5)));
        assert!(m.decide(step(1, 0, 5)));
        assert!(m.decide(step(0, 1, 5)));
        assert!(!m.fired());
        assert!(!m.decide(step(1, 1, 5)));
        assert!(m.fired());
    }

    #[test]
    fn stays_silent_off_the_trigger_trace() {
        // Same steps, different weave: t0 t0 t1 t1 never alternates.
        let mut m = mutant();
        assert!(m.decide(step(0, 0, 5)));
        assert!(m.decide(step(0, 1, 5)));
        assert!(m.decide(step(1, 0, 5)));
        assert!(m.decide(step(1, 1, 5)));
        assert!(!m.fired());
    }
}
