//! Application databases `(S, C)` and correctability (§3.2).

use std::ops::ControlFlow;

use crate::execution::Execution;
use crate::program::System;

/// A correctness criterion: the set `C` of correct interleavings of an
/// application database, given intensionally as a membership predicate.
pub trait Criterion {
    /// Whether `e` is a correct execution (`e ∈ C`).
    fn is_correct(&self, e: &Execution) -> bool;

    /// A short name for reports.
    fn name(&self) -> &'static str {
        "criterion"
    }
}

/// The classical criterion: `C` = the serial executions. The paper notes
/// that with this `C`, "the correctable executions are just the usual
/// serializable executions".
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialCriterion;

impl Criterion for SerialCriterion {
    fn is_correct(&self, e: &Execution) -> bool {
        e.is_serial()
    }

    fn name(&self) -> &'static str {
        "serial"
    }
}

/// Decides correctability by brute force: `e` is correctable iff some
/// execution equivalent to `e` (some linear extension of `<=_e`) is in `C`.
///
/// Exponential in the worst case — usable only on small executions. This
/// is the semantic ground truth against which `mla-core`'s Theorem 2
/// decision procedure is property-tested.
pub fn is_correctable_by_enumeration(e: &Execution, criterion: &dyn Criterion) -> bool {
    e.for_each_equivalent(|candidate| {
        if criterion.is_correct(candidate) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    })
    .is_some()
}

/// An application database: a system of transactions together with its
/// correctness criterion (§3.2's pair `(S, C)`).
pub struct ApplicationDatabase<C: Criterion> {
    /// The system `S` of transactions and entities.
    pub system: System,
    /// The criterion defining the correct executions `C`.
    pub criterion: C,
}

impl<C: Criterion> ApplicationDatabase<C> {
    /// Bundles a system with its criterion.
    pub fn new(system: System, criterion: C) -> Self {
        ApplicationDatabase { system, criterion }
    }

    /// Whether `e` is a *correct* execution: valid for the system and a
    /// member of `C`.
    pub fn is_correct(&self, e: &Execution) -> bool {
        self.system.validate(e).is_ok() && self.criterion.is_correct(e)
    }

    /// Whether `e` is *correctable*: valid and equivalent to some member
    /// of `C`. Brute force; see [`is_correctable_by_enumeration`].
    pub fn is_correctable(&self, e: &Execution) -> bool {
        self.system.validate(e).is_ok() && is_correctable_by_enumeration(e, &self.criterion)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ids::{EntityId, TxnId};
    use crate::program::{ScriptOp::*, ScriptProgram};

    fn two_disjoint_transfers() -> System {
        System::new(
            vec![
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(0), -10),
                    Add(EntityId(1), 10),
                ])),
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(2), -5),
                    Add(EntityId(3), 5),
                ])),
            ],
            [(EntityId(0), 100), (EntityId(2), 50)],
        )
    }

    fn two_conflicting_counters() -> System {
        // Both transactions read-modify-write x0 then x1.
        System::new(
            vec![
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(0), 1),
                    Add(EntityId(1), 1),
                ])),
                Arc::new(ScriptProgram::new(vec![
                    Add(EntityId(0), 1),
                    Add(EntityId(1), 1),
                ])),
            ],
            [],
        )
    }

    #[test]
    fn disjoint_interleaving_is_serializable() {
        let sys = two_disjoint_transfers();
        let e = sys
            .run_schedule(&[TxnId(0), TxnId(1), TxnId(0), TxnId(1)])
            .unwrap();
        assert!(!e.is_serial());
        assert!(is_correctable_by_enumeration(&e, &SerialCriterion));
    }

    #[test]
    fn conflicting_interleaving_is_not_serializable() {
        let sys = two_conflicting_counters();
        // t0 hits x0 first but x1 second: classic non-serializable weave
        // requires opposing conflict orders. Schedule: t0@x0, t1@x0, t1@x1,
        // t0@x1 — t0 before t1 on x0, t1 before t0 on x1.
        let e = sys
            .run_schedule(&[TxnId(0), TxnId(1), TxnId(1), TxnId(0)])
            .unwrap();
        assert!(!is_correctable_by_enumeration(&e, &SerialCriterion));
    }

    #[test]
    fn aligned_conflicts_are_serializable() {
        let sys = two_conflicting_counters();
        // Same conflict order on both entities: t0 before t1 everywhere.
        let e = sys
            .run_schedule(&[TxnId(0), TxnId(0), TxnId(1), TxnId(1)])
            .unwrap();
        assert!(e.is_serial());
        assert!(is_correctable_by_enumeration(&e, &SerialCriterion));
    }

    #[test]
    fn appdb_correct_vs_correctable() {
        let sys = two_disjoint_transfers();
        let db = ApplicationDatabase::new(sys, SerialCriterion);
        let e = db
            .system
            .run_schedule(&[TxnId(0), TxnId(1), TxnId(0), TxnId(1)])
            .unwrap();
        assert!(!db.is_correct(&e), "interleaved, so not in C");
        assert!(db.is_correctable(&e), "equivalent to a serial execution");
    }

    #[test]
    fn invalid_execution_is_not_correctable() {
        let sys = two_disjoint_transfers();
        let db = ApplicationDatabase::new(sys, SerialCriterion);
        let mut steps = db
            .system
            .run_schedule(&[TxnId(0), TxnId(0)])
            .unwrap()
            .steps()
            .to_vec();
        steps[0].observed = 9999;
        let e = Execution::new(steps).unwrap();
        assert!(!db.is_correct(&e));
        assert!(!db.is_correctable(&e));
    }

    #[test]
    fn empty_execution_is_correct() {
        let db = ApplicationDatabase::new(two_disjoint_transfers(), SerialCriterion);
        assert!(db.is_correct(&Execution::empty()));
        assert!(db.is_correctable(&Execution::empty()));
    }
}
