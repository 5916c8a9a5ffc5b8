//! The host state: what every [`Control`] reads, and the two state
//! changes every host makes.
//!
//! Both hosts of the §6 schedulers keep one `World`: the simulator's
//! event loop ([`crate::run`]) and `mla-serve`'s admission gate. A
//! host asks its control for a [`Decision`](crate::Decision), then
//! grants through [`World::perform`] or rolls back through
//! [`World::roll_back`]; each calls the control's hooks in the same
//! order in both hosts. What is the host's own (the simulator's clock
//! and metrics, the service's MVCC versions and run queue) stays
//! outside.

use mla_core::nest::Nest;
use mla_model::{Step, TxnId};
use mla_storage::{Rollback, StepRecord, Store};
use mla_txn::TxnInstance;

use crate::control::Control;

/// Lifecycle state of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Migrating/performing: its host has started its current attempt.
    Running,
    /// All steps performed; tentatively committed. May still be undone by
    /// a cascading rollback (the §6 commit hazard) until the run ends.
    Committed,
    /// Not running: not started yet, or rolled back and waiting to
    /// restart.
    Idle,
}

/// Everything a [`Control`] may inspect when making decisions: the
/// store (values + live journal), the transaction instances (program
/// position, breakpoint state), their status, and the nest.
pub struct World {
    /// The entity store and journal.
    pub store: Store,
    /// One instance per transaction, indexed by `TxnId`.
    pub instances: Vec<TxnInstance>,
    /// Per-transaction lifecycle status.
    pub status: Vec<TxnStatus>,
    /// The k-nest relating the transactions.
    pub nest: Nest,
}

impl World {
    /// `level(a, b)` from the nest.
    pub fn level(&self, a: TxnId, b: TxnId) -> usize {
        self.nest.level(a, b)
    }

    /// The instance of `t`.
    pub fn instance(&self, t: TxnId) -> &TxnInstance {
        &self.instances[t.index()]
    }

    /// Whether `t` is (tentatively) committed.
    pub fn is_committed(&self, t: TxnId) -> bool {
        self.status[t.index()] == TxnStatus::Committed
    }

    /// Transactions currently in the given status.
    pub fn txns_with_status(&self, s: TxnStatus) -> impl Iterator<Item = TxnId> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(move |(_, &st)| st == s)
            .map(|(i, _)| TxnId(i as u32))
    }

    /// §6's prevention rule: whether `t`, preceding a step of `requester`
    /// in the closure, blocks it — another live, started transaction
    /// whose last step is not at the `level(t, requester)` breakpoint.
    pub fn blocks(&self, t: TxnId, requester: TxnId) -> bool {
        let inst = self.instance(t);
        t != requester
            && !self.is_committed(t)
            && !inst.is_finished()
            && inst.seq() > 0
            && !inst.at_breakpoint(self.level(t, requester))
    }

    /// The step `t` requests next. Values are zero: the closure is
    /// order- and entity-based, never value-based.
    pub fn candidate(&self, t: TxnId) -> Step {
        let inst = self.instance(t);
        Step {
            txn: t,
            seq: inst.seq(),
            entity: inst.next_entity().expect("candidate for a live step"),
            observed: 0,
            wrote: 0,
        }
    }

    /// The live history in performance order.
    pub fn history_steps(&self) -> Vec<Step> {
        self.store
            .journal()
            .iter()
            .map(StepRecord::as_step)
            .collect()
    }

    /// Performs `txn`'s next step against the store and journals it,
    /// then tells `control` ([`Control::performed`]). On the last step
    /// the transaction becomes [`TxnStatus::Committed`] and `control`
    /// hears of it ([`Control::committed`]).
    pub fn perform(&mut self, txn: TxnId, control: &mut dyn Control) -> StepRecord {
        let ti = txn.index();
        let entity = self.instances[ti]
            .next_entity()
            .expect("performing transaction has a next entity");
        let observed = self.store.value(entity);
        let step = self.instances[ti].perform(observed);
        let record = self.store.perform(txn, step.seq, entity, |_| step.wrote);
        debug_assert_eq!(record.observed, observed);
        control.performed(&record, self);
        if self.instances[ti].is_finished() {
            self.status[ti] = TxnStatus::Committed;
            control.committed(txn, self);
        }
        record
    }

    /// Rolls `victims` back with the journal's undo cascade
    /// ([`Store::roll_back`]). Each rolled-back transaction, ascending,
    /// restarts its instance ([`TxnInstance::reset`]), becomes
    /// [`TxnStatus::Idle`], and `control` hears of it
    /// ([`Control::aborted`]). Returns the rollback and the rolled-back
    /// transactions that had committed, ascending.
    pub fn roll_back(
        &mut self,
        victims: impl IntoIterator<Item = TxnId>,
        control: &mut dyn Control,
    ) -> (Rollback, Vec<TxnId>) {
        let rollback = self.store.roll_back(victims);
        let mut had_committed = Vec::new();
        for &(v, _) in &rollback.victims {
            let vi = v.index();
            if self.status[vi] == TxnStatus::Committed {
                had_committed.push(v);
            }
            self.status[vi] = TxnStatus::Idle;
            self.instances[vi].reset();
            control.aborted(v, self);
        }
        (rollback, had_committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Decision;
    use mla_model::program::{ScriptOp, ScriptProgram};
    use mla_model::EntityId;
    use mla_txn::NoBreakpoints;
    use std::sync::Arc;

    /// Two-step transactions over the given entities, flat nest.
    fn world(entities: &[(u32, u32)]) -> World {
        let instances = entities
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                TxnInstance::new(
                    TxnId(i as u32),
                    Arc::new(ScriptProgram::new(vec![
                        ScriptOp::Add(EntityId(a), 1),
                        ScriptOp::Add(EntityId(b), 1),
                    ])),
                    Arc::new(NoBreakpoints { k: 2 }),
                )
            })
            .collect();
        World {
            store: Store::new([(EntityId(0), 5)]),
            instances,
            status: vec![TxnStatus::Running; entities.len()],
            nest: Nest::flat(entities.len()),
        }
    }

    /// A control that records every hook call with the status the
    /// world showed at that moment.
    #[derive(Default)]
    struct Recorder {
        log: Vec<(&'static str, TxnId, TxnStatus, u32)>,
    }

    impl Recorder {
        fn note(&mut self, hook: &'static str, t: TxnId, world: &World) {
            let seq = world.instance(t).seq();
            self.log.push((hook, t, world.status[t.index()], seq));
        }
    }

    impl Control for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }

        fn decide(&mut self, _txn: TxnId, _world: &World) -> Decision {
            Decision::Grant
        }

        fn performed(&mut self, record: &StepRecord, world: &World) {
            self.note("performed", record.txn, world);
        }

        fn committed(&mut self, txn: TxnId, world: &World) {
            self.note("committed", txn, world);
        }

        fn aborted(&mut self, txn: TxnId, world: &World) {
            self.note("aborted", txn, world);
        }
    }

    #[test]
    fn world_view_mirrors_world_state() {
        let mut w = world(&[(0, 1)]);
        let c = w.candidate(TxnId(0));
        assert_eq!((c.seq, c.entity), (0, EntityId(0)));
        assert!(!w.is_committed(TxnId(0)));
        let record = w.perform(TxnId(0), &mut Recorder::default());
        assert_eq!((record.observed, record.wrote), (5, 6));
        let c = w.candidate(TxnId(0));
        assert_eq!((c.seq, c.entity), (1, EntityId(1)));
        assert_eq!(w.instance(TxnId(0)).seq(), 1);
        assert_eq!(w.history_steps().len(), 1);
        assert_eq!(w.history_steps()[0].wrote, 6);
        w.status[0] = TxnStatus::Committed;
        assert!(w.is_committed(TxnId(0)));
    }

    #[test]
    fn perform_and_roll_back_call_the_hooks_in_order() {
        // t0 runs to commit on entities 0 and 1; t1 then builds on t0's
        // write of entity 1 and stops halfway.
        let mut w = world(&[(0, 1), (1, 2)]);
        let mut rec = Recorder::default();
        for t in [0, 0, 1] {
            w.perform(TxnId(t), &mut rec);
        }
        use TxnStatus::*;
        assert_eq!(
            rec.log,
            [
                ("performed", TxnId(0), Running, 1),
                ("performed", TxnId(0), Running, 2),
                ("committed", TxnId(0), Committed, 2),
                ("performed", TxnId(1), Running, 1),
            ]
        );
        assert_eq!(w.status, [Committed, Running]);

        // Rolling t0 back cascades into t1: both restart from step 0,
        // one attempt later, and only t0 is reported as committed.
        rec.log.clear();
        let (rollback, had_committed) = w.roll_back([TxnId(0)], &mut rec);
        assert_eq!(
            rollback.victims.iter().map(|&(v, _)| v).collect::<Vec<_>>(),
            [TxnId(0), TxnId(1)]
        );
        assert_eq!(rollback.undone.len(), 3);
        assert_eq!(had_committed, [TxnId(0)]);
        assert_eq!(
            rec.log,
            [
                ("aborted", TxnId(0), Idle, 0),
                ("aborted", TxnId(1), Idle, 0),
            ]
        );
        assert_eq!(w.status, [Idle, Idle]);
        for i in &w.instances {
            assert_eq!((i.seq(), i.attempts()), (0, 2));
        }
        assert!(w.store.journal().is_empty());
        assert_eq!(w.store.value(EntityId(0)), 5);
    }
}
