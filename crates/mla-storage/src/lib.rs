//! Entity storage with undo logging — the substrate the §6 concurrency
//! controls run on.
//!
//! The paper's schedulers need more than a key-value map: the
//! cycle-detection control rolls transactions back, and multilevel
//! atomicity makes rollback *cascading* (§6: "a rollback of steps of
//! t(i+1) can cause a rollback of steps of t(i), and so on"). [`Store`]
//! therefore journals every performed step as a [`StepRecord`], undoes
//! any per-entity suffix of the journal in reverse order — verifying at
//! each undo that the store still holds the value the step wrote — and
//! computes that suffix itself: [`Store::roll_back`] expands the
//! requested victims with every transaction the undo reaches and undoes
//! them all. It is the one rollback cascade of the workspace; the
//! simulator's abort arm and the service's gate both call it, and the
//! service's version GC asks the same cascade, as a dry run, how far
//! back any rollback could still reach ([`Store::undo_floor`]).
//!
//! The surviving journal is replayable as an [`Execution`], which is how
//! every simulation and every service drain feeds its actual history
//! back through the offline Theorem 2 checker (the "safety oracle" in
//! DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epoch;
pub mod latch;
pub mod mvcc;

pub use epoch::{EpochPin, EpochRegistry};
pub use latch::{LatchGuard, LatchMode, LatchTree};
pub use mvcc::{MvccStore, Version};

use std::collections::HashMap;

use mla_model::{EntityId, Execution, Step, TxnId, Value};

/// A journaled step: what [`Store::perform`] did, with enough information
/// to undo it and to reconstruct the execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepRecord {
    /// Monotone journal id (performance order).
    pub id: u64,
    /// The transaction that performed the step.
    pub txn: TxnId,
    /// The step's sequence number within the transaction's current run.
    pub seq: u32,
    /// The entity accessed.
    pub entity: EntityId,
    /// Entity value before the step.
    pub observed: Value,
    /// Entity value after the step.
    pub wrote: Value,
}

impl StepRecord {
    /// The record as a model [`Step`].
    pub fn as_step(&self) -> Step {
        Step {
            txn: self.txn,
            seq: self.seq,
            entity: self.entity,
            observed: self.observed,
            wrote: self.wrote,
        }
    }
}

/// Errors from [`Store::undo`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UndoError {
    /// The record is not live in the journal (already undone, or never
    /// performed here).
    NotLive {
        /// The offending record id.
        id: u64,
    },
    /// The entity no longer holds the value the step wrote: some later
    /// access to the entity is still live and must be undone first.
    NotLatest {
        /// The offending record id.
        id: u64,
        /// The value the entity currently holds.
        current: Value,
        /// The value the record wrote (and expected to find).
        wrote: Value,
    },
}

impl std::fmt::Display for UndoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UndoError::NotLive { id } => write!(f, "record {id} is not live"),
            UndoError::NotLatest { id, current, wrote } => write!(
                f,
                "record {id} is not the latest access: entity holds {current}, step wrote {wrote}"
            ),
        }
    }
}

impl std::error::Error for UndoError {}

/// Why a transaction is among a [`Rollback`]'s victims.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// Named by the caller of [`Store::roll_back`].
    Requested,
    /// Reached by the undo cascade.
    Cascaded,
}

/// What one [`Store::roll_back`] undid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rollback {
    /// The rolled-back transactions, ascending, each with its cause.
    pub victims: Vec<(TxnId, Cause)>,
    /// Their undone records, newest first.
    pub undone: Vec<StepRecord>,
}

impl Rollback {
    /// Whether `t` was rolled back.
    pub fn contains(&self, t: TxnId) -> bool {
        self.victims.binary_search_by_key(&t, |&(v, _)| v).is_ok()
    }
}

/// The entity store: current values plus the live journal.
///
/// ```
/// use mla_storage::Store;
/// use mla_model::{EntityId, TxnId};
///
/// let mut store = Store::new([(EntityId(0), 100)]);
/// store.perform(TxnId(0), 0, EntityId(0), |v| v - 30);
/// store.perform(TxnId(1), 0, EntityId(0), |v| v + 5);
/// assert_eq!(store.value(EntityId(0)), 75);
/// // Rolling t0 back cascades into t1, which built on t0's write.
/// let rollback = store.roll_back([TxnId(0)]);
/// assert!(rollback.contains(TxnId(1)));
/// assert_eq!(store.value(EntityId(0)), 100);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Store {
    values: HashMap<EntityId, Value>,
    initial: HashMap<EntityId, Value>,
    /// Live journal, in performance order. Undone records are removed.
    journal: Vec<StepRecord>,
    next_id: u64,
    undone_count: u64,
    cascade: Cascade,
}

impl Store {
    /// Creates a store; entities absent from `initial` start at 0.
    pub fn new(initial: impl IntoIterator<Item = (EntityId, Value)>) -> Self {
        let initial: HashMap<EntityId, Value> = initial.into_iter().collect();
        Store {
            values: initial.clone(),
            initial,
            ..Store::default()
        }
    }

    /// Current value of an entity.
    pub fn value(&self, e: EntityId) -> Value {
        self.values.get(&e).copied().unwrap_or(0)
    }

    /// The entity's configured initial value.
    pub fn initial_value(&self, e: EntityId) -> Value {
        self.initial.get(&e).copied().unwrap_or(0)
    }

    /// Performs one step: applies `f` to the entity's current value and
    /// journals the access.
    pub fn perform(
        &mut self,
        txn: TxnId,
        seq: u32,
        entity: EntityId,
        f: impl FnOnce(Value) -> Value,
    ) -> StepRecord {
        let observed = self.value(entity);
        let wrote = f(observed);
        self.values.insert(entity, wrote);
        let record = StepRecord {
            id: self.next_id,
            txn,
            seq,
            entity,
            observed,
            wrote,
        };
        self.next_id += 1;
        self.journal.push(record);
        self.cascade.performed(&record);
        record
    }

    /// The id the next performed step will get.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Rolls back `requested` and every transaction the undo cascade
    /// reaches, undoing all their live records.
    ///
    /// Undoing a *value-changing* record invalidates every later live
    /// record on the same entity — writers built on the dirty value,
    /// readers observed it — so their transactions roll back whole too.
    /// A victim's pure reads are removed without cascading: they never
    /// influenced what anyone else saw, so an audit's rollback spares the
    /// writers that followed it.
    ///
    /// A rollback costs what it touches: the victims are dense marks over
    /// `TxnId`, and every journal scan starts at the first live record of
    /// a victim, found by binary search. So it pays for the journal
    /// suffix its victims span, not for the whole history.
    pub fn roll_back(&mut self, requested: impl IntoIterator<Item = TxnId>) -> Rollback {
        self.cascade.expand(&self.journal, requested);
        let undone = self.cascade.undo_list(&self.journal);
        self.undo(&undone)
            .expect("the cascade undoes whole transactions, newest record first");
        let victims = self.cascade.unmark();
        for &(t, _) in &victims {
            self.cascade.first_live[t.index()] = NO_RECORD;
        }
        Rollback { victims, undone }
    }

    /// The smallest record id any rollback of `roots` could undo, now or
    /// after later steps: the first live record among `roots` and every
    /// transaction their undo cascade reaches, or [`next_id`](Self::next_id)
    /// if they have none.
    ///
    /// Runs [`roll_back`](Self::roll_back)'s cascade as a dry run and
    /// undoes nothing. With `roots` the running transactions this is a
    /// commit point: a cascade only reaches later records, and every
    /// future root is running now or performs all its records later, so
    /// the floor never falls and no rollback ever undoes a record below
    /// it.
    pub fn undo_floor(&mut self, roots: impl IntoIterator<Item = TxnId>) -> u64 {
        self.cascade.expand(&self.journal, roots);
        let floor = self.cascade.first_live_of(&self.cascade.victims);
        self.cascade.unmark();
        floor.min(self.next_id)
    }

    /// Undoes `records`, which must be supplied in **reverse** performance
    /// order.
    ///
    /// A *value-changing* record must be the latest live value-changing
    /// access to its entity when reached ([`roll_back`](Self::roll_back)
    /// computes that cascade). A *pure read* (`wrote == observed`) is a
    /// no-op in the entity's value chain and may be removed from anywhere
    /// in the journal without disturbing later accesses — this is what
    /// keeps read-only transactions (audits, snapshots) from dragging
    /// every later writer into their rollbacks.
    ///
    /// On error the store is left with all records preceding the failing
    /// one already undone.
    ///
    /// The journal is sorted by id, so each record is found by binary
    /// search; the undone records are marked and the journal is compacted
    /// once, from the earliest of them, at the end.
    pub fn undo(&mut self, records: &[StepRecord]) -> Result<(), UndoError> {
        let mut undone = vec![0u64; self.journal.len().div_ceil(64)];
        let mut first = self.journal.len();
        let result = records.iter().try_for_each(|r| {
            let pos = self
                .journal
                .binary_search_by_key(&r.id, |j| j.id)
                .ok()
                .filter(|&pos| undone[pos / 64] & 1 << (pos % 64) == 0)
                .ok_or(UndoError::NotLive { id: r.id })?;
            let live = self.journal[pos];
            if live.wrote != live.observed {
                let current = self.value(live.entity);
                if current != live.wrote {
                    return Err(UndoError::NotLatest {
                        id: r.id,
                        current,
                        wrote: live.wrote,
                    });
                }
                self.values.insert(live.entity, live.observed);
            }
            undone[pos / 64] |= 1 << (pos % 64);
            first = first.min(pos);
            self.undone_count += 1;
            Ok(())
        });
        let mut kept = first;
        for pos in first..self.journal.len() {
            if undone[pos / 64] & 1 << (pos % 64) == 0 {
                self.journal[kept] = self.journal[pos];
                kept += 1;
            }
        }
        self.journal.truncate(kept);
        result
    }

    /// The latest live access to `entity`, if any.
    pub fn latest_access(&self, entity: EntityId) -> Option<StepRecord> {
        self.journal
            .iter()
            .rev()
            .find(|r| r.entity == entity)
            .copied()
    }

    /// The live journal, in performance order, which is ascending id
    /// order.
    pub fn journal(&self) -> &[StepRecord] {
        &self.journal
    }

    /// Number of records undone over the store's lifetime (rollback work —
    /// an experiment metric).
    pub fn undone_count(&self) -> u64 {
        self.undone_count
    }

    /// Rebuilds the surviving history as an [`Execution`].
    ///
    /// # Panics
    /// Panics if surviving per-transaction sequences are not contiguous —
    /// the scheduler must undo whole transaction suffixes, never interior
    /// steps.
    pub fn execution(&self) -> Execution {
        Execution::new(self.journal.iter().map(StepRecord::as_step).collect())
            .expect("journal sequences must be contiguous per transaction")
    }

    /// Sum of values over a set of entities (used by audit-style checks).
    pub fn total(&self, entities: impl IntoIterator<Item = EntityId>) -> Value {
        entities.into_iter().map(|e| self.value(e)).sum()
    }
}

/// No journal record, in [`Cascade`]'s id-valued slots.
const NO_RECORD: u64 = u64::MAX;

/// [`Store::roll_back`]'s cascade, over buffers kept across rollbacks.
#[derive(Clone, Debug, Default)]
struct Cascade {
    /// `TxnId` -> id of its first live journal record, or [`NO_RECORD`].
    /// Rollback takes whole transactions, so this is its current run's
    /// step 0.
    first_live: Vec<u64>,
    /// `TxnId` -> its cause in the rollback being expanded; `None` while
    /// spared.
    mark: Vec<Option<Cause>>,
    /// The marked transactions; ascending once [`expand`](Self::expand)
    /// returns.
    victims: Vec<TxnId>,
    /// Entity -> id of the earliest value-changing victim record on it,
    /// or [`NO_RECORD`].
    entity_min: Vec<u64>,
    /// The entities whose `entity_min` is set.
    entities: Vec<usize>,
}

impl Cascade {
    /// Grows the per-transaction tables to cover `t`.
    fn cover(&mut self, t: TxnId) {
        if t.index() >= self.mark.len() {
            self.first_live.resize(t.index() + 1, NO_RECORD);
            self.mark.resize(t.index() + 1, None);
        }
    }

    /// Notes a journaled step.
    fn performed(&mut self, r: &StepRecord) {
        self.cover(r.txn);
        if r.seq == 0 {
            self.first_live[r.txn.index()] = r.id;
        }
    }

    /// The id of the first live record of any of `txns`, or
    /// [`NO_RECORD`].
    fn first_live_of(&self, txns: &[TxnId]) -> u64 {
        txns.iter()
            .map(|t| self.first_live[t.index()])
            .min()
            .unwrap_or(NO_RECORD)
    }

    /// The journal from the first live record of any of `txns`.
    fn suffix<'j>(&self, journal: &'j [StepRecord], txns: &[TxnId]) -> &'j [StepRecord] {
        let from = self.first_live_of(txns);
        &journal[journal.partition_point(|r| r.id < from)..]
    }

    /// Marks the `requested` victims and every transaction the undo
    /// cascade reaches.
    ///
    /// Each pass scans the journal from the first live record of the
    /// victims the previous pass added (the first pass: the requested
    /// ones), since a new victim's earlier writes can reach records the
    /// pass had already passed. A pass that adds nobody ends it.
    fn expand(&mut self, journal: &[StepRecord], requested: impl IntoIterator<Item = TxnId>) {
        for t in requested {
            self.cover(t);
            if self.mark[t.index()].is_none() {
                self.mark[t.index()] = Some(Cause::Requested);
                self.victims.push(t);
            }
        }
        let mut scanned = 0;
        while scanned < self.victims.len() {
            let suffix = self.suffix(journal, &self.victims[scanned..]);
            scanned = self.victims.len();
            for r in suffix {
                let e = r.entity.index();
                if e >= self.entity_min.len() {
                    self.entity_min.resize(e + 1, NO_RECORD);
                }
                let min = self.entity_min[e];
                if r.id > min {
                    if self.mark[r.txn.index()].is_none() {
                        self.mark[r.txn.index()] = Some(Cause::Cascaded);
                        self.victims.push(r.txn);
                    }
                } else if self.mark[r.txn.index()].is_some() && r.wrote != r.observed {
                    if min == NO_RECORD {
                        self.entities.push(e);
                    }
                    self.entity_min[e] = r.id;
                }
            }
        }
        self.victims.sort_unstable();
    }

    /// All live records of the victims, in reverse performance order —
    /// the order [`Store::undo`] requires.
    fn undo_list(&self, journal: &[StepRecord]) -> Vec<StepRecord> {
        self.suffix(journal, &self.victims)
            .iter()
            .rev()
            .filter(|r| self.mark[r.txn.index()].is_some())
            .copied()
            .collect()
    }

    /// Forgets the expanded cascade, returning its victims with their
    /// causes. `first_live` is left alone: that is the caller's, once it
    /// has undone the victims' records.
    fn unmark(&mut self) -> Vec<(TxnId, Cause)> {
        for e in self.entities.drain(..) {
            self.entity_min[e] = NO_RECORD;
        }
        self.victims
            .drain(..)
            .map(|t| (t, self.mark[t.index()].take().expect("victims are marked")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    fn t(x: u32) -> TxnId {
        TxnId(x)
    }

    #[test]
    fn perform_reads_and_writes() {
        let mut s = Store::new([(e(0), 100)]);
        let r = s.perform(t(0), 0, e(0), |v| v - 30);
        assert_eq!(r.observed, 100);
        assert_eq!(r.wrote, 70);
        assert_eq!(s.value(e(0)), 70);
        assert_eq!(s.value(e(9)), 0, "absent entities default to 0");
        assert_eq!(s.initial_value(e(0)), 100);
    }

    #[test]
    fn journal_ids_are_monotone() {
        let mut s = Store::new([]);
        let a = s.perform(t(0), 0, e(0), |v| v + 1);
        let b = s.perform(t(1), 0, e(1), |v| v + 1);
        assert!(a.id < b.id);
        assert_eq!(s.journal().len(), 2);
    }

    #[test]
    fn undo_restores_values_and_journal() {
        let mut s = Store::new([(e(0), 10)]);
        let r0 = s.perform(t(0), 0, e(0), |v| v + 5);
        let r1 = s.perform(t(0), 1, e(1), |_| 42);
        s.undo(&[r1, r0]).unwrap();
        assert_eq!(s.value(e(0)), 10);
        assert_eq!(s.value(e(1)), 0);
        assert!(s.journal().is_empty());
        assert_eq!(s.undone_count(), 2);
    }

    #[test]
    fn undo_rejects_stale_record() {
        let mut s = Store::new([]);
        let r0 = s.perform(t(0), 0, e(0), |_| 1);
        let r1 = s.perform(t(1), 0, e(0), |_| 2);
        // r0 is no longer the latest access to e0.
        let err = s.undo(&[r0]).unwrap_err();
        assert!(matches!(
            err,
            UndoError::NotLatest {
                current: 2,
                wrote: 1,
                ..
            }
        ));
        // Undo in proper cascade order works.
        s.undo(&[r1, r0]).unwrap();
        assert_eq!(s.value(e(0)), 0);
    }

    #[test]
    fn undo_rejects_double_undo() {
        let mut s = Store::new([]);
        let r = s.perform(t(0), 0, e(0), |_| 1);
        s.undo(&[r]).unwrap();
        assert_eq!(s.undo(&[r]).unwrap_err(), UndoError::NotLive { id: r.id });
    }

    #[test]
    fn latest_access_is_the_last_live_record() {
        let mut s = Store::new([]);
        s.perform(t(0), 0, e(0), |_| 1);
        let r1 = s.perform(t(1), 0, e(0), |_| 2);
        s.perform(t(1), 1, e(1), |_| 3);
        assert_eq!(s.latest_access(e(0)), Some(r1));
        assert_eq!(s.latest_access(e(2)), None);
    }

    #[test]
    fn failed_batch_leaves_exactly_the_earlier_records_undone() {
        let mut s = Store::new([]);
        let a = s.perform(t(0), 0, e(0), |_| 1);
        let b = s.perform(t(1), 0, e(1), |_| 2);
        let c = s.perform(t(2), 0, e(1), |_| 3);
        let d = s.perform(t(3), 0, e(2), |_| 4);
        // `b` is not the latest write to e1 (`c` is, and `c` is not in
        // the batch): `d` is undone, `b` fails, `a` is never reached.
        assert_eq!(
            s.undo(&[d, b, a]).unwrap_err(),
            UndoError::NotLatest {
                id: b.id,
                current: 3,
                wrote: 2,
            }
        );
        assert_eq!(s.journal(), &[a, b, c]);
        assert_eq!((s.value(e(0)), s.value(e(1)), s.value(e(2))), (1, 3, 0));
        assert_eq!(s.undone_count(), 1);
    }

    #[test]
    fn mid_journal_read_is_removed_without_touching_values() {
        let mut s = Store::new([(e(0), 5)]);
        let w0 = s.perform(t(0), 0, e(0), |v| v + 1);
        let read = s.perform(t(1), 0, e(0), |v| v);
        let w2 = s.perform(t(2), 0, e(0), |v| v * 2);
        let w3 = s.perform(t(3), 0, e(1), |_| 9);
        s.undo(&[read]).unwrap();
        assert_eq!(s.journal(), &[w0, w2, w3]);
        assert_eq!((s.value(e(0)), s.value(e(1))), (12, 9));
        // The survivors still undo in cascade order.
        s.undo(&[w3, w2, w0]).unwrap();
        assert_eq!((s.value(e(0)), s.value(e(1))), (5, 0));
        assert!(s.journal().is_empty());
    }

    #[test]
    fn record_repeated_within_a_batch_is_not_live() {
        let mut s = Store::new([]);
        let a = s.perform(t(0), 0, e(0), |_| 1);
        let b = s.perform(t(0), 1, e(1), |_| 2);
        assert_eq!(
            s.undo(&[b, b, a]).unwrap_err(),
            UndoError::NotLive { id: b.id }
        );
        assert_eq!(s.journal(), &[a]);
        assert_eq!((s.value(e(0)), s.value(e(1))), (1, 0));
    }

    #[test]
    fn execution_reconstruction_is_valid() {
        use mla_model::program::{ScriptOp::*, ScriptProgram, System};
        let sys = System::new(
            vec![
                Arc::new(ScriptProgram::new(vec![Add(e(0), -10), Add(e(1), 10)])),
                Arc::new(ScriptProgram::new(vec![Add(e(0), -5)])),
            ],
            [(e(0), 100)],
        );
        let mut s = Store::new([(e(0), 100)]);
        // Interleave: t0 w, t1 w, t0 d.
        s.perform(t(0), 0, e(0), |v| v - 10);
        s.perform(t(1), 0, e(0), |v| v - 5);
        s.perform(t(0), 1, e(1), |v| v + 10);
        let exec = s.execution();
        sys.validate(&exec)
            .expect("journal replays as a valid execution");
        assert_eq!(s.value(e(0)), 85);
    }

    #[test]
    fn execution_after_abort_and_retry() {
        let mut s = Store::new([]);
        // t0 runs two steps, aborts, reruns.
        let a0 = s.perform(t(0), 0, e(0), |_| 1);
        let a1 = s.perform(t(0), 1, e(1), |_| 2);
        s.undo(&[a1, a0]).unwrap();
        s.perform(t(0), 0, e(0), |_| 7);
        s.perform(t(0), 1, e(1), |_| 8);
        let exec = s.execution();
        assert_eq!(exec.len(), 2);
        assert_eq!(exec.steps()[0].wrote, 7);
    }

    #[test]
    fn total_sums_entities() {
        let mut s = Store::new([(e(0), 5), (e(1), 7)]);
        s.perform(t(0), 0, e(1), |v| v + 3);
        assert_eq!(s.total([e(0), e(1), e(2)]), 15);
    }

    #[test]
    fn pure_read_undoes_from_anywhere() {
        let mut s = Store::new([(e(0), 10)]);
        let read = s.perform(t(0), 0, e(0), |v| v); // pure read
        let write = s.perform(t(1), 0, e(0), |v| v + 5); // later write
                                                         // The read is not the latest access, but being value-neutral it
                                                         // can still be undone without touching the value.
        s.undo(&[read]).unwrap();
        assert_eq!(s.value(e(0)), 15);
        assert_eq!(s.journal().len(), 1);
        assert_eq!(s.journal()[0].id, write.id);
    }

    #[test]
    fn write_undo_still_requires_latest() {
        let mut s = Store::new([]);
        let w0 = s.perform(t(0), 0, e(0), |_| 1);
        let _r1 = s.perform(t(1), 0, e(0), |v| v); // read of the dirty value
        let _w2 = s.perform(t(2), 0, e(0), |_| 2);
        // w0 cannot be undone while w2's value stands.
        assert!(matches!(
            s.undo(&[w0]).unwrap_err(),
            UndoError::NotLatest { .. }
        ));
    }

    #[test]
    fn write_undo_succeeds_past_interleaved_reads() {
        let mut s = Store::new([(e(0), 7)]);
        let w = s.perform(t(0), 0, e(0), |v| v + 3);
        let r = s.perform(t(1), 0, e(0), |v| v); // observed the dirty 10
                                                 // Cascade order: the read first (it observed w's value), then w.
        s.undo(&[r, w]).unwrap();
        assert_eq!(s.value(e(0)), 7);
        assert!(s.journal().is_empty());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn interior_undo_breaks_reconstruction() {
        let mut s = Store::new([]);
        let a0 = s.perform(t(0), 0, e(0), |_| 1);
        let _a1 = s.perform(t(0), 1, e(1), |_| 2);
        // Undo only the first step of t0 (an interior undo the schedulers
        // never do): the journal then starts t0 at seq 1.
        s.undo(&[a0]).unwrap();
        let _ = s.execution();
    }
}
