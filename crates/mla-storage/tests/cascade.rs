//! `Store::roll_back`, the workspace's one rollback cascade, against
//! hand-built journals and against the whole-journal reference it
//! replaced.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use mla_model::{EntityId, TxnId, Value};
use mla_storage::{Cause, StepRecord, Store};
use proptest::prelude::*;

fn e(x: u32) -> EntityId {
    EntityId(x)
}

fn t(x: u32) -> TxnId {
    TxnId(x)
}

#[test]
fn cascade_expansion_reaches_dependents() {
    let mut store = Store::new([]);
    store.perform(t(0), 0, e(0), |_| 1);
    store.perform(t(1), 0, e(0), |_| 2);
    store.perform(t(1), 1, e(1), |_| 3);
    store.perform(t(2), 0, e(1), |_| 4);
    let rollback = store.roll_back([t(0)]);
    assert_eq!(
        rollback.victims,
        vec![
            (t(0), Cause::Requested),
            (t(1), Cause::Cascaded),
            (t(2), Cause::Cascaded)
        ],
        "t0's entity feeds t1 which feeds t2"
    );
    assert_eq!(rollback.undone.len(), 4);
    assert!(rollback.undone.windows(2).all(|w| w[0].id > w[1].id));
    assert!(store.journal().is_empty());
    assert_eq!((store.value(e(0)), store.value(e(1))), (0, 0));
}

#[test]
fn cascade_stops_at_independent_txns() {
    let mut store = Store::new([]);
    store.perform(t(0), 0, e(0), |_| 1);
    let untouched = store.perform(t(1), 0, e(5), |_| 2);
    let rollback = store.roll_back([t(0)]);
    assert_eq!(rollback.victims, vec![(t(0), Cause::Requested)]);
    assert!(!rollback.contains(t(1)));
    assert_eq!(store.journal(), &[untouched]);
}

#[test]
fn cascade_rescans_from_a_late_victims_earlier_writes() {
    // t2 joins through e1 only after the pass has passed its write to
    // e0, which dirtied t3's later read of e0.
    let mut store = Store::new([]);
    store.perform(t(2), 0, e(0), |_| 1);
    store.perform(t(3), 0, e(0), |v| v);
    store.perform(t(0), 0, e(1), |_| 2);
    store.perform(t(2), 1, e(1), |_| 3);
    let rollback = store.roll_back([t(0)]);
    let victims: Vec<TxnId> = rollback.victims.iter().map(|&(v, _)| v).collect();
    assert_eq!(victims, vec![t(0), t(2), t(3)]);
    assert!(store.journal().is_empty());
}

#[test]
fn a_victims_pure_read_spares_a_later_writer() {
    // An audit reads e0, a transfer then writes it: rolling the audit
    // back removes its read and leaves the transfer standing.
    let mut store = Store::new([(e(0), 10)]);
    let read = store.perform(t(0), 0, e(0), |v| v);
    let write = store.perform(t(1), 0, e(0), |v| v + 5);
    let rollback = store.roll_back([t(0)]);
    assert_eq!(rollback.victims, vec![(t(0), Cause::Requested)]);
    assert_eq!(rollback.undone, vec![read]);
    assert_eq!(store.journal(), &[write]);
    assert_eq!(store.value(e(0)), 15);
}

#[test]
fn a_victim_never_performed_is_still_rolled_back() {
    let mut store = Store::new([]);
    let other = store.perform(t(0), 0, e(0), |_| 1);
    let rollback = store.roll_back([t(7)]);
    assert_eq!(rollback.victims, vec![(t(7), Cause::Requested)]);
    assert!(rollback.undone.is_empty());
    assert_eq!(store.journal(), &[other]);
}

/// The cascade as first written, kept as the reference: whole-journal
/// passes over ordered sets until nothing is added.
fn expand_cascade(store: &Store, mut victims: BTreeSet<TxnId>) -> BTreeSet<TxnId> {
    loop {
        // Earliest value-changing victim record per entity.
        let mut entity_min: HashMap<EntityId, u64> = HashMap::new();
        for r in store.journal() {
            if victims.contains(&r.txn) && r.wrote != r.observed {
                entity_min
                    .entry(r.entity)
                    .and_modify(|m| *m = (*m).min(r.id))
                    .or_insert(r.id);
            }
        }
        let mut changed = false;
        for r in store.journal() {
            if let Some(&min_id) = entity_min.get(&r.entity) {
                if r.id > min_id && victims.insert(r.txn) {
                    changed = true;
                }
            }
        }
        if !changed {
            return victims;
        }
    }
}

/// The reference undo list: every live record of the victims, sorted
/// into reverse performance order.
fn collect_undo(store: &Store, victims: &BTreeSet<TxnId>) -> Vec<StepRecord> {
    let mut records: Vec<StepRecord> = store
        .journal()
        .iter()
        .copied()
        .filter(|r| victims.contains(&r.txn))
        .collect();
    records.sort_unstable_by_key(|r| Reverse(r.id));
    records
}

/// Rolls `requested` back after computing the reference over the same
/// journal, checks the two agree, and restarts the victims' sequences.
fn roll_back(store: &mut Store, requested: &[u32], seq: &mut [u32]) {
    let requested: Vec<TxnId> = requested.iter().map(|&x| t(x)).collect();
    let reference = expand_cascade(store, requested.iter().copied().collect());
    let undo = collect_undo(store, &reference);
    let rollback = store.roll_back(requested.iter().copied());
    let victims: Vec<TxnId> = rollback.victims.iter().map(|&(v, _)| v).collect();
    assert_eq!(victims, reference.iter().copied().collect::<Vec<_>>());
    for &(v, cause) in &rollback.victims {
        let named = requested.contains(&v);
        assert_eq!(cause == Cause::Requested, named);
        seq[v.index()] = 0;
    }
    assert_eq!(rollback.undone, undo);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random journals of reads and writes, with rollbacks (and so
    /// restarted transactions and id gaps) mixed in: every rollback
    /// gives the reference's victims and undo list, in the same order,
    /// and leaves a journal that replays as an execution.
    #[test]
    fn cascade_matches_the_reference(
        ops in proptest::collection::vec((0u32..6, 0u32..4, 0u8..5), 1..64),
        last in proptest::collection::vec(0u32..6, 1..4),
    ) {
        let mut store = Store::new([]);
        let mut seq = [0u32; 6];
        for (x, entity, kind) in ops {
            match kind {
                0 => roll_back(&mut store, &[x], &mut seq),
                _ => {
                    let i = x as usize;
                    store.perform(t(x), seq[i], e(entity), |v| {
                        if kind == 1 { v } else { v + Value::from(kind) }
                    });
                    seq[i] += 1;
                }
            }
        }
        roll_back(&mut store, &last, &mut seq);
        prop_assert!(store.execution().len() == store.journal().len());
    }
}
