//! `Store::roll_back`, the workspace's one rollback cascade, against
//! hand-built journals and against the whole-journal reference it
//! replaced; and `Store::undo_floor`, the same cascade as a dry run,
//! against that reference, against the ticket-straddling floor it
//! replaced in the service's GC, and over time.

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

#[test]
fn undo_floor_follows_the_cascade_back_past_its_roots() {
    // The root reaches t1 through e1; t1's earlier write to e0 dirtied
    // t2's read, and t2 began before t1 did.
    let mut store = Store::new([]);
    store.perform(t(2), 0, e(5), |v| v);
    store.perform(t(1), 0, e(0), |_| 1);
    store.perform(t(2), 1, e(0), |v| v);
    store.perform(t(0), 0, e(1), |_| 2);
    store.perform(t(1), 1, e(1), |_| 3);
    assert_eq!(store.undo_floor([t(0)]), 0);
    assert_eq!(store.undo_floor([t(1)]), 0);
    assert_eq!(store.undo_floor([t(2)]), 0);
    // A cascade reaches only later records: a lone reader of nothing
    // anyone wrote later floors at its own first record.
    let last = store.perform(t(3), 0, e(7), |_| 4);
    assert_eq!(store.undo_floor([t(3)]), last.id);
    assert_eq!(store.undo_floor([]), store.next_id());
    assert_eq!(store.roll_back([t(0)]).undone.len(), 5);
    assert_eq!(store.journal(), &[last]);
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

/// The reference undo floor: the first live record of any transaction
/// the reference cascade reaches from `running`, or the next id.
fn reference_floor(store: &Store, running: &BTreeSet<TxnId>) -> u64 {
    let reach = expand_cascade(store, running.clone());
    store
        .journal()
        .iter()
        .find(|r| reach.contains(&r.txn))
        .map_or(store.next_id(), |r| r.id)
}

/// The floor the service's GC used before the undo floor: the first
/// record of any running transaction, dragged down through every other
/// transaction whose first and last records straddle it, to a fixpoint.
fn straddler_floor(store: &Store, running: &BTreeSet<TxnId>) -> u64 {
    let mut span: HashMap<TxnId, (u64, u64)> = HashMap::new();
    for r in store.journal() {
        span.entry(r.txn).or_insert((r.id, r.id)).1 = r.id;
    }
    let mut floor = running
        .iter()
        .filter_map(|t| span.get(t))
        .map(|&(first, _)| first)
        .min()
        .unwrap_or(store.next_id());
    loop {
        let dragged = span
            .iter()
            .filter(|(t, &(first, last))| !running.contains(t) && first < floor && last >= floor)
            .map(|(_, &(first, _))| first)
            .min();
        match dragged {
            Some(first) => floor = first,
            None => return floor,
        }
    }
}

/// Performs a random journal of reads and writes with rollbacks mixed
/// in, as in `cascade_matches_the_reference`.
fn random_journal(ops: &[(u32, u32, u8)]) -> Store {
    let mut store = Store::new([]);
    let mut seq = [0u32; 6];
    for &(x, entity, kind) in ops {
        match kind {
            0 => roll_back(&mut store, &[x], &mut seq),
            _ => {
                store.perform(t(x), seq[x as usize], e(entity), |v| {
                    if kind == 1 {
                        v
                    } else {
                        v + Value::from(kind)
                    }
                });
                seq[x as usize] += 1;
            }
        }
    }
    store
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

proptest! {
    // The journal shapes where the dry run's rescan matters are rare:
    // without it, the first failing case is number 67 of (c) and 255
    // of (a).
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// (a) The undo floor of a random set of running transactions is the
    /// first record the reference cascade reaches from them, and no
    /// rollback of any subset of them undoes a record below it. (b) It
    /// is never below the straddler floor, the rest of the journal's
    /// transactions counting as committed.
    #[test]
    fn undo_floor_bounds_every_rollback_of_the_running(
        ops in proptest::collection::vec((0u32..6, 0u32..4, 0u8..5), 1..64),
        running in 0u8..64,
    ) {
        let mut store = random_journal(&ops);
        let named: Vec<u32> = (0..6).filter(|x| running & 1 << x != 0).collect();
        let running: Vec<TxnId> = named.iter().map(|&x| t(x)).collect();
        let set: BTreeSet<TxnId> = running.iter().copied().collect();
        let floor = store.undo_floor(running.iter().copied());
        prop_assert_eq!(floor, reference_floor(&store, &set));
        prop_assert!(floor >= straddler_floor(&store, &set));
        for subset in 0..1u32 << running.len() {
            let mut copy = store.clone();
            let requested = running
                .iter()
                .enumerate()
                .filter(|&(i, _)| subset & 1 << i != 0)
                .map(|(_, &v)| v);
            let rollback = copy.roll_back(requested);
            prop_assert!(rollback.undone.iter().all(|r| r.id >= floor));
        }
        // The dry run leaves the journal as it was and no marks behind:
        // it repeats, and a rollback after it still matches the
        // reference.
        let journal = store.journal().to_vec();
        prop_assert_eq!(store.undo_floor(running.iter().copied()), floor);
        prop_assert_eq!(store.journal(), &journal[..]);
        roll_back(&mut store, &named, &mut [0; 6]);
    }

    /// (c) As the service runs — idle transactions start, running ones
    /// perform steps, commit, or are rolled back with their cascade —
    /// the undo floor of the running transactions never falls, and it
    /// stays the reference's and at or above the straddler floor.
    #[test]
    fn undo_floor_never_falls(
        ops in proptest::collection::vec((0u32..6, 0u32..4, 0u8..6), 1..96),
    ) {
        let mut store = Store::new([]);
        let mut seq = [0u32; 6];
        let mut running = BTreeSet::new();
        let mut committed = BTreeSet::new();
        let mut floor = 0;
        for (x, entity, kind) in ops {
            match kind {
                0 if running.contains(&t(x)) => {
                    // The victims restart: idle until their next step.
                    roll_back(&mut store, &[x], &mut seq);
                    running.retain(|v: &TxnId| seq[v.index()] > 0);
                    committed.retain(|v: &TxnId| seq[v.index()] > 0);
                }
                5 if running.contains(&t(x)) && seq[x as usize] > 0 => {
                    running.remove(&t(x));
                    committed.insert(t(x));
                }
                1..=4 if !committed.contains(&t(x)) => {
                    running.insert(t(x));
                    store.perform(t(x), seq[x as usize], e(entity), |v| {
                        if kind == 1 { v } else { v + Value::from(kind) }
                    });
                    seq[x as usize] += 1;
                }
                _ => continue,
            }
            let next = store.undo_floor(running.iter().copied());
            prop_assert!(next >= floor, "the undo floor fell from {} to {}", floor, next);
            prop_assert_eq!(next, reference_floor(&store, &running));
            prop_assert!(next >= straddler_floor(&store, &running));
            floor = next;
        }
    }
}
