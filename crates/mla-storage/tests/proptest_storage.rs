//! Property coverage for the live-service storage substrate:
//!
//! * the interval-latch tree never grants overlapping exclusive latches,
//!   and conflicting grants happen in arrival (FIFO) order;
//! * the MVCC chains satisfy read-your-writes, snapshots at or above the
//!   GC frontier are stable under later installs and folds, and a folded
//!   or undone version is never read again.
//!
//! The MVCC properties run against a deliberately naive reference model
//! (the full never-folded write history), so they catch both wrong reads
//! and resurrected values.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use mla_model::{EntityId, TxnId, Value};
use mla_storage::{LatchMode, LatchTree, MvccStore};
use proptest::prelude::*;

fn e(i: u32) -> EntityId {
    EntityId(i)
}

/// A latch request: `(start, extra length, exclusive)`.
/// A held latch: `(lo, len, exclusive, holder token)`.
type HeldLatch = (u32, u32, bool, u64);

fn req_strategy() -> impl Strategy<Value = (u32, u32, bool)> {
    (0u32..12, 0u32..4, any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Threads race random acquire/release sequences while a shared
    /// audit set records what is held: at no instant may two overlapping
    /// latches coexist when either is exclusive.
    #[test]
    fn latches_never_overlap_exclusively(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(req_strategy(), 1..5), 2..5),
    ) {
        let tree = Arc::new(LatchTree::new());
        let active: Arc<Mutex<Vec<HeldLatch>>> = Arc::new(Mutex::new(Vec::new()));
        let token = Arc::new(AtomicU64::new(0));
        let mut threads = Vec::new();
        for reqs in per_thread {
            let tree = Arc::clone(&tree);
            let active = Arc::clone(&active);
            let token = Arc::clone(&token);
            threads.push(std::thread::spawn(move || {
                for (lo, len, exclusive) in reqs {
                    let hi = lo + len;
                    let mode = if exclusive { LatchMode::Exclusive } else { LatchMode::Shared };
                    let guard = tree.acquire(e(lo), e(hi), mode);
                    let my_token = token.fetch_add(1, Ordering::SeqCst);
                    {
                        let mut held = active.lock().unwrap();
                        for &(olo, ohi, oexcl, _) in held.iter() {
                            assert!(
                                !((exclusive || oexcl) && lo <= ohi && olo <= hi),
                                "granted [{lo},{hi}] excl={exclusive} while \
                                 [{olo},{ohi}] excl={oexcl} held"
                            );
                        }
                        held.push((lo, hi, exclusive, my_token));
                    }
                    std::thread::yield_now();
                    active.lock().unwrap().retain(|&(_, _, _, t)| t != my_token);
                    drop(guard);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        prop_assert_eq!(tree.held_count(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One exclusive holder spans the whole range; waiters with random
    /// ranges and modes queue in a serialized arrival order. After the
    /// holder releases, every *mutually conflicting* pair of waiters
    /// must be granted in arrival order (the no-barge rule).
    #[test]
    fn conflicting_waiters_wake_fifo(
        reqs in proptest::collection::vec(req_strategy(), 2..6),
    ) {
        let tree = Arc::new(LatchTree::new());
        let holder = tree.acquire(e(0), e(15), LatchMode::Exclusive);
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let arrived = Arc::new(AtomicU64::new(0));
        let all_queued = Arc::new(Barrier::new(reqs.len() + 1));
        let mut threads = Vec::new();
        for (i, &(lo, len, exclusive)) in reqs.iter().enumerate() {
            let tree = Arc::clone(&tree);
            let order = Arc::clone(&order);
            let arrived = Arc::clone(&arrived);
            let all_queued = Arc::clone(&all_queued);
            threads.push(std::thread::spawn(move || {
                while arrived.load(Ordering::SeqCst) != i as u64 {
                    std::thread::yield_now();
                }
                let mode = if exclusive { LatchMode::Exclusive } else { LatchMode::Shared };
                let handle = std::thread::spawn(move || {
                    let guard = tree.acquire(e(lo), e(lo + len), mode);
                    // Record while still holding: a conflicting later
                    // grant cannot run until this guard drops.
                    order.lock().unwrap().push(i);
                    drop(guard);
                });
                // Give the request time to queue before the next arrival.
                std::thread::sleep(std::time::Duration::from_millis(10));
                arrived.fetch_add(1, Ordering::SeqCst);
                all_queued.wait();
                handle.join().unwrap();
            }));
        }
        all_queued.wait();
        drop(holder);
        for t in threads {
            t.join().unwrap();
        }
        let order = order.lock().unwrap();
        prop_assert_eq!(order.len(), reqs.len());
        for (pa, &a) in order.iter().enumerate() {
            for &b in order.iter().skip(pa + 1) {
                let (alo, alen, aexcl) = reqs[a];
                let (blo, blen, bexcl) = reqs[b];
                let overlap = alo <= blo + blen && blo <= alo + alen;
                if overlap && (aexcl || bexcl) {
                    prop_assert!(
                        a < b,
                        "waiter {} (arrived later) granted before conflicting waiter {}",
                        a, b
                    );
                }
            }
        }
    }
}

/// The reference model: the full, never-folded install history plus the
/// highest GC frontier applied so far. Reads at tickets at or above the
/// frontier must agree with the real store exactly.
#[derive(Default)]
struct Model {
    history: HashMap<u32, Vec<(u64, Value)>>,
    initial: HashMap<u32, Value>,
    frontier: u64,
}

impl Model {
    fn read_at(&self, entity: u32, ticket: u64) -> Value {
        self.history
            .get(&entity)
            .and_then(|h| h.iter().rev().find(|(t, _)| *t <= ticket))
            .map(|(_, v)| *v)
            .unwrap_or_else(|| self.initial.get(&entity).copied().unwrap_or(0))
    }

    fn latest(&self, entity: u32) -> Value {
        self.history
            .get(&entity)
            .and_then(|h| h.last())
            .map(|(_, v)| *v)
            .unwrap_or_else(|| self.initial.get(&entity).copied().unwrap_or(0))
    }
}

/// One scripted op: `(kind, entity, value)` where kind selects
/// install / undo / GC.
fn op_strategy() -> impl Strategy<Value = (u8, u32, i64)> {
    (0u8..10, 0u32..6, -100i64..100)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential run of a random install/undo/GC script against the
    /// reference model:
    ///
    /// * **read-your-writes** — right after an install, reading at its
    ///   ticket returns the written value and `latest` moves to it;
    /// * **snapshot stability** — a snapshot taken at the current head
    ///   ticket re-reads identically after any number of later installs
    ///   and folds at or below it;
    /// * **no resurrection** — every read at or above the GC frontier
    ///   agrees with the full-history model, so no folded or undone
    ///   version's value ever reappears.
    #[test]
    fn mvcc_agrees_with_full_history_model(
        shards in 1usize..5,
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let initial: Vec<(EntityId, Value)> = vec![(e(0), 100), (e(1), 7)];
        let store = MvccStore::new(shards, initial.iter().copied());
        let mut model = Model::default();
        for (ent, v) in &initial {
            model.initial.insert(ent.0, *v);
        }
        let mut next_ticket = 1u64;
        // A snapshot pinned mid-run: (ticket, per-entity values).
        let mut snapshot: Option<(u64, Vec<Value>)> = None;
        for (kind, entity, value) in ops {
            match kind {
                // Install a new version at a fresh global ticket.
                0..=5 => {
                    let ticket = next_ticket;
                    next_ticket += 1;
                    store.install(e(entity), ticket, TxnId(0), value);
                    model.history.entry(entity).or_default().push((ticket, value));
                    prop_assert_eq!(store.read_at(e(entity), ticket), value);
                    prop_assert_eq!(store.latest(e(entity)), (ticket, value));
                    if snapshot.is_none() && ticket.is_multiple_of(3) {
                        let t = next_ticket - 1;
                        snapshot = Some((t, (0..6).map(|i| store.read_at(e(i), t)).collect()));
                    }
                }
                // Undo the entity's head version, if it is still above
                // the frontier (the service never undoes below it).
                6 | 7 => {
                    let head = model.history.get(&entity).and_then(|h| h.last()).copied();
                    if let Some((ticket, value)) = head {
                        if ticket >= model.frontier
                            && snapshot.as_ref().is_none_or(|(pin, _)| ticket > *pin)
                        {
                            let removed = store.remove(e(entity), ticket);
                            prop_assert_eq!(removed.value, value);
                            model.history.get_mut(&entity).unwrap().pop();
                        }
                    }
                }
                // Fold everything below a frontier no pin can precede:
                // the snapshot's pin (if any) caps it.
                _ => {
                    let cap = snapshot.as_ref().map_or(next_ticket, |(pin, _)| *pin);
                    let f = (next_ticket.min(cap)).max(model.frontier);
                    store.gc_before(f);
                    model.frontier = f;
                }
            }
            // Snapshot stability: the pinned read-set never changes.
            if let Some((pin, values)) = &snapshot {
                for (i, expect) in values.iter().enumerate() {
                    prop_assert_eq!(
                        store.read_at(e(i as u32), *pin), *expect,
                        "snapshot at ticket {} drifted on entity {}", pin, i
                    );
                }
            }
            // Full agreement with the model at and above the frontier.
            for ent in 0..6u32 {
                prop_assert_eq!(store.latest(e(ent)).1, model.latest(ent));
                for t in [model.frontier, model.frontier + 1, next_ticket] {
                    prop_assert_eq!(
                        store.read_at(e(ent), t), model.read_at(ent, t),
                        "read_at({}, {}) diverged from the model", ent, t
                    );
                }
            }
        }
        // No resurrection, structurally: every surviving version sits at
        // or above the frontier... unless it was the newest below it
        // (the fold keeps exactly one value *as base*, not a version).
        let live = store.version_count();
        let model_live: usize = model
            .history
            .values()
            .map(|h| h.iter().filter(|(t, _)| *t >= model.frontier).count())
            .sum();
        prop_assert_eq!(live, model_live);
    }
}
