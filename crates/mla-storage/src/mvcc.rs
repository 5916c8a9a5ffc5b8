//! Timestamped multi-version storage — the live-service substrate.
//!
//! Where [`Store`](crate::Store) journals a single current value per
//! entity (enough for the tick-driven simulator, which owns the world
//! exclusively), a real service has OS threads racing through the store:
//! writers install under the admission gate while snapshot readers scan
//! concurrently. [`MvccStore`] therefore keeps a *version chain* per
//! entity — `(ticket, txn, value)` triples ascending by the global
//! admission ticket — sharded under reader/writer locks. The service's
//! gate keeps the journal too, and the chains mirror its value-changing
//! records:
//!
//! * writers [`install`](MvccStore::install) a new version at their
//!   step's admission ticket (per-entity monotone, guaranteed by the
//!   exclusive entity latch held across admission); a pure read
//!   installs nothing;
//! * readers [`read_at`](MvccStore::read_at) any ticket and see the
//!   newest version at or below it — a stable snapshot no concurrent
//!   writer can disturb;
//! * rollback [`remove`](MvccStore::remove)s, newest first, the
//!   versions of the records [`Store::roll_back`](crate::Store::roll_back)
//!   undid, exposing each predecessor;
//! * [`gc_before`](MvccStore::gc_before) folds every version below a
//!   frontier into the chain base. The service's frontier is the older
//!   of the oldest reader pin and the journal's
//!   [`undo_floor`](crate::Store::undo_floor): once no rollback of a
//!   running transaction can reach a version, none ever will again.

use std::collections::HashMap;
use std::sync::RwLock;

use mla_model::{EntityId, TxnId, Value};

/// One committed-or-pending version of an entity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Version {
    /// Global admission ticket of the installing step.
    pub ticket: u64,
    /// The installing transaction.
    pub txn: TxnId,
    /// The value the step wrote.
    pub value: Value,
}

/// A per-entity version chain: a garbage-collected base plus explicit
/// versions ascending by ticket.
#[derive(Clone, Debug)]
struct Chain {
    /// Ticket at (or below) which the chain was last folded; reads below
    /// this resolve to `base`.
    base_ticket: u64,
    /// Value of the newest folded-away version (initial value when no GC
    /// has run).
    base: Value,
    /// Live versions, strictly ascending by ticket, all `> base_ticket`.
    versions: Vec<Version>,
}

impl Chain {
    fn new(initial: Value) -> Self {
        Chain {
            base_ticket: 0,
            base: initial,
            versions: Vec::new(),
        }
    }

    fn read_at(&self, ticket: u64) -> Value {
        match self.versions.iter().rev().find(|v| v.ticket <= ticket) {
            Some(v) => v.value,
            None => self.base,
        }
    }

    fn latest(&self) -> (u64, Value) {
        match self.versions.last() {
            Some(v) => (v.ticket, v.value),
            None => (self.base_ticket, self.base),
        }
    }
}

/// Sharded multi-version store. All methods take `&self`; shard locks
/// serialize only same-shard access, and the per-entity monotonicity
/// writers rely on is provided by the caller's entity latch, not by this
/// structure.
pub struct MvccStore {
    shards: Vec<RwLock<HashMap<EntityId, Chain>>>,
}

impl MvccStore {
    /// A store with `shards` internal lock shards (≥ 1) holding the given
    /// initial values; absent entities read 0, like
    /// [`Store`](crate::Store).
    pub fn new(shards: usize, initial: impl IntoIterator<Item = (EntityId, Value)>) -> Self {
        let shards = shards.max(1);
        let store = MvccStore {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        };
        for (e, v) in initial {
            if v != 0 {
                store.shards[store.shard_of(e)]
                    .write()
                    .expect("mvcc shard lock poisoned")
                    .insert(e, Chain::new(v));
            }
        }
        store
    }

    fn shard_of(&self, e: EntityId) -> usize {
        e.index() % self.shards.len()
    }

    /// The newest version of `e`: `(ticket, value)`. `(0, 0)` for a
    /// never-written entity.
    pub fn latest(&self, e: EntityId) -> (u64, Value) {
        let shard = self.shards[self.shard_of(e)]
            .read()
            .expect("mvcc shard lock poisoned");
        shard.get(&e).map_or((0, 0), |c| c.latest())
    }

    /// Snapshot read: the value of `e` as of `ticket` (the newest version
    /// at or below it). Stable for any `ticket` at or above the GC
    /// frontier the caller holds a pin for.
    pub fn read_at(&self, e: EntityId, ticket: u64) -> Value {
        let shard = self.shards[self.shard_of(e)]
            .read()
            .expect("mvcc shard lock poisoned");
        shard.get(&e).map_or(0, |c| c.read_at(ticket))
    }

    /// Installs a new version of `e` at `ticket`.
    ///
    /// # Panics
    /// Panics if `ticket` is not strictly newer than the chain head — the
    /// caller must hold the exclusive entity latch across ticket
    /// assignment and install, which makes per-entity tickets monotone.
    pub fn install(&self, e: EntityId, ticket: u64, txn: TxnId, value: Value) {
        let mut shard = self.shards[self.shard_of(e)]
            .write()
            .expect("mvcc shard lock poisoned");
        let chain = shard.entry(e).or_insert_with(|| Chain::new(0));
        let (head, _) = chain.latest();
        assert!(
            ticket > head,
            "install ticket {ticket} not past chain head {head} for {e:?}"
        );
        chain.versions.push(Version { ticket, txn, value });
    }

    /// Rolls back the version of `e` installed at `ticket`, exposing its
    /// predecessor. Returns the removed version.
    ///
    /// # Panics
    /// Panics if that version is not the chain head: cascading undo must
    /// remove later versions of the entity first (the journal-store
    /// [`UndoError::NotLatest`](crate::UndoError::NotLatest) invariant,
    /// version-chain edition).
    pub fn remove(&self, e: EntityId, ticket: u64) -> Version {
        let mut shard = self.shards[self.shard_of(e)]
            .write()
            .expect("mvcc shard lock poisoned");
        let chain = shard
            .get_mut(&e)
            .expect("removing a version of an unwritten entity");
        let head = chain.versions.last().copied();
        match head {
            Some(v) if v.ticket == ticket => chain.versions.pop().expect("head checked"),
            other => panic!(
                "remove at ticket {ticket} on {e:?} but chain head is {other:?}: \
                 undo later versions first"
            ),
        }
    }

    /// Version GC: folds every version strictly below `frontier` into the
    /// chain base (keeping the newest such version's value as the base —
    /// it is still the read target for snapshots in `[base_ticket,
    /// next-version)`). Returns how many versions were reclaimed.
    ///
    /// Sound when the caller's frontier is at or below (a) every live
    /// reader pin and (b) the ticket of every version a rollback can
    /// still pop — for a chain mirroring a journal, one past its
    /// [`undo_floor`](crate::Store::undo_floor) from the running
    /// transactions: below that, no read and no undo can ever target a
    /// folded version again.
    pub fn gc_before(&self, frontier: u64) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let mut shard = shard.write().expect("mvcc shard lock poisoned");
            for chain in shard.values_mut() {
                let cut = chain.versions.partition_point(|v| v.ticket < frontier);
                if cut == 0 {
                    continue;
                }
                let folded = chain.versions[cut - 1];
                chain.base_ticket = folded.ticket;
                chain.base = folded.value;
                chain.versions.drain(..cut);
                reclaimed += cut;
            }
        }
        reclaimed
    }

    /// Total live (unfolded) versions across all entities.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("mvcc shard lock poisoned")
                    .values()
                    .map(|c| c.versions.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    #[test]
    fn read_your_writes_and_snapshots() {
        let s = MvccStore::new(4, [(e(1), 100)]);
        assert_eq!(s.latest(e(1)), (0, 100));
        assert_eq!(s.latest(e(2)), (0, 0));
        s.install(e(1), 5, TxnId(0), 90);
        s.install(e(1), 9, TxnId(1), 80);
        assert_eq!(s.latest(e(1)), (9, 80));
        assert_eq!(s.read_at(e(1), 4), 100);
        assert_eq!(s.read_at(e(1), 5), 90);
        assert_eq!(s.read_at(e(1), 8), 90);
        assert_eq!(s.read_at(e(1), 100), 80);
    }

    #[test]
    fn remove_exposes_predecessor() {
        let s = MvccStore::new(1, []);
        s.install(e(7), 3, TxnId(0), 10);
        s.install(e(7), 6, TxnId(1), 20);
        let v = s.remove(e(7), 6);
        assert_eq!(v.value, 20);
        assert_eq!(s.latest(e(7)), (3, 10));
        s.remove(e(7), 3);
        assert_eq!(s.latest(e(7)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "undo later versions first")]
    fn remove_of_non_head_panics() {
        let s = MvccStore::new(1, []);
        s.install(e(7), 3, TxnId(0), 10);
        s.install(e(7), 6, TxnId(1), 20);
        s.remove(e(7), 3);
    }

    #[test]
    #[should_panic(expected = "not past chain head")]
    fn stale_install_panics() {
        let s = MvccStore::new(1, []);
        s.install(e(7), 3, TxnId(0), 10);
        s.install(e(7), 3, TxnId(1), 20);
    }

    #[test]
    fn gc_folds_but_preserves_reads_at_or_past_frontier() {
        let s = MvccStore::new(2, [(e(1), 100)]);
        for (t, v) in [(2u64, 90), (4, 80), (6, 70)] {
            s.install(e(1), t, TxnId(0), v);
        }
        assert_eq!(s.version_count(), 3);
        let reclaimed = s.gc_before(5);
        assert_eq!(reclaimed, 2);
        assert_eq!(s.version_count(), 1);
        // Reads at or past the frontier are untouched.
        assert_eq!(s.read_at(e(1), 5), 80);
        assert_eq!(s.read_at(e(1), 6), 70);
        assert_eq!(s.latest(e(1)), (6, 70));
        // Undo of the live head still works after folding underneath it.
        s.remove(e(1), 6);
        assert_eq!(s.latest(e(1)).1, 80);
    }
}
