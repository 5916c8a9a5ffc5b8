//! The shared simulation state visible to concurrency controls.

use mla_core::nest::Nest;
use mla_model::TxnId;
use mla_storage::Store;
use mla_txn::TxnInstance;

use crate::metrics::Metrics;

/// Lifecycle state of a transaction in the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Injected and migrating/performing.
    Running,
    /// All steps performed; tentatively committed. May still be undone by
    /// a cascading rollback (the §6 commit hazard) until the run ends.
    Committed,
    /// Rolled back, waiting for its restart event.
    Restarting,
}

/// Everything a [`crate::Control`] may inspect when making decisions:
/// the store (values + live journal), the transaction instances (program
/// position, breakpoint state), the nest, the clock, and the metrics so
/// far.
pub struct World {
    /// The entity store and journal.
    pub store: Store,
    /// One instance per transaction, indexed by `TxnId`.
    pub instances: Vec<TxnInstance>,
    /// Per-transaction lifecycle status.
    pub status: Vec<TxnStatus>,
    /// The k-nest relating the transactions.
    pub nest: Nest,
    /// Current simulated time.
    pub clock: u64,
    /// Metrics accumulated so far.
    pub metrics: Metrics,
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

    /// Transactions currently in the given status.
    pub fn txns_with_status(&self, s: TxnStatus) -> impl Iterator<Item = TxnId> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(move |(_, &st)| st == s)
            .map(|(i, _)| TxnId(i as u32))
    }

    /// Number of transactions in the simulation.
    pub fn txn_count(&self) -> usize {
        self.instances.len()
    }
}
