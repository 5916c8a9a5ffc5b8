//! Runtime state machine for per-universe static certificates.
//!
//! A [`StaticCert`] is an immutable per-universe lattice of §5 proofs;
//! the [`CertGuard`] wraps one with the mutable **armed** state the
//! schedulers need at admission time:
//!
//! * An in-footprint step of a transaction whose universe is *armed* is
//!   granted on the fast path — the proof covers it, and (because no
//!   realizable closure cycle can pass through a certified transaction,
//!   and per-entity order is directly transitive) the closure engine may
//!   omit the step entirely without changing any later verdict.
//! * An **off-footprint** step is evidence the run strayed from the
//!   certified workload. The stray's own universe is disarmed (its
//!   profile is broken), and so is every certified universe whose
//!   recorded entity union contains the strayed entity — their proofs
//!   assumed the stray's modeled footprint. Universes whose entities the
//!   stray never touches keep the fast path: their proofs only depend on
//!   conflicts the stray cannot create.
//! * With re-arming enabled ([`CertGuard::new`] `rearm = true`), each
//!   disarmed universe remembers which foreign transactions are to
//!   blame. Once every blamed transaction's journal entries drain — it
//!   aborted, or committed and was evicted from the closure engine so its
//!   steps can join no new closure cycle — the universe **re-arms** and
//!   skips again.
//!
//! The contract matches [`mla_core::cert`]: per-universe voiding (and
//! re-arming) is sound when every transaction *other than the strays*
//! conforms to its certified profile; a stray's whole access set is
//! treated as unknown, so every universe it touches is disarmed at
//! first contact, before the stray's step is granted.

use std::collections::BTreeSet;

use mla_core::cert::StaticCert;
use mla_model::{EntityId, TxnId};

/// What the certificate has to say about a candidate step.
#[derive(Debug, PartialEq, Eq)]
pub enum CertAdmit {
    /// In-footprint step of an armed universe: grant on the fast path.
    /// Carries the universe id (for per-universe accounting).
    Skip(u32),
    /// The certificate is silent (uncertified or disarmed universe):
    /// consult the closure engine.
    Engine,
    /// An off-footprint stray just disarmed at least one universe. The
    /// caller must catch the engine up on every step granted so far
    /// before deciding this one through it.
    Voided,
}

/// A [`StaticCert`] plus the armed/blamed state and skip accounting.
#[derive(Clone, Debug)]
pub struct CertGuard {
    cert: StaticCert,
    /// Which universes currently ride the fast path. Starts as the
    /// lattice's certified set; off-footprint strays disarm entries.
    armed: Vec<bool>,
    /// Per-universe blame: the foreign transactions whose strays
    /// disarmed it (tracked only when re-arming is enabled).
    blame: Vec<BTreeSet<TxnId>>,
    /// Whether draining a universe's blame set re-arms it.
    rearm: bool,
    /// Certified universes currently disarmed. Kept so [`Self::sweep`]
    /// — which the prevention scheduler calls on every decision — is a
    /// single integer compare on the common all-armed path instead of a
    /// scan over the lattice.
    disarmed: usize,
    /// Fast-path grants per universe.
    pub skips: Vec<u64>,
    /// Universe-disarm events (one stray may disarm several universes).
    pub voids: u64,
    /// Universes re-armed after their blame drained.
    pub re_arms: u64,
}

impl CertGuard {
    /// Wraps `cert`; `rearm` controls whether disarmed universes come
    /// back once their blamed transactions drain.
    pub fn new(cert: StaticCert, rearm: bool) -> Self {
        let n = cert.universe_count();
        let armed = (0..n as u32).map(|u| cert.is_certified(u)).collect();
        CertGuard {
            cert,
            armed,
            blame: vec![BTreeSet::new(); n],
            rearm,
            disarmed: 0,
            skips: vec![0; n],
            voids: 0,
            re_arms: 0,
        }
    }

    /// The wrapped certificate.
    pub fn cert(&self) -> &StaticCert {
        &self.cert
    }

    /// Whether universe `u` currently rides the fast path.
    pub fn is_armed(&self, u: u32) -> bool {
        self.armed.get(u as usize).copied().unwrap_or(false)
    }

    /// Total fast-path grants across universes.
    pub fn total_skips(&self) -> u64 {
        self.skips.iter().sum()
    }

    /// Admits, defers to the engine, or voids for a candidate step of
    /// `txn` on `entity`. Mutates the armed state and counters.
    pub fn admit(&mut self, txn: TxnId, entity: EntityId) -> CertAdmit {
        let universe = self.cert.universe_of(txn);
        if self.cert.footprint_contains(txn, entity) {
            if let Some(u) = universe {
                if self.armed[u as usize] {
                    self.skips[u as usize] += 1;
                    return CertAdmit::Skip(u);
                }
            }
            return CertAdmit::Engine;
        }
        // Off-footprint: `txn` is foreign to the proofs (out-of-range,
        // or straying outside its modeled footprint). Disarm its own
        // universe and every certified universe whose entity union
        // contains the strayed entity; blame accrues even to
        // already-disarmed universes, so a universe only re-arms once
        // *every* transaction that touched it drains.
        let mut voided = false;
        for u in 0..self.armed.len() {
            if !self.cert.is_certified(u as u32) {
                continue;
            }
            let touched = universe == Some(u as u32)
                || self
                    .cert
                    .universe_entities(u as u32)
                    .binary_search(&entity)
                    .is_ok();
            if !touched {
                continue;
            }
            if self.armed[u] {
                self.armed[u] = false;
                self.disarmed += 1;
                self.voids += 1;
                voided = true;
            }
            if self.rearm {
                self.blame[u].insert(txn);
            }
        }
        if voided {
            CertAdmit::Voided
        } else {
            CertAdmit::Engine
        }
    }

    /// Re-arms every disarmed universe whose blamed transactions have
    /// all drained, per the caller's `drained` predicate (typically:
    /// committed and evicted from the closure engine). No-op unless
    /// re-arming is enabled.
    pub fn sweep(&mut self, mut drained: impl FnMut(TxnId) -> bool) {
        if !self.rearm || self.disarmed == 0 {
            return;
        }
        for u in 0..self.armed.len() {
            if self.armed[u] || !self.cert.is_certified(u as u32) {
                continue;
            }
            let keep: BTreeSet<TxnId> = self.blame[u]
                .iter()
                .copied()
                .filter(|&t| !drained(t))
                .collect();
            self.blame[u] = keep;
            if self.blame[u].is_empty() {
                self.armed[u] = true;
                self.disarmed -= 1;
                self.re_arms += 1;
            }
        }
    }

    /// Records that `txn` rolled back: its journal entries are gone, so
    /// it no longer holds blame (if it strays again after restarting,
    /// it will be re-blamed at that stray).
    pub fn on_aborted(&mut self, txn: TxnId) {
        if !self.rearm {
            return;
        }
        for u in 0..self.armed.len() {
            if self.blame[u].remove(&txn)
                && self.blame[u].is_empty()
                && !self.armed[u]
                && self.cert.is_certified(u as u32)
            {
                self.armed[u] = true;
                self.disarmed -= 1;
                self.re_arms += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    /// Universe 0 (txns 0, 1) certified on {1, 2}; universe 1 (txn 2)
    /// certified on {7}; universe 2 (txn 3) condemned on {9}.
    fn guard(rearm: bool) -> CertGuard {
        let cert = StaticCert::per_universe(
            3,
            vec![vec![e(1)], vec![e(2)], vec![e(7)], vec![e(9)]],
            vec![0, 0, 1, 2],
            vec![true, true, false],
        );
        CertGuard::new(cert, rearm)
    }

    #[test]
    fn skips_count_per_universe_and_condemned_goes_to_engine() {
        let mut g = guard(false);
        assert_eq!(g.admit(TxnId(0), e(1)), CertAdmit::Skip(0));
        assert_eq!(g.admit(TxnId(2), e(7)), CertAdmit::Skip(1));
        assert_eq!(g.admit(TxnId(3), e(9)), CertAdmit::Engine);
        assert_eq!(g.skips, vec![1, 1, 0]);
        assert_eq!(g.total_skips(), 2);
    }

    #[test]
    fn stray_disarms_only_touched_universes() {
        let mut g = guard(false);
        // Foreign txn 9 strays on entity 2: universe 0's union contains
        // it, universe 1's does not.
        assert_eq!(g.admit(TxnId(9), e(2)), CertAdmit::Voided);
        assert!(!g.is_armed(0));
        assert!(g.is_armed(1));
        assert_eq!(g.voids, 1);
        // Universe 0 now goes to the engine even in-footprint...
        assert_eq!(g.admit(TxnId(0), e(1)), CertAdmit::Engine);
        // ...while universe 1 keeps skipping.
        assert_eq!(g.admit(TxnId(2), e(7)), CertAdmit::Skip(1));
        // Without re-arming the disarm is permanent.
        g.sweep(|_| true);
        assert!(!g.is_armed(0));
        assert_eq!(g.re_arms, 0);
    }

    #[test]
    fn own_universe_disarms_on_stray_even_off_every_union() {
        let mut g = guard(false);
        // Txn 1 (universe 0) strays onto entity 42, in nobody's union:
        // its own profile is broken, so universe 0 must still disarm.
        assert_eq!(g.admit(TxnId(1), e(42)), CertAdmit::Voided);
        assert!(!g.is_armed(0));
        assert!(g.is_armed(1));
    }

    #[test]
    fn rearm_waits_for_every_blamed_txn_to_drain() {
        let mut g = guard(true);
        assert_eq!(g.admit(TxnId(9), e(2)), CertAdmit::Voided);
        // A second stray touches universe 0 while it is already down:
        // blame accrues without a new void event.
        assert_eq!(g.admit(TxnId(8), e(1)), CertAdmit::Engine);
        assert_eq!(g.voids, 1);
        g.sweep(|t| t == TxnId(9));
        assert!(!g.is_armed(0), "txn 8 still live");
        g.sweep(|t| t == TxnId(8));
        assert!(g.is_armed(0), "all blame drained");
        assert_eq!(g.re_arms, 1);
        assert_eq!(g.admit(TxnId(0), e(1)), CertAdmit::Skip(0));
    }

    #[test]
    fn abort_drains_blame_immediately() {
        let mut g = guard(true);
        assert_eq!(g.admit(TxnId(9), e(7)), CertAdmit::Voided);
        assert!(!g.is_armed(1));
        g.on_aborted(TxnId(9));
        assert!(g.is_armed(1), "rolled-back stray holds no blame");
        assert_eq!(g.re_arms, 1);
    }

    #[test]
    fn condemned_universe_never_arms() {
        let mut g = guard(true);
        assert_eq!(g.admit(TxnId(9), e(9)), CertAdmit::Engine);
        g.sweep(|_| true);
        assert!(!g.is_armed(2));
        assert_eq!(g.re_arms, 0);
    }
}
