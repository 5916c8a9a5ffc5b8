//! The admission core: the state both §6 schedulers keep around their
//! closure engine.
//!
//! [`MlaDetect`](crate::MlaDetect) and [`MlaPrevent`](crate::MlaPrevent)
//! decide against the host state [`World`]: the nest, each
//! transaction's progress (performed prefix length, breakpoint state,
//! committed status), the candidate step ([`World::candidate`]) and —
//! only on the certificate-voiding replay path — the live history
//! ([`World::history_steps`]). Both hosts keep that one `World`: the
//! tick-driven simulator and `mla-serve`'s admission gate, which drives
//! the same schedulers through [`Control`](mla_sim::Control) against
//! live MVCC storage.
//!
//! The two strategies also share everything around the verdict, and
//! [`AdmissionCore`] holds it once: the closure engine's lifecycle, the
//! certificate guard, the evicted set and the choice of a rollback
//! victim. What remains in each scheduler is its own rule for a
//! candidate the engine has judged.

use std::collections::HashSet;

use mla_core::cert::StaticCert;
use mla_core::spec::BreakpointSpecification;
use mla_core::{ClosureEngine, EngineCounters};
use mla_model::{Step, TxnId};
use mla_sim::{Decision, World};
use mla_txn::RuntimeSpec;

use crate::cert_guard::{CertAdmit, CertGuard};
use crate::victim::VictimPolicy;

/// The state both §6 schedulers keep around their closure engine.
///
/// Schedulers build it and feed it through their
/// [`Control`](mla_sim::Control) hooks; hosts read its counters through
/// `core()` on [`MlaDetect`](crate::MlaDetect) and
/// [`MlaPrevent`](crate::MlaPrevent).
pub struct AdmissionCore {
    spec: RuntimeSpec,
    /// The incremental closure over the live window, created on the
    /// first decision that reaches it (the nest lives in the world).
    engine: Option<ClosureEngine<RuntimeSpec>>,
    /// A §5 per-universe certificate lattice from `mla-lint` plus its
    /// armed state: while a universe is armed, its in-footprint steps
    /// are granted without any closure maintenance.
    guard: Option<CertGuard>,
    /// Committed transactions [`ClosureEngine::evict_unreachable`]
    /// projected out of the engine: their steps can join no new closure
    /// cycle, which is the certificate re-arm sweep's drain condition.
    /// A rollback (commit rollbacks included) takes its transaction out
    /// again, so the sweep never counts a resurrected one as drained.
    evicted: HashSet<TxnId>,
    /// Transactions rolled back since the engine last judged a step: a
    /// cascade's victims, removed from the engine together by one
    /// rederive before its next use.
    aborting: Vec<TxnId>,
    policy: VictimPolicy,
}

impl AdmissionCore {
    /// A core for instances whose breakpoints `spec` describes.
    pub(crate) fn new(spec: RuntimeSpec, policy: VictimPolicy) -> Self {
        AdmissionCore {
            spec,
            engine: None,
            guard: None,
            evicted: HashSet::new(),
            aborting: Vec::new(),
            policy,
        }
    }

    /// Arms the certified fast path; `rearm` as in [`CertGuard::new`].
    pub(crate) fn arm(&mut self, cert: StaticCert, rearm: bool) {
        assert!(
            self.engine.is_none(),
            "set the certificate before the first decision"
        );
        assert_eq!(
            cert.k(),
            BreakpointSpecification::k(&self.spec),
            "certificate depth must match the spec"
        );
        self.guard = Some(CertGuard::new(cert, rearm));
    }

    /// Puts `candidate` to the certificate first. `None` is a grant on
    /// the certified fast path. Otherwise returns the engine to judge
    /// it, created on first use. When the candidate is an off-footprint
    /// stray that just disarmed a universe whose steps the engine never
    /// saw, a new engine is caught up on a replay of every step granted
    /// so far — acyclic, since each one either passed the engine or was
    /// certified — and told which of their transactions have committed.
    pub(crate) fn engine_for(
        &mut self,
        candidate: &Step,
        world: &World,
    ) -> Option<&mut ClosureEngine<RuntimeSpec>> {
        if let Some(engine) = self.engine.as_mut() {
            engine.remove_txns(&self.aborting);
        }
        self.aborting.clear();
        let mut voided = false;
        if let Some(guard) = self.guard.as_mut() {
            // Re-arm any voided universe whose blamed strays have all
            // drained: committed and evicted, or rolled back (handled
            // eagerly in `aborted`).
            let evicted = &self.evicted;
            guard.sweep(|t| evicted.contains(&t));
            match guard.admit(candidate.txn, candidate.entity) {
                CertAdmit::Skip(_) => return None,
                CertAdmit::Engine => {}
                CertAdmit::Voided => voided = true,
            }
        }
        if voided || self.engine.is_none() {
            let mut engine = ClosureEngine::new(world.nest.clone(), self.spec.clone());
            if voided {
                for s in world.history_steps() {
                    engine
                        .apply_step(s)
                        .expect("certified history must replay acyclically");
                    engine.commit_step();
                }
                for t in world.txns_with_status(mla_sim::TxnStatus::Committed) {
                    engine.finish_txn(t);
                }
            }
            self.engine = Some(engine);
        }
        self.engine.as_mut()
    }

    /// Commits the candidate the engine accepted, then evicts every
    /// committed transaction no uncommitted one reaches any more. The
    /// engine skips the pass unless a commit or an abort was reported
    /// since the last one.
    pub(crate) fn grant(&mut self) {
        let engine = self.engine.as_mut().expect("granted through the engine");
        engine.commit_step();
        self.evicted.extend(engine.evict_unreachable());
    }

    /// Records that `txn` committed: it stops being an eviction source,
    /// so the next grant runs the eviction pass.
    pub(crate) fn committed(&mut self, txn: TxnId) {
        if let Some(engine) = self.engine.as_mut() {
            engine.finish_txn(txn);
        }
    }

    /// Rolls back the policy's choice among the uncommitted transactions
    /// on a cycle, or the requester `txn` when every other participant
    /// is committed (commit rollbacks are left to the cascade).
    pub(crate) fn victim(
        &self,
        txn: TxnId,
        cycle: impl IntoIterator<Item = TxnId>,
        world: &World,
    ) -> Decision {
        let mut candidates: Vec<TxnId> = cycle
            .into_iter()
            .filter(|&t| !world.is_committed(t))
            .collect();
        if candidates.is_empty() {
            candidates.push(txn);
        }
        Decision::Abort(vec![self.policy.choose(txn, &candidates, world)])
    }

    /// Backfills the real observed/written values of a performed step so
    /// future breakpoint descriptions see what actually happened (the
    /// candidate carried zeros — the closure itself is value-blind).
    pub fn performed(&mut self, step: &Step) {
        if let Some(engine) = self.engine.as_mut() {
            engine.performed(step);
        }
    }

    /// Records a rollback of `txn`'s steps: it is live again, any
    /// certificate blame it held drains, and before the engine judges
    /// the next step it deletes the rows of the whole cascade and
    /// rederives the rows that held them, once.
    pub(crate) fn aborted(&mut self, txn: TxnId) {
        self.evicted.remove(&txn);
        self.aborting.push(txn);
        if let Some(guard) = self.guard.as_mut() {
            guard.on_aborted(txn);
        }
    }

    /// The engine's decision-cost counters so far (zeros before the
    /// first decision that reached it).
    pub fn cost(&self) -> EngineCounters {
        self.engine
            .as_ref()
            .map(|e| *e.counters())
            .unwrap_or_default()
    }

    /// How many committed transactions are currently evicted.
    pub fn evicted_count(&self) -> usize {
        self.evicted.len()
    }

    /// Decisions granted on the certificate fast path, across every
    /// universe (A7/A8 accounting).
    pub fn certified_skips(&self) -> u64 {
        self.guard.as_ref().map_or(0, CertGuard::total_skips)
    }

    /// Fast-path grants split per universe (empty without a
    /// certificate).
    pub fn certified_skips_per_universe(&self) -> Vec<u64> {
        self.guard
            .as_ref()
            .map(|g| g.skips.clone())
            .unwrap_or_default()
    }

    /// Universe-disarm events caused by off-footprint strays.
    pub fn cert_voids(&self) -> u64 {
        self.guard.as_ref().map_or(0, |g| g.voids)
    }

    /// Universes re-armed after every blamed foreign transaction
    /// drained (always zero for [`MlaDetect`](crate::MlaDetect), whose
    /// voids are permanent).
    pub fn cert_re_arms(&self) -> u64 {
        self.guard.as_ref().map_or(0, |g| g.re_arms)
    }
}

/// The [`Control`](mla_sim::Control) methods both §6 schedulers answer
/// from their `core` alone.
macro_rules! control_via_core {
    () => {
        fn performed(&mut self, record: &mla_storage::StepRecord, _world: &World) {
            self.core.performed(&record.as_step());
        }

        fn decision_cost(&self) -> Option<mla_core::EngineCounters> {
            Some(self.core.cost())
        }

        fn certified_skips(&self) -> u64 {
            self.core.certified_skips()
        }

        fn certified_skips_per_universe(&self) -> Vec<u64> {
            self.core.certified_skips_per_universe()
        }

        fn cert_re_arms(&self) -> u64 {
            self.core.cert_re_arms()
        }
    };
}
pub(crate) use control_via_core;

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::nest::Nest;
    use mla_model::program::{ScriptOp, ScriptProgram};
    use mla_model::EntityId;
    use mla_sim::TxnStatus;
    use mla_storage::Store;
    use mla_txn::{NoBreakpoints, TxnInstance};
    use std::sync::Arc;

    /// t0 performs both its steps (entities 0, 1) and commits; t1
    /// performs one step on the disjoint entity 5 and stays live.
    fn committed_and_live() -> World {
        let mk = |i: u32, a: u32, b: u32| {
            TxnInstance::new(
                TxnId(i),
                Arc::new(ScriptProgram::new(vec![
                    ScriptOp::Add(EntityId(a), 1),
                    ScriptOp::Add(EntityId(b), 1),
                ])),
                Arc::new(NoBreakpoints { k: 2 }),
            )
        };
        let mut w = World {
            store: Store::new([]),
            instances: vec![mk(0, 0, 1), mk(1, 5, 6)],
            status: vec![TxnStatus::Running; 2],
            nest: Nest::flat(2),
        };
        for t in [0, 0, 1] {
            let s = w.instances[t].perform(0);
            w.store
                .perform(TxnId(t as u32), s.seq, s.entity, |_| s.wrote);
        }
        w.status[0] = TxnStatus::Committed;
        w
    }

    /// A core whose engine took t0's steps directly, heard of t0's
    /// commit, and then granted t1's through [`AdmissionCore::grant`],
    /// which runs the eviction pass.
    fn core_after_grants(w: &World) -> AdmissionCore {
        let mut core = AdmissionCore::new(RuntimeSpec::new(2), VictimPolicy::FewestSteps);
        let journal: Vec<Step> = w.store.journal().iter().map(|r| r.as_step()).collect();
        let (last, earlier) = journal.split_last().unwrap();
        let engine = core.engine_for(last, w).expect("no certificate");
        for &s in earlier {
            engine.apply_step(s).expect("journal is acyclic");
            engine.commit_step();
        }
        engine.apply_step(*last).expect("journal is acyclic");
        core.committed(TxnId(0));
        core.grant();
        core
    }

    #[test]
    fn engine_maintenance_matches_batch_rule_and_projects() {
        let w = committed_and_live();
        let mut core = core_after_grants(&w);
        // Committed t0 is unreachable from live t1, so the pass evicts it
        // and its rows leave the engine.
        assert!(core.evicted.contains(&TxnId(0)));
        assert_eq!(core.evicted_count(), 1);
        assert_eq!(core.engine.as_ref().unwrap().live_count(), 1);
        // Idempotent: the next grant's pass evicts no dead column twice.
        let next = w.candidate(TxnId(1));
        let engine = core.engine_for(&next, &w).unwrap();
        engine.apply_step(next).expect("disjoint entity");
        core.grant();
        assert_eq!(core.evicted_count(), 1);
        assert_eq!(core.engine.as_ref().unwrap().live_count(), 2);
    }

    #[test]
    fn abort_unevicts() {
        let w = committed_and_live();
        let mut core = core_after_grants(&w);
        assert!(core.evicted.contains(&TxnId(0)));
        // A commit rollback resurrects t0: the re-arm sweep must not
        // find it drained.
        core.aborted(TxnId(0));
        assert!(!core.evicted.contains(&TxnId(0)));
        assert_eq!(core.evicted_count(), 0);
    }
}
