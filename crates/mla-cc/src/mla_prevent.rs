//! Multilevel-atomicity cycle *prevention* (§6, second strategy):
//! delay steps until suitable breakpoints are reached.
//!
//! > "Let `β` be a step of any transaction `t'`. ... `β` does not
//! > actually get performed until the following is insured: if `α` is
//! > the last step of some transaction `t` which precedes `β` in the
//! > coherent closure of `<=_e`, then a `level(t, t')` breakpoint
//! > immediately follows `α` in `t`'s execution subsequence of `e_β`."
//!
//! If every performed step satisfies this, the coherent closure is
//! consistent with the performance order and hence a partial order — the
//! execution stays correctable without any certification aborts. Waiting
//! can deadlock, so (per the paper's "priority-rollback mechanism for
//! preventing blocking") a waits-for graph is maintained and a victim is
//! rolled back whenever a wait would close a waits-for cycle.
//!
//! The closure is maintained incrementally by one [`ClosureEngine`]:
//! each candidate is applied as a tentative delta, the blocker probe
//! asks the engine for the candidate's closure predecessors, and a
//! deferred candidate is rolled back to be retried later; no batch
//! recomputation on any path.

use mla_core::cert::StaticCert;
use mla_core::spec::BreakpointSpecification;
use mla_core::{ClosureEngine, EngineCounters};
use mla_graph::IncrementalTopo;
use mla_model::{Step, TxnId};
use mla_sim::{Control, Decision, World};
use mla_storage::StepRecord;
use mla_txn::RuntimeSpec;

use crate::admission::AdmissionView;
use crate::cert_guard::{CertAdmit, CertGuard};
use crate::victim::VictimPolicy;
use crate::window::LiveWindow;

/// The pessimistic multilevel-atomicity control.
pub struct MlaPrevent {
    spec: RuntimeSpec,
    /// The incremental closure over the live window, created on the
    /// first decision (the nest lives in the [`World`]).
    engine: Option<ClosureEngine<RuntimeSpec>>,
    window: LiveWindow,
    /// The waits-for graph over transactions: one node per transaction,
    /// an edge `t -> b` while `t` is deferred behind `b`.
    waits: IncrementalTopo,
    policy: VictimPolicy,
    /// A §5 per-universe certificate lattice from `mla-lint` plus its
    /// armed/blamed state: while a universe is armed, its in-footprint
    /// steps are granted without closure maintenance or breakpoint
    /// waits. Voided universes re-arm once the foreign transactions
    /// that disarmed them drain from the live window.
    guard: Option<CertGuard>,
    /// Steps delayed waiting for a breakpoint (E4/E6 accounting).
    pub breakpoint_waits: u64,
    /// Grants the §6 delay rule alone would have admitted despite a
    /// cyclic candidate closure, caught by the engine's cycle rejection.
    /// Zero in every run if the rule is as sufficient as the paper
    /// argues — the experiments report it to confirm.
    pub prevention_misses: u64,
}

impl MlaPrevent {
    /// Disables window eviction (the A2 ablation: pay for checking the
    /// full history on every decision).
    pub fn without_eviction(mut self) -> Self {
        self.window.set_eviction(false);
        self
    }

    fn clear_out_edges(&mut self, txn: TxnId) {
        let outs: Vec<u32> = self.waits.successors(txn.0).to_vec();
        for o in outs {
            self.waits.remove_edge(txn.0, o);
        }
    }

    /// A placeholder: the closure engine is not sharded, so `shards`
    /// must be 0 (one engine). `perfbench/src/workloads.rs` calls it;
    /// that call is its only reason to exist.
    pub fn with_shards(self, shards: usize) -> Self {
        assert_eq!(shards, 0, "the closure engine is not sharded");
        self
    }

    /// A placeholder: the waits-for graph is not partitioned, so
    /// `partitions` must be 0 or 1 (one graph). `perfbench/src/workloads.rs`
    /// calls it; that call is its only reason to exist.
    pub fn with_wait_shards(self, partitions: usize) -> Self {
        assert!(partitions <= 1, "the waits-for graph is not partitioned");
        self
    }

    /// The engine's decision-cost counters so far (zeros before the
    /// first decision).
    pub fn cost(&self) -> EngineCounters {
        self.engine
            .as_ref()
            .map(|e| *e.counters())
            .unwrap_or_default()
    }

    /// Records the waits-for edges of a deferral; returns a rollback
    /// decision instead if an edge would close a waits-for cycle.
    fn defer_on<V: AdmissionView + ?Sized>(
        &mut self,
        txn: TxnId,
        blockers: &[TxnId],
        view: &V,
    ) -> Decision {
        self.breakpoint_waits += 1;
        // Refresh this requester's outgoing waits-for edges only:
        // detaching the whole node would erase *other* transactions'
        // waits on this one and hide wait cycles (livelock).
        self.clear_out_edges(txn);
        for b in blockers {
            if let Err(cycle) = self.waits.add_edge(txn.0, b.0) {
                // A waits-for cycle: roll back a victim on it.
                let candidates: Vec<TxnId> = cycle
                    .nodes()
                    .iter()
                    .map(|&v| TxnId(v))
                    .filter(|&t| !view.is_committed(t))
                    .collect();
                let victim = if candidates.is_empty() {
                    txn
                } else {
                    self.policy.choose(txn, &candidates, view)
                };
                return Decision::Abort(vec![victim]);
            }
        }
        Decision::Defer
    }

    /// A preventer over `txn_count` transactions using `spec` and the
    /// given deadlock-victim policy.
    pub fn new(txn_count: usize, spec: RuntimeSpec, policy: VictimPolicy) -> Self {
        MlaPrevent {
            spec,
            engine: None,
            window: LiveWindow::new(),
            waits: IncrementalTopo::new(txn_count),
            policy,
            guard: None,
            breakpoint_waits: 0,
            prevention_misses: 0,
        }
    }

    /// Decisions granted on the certificate fast path, across every
    /// universe (A7/A8 accounting).
    pub fn certified_skips(&self) -> u64 {
        self.guard.as_ref().map(CertGuard::total_skips).unwrap_or(0)
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
        self.guard.as_ref().map(|g| g.voids).unwrap_or(0)
    }

    /// Universes re-armed after every blamed foreign transaction
    /// drained from the live window.
    pub fn cert_re_arms(&self) -> u64 {
        self.guard.as_ref().map(|g| g.re_arms).unwrap_or(0)
    }

    /// Arms the certified fast path with an `mla-lint` [`StaticCert`]
    /// lattice: in-footprint steps of **armed universes** are granted
    /// immediately, with no closure engine and — unlike the uncertified
    /// preventer — **no breakpoint waits**: the per-universe proof
    /// makes every interleaving of those transactions correctable, so
    /// the §6 delay rule has nothing left to prevent there. Histories
    /// therefore differ from the uncertified preventer's (which defers
    /// conservatively); both are correctable. Uncertified universes'
    /// steps go through the engine and the delay rule as usual.
    ///
    /// A step outside its transaction's certified footprint voids
    /// certificates per universe (see [`CertGuard`]): the engine is
    /// caught up by replaying the journal (acyclic — every granted step
    /// either passed the engine or was certified) and the touched
    /// universes fall back to runtime checking. Unlike [`MlaDetect`],
    /// the preventer **re-arms** a voided universe once every foreign
    /// transaction blamed for it drains — it aborted, or committed and
    /// was evicted from the live window, so its journal entries can
    /// join no new closure cycle.
    pub fn with_static_cert(mut self, cert: StaticCert) -> Self {
        assert!(
            self.engine.is_none(),
            "set the certificate before the first decision"
        );
        assert_eq!(
            cert.k(),
            BreakpointSpecification::k(&self.spec),
            "certificate depth must match the spec"
        );
        self.guard = Some(CertGuard::new(cert, true));
        self
    }

    /// Catches the engine up on every step granted so far (certified
    /// skips included): fresh engine, full journal replay.
    fn catch_up_engine<V: AdmissionView + ?Sized>(&mut self, view: &V) {
        let mut engine = ClosureEngine::new(view.nest().clone(), self.spec.clone());
        for s in view.history_steps() {
            engine
                .apply_step(s)
                .expect("certified history must replay acyclically");
            engine.commit_step();
        }
        self.engine = Some(engine);
    }

    /// The decision procedure, against any [`AdmissionView`] — the
    /// simulator's `World` or `mla-serve`'s live admission state. The
    /// [`Control`] impl is a thin delegation to this.
    pub fn decide_view<V: AdmissionView + ?Sized>(&mut self, txn: TxnId, view: &V) -> Decision {
        let candidate = view.candidate(txn);
        if let Some(guard) = self.guard.as_mut() {
            // Re-arm any voided universe whose blamed strays have all
            // drained: committed and evicted from the live window (or
            // rolled back, handled eagerly in `aborted_view`).
            let window = &self.window;
            guard.sweep(|t| window.is_evicted(t));
            match guard.admit(txn, candidate.entity) {
                CertAdmit::Skip(_) => return Decision::Grant,
                CertAdmit::Engine => {}
                CertAdmit::Voided => {
                    // A stray just disarmed at least one universe whose
                    // steps the engine never saw: catch it up on the
                    // journal before deciding this step through it.
                    self.catch_up_engine(view);
                }
            }
        }
        if self.engine.is_none() {
            self.engine = Some(ClosureEngine::new(view.nest().clone(), self.spec.clone()));
        }
        let engine = self.engine.as_mut().expect("just initialised");
        match engine.apply_step(candidate) {
            Ok(()) => {
                // Find blockers against the *tentative* closure (it now
                // includes the candidate): live unfinished transactions
                // whose last performed step precedes the candidate but is
                // not at the required breakpoint. The engine answers
                // with the candidate's closure predecessors, ascending by
                // transaction id.
                let blockers: Vec<TxnId> = engine
                    .pending_predecessors()
                    .into_iter()
                    .filter(|&t| {
                        t != txn
                            && !view.is_committed(t)
                            && !view.is_finished(t)
                            && view.performed_seq(t) > 0
                            && !view.at_breakpoint(t, view.level(t, txn))
                    })
                    .collect();
                if blockers.is_empty() {
                    // §6: every closure-predecessor's last step sits at a
                    // suitable breakpoint, so performing now keeps the
                    // closure consistent with the performance order.
                    engine.commit_step();
                    self.window.maintain_with_engine(engine, view);
                    self.clear_out_edges(txn);
                    return Decision::Grant;
                }
                engine.rollback_step();
                self.defer_on(txn, &blockers, view)
            }
            Err(witness) => {
                // The candidate would close a closure cycle — something
                // the §6 delay rule promises never happens once blockers
                // are honoured. If there *are* blockers, deferring keeps
                // the promise alive (the cycle may dissolve once they
                // reach breakpoints); a blocker-free cyclic candidate is
                // a genuine prevention miss resolved by rollback.
                let blockers: Vec<TxnId> = witness
                    .txns
                    .iter()
                    .copied()
                    .filter(|&t| {
                        t != txn
                            && !view.is_committed(t)
                            && !view.is_finished(t)
                            && view.performed_seq(t) > 0
                            && !view.at_breakpoint(t, view.level(t, txn))
                    })
                    .collect();
                if !blockers.is_empty() {
                    return self.defer_on(txn, &blockers, view);
                }
                self.prevention_misses += 1;
                let mut candidates: Vec<TxnId> = witness
                    .txns
                    .iter()
                    .copied()
                    .filter(|&t| !view.is_committed(t))
                    .collect();
                if candidates.is_empty() {
                    candidates.push(txn);
                }
                Decision::Abort(vec![self.policy.choose(txn, &candidates, view)])
            }
        }
    }

    /// Backfills a performed step's real values into the engine.
    pub fn performed_view(&mut self, step: &Step) {
        if let Some(engine) = self.engine.as_mut() {
            engine.performed(step);
        }
    }

    /// Records `txn`'s commit: its wait edges drop.
    pub fn committed_view(&mut self, txn: TxnId) {
        self.waits.detach_node(txn.0);
    }

    /// Records a rollback of `txn`'s steps. A rolled-back stray's
    /// journal entries are gone, so any certificate blame it held
    /// drains immediately.
    pub fn aborted_view(&mut self, txn: TxnId) {
        self.window.on_aborted(txn);
        self.waits.detach_node(txn.0);
        if let Some(engine) = self.engine.as_mut() {
            engine.remove_txn(txn);
        }
        if let Some(guard) = self.guard.as_mut() {
            guard.on_aborted(txn);
        }
    }
}

impl Control for MlaPrevent {
    fn name(&self) -> &'static str {
        "mla-prevent"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        self.decide_view(txn, world)
    }

    fn performed(&mut self, record: &StepRecord, _world: &World) {
        self.performed_view(&record.as_step());
    }

    fn committed(&mut self, txn: TxnId, _world: &World) {
        self.committed_view(txn);
    }

    fn aborted(&mut self, txn: TxnId, _world: &World) {
        self.aborted_view(txn);
    }

    fn decision_cost(&self) -> Option<EngineCounters> {
        Some(self.cost())
    }

    fn certified_skips(&self) -> u64 {
        MlaPrevent::certified_skips(self)
    }

    fn certified_skips_per_universe(&self) -> Vec<u64> {
        MlaPrevent::certified_skips_per_universe(self)
    }

    fn cert_re_arms(&self) -> u64 {
        MlaPrevent::cert_re_arms(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use mla_core::nest::Nest;
    use mla_model::program::{ScriptOp::*, ScriptProgram};
    use mla_model::EntityId;
    use mla_sim::{run, SimConfig};
    use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints, TxnInstance};
    use std::sync::Arc;

    fn e(x: u32) -> EntityId {
        EntityId(x)
    }

    fn opposing_transfers(
        k: usize,
        with_breakpoints: bool,
    ) -> (Nest, Vec<TxnInstance>, RuntimeSpec) {
        let bp: Arc<dyn RuntimeBreakpoints> = if with_breakpoints {
            Arc::new(PhaseTable::new(k, [(1, 2)]))
        } else {
            Arc::new(NoBreakpoints { k })
        };
        let instances = vec![
            TxnInstance::new(
                TxnId(0),
                Arc::new(ScriptProgram::new(vec![Add(e(0), -1), Add(e(1), 1)])),
                bp.clone(),
            ),
            TxnInstance::new(
                TxnId(1),
                Arc::new(ScriptProgram::new(vec![Add(e(1), -1), Add(e(0), 1)])),
                bp.clone(),
            ),
        ];
        let spec = RuntimeSpec::new(k)
            .with(TxnId(0), bp.clone())
            .with(TxnId(1), bp);
        let nest = Nest::new(k, vec![vec![0], vec![0]]).unwrap();
        (nest, instances, spec)
    }

    #[test]
    fn breakpoints_avoid_both_waits_and_aborts() {
        let (nest, instances, spec) = opposing_transfers(3, true);
        let mut control = MlaPrevent::new(2, spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            [(e(0), 10), (e(1), 10)],
            &[0, 0],
            &SimConfig::seeded(31),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 2);
        assert_eq!(out.metrics.aborts, 0);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        assert_eq!(out.store.value(e(0)) + out.store.value(e(1)), 20);
        assert_eq!(control.prevention_misses, 0);
        // Abort-free prevention runs stay on the pure delta path.
        assert_eq!(control.cost().rebuilds, 0);
        assert!(control.cost().steps_applied > 0);
    }

    #[test]
    fn without_breakpoints_prevention_serializes() {
        let (nest, instances, spec) = opposing_transfers(3, false);
        let mut control = MlaPrevent::new(2, spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            [(e(0), 10), (e(1), 10)],
            &[0, 0],
            &SimConfig::seeded(32),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 2);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        // With atomic breakpoints the history must in fact be
        // serializable.
        assert!(oracle::is_serializable_outcome(&out));
    }

    #[test]
    fn audit_waits_for_transfer_phase() {
        // A transfer with a phase breakpoint and an audit atomic wrt it:
        // the audit must never observe money in transit.
        let k = 3;
        let tbp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
        let abp: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k });
        let instances = vec![
            TxnInstance::new(
                TxnId(0),
                Arc::new(ScriptProgram::new(vec![Add(e(0), -7), Add(e(1), 7)])),
                tbp.clone(),
            ),
            TxnInstance::new(
                TxnId(1),
                Arc::new(ScriptProgram::new(vec![Accumulate(e(0)), Accumulate(e(1))])),
                abp.clone(),
            ),
        ];
        let spec = RuntimeSpec::new(k).with(TxnId(0), tbp).with(TxnId(1), abp);
        let nest = Nest::new(k, vec![vec![0], vec![1]]).unwrap();
        let mut control = MlaPrevent::new(2, spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            [(e(0), 50), (e(1), 50)],
            &[0, 0],
            &SimConfig::seeded(33),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 2);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        // The audit's reads, whenever they happened, must sum to 100 in
        // the *equivalent* multilevel-atomic execution — check the actual
        // values it accumulated.
        let audit_reads: i64 = out
            .execution
            .steps()
            .iter()
            .filter(|s| s.txn == TxnId(1))
            .map(|s| s.observed)
            .sum();
        assert_eq!(audit_reads, 100, "no money in transit was observed");
    }

    #[test]
    fn swarm_with_mixed_classes_progresses() {
        // 3 pi(2)-classes of transfers with breakpoints; cross-class
        // interleaving must serialize, in-class may weave.
        let k = 3;
        let mut instances = Vec::new();
        let mut spec = RuntimeSpec::new(k);
        let mut paths = Vec::new();
        for i in 0..9u32 {
            let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
            let from = i % 4;
            let to = (i + 2) % 4;
            instances.push(TxnInstance::new(
                TxnId(i),
                Arc::new(ScriptProgram::new(vec![Add(e(from), -1), Add(e(to), 1)])),
                bp.clone(),
            ));
            spec.insert(TxnId(i), bp);
            paths.push(vec![i % 3]);
        }
        let nest = Nest::new(k, paths).unwrap();
        let mut control = MlaPrevent::new(9, spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            (0..4).map(|a| (e(a), 25)).collect::<Vec<_>>(),
            &(0..9u64).map(|i| i * 2).collect::<Vec<_>>(),
            &SimConfig::seeded(34),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 9);
        assert!(!out.metrics.timed_out);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        let total: i64 = (0..4).map(|a| out.store.value(e(a))).sum();
        assert_eq!(total, 100);
    }
    #[test]
    fn certified_preventer_skips_waits_and_stays_correctable() {
        let p = mla_workload::partitioned::generate(mla_workload::partitioned::PartitionedConfig {
            partitions: 2,
            txns_per_partition: 10,
            scanner_len: 10,
            arrival_spacing: 2,
        });
        let wl = &p.workload;
        let cert = mla_lint::certify_workload(wl)
            .cert
            .expect("partitioned workload must certify");
        let mut control = MlaPrevent::new(wl.txn_count(), wl.spec(), VictimPolicy::FewestSteps)
            .with_static_cert(cert);
        let out = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(77),
            &mut control,
        );
        // Every step granted straight off the certificate: no closure
        // engine, no breakpoint waits, no defers at all.
        assert_eq!(out.metrics.committed as usize, wl.txn_count());
        assert!(control.certified_skips() > 0);
        assert_eq!(out.metrics.certified_skips, control.certified_skips());
        assert_eq!(out.metrics.defers, 0);
        assert_eq!(control.breakpoint_waits, 0);
        assert_eq!(control.prevention_misses, 0);
        assert_eq!(out.metrics.decision_cost, EngineCounters::default());
        // Grant-all under a certificate is sound: the certificate proves
        // every interleaving correctable, and the oracle agrees.
        assert!(oracle::is_correctable_outcome(&out, &wl.nest, &wl.spec()));
    }

    #[test]
    fn voided_cert_re_arms_after_the_stray_drains() {
        let p = mla_workload::partitioned::generate(mla_workload::partitioned::PartitionedConfig {
            partitions: 2,
            txns_per_partition: 10,
            scanner_len: 6,
            arrival_spacing: 4,
        });
        let wl = &p.workload;
        let real = mla_lint::certify_workload(wl)
            .cert
            .expect("partitioned workload must certify");
        // Doctor the certificate: empty the first-arriving transaction's
        // footprint, so its very first step is an off-footprint stray and
        // its universe is disarmed before earning a single skip. Every
        // later skip recorded for that universe can therefore only have
        // happened after the blame drained and the universe re-armed.
        let first = wl
            .arrivals
            .iter()
            .enumerate()
            .min_by_key(|&(t, &at)| (at, t))
            .map(|(t, _)| t)
            .unwrap();
        let footprints: Vec<Vec<EntityId>> = (0..wl.txn_count())
            .map(|t| {
                if t == first {
                    Vec::new()
                } else {
                    real.footprint(TxnId(t as u32)).to_vec()
                }
            })
            .collect();
        let universes: Vec<u32> = (0..wl.txn_count())
            .map(|t| real.universe_of(TxnId(t as u32)).unwrap())
            .collect();
        let certified: Vec<bool> = (0..real.universe_count() as u32)
            .map(|u| real.is_certified(u))
            .collect();
        let doctored =
            mla_core::cert::StaticCert::per_universe(real.k(), footprints, universes, certified);
        let stray_universe = doctored.universe_of(TxnId(first as u32)).unwrap() as usize;
        let config = SimConfig::seeded(5);
        let mut fast = MlaPrevent::new(wl.txn_count(), wl.spec(), VictimPolicy::FewestSteps)
            .with_static_cert(doctored);
        let out_fast = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &config,
            &mut fast,
        );
        assert!(fast.cert_voids() > 0, "the stray never disarmed anything");
        assert!(
            fast.cert_re_arms() > 0,
            "the universe never re-armed after the stray drained"
        );
        let per = fast.certified_skips_per_universe();
        assert!(
            per[stray_universe] > 0,
            "a re-armed certificate must demonstrably skip again"
        );
        assert_ne!(
            fast.cost(),
            EngineCounters::default(),
            "the stray's own steps must go through the engine"
        );
        // Voiding and re-arming may legally change *when* steps are
        // granted (a certified skip waives a breakpoint wait), but never
        // whether the run completes or stays inside Theorem 2.
        assert_eq!(out_fast.metrics.committed as usize, wl.txn_count());
        assert!(oracle::is_correctable_outcome(
            &out_fast,
            &wl.nest,
            &wl.spec()
        ));
    }
}
