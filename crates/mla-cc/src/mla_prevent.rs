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
//! The closure is maintained incrementally by one
//! [`ClosureEngine`](mla_core::ClosureEngine):
//! each candidate is applied as a tentative delta, the blocker probe
//! asks the engine for the candidate's closure predecessors, and a
//! deferred candidate is rolled back to be retried later; no batch
//! recomputation on any path.

use mla_core::cert::StaticCert;
use mla_graph::IncrementalTopo;
use mla_model::TxnId;
use mla_sim::{Control, Decision, World};
use mla_txn::RuntimeSpec;

use crate::admission::{control_via_core, AdmissionCore};
use crate::victim::VictimPolicy;

/// The pessimistic multilevel-atomicity control.
pub struct MlaPrevent {
    core: AdmissionCore,
    /// The waits-for graph over transactions: one node per transaction,
    /// an edge `t -> b` while `t` is deferred behind `b`.
    waits: IncrementalTopo,
    /// Steps delayed waiting for a breakpoint (E4/E6 accounting).
    pub breakpoint_waits: u64,
    /// Grants the §6 delay rule alone would have admitted despite a
    /// cyclic candidate closure, caught by the engine's cycle rejection.
    /// Zero in every run if the rule is as sufficient as the paper
    /// argues — the experiments report it to confirm.
    pub prevention_misses: u64,
}

impl MlaPrevent {
    /// A preventer over `txn_count` transactions using `spec` and the
    /// given deadlock-victim policy.
    pub fn new(txn_count: usize, spec: RuntimeSpec, policy: VictimPolicy) -> Self {
        MlaPrevent {
            core: AdmissionCore::new(spec, policy),
            waits: IncrementalTopo::new(txn_count),
            breakpoint_waits: 0,
            prevention_misses: 0,
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
    /// certificates per universe (see [`CertGuard`](crate::CertGuard)):
    /// the engine is caught up by replaying the journal and the touched
    /// universes fall back to runtime checking. Unlike
    /// [`MlaDetect`](crate::MlaDetect), the preventer **re-arms** a
    /// voided universe once every foreign transaction blamed for it
    /// drains — it aborted, or committed and was evicted from the
    /// engine, so its journal entries can join no new closure cycle.
    pub fn with_static_cert(mut self, cert: StaticCert) -> Self {
        self.core.arm(cert, true);
        self
    }

    /// The engine, certificate and eviction state shared with
    /// [`MlaDetect`](crate::MlaDetect), and their counters.
    pub fn core(&self) -> &AdmissionCore {
        &self.core
    }

    /// Records the waits-for edges of a deferral; returns a rollback
    /// decision instead if an edge would close a waits-for cycle.
    fn defer_on(&mut self, txn: TxnId, blockers: &[TxnId], world: &World) -> Decision {
        self.breakpoint_waits += 1;
        // Refresh this requester's outgoing waits-for edges only:
        // detaching the whole node would erase *other* transactions'
        // waits on this one and hide wait cycles (livelock).
        self.clear_out_edges(txn);
        for b in blockers {
            if let Err(cycle) = self.waits.add_edge(txn.0, b.0) {
                // A waits-for cycle: roll back a victim on it.
                let on_cycle = cycle.nodes().iter().map(|&v| TxnId(v));
                return self.core.victim(txn, on_cycle, world);
            }
        }
        Decision::Defer
    }

    fn clear_out_edges(&mut self, txn: TxnId) {
        let outs: Vec<u32> = self.waits.successors(txn.0).to_vec();
        for o in outs {
            self.waits.remove_edge(txn.0, o);
        }
    }
}

impl Control for MlaPrevent {
    fn name(&self) -> &'static str {
        "mla-prevent"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let candidate = world.candidate(txn);
        // A blocker: a live unfinished transaction that precedes the
        // candidate in the closure but whose last performed step is not
        // at the `level(t, txn)` breakpoint the §6 rule requires.
        let blocks = |&t: &TxnId| {
            let inst = world.instance(t);
            t != txn
                && !world.is_committed(t)
                && !inst.is_finished()
                && inst.seq() > 0
                && !inst.at_breakpoint(world.level(t, txn))
        };
        let Some(engine) = self.core.engine_for(&candidate, world) else {
            return Decision::Grant;
        };
        match engine.apply_step(candidate) {
            Ok(()) => {
                // Blockers against the *tentative* closure (it now
                // includes the candidate): the engine answers with the
                // candidate's closure predecessors, ascending by id.
                let blockers: Vec<TxnId> = engine
                    .pending_predecessors()
                    .into_iter()
                    .filter(blocks)
                    .collect();
                if blockers.is_empty() {
                    // §6: every closure-predecessor's last step sits at a
                    // suitable breakpoint, so performing now keeps the
                    // closure consistent with the performance order.
                    self.core.grant(world);
                    self.clear_out_edges(txn);
                    return Decision::Grant;
                }
                engine.rollback_step();
                self.defer_on(txn, &blockers, world)
            }
            Err(witness) => {
                // The candidate would close a closure cycle — something
                // the §6 delay rule promises never happens once blockers
                // are honoured. If there *are* blockers, deferring keeps
                // the promise alive (the cycle may dissolve once they
                // reach breakpoints); a blocker-free cyclic candidate is
                // a genuine prevention miss resolved by rollback.
                let blockers: Vec<TxnId> = witness.txns.iter().copied().filter(blocks).collect();
                if !blockers.is_empty() {
                    return self.defer_on(txn, &blockers, world);
                }
                self.prevention_misses += 1;
                self.core.victim(txn, witness.txns, world)
            }
        }
    }

    /// `txn`'s wait edges drop.
    fn committed(&mut self, txn: TxnId, _world: &World) {
        self.waits.detach_node(txn.0);
    }

    /// `txn`'s wait edges drop with its engine rows and any certificate
    /// blame it held.
    fn aborted(&mut self, txn: TxnId, _world: &World) {
        self.waits.detach_node(txn.0);
        self.core.aborted(txn);
    }

    control_via_core!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use mla_core::nest::Nest;
    use mla_core::EngineCounters;
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
        assert_eq!(control.core().cost().rebuilds, 0);
        assert!(control.core().cost().steps_applied > 0);
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
        assert!(control.core().certified_skips() > 0);
        assert_eq!(
            out.metrics.certified_skips,
            control.core().certified_skips()
        );
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
        assert!(
            fast.core().cert_voids() > 0,
            "the stray never disarmed anything"
        );
        assert!(
            fast.core().cert_re_arms() > 0,
            "the universe never re-armed after the stray drained"
        );
        let per = fast.core().certified_skips_per_universe();
        assert!(
            per[stray_universe] > 0,
            "a re-armed certificate must demonstrably skip again"
        );
        assert_ne!(
            fast.core().cost(),
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
