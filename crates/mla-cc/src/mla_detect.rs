//! Multilevel-atomicity cycle *detection* (§6, first strategy):
//! "the concurrency control might generate explicitly the edges of the
//! coherent closure of `<=_e` and check for cycles. If a cycle is
//! detected, a priority scheme can be used to determine which steps
//! should be rolled back."
//!
//! Implementation: the control maintains one
//! [`ClosureEngine`](mla_core::ClosureEngine) for the
//! whole run and offers it each candidate step as a *delta*. The engine
//! extends its maintained coherent closure in place; acyclic — commit
//! the extension and grant, cyclic — the engine rolls the extension back
//! and hands out the witness cycle to pick a rollback victim from. The
//! batch closure is never recomputed on the grant path (the `rebuilds`
//! counter stays at zero in abort-free runs); full rebuilds happen only
//! when a rollback or eviction compaction actually shrinks the history.
//! "Presumably, fewer cycles would be detected using the multilevel
//! atomicity definition than if strict serializability were required,
//! leading to fewer rollbacks" — experiment E5 measures exactly this
//! against [`crate::SgtControl`].

use mla_core::cert::StaticCert;
use mla_model::TxnId;
use mla_sim::{Control, Decision, World};
use mla_txn::RuntimeSpec;

use crate::admission::{control_via_core, AdmissionCore};
use crate::victim::VictimPolicy;

/// The optimistic multilevel-atomicity control.
pub struct MlaDetect {
    core: AdmissionCore,
    /// A1 ablation: force a from-scratch closure rebuild before every
    /// decision, charging the old per-step batch cost through the same
    /// code path.
    full_rebuild: bool,
    /// Closure checks performed (for the E5 cost accounting).
    pub checks: u64,
    /// Checks that found a cycle.
    pub cycles_found: u64,
}

impl MlaDetect {
    /// A detector using `spec` (which must match the instances'
    /// breakpoint structures) and the given victim policy.
    pub fn new(spec: RuntimeSpec, policy: VictimPolicy) -> Self {
        MlaDetect {
            core: AdmissionCore::new(spec, policy),
            full_rebuild: false,
            checks: 0,
            cycles_found: 0,
        }
    }

    /// Disables eviction (the A2 ablation: pay for checking the full
    /// history on every decision).
    pub fn without_eviction(mut self) -> Self {
        self.core.disable_eviction();
        self
    }

    /// Forces a full closure rebuild before every decision (the A1
    /// ablation): same decisions, same code path, but per-step batch
    /// cost instead of delta cost. This is the baseline the incremental
    /// engine is benchmarked against.
    pub fn with_full_rebuild(mut self) -> Self {
        self.full_rebuild = true;
        self
    }

    /// Arms the certified fast path with an `mla-lint` [`StaticCert`]
    /// lattice: every step inside an **armed universe's** footprints is
    /// granted after an O(log n) guard, with no closure maintenance at
    /// all — the per-universe proof guarantees no realizable closure
    /// cycle passes through that universe's transactions, which is
    /// precisely the only thing [`decide`](Control::decide) would
    /// otherwise check. Uncertified universes' steps go through the
    /// engine as usual, and because certified transactions can sit on no
    /// realizable cycle, omitting their steps from the engine changes no
    /// verdict: decision-for-decision identical to the uncertified
    /// control.
    ///
    /// A step *outside* its transaction's certified footprint voids
    /// certificates **per universe** (see
    /// [`CertGuard`](crate::CertGuard)): the stray's own universe and
    /// every armed universe whose entities it touched are disarmed, the
    /// engine is caught up by replaying the journal, and those universes
    /// stay on the engine path for the rest of the run (`MlaPrevent`
    /// re-arms; the detector keeps voiding permanent). Untouched
    /// universes keep skipping.
    pub fn with_static_cert(mut self, cert: StaticCert) -> Self {
        self.core.arm(cert, false);
        self
    }

    /// The engine, certificate and eviction state shared with
    /// [`MlaPrevent`](crate::MlaPrevent), and their counters.
    pub fn core(&self) -> &AdmissionCore {
        &self.core
    }
}

impl Control for MlaDetect {
    fn name(&self) -> &'static str {
        "mla-detect"
    }

    fn decide(&mut self, txn: TxnId, world: &World) -> Decision {
        let candidate = world.candidate(txn);
        self.checks += 1;
        let Some(engine) = self.core.engine_for(&candidate, world) else {
            return Decision::Grant;
        };
        if self.full_rebuild {
            engine.force_rebuild();
        }
        match engine.apply_step(candidate) {
            Ok(()) => {
                self.core.grant(world);
                Decision::Grant
            }
            Err(witness) => {
                // The engine already rolled the candidate back; its
                // witness names the transactions on the closure cycle
                // (sorted, deduplicated).
                self.cycles_found += 1;
                self.core.victim(txn, witness.txns, world)
            }
        }
    }

    /// Shrinking the history invalidates the maintained closure; the
    /// engine schedules one rebuild for the whole cascade and replays
    /// lazily at the next decision.
    fn aborted(&mut self, txn: TxnId, _world: &World) {
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

    /// Transfers with a level-2 breakpoint between the withdraw and
    /// deposit halves, plus an atomic audit reading everything.
    fn banking_setup(
        n_transfers: u32,
        accounts: u32,
    ) -> (Nest, Vec<TxnInstance>, RuntimeSpec, Vec<(EntityId, i64)>) {
        let k = 3;
        let mut instances = Vec::new();
        let mut spec = RuntimeSpec::new(k);
        let mut paths = Vec::new();
        for i in 0..n_transfers {
            let from = i % accounts;
            let to = (i + 1) % accounts;
            let program = Arc::new(ScriptProgram::new(vec![Add(e(from), -1), Add(e(to), 1)]));
            let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
            instances.push(TxnInstance::new(TxnId(i), program, bp.clone()));
            spec.insert(TxnId(i), bp);
            paths.push(vec![0]);
        }
        // The audit reads every account, atomically.
        let audit_id = TxnId(n_transfers);
        let audit = Arc::new(ScriptProgram::new(
            (0..accounts).map(|a| Accumulate(e(a))).collect(),
        ));
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k });
        instances.push(TxnInstance::new(audit_id, audit, bp.clone()));
        spec.insert(audit_id, bp);
        paths.push(vec![1]);
        let nest = Nest::new(k, paths).unwrap();
        let initial = (0..accounts).map(|a| (e(a), 100)).collect();
        (nest, instances, spec, initial)
    }

    #[test]
    fn banking_run_is_correctable() {
        let (nest, instances, spec, initial) = banking_setup(8, 4);
        let arrivals = vec![0u64; instances.len()];
        let mut control = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            initial,
            &arrivals,
            &SimConfig::seeded(21),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 9);
        assert!(!out.metrics.timed_out);
        assert!(
            oracle::is_correctable_outcome(&out, &nest, &spec),
            "MLA-detect history must satisfy Theorem 2"
        );
        // Money is conserved across transfers.
        let total: i64 = (0..4).map(|a| out.store.value(e(a))).sum();
        assert_eq!(total, 400);
        assert!(control.checks > 0);
        // The simulator merged the engine counters into the run metrics.
        assert_eq!(out.metrics.decision_cost, control.core().cost());
        assert!(out.metrics.decision_cost.steps_applied > 0);
        assert!(out.metrics.rows_per_decision() > 0.0);
    }

    #[test]
    fn transfers_interleave_where_serializability_would_conflict() {
        // Two transfers in opposite directions over the same two accounts,
        // each with a mid-transaction breakpoint and pi(2)-related: the
        // opposing weave w0 w1 d1 d0 is multilevel atomic, so MLA-detect
        // should commit both without any abort (SGT would have to abort
        // one if the weave arises).
        let k = 3;
        let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
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
        let mut control = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            [(e(0), 10), (e(1), 10)],
            &[0, 0],
            &SimConfig::seeded(22),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 2);
        assert_eq!(out.metrics.aborts, 0, "the weave is multilevel atomic");
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        assert_eq!(out.store.value(e(0)), 10);
        assert_eq!(out.store.value(e(1)), 10);
        // The tentpole property: an abort-free run never rebuilds the
        // closure from scratch — every grant was a pure delta.
        let cost = control.core().cost();
        assert!(cost.steps_applied > 0);
        assert_eq!(cost.rebuilds, 0, "grant path must not batch-recompute");
        assert_eq!(cost.rollbacks, 0);
    }

    #[test]
    fn full_rebuild_ablation_decides_identically() {
        // The A1 ablation runs the same decision procedure through the
        // same engine, only paying batch cost per step: outcomes must be
        // identical, and the rebuild counter must show the charge.
        let (nest, instances, spec, initial) = banking_setup(8, 4);
        let arrivals = vec![0u64; instances.len()];
        let mut inc = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out_inc = run(
            nest.clone(),
            instances,
            initial.clone(),
            &arrivals,
            &SimConfig::seeded(25),
            &mut inc,
        );
        // Fresh instances: TxnInstance is stateful and not Clone.
        let (_, instances, _, _) = banking_setup(8, 4);
        let mut full = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps).with_full_rebuild();
        let out_full = run(
            nest.clone(),
            instances,
            initial,
            &arrivals,
            &SimConfig::seeded(25),
            &mut full,
        );
        assert_eq!(out_inc.metrics.committed, out_full.metrics.committed);
        assert_eq!(out_inc.metrics.aborts, out_full.metrics.aborts);
        assert_eq!(out_inc.execution.steps(), out_full.execution.steps());
        assert_eq!(inc.checks, full.checks);
        assert_eq!(
            full.core().cost().rebuilds,
            full.checks,
            "one rebuild per decision"
        );
        assert!(
            inc.core().cost().rebuilds < full.core().cost().rebuilds,
            "incremental mode must rebuild strictly less"
        );
        assert!(
            inc.core().cost().rows_touched < full.core().cost().rows_touched,
            "incremental mode must do strictly less closure work \
             ({} vs {})",
            inc.core().cost().rows_touched,
            full.core().cost().rows_touched
        );
    }

    #[test]
    fn audit_mid_transfer_forces_rollback() {
        // One transfer, one audit racing it with no breakpoints in
        // common: if the audit lands between the transfer's halves the
        // control must detect and resolve the cycle; either way the final
        // history is correctable and the audit sees a consistent total.
        let (nest, instances, spec, initial) = banking_setup(1, 2);
        let mut control = MlaDetect::new(spec.clone(), VictimPolicy::FewestSteps);
        let out = run(
            nest.clone(),
            instances,
            initial,
            &[0, 0],
            &SimConfig::seeded(23),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 2);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
    }

    #[test]
    fn high_contention_swarm_stays_correctable() {
        let (nest, instances, spec, initial) = banking_setup(16, 3);
        let arrivals: Vec<u64> = (0..17).map(|i| i * 3).collect();
        let mut control = MlaDetect::new(spec.clone(), VictimPolicy::Requester);
        let out = run(
            nest.clone(),
            instances,
            initial,
            &arrivals,
            &SimConfig::seeded(24),
            &mut control,
        );
        assert_eq!(out.metrics.committed, 17);
        assert!(!out.metrics.timed_out);
        assert!(oracle::is_correctable_outcome(&out, &nest, &spec));
        let total: i64 = (0..3).map(|a| out.store.value(e(a))).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn eviction_passes_follow_commits_and_aborts() {
        // The §2 banking load: eviction is offered after every grant, but
        // a full reachability pass runs only when a commit or an abort
        // could free a transaction.
        let b = mla_workload::banking::generate(mla_workload::banking::BankingConfig {
            families: 4,
            accounts_per_family: 4,
            transfers: 256,
            sources_min: 1,
            sources_max: 3,
            seed: 5,
            ..mla_workload::banking::BankingConfig::default()
        });
        let wl = &b.workload;
        let mut control = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps);
        let out = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &SimConfig::seeded(5),
            &mut control,
        );
        assert!(!out.metrics.timed_out);
        let m = &out.metrics;
        let cost = control.core().cost();
        assert!(m.aborts > 0, "the load must exercise aborts");
        assert!(control.core().evicted_count() > 0);
        // A pass follows a commit, an abort or a rebuild, or is the
        // first. Commits landing between two grants share one pass,
        // which keeps this replay within the bound despite the passes
        // that dead-row compaction rebuilds add.
        assert!(
            cost.evict_scans <= m.committed + m.aborts + 1,
            "{} passes for {} commits and {} aborts",
            cost.evict_scans,
            m.committed,
            m.aborts
        );
        assert!(cost.evict_scans * 2 < cost.steps_applied);
    }

    fn small_partitioned() -> mla_workload::partitioned::Partitioned {
        mla_workload::partitioned::generate(mla_workload::partitioned::PartitionedConfig {
            partitions: 2,
            txns_per_partition: 10,
            scanner_len: 10,
            arrival_spacing: 2,
        })
    }

    #[test]
    fn certified_fast_path_matches_uncertified_byte_for_byte() {
        let p = small_partitioned();
        let wl = &p.workload;
        let cert = mla_lint::certify_workload(wl)
            .cert
            .expect("partitioned workload must certify");
        let config = SimConfig::seeded(77);
        let mut base = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps);
        let out_base = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &config,
            &mut base,
        );
        let mut fast = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(cert);
        let out_fast = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &config,
            &mut fast,
        );
        // Same history, byte for byte: the certificate only skips work
        // the closure engine would have done to reach the same Grant.
        assert_eq!(out_base.execution.steps(), out_fast.execution.steps());
        assert_eq!(out_base.metrics.committed, out_fast.metrics.committed);
        // Every decision went through the fast path, never the engine.
        assert!(fast.core().certified_skips() > 0);
        assert_eq!(fast.core().certified_skips(), fast.checks);
        assert_eq!(fast.core().cost(), EngineCounters::default());
        assert_eq!(
            out_fast.metrics.certified_skips,
            fast.core().certified_skips()
        );
        assert_eq!(out_base.metrics.certified_skips, 0);
        // The lattice degenerates to one universe here; the split view
        // still reconciles with the total.
        assert_eq!(
            fast.core()
                .certified_skips_per_universe()
                .iter()
                .sum::<u64>(),
            fast.core().certified_skips()
        );
        assert!(oracle::is_correctable_outcome(
            &out_fast,
            &wl.nest,
            &wl.spec()
        ));
    }

    #[test]
    fn off_footprint_step_voids_the_certificate() {
        let p = small_partitioned();
        let wl = &p.workload;
        let real = mla_lint::certify_workload(wl)
            .cert
            .expect("partitioned workload must certify");
        // Doctor the certificate: drop the private entity from the
        // last-arriving short transaction's footprint. Doctored ⊆ real,
        // so every step the guard does grant is genuinely certified and
        // the journal replay on voiding must stay acyclic.
        let last = wl.txn_count() - 1;
        let footprints: Vec<Vec<EntityId>> = (0..wl.txn_count())
            .map(|t| {
                let mut fp = real.footprint(TxnId(t as u32)).to_vec();
                if t == last {
                    fp.pop();
                }
                fp
            })
            .collect();
        let doctored = mla_core::cert::StaticCert::new(real.k(), footprints);
        let config = SimConfig::seeded(77);
        let mut base = MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps);
        let out_base = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &config,
            &mut base,
        );
        let mut fast =
            MlaDetect::new(wl.spec(), VictimPolicy::FewestSteps).with_static_cert(doctored);
        let out_fast = run(
            wl.nest.clone(),
            wl.instances(),
            wl.initial.iter().copied(),
            &wl.arrivals,
            &config,
            &mut fast,
        );
        // The voided run granted some decisions certified, then handed
        // the rest to a journal-caught-up engine — and still produced
        // the identical history.
        assert!(
            fast.core().certified_skips() > 0,
            "fast path ran before voiding"
        );
        assert!(
            fast.core().cert_voids() > 0,
            "the stray disarmed its universe"
        );
        assert!(
            fast.core().certified_skips() < fast.checks,
            "voiding must hand later decisions to the engine"
        );
        assert_ne!(fast.core().cost(), EngineCounters::default());
        assert_eq!(out_base.execution.steps(), out_fast.execution.steps());
        assert!(oracle::is_correctable_outcome(
            &out_fast,
            &wl.nest,
            &wl.spec()
        ));
    }
}
