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
//! batch closure is never recomputed: a rollback deletes the victim's
//! rows and rederives only the rows that held it, and dead rows and
//! columns are dropped by an order-preserving renumbering, so the
//! `rebuilds` counter stays at zero. Every grant runs the engine's
//! eviction pass, which projects out the committed transactions no live
//! one reaches; eviction never changes a verdict
//! (`tests/closure_engine_equivalence.rs` holds it to that).
//! "Presumably, fewer cycles would be detected using the multilevel
//! atomicity definition than if strict serializability were required,
//! leading to fewer rollbacks" — experiment E5 measures exactly this
//! against the same control on the flat 2-nest, where a closure cycle
//! is a conflict cycle (§4.3).

use mla_core::cert::StaticCert;
use mla_model::TxnId;
use mla_sim::{Control, Decision, World};
use mla_txn::RuntimeSpec;

use crate::admission::{control_via_core, AdmissionCore};
use crate::victim::VictimPolicy;

/// The optimistic multilevel-atomicity control.
pub struct MlaDetect {
    core: AdmissionCore,
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
            checks: 0,
            cycles_found: 0,
        }
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
        match engine.apply_step(candidate) {
            Ok(()) => {
                self.core.grant();
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

    /// `txn` stops being an eviction source.
    fn committed(&mut self, txn: TxnId, _world: &World) {
        self.core.committed(txn);
    }

    /// The engine deletes `txn`'s rows and rederives the rows that held
    /// its column, at once; nothing is replayed.
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
    use mla_model::program::{ScriptOp, ScriptOp::*, ScriptProgram};
    use mla_model::EntityId;
    use mla_sim::{run, SimConfig, SimOutcome};
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
        // Rollbacks are rederived, never rebuilt.
        assert!(out.metrics.aborts > 0, "the run must exercise rollbacks");
        assert_eq!(out.metrics.decision_cost.rebuilds, 0);
    }

    #[test]
    fn transfers_interleave_where_serializability_would_conflict() {
        // Two transfers in opposite directions over the same two accounts,
        // each with a mid-transaction breakpoint and pi(2)-related: the
        // opposing weave w0 w1 d1 d0 is multilevel atomic, so MLA-detect
        // should commit both without any abort (the same control on the
        // flat 2-nest would have to abort one if the weave arises).
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
        // A pass follows a commit or a rollback cascade; commits and
        // cascades landing between two grants share one pass. Dead rows
        // and columns are dropped by renumbering, so nothing is ever
        // rebuilt.
        assert_eq!(cost.rebuilds, 0);
        assert!(
            cost.evict_scans <= m.committed + m.aborts,
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

    /// Serialization-graph testing: the detector on the flat 2-nest,
    /// one script per transaction, no breakpoints.
    fn flat_run(scripts: Vec<Vec<ScriptOp>>, seed: u64, policy: VictimPolicy) -> SimOutcome {
        let n = scripts.len();
        let none: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k: 2 });
        let mut spec = RuntimeSpec::new(2);
        let instances = scripts
            .into_iter()
            .enumerate()
            .map(|(i, ops)| {
                spec.insert(TxnId(i as u32), none.clone());
                TxnInstance::new(
                    TxnId(i as u32),
                    Arc::new(ScriptProgram::new(ops)),
                    none.clone(),
                )
            })
            .collect();
        run(
            Nest::flat(n),
            instances,
            [],
            &vec![0; n],
            &SimConfig::seeded(seed),
            &mut MlaDetect::new(spec, policy),
        )
    }

    #[test]
    fn flat_nest_contended_swarm_is_serializable() {
        let swarm: Vec<Vec<ScriptOp>> = (0..10u32)
            .map(|i| (0..3).map(|s| Add(e((i * 7 + s * 3) % 4), 1)).collect())
            .collect();
        for policy in [
            VictimPolicy::Requester,
            VictimPolicy::FewestSteps,
            VictimPolicy::MostSteps,
        ] {
            let out = flat_run(swarm.clone(), 8, policy);
            assert_eq!(out.metrics.committed, 10, "policy {policy:?}");
            assert!(!out.metrics.timed_out);
            assert!(
                oracle::is_serializable_outcome(&out),
                "flat-nest history must be serializable under {policy:?}"
            );
        }
    }

    #[test]
    fn flat_nest_disjoint_entities_never_abort_or_defer() {
        let scripts = (0..6u32)
            .map(|i| vec![Add(e(100 + 2 * i), 1), Add(e(101 + 2 * i), 1)])
            .collect();
        let out = flat_run(scripts, 9, VictimPolicy::Requester);
        assert_eq!(out.metrics.committed, 6);
        assert_eq!(out.metrics.aborts, 0);
        assert_eq!(out.metrics.defers, 0);
    }

    #[test]
    fn flat_nest_crossing_weave_recovers_serializably() {
        // Two transactions in opposite entity order with tight timing.
        let scripts = vec![
            vec![Add(e(0), 1), Add(e(1), 1)],
            vec![Add(e(1), 1), Add(e(0), 1)],
        ];
        let out = flat_run(scripts, 10, VictimPolicy::FewestSteps);
        assert_eq!(out.metrics.committed, 2);
        assert!(oracle::is_serializable_outcome(&out));
    }
}
