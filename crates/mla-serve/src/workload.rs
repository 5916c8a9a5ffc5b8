//! Service workloads: session-structured transaction streams.
//!
//! A [`ServeLoad`] is a plain [`Workload`] (nest, programs, breakpoints,
//! initial values) plus a *session assignment*: each simulated client
//! session owns an ordered stream of transaction ids it will execute, one
//! after another, against the live store. Two shapes cover the service's
//! test and bench needs:
//!
//! * [`partitioned_load`] — each session owns a private entity range and
//!   runs forward-chain transactions inside it (the certifiable shape the
//!   A5 workload established): `mla-lint` issues a [`StaticCert`] and the
//!   schedulers ride the certified fast path, which is what the
//!   100k-commit throughput row measures.
//! * [`contended_load`] — every session draws transfers over one shared
//!   account ring, with mid-transfer breakpoints and a π(2) class per
//!   ring neighbourhood, plus atomic audits; admission actually defers,
//!   waits, and occasionally aborts, which is what the smoke and
//!   differential tests exercise.

use std::sync::Arc;

use mla_core::cert::StaticCert;
use mla_core::nest::Nest;
use mla_model::program::{ScriptOp, ScriptProgram};
use mla_model::{EntityId, TxnId, Value};
use mla_txn::{NoBreakpoints, PhaseTable, RuntimeBreakpoints};
use mla_workload::Workload;

/// A workload plus its session assignment.
pub struct ServeLoad {
    /// The declared transactions: the service's instances, spec, nest
    /// and snapshot-probe entities all derive from it.
    pub workload: Workload,
    /// Per-session transaction streams, executed in order.
    pub session_txns: Vec<Vec<TxnId>>,
    /// Sum of all initial entity values (conservation audits).
    pub initial_total: Value,
}

impl ServeLoad {
    /// Total transactions across sessions.
    pub fn txn_count(&self) -> usize {
        self.workload.txn_count()
    }

    /// Tries to statically certify the workload with `mla-lint`.
    pub fn certify(&self) -> Option<StaticCert> {
        mla_lint::certify_workload(&self.workload).cert
    }
}

/// Each session owns a private entity range: transaction `i` of session
/// `s` adds 1 to the session's shared entity, then to a private one —
/// the forward-chain shape that certifies statically. One π(2) class per
/// session (k = 3), so cross-session atomicity is never at stake and
/// in-session weaving is licensed by the mid-transaction breakpoint.
pub fn partitioned_load(sessions: usize, txns_per_session: usize) -> ServeLoad {
    assert!(sessions >= 1 && txns_per_session >= 1);
    let k = 3;
    let shared = |s: usize| EntityId((s * (txns_per_session + 1)) as u32);
    let private = |s: usize, i: usize| EntityId((s * (txns_per_session + 1) + 1 + i) as u32);

    let mut programs: Vec<Arc<dyn mla_model::Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut session_txns: Vec<Vec<TxnId>> = vec![Vec::new(); sessions];
    let bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
    for (s, txns) in session_txns.iter_mut().enumerate() {
        for i in 0..txns_per_session {
            let id = TxnId((s * txns_per_session + i) as u32);
            programs.push(Arc::new(ScriptProgram::new(vec![
                ScriptOp::Add(shared(s), 1),
                ScriptOp::Add(private(s, i), 1),
            ])));
            breakpoints.push(bp.clone());
            paths.push(vec![s as u32]);
            txns.push(id);
        }
    }
    let nest = Nest::new(k, paths).expect("one non-empty path per transaction");
    ServeLoad {
        workload: Workload {
            name: format!("serve-partitioned-{sessions}x{txns_per_session}"),
            nest,
            programs,
            breakpoints,
            initial: Vec::new(),
            arrivals: vec![0; sessions * txns_per_session],
        },
        session_txns,
        initial_total: 0,
    }
}

/// All sessions transfer over one shared ring of `accounts` accounts
/// (each starting at 100): transaction `i` of session `s` moves one unit
/// from account `(s + i) % accounts` to the next, with a mid-transfer
/// phase breakpoint. Every `audit_every`-th transaction of a session is
/// instead an atomic audit accumulating the whole ring (0 disables
/// audits). Transfers share one π(2) class; audits sit in their own, so
/// they demand atomicity against everything — the §6 conflict shape that
/// makes admission actually defer and abort.
pub fn contended_load(
    sessions: usize,
    txns_per_session: usize,
    accounts: usize,
    audit_every: usize,
) -> ServeLoad {
    assert!(sessions >= 1 && txns_per_session >= 1 && accounts >= 2);
    let k = 3;
    let e = |a: usize| EntityId(a as u32);
    let mut programs: Vec<Arc<dyn mla_model::Program + Send + Sync>> = Vec::new();
    let mut breakpoints: Vec<Arc<dyn RuntimeBreakpoints>> = Vec::new();
    let mut paths: Vec<Vec<u32>> = Vec::new();
    let mut session_txns: Vec<Vec<TxnId>> = vec![Vec::new(); sessions];
    let transfer_bp: Arc<dyn RuntimeBreakpoints> = Arc::new(PhaseTable::new(k, [(1, 2)]));
    let audit_bp: Arc<dyn RuntimeBreakpoints> = Arc::new(NoBreakpoints { k });
    for (s, txns) in session_txns.iter_mut().enumerate() {
        for i in 0..txns_per_session {
            let id = TxnId((s * txns_per_session + i) as u32);
            // Stagger the audit cadence by session: synchronized atomic
            // audits would all collide, deadlock, and cascade in lockstep.
            let is_audit = audit_every != 0 && (i + s) % audit_every == audit_every - 1;
            if is_audit {
                programs.push(Arc::new(ScriptProgram::new(
                    (0..accounts).map(|a| ScriptOp::Accumulate(e(a))).collect(),
                )));
                breakpoints.push(audit_bp.clone());
                paths.push(vec![1]);
            } else {
                let from = (s + i) % accounts;
                let to = (from + 1) % accounts;
                programs.push(Arc::new(ScriptProgram::new(vec![
                    ScriptOp::Add(e(from), -1),
                    ScriptOp::Add(e(to), 1),
                ])));
                breakpoints.push(transfer_bp.clone());
                paths.push(vec![0]);
            }
            txns.push(id);
        }
    }
    let nest = Nest::new(k, paths).expect("one non-empty path per transaction");
    let initial: Vec<(EntityId, Value)> = (0..accounts).map(|a| (e(a), 100)).collect();
    let initial_total = 100 * accounts as Value;
    ServeLoad {
        workload: Workload {
            name: format!("serve-contended-{sessions}x{txns_per_session}@{accounts}"),
            nest,
            programs,
            breakpoints,
            initial,
            arrivals: vec![0; sessions * txns_per_session],
        },
        session_txns,
        initial_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_load_certifies() {
        let load = partitioned_load(4, 8);
        assert_eq!(load.txn_count(), 32);
        assert_eq!(load.session_txns.len(), 4);
        assert!(
            load.certify().is_some(),
            "forward-chain sessions must earn a static certificate"
        );
        // Footprints of different sessions are disjoint.
        let fp = |t: usize| load.workload.programs[t].footprint();
        assert!(fp(0).iter().all(|e| !fp(8).contains(e)));
    }

    #[test]
    fn contended_load_conserves_and_does_not_certify() {
        let load = contended_load(4, 6, 4, 3);
        assert_eq!(load.txn_count(), 24);
        assert_eq!(load.initial_total, 400);
        assert!(
            load.certify().is_none(),
            "opposing transfers with atomic audits must be denied"
        );
    }
}
