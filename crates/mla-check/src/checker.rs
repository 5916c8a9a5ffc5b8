//! The strong-mode check: a grant-only closure-engine replay.
//!
//! Per communication-graph cluster ([`communication_clusters`]), the
//! recorded steps are replayed in order through `mla-core`'s
//! [`ClosureEngine`], which maintains the coherent closure online and
//! rejects the first step that would make it cyclic (Theorem 2). A
//! rejection is a violation; the cycle is then located by
//! [`decide`] over the whole cluster and mapped back to the recorded
//! step indices, so the diagnostic is the batch saturation's.
//!
//! A replay with no rejection yields the witness batch by batch. After
//! each transaction's last step it is finished
//! ([`ClosureEngine::finish_txn`]) and the engine evicts every finished
//! transaction that no transaction with steps left reaches in the
//! closure ([`ClosureEngine::retire_unreachable`]); each evicted set is
//! a *retired batch*. Nothing outside a retired batch, or later in the
//! history, is ever related before a step in it, so the engine's rows of
//! the batch, on the batch's columns, are exactly the coherent closure
//! of the batch's projection. Each batch's Lemma 1 witness is read off
//! those rows as the batch retires ([`Extender`] over the engine's
//! [`RetiredBatch`](mla_core::RetiredBatch), one `Extender` for the
//! whole check), with no second saturation. The witnesses concatenated
//! in retirement order are equivalent to the recorded execution, and
//! multilevel atomic because batches do not interleave (DESIGN.md
//! §10.2). The check's working set is the engine's live window, not the
//! cluster.
//!
//! Per-cluster witnesses are concatenated into one global witness:
//! clusters share no entities, so the concatenation is equivalent to
//! the recorded execution, and transactions of different clusters do
//! not interleave in it — an arrangement every breakpoint description
//! permits.

use mla_core::theorem::{decide, Correctability, StepRef};
use mla_core::{ClosureEngine, Extender, FrontierView};
use mla_model::{Execution, Step, TxnId};

use crate::decompose::communication_clusters;
use crate::history::History;

/// Why a history fails: a coherent-closure cycle, located.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The communication cluster (transactions) containing the cycle.
    pub cluster: Vec<TxnId>,
    /// The cycle: each step is related before the next, the last before
    /// the first. `global` indexes the *recorded* execution.
    pub cycle: Vec<StepRef>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "coherent-closure cycle")?;
        for s in &self.cycle {
            write!(f, " {}#{}(@{})", s.txn, s.seq, s.global)?;
        }
        write!(f, " in cluster {{")?;
        for (i, t) in self.cluster.iter().enumerate() {
            write!(f, "{}{t}", if i == 0 { "" } else { " " })?;
        }
        write!(f, "}}")
    }
}

/// The checker's verdict on one history.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// Correctable: `witness` is an equivalent multilevel-atomic
    /// execution, assembled from `clusters` independent components.
    Pass {
        /// Lemma 1's witness total order.
        witness: Execution,
        /// How many communication clusters were checked.
        clusters: usize,
    },
    /// Not correctable.
    Fail {
        /// The located cycle.
        violation: Violation,
    },
}

impl Verdict {
    /// Whether the history passed.
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass { .. })
    }

    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self {
            Verdict::Pass { witness, clusters } => format!(
                "pass: witness total order over {} steps ({clusters} cluster{})",
                witness.len(),
                if *clusters == 1 { "" } else { "s" }
            ),
            Verdict::Fail { violation } => format!("FAIL: {violation}"),
        }
    }

    /// Machine-readable rendering (one JSON object, no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Verdict::Pass { witness, clusters } => {
                let order: Vec<String> = witness
                    .steps()
                    .iter()
                    .map(|s| format!("{{\"txn\":{},\"seq\":{}}}", s.txn.0, s.seq))
                    .collect();
                format!(
                    "{{\"verdict\":\"pass\",\"clusters\":{clusters},\"witness\":[{}]}}",
                    order.join(",")
                )
            }
            Verdict::Fail { violation } => {
                let cycle: Vec<String> = violation
                    .cycle
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"txn\":{},\"seq\":{},\"global\":{}}}",
                            s.txn.0, s.seq, s.global
                        )
                    })
                    .collect();
                let cluster: Vec<String> =
                    violation.cluster.iter().map(|t| t.0.to_string()).collect();
                format!(
                    "{{\"verdict\":\"fail\",\"cluster\":[{}],\"cycle\":[{}]}}",
                    cluster.join(","),
                    cycle.join(",")
                )
            }
        }
    }
}

/// Checks a recorded history for multilevel atomicity (Theorem 2),
/// cluster by cluster. Returns the first violating cluster's cycle, or
/// the concatenated witness.
///
/// Each cluster is replayed through one grant-only [`ClosureEngine`];
/// a rejected step means the closure is cyclic, and the whole cluster
/// is then handed to [`decide`] for the reported cycle. Otherwise the
/// transactions the engine evicts together form a retired batch, and
/// the cluster's witness is the Lemma 1 witness of each batch, read off
/// the engine's rows as the batch retires, in retirement order (see the
/// [module docs](self)).
pub fn check(h: &History) -> Verdict {
    let exec = h.exec();
    let clusters = communication_clusters(exec);
    // Steps each transaction has yet to perform in the replay: one with
    // none left is no eviction source.
    let mut left = vec![0u32; h.nest().txn_count()];
    for s in exec.steps() {
        left[s.txn.index()] += 1;
    }
    // Clusters share no entity, so one engine serves them all: each
    // cluster's last step retires whatever of it is still live.
    let mut engine = ClosureEngine::new(h.nest().clone(), h);
    let mut lemma1 = Extender::default();
    let mut witness: Vec<Step> = Vec::with_capacity(exec.len());
    for (members, indices) in clusters.members.iter().zip(&clusters.step_indices) {
        if !replay(
            &mut engine,
            exec,
            indices,
            &mut left,
            &mut lemma1,
            &mut witness,
        ) {
            return whole_cluster_violation(h, members, indices);
        }
    }
    Verdict::Pass {
        witness: Execution::new(witness)
            .expect("concatenating disjoint-transaction witnesses preserves step order"),
        clusters: clusters.len(),
    }
}

/// Replays one cluster's steps (`indices` into `exec`) through `engine`,
/// finishing each transaction after its last step and evicting then, so
/// the sources are the transactions with steps left. Appends each
/// retired batch's Lemma 1 witness to `witness` as the batch retires.
/// Returns `false` when a step is rejected. The cluster's last step
/// leaves no source, so every member is retired by the time it returns.
fn replay(
    engine: &mut ClosureEngine<&History>,
    exec: &Execution,
    indices: &[usize],
    left: &mut [u32],
    lemma1: &mut Extender,
    witness: &mut Vec<Step>,
) -> bool {
    for &i in indices {
        let step = exec.steps()[i];
        if engine.apply_step(step).is_err() {
            return false;
        }
        engine.commit_step();
        left[step.txn.index()] -= 1;
        if left[step.txn.index()] > 0 {
            continue;
        }
        engine.finish_txn(step.txn);
        engine.retire_unreachable(|batch| {
            let order = lemma1
                .total_order(batch)
                .expect("committed engine state is acyclic");
            witness.extend(order.iter().map(|&v| batch.step(v)));
        });
    }
    debug_assert_eq!(
        engine.live_count(),
        0,
        "a finished cluster leaves nothing live"
    );
    true
}

/// The cluster's closure cycle, from the batch decision procedure over
/// the whole cluster, with step indices mapped back to the recorded
/// execution.
fn whole_cluster_violation(h: &History, members: &[TxnId], indices: &[usize]) -> Verdict {
    let projected: Vec<Step> = indices.iter().map(|&i| h.exec().steps()[i]).collect();
    let proj =
        Execution::new(projected).expect("cluster projection keeps whole transactions in order");
    let verdict =
        decide(&proj, h.nest(), h).expect("History validation guarantees a well-formed context");
    let Correctability::NotCorrectable { cycle } = verdict else {
        unreachable!("the engine rejects a step only on a closure cycle (Theorem 2)")
    };
    let cycle = cycle
        .steps
        .into_iter()
        .map(|s| StepRef {
            global: indices[s.global],
            ..s
        })
        .collect();
    Verdict::Fail {
        violation: Violation {
            cluster: members.to_vec(),
            cycle,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::atomicity::is_multilevel_atomic;
    use mla_core::nest::Nest;
    use mla_model::EntityId;

    fn step(t: u32, seq: u32, e: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed: 0,
            wrote: 0,
        }
    }

    fn history(
        k: usize,
        paths: Vec<Vec<u32>>,
        marks: Vec<Vec<Vec<usize>>>,
        steps: Vec<Step>,
    ) -> History {
        History::new(
            Nest::new(k, paths).unwrap(),
            marks,
            vec![],
            Execution::new(steps).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn serial_weave_passes_with_atomic_witness() {
        let h = history(
            2,
            vec![vec![], vec![]],
            vec![],
            vec![step(0, 0, 0), step(1, 0, 0), step(0, 1, 1), step(1, 1, 1)],
        );
        match check(&h) {
            Verdict::Pass { witness, clusters } => {
                assert_eq!(clusters, 1);
                assert!(witness.equivalent(h.exec()));
                assert!(is_multilevel_atomic(&witness, h.nest(), &h).unwrap());
            }
            v => panic!("expected pass, got {}", v.render()),
        }
    }

    #[test]
    fn crossed_weave_fails_with_located_cycle() {
        let h = history(
            2,
            vec![vec![], vec![]],
            vec![],
            vec![step(0, 0, 0), step(1, 0, 0), step(1, 1, 1), step(0, 1, 1)],
        );
        match check(&h) {
            Verdict::Fail { violation } => {
                assert!(violation.cycle.len() >= 2);
                let mut txns: Vec<TxnId> = violation.cycle.iter().map(|s| s.txn).collect();
                txns.sort_unstable();
                txns.dedup();
                assert!(txns.len() >= 2, "a closure cycle spans transactions");
                for s in &violation.cycle {
                    assert_eq!(h.exec().steps()[s.global].txn, s.txn);
                    assert_eq!(h.exec().steps()[s.global].seq, s.seq);
                }
            }
            v => panic!("expected fail, got {}", v.render()),
        }
    }

    #[test]
    fn violation_is_located_in_the_right_cluster() {
        // Cluster {t0,t1} on x0/x1 is clean; cluster {t2,t3} on x2/x3
        // carries the crossed weave. Globals must point at the latter.
        let h = history(
            2,
            vec![vec![]; 4],
            vec![],
            vec![
                step(0, 0, 0),
                step(2, 0, 2),
                step(1, 0, 0),
                step(3, 0, 2),
                step(3, 1, 3),
                step(2, 1, 3),
                step(0, 1, 1),
                step(1, 1, 1),
            ],
        );
        match check(&h) {
            Verdict::Fail { violation } => {
                assert_eq!(violation.cluster, vec![TxnId(2), TxnId(3)]);
                for s in &violation.cycle {
                    assert!(matches!(s.txn, TxnId(2) | TxnId(3)));
                    assert_eq!(h.exec().steps()[s.global].txn, s.txn);
                }
            }
            v => panic!("expected fail, got {}", v.render()),
        }
    }

    #[test]
    fn empty_history_passes() {
        let h = History::new(
            Nest::new(2, vec![]).unwrap(),
            vec![],
            vec![],
            Execution::empty(),
        )
        .unwrap();
        assert!(check(&h).passed());
    }
}
