//! The checkable history record.
//!
//! A [`History`] is everything Theorem 2 needs, captured black-box: the
//! nest, each transaction's breakpoint marks, the set of entities the
//! system declared, and the recorded execution. It is *canonical* —
//! marks sorted and deduplicated, declared entities reduced to the ones
//! no step uses — so structural equality is format round-trip equality.

use mla_core::breakpoints::BreakpointDescription;
use mla_core::nest::Nest;
use mla_core::spec::BreakpointSpecification;
use mla_model::{EntityId, Execution, Step, TxnId};

/// Why a history record is malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryError {
    /// A step names a transaction outside the nest.
    TxnOutsideNest {
        /// The offending transaction.
        txn: TxnId,
        /// Transactions the nest covers.
        nest_txns: usize,
    },
    /// Breakpoint marks were given for a transaction outside the nest.
    MarksOutsideNest {
        /// The offending transaction index.
        txn: usize,
        /// Transactions the nest covers.
        nest_txns: usize,
    },
    /// A transaction's marks list the wrong number of mid levels.
    WrongLevelCount {
        /// The transaction.
        txn: TxnId,
        /// Expected mid levels (`k - 2`).
        expected: usize,
        /// Levels given.
        found: usize,
    },
    /// A mark position is invalid for the transaction's recorded steps
    /// (out of `1..=len-1`, or the levels do not refine).
    BadMarks {
        /// The transaction.
        txn: TxnId,
        /// The underlying breakpoint error, rendered.
        detail: String,
    },
    /// A transaction has breakpoint marks but no recorded steps.
    MarksWithoutSteps {
        /// The transaction.
        txn: TxnId,
    },
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::TxnOutsideNest { txn, nest_txns } => {
                write!(f, "step transaction {txn} outside nest of {nest_txns}")
            }
            HistoryError::MarksOutsideNest { txn, nest_txns } => {
                write!(f, "marks for t{txn} outside nest of {nest_txns}")
            }
            HistoryError::WrongLevelCount {
                txn,
                expected,
                found,
            } => {
                write!(f, "{txn}: {found} mark levels, nest needs {expected}")
            }
            HistoryError::BadMarks { txn, detail } => write!(f, "{txn}: {detail}"),
            HistoryError::MarksWithoutSteps { txn } => {
                write!(f, "{txn} has breakpoint marks but no steps")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// A recorded history: the checker's sole input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct History {
    nest: Nest,
    /// `marks[t][j]` — level-`j+2` breakpoint positions of transaction
    /// `t`, ascending. Dense over the nest; `k - 2` levels per txn.
    marks: Vec<Vec<Vec<usize>>>,
    /// Entities declared by the system but touched by no step,
    /// ascending. (Used entities are implicit in the execution.)
    extra_entities: Vec<EntityId>,
    exec: Execution,
}

impl History {
    /// Builds and canonicalizes a history. `marks` may be shorter than
    /// the nest (missing transactions get no mid-level breakpoints) and
    /// entries may be empty (normalized to `k - 2` empty levels), but a
    /// transaction with any marks must have recorded steps that the
    /// positions fit.
    pub fn new(
        nest: Nest,
        marks: Vec<Vec<Vec<usize>>>,
        extra_entities: Vec<EntityId>,
        exec: Execution,
    ) -> Result<Self, HistoryError> {
        let k = nest.k();
        let nest_txns = nest.txn_count();
        if marks.len() > nest_txns {
            return Err(HistoryError::MarksOutsideNest {
                txn: marks.len() - 1,
                nest_txns,
            });
        }
        let mut lens = vec![0usize; nest_txns];
        for s in exec.steps() {
            let Some(len) = lens.get_mut(s.txn.index()) else {
                return Err(HistoryError::TxnOutsideNest {
                    txn: s.txn,
                    nest_txns,
                });
            };
            *len += 1;
        }
        let mut dense = vec![vec![Vec::new(); k - 2]; nest_txns];
        for (t, levels) in marks.into_iter().enumerate() {
            let txn = TxnId(t as u32);
            if levels.is_empty() {
                continue;
            }
            if levels.len() != k - 2 {
                return Err(HistoryError::WrongLevelCount {
                    txn,
                    expected: k - 2,
                    found: levels.len(),
                });
            }
            let mut canon: Vec<Vec<usize>> = levels
                .into_iter()
                .map(|mut l| {
                    l.sort_unstable();
                    l.dedup();
                    l
                })
                .collect();
            if canon.iter().all(|l| l.is_empty()) {
                continue;
            }
            let len = lens[t];
            if len == 0 {
                return Err(HistoryError::MarksWithoutSteps { txn });
            }
            BreakpointDescription::from_mid_levels(k, len, &canon).map_err(|e| {
                HistoryError::BadMarks {
                    txn,
                    detail: e.to_string(),
                }
            })?;
            std::mem::swap(&mut dense[t], &mut canon);
        }
        let mut used: Vec<EntityId> = exec.steps().iter().map(|s| s.entity).collect();
        used.sort_unstable();
        used.dedup();
        let mut extra = extra_entities;
        extra.sort_unstable();
        extra.dedup();
        extra.retain(|e| used.binary_search(e).is_err());
        Ok(History {
            nest,
            marks: dense,
            extra_entities: extra,
            exec,
        })
    }

    /// Captures a history from a harness run: reads each transaction's
    /// breakpoint description off `spec` for the steps it actually
    /// performed.
    pub fn from_execution(
        exec: &Execution,
        nest: &Nest,
        spec: &dyn BreakpointSpecification,
    ) -> Result<Self, HistoryError> {
        let k = nest.k();
        let nest_txns = nest.txn_count();
        let mut by_txn: Vec<Vec<Step>> = vec![Vec::new(); nest_txns];
        for &s in exec.steps() {
            let Some(steps) = by_txn.get_mut(s.txn.index()) else {
                return Err(HistoryError::TxnOutsideNest {
                    txn: s.txn,
                    nest_txns,
                });
            };
            steps.push(s);
        }
        let marks = by_txn
            .iter()
            .enumerate()
            .map(|(t, steps)| {
                if steps.is_empty() {
                    return Vec::new();
                }
                let bd = spec.describe(TxnId(t as u32), steps);
                assert_eq!(bd.k(), k, "spec depth must match nest depth");
                (2..k).map(|lvl| bd.boundaries(lvl)).collect()
            })
            .collect();
        History::new(nest.clone(), marks, Vec::new(), exec.clone())
    }

    /// The nest.
    pub fn nest(&self) -> &Nest {
        &self.nest
    }

    /// The recorded execution.
    pub fn exec(&self) -> &Execution {
        &self.exec
    }

    /// A transaction's mid-level marks (`k - 2` ascending position
    /// lists; level `j + 2` at index `j`).
    pub fn marks(&self, t: TxnId) -> &[Vec<usize>] {
        &self.marks[t.index()]
    }

    /// Entities declared but never touched.
    pub fn extra_entities(&self) -> &[EntityId] {
        &self.extra_entities
    }
}

impl BreakpointSpecification for History {
    fn k(&self) -> usize {
        self.nest.k()
    }

    /// Describes `steps.len()` steps of `t` from the recorded marks.
    /// Positions past the prefix are dropped, so the same history
    /// record soundly describes any step *prefix* — which is exactly
    /// what the weak-mode search and cluster projections ask about.
    fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
        let k = self.nest.k();
        let n = steps.len();
        let mids: Vec<Vec<usize>> = match self.marks.get(t.index()) {
            Some(levels) => levels
                .iter()
                .map(|l| l.iter().copied().filter(|&p| p < n).collect())
                .collect(),
            None => vec![Vec::new(); k - 2],
        };
        BreakpointDescription::from_mid_levels(k, n, &mids)
            .expect("restricting validated marks preserves well-formedness")
    }

    /// Reads the boundary before the last of `steps` off the recorded
    /// marks: the coarsest mid level marking position `len - 1`, or `k`.
    /// Marks refine, so the first level that has the position is the
    /// coarsest; level 1 never breaks inside a transaction.
    fn boundary_level(&self, t: TxnId, steps: &[Step]) -> usize {
        let k = self.nest.k();
        let pos = steps.len().saturating_sub(1);
        if pos == 0 {
            return k;
        }
        self.marks
            .get(t.index())
            .and_then(|levels| levels.iter().position(|l| l.binary_search(&pos).is_ok()))
            .map_or(k, |j| j + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_core::spec::AtomicSpec;

    fn step(t: u32, seq: u32, e: u32) -> Step {
        Step {
            txn: TxnId(t),
            seq,
            entity: EntityId(e),
            observed: 0,
            wrote: 0,
        }
    }

    #[test]
    fn canonicalizes_marks_and_entities() {
        let exec = Execution::new(vec![step(0, 0, 3), step(0, 1, 3), step(0, 2, 4)]).unwrap();
        let h = History::new(
            Nest::new(3, vec![vec![0]]).unwrap(),
            vec![vec![vec![2, 1, 2]]],
            vec![EntityId(3), EntityId(9), EntityId(9)],
            exec,
        )
        .unwrap();
        assert_eq!(h.marks(TxnId(0)), &[vec![1, 2]]);
        assert_eq!(h.extra_entities(), &[EntityId(9)]);
    }

    #[test]
    fn rejects_marks_out_of_range() {
        let exec = Execution::new(vec![step(0, 0, 0), step(0, 1, 0)]).unwrap();
        let err = History::new(
            Nest::new(3, vec![vec![0]]).unwrap(),
            vec![vec![vec![2]]],
            vec![],
            exec,
        )
        .unwrap_err();
        assert!(matches!(err, HistoryError::BadMarks { .. }));
    }

    #[test]
    fn describe_restricts_to_prefixes() {
        let exec = Execution::new((0..4).map(|s| step(0, s, 0)).collect()).unwrap();
        let h = History::new(
            Nest::new(3, vec![vec![0]]).unwrap(),
            vec![vec![vec![1, 3]]],
            vec![],
            exec,
        )
        .unwrap();
        let steps: Vec<Step> = (0..2).map(|s| step(0, s, 0)).collect();
        let bd = h.describe(TxnId(0), &steps);
        assert_eq!(bd.boundaries(2), vec![1]);
        assert_eq!(bd.step_count(), 2);
    }

    #[test]
    fn boundary_level_matches_the_default_on_prefixes() {
        use crate::gen::{generate, GenConfig};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        /// `History` seen through `describe` only, so
        /// `boundary_level` is the trait's default.
        struct ViaDescribe<'a>(&'a History);
        impl BreakpointSpecification for ViaDescribe<'_> {
            fn k(&self) -> usize {
                self.0.k()
            }
            fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
                self.0.describe(t, steps)
            }
        }

        let mut rng = SmallRng::seed_from_u64(7);
        let mut compared = 0;
        for _ in 0..200 {
            let cfg = GenConfig {
                txns: rng.gen_range(1..=5usize),
                k: rng.gen_range(2..=5usize),
                max_len: 6,
                break_pct: rng.gen_range(0..=90u32),
                ..GenConfig::default()
            };
            let h = generate(&cfg, &mut rng);
            for t in h.exec().txns() {
                let steps: Vec<Step> = h
                    .exec()
                    .txn_steps(t)
                    .into_iter()
                    .map(|i| h.exec().steps()[i])
                    .collect();
                let n = rng.gen_range(0..=steps.len());
                let prefix = &steps[..n];
                assert_eq!(
                    h.boundary_level(t, prefix),
                    ViaDescribe(&h).boundary_level(t, prefix),
                    "{t} after {n} of {} steps",
                    steps.len()
                );
                compared += 1;
            }
        }
        assert!(compared > 200, "too few prefixes compared: {compared}");
    }

    #[test]
    fn from_execution_round_trips_the_spec() {
        let exec = Execution::new(vec![
            step(0, 0, 0),
            step(1, 0, 1),
            step(0, 1, 1),
            step(1, 1, 0),
        ])
        .unwrap();
        let nest = Nest::flat(2);
        let h = History::from_execution(&exec, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert_eq!(h.exec(), &exec);
        assert_eq!(h.marks(TxnId(0)), &[] as &[Vec<usize>]);
    }

    #[test]
    fn from_execution_rejects_a_txn_outside_the_nest() {
        let exec = Execution::new(vec![step(0, 0, 0), step(2, 0, 0), step(1, 0, 1)]).unwrap();
        let err = History::from_execution(&exec, &Nest::flat(2), &AtomicSpec { k: 2 }).unwrap_err();
        assert_eq!(
            err,
            HistoryError::TxnOutsideNest {
                txn: TxnId(2),
                nest_txns: 2
            }
        );
    }
}
