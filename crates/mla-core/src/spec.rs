//! Breakpoint specifications and the per-execution checking context.
//!
//! A *k-level breakpoint specification* `𝔅` (§4.3) assigns a breakpoint
//! description to every execution of every transaction — transactions
//! branch, so breakpoints are a function of the run, not of static text.
//! [`BreakpointSpecification`] is that family; implementations should obey
//! the §6 *compatibility* condition (two runs sharing a prefix agree on the
//! breakpoint immediately after the prefix), which holds automatically for
//! specifications that look only at step positions and the steps
//! themselves (never at future steps).
//!
//! [`ExecContext`] derives, from a concrete execution `e`, the natural
//! interleaving specification `𝔍(𝔅, e)` of §4.3: each transaction's step
//! subsequence plus its breakpoint description, with dense local indices
//! and O(1) level / segment-end lookups for the checkers.

use std::collections::HashMap;

use mla_model::{Execution, Step, TxnId};

use crate::breakpoints::BreakpointDescription;
use crate::nest::Nest;

/// A k-level breakpoint specification `𝔅`: for each transaction and each
/// of its executions (given as the step subsequence actually performed),
/// the breakpoint description.
pub trait BreakpointSpecification {
    /// The nest depth all produced descriptions use.
    fn k(&self) -> usize;

    /// The breakpoint description for transaction `t` having performed
    /// exactly `steps` (its subsequence of some system execution, in
    /// order). The result must describe `steps.len()` steps and use depth
    /// [`BreakpointSpecification::k`].
    fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription;

    /// The coarsest level whose breakpoints separate the last two of
    /// `steps`, or `k` when there are fewer than two (level `k` breaks
    /// everywhere). Under the §6 compatibility condition this is all
    /// that appending the last step adds to the description of the
    /// others, which is how [`ClosureEngine`](crate::ClosureEngine)
    /// extends descriptions in place. The default reads it off
    /// [`describe`](Self::describe); specifications that know the
    /// breakpoint after a prefix directly should override it.
    fn boundary_level(&self, t: TxnId, steps: &[Step]) -> usize {
        let k = self.k();
        let Some(prev) = steps.len().checked_sub(2) else {
            return k;
        };
        let bd = self.describe(t, steps);
        (1..k).find(|&l| bd.breakpoint_after(l, prev)).unwrap_or(k)
    }
}

/// A borrowed specification is one: an engine can hold `&S` and leave
/// the specification with its owner.
impl<S: BreakpointSpecification + ?Sized> BreakpointSpecification for &S {
    fn k(&self) -> usize {
        (**self).k()
    }

    fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
        (**self).describe(t, steps)
    }

    fn boundary_level(&self, t: TxnId, steps: &[Step]) -> usize {
        (**self).boundary_level(t, steps)
    }
}

/// The specification making every transaction atomic at every mid level:
/// multilevel atomicity under this specification equals serializability
/// regardless of the nest.
#[derive(Clone, Copy, Debug)]
pub struct AtomicSpec {
    /// Nest depth.
    pub k: usize,
}

impl BreakpointSpecification for AtomicSpec {
    fn k(&self) -> usize {
        self.k
    }

    fn describe(&self, _t: TxnId, steps: &[Step]) -> BreakpointDescription {
        BreakpointDescription::atomic(self.k, steps.len())
    }
}

/// The specification placing breakpoints everywhere at every mid level:
/// any `π(2)`-related transactions may interleave arbitrarily. With the
/// `k = 3` nest this is exactly Garcia-Molina's *compatibility sets* \[G\],
/// which the paper cites as the two-level special case of multilevel
/// atomicity.
#[derive(Clone, Copy, Debug)]
pub struct FreeSpec {
    /// Nest depth.
    pub k: usize,
}

impl BreakpointSpecification for FreeSpec {
    fn k(&self) -> usize {
        self.k
    }

    fn describe(&self, _t: TxnId, steps: &[Step]) -> BreakpointDescription {
        BreakpointDescription::free(self.k, steps.len())
    }
}

/// A specification given extensionally: a fixed description per
/// transaction. Intended for tests and small examples where the executions
/// are known in advance; panics at context-build time if a description's
/// length does not match the transaction's subsequence.
#[derive(Clone, Debug, Default)]
pub struct FixedSpec {
    k: usize,
    map: HashMap<TxnId, BreakpointDescription>,
}

impl FixedSpec {
    /// Builds a fixed specification of depth `k`.
    pub fn new(k: usize) -> Self {
        FixedSpec {
            k,
            map: HashMap::new(),
        }
    }

    /// Sets transaction `t`'s description.
    pub fn set(mut self, t: TxnId, bd: BreakpointDescription) -> Self {
        assert_eq!(bd.k(), self.k, "description depth must match spec depth");
        self.map.insert(t, bd);
        self
    }
}

impl BreakpointSpecification for FixedSpec {
    fn k(&self) -> usize {
        self.k
    }

    fn describe(&self, t: TxnId, steps: &[Step]) -> BreakpointDescription {
        match self.map.get(&t) {
            Some(bd) => {
                assert_eq!(
                    bd.step_count(),
                    steps.len(),
                    "FixedSpec: transaction {t} performed {} steps but its \
                     description covers {}",
                    steps.len(),
                    bd.step_count()
                );
                bd.clone()
            }
            None => BreakpointDescription::atomic(self.k, steps.len()),
        }
    }
}

/// Errors from [`ExecContext::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContextError {
    /// A step names a transaction outside the nest.
    TxnOutsideNest {
        /// The offending transaction.
        txn: TxnId,
        /// Transactions the nest covers (`t0 .. t(n-1)`).
        nest_txns: usize,
    },
    /// The specification produced a description of the wrong depth.
    DepthMismatch {
        /// The transaction whose description mismatched.
        txn: TxnId,
        /// The nest's k.
        nest_k: usize,
        /// The description's k.
        bd_k: usize,
    },
    /// The specification produced a description of the wrong length.
    LengthMismatch {
        /// The transaction whose description mismatched.
        txn: TxnId,
        /// Steps the transaction performed in the execution.
        steps: usize,
        /// Steps the description covers.
        described: usize,
    },
}

impl std::fmt::Display for ContextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContextError::TxnOutsideNest { txn, nest_txns } => {
                write!(f, "step transaction {txn} outside nest of {nest_txns} txns")
            }
            ContextError::DepthMismatch { txn, nest_k, bd_k } => write!(
                f,
                "transaction {txn}: description depth {bd_k} != nest depth {nest_k}"
            ),
            ContextError::LengthMismatch {
                txn,
                steps,
                described,
            } => write!(
                f,
                "transaction {txn}: {steps} steps performed, {described} described"
            ),
        }
    }
}

impl std::error::Error for ContextError {}

/// The derived interleaving specification `𝔍(𝔅, e)` plus dense indices:
/// everything the coherence machinery needs to answer, in O(1),
/// "what is `level(t, t')`?" and "where does this step's level-`i`
/// segment end?".
#[derive(Debug)]
pub struct ExecContext<'a> {
    exec: &'a Execution,
    nest: &'a Nest,
    /// Local dense txn index -> TxnId (order of first appearance in `e`).
    txns: Vec<TxnId>,
    /// Global step index -> local txn index.
    step_txn: Vec<usize>,
    /// Global step index -> seq within its transaction.
    step_seq: Vec<usize>,
    /// Local txn index -> global step indices, ascending.
    txn_steps: Vec<Vec<usize>>,
    /// Local txn index -> breakpoint description over its subsequence.
    bds: Vec<BreakpointDescription>,
}

impl<'a> ExecContext<'a> {
    /// Assembles the context for checking `exec` against `nest` and
    /// `spec`.
    pub fn new(
        exec: &'a Execution,
        nest: &'a Nest,
        spec: &dyn BreakpointSpecification,
    ) -> Result<Self, ContextError> {
        let mut txns: Vec<TxnId> = Vec::new();
        let mut local: HashMap<TxnId, usize> = HashMap::new();
        let mut step_txn = Vec::with_capacity(exec.len());
        let mut step_seq = Vec::with_capacity(exec.len());
        let mut txn_steps: Vec<Vec<usize>> = Vec::new();
        for (i, s) in exec.steps().iter().enumerate() {
            if s.txn.index() >= nest.txn_count() {
                return Err(ContextError::TxnOutsideNest {
                    txn: s.txn,
                    nest_txns: nest.txn_count(),
                });
            }
            let lt = *local.entry(s.txn).or_insert_with(|| {
                txns.push(s.txn);
                txn_steps.push(Vec::new());
                txns.len() - 1
            });
            step_txn.push(lt);
            step_seq.push(s.seq as usize);
            txn_steps[lt].push(i);
        }
        let mut bds = Vec::with_capacity(txns.len());
        for (lt, &t) in txns.iter().enumerate() {
            let sub: Vec<Step> = txn_steps[lt].iter().map(|&i| exec.steps()[i]).collect();
            let bd = spec.describe(t, &sub);
            if bd.k() != nest.k() {
                return Err(ContextError::DepthMismatch {
                    txn: t,
                    nest_k: nest.k(),
                    bd_k: bd.k(),
                });
            }
            if bd.step_count() != sub.len() {
                return Err(ContextError::LengthMismatch {
                    txn: t,
                    steps: sub.len(),
                    described: bd.step_count(),
                });
            }
            bds.push(bd);
        }
        Ok(ExecContext {
            exec,
            nest,
            txns,
            step_txn,
            step_seq,
            txn_steps,
            bds,
        })
    }

    /// The underlying execution.
    pub fn exec(&self) -> &Execution {
        self.exec
    }

    /// The nest.
    pub fn nest(&self) -> &Nest {
        self.nest
    }

    /// Number of steps.
    pub fn n(&self) -> usize {
        self.exec.len()
    }

    /// Number of distinct transactions appearing in the execution.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Local txn index of global step `i`.
    pub fn txn_of(&self, i: usize) -> usize {
        self.step_txn[i]
    }

    /// Sequence number (within its transaction) of global step `i`.
    pub fn seq_of(&self, i: usize) -> usize {
        self.step_seq[i]
    }

    /// TxnId of a local txn index.
    pub fn txn_id(&self, local: usize) -> TxnId {
        self.txns[local]
    }

    /// Global step indices of a local txn, ascending.
    pub fn steps_of(&self, local: usize) -> &[usize] {
        &self.txn_steps[local]
    }

    /// The global index of local txn `t`'s step with sequence number `seq`.
    pub fn global_of(&self, local: usize, seq: usize) -> usize {
        self.txn_steps[local][seq]
    }

    /// Breakpoint description of a local txn.
    pub fn bd(&self, local: usize) -> &BreakpointDescription {
        &self.bds[local]
    }

    /// `level(t, t')` between two local txn indices.
    pub fn level(&self, a: usize, b: usize) -> usize {
        self.nest.level(self.txns[a], self.txns[b])
    }

    /// The sequence number ending the `B_t(level)`-segment that contains
    /// step `seq` of local txn `t`.
    pub fn segment_end(&self, local: usize, level: usize, seq: usize) -> usize {
        self.bds[local].segment_end(level, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mla_model::EntityId;

    fn step(txn: u32, seq: u32, entity: u32) -> Step {
        Step {
            txn: TxnId(txn),
            seq,
            entity: EntityId(entity),
            observed: 0,
            wrote: 0,
        }
    }

    fn sample_exec() -> Execution {
        Execution::new(vec![
            step(1, 0, 0),
            step(0, 0, 1),
            step(1, 1, 2),
            step(0, 1, 3),
        ])
        .unwrap()
    }

    #[test]
    fn context_indices() {
        let e = sample_exec();
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert_eq!(ctx.n(), 4);
        assert_eq!(ctx.txn_count(), 2);
        // t1 appears first -> local 0.
        assert_eq!(ctx.txn_id(0), TxnId(1));
        assert_eq!(ctx.txn_id(1), TxnId(0));
        assert_eq!(ctx.txn_of(0), 0);
        assert_eq!(ctx.txn_of(1), 1);
        assert_eq!(ctx.steps_of(0), &[0, 2]);
        assert_eq!(ctx.steps_of(1), &[1, 3]);
        assert_eq!(ctx.seq_of(3), 1);
        assert_eq!(ctx.global_of(0, 1), 2);
    }

    #[test]
    fn level_passthrough() {
        let e = sample_exec();
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        assert_eq!(ctx.level(0, 1), 1);
        assert_eq!(ctx.level(0, 0), 2);
    }

    #[test]
    fn atomic_spec_segments() {
        let e = sample_exec();
        let nest = Nest::flat(2);
        let ctx = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
        // Level 1: the whole 2-step subsequence is one segment.
        assert_eq!(ctx.segment_end(0, 1, 0), 1);
        assert_eq!(ctx.segment_end(0, 2, 0), 0, "level k is singletons");
    }

    #[test]
    fn txn_outside_nest_rejected() {
        let e = sample_exec();
        let nest = Nest::flat(1); // covers only t0
        let err = ExecContext::new(&e, &nest, &AtomicSpec { k: 2 }).unwrap_err();
        assert_eq!(
            err,
            ContextError::TxnOutsideNest {
                txn: TxnId(1),
                nest_txns: 1
            }
        );
    }

    #[test]
    fn depth_mismatch_rejected() {
        let e = sample_exec();
        let nest = Nest::flat(2); // k = 2
        let err = ExecContext::new(&e, &nest, &AtomicSpec { k: 3 }).unwrap_err();
        assert!(matches!(
            err,
            ContextError::DepthMismatch {
                nest_k: 2,
                bd_k: 3,
                ..
            }
        ));
    }

    #[test]
    fn fixed_spec_length_check() {
        let e = sample_exec();
        let nest = Nest::flat(2);
        let spec = FixedSpec::new(2).set(TxnId(1), BreakpointDescription::atomic(2, 5));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ExecContext::new(&e, &nest, &spec)
        }));
        assert!(result.is_err(), "length mismatch should panic in FixedSpec");
    }

    #[test]
    fn fixed_spec_defaults_to_atomic() {
        let e = sample_exec();
        let nest = Nest::flat(2);
        let spec = FixedSpec::new(2);
        let ctx = ExecContext::new(&e, &nest, &spec).unwrap();
        assert_eq!(ctx.bd(0).segments(1), vec![(0, 1)]);
    }

    #[test]
    fn free_spec_singleton_segments() {
        let e = sample_exec();
        let nest = Nest::new(3, vec![vec![0], vec![0]]).unwrap();
        let ctx = ExecContext::new(&e, &nest, &FreeSpec { k: 3 }).unwrap();
        assert_eq!(ctx.bd(0).segments(2).len(), 2, "each step its own segment");
    }
}
