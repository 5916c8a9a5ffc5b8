//! Multilevel atomicity — the primary contribution of Lynch (1982).
//!
//! This crate implements §4–§5 and §7 of the paper:
//!
//! * [`nest`] — k-nests of transactions and `level(t, t')` (§4.2);
//! * [`breakpoints`] — k-level breakpoint descriptions over transaction
//!   executions (§4.2);
//! * [`spec`] — breakpoint specifications `𝔅` (§4.3) and the derived
//!   per-execution checking context `𝔍(𝔅, e)`;
//! * [`atomicity`] — membership in `C(π, 𝔅)`: is an execution multilevel
//!   atomic? (§4.3);
//! * [`closure`] — the coherent closure of `<=_e` and its acyclicity, in
//!   both a literal reference form and an optimized frontier form (§4.2);
//! * [`theorem`] — Theorem 2's decision procedure for *correctability*
//!   (§5.2), returning either a multilevel-atomic witness or a concrete
//!   dependency cycle;
//! * [`extend`] — the constructive combinatorial Lemma 1 (§5.1 +
//!   Appendix): extending a coherent partial order to a coherent total
//!   order by stage-wise SCC condensation;
//! * [`action_tree`] — the §7 mapping onto the nested transaction model;
//! * [`serializability`] — the classical baseline (conflict graphs,
//!   \[EGLT\]), which Theorem 2 generalizes and to which it provably
//!   collapses at `k = 2`.
//!
//! # Quick example
//!
//! ```
//! use mla_core::nest::Nest;
//! use mla_core::spec::AtomicSpec;
//! use mla_core::theorem::{decide, Correctability};
//! use mla_model::{Execution, Step, TxnId, EntityId};
//!
//! // Two transactions interleaved on disjoint entities.
//! let step = |t: u32, s: u32, x: u32| Step {
//!     txn: TxnId(t), seq: s, entity: EntityId(x), observed: 0, wrote: 0,
//! };
//! let e = Execution::new(vec![
//!     step(0, 0, 1), step(1, 0, 2), step(0, 1, 3), step(1, 1, 4),
//! ]).unwrap();
//!
//! // Flat 2-nest + atomic breakpoints = classical serializability.
//! let nest = Nest::flat(2);
//! let verdict = decide(&e, &nest, &AtomicSpec { k: 2 }).unwrap();
//! match verdict {
//!     Correctability::Correctable { witness } => assert!(witness.is_serial()),
//!     Correctability::NotCorrectable { cycle } => panic!("{cycle}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The closure/extension algorithms iterate dense step indices while
// indexing several parallel structures (frontier rows, contexts, preds);
// the index is the natural object and iterator rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod action_tree;
pub mod atomicity;
pub mod breakpoints;
pub mod cert;
pub mod closure;
pub mod engine;
pub mod extend;
pub mod nest;
pub mod relations;
pub mod serializability;
pub mod spec;
pub mod theorem;

pub use atomicity::{check_multilevel_atomic, is_multilevel_atomic, MlaCriterion};
pub use breakpoints::BreakpointDescription;
pub use cert::StaticCert;
pub use closure::CoherentClosure;
pub use engine::{
    ClosureEngine, CycleWitness, EngineCounters, PairProbe, ParallelStats, RelationSignature,
};
pub use extend::{extend_to_total_order, witness_execution};
pub use nest::{Nest, NestBuilder};
pub use spec::{AtomicSpec, BreakpointSpecification, ExecContext, FixedSpec, FreeSpec};
pub use theorem::{decide, is_correctable, Correctability};
