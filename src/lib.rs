//! # multilevel-atomicity
//!
//! A Rust reproduction of Nancy Lynch's *Multilevel Atomicity — a New
//! Correctness Criterion for Database Concurrency Control* (1982):
//! the theory (k-nests, breakpoints, coherent closure, the
//! characterization theorem and its constructive witness), the
//! migrating-transaction simulation world it presumes, the concurrency
//! controls §6 sketches, the paper's two running applications, and an
//! experiment harness answering the paper's open questions.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`graph`] — SCC/condensation, topological order, incremental cycle
//!   detection, bitsets.
//! * [`model`] — §3's process/variable model: steps, executions, the
//!   dependency order `<=_e`, equivalence, transaction programs,
//!   application databases.
//! * [`core`] — §4–§5, §7: nests, breakpoints, coherence, the coherent
//!   closure, Theorem 2, Lemma 1, nested action trees, and the classical
//!   serializability baseline.
//! * [`storage`] — the journaling entity store with cascading undo.
//! * [`txn`] — runtime transactions with online (prefix-compatible)
//!   breakpoints.
//! * [`sim`] — the discrete-event migrating-transaction simulator.
//! * [`cc`] — concurrency controls: serial, strict 2PL, timestamp
//!   ordering, MLA cycle detection (SGT when run on a flat 2-nest), MLA
//!   cycle prevention.
//! * [`workload`] — banking, CAD, and synthetic workload generators.
//! * [`lint`] — static breakpoint-spec analysis: well-formedness, spec
//!   smells, and §5 safety certification with stable `MLA0xx` codes.
//! * [`serve`] — the live concurrent transaction service: worker threads
//!   on MVCC storage, the MLA schedulers gating step admission.
//! * [`check`] — the black-box history checker: text history format,
//!   coherent-closure saturation per communication cluster, and the
//!   constrained-linearization fallback for value-only dependency info.
//! * [`explore`] — exhaustive schedule exploration for bounded nests:
//!   sleep-set DPOR using the closure-commutativity probe as the
//!   independence relation, brute-force trace census, and planted
//!   interleaving-dependent mutants for harness-sensitivity tests.
//!
//! ## Quickstart
//!
//! ```
//! use multilevel_atomicity::core::nest::Nest;
//! use multilevel_atomicity::core::spec::AtomicSpec;
//! use multilevel_atomicity::core::theorem::{decide, Correctability};
//! use multilevel_atomicity::model::{EntityId, Execution, Step, TxnId};
//!
//! let step = |t: u32, s: u32, x: u32| Step {
//!     txn: TxnId(t), seq: s, entity: EntityId(x), observed: 0, wrote: 0,
//! };
//! // Two transactions, interleaved, conflicting in aligned order.
//! let e = Execution::new(vec![
//!     step(0, 0, 7), step(1, 0, 8), step(0, 1, 8), step(1, 1, 9),
//! ]).unwrap();
//! let verdict = decide(&e, &Nest::flat(2), &AtomicSpec { k: 2 }).unwrap();
//! assert!(matches!(verdict, Correctability::Correctable { .. }));
//! ```

#![forbid(unsafe_code)]

pub use mla_cc as cc;
pub use mla_check as check;
pub use mla_core as core;
pub use mla_explore as explore;
pub use mla_graph as graph;
pub use mla_lint as lint;
pub use mla_model as model;
pub use mla_serve as serve;
pub use mla_sim as sim;
pub use mla_storage as storage;
pub use mla_txn as txn;
pub use mla_workload as workload;
