//! `mla-check` — a black-box multilevel-atomicity history checker.
//!
//! Everything else in this workspace *schedules*; this crate *audits*.
//! It takes a recorded history — steps, entities, a nest, and a
//! breakpoint specification, either captured from the in-tree harnesses
//! or parsed from the line-oriented text format in [`format`] — and
//! decides multilevel atomicity after the fact, the MLA analogue of
//! dbcop (Biswas & Enea, "On the Complexity of Checking Transactional
//! Consistency", PAPERS.md 1908.04509):
//!
//! * [`history`] — the [`History`](history::History) record: nest,
//!   per-transaction breakpoint marks, declared entities, execution.
//!   Implements [`BreakpointSpecification`] directly (restricting marks
//!   to whatever step prefix it is asked about), so the same record
//!   drives the full check, projections, and the weak-mode search.
//! * [`format`] — parser and writer for the `mla-history v1` text
//!   format, with `parse(format(h)) == h` pinned by proptest.
//! * [`decompose`] — the communication-graph decomposition: transactions
//!   sharing no entity (even transitively) cannot constrain each other,
//!   so each connected component is checked separately.
//! * [`checker`] — the polynomial strong mode per component: replay the
//!   recorded steps through the online closure engine
//!   ([`ClosureEngine`]), retiring transactions by eviction, then either
//!   build the witness total order one retired batch at a time
//!   (`mla-core::extend`, Lemma 1) or report a concrete violation cycle
//!   with the offending steps named.
//! * [`weak`] — the constrained-linearization fallback for
//!   weaker-than-recorded dependency info: when only the read-from
//!   values are trusted (not the recorded interleaving), deciding
//!   whether *some* value-consistent ordering is correctable mirrors
//!   dbcop's NP-complete side, searched with prefix-closure pruning.
//! * [`gen`] — a `testgen`-style seeded random history generator plus
//!   the three mutation operators the differential suite uses (adjacent
//!   step swap, breakpoint drop, read-from rewrite).
//!
//! The `mla-check` binary exposes all of it: `mla-check check FILE...`
//! exits nonzero on violation (`--json` for machine-readable
//! diagnostics), `mla-check gen` writes a seeded corpus.
//!
//! [`BreakpointSpecification`]: mla_core::spec::BreakpointSpecification
//! [`ClosureEngine`]: mla_core::ClosureEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod decompose;
pub mod format;
pub mod gen;
pub mod history;
pub mod weak;

pub use checker::{check, Verdict, Violation};
pub use decompose::communication_clusters;
pub use format::{parse, write as format_history, FormatError};
pub use gen::{generate, mutate, GenConfig, Mutation, MUTATIONS};
pub use history::{History, HistoryError};
pub use weak::{check_weak, WeakVerdict};
