//! The experiment harness: one module per experiment in DESIGN.md.
//!
//! The paper (Lynch 1982) is theory-only — it has no tables or figures.
//! DESIGN.md therefore defines an evaluation suite E1–E13 (plus ablations
//! A1, A3, A7 and A8) that answers the questions the paper *poses*:
//!
//! * how much larger than the serial set is `C(π, 𝔅)` (E1, E2, E8);
//! * what does the Theorem 2 check cost relative to the serializability
//!   check (E3, E10, A1);
//! * can multilevel-atomicity schedulers beat serializable ones (E4,
//!   E6, E7, E12), and what does a static certificate save them (A7, A8);
//! * do they abort less, as §6 conjectures (E5, A3);
//! * how bad are the rollback cascades §6 warns about (E9).
//!
//! The window-eviction (A2) and per-decision-rebuild (A4) ablations
//! answered their questions and were retired with their switches; the
//! schedulers always evict and never rebuild, and EXPERIMENTS.md keeps
//! the last tables.
//!
//! Each experiment has a library function returning a printable
//! [`Table`] and an entry in [`experiments::REGISTRY`]. The timing
//! tables (E3, with A1's columns, and E10) report the median of
//! [`experiments::TIMED_RUNS`] runs per cell.
//! `cargo run --release --bin all_experiments` regenerates everything
//! EXPERIMENTS.md reports; `-- --only E4,A8` runs a subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod table;

pub use runner::{run_cell, CellResult, ControlKind};
pub use table::Table;
