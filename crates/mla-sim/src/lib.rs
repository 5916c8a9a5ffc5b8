//! Discrete-event simulator for the migrating-transaction model (§6).
//!
//! The paper evaluates concurrency controls in the model of \[RSL\]:
//! entities reside at processors in a network; a transaction *migrates* —
//! a message `(p, t, s)` travels to the processor owning the entity `t`
//! accesses from state `s`, the processor performs the step, and a new
//! message carries the successor state onwards. "The total order of the
//! execution is determined by real clock time."
//!
//! This crate reproduces that world as a deterministic, seeded
//! discrete-event simulation:
//!
//! * processors with FIFO service (one step at a time, configurable
//!   service time);
//! * configurable message latency with seeded jitter;
//! * a [`Control`] trait — the concurrency control plugged into every
//!   processor, deciding per arriving step: [`Decision::Grant`],
//!   [`Decision::Defer`] (retry after a backoff), or
//!   [`Decision::Abort`] (victims are rolled back with full cascade and
//!   restarted);
//! * cascading rollback via the store journal
//!   ([`mla_storage::Store::roll_back`], the cascade `mla-serve` shares),
//!   **including through already-committed transactions** — the paper
//!   explicitly notes multilevel atomicity admits unbounded rollback
//!   chains and makes commit-point determination hard; the simulator
//!   measures exactly that ([`Metrics::commit_rollbacks`], [`Metrics::cascade_sizes`]);
//! * full metrics (throughput, latency, aborts, defers, undone work) and
//!   the final [`mla_model::Execution`] for post-hoc Theorem 2 checking.
//!
//! See `mla-cc` for the controls themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod metrics;
pub mod sim;
pub mod world;

pub use config::SimConfig;
pub use control::{Control, Decision};
pub use metrics::Metrics;
pub use sim::{run, SimOutcome};
pub use world::{TxnStatus, World};
