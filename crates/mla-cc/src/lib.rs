//! Concurrency controls for the migrating-transaction simulator: the
//! serializable baselines the paper compares against conceptually, and
//! the two multilevel-atomicity controls §6 sketches. Every control is
//! an [`mla_sim::Control`] deciding against the host state
//! [`mla_sim::World`]; `mla-serve` keeps the same `World` and drives
//! [`MlaDetect`] and [`MlaPrevent`] through the same trait.
//!
//! | Control | Guarantees | Mechanism |
//! |---|---|---|
//! | [`SerialControl`] | serial executions | one global token |
//! | [`TwoPhaseLocking`] | serializability | strict 2PL + wound-wait \[EGLT\] |
//! | [`TimestampOrdering`] | serializability | basic T/O \[L\] |
//! | [`SgtControl`] | serializability | online conflict-graph acyclicity |
//! | [`MlaDetect`] | multilevel atomicity (correctable) | online coherent-closure cycle detection (§6) |
//! | [`MlaPrevent`] | multilevel atomicity (correctable) | §6 step-delay rule + waits-for deadlock resolution |
//! | [`HierLocking`] | **none in general** — measured, not trusted (§7, E13) | per-entity lock retention at breakpoints |
//!
//! The two MLA controls share one [`AdmissionCore`]: the closure
//! engine's lifecycle and eviction, the certificate guard with its
//! journal catch-up, and the choice of a rollback victim from a cycle.
//! Each keeps only its own rule for a judged candidate — roll back on a
//! cycle, or delay until the predecessors reach breakpoints.
//!
//! Every control is *tested against the theory*: the [`oracle`] module
//! feeds each run's final execution back through `mla-core`'s Theorem 2
//! decision procedure (and the serializability checker for the
//! baselines), so a scheduling bug shows up as an incorrect history, not
//! just a wrong counter.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cert_guard;
pub mod hier_lock;
pub mod mla_detect;
pub mod mla_prevent;
pub mod oracle;
pub mod serial;
pub mod sgt;
pub mod timestamp;
pub mod two_phase;
pub mod victim;

pub use admission::AdmissionCore;
pub use cert_guard::{CertAdmit, CertGuard};
pub use hier_lock::HierLocking;
pub use mla_detect::MlaDetect;
pub use mla_prevent::MlaPrevent;
pub use serial::SerialControl;
pub use sgt::SgtControl;
pub use timestamp::TimestampOrdering;
pub use two_phase::TwoPhaseLocking;
pub use victim::VictimPolicy;
