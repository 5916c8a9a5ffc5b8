//! `mla-serve`: a concurrent transaction service with the §6 multilevel
//! atomicity schedulers gating admission.
//!
//! Where `mla-sim` *simulates* concurrency (one thread, a virtual clock,
//! migrating transactions), this crate *is* concurrent: OS worker
//! threads drive simulated client sessions against timestamped MVCC
//! storage ([`mla_storage::MvccStore`]), every step admitted by
//! [`MlaDetect`](mla_cc::MlaDetect) or
//! [`MlaPrevent`](mla_cc::MlaPrevent). The two hosts share one host
//! state and its state changes: the admission gate keeps an
//! [`mla_sim::World`] and drives the scheduler through the same
//! [`Control`](mla_sim::Control) interface the simulator uses, granting
//! through [`World::perform`](mla_sim::World::perform) and undoing
//! through [`World::roll_back`](mla_sim::World::roll_back), whose
//! journal cascade tells the service which versions to pop. Committed
//! versions are reclaimed by epoch-based GC, and every drained history
//! feeds back through Theorem 2's offline decision procedure
//! ([`mla_check::check`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod workload;

pub use service::{run, SchedKind, ServeConfig, ServeReport};
pub use workload::{contended_load, partitioned_load, ServeLoad};
