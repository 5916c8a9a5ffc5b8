//! `mla-serve`: a concurrent transaction service with the §6 multilevel
//! atomicity schedulers gating admission.
//!
//! Where `mla-sim` *simulates* concurrency (one thread, a virtual clock,
//! migrating transactions), this crate *is* concurrent: OS worker
//! threads drive simulated client sessions against timestamped MVCC
//! storage ([`mla_storage::MvccStore`]), every step admitted by
//! [`MlaDetect`](mla_cc::MlaDetect) or
//! [`MlaPrevent`](mla_cc::MlaPrevent) through the same
//! [`AdmissionView`](mla_cc::AdmissionView) surface the simulator uses —
//! one scheduler core, two hosts. The hosts also share the live history
//! and its rollback: the gate journals every step in an
//! [`mla_storage::Store`] and undoes through
//! [`Store::roll_back`](mla_storage::Store::roll_back), popping the
//! undone versions. Committed versions are reclaimed by epoch-based GC,
//! and every drained history feeds back through Theorem 2's offline
//! decision procedure ([`mla_check::check`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;
pub mod workload;

pub use service::{run, SchedKind, ServeConfig, ServeReport};
pub use workload::{contended_load, partitioned_load, ServeLoad};
