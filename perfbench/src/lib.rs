//! The repository's benchmark: end-to-end and per-layer measurements of
//! the multilevel-atomicity workspace, driven entirely through the
//! crates' public APIs. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapter;
pub mod layers;
pub mod loads;
pub mod report;
pub mod workloads;
