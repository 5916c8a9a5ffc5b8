//! Directed-graph algorithms underpinning multilevel-atomicity checking.
//!
//! Everything in the reproduction that involves "absence of cycles in a
//! dependency relation" (the paper's Theorem 2 and its serializability
//! analogue from \[EGLT\]) bottoms out in this crate:
//!
//! * [`DiGraph`] — a compact adjacency-list directed graph over dense
//!   `u32` node indices.
//! * [`scc::tarjan`] / [`scc::Condensation`] — strongly connected
//!   components and the component DAG. The constructive proof of the
//!   paper's combinatorial Lemma 1 orders SCCs of a segment graph at each
//!   nesting stage; `Condensation` is exactly that object.
//! * [`topo`] — topological sorting and concrete cycle extraction, used to
//!   produce *witness* cycles when an execution is not correctable.
//! * [`reach`] — dense bitset-based reachability closure, the workhorse of
//!   the reference coherent-closure fixpoint.
//! * [`incremental::IncrementalTopo`] — Pearce–Kelly online topological
//!   order maintenance, used by the cycle-detection schedulers to reject a
//!   step the moment it would close a dependency cycle.
//! * [`summary::PairSummary`] — deduplicated transaction-level pair sets
//!   with forward reachability: what live-window eviction reaches over.
//! * [`bitset::BitSet`] — a minimal fixed-capacity bitset (no external
//!   dependency) shared by the above.
//!
//! All algorithms are iterative (no recursion) so deep dependency chains —
//! which multilevel atomicity explicitly permits, see the rollback-cascade
//! discussion in §6 of the paper — cannot overflow the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod dense;
pub mod digraph;
pub mod incremental;
pub mod reach;
pub mod scc;
pub mod summary;
pub mod topo;

pub use bitset::BitSet;
pub use dense::DenseMap;
pub use digraph::DiGraph;
pub use incremental::IncrementalTopo;
pub use scc::{tarjan, Condensation};
pub use summary::PairSummary;
pub use topo::{find_cycle, topo_sort, Cycle, TopoResult};
