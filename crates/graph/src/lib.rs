//! Graph substrate for the DistGER reproduction.
//!
//! This crate provides the storage layer every other subsystem builds on:
//!
//! * [`CsrGraph`] — a Compressed Sparse Row graph (the representation used by
//!   the paper, §2), supporting directed/undirected and weighted/unweighted
//!   graphs with sorted adjacency lists.
//! * [`GraphBuilder`] — incremental edge-list construction.
//! * [`generate`] — synthetic graph generators (R-MAT, Barabási–Albert,
//!   Erdős–Rényi, planted communities) standing in for the paper's real-world
//!   datasets (Flickr, YouTube, LiveJournal, Com-Orkut, Twitter).
//! * [`intersect`] — the Galloping set-intersection algorithm used by MPGP's
//!   proximity computations (§3.2).
//! * [`stats`] — degree distributions and power-law diagnostics.
//! * [`io`] — plain-text edge-list loading/saving so real datasets can be
//!   dropped in.

#![forbid(unsafe_code)]

pub mod builder;
pub mod csr;
pub mod generate;
pub mod intersect;
pub mod io;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use generate::{
    barabasi_albert, community_powerlaw, erdos_renyi, planted_partition, powerlaw_cluster, rmat,
    LabeledGraph,
};
pub use stats::GraphStats;

/// Node identifier. Graphs in this reproduction are laptop-scale (≤ a few
/// million nodes), so 32 bits keep the CSR arrays and walker messages compact.
pub type NodeId = u32;

/// Edge weight type. Unweighted graphs simply do not allocate weights.
pub type EdgeWeight = f32;
