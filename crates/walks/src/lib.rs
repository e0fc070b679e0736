//! Random-walk sampler for the DistGER reproduction.
//!
//! This crate implements every walking strategy the paper discusses:
//!
//! * **Routine random walks** (§2.1, §2.2): DeepWalk's first-order uniform
//!   walks and node2vec's second-order walks with rejection sampling, run with
//!   a fixed walk length `L` and a fixed number of walks per node `r` — the
//!   KnightKing configuration.
//! * **Information-oriented walks** (HuGE, §2.1): the hybrid transition
//!   probability of Eq. 3, walk-length termination driven by the entropy /
//!   walk-length coefficient of determination `R²(H, L) < μ` (Eq. 4–5), and a
//!   walks-per-node budget driven by the relative-entropy convergence
//!   `ΔD(p‖q) ≤ δ` (Eq. 6–7).
//! * **HuGE-D** (§2.3): the distributed baseline that carries the *full path*
//!   in every cross-machine message and recomputes the walk entropy from
//!   scratch at each step (`O(L)` per step, `24 + 8·L` bytes per message).
//! * **InCoM** (§3.1): DistGER's incremental information-centric computing —
//!   `O(1)` per-step updates of `H` and `R²` (Theorem 1 and Eq. 13),
//!   machine-local frequency lists, and constant 80-byte messages.
//!
//! Two per-step data structures keep the hot path `O(1)`:
//!
//! * [`freq`] — the flat machine-local frequency store (PR 1), queried once
//!   per accepted node by InCoM's incremental measurement;
//! * [`alias`] — flat arc-aligned side tables built once per job: per-node
//!   alias tables (Vose construction) making every weighted neighbour draw —
//!   and every second-order rejection *proposal* — constant time regardless
//!   of degree, and HuGE's per-arc acceptance probabilities (Eq. 3), making
//!   every rejection *trial* one array read.
//!
//! Each is the one implementation of its job. The seed's versions (the
//! nested-`HashMap` store and the `O(deg)` weight scan) survive only as
//! `#[cfg(test)]` oracles inside those two modules.
//!
//! All engines run on the BSP driver of `distger-cluster` through **one**
//! round loop, [`run_walks_over`]: each endpoint's machines live on one
//! worker pool spanning every walk round, and round boundaries (harvest
//! gather, corpus assembly, relative-entropy convergence, next-round
//! seeding) execute as coordinator-exclusive control phases between barrier
//! generations. [`run_distributed_walks`] is that loop with every machine
//! in this process. They report
//! [`CommStats`](distger_cluster::CommStats) alongside the sampled
//! [`Corpus`].

pub mod alias;
pub mod checkpoint;
pub mod corpus;
pub mod dist;
pub mod engine;
pub mod freq;
pub mod info;
pub mod message;
pub mod models;
pub mod rng;

pub use alias::TransitionTables;
pub use checkpoint::{CheckpointPolicy, WalkCheckpoint};
pub use corpus::{Corpus, CorpusShard};
pub use dist::{run_walks_over, run_walks_over_loopback};
pub use engine::{
    run_distributed_walks, run_distributed_walks_supervised, InfoMode, WalkEngineConfig, WalkResult,
};
pub use models::{LengthPolicy, WalkCountPolicy, WalkModel};

/// Re-exports of the fault-tolerance knobs — and the transport layer — so
/// walk-engine callers can configure [`WalkEngineConfig`] and drive
/// [`dist::run_walks_over`] without depending on `distger-cluster` directly.
pub use distger_cluster::{
    FaultInjector, FaultPlan, InMemoryTransport, RecoveryExhausted, RecoveryPolicy,
    SocketTransport, Transport, TransportKind,
};
