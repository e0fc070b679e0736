//! Query-serving layer for the DistGER reproduction.
//!
//! Training produces [`Embeddings`](distger_embed::Embeddings); this crate is
//! what makes them *servable* — the read side of the ROADMAP's "serves heavy
//! traffic" north star. The paper family evaluates embeddings through
//! similarity queries (DistGER §6.4; "A Broader Picture of Random-walk Based
//! Graph Embedding" frames quality entirely through nearest neighbors), so
//! the unit of serving here is the batched cosine **top-k query**:
//!
//! * [`EmbeddingIndex`] — the read-optimized store: node-major,
//!   pre-normalized unit vectors, so a cosine is one dot product
//!   ([`index`]). Built from in-memory embeddings or from the versioned
//!   binary store written by
//!   [`Embeddings::save_binary`](distger_embed::Embeddings::save_binary).
//! * [`QueryEngine`] — batched top-k with two [`QueryBackend`]s, an
//!   optimized default and the exact reference `recall@k` is measured
//!   against: [`QueryBackend::Exact`] is a chunked brute-force scan with a
//!   bounded heap ([`exact`]); [`QueryBackend::Lsh`] is seeded
//!   random-hyperplane signatures with multi-probe buckets and an exact
//!   re-rank ([`lsh`]).
//!   Each engine owns `threads − 1` helper threads for its lifetime
//!   (`workers`): the caller takes stride 0 of a batch and wakes helpers
//!   for the rest, and a one-query batch never leaves the calling thread.
//! * Determinism: every backend breaks score ties by ascending node id
//!   ([`topk`]), and the LSH hyperplanes are seeded — the same index and
//!   config always produce the same results.
//!
//! * [`Scheduler`] — the serving front door ([`schedule`]): independent
//!   callers submit single queries through cloneable [`RequestClient`]s; a
//!   dispatcher thread dynamically batches them under a [`BatchPolicy`]
//!   (size or deadline, whichever trips first), sheds load beyond
//!   `max_inflight`, and reports latency/batch/shed statistics
//!   ([`SchedulerStats`]). Time is injected through the [`Clock`] trait
//!   ([`clock`]) so deadline behavior is deterministically testable on a
//!   [`VirtualClock`]. The scheduler fronts
//!   any [`ServeEngine`] — the in-process [`QueryEngine`] or the sharded
//!   engine below.
//!
//! * [`ShardedQueryEngine`] — multi-machine serving ([`shard`]): the index
//!   is split by the same contiguous
//!   [`machine_split`](distger_cluster::machine_split) ranges the walk and
//!   train phases shard by, each endpoint of a
//!   [`ControlChannel`](distger_cluster::ControlChannel) builds a
//!   [`QueryEngine`] over only its rows, and the coordinator
//!   scatters each batch / gathers bounded per-shard heaps / k-way merges
//!   ([`merge_topk`]) into answers **bit-identical** to a single-process
//!   `top_k` over the whole index.
//!
//! `recall@k` of the LSH backend against the exact reference is evaluated by
//! `distger-eval`'s `recall` module and enforced (together with the LSH QPS
//! advantage) by the bench regression gate.

pub mod clock;
pub mod engine;
pub mod exact;
pub mod fixtures;
pub mod index;
pub mod lsh;
mod normal;
pub mod schedule;
pub mod shard;
pub mod topk;
mod workers;

pub use clock::{Clock, SystemClock, VirtualClock};
pub use engine::{
    BatchResults, QueryBackend, QueryBatch, QueryEngine, QueryStats, ServeConfig, ServeEngine,
};
pub use fixtures::gaussian_clusters;
pub use index::EmbeddingIndex;
pub use lsh::{LshConfig, LshIndex, ProbeScratch};
pub use schedule::{
    BatchPolicy, PendingQuery, Rejected, RequestClient, Scheduler, SchedulerConfig, SchedulerStats,
};
pub use shard::{
    distribute_shards, merge_topk, receive_shard, serve_shard, EngineShard, ShardStats,
    ShardedQueryEngine,
};
pub use topk::{BoundedTopK, Neighbor, TopK};
