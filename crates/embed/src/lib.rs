//! Embedding learner for the DistGER reproduction (the *learner* of Figure 1).
//!
//! Three Skip-Gram-with-negative-sampling trainers are provided, mirroring
//! Figure 3 of the paper:
//!
//! * [`TrainerKind::Hogwild`] — the classic word2vec/SGNS scheme: threads
//!   update the shared matrices lock-free, one fresh negative set per
//!   (target, context) pair (Figure 3(a)).
//! * [`TrainerKind::Pword2vec`] — Intel's Pword2vec: the negative set is
//!   shared by all context nodes of a window, converting level-1 into
//!   level-3-style batched updates (Figure 3(b)).
//! * [`TrainerKind::Dsgl`] — the paper's DSGL (§4.2): frequency-ordered
//!   global matrices, per-thread local context/negative buffers
//!   (Improvement-I), multi-window shared negative samples across several
//!   walks assigned to the same thread (Improvement-II).
//!
//! Distributed training partitions the corpus across machines, each holding a
//! model replica, and synchronizes parameters either fully or with the
//! hotness-block mechanism of Improvement-III ([`SyncStrategy`]).

pub mod dist;
pub mod dsgl;
pub mod embeddings;
pub mod hogwild;
pub mod kernel;
pub mod negative;
pub mod pword2vec;
pub mod sgns;
pub mod sync;
pub mod trainer;
pub mod vocab;

pub use dist::{train_distributed_over, train_distributed_over_loopback};
pub use embeddings::Embeddings;
pub use sync::SyncStrategy;
pub use trainer::{
    train_distributed, train_distributed_supervised, TrainStats, TrainerConfig, TrainerKind,
};
pub use vocab::Vocab;

/// Re-exports of the fault-tolerance knobs — and the transport layer — so
/// trainer callers can configure [`TrainerConfig`] and drive
/// [`dist::train_distributed_over`] without depending on `distger-cluster`
/// directly.
pub use distger_cluster::{
    ControlChannel, FaultInjector, FaultPlan, InMemoryTransport, RecoveryExhausted, RecoveryPolicy,
    SocketTransport, TransportKind,
};
