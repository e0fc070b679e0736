//! One DistGER job and the systems it is compared with.
//!
//! [`job::run_job`] is the one body that runs a job: MPGP partitioning, the
//! InCoM walk engine and the DSGL learner of Figure 1, then, when asked,
//! sharded top-k serving — over any channel. [`pipeline::run_pipeline`]
//! wraps it on one in-memory endpoint; [`launch::run_coordinator`] and
//! [`launch::run_worker`] on one socket per process, from a broadcast
//! [`launch::JobSpec`]. [`system::SystemKind`] names the three compared walk
//! systems of §6 — KnightKing, HuGE-D and DistGER — as configuration presets.

#![forbid(unsafe_code)]

pub mod job;
pub mod launch;
pub mod pipeline;
pub mod system;

pub use job::{run_job, JobOutput, ServeSummary};
pub use launch::{launch_over_loopback, run_coordinator, run_worker, JobSpec, LaunchReport};
pub use pipeline::{run_pipeline, DistGerConfig, PartitionerChoice, PipelineResult};
pub use system::SystemKind;
