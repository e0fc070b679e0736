//! Simulated distributed runtime for the DistGER reproduction.
//!
//! The paper evaluates on a physical 8-machine cluster connected by a
//! 100 Gbps network. This crate replaces that hardware with an in-process
//! simulation that preserves every quantity the paper's analysis depends on:
//!
//! * a fixed set of logical **machines**, each owning the nodes assigned to it
//!   by a `distger-partition` [`Partitioning`](distger_partition::Partitioning);
//! * **Bulk Synchronous Parallel** supersteps ([`bsp`]) in which machines do
//!   local work concurrently (real OS threads) and exchange messages at the
//!   superstep boundary, exactly like KnightKing's walker engine (§2.2):
//!   [`run_bsp_round_loop`] hosts the machines of one [`Transport`] endpoint
//!   on a persistent, barrier-coordinated worker [`pool`] that lives across
//!   *every* round of a run, executing round boundaries (harvesting,
//!   convergence checks, next-round seeding) as coordinator-exclusive
//!   control phases;
//! * per-machine **communication accounting** ([`comm`]): every cross-machine
//!   message is counted with an explicit byte size, and an analytic
//!   [`NetworkModel`] converts the traffic into modelled communication time;
//! * **memory accounting** ([`memory`]) for the Table 3 / Table 8 footprints;
//! * **fault tolerance** ([`fault`]): deterministic fault injection
//!   ([`FaultPlan`] / [`FaultInjector`]) threaded through the BSP driver as
//!   a zero-cost-when-disabled hook, and supervised recovery
//!   ([`run_bsp_supervised`]) that restores a caller checkpoint and retries
//!   a poisoned run under a bounded [`RecoveryPolicy`].

pub mod bsp;
pub mod comm;
pub mod config;
pub mod fault;
pub mod memory;
pub mod pool;
pub mod transport;
pub mod wire;

pub use bsp::{run_bsp_round_loop, run_bsp_supervised, BspOutcome, Mailbox, Outbox};
pub use comm::{CommStats, MessageSize, NetworkModel, WireStats};
pub use config::ClusterConfig;
pub use fault::{
    panic_message, FaultInjector, FaultKind, FaultPlan, FaultPoint, RecoveryExhausted,
    RecoveryPolicy,
};
pub use memory::MemoryEstimate;
pub use pool::{run_rounds, BarrierPoisoned, EpochBarrier, PoolStats};
pub use transport::{
    gather_trace_events, machine_split, ControlChannel, InMemoryTransport, SocketTransport,
    Transport, TransportKind,
};
pub use wire::{read_frame, write_frame, Frame, Wire, WireReader};

/// Identifier of a simulated machine (re-exported from `distger-partition` so
/// downstream crates see a single definition).
pub use distger_partition::MachineId;
