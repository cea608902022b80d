//! # ulfm-sim — a simulated fault-tolerant MPI runtime with ULFM semantics
//!
//! This crate is a from-scratch, thread-based reimplementation of the MPI
//! subset exercised by *"Application Level Fault Recovery: Using
//! Fault-Tolerant Open MPI in a PDE Solver"* (IPDPSW 2014), **plus** the
//! draft User Level Failure Mitigation (ULFM) extensions that paper relies
//! on:
//!
//! * fail-stop **process failures** (a rank can be killed at any point; its
//!   peers observe `Error::ProcFailed` from subsequent operations, exactly
//!   like ULFM reports `MPI_ERR_PROC_FAILED`),
//! * [`Comm::revoke`], [`Comm::shrink`], [`Comm::agree`],
//!   [`Comm::failure_ack`] / [`Comm::failure_get_acked`],
//! * dynamic process management: [`spawn::comm_spawn_multiple`],
//!   [`InterComm::merge`], and re-entry of spawned children through the same
//!   application entry point (children see `Ctx::parent() != None`, mirroring
//!   `MPI_Comm_get_parent`),
//! * the point-to-point and collective operations the application makes
//!   (send/recv, isend/irecv/wait, barrier, bcast, gather(v), scatter(v),
//!   reduce, scalar allreduce, split) with failure-aware semantics.
//!
//! ## Processes are threads; failures are real
//!
//! Every MPI rank is an OS thread. [`Ctx::die`] performs a cooperative
//! fail-stop: it raises a sentinel panic that unwinds the rank's stack and is
//! caught at the thread boundary — the moral equivalent of the paper's
//! `kill(getpid(), SIGKILL)` failure generator, without taking down the host
//! process. From the moment the kill flag is set, all peers treat the rank
//! as failed. Nothing is mocked: communicator reconstruction really has to
//! spawn new threads, merge intercommunicators, and re-order ranks.
//!
//! ## Virtual time
//!
//! Wall-clock timing of a thread simulator says nothing about an InfiniBand
//! cluster, so every rank carries a **virtual clock** (seconds, `f64`).
//! Point-to-point messages advance it through a latency/bandwidth (α/β)
//! model, collectives through `⌈log₂ p⌉` tree costs, compute through a
//! per-cell-update cost, and disk I/O through a per-cluster disk model (see
//! [`costmodel::ClusterProfile`]). The ULFM operations consult a pluggable
//! [`costmodel::UlfmCostModel`]; [`costmodel::BetaUlfm`] is calibrated
//! against Table I of the paper (the beta Open MPI `1.7ft` pathologies),
//! while [`costmodel::IdealUlfm`] models what a mature implementation should
//! cost. Experiments report virtual time; the real cost of this runtime
//! (wall clock, allocator requests, resident memory) is measured separately,
//! by the repository's `benchmark/` harness and the `expt` binary
//! (`expt regress`, `expt timeline`).
//!
//! ## Quick example
//!
//! ```
//! use ulfm_sim::{RunConfig, run};
//!
//! let report = run(RunConfig::local(4), |ctx| {
//!     let world = ctx.initial_world().unwrap();
//!     let sum: u64 = world.allreduce_sum(ctx, world.rank() as u64).unwrap();
//!     assert_eq!(sum, 0 + 1 + 2 + 3);
//!     if world.rank() == 0 {
//!         ctx.report_f64("sum", sum as f64);
//!     }
//! });
//! assert_eq!(report.get_f64("sum"), Some(6.0));
//! ```

pub mod bufpool;
pub mod comm;
pub mod costmodel;
pub mod datatype;
pub mod error;
pub mod faultplan;
pub(crate) mod fiber;
pub mod group;
pub mod mailbox;
pub mod metrics;
pub mod proc;
pub(crate) mod rendezvous;
pub mod runtime;
pub(crate) mod sched;
pub mod spawn;
pub mod topology;
pub mod trace_export;

pub use bufpool::BufPool;
pub use comm::{
    waitall_with, Comm, ErrHandler, Gathered, InterComm, ReduceOp, Request, ScatterParts,
    ANY_SOURCE, ANY_TAG,
};
pub use costmodel::{
    BetaUlfm, ClusterProfile, DiskParams, IdealUlfm, NetParams, UlfmCostModel, TABLE_I,
};
pub use datatype::{MpiData, WireSlice};
pub use error::{Error, Result};
pub use faultplan::{FaultPlan, FaultSite, OpClass};
pub use group::Group;
pub use metrics::{
    timelines_to_json, MetricsCell, MetricsReport, RankMetrics, RecoveryTimeline, TraceRing,
    DEFAULT_TRACE_CAPACITY, OP_NAMES,
};
pub use proc::ProcId;
pub use runtime::{
    run, AsyncWrite, Ctx, RecoveryScope, Report, RunConfig, SchedMode, TraceEvent, Value,
};
pub use spawn::{comm_spawn_multiple, SpawnSpec};
pub use topology::{Host, Hostfile};
pub use trace_export::{to_chrome_trace, write_chrome_trace};
