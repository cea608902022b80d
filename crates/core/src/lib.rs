//! # ftsg-core — the fault-tolerant sparse-grid PDE application
//!
//! The paper's primary contribution, rebuilt end-to-end on the simulated
//! ULFM runtime:
//!
//! * [`layout`] — process groups per sub-grid with the paper's load
//!   balancing (half the processes on the half-size lower-diagonal grids),
//! * [`psolve`] — distributed Lax–Wendroff with 2D domain decomposition
//!   and halo exchange inside each group,
//! * [`detect`] / [`reconstruct`] — line-by-line ports of the paper's
//!   Figs. 3–7: failure detection via a failed barrier, the globally
//!   consistent failed-rank list through group algebra, communicator
//!   reconstruction by re-spawning the failed ranks *on their original
//!   hosts* and re-ordering ranks with a keyed `comm_split`,
//! * [`recovery`] — the three data recovery techniques:
//!   **Checkpoint/Restart** (exact, disk), **Resampling and Copying**
//!   (near-exact, duplicate grids in memory), **Alternate Combination**
//!   (approximate, robust combination coefficients over the survivors),
//! * [`app`] — the driver that runs the full story: solve `2^k` timesteps,
//!   suffer injected failures, detect, reconstruct, recover, combine, and
//!   measure the error against the analytic solution,
//! * [`stack`] — what [`app`] and [`recovery`] are generic over: the 2D
//!   stack ([`layout`], [`psolve`], the v2 checkpoint format) and the
//!   d-dimensional one ([`layout_nd`], [`psolve_nd`], v3), as the two
//!   instances of one [`stack::Stack`] trait,
//! * [`gather`] — the one whole-grid transport (gather, scatter, send,
//!   receive, the binomial-tree combination) for every grid and group
//!   layout,
//! * [`landing`] — the one grid per rank that every whole sub-grid the
//!   rank assembles or receives lands in,
//! * [`plan`] — what every rank would derive alike (the layout, and each
//!   lost set's broken grids, robust coefficients and combination terms),
//!   derived once per run and shared by all of its ranks.

pub mod alloc_probe;
pub mod app;
pub mod checkpoint;
pub mod ckpt_async;
pub mod config;
pub mod detect;
pub mod gather;
pub mod landing;
pub mod layout;
pub mod layout_nd;
pub mod output;
pub mod plan;
pub mod policy;
pub mod psolve;
pub mod psolve_nd;
pub mod reconstruct;
pub mod recovery;
pub mod stack;
pub mod tags;
pub mod timeline;

pub use app::{run_app, AppOutcome};
pub use checkpoint::{CheckpointStore, CorruptKind, CorruptionPlan, CorruptionStrike};
pub use ckpt_async::AsyncCheckpointer;
pub use config::{AppConfig, Technique};
pub use layout::{Assignment, GroupInfo, ProcLayout};
pub use layout_nd::{AssignmentN, GroupInfoN, ProcLayoutN};
pub use policy::RecoveryPolicy;
pub use psolve_nd::DistributedSolverN;
pub use reconstruct::{
    reconstruct, repair_comm, repair_comm_with, repair_deferred, Attempt, Join, ReconstructTimings,
    RepairArm, RespawnPolicy,
};
pub use tags::TagSpace;
pub use timeline::{build_timeline, PHASES};
