//! Dynamic process management: `MPI_Comm_spawn_multiple`.
//!
//! This is the operation the paper's `repairComm` (its Fig. 5) builds on:
//! after shrinking away the dead ranks, the survivors spawn `totalFailed`
//! fresh processes, each pinned — via per-process host info — to the node
//! the corresponding failed rank used to occupy, so the post-recovery load
//! balance matches the pre-failure one.
//!
//! Spawned processes are full citizens: they run the same application entry
//! function and find the intercommunicator to their parents via
//! [`crate::Ctx::parent`].

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use crate::comm::{Comm, InterComm, InterShared};
use crate::error::{Error, Result};
use crate::rendezvous::{Contribution, OpCtx, OpData, OpKind, OpSemantics};
use crate::runtime::Ctx;

/// Where (and what) to spawn for one new process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpawnSpec {
    /// Host to place the process on (the `MPI_Info` `"host"` key). `None`
    /// lets the runtime pick the least-loaded node.
    pub host: Option<String>,
}

impl SpawnSpec {
    /// Spawn pinned to a named host.
    pub fn on_host(name: impl Into<String>) -> Self {
        SpawnSpec { host: Some(name.into()) }
    }

    /// Spawn wherever the runtime likes.
    pub fn anywhere() -> Self {
        SpawnSpec { host: None }
    }
}

/// `MPI_Comm_spawn_multiple`: collectively (over `comm`) create
/// `specs.len()` new processes and return the parent↔children
/// intercommunicator. All callers must pass identical `specs` (MPI would
/// only read the root's).
///
/// The children re-enter the application entry function with
/// [`crate::Ctx::parent`] set and their own spawn-group communicator as
/// their initial world.
pub fn comm_spawn_multiple(ctx: &Ctx, comm: &Comm, specs: &[SpawnSpec]) -> Result<InterComm> {
    ctx.fault_op(crate::faultplan::OpClass::Spawn);
    let t0 = ctx.now();
    if specs.is_empty() {
        return Err(Error::InvalidArg("spawn of zero processes".into()));
    }
    let p = comm.size();
    let uni = Arc::clone(ctx.universe());
    let specs = specs.to_vec();
    let model = ctx.model_handle();
    // Capture the communicator's shared handle instead of cloning the
    // member vec in every rank (that clone made spawn O(p²) overall).
    let parents = Arc::clone(comm_shared(comm));
    let key = comm.next_key(OpKind::Spawn);
    let opctx = OpCtx {
        my_index: comm.rank(),
        participants: comm.members(),
        me: ctx.me(),
        revoked: comm_revoked_flag(comm),
        semantics: OpSemantics { tolerant: false, revocable: true },
        fail_cost: 0.0,
        stall_timeout: ctx.stall_timeout(),
    };
    let out = comm_ops(comm).run_op(
        key,
        opctx,
        Contribution { clock: ctx.now(), data: OpData::None },
        move |contrib| {
            // Resolve placements first; an unresolvable host fails the
            // whole spawn uniformly.
            let mut placements = Vec::with_capacity(specs.len());
            let mut load = uni.live_per_host();
            let mut failure: Option<Error> = None;
            for spec in &specs {
                let host = match &spec.host {
                    Some(name) => match uni.hostfile.index_of(name) {
                        Some(h) => h,
                        None => {
                            failure = Some(Error::SpawnFailed(format!("unknown host '{name}'")));
                            break;
                        }
                    },
                    None => {
                        // Least-loaded host.
                        let (h, _) = load
                            .iter()
                            .enumerate()
                            .min_by_key(|&(_, &c)| c)
                            .expect("hostfile is never empty");
                        h
                    }
                };
                load[host] += 1;
                placements.push(host);
            }
            let cost = model.spawn_multiple(p, specs.len(), specs.len());
            if let Some(err) = failure {
                return (Arc::new(Err::<Arc<InterShared>, Error>(err)) as _, cost);
            }

            // Create the children and their spawn-group world.
            let children: Vec<_> = placements.iter().map(|&h| uni.alloc_proc(h)).collect();
            let child_world = crate::comm::CommShared::new(children.clone());
            let inter = InterShared::new([parents.members.clone(), children.clone()]);
            // Children start their clocks at the spawn's completion time.
            let t_birth = contrib.values().fold(0.0_f64, |m, c| m.max(c.clock)) + cost;
            for (i, child) in children.into_iter().enumerate() {
                uni.launch(
                    child,
                    Some((Arc::clone(&child_world), i)),
                    Some((Arc::clone(&inter), i)),
                    t_birth,
                );
            }
            (Arc::new(Ok::<Arc<InterShared>, Error>(inter)) as _, cost)
        },
    );
    ctx.sync_to(&out);
    ctx.trace_event("spawn_multiple", comm.cid(), t0, ctx.now());
    let res = out.result.as_ref().map_err(Clone::clone)?;
    let inner =
        res.downcast_ref::<std::result::Result<Arc<InterShared>, Error>>().expect("spawn result");
    match inner {
        Ok(shared) => Ok(InterComm::new(Arc::clone(shared), 0, comm.rank())),
        Err(e) => Err(e.clone()),
    }
}

// Narrow internal accessors, kept here so `comm.rs` stays the single owner
// of its field layout.
fn comm_ops(comm: &Comm) -> &crate::rendezvous::OpTable {
    &comm.shared.ops
}

fn comm_shared(comm: &Comm) -> &Arc<crate::comm::CommShared> {
    &comm.shared
}

fn comm_revoked_flag(comm: &Comm) -> &AtomicBool {
    &comm.shared.revoked
}
