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

use std::sync::Arc;

use crate::comm::{Comm, InterComm, InterShared};
use crate::error::{Error, Result};
use crate::rendezvous::{arrived, Deposit, OpKind, Share};
use crate::runtime::Ctx;

/// Where (and what) to spawn for one new process.
///
/// The host is named by its hostfile index: the `MPI_Info` `"host"` key
/// resolved once, by whoever builds the spec, rather than by every rank
/// that passes the spec on. So a spec is `Copy` and owns no string, and
/// the spawn list, which only the root passes on, is one allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpawnSpec {
    /// Hostfile index of the host to place the process on. `None` lets
    /// the runtime pick the least-loaded node.
    pub host: Option<usize>,
}

impl SpawnSpec {
    /// Spawn pinned to the host at hostfile index `host`.
    pub fn on_host(host: usize) -> Self {
        SpawnSpec { host: Some(host) }
    }

    /// Spawn wherever the runtime likes.
    pub fn anywhere() -> Self {
        SpawnSpec { host: None }
    }
}

/// `MPI_Comm_spawn_multiple`: collectively (over `comm`) create one new
/// process per spec and return the parent↔children intercommunicator.
/// As in MPI, only `root`'s `specs` are read: they travel to the spawn
/// through the rendezvous, the way a broadcast's payload does, so the
/// other ranks pass anything (an empty vector costs nothing).
///
/// The children re-enter the application entry function with
/// [`crate::Ctx::parent`] set and their own spawn-group communicator as
/// their initial world.
pub fn comm_spawn_multiple(
    ctx: &Ctx,
    comm: &Comm,
    root: usize,
    specs: Vec<SpawnSpec>,
) -> Result<InterComm> {
    ctx.fault_op(crate::faultplan::OpClass::Spawn);
    if root >= comm.size() {
        return Err(Error::InvalidArg(format!("spawn root {root} is not a rank")));
    }
    let p = comm.size();
    let uni = ctx.universe();
    let model = ctx.model_handle();
    let deposit = if comm.rank() == root { Deposit::Specs(specs) } else { Deposit::None };
    let res = comm.collective(ctx, "spawn_multiple", OpKind::Spawn, deposit, |slots| {
        let specs = match slots.get_mut(root).map(|s| std::mem::take(&mut s.deposit)) {
            Some(Deposit::Specs(specs)) if !specs.is_empty() => specs,
            Some(Deposit::Specs(_)) => {
                return (Err(Error::InvalidArg("spawn of zero processes".into())), 0.0)
            }
            _ => return (Err(Error::Protocol("spawn: the root's specs are missing".into())), 0.0),
        };
        // Resolve placements first; an unresolvable host fails the
        // whole spawn uniformly.
        let cost = model.spawn_multiple(p, specs.len(), specs.len());
        let mut placements = Vec::with_capacity(specs.len());
        let mut load = uni.live_per_host();
        for spec in &specs {
            let host = match spec.host {
                Some(h) if h < uni.hostfile.len() => h,
                Some(h) => {
                    let unknown = Error::SpawnFailed(format!("no host at hostfile index {h}"));
                    return (Err(unknown), cost);
                }
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

        // Create the children and their spawn-group world.
        let children: Vec<_> = placements.iter().map(|&h| uni.alloc_proc(h)).collect();
        let child_world = crate::comm::CommShared::new(children.clone());
        let inter = InterShared::new([comm.shared.members.clone(), children.clone()]);
        // Children start their clocks at the spawn's completion time.
        let t_birth = arrived(slots).fold(0.0_f64, |m, (_, s)| m.max(s.clock)) + cost;
        for (i, child) in children.into_iter().enumerate() {
            uni.launch(
                child,
                Some((Arc::clone(&child_world), i)),
                Some((Arc::clone(&inter), i)),
                t_birth,
            );
        }
        for s in slots {
            s.share = Share::Inter(Arc::clone(&inter));
        }
        (Ok(()), cost)
    });
    match res? {
        Share::Inter(shared) => Ok(InterComm::new(shared, 0, comm.rank())),
        _ => Err(Error::Protocol("spawn: the outcome is of the wrong kind".into())),
    }
}
