//! Communicator reconstruction — ports of the paper's Fig. 3
//! (`communicatorReconstruct`), Fig. 5 (`repairComm`) and Fig. 7
//! (`selectRankKey`).
//!
//! The recovery restores the communicator to its **original size and rank
//! distribution**: failed ranks are re-spawned *on the hosts they occupied
//! before the failure* (hostfile index `failedRank / SLOTS`), attached via
//! `MPI_Intercomm_merge`, told their old ranks over `MERGE_TAG`, and the
//! final `MPI_Comm_split` with carefully chosen keys (Fig. 7) re-orders
//! everyone so ranks match the pre-failure communicator (the paper's
//! Fig. 2 walk-through).
//!
//! There is **one** Fig. 3 do-while, [`reconstruct`]. Every rank of a
//! failure event runs it, however it joined ([`Join`]), and every round is
//! the listing's `agree → barrier`; a failing barrier takes the policy's
//! repair arm ([`RepairArm`]) and loops. Per failure event a rank performs
//!
//! ```text
//! agree → barrier✗ → repair (revoke, shrink, list, spawn, merge, agree,
//! reorder split) → agree → [data-recovery attempt] → confirming barrier
//! ```
//!
//! — the ULFM calls of Figs. 3/5 in the listings' order, three agreements.
//! The application's data recovery (an [`Attempt`]) runs *inside* the
//! confirming round, between its agree and its barrier, so the barrier
//! that confirms the repaired communicator also commits the recovery: a
//! rank whose attempt hit a further failure revokes the communicator
//! *before* it enters the barrier, and no rank can leave a barrier before
//! every rank has entered it, so the verdict is uniform. A failed verdict
//! is the loop's ordinary repair arm; the next confirming round re-runs
//! the (idempotent) attempt with the enlarged failed list.
//!
//! Two documented deviations from the listings. The paper has the parents
//! merge *before* agreeing (Fig. 5 lines 14–15) while the children agree
//! *before* merging (Fig. 3 lines 21–22); that opposite interleaving
//! relies on Open MPI's internal progress engine, our rendezvous-based
//! collectives require a consistent order, so both sides merge first and
//! agree second. And the attempt sits between Fig. 3's line-12 agree and
//! its line-13 barrier, where the listing has nothing.

use ulfm_sim::{comm_spawn_multiple, Comm, Ctx, Error, InterComm, Result, SpawnSpec};

use crate::detect::{failed_procs_list, mpi_error_handler};
use crate::policy::RecoveryPolicy;

/// Tag used to hand each child its pre-failure rank (the paper's
/// `MERGE_TAG`).
pub const MERGE_TAG: i32 = 999;

/// Where replacement processes are placed.
///
/// [`RespawnPolicy::SameHost`] is the paper's published approach: each
/// failed rank comes back on the hostfile line `failedRank / SLOTS`.
/// [`RespawnPolicy::SpareNode`] implements the paper's §V *future work*:
/// "the use of spare nodes in the case of node failure, in which case all
/// the processes on that node will fail and be restarted on the new node.
/// This will have the same load balancing characteristics as our current
/// approach." Individual (non-node) failures still respawn on the same
/// host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RespawnPolicy {
    /// Respawn every failed rank on the node it occupied (paper §II-C).
    #[default]
    SameHost,
    /// If *every* rank of a node failed (node failure), respawn that
    /// node's ranks together on an unused spare node; isolated failures
    /// still go back to their original host.
    SpareNode,
    /// Naive placement: dump every replacement on the hostfile's first
    /// node, like a launcher that ignores placement. Oversubscribes that
    /// node and destroys the load balance — the ablation baseline that
    /// motivates the paper's same-host policy.
    FirstHost,
}

/// Compute the spawn placement for the failed ranks under a policy.
///
/// Deterministic across survivors: it depends only on the failed-rank
/// list, the hostfile, and the broken communicator's membership (used to
/// find spare nodes that currently host none of its processes).
pub fn respawn_specs(
    ctx: &Ctx,
    broken: &Comm,
    failed_ranks: &[usize],
    policy: RespawnPolicy,
) -> Vec<SpawnSpec> {
    let hostfile = ctx.hostfile();
    let slots = ctx.profile().slots_per_host;
    let same_host = |rank: usize| SpawnSpec::on_host(hostfile.hosts()[rank / slots].name.clone());
    match policy {
        RespawnPolicy::SameHost => failed_ranks.iter().map(|&r| same_host(r)).collect(),
        RespawnPolicy::FirstHost => failed_ranks
            .iter()
            .map(|_| SpawnSpec::on_host(hostfile.hosts()[0].name.clone()))
            .collect(),
        RespawnPolicy::SpareNode => {
            let total = broken.size();
            // Hosts whose entire rank block failed.
            let mut dead_hosts: Vec<usize> = Vec::new();
            for &r in failed_ranks {
                let host = r / slots;
                let block = (host * slots)..(((host + 1) * slots).min(total));
                if block.clone().all(|q| failed_ranks.contains(&q)) && !dead_hosts.contains(&host) {
                    dead_hosts.push(host);
                }
            }
            dead_hosts.sort_unstable();
            // Spare nodes: beyond the original allocation and not hosting
            // any current member of the broken communicator.
            let first_beyond = total.div_ceil(slots.max(1));
            let occupied: Vec<usize> = (0..total).filter_map(|r| broken.host_index_of(r)).collect();
            let mut spares: Vec<usize> =
                (first_beyond..hostfile.len()).filter(|h| !occupied.contains(h)).collect();
            let mut dead_to_spare = std::collections::HashMap::new();
            for h in dead_hosts {
                if let Some(spare) = spares.first().copied() {
                    spares.remove(0);
                    dead_to_spare.insert(h, spare);
                }
                // No spare left: fall through to same-host respawn.
            }
            failed_ranks
                .iter()
                .map(|&r| {
                    let host = r / slots;
                    match dead_to_spare.get(&host) {
                        Some(&spare) => SpawnSpec::on_host(hostfile.hosts()[spare].name.clone()),
                        None => same_host(r),
                    }
                })
                .collect()
        }
    }
}

/// Virtual-time breakdown of one reconstruction (what Fig. 8 and Table I
/// report).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReconstructTimings {
    /// Creating the failed-process list: revoke + shrink + the Fig. 6
    /// group algebra (Fig. 8a).
    pub t_list: f64,
    /// The erroring detection collective (the failed barrier of Fig. 3
    /// line 13), net of error-handler acknowledgement time.
    pub t_detect: f64,
    /// `OMPI_Comm_failure_ack` time, both explicit calls and those run by
    /// the attached error handler inside other timed segments (which are
    /// recorded net of it, keeping all phases disjoint).
    pub t_ack: f64,
    /// `MPI_Comm_revoke` on the broken communicator.
    pub t_revoke: f64,
    /// The Fig. 6 group algebra alone (subset of [`Self::t_list`]).
    pub t_flist: f64,
    /// `OMPI_Comm_shrink` alone (Table I).
    pub t_shrink: f64,
    /// `MPI_Comm_spawn_multiple` (Table I).
    pub t_spawn: f64,
    /// `MPI_Intercomm_merge` (Table I).
    pub t_merge: f64,
    /// `OMPI_Comm_agree` calls, cumulative (Table I), net of handler
    /// acknowledgement time.
    pub t_agree: f64,
    /// The rank-reordering `MPI_Comm_split`.
    pub t_split: f64,
    /// Technique data recovery (checkpoint read / resample / alternate
    /// combination / buddy fetch, including any recompute), cumulative
    /// over attempts, plus the wait in the confirming barrier for slower
    /// peers' recoveries.
    pub t_restore: f64,
    /// The whole `communicatorReconstruct` call (Fig. 8b), net of the
    /// data-recovery attempts that ride its confirming rounds.
    pub t_total: f64,
    /// Number of do-while iterations (> 2 means failures struck during
    /// recovery itself).
    pub rounds: u32,
    /// Ranks that were repaired (union over rounds, original numbering).
    pub failed_ranks: Vec<usize>,
}

/// Port of Fig. 7 (`selectRankKey`): the split key a *survivor* uses so
/// that, together with the children keyed by their old ranks, the split
/// restores the original rank order. `my_rank` is the survivor's rank in
/// the merged (unordered) intracommunicator, which equals its rank in the
/// shrunken communicator.
///
/// The key is the survivor's old rank: the `my_rank`-th entry of the
/// figure's `shrinkMergeList` (the old ranks that did not fail,
/// ascending). The list is never built — the old rank is `my_rank` plus
/// the failed ranks at or below it, counted in one walk of
/// `failed_ranks`, which must be ascending as [`failed_procs_list`]
/// yields it: O(|failed|) per survivor where materialising the list was
/// O(p · |failed|) time and O(p) memory on each of p survivors.
pub fn select_rank_key(
    my_rank: usize,
    shrinked_group_size: usize,
    failed_ranks: &[usize],
    total_procs: usize,
) -> i64 {
    debug_assert!(failed_ranks.windows(2).all(|w| w[0] < w[1]), "ascending, distinct");
    debug_assert_eq!(total_procs - failed_ranks.len(), shrinked_group_size);
    debug_assert!(my_rank < shrinked_group_size, "only survivors call selectRankKey");
    let mut old_rank = my_rank;
    for &failed in failed_ranks {
        if failed > old_rank {
            break;
        }
        old_rank += 1;
    }
    old_rank as i64
}

/// A further casualty (or the revocation it triggered) rather than a hard
/// error: the protocols below absorb these and go round again.
pub(crate) fn is_casualty(e: &Error) -> bool {
    matches!(e, Error::ProcFailed { .. } | Error::Revoked)
}

/// The one communicator of a single-colour split (`MPI_UNDEFINED` is never
/// passed, so a missing result is a runtime fault, reported as such).
fn single_colour(split: Option<Comm>) -> Result<Comm> {
    split.ok_or_else(|| Error::Protocol("single-colour split returned no communicator".into()))
}

/// Record `failed` (original numbering) among the event's repaired ranks.
fn note_failed(timings: &mut ReconstructTimings, failed: &[usize]) {
    for &r in failed {
        if !timings.failed_ranks.contains(&r) {
            timings.failed_ranks.push(r);
        }
    }
}

/// Drop from a current→original rank map the entries at the (current)
/// positions in `gone`.
fn compact_members(members: &mut Vec<usize>, gone: &[usize]) {
    let mut idx = 0usize;
    members.retain(|_| {
        let keep = !gone.contains(&idx);
        idx += 1;
        keep
    });
}

/// Fig. 5 lines 2–6, timed as Fig. 8a's "creating the list": revoke and
/// shrink the broken communicator and derive the failed-rank list.
fn revoke_shrink_list(
    ctx: &Ctx,
    broken: &Comm,
    timings: &mut ReconstructTimings,
) -> Result<(Comm, Vec<usize>)> {
    let t0 = ctx.now();
    broken.revoke(ctx);
    timings.t_revoke += ctx.now() - t0;
    let t_shrink0 = ctx.now();
    let shrinked = broken.shrink(ctx)?;
    timings.t_shrink += ctx.now() - t_shrink0;
    ctx.trace_phase("revoke_shrink", t0);
    let t_flist0 = ctx.now();
    let failed = failed_procs_list(broken, &shrinked);
    timings.t_flist += ctx.now() - t_flist0;
    ctx.trace_phase("failed_list", t_flist0);
    timings.t_list += ctx.now() - t0;
    Ok((shrinked, failed))
}

/// After a mid-repair casualty: shrink the survivors again and rebuild the
/// failed list against `reference` (the communicator the list is numbered
/// in), so it stays cumulative across rounds.
fn reshrink(
    ctx: &Ctx,
    reference: &Comm,
    survivors: &Comm,
    timings: &mut ReconstructTimings,
) -> Result<(Comm, Vec<usize>)> {
    timings.rounds += 1;
    let t = ctx.now();
    let shrinked = survivors.shrink(ctx)?;
    timings.t_shrink += ctx.now() - t;
    ctx.trace_phase("revoke_shrink", t);
    let tf = ctx.now();
    let failed = failed_procs_list(reference, &shrinked);
    timings.t_flist += ctx.now() - tf;
    Ok((shrinked, failed))
}

/// Fig. 5 lines 7–21 over `survivors`: spawn one replacement per entry of
/// `failed`, merge, agree, hand each child its old rank, and re-order with
/// this survivor keyed `key`. `Ok(None)` means a *further* rank died
/// mid-round: the round is abandoned (its children — if any were created —
/// saw the same uniform error and exit as [`Error::Orphaned`]) and the
/// caller re-shrinks and goes again with the enlarged list.
fn respawn_round(
    ctx: &Ctx,
    survivors: &Comm,
    specs: &[SpawnSpec],
    failed: &[usize],
    key: i64,
    timings: &mut ReconstructTimings,
) -> Result<Option<Comm>> {
    let t_spawn0 = ctx.now();
    let inter: InterComm = match comm_spawn_multiple(ctx, survivors, specs) {
        Ok(i) => i,
        // A survivor died at the spawn rendezvous: no children exist.
        Err(e) if is_casualty(&e) => return Ok(None),
        Err(e) => return Err(e),
    };
    timings.t_spawn += ctx.now() - t_spawn0;
    ctx.trace_phase("spawn", t_spawn0);

    let t_merge0 = ctx.now();
    let unordered = match inter.merge(ctx, false) {
        Ok(u) => u,
        Err(e) if is_casualty(&e) => {
            inter.revoke(ctx);
            return Ok(None);
        }
        Err(e) => return Err(e),
    };
    timings.t_merge += ctx.now() - t_merge0;
    ctx.trace_phase("merge", t_merge0);
    let t_agree0 = ctx.now();
    let mut flag = true;
    // Fault-tolerant agreement: completes over survivors either way; a
    // casualty between merge and split is caught by the split below.
    let _ = inter.agree(ctx, &mut flag);
    timings.t_agree += ctx.now() - t_agree0;
    ctx.trace_phase("agree", t_agree0);

    // Rank 0 never fails (application invariant), so when the merge
    // succeeded the children are told their old ranks before the split.
    if unordered.rank() == 0 {
        for (i, &fr) in failed.iter().enumerate() {
            if unordered.send_one(ctx, survivors.size() + i, MERGE_TAG, fr as u64).is_err() {
                unordered.revoke(ctx);
                inter.revoke(ctx);
                return Ok(None);
            }
        }
    }

    let t_split0 = ctx.now();
    let reordered = unordered.split(ctx, Some(0), key);
    timings.t_split += ctx.now() - t_split0;
    match reordered {
        Ok(repaired) => {
            ctx.trace_phase("rank_reorder", t_split0);
            single_colour(repaired).map(Some)
        }
        Err(e) if is_casualty(&e) => {
            unordered.revoke(ctx);
            inter.revoke(ctx);
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Port of Fig. 5 (`repairComm`) with the paper's same-host placement.
/// Called by the survivors; returns the repaired communicator (original
/// size, original ranks).
pub fn repair_comm(ctx: &Ctx, broken: &Comm, timings: &mut ReconstructTimings) -> Result<Comm> {
    repair_comm_with(ctx, broken, RespawnPolicy::SameHost, timings)
}

/// Port of Fig. 5 (`repairComm`): revoke and shrink the broken
/// communicator, build the failed-rank list, re-spawn the failed ranks
/// per the [`RespawnPolicy`], merge, hand out old ranks, and re-order.
///
/// Nested failures are survived here, not just in the caller's do-while:
/// a rank dying mid-`spawn_multiple`, mid-`merge` or mid-`split` abandons
/// the round, the survivors are re-shrunk, and the protocol restarts with
/// the enlarged failed-rank list. The whole call runs inside a
/// [`Ctx::recovery_scope`], so `DuringRecovery` fault sites can strike any
/// of these operations.
pub fn repair_comm_with(
    ctx: &Ctx,
    broken: &Comm,
    policy: RespawnPolicy,
    timings: &mut ReconstructTimings,
) -> Result<Comm> {
    let _scope = ctx.recovery_scope();
    let (mut shrinked, mut failed) = revoke_shrink_list(ctx, broken, timings)?;
    loop {
        note_failed(timings, &failed);
        // A revoked-but-intact communicator (collateral revocation, no
        // deaths) needs no respawn; hand back the full-membership shrink.
        if failed.is_empty() {
            return Ok(shrinked);
        }
        // Paper (same-host): hostfileLineIndex ← failedRank / SLOTS; read
        // the host name from that hostfile line and put it in the MPI_Info.
        let specs = respawn_specs(ctx, broken, &failed, policy);
        // A survivor's merged rank equals its shrunken rank (Fig. 7).
        let key = select_rank_key(shrinked.rank(), shrinked.size(), &failed, broken.size());
        if let Some(repaired) = respawn_round(ctx, &shrinked, &specs, &failed, key, timings)? {
            return Ok(repaired);
        }
        (shrinked, failed) = reshrink(ctx, broken, &shrinked, timings)?;
    }
}

/// Shrink-only repair (`ShrinkRedistribute` / `DeferRepair` mid-run): the
/// survivors revoke + shrink and simply continue smaller — no spawn, no
/// merge, no reorder split (the shrink preserves relative rank order).
///
/// `members` maps each *current* world rank to its original rank; it is
/// lazily initialised to the identity on the first failure and compacted
/// here, identically on every survivor (the failed list is deterministic),
/// so no communication is needed to keep it consistent. Failed ranks are
/// recorded in `timings.failed_ranks` in **original** numbering.
pub fn repair_shrink(
    ctx: &Ctx,
    broken: &Comm,
    members: &mut Option<Vec<usize>>,
    timings: &mut ReconstructTimings,
) -> Result<Comm> {
    let _scope = ctx.recovery_scope();
    let m = members.get_or_insert_with(|| (0..broken.size()).collect());
    debug_assert_eq!(m.len(), broken.size(), "members map tracks the current world");
    let (shrinked, failed) = revoke_shrink_list(ctx, broken, timings)?;
    let orig: Vec<usize> = failed.iter().map(|&r| m[r]).collect();
    note_failed(timings, &orig);
    compact_members(m, &failed);
    debug_assert_eq!(m.len(), shrinked.size());
    Ok(shrinked)
}

/// Spare-substitution repair: revoke + shrink, then — if enough idle
/// spares survive — a single rank-reordering split that promotes spares
/// into the failed grid slots. No spawn round-trip, no intercomm merge:
/// the repair cost is one shrink plus one split.
///
/// `active_slots` is the grid-owning world prefix `W`; ranks `>= W` are
/// idle spares. Survivor keys come from [`select_rank_key`] (their
/// pre-failure rank); a surviving spare additionally *takes over* the
/// j-th failed active slot if it is the j-th surviving spare. Keys stay
/// unique (promoted spares use dead slots, everyone else keeps their own
/// old rank), so after the split world rank `i < W` owns grid slot `i`
/// again and the remaining spares sit at the tail.
///
/// If a burst kills more actives than there are surviving spares, the
/// repair falls back to the full respawn protocol
/// ([`repair_comm_with`]), which restores the *entire* pre-failure world
/// — failed actives and failed spares alike — so the slot invariant holds
/// on that path too.
pub fn repair_substitute(
    ctx: &Ctx,
    broken: &Comm,
    active_slots: usize,
    respawn: RespawnPolicy,
    timings: &mut ReconstructTimings,
) -> Result<Comm> {
    let _scope = ctx.recovery_scope();
    let (mut shrinked, mut failed) = revoke_shrink_list(ctx, broken, timings)?;
    loop {
        failed.sort_unstable();
        note_failed(timings, &failed);
        if failed.is_empty() {
            return Ok(shrinked);
        }
        let dead_active: Vec<usize> =
            failed.iter().copied().filter(|&r| r < active_slots).collect();
        let surviving_spares = shrinked.size() - (active_slots - dead_active.len());
        if dead_active.len() > surviving_spares {
            // Spares exhausted: restore everything (actives and spares)
            // via the spawn protocol. `repair_comm_with` re-revokes and
            // re-shrinks the broken communicator, which is idempotent.
            return repair_comm_with(ctx, broken, respawn, timings);
        }

        // --- single promote split over the survivors. ---
        let old_rank = select_rank_key(shrinked.rank(), shrinked.size(), &failed, broken.size());
        let key = if (old_rank as usize) < active_slots {
            old_rank // surviving active keeps its slot
        } else {
            // My position among the surviving spares, by old rank.
            let j = (active_slots..old_rank as usize).filter(|r| !failed.contains(r)).count();
            // Promoted into the j-th failed slot, or staying at the tail.
            dead_active.get(j).map_or(old_rank, |&slot| slot as i64)
        };
        let t_split0 = ctx.now();
        let promoted = shrinked.split(ctx, Some(0), key);
        timings.t_split += ctx.now() - t_split0;
        match promoted {
            Ok(repaired) => {
                ctx.trace_phase("rank_reorder", t_split0);
                return single_colour(repaired);
            }
            // A further casualty mid-promote: re-shrink and retry with the
            // enlarged failed list.
            Err(e) if is_casualty(&e) => {
                (shrinked, failed) = reshrink(ctx, broken, &shrinked, timings)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// The `DeferRepair` epoch batch: respawn **all** accumulated dead (in
/// original numbering) in one round, restoring the original world size and
/// rank order. Like [`repair_comm_with`], but the failed list is the
/// *accumulated* deferred set rather than one derived from a revoke+shrink
/// (the survivor world is already shrunken and healthy), and survivor
/// split keys come from the `members` map instead of Fig. 7 (which assumes
/// the dead were members of the communicator being repaired).
///
/// `alive` is the shrunken survivor world, `members` its current→original
/// rank map, `deferred` the accumulated dead (original ranks); a casualty
/// during the batch joins it. The caller confirms the returned
/// communicator with [`reconstruct`] entered as [`Join::Refilled`], whose
/// first round is already a confirming round. All repaired ranks are
/// recorded in `timings.failed_ranks`.
pub fn repair_deferred(
    ctx: &Ctx,
    alive: Comm,
    mut members: Vec<usize>,
    deferred: &mut Vec<usize>,
    respawn: RespawnPolicy,
    timings: &mut ReconstructTimings,
) -> Result<Comm> {
    let _scope = ctx.recovery_scope();
    debug_assert_eq!(members.len(), alive.size());
    let mut cur = alive;
    loop {
        deferred.sort_unstable();
        note_failed(timings, deferred);
        if deferred.is_empty() {
            return Ok(cur);
        }
        let specs = respawn_specs(ctx, &cur, deferred, respawn);
        // Survivors key by their original rank; children key by the rank
        // they are handed. Together that restores the original order.
        let key = members[cur.rank()] as i64;
        if let Some(repaired) = respawn_round(ctx, &cur, &specs, deferred, key, timings)? {
            return Ok(repaired);
        }
        // A casualty during the batch: shrink the survivor world and move
        // the new dead (translated to original numbering) into the set.
        let (shrinked, newly) = reshrink(ctx, &cur, &cur, timings)?;
        for &r in &newly {
            if !deferred.contains(&members[r]) {
                deferred.push(members[r]);
            }
        }
        compact_members(&mut members, &newly);
        cur = shrinked;
    }
}

/// What a failing round of [`reconstruct`] does about it — the recovery
/// policy's repair action.
pub enum RepairArm<'a> {
    /// Fig. 5: respawn the failed ranks ([`repair_comm_with`]).
    Respawn(RespawnPolicy),
    /// Continue smaller ([`repair_shrink`]), compacting the
    /// current→original rank map.
    Shrink(&'a mut Option<Vec<usize>>),
    /// Promote idle spares into the failed slots of the grid-owning prefix
    /// ([`repair_substitute`]).
    Substitute { active_slots: usize, respawn: RespawnPolicy },
}

impl<'a> RepairArm<'a> {
    /// The arm `policy` takes. `refilled` says the world is (back) at its
    /// original numbering with every slot to be refilled — always, except
    /// mid-run under the shrink-family policies, which continue smaller.
    /// After a `DeferRepair` epoch batch the numbering is original again,
    /// so its later casualties take the ordinary respawn arm.
    pub fn for_policy(
        policy: RecoveryPolicy,
        respawn: RespawnPolicy,
        active_slots: usize,
        members: &'a mut Option<Vec<usize>>,
        refilled: bool,
    ) -> Self {
        match policy {
            RecoveryPolicy::SpareSubstitute => RepairArm::Substitute { active_slots, respawn },
            RecoveryPolicy::ShrinkRedistribute => RepairArm::Shrink(members),
            RecoveryPolicy::DeferRepair if !refilled => RepairArm::Shrink(members),
            RecoveryPolicy::Respawn | RecoveryPolicy::DeferRepair => RepairArm::Respawn(respawn),
        }
    }

    fn repair(
        &mut self,
        ctx: &Ctx,
        broken: &Comm,
        timings: &mut ReconstructTimings,
    ) -> Result<Comm> {
        match self {
            RepairArm::Respawn(policy) => repair_comm_with(ctx, broken, *policy, timings),
            RepairArm::Shrink(members) => repair_shrink(ctx, broken, members, timings),
            RepairArm::Substitute { active_slots, respawn } => {
                repair_substitute(ctx, broken, *active_slots, *respawn, timings)
            }
        }
    }
}

/// How a rank enters [`reconstruct`].
pub enum Join {
    /// A survivor at a detection point (or retrying a wrecked
    /// combination): nothing is known to have failed on this world yet, so
    /// the first round only detects.
    Detect(Comm),
    /// A survivor whose world was just refilled outside the loop (the
    /// `DeferRepair` epoch batch): the first round already confirms.
    Refilled(Comm),
    /// A respawned child (what `MPI_Comm_get_parent` returned): it attaches
    /// through Fig. 3 lines 19–26, then confirms with everyone.
    Child(InterComm),
}

/// The application's data recovery, run inside every confirming round on
/// the communicator being confirmed. `timings.failed_ranks` holds the
/// event's casualties so far; restore time goes to `timings.t_restore`.
/// Must be idempotent: a later round re-runs it with an enlarged list.
/// [`Error::ProcFailed`] / [`Error::Revoked`] vote the round down; the
/// attempt revokes whatever communicators it created itself first.
pub type Attempt<'a> = &'a mut dyn FnMut(&Ctx, &Comm, &mut ReconstructTimings) -> Result<()>;

/// The child part of Fig. 3 (lines 19–26): merge with the survivors, agree,
/// learn the old rank, and take it in the reorder split.
///
/// Any recoverable error here means a *further* failure struck while the
/// survivors were attaching us: they abandon this round, re-shrink, and
/// spawn fresh replacements. We hold no usable communicator, so we exit as
/// orphaned — a clean termination, not an application error.
fn child_join(ctx: &Ctx, parent: InterComm, timings: &mut ReconstructTimings) -> Result<Comm> {
    let orphan = |e: Error| if is_casualty(&e) { Error::Orphaned } else { e };
    let t_merge0 = ctx.now();
    let unordered = parent.merge(ctx, true).map_err(orphan)?;
    timings.t_merge += ctx.now() - t_merge0;
    let t_agree0 = ctx.now();
    let mut flag = true;
    let _ = parent.agree(ctx, &mut flag); // fault-tolerant; advisory
    timings.t_agree += ctx.now() - t_agree0;
    let old_rank: u64 = unordered.recv_one(ctx, 0, MERGE_TAG).map_err(orphan)?;
    let t_split0 = ctx.now();
    let ordered = unordered.split(ctx, Some(0), old_rank as i64).map_err(orphan)?;
    timings.t_split += ctx.now() - t_split0;
    single_colour(ordered)
}

/// Port of Fig. 3 (`communicatorReconstruct`): the detection/repair
/// do-while, for every policy and every way of joining. Returns the
/// reconstructed communicator, on which a final agree + barrier round has
/// succeeded — and, when an `attempt` is given, on which the data recovery
/// it ran inside that round is thereby committed for every rank.
///
/// The attempt is due in every confirming round, i.e. once this event has
/// repaired something (a child and a refilled world start there). The
/// exit test is the barrier's result alone, as in the listing.
///
/// `timings.t_total` stays the paper's quantity (Fig. 8b): it excludes the
/// attempt windows and the time spent in the barrier that follows one
/// waiting for slower peers' attempts.
pub fn reconstruct(
    ctx: &Ctx,
    join: Join,
    arm: &mut RepairArm<'_>,
    mut attempt: Option<Attempt<'_>>,
    timings: &mut ReconstructTimings,
) -> Result<Comm> {
    let t_start = ctx.now();
    let mut not_reconstruction = 0.0;
    let (mut comm, mut confirming) = match join {
        Join::Detect(world) => (world, false),
        Join::Refilled(world) => (world, true),
        Join::Child(parent) => {
            timings.rounds += 1;
            (child_join(ctx, parent, timings)?, true)
        }
    };
    loop {
        timings.rounds += 1;
        // Fig. 3 line 11: attach the Fig. 4 handler. It acknowledges the
        // observed failures whenever an operation on `comm` errors, so the
        // agreement returns uniformly; the handle meters its time, so the
        // agree and detect segments it runs inside are reported net of it
        // and every timeline phase stays disjoint.
        comm.set_errhandler(mpi_error_handler);
        let t_agree0 = ctx.now();
        let mut flag = true;
        let _ = comm.agree(ctx, &mut flag); // handler acks on error
        let ack_in_agree = comm.errhandler_time();
        timings.t_agree += (ctx.now() - t_agree0 - ack_in_agree).max(0.0);
        timings.t_ack += ack_in_agree;

        let attempted = match attempt.as_mut() {
            Some(run) if confirming => {
                let t_attempt0 = ctx.now();
                let _scope = ctx.recovery_scope();
                match run(ctx, &comm, timings) {
                    Ok(()) => {}
                    // Vote the round down: revoked before we enter the
                    // barrier, it fails for every rank.
                    Err(e) if is_casualty(&e) => comm.revoke(ctx),
                    Err(e) => return Err(e),
                }
                not_reconstruction += ctx.now() - t_attempt0;
                true
            }
            _ => false,
        };

        let wait0 = ctx.peer_wait();
        let t_barrier0 = ctx.now();
        let verdict = comm.barrier(ctx);
        let waited = if attempted { ctx.peer_wait() - wait0 } else { 0.0 };
        not_reconstruction += waited;
        match verdict {
            Ok(()) => {
                // Rank-local view: waiting for a slower peer's restore is
                // restore time of the event.
                timings.t_restore += waited;
                break;
            }
            Err(e) if is_casualty(&e) => {
                // The erroring barrier *is* the failure detector (Fig. 3
                // line 13): its time is the detection phase.
                let ack_in_detect = comm.errhandler_time() - ack_in_agree;
                timings.t_detect += (ctx.now() - t_barrier0 - ack_in_detect).max(0.0);
                timings.t_ack += ack_in_detect;
                ctx.trace_phase("detect", t_barrier0);
                comm = arm.repair(ctx, &comm, timings)?;
                confirming = true;
            }
            Err(e) => return Err(e),
        }
    }
    timings.t_total += ctx.now() - t_start - not_reconstruction;
    Ok(comm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_rank_key_reproduces_paper_example() {
        // 7 ranks, 3 and 5 failed (the paper's Fig. 2). Survivors (merged
        // ranks 0..5) must be keyed 0,1,2,4,6.
        let failed = vec![3, 5];
        let keys: Vec<i64> = (0..5).map(|r| select_rank_key(r, 5, &failed, 7)).collect();
        assert_eq!(keys, vec![0, 1, 2, 4, 6]);
    }

    #[test]
    fn select_rank_key_no_failures_is_identity() {
        let keys: Vec<i64> = (0..4).map(|r| select_rank_key(r, 4, &[], 4)).collect();
        assert_eq!(keys, vec![0, 1, 2, 3]);
    }

    /// Fig. 7 as printed: build `shrinkMergeList`, index it.
    fn select_rank_key_by_list(my_rank: usize, failed: &[usize], total: usize) -> i64 {
        let list: Vec<usize> = (0..total).filter(|i| !failed.contains(i)).collect();
        list[my_rank] as i64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The walk of the failed list against the materialised list, for
        /// random failed sets (none to all but one) in worlds up to 2,000.
        #[test]
        fn select_rank_key_matches_the_list_form(
            total in 1usize..=2000,
            threshold in proptest::prelude::any::<u8>(),
            draws in proptest::collection::vec(proptest::prelude::any::<u8>(), 2000),
        ) {
            let mut failed: Vec<usize> = (0..total).filter(|&r| draws[r] < threshold).collect();
            if failed.len() == total {
                failed.remove(draws[0] as usize % total);
            }
            let survivors = total - failed.len();
            for my_rank in [0, survivors / 2, survivors - 1] {
                proptest::prop_assert_eq!(
                    select_rank_key(my_rank, survivors, &failed, total),
                    select_rank_key_by_list(my_rank, &failed, total)
                );
            }
            if total <= 64 {
                for my_rank in 0..survivors {
                    proptest::prop_assert_eq!(
                        select_rank_key(my_rank, survivors, &failed, total),
                        select_rank_key_by_list(my_rank, &failed, total)
                    );
                }
            }
        }
    }

    #[test]
    fn select_rank_key_first_rank_failed() {
        // Rank 0 failing is forbidden at app level, but the key math must
        // still be correct.
        let keys: Vec<i64> = (0..3).map(|r| select_rank_key(r, 3, &[1], 4)).collect();
        assert_eq!(keys, vec![0, 2, 3]);
    }
}
