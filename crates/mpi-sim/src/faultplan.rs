//! Failure injection plans.
//!
//! The paper injects faults "using a failure generator which aborts single
//! or multiple random MPI processes together by the system call
//! `kill(getpid(), SIGKILL)` at some point before the combination of the
//! sub-grid solutions", with one standing constraint: *rank 0 can never be
//! failed* (it is used for controlling purposes). A [`FaultPlan`] encodes
//! exactly that: which ranks die, and at which [`FaultSite`].
//!
//! Sites come in three kinds:
//!
//! * **Step boundary** ([`FaultSite::Step`]) — the paper's original
//!   injection point: the victim dies right before solver timestep `s`.
//! * **Operation site** ([`FaultSite::Op`]) — the victim dies at the entry
//!   of its `nth` runtime operation of a given [`OpClass`]: mid-collective
//!   from its peers' point of view, since the victim never deposits its
//!   contribution.
//! * **During recovery** ([`FaultSite::DuringRecovery`]) — the victim dies
//!   at the `nth` runtime operation it executes *while a recovery of a
//!   previous failure is in progress* (see
//!   [`Ctx::recovery_scope`](crate::runtime::Ctx::recovery_scope)), the
//!   nested-failure case the paper's do-while reconstruction loop exists
//!   for.
//!
//! Step sites are polled by the application (it knows its own timestep);
//! operation and recovery sites are armed into the runtime via
//! [`Ctx::arm_fault_sites`](crate::runtime::Ctx::arm_fault_sites) and fire
//! from the hook at the top of every runtime operation.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// Classes of runtime operations a fault site can target. Every collective
/// entry point in [`crate::comm`] / [`crate::spawn`] and the
/// checkpoint-write path in [`crate::runtime::Ctx::disk_write`] reports its
/// class to the kill hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// `MPI_Barrier`.
    Barrier,
    /// `MPI_Bcast`.
    Bcast,
    /// `MPI_Gatherv`.
    Gather,
    /// `MPI_Scatterv`.
    Scatter,
    /// `MPI_Alltoallv`: spec and report vocabulary; the simulator makes no
    /// such call, so a site of this class never strikes.
    Alltoall,
    /// `MPI_Reduce` / `MPI_Allreduce`.
    Allreduce,
    /// `MPI_Comm_split`.
    Split,
    /// `MPI_Comm_dup`: spec and report vocabulary; the simulator makes no
    /// such call, so a site of this class never strikes.
    Dup,
    /// `OMPI_Comm_shrink`.
    Shrink,
    /// `OMPI_Comm_agree` (intra- or intercommunicator).
    Agree,
    /// `MPI_Intercomm_merge`.
    Merge,
    /// `MPI_Comm_spawn_multiple`.
    Spawn,
    /// A checkpoint-style disk write.
    CkptWrite,
    /// Copying the sub-grid into the async checkpointer's double buffer.
    CkptSnapshot,
    /// Handing a snapshot to the bounded checkpoint-writer queue.
    CkptEnqueue,
    /// Draining the async checkpoint queue at a recovery or end-of-run
    /// barrier.
    CkptDrain,
    /// `MPI_Isend` (posting a nonblocking send).
    Isend,
    /// `MPI_Irecv` (posting a nonblocking receive).
    Irecv,
    /// `MPI_Wait` / `MPI_Waitall` (completing a nonblocking operation).
    Wait,
}

impl OpClass {
    /// Stable lowercase name used by spec strings and reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Barrier => "barrier",
            OpClass::Bcast => "bcast",
            OpClass::Gather => "gather",
            OpClass::Scatter => "scatter",
            OpClass::Alltoall => "alltoall",
            OpClass::Allreduce => "allreduce",
            OpClass::Split => "split",
            OpClass::Dup => "dup",
            OpClass::Shrink => "shrink",
            OpClass::Agree => "agree",
            OpClass::Merge => "merge",
            OpClass::Spawn => "spawn",
            OpClass::CkptWrite => "ckptwrite",
            OpClass::CkptSnapshot => "ckptsnapshot",
            OpClass::CkptEnqueue => "ckptenqueue",
            OpClass::CkptDrain => "ckptdrain",
            OpClass::Isend => "isend",
            OpClass::Irecv => "irecv",
            OpClass::Wait => "wait",
        }
    }

    /// Parse [`OpClass::name`] back into the class.
    pub fn from_name(s: &str) -> Option<OpClass> {
        Some(match s {
            "barrier" => OpClass::Barrier,
            "bcast" => OpClass::Bcast,
            "gather" => OpClass::Gather,
            "scatter" => OpClass::Scatter,
            "alltoall" => OpClass::Alltoall,
            "allreduce" => OpClass::Allreduce,
            "split" => OpClass::Split,
            "dup" => OpClass::Dup,
            "shrink" => OpClass::Shrink,
            "agree" => OpClass::Agree,
            "merge" => OpClass::Merge,
            "spawn" => OpClass::Spawn,
            "ckptwrite" => OpClass::CkptWrite,
            "ckptsnapshot" => OpClass::CkptSnapshot,
            "ckptenqueue" => OpClass::CkptEnqueue,
            "ckptdrain" => OpClass::CkptDrain,
            "isend" => OpClass::Isend,
            "irecv" => OpClass::Irecv,
            "wait" => OpClass::Wait,
            _ => return None,
        })
    }
}

/// Where (in a rank's execution) a scheduled kill strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultSite {
    /// Die right before solver timestep `s` (`s == steps` means "just
    /// before the final detection point"). Polled by the application.
    Step(u64),
    /// Die at the entry of this rank's `nth` (0-based) runtime operation
    /// of class `kind` — the peers observe a mid-collective death.
    Op {
        /// The operation class to strike in.
        kind: OpClass,
        /// 0-based occurrence index on the victim rank.
        nth: u64,
    },
    /// Die at the `nth` (0-based) runtime operation this rank executes
    /// while recovery of a previous failure is in progress — exercising
    /// the nested-failure restart of the reconstruction loop.
    DuringRecovery {
        /// 0-based index over the rank's in-recovery operations.
        nth: u64,
    },
}

/// A deterministic schedule of fail-stop kills.
///
/// ```
/// use ulfm_sim::{FaultPlan, FaultSite, OpClass};
///
/// let plan = FaultPlan::random(2, 16, 100, 42, &[]);
/// assert_eq!(plan.n_failures(), 2);
/// assert!(!plan.victim_ranks().contains(&0)); // rank 0 is protected
/// for &(rank, site) in plan.victims() {
///     if let FaultSite::Step(step) = site {
///         assert!(plan.strikes(rank, step));
///     }
/// }
/// let plan = FaultPlan::at_site(3, FaultSite::Op { kind: OpClass::Barrier, nth: 1 });
/// assert_eq!(plan.sites_for(3).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    victims: Vec<(usize, FaultSite)>,
}

impl FaultPlan {
    /// No failures.
    pub fn none() -> Self {
        FaultPlan { victims: Vec::new() }
    }

    /// Explicit list of `(rank, timestep)` kills (step-boundary sites).
    pub fn new(victims: Vec<(usize, u64)>) -> Self {
        Self::new_sites(victims.into_iter().map(|(r, s)| (r, FaultSite::Step(s))).collect())
    }

    /// Explicit list of `(rank, site)` kills.
    pub fn new_sites(mut victims: Vec<(usize, FaultSite)>) -> Self {
        victims.sort_unstable();
        victims.dedup();
        assert!(
            victims.iter().all(|&(r, _)| r != 0),
            "rank 0 cannot be failed (controller rank, paper §III)"
        );
        FaultPlan { victims }
    }

    /// Kill one rank at one step.
    pub fn single(rank: usize, step: u64) -> Self {
        Self::new(vec![(rank, step)])
    }

    /// Kill one rank at one site.
    pub fn at_site(rank: usize, site: FaultSite) -> Self {
        Self::new_sites(vec![(rank, site)])
    }

    /// Choose `n` distinct random victims from `1..world` (never rank 0,
    /// never anything in `forbidden`), each dying at an *independently*
    /// drawn step in `0..=max_step`. Deterministic in `seed`.
    pub fn random(n: usize, world: usize, max_step: u64, seed: u64, forbidden: &[usize]) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pool: Vec<usize> = (1..world).filter(|r| !forbidden.contains(r)).collect();
        pool.shuffle(&mut rng);
        pool.truncate(n);
        Self::new(pool.into_iter().map(|r| (r, rng.gen_range(0..=max_step))).collect())
    }

    /// Should `rank` die at `step`? (Step-boundary sites only; operation
    /// sites fire from the runtime hook instead.)
    pub fn strikes(&self, rank: usize, step: u64) -> bool {
        self.victims.iter().any(|&(r, s)| r == rank && s == FaultSite::Step(step))
    }

    /// All victims, as `(rank, site)` pairs sorted by rank.
    pub fn victims(&self) -> &[(usize, FaultSite)] {
        &self.victims
    }

    /// The non-step sites scheduled for `rank` (what
    /// [`Ctx::arm_fault_sites`](crate::runtime::Ctx::arm_fault_sites)
    /// installs into the runtime hooks).
    pub fn sites_for(&self, rank: usize) -> Vec<FaultSite> {
        self.victims
            .iter()
            .filter(|&&(r, s)| r == rank && !matches!(s, FaultSite::Step(_)))
            .map(|&(_, s)| s)
            .collect()
    }

    /// Victim ranks regardless of site.
    pub fn victim_ranks(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.victims.iter().map(|&(r, _)| r).collect();
        v.dedup();
        v
    }

    /// Total number of failures scheduled.
    pub fn n_failures(&self) -> usize {
        self.victims.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strikes_matches_exact_rank_and_step() {
        let p = FaultPlan::new(vec![(3, 100), (5, 100)]);
        assert!(p.strikes(3, 100));
        assert!(p.strikes(5, 100));
        assert!(!p.strikes(3, 99));
        assert!(!p.strikes(4, 100));
        assert_eq!(p.n_failures(), 2);
    }

    #[test]
    #[should_panic(expected = "rank 0")]
    fn rank_zero_is_protected() {
        let _ = FaultPlan::single(0, 1);
    }

    #[test]
    #[should_panic(expected = "rank 0")]
    fn rank_zero_is_protected_at_op_sites() {
        let _ = FaultPlan::at_site(0, FaultSite::Op { kind: OpClass::Barrier, nth: 0 });
    }

    #[test]
    fn random_is_deterministic_and_respects_exclusions() {
        let a = FaultPlan::random(3, 16, 50, 42, &[7, 8]);
        let b = FaultPlan::random(3, 16, 50, 42, &[7, 8]);
        assert_eq!(a, b);
        assert_eq!(a.n_failures(), 3);
        for &(r, site) in a.victims() {
            assert_ne!(r, 0);
            assert!(r < 16);
            assert!(r != 7 && r != 8);
            match site {
                FaultSite::Step(s) => assert!(s <= 50),
                other => panic!("random plans are step plans, got {other:?}"),
            }
        }
        let c = FaultPlan::random(3, 16, 50, 43, &[]);
        assert_ne!(a, c, "different seeds should pick different victims");
    }

    #[test]
    fn random_draws_independent_steps() {
        // With 3 victims and 1000 possible steps, a shared step across all
        // victims for 10 different seeds would be astronomically unlikely.
        let mut saw_distinct = false;
        for seed in 0..10u64 {
            let p = FaultPlan::random(3, 16, 1000, seed, &[]);
            let steps: Vec<u64> = p
                .victims()
                .iter()
                .map(|&(_, s)| match s {
                    FaultSite::Step(v) => v,
                    _ => unreachable!(),
                })
                .collect();
            if steps.windows(2).any(|w| w[0] != w[1]) {
                saw_distinct = true;
            }
        }
        assert!(saw_distinct, "victims must not all share one step");
    }

    #[test]
    fn random_caps_at_pool_size() {
        let p = FaultPlan::random(100, 4, 1, 7, &[]);
        assert_eq!(p.n_failures(), 3); // ranks 1, 2, 3
    }

    #[test]
    fn dedup_and_empty() {
        let p = FaultPlan::new(vec![(2, 5), (2, 5)]);
        assert_eq!(p.n_failures(), 1);
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().victim_ranks(), Vec::<usize>::new());
    }

    #[test]
    fn sites_for_filters_step_sites() {
        let p = FaultPlan::new_sites(vec![
            (2, FaultSite::Step(5)),
            (2, FaultSite::Op { kind: OpClass::Gather, nth: 3 }),
            (3, FaultSite::DuringRecovery { nth: 1 }),
        ]);
        assert_eq!(p.sites_for(2), vec![FaultSite::Op { kind: OpClass::Gather, nth: 3 }]);
        assert_eq!(p.sites_for(3), vec![FaultSite::DuringRecovery { nth: 1 }]);
        assert!(p.sites_for(4).is_empty());
        assert_eq!(p.victim_ranks(), vec![2, 3]);
    }

    #[test]
    fn opclass_name_roundtrip() {
        for k in [
            OpClass::Barrier,
            OpClass::Bcast,
            OpClass::Gather,
            OpClass::Scatter,
            OpClass::Alltoall,
            OpClass::Allreduce,
            OpClass::Split,
            OpClass::Dup,
            OpClass::Shrink,
            OpClass::Agree,
            OpClass::Merge,
            OpClass::Spawn,
            OpClass::CkptWrite,
            OpClass::CkptSnapshot,
            OpClass::CkptEnqueue,
            OpClass::CkptDrain,
            OpClass::Isend,
            OpClass::Irecv,
            OpClass::Wait,
        ] {
            assert_eq!(OpClass::from_name(k.name()), Some(k));
        }
        assert_eq!(OpClass::from_name("nonsense"), None);
    }
}
