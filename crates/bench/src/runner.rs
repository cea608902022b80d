//! Shared launch and victim-sampling helpers for the experiments.

use std::sync::Arc;
use std::time::Duration;

use ftsg_core::{run_app, AppConfig, ProcLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{run, ClusterProfile, IdealUlfm, Report, RunConfig};

/// Which ULFM cost model a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's beta Open MPI `1.7ft`, calibrated against Table I.
    Beta,
    /// The idealized, failure-count-independent ablation.
    Ideal,
}

impl ModelKind {
    /// Label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Beta => "beta-ulfm",
            ModelKind::Ideal => "ideal-ulfm",
        }
    }
}

/// Scale a profile's per-cell compute cost so that a reduced-size run
/// (`n < 13`, `2^k < 2^13` steps) charges the *virtual* compute the paper's
/// full-size configuration would: the cell count of a fixed-`l` grid
/// system scales as `4^Δn` and the step count as `2^Δk`. Without this, the
/// fixed protocol overheads (detection agreement, checkpoint latency,
/// reconstruction) dwarf the solve phase and every efficiency curve
/// collapses — the paper's compute/overhead ratio is part of what Figs. 9
/// and 11 measure. Documented in EXPERIMENTS.md.
pub fn emulate_paper_scale(mut profile: ClusterProfile, n: u32, log2_steps: u32) -> ClusterProfile {
    let dn = 13u32.saturating_sub(n);
    let dk = 13u32.saturating_sub(log2_steps);
    // Grid-size ratio applies to all compute; the step-count compression
    // applies to per-timestep solve work only (one-shot work like the
    // combination happens once regardless of how many steps were run).
    profile.cell_update_time *= 4f64.powi(dn as i32);
    profile.step_multiplier = 2f64.powi(dk as i32);
    profile
}

/// Run the full application on a cluster profile and return the report.
/// Panics if the application recorded any error (experiments must be
/// healthy runs).
///
/// One scheduler worker: with more, an end-of-run kill races the victim's
/// halo partner's last sends in real time, which moves virtual times, so
/// two runs of the same experiment could write different tables.
pub fn launch_on(profile: ClusterProfile, model: ModelKind, cfg: AppConfig, seed: u64) -> Report {
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let world = layout.world_size();
    let mut rc = RunConfig::cluster(profile, world).with_seed(seed).with_workers(1);
    if model == ModelKind::Ideal {
        let net = rc.profile.net;
        rc = rc.with_model(Arc::new(IdealUlfm::new(net)));
    }
    rc.stall_timeout = Duration::from_secs(120);
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

/// Sample `count` distinct victim *ranks* (never rank 0), honouring the
/// Resampling-and-Copying conflict constraints when `rc_constraints` is
/// set. Deterministic in `seed`.
pub fn random_victims(
    layout: &ProcLayout,
    count: usize,
    rc_constraints: bool,
    seed: u64,
) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let world = layout.world_size();
    let conflicts = layout.system().rc_conflicts();
    let mut chosen: Vec<usize> = Vec::new();
    let mut guard = 0usize;
    while chosen.len() < count {
        guard += 1;
        assert!(guard < 100_000, "could not sample {count} admissible victims");
        let r = rng.gen_range(1..world);
        if chosen.contains(&r) {
            continue;
        }
        if rc_constraints {
            let mut attempt = chosen.clone();
            attempt.push(r);
            if violates_rc(&layout.broken_grids(&attempt), &conflicts) {
                continue;
            }
        }
        chosen.push(r);
    }
    chosen.sort_unstable();
    chosen
}

/// Sample `count` distinct lost *grids* of `n_grids` for the
/// simulated-failure experiments (Figs. 9 and 10 and their 3D twin),
/// redrawing any set that [`violates_rc`] when `rc_constraints` is set.
/// Deterministic in `seed`.
pub fn random_lost_grids(
    n_grids: usize,
    conflicts: &[(usize, usize)],
    count: usize,
    rc_constraints: bool,
    seed: u64,
) -> Vec<usize> {
    assert!(count <= n_grids, "cannot lose {count} of {n_grids} grids");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut guard = 0usize;
    loop {
        guard += 1;
        assert!(guard < 100_000, "could not sample {count} admissible lost grids");
        let mut grids: Vec<usize> = Vec::new();
        while grids.len() < count {
            let g = rng.gen_range(0..n_grids);
            if !grids.contains(&g) {
                grids.push(g);
            }
        }
        if rc_constraints && violates_rc(&grids, conflicts) {
            continue;
        }
        grids.sort_unstable();
        return grids;
    }
}

/// The `broken` grids hold both grids of a Resampling-and-Copying
/// conflict pair (a grid and the duplicate it would be copied from), so
/// RC could not recover them.
pub fn violates_rc(broken: &[usize], conflicts: &[(usize, usize)]) -> bool {
    conflicts.iter().any(|&(a, b)| broken.contains(&a) && broken.contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsg_core::Technique;

    fn rc_layout() -> ProcLayout {
        ProcLayout::new(9, 4, Technique::ResamplingCopying.layout(), 2)
    }

    #[test]
    fn victims_exclude_rank_zero_and_are_deterministic() {
        let lay = rc_layout();
        let a = random_victims(&lay, 3, true, 7);
        let b = random_victims(&lay, 3, true, 7);
        assert_eq!(a, b);
        assert!(!a.contains(&0));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn rc_constrained_victims_avoid_conflicting_grids() {
        let lay = rc_layout();
        let conflicts = lay.system().rc_conflicts();
        for seed in 0..30 {
            let v = random_victims(&lay, 4, true, seed);
            let broken = lay.broken_grids(&v);
            assert!(!violates_rc(&broken, &conflicts), "seed {seed} gave conflicting {v:?}");
        }
    }

    #[test]
    fn lost_grids_respect_rc_conflicts() {
        let lay = rc_layout();
        let sys = lay.system();
        let conflicts = sys.rc_conflicts();
        for seed in 0..30 {
            let g = random_lost_grids(sys.n_grids(), &conflicts, 5, true, seed);
            assert_eq!(g.len(), 5);
            assert!(!violates_rc(&g, &conflicts), "seed {seed} gave conflicting {g:?}");
        }
    }

    #[test]
    fn unconstrained_lost_grids_cover_range() {
        let lay = rc_layout();
        let sys = lay.system();
        let g = random_lost_grids(sys.n_grids(), &sys.rc_conflicts(), sys.n_grids(), false, 1);
        assert_eq!(g, (0..sys.n_grids()).collect::<Vec<_>>());
    }
}
