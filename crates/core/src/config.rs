//! Application configuration: problem size, technique, scale, failures.

use std::path::PathBuf;

use advect2d::ndproblem::ProblemN;
use advect2d::{AdvectionProblem, KernelConfig};
use sparsegrid::{GridSystemN, Layout};
use ulfm_sim::FaultPlan;

use crate::checkpoint::CorruptionPlan;
use crate::policy::RecoveryPolicy;
use crate::reconstruct::RespawnPolicy;

/// The three data recovery techniques of the paper (§II-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Exact recovery from periodic disk checkpoints; restart + recompute.
    CheckpointRestart,
    /// Near-exact recovery: duplicate diagonal grids are copied, lower
    /// diagonals resampled from the finer diagonal above them.
    ResamplingCopying,
    /// Approximate recovery: recompute combination coefficients over the
    /// survivors (robust combination with two extra layers) and sample the
    /// combined solution as the lost grid's data.
    AlternateCombination,
    /// **Extension (not in the paper):** diskless *buddy* checkpointing —
    /// each sub-grid periodically ships its state to a partner group's
    /// root, which keeps it in memory; recovery restores from the buddy
    /// copy (falling back to an initial-condition restart if the buddy's
    /// root died too) and recomputes, exactly like Checkpoint/Restart but
    /// without touching the disk.
    BuddyCheckpoint,
}

impl Technique {
    /// The grid-system layout this technique runs with (paper Fig. 1).
    pub fn layout(&self) -> Layout {
        match self {
            Technique::CheckpointRestart | Technique::BuddyCheckpoint => Layout::Plain,
            Technique::ResamplingCopying => Layout::Duplicates,
            Technique::AlternateCombination => Layout::ExtraLayers,
        }
    }

    /// Does this technique run periodic protection points (checkpoints /
    /// buddy exchanges) with mid-run failure detection?
    pub fn has_periodic_protection(&self) -> bool {
        matches!(self, Technique::CheckpointRestart | Technique::BuddyCheckpoint)
    }

    /// Short label used in experiment tables ("CR", "RC", "AC").
    pub fn label(&self) -> &'static str {
        match self {
            Technique::CheckpointRestart => "CR",
            Technique::ResamplingCopying => "RC",
            Technique::AlternateCombination => "AC",
            Technique::BuddyCheckpoint => "BC",
        }
    }

    /// All three, in the paper's reporting order.
    pub fn all() -> [Technique; 3] {
        [
            Technique::ResamplingCopying,
            Technique::AlternateCombination,
            Technique::CheckpointRestart,
        ]
    }
}

/// Full configuration of one application run.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Full grid size `n` (the paper uses 13; defaults here are smaller so
    /// runs stay laptop-scale — see EXPERIMENTS.md).
    pub n: u32,
    /// Combination level `l ≥ 2` (the paper uses 4).
    pub l: u32,
    /// Process-count scale `s`: `2s` processes per diagonal (and
    /// duplicate) grid, `s` per lower diagonal, `⌈s/2⌉` / `⌈s/4⌉` per
    /// extra-layer grid — the paper's Fig. 9 caption is `s = 4`
    /// (8/4/2/1).
    pub scale: usize,
    /// The recovery technique under test.
    pub technique: Technique,
    /// Solve for `2^log2_steps` timesteps (the paper runs `2^13`).
    pub log2_steps: u32,
    /// The failure schedule (solver-step indexed; `step == steps` means
    /// "just before the final detection point").
    pub plan: FaultPlan,
    /// Number of checkpoints `C` for Checkpoint/Restart — the paper's
    /// Eq. 2: `C = T / T_IO` with `T` the MTBF (half the run time in
    /// their setup).
    pub checkpoints: u32,
    /// Directory for checkpoint files (a per-run temp dir by default).
    pub ckpt_dir: PathBuf,
    /// Checkpoint writes go through the asynchronous checkpoint stage
    /// (default); `false` restores the synchronous critical-path write
    /// for A/B comparison. Either way the solver output is bitwise
    /// identical — only where the `T_IO` virtual cost lands differs. The
    /// same at every dimension.
    pub ckpt_async: bool,
    /// Fault-injection corruption strikes applied to checkpoint files as
    /// they land (chaos campaigns; empty by default).
    pub ckpt_corruption: CorruptionPlan,
    /// The PDE being solved.
    pub problem: AdvectionProblem,
    /// Spatial dimension of the run (2 = the tuned 2D fast path, the
    /// bitwise reference; ≥ 3 routes through the d-dimensional driver).
    pub dim: usize,
    /// The d-dimensional PDE (`dim ≥ 3` only; `None` defaults to the
    /// standard advection–diffusion instance in `dim` dimensions).
    pub problem_nd: Option<ProblemN>,
    /// *Simulated* grid losses (the paper's Figs. 9 and 10 use non-real,
    /// simulated failures): at the final detection point, the data
    /// recovery path runs for these grids as if each had lost a process,
    /// without killing anyone and without communicator reconstruction.
    pub simulated_lost_grids: Vec<usize>,
    /// Where replacement processes go (the paper's same-host placement,
    /// or the §V future-work spare-node policy).
    pub respawn_policy: RespawnPolicy,
    /// What "repair" means: respawn to full size (paper), shrink and
    /// continue degraded, promote spares, or defer to the combination
    /// epoch. See [`RecoveryPolicy`].
    pub recovery_policy: RecoveryPolicy,
    /// Idle spare ranks provisioned after the active slots
    /// (`SpareSubstitute` only; the launch world is
    /// `layout.world_size() + spares`). Ignored by the other policies.
    pub spares: usize,
    /// If set, the controller writes the combined solution here as
    /// `<prefix>.csv` and `<prefix>.pgm` after the final combination.
    /// 2D only: [`AppConfig::validate`] rejects it at `dim ≥ 3`.
    pub output_prefix: Option<PathBuf>,
    /// Stencil-kernel configuration for every distributed solver this
    /// run creates: scalar reference vs vectorized rows. Both are
    /// bitwise-identical (see `advect2d::simd`); the default comes from
    /// the `FTSG_KERNEL` env knob.
    pub kernel: KernelConfig,
    /// Live progress/recovery observer, called by rank 0 only (the
    /// benchmark harness splits set-up from solve at `Epoch { step: 0 }`).
    /// `None` by default; it adds no runtime operation either way.
    pub observer: Option<AppObserver>,
}

/// Live application events for an external observer: epoch boundaries and
/// completed recoveries, reported by rank 0 only (so an observer sees one
/// consistent stream, not `world` interleaved ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppEvent {
    /// Rank 0 reached the epoch (detection-segment) boundary at `step` of
    /// `steps` total.
    Epoch { step: u64, steps: u64 },
    /// A repair plus data recovery committed at detection step `step`
    /// covering `ranks` failed ranks.
    Recovered { step: u64, ranks: usize },
}

/// Shareable [`AppEvent`] callback (the closure is invoked on whichever
/// thread runs rank 0's fiber — it must be cheap and must not block on
/// the run itself).
#[derive(Clone)]
pub struct AppObserver(pub std::sync::Arc<dyn Fn(AppEvent) + Send + Sync>);

impl AppObserver {
    /// Wrap a callback.
    pub fn new(f: impl Fn(AppEvent) + Send + Sync + 'static) -> Self {
        AppObserver(std::sync::Arc::new(f))
    }

    /// Invoke the callback.
    pub fn emit(&self, ev: AppEvent) {
        (self.0)(ev)
    }
}

impl std::fmt::Debug for AppObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AppObserver(..)")
    }
}

impl AppConfig {
    /// A small, fast configuration for tests and examples.
    pub fn small(technique: Technique) -> Self {
        AppConfig {
            n: 6,
            l: 3,
            scale: 1,
            technique,
            log2_steps: 5,
            plan: FaultPlan::none(),
            checkpoints: 2,
            ckpt_dir: default_ckpt_dir(),
            ckpt_async: true,
            ckpt_corruption: CorruptionPlan::none(),
            problem: AdvectionProblem::standard(),
            dim: 2,
            problem_nd: None,
            simulated_lost_grids: Vec::new(),
            respawn_policy: RespawnPolicy::SameHost,
            recovery_policy: RecoveryPolicy::Respawn,
            spares: 0,
            output_prefix: None,
            kernel: KernelConfig::global(),
            observer: None,
        }
    }

    /// A small, fast d-dimensional configuration (3D chaos shape by
    /// default: `d = 3, n = 4, l = 4`).
    pub fn small_nd(technique: Technique, dim: usize) -> Self {
        let mut cfg = AppConfig::small(technique);
        cfg.dim = dim;
        cfg.n = 4;
        cfg.l = 4;
        cfg.log2_steps = 4;
        cfg
    }

    /// The paper's structural configuration (`l = 4`) at a reduced grid
    /// size `n` and step count — the shape-preserving substitution
    /// documented in DESIGN.md §2.
    pub fn paper_shaped(technique: Technique, n: u32, scale: usize, log2_steps: u32) -> Self {
        AppConfig {
            n,
            l: 4,
            scale,
            technique,
            log2_steps,
            plan: FaultPlan::none(),
            checkpoints: 4,
            ckpt_dir: default_ckpt_dir(),
            ckpt_async: true,
            ckpt_corruption: CorruptionPlan::none(),
            problem: AdvectionProblem::standard(),
            dim: 2,
            problem_nd: None,
            simulated_lost_grids: Vec::new(),
            respawn_policy: RespawnPolicy::SameHost,
            recovery_policy: RecoveryPolicy::Respawn,
            spares: 0,
            output_prefix: None,
            kernel: KernelConfig::global(),
            observer: None,
        }
    }

    /// Attach a live progress/recovery observer (rank 0 only).
    pub fn with_observer(mut self, obs: AppObserver) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Replace the stencil-kernel formulation.
    pub fn with_kernel(mut self, kernel: KernelConfig) -> Self {
        self.kernel = kernel;
        self
    }

    /// Write the combined solution to `<prefix>.csv` / `<prefix>.pgm`.
    pub fn with_output_prefix(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.output_prefix = Some(prefix.into());
        self
    }

    /// Replace the respawn policy (spare-node recovery, paper §V).
    pub fn with_respawn_policy(mut self, policy: RespawnPolicy) -> Self {
        self.respawn_policy = policy;
        self
    }

    /// Replace the recovery policy (shrink / substitute / defer).
    pub fn with_recovery_policy(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery_policy = policy;
        self
    }

    /// Provision `k` idle spare ranks after the active slots
    /// (`SpareSubstitute`). The caller must launch
    /// `layout.world_size() + k` processes; see [`AppConfig::world_size`].
    pub fn with_spares(mut self, k: usize) -> Self {
        self.spares = k;
        self
    }

    /// The world size this configuration must be launched with: the
    /// layout's active slots, plus the spare tail under
    /// [`RecoveryPolicy::SpareSubstitute`].
    pub fn world_size(&self, layout_world: usize) -> usize {
        match self.recovery_policy {
            RecoveryPolicy::SpareSubstitute => layout_world + self.spares,
            _ => layout_world,
        }
    }

    /// Replace the simulated-loss list (paper Figs. 9 and 10).
    pub fn with_simulated_losses(mut self, grids: Vec<usize>) -> Self {
        self.simulated_lost_grids = grids;
        self
    }

    /// Replace the failure plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Replace the checkpoint count (Eq. 2 output).
    pub fn with_checkpoints(mut self, c: u32) -> Self {
        self.checkpoints = c;
        self
    }

    /// Checkpoint synchronously on the critical path (the pre-async
    /// reference behavior, kept for A/B comparison; 3D runs always do).
    pub fn with_sync_checkpoints(mut self) -> Self {
        self.ckpt_async = false;
        self
    }

    /// Attach a checkpoint-corruption plan (fault injection).
    pub fn with_ckpt_corruption(mut self, plan: CorruptionPlan) -> Self {
        self.ckpt_corruption = plan;
        self
    }

    /// Set the spatial dimension (≥ 3 routes through the nd driver).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Replace the d-dimensional PDE (`dim ≥ 3` runs only).
    pub fn with_problem_nd(mut self, problem: ProblemN) -> Self {
        self.problem_nd = Some(problem);
        self
    }

    /// The d-dimensional PDE this configuration solves (`dim ≥ 3`):
    /// the explicit [`AppConfig::problem_nd`], or the standard
    /// advection–diffusion instance in `dim` dimensions.
    pub fn resolved_problem_nd(&self) -> ProblemN {
        self.problem_nd.clone().unwrap_or_else(|| ProblemN::standard_advection(self.dim))
    }

    /// Validate the configuration at the application boundary, *before*
    /// any layout or level-set construction can panic. This is where
    /// user-supplied `(dim, n, l)` triples that would drive the simplex
    /// enumeration (or the `dim as u32` / coefficient arithmetic behind
    /// it) into a panic or overflow, or a dimension beyond
    /// [`sparsegrid::MAX_DIM`], are turned into plain config errors
    /// instead. It runs [`GridSystemN::check`], which builds nothing, so
    /// validating makes no allocator request.
    pub fn validate(&self) -> Result<(), String> {
        if self.scale < 1 {
            return Err(format!("process scale must be ≥ 1, got {}", self.scale));
        }
        GridSystemN::check(self.dim, self.n, self.l)?;
        if self.dim >= 3 {
            if self.output_prefix.is_some() {
                return Err("a solution file (output prefix) is written by 2D runs only".into());
            }
            if let Some(p) = &self.problem_nd {
                if p.dim() != self.dim {
                    return Err(format!(
                        "problem dimension {} does not match configured dim {}",
                        p.dim(),
                        self.dim
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of solver timesteps.
    pub fn steps(&self) -> u64 {
        1u64 << self.log2_steps
    }

    /// Checkpoint period in steps (CR only): the run is divided into
    /// `C + 1` segments with a checkpoint after each of the first `C`.
    pub fn ckpt_period(&self) -> u64 {
        (self.steps() / (self.checkpoints as u64 + 1)).max(1)
    }

    /// The optimal checkpoint count of the paper's Eq. 2, given a
    /// predicted run time `t_app` and per-checkpoint write time `t_io`
    /// (both seconds): `C = T / T_IO` with MTBF `T = t_app / 2`.
    ///
    /// The result is clamped to `1 ..= u32::MAX`. Degenerate inputs are
    /// handled explicitly rather than through float-cast saturation
    /// (`inf as u32` happens to saturate, `NaN as u32` is 0 — neither is
    /// something to rely on):
    ///
    /// * `t_io <= 0`, `t_io` NaN — a free (or nonsensical) checkpoint
    ///   write caps out at `u32::MAX` checkpoints ("checkpoint as often
    ///   as the schedule allows"; [`AppConfig::ckpt_period`] clamps the
    ///   period to one step anyway);
    /// * `t_app <= 0`, `t_app` NaN or infinite — no meaningful MTBF, so
    ///   fall back to the minimum of one checkpoint.
    pub fn optimal_checkpoints(t_app: f64, t_io: f64) -> u32 {
        if !t_app.is_finite() || t_app <= 0.0 {
            return 1;
        }
        if t_io.is_nan() || t_io <= 0.0 {
            return u32::MAX;
        }
        let c = (t_app / 2.0) / t_io;
        if c >= u32::MAX as f64 {
            u32::MAX
        } else {
            (c.floor() as u32).max(1)
        }
    }
}

/// A per-process-unique checkpoint directory under the system temp dir.
pub fn default_ckpt_dir() -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ftsg-ckpt-{}-{}", std::process::id(), seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technique_layouts() {
        assert_eq!(Technique::CheckpointRestart.layout(), Layout::Plain);
        assert_eq!(Technique::ResamplingCopying.layout(), Layout::Duplicates);
        assert_eq!(Technique::AlternateCombination.layout(), Layout::ExtraLayers);
        assert_eq!(Technique::CheckpointRestart.label(), "CR");
    }

    #[test]
    fn steps_and_period() {
        let cfg = AppConfig::small(Technique::CheckpointRestart);
        assert_eq!(cfg.steps(), 32);
        assert_eq!(cfg.ckpt_period(), 10); // 32 / 3
        let cfg = cfg.with_checkpoints(100);
        assert_eq!(cfg.ckpt_period(), 1); // clamped
    }

    #[test]
    fn eq2_optimal_checkpoints() {
        // Paper numbers: app ~ 200 s on OPL (T_IO = 3.52) → C = 28.
        assert_eq!(AppConfig::optimal_checkpoints(200.0, 3.52), 28);
        // Raijin's tiny T_IO gives a huge C.
        assert!(AppConfig::optimal_checkpoints(200.0, 0.03) > 3000);
        // Never zero.
        assert_eq!(AppConfig::optimal_checkpoints(0.1, 100.0), 1);
    }

    #[test]
    fn eq2_degenerate_inputs_are_guarded() {
        // Free writes: checkpoint as often as possible, explicitly.
        assert_eq!(AppConfig::optimal_checkpoints(200.0, 0.0), u32::MAX);
        assert_eq!(AppConfig::optimal_checkpoints(200.0, -1.0), u32::MAX);
        assert_eq!(AppConfig::optimal_checkpoints(200.0, f64::NAN), u32::MAX);
        // No meaningful MTBF: fall back to the single-checkpoint minimum.
        assert_eq!(AppConfig::optimal_checkpoints(0.0, 3.52), 1);
        assert_eq!(AppConfig::optimal_checkpoints(-5.0, 3.52), 1);
        assert_eq!(AppConfig::optimal_checkpoints(f64::NAN, 3.52), 1);
        assert_eq!(AppConfig::optimal_checkpoints(f64::INFINITY, 3.52), 1);
        // Finite but enormous ratios saturate instead of overflowing.
        assert_eq!(AppConfig::optimal_checkpoints(1e300, 1e-300), u32::MAX);
        // An infinite t_io is a legal "writes never finish" → minimum.
        assert_eq!(AppConfig::optimal_checkpoints(200.0, f64::INFINITY), 1);
    }

    #[test]
    fn ckpt_dirs_are_unique() {
        assert_ne!(default_ckpt_dir(), default_ckpt_dir());
    }

    #[test]
    fn validate_rejects_bad_simplex_parameters_without_panicking() {
        // Regression (satellite bugfix): these parameter triples used to
        // reach `LevelSetN::truncated_simplex` and panic (or overflow the
        // `dim as u32` / tau arithmetic) deep inside layout construction.
        let ok = AppConfig::small_nd(Technique::CheckpointRestart, 3);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.l = 1; // l < 2
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.n = 2; // n < l
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.dim = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.dim = usize::MAX; // would overflow `dim as u32`
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.n = u32::MAX; // tau = n + (d-1)m overflows
        bad.l = 4;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.scale = 0;
        assert!(bad.validate().is_err());
        // Problem/dim mismatch is a config error, not a solver assert.
        let mut bad = ok;
        bad.problem_nd = Some(advect2d::ndproblem::ProblemN::standard_advection(4));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_refuses_more_axes_than_a_level_holds() {
        let max = AppConfig::small_nd(Technique::CheckpointRestart, sparsegrid::MAX_DIM);
        assert!(max.validate().is_ok());
        let mut over = max;
        over.dim += 1;
        assert!(over.validate().unwrap_err().contains("MAX_DIM"));
    }

    #[test]
    fn validate_rejects_a_solution_file_in_three_dimensions() {
        // The nd stack writes no CSV/PGM: asking for one used to be
        // silently ignored; now it is a config error (the CLI exits 2).
        let nd = AppConfig::small_nd(Technique::AlternateCombination, 3).with_output_prefix("x");
        assert!(nd.validate().unwrap_err().contains("2D runs only"));
        let d2 = AppConfig::small(Technique::AlternateCombination).with_output_prefix("x");
        assert!(d2.validate().is_ok());
    }

    #[test]
    fn resolved_problem_nd_defaults_to_advection() {
        let cfg = AppConfig::small_nd(Technique::CheckpointRestart, 3);
        assert_eq!(cfg.resolved_problem_nd().dim(), 3);
        assert!(!cfg.resolved_problem_nd().is_elliptic());
        let cfg = cfg.with_problem_nd(ProblemN::standard_elliptic(3));
        assert!(cfg.resolved_problem_nd().is_elliptic());
    }
}
