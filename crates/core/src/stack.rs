//! The two instances of the application: the tuned 2D stack ([`D2`]) and
//! the d-dimensional one ([`Nd`]).
//!
//! The paper's program — detection, the Fig. 3 repair, data recovery and
//! combination — does not depend on the dimension, and neither does the
//! combination theory behind it (arXiv:1404.2670). So [`crate::app`] and
//! [`crate::recovery`] are written once, generic over [`Stack`]; the two
//! unit types below delegate to the twin modules (`layout`/`layout_nd`,
//! `psolve`/`psolve_nd`). Two stages need no trait items of their own:
//! whole grids move through the one transport in [`crate::gather`], for
//! which the grid ([`ComponentGrid`]) and the group description
//! ([`GroupBlocks`]) say all it needs, and checkpoints go through the one
//! checkpoint stage ([`crate::ckpt_async`], or a synchronous write), for
//! which the grid picks its file format ([`CheckpointGrid`]: v2 or v3).
//! So `ckpt_async` means the same thing at every dimension. Generic code is
//! monomorphised: each instance runs its own stack's operations, messages
//! and clock charges with no dispatch between them, which is what keeps
//! the d = 2 and d = 3 fingerprints (`policy_fingerprints`) and the
//! benchmark's virtual times exact.

use std::path::Path;

use advect2d::ndproblem::{ProblemN, TimeGridN};
use advect2d::{AdvectionProblem, TimeGrid};
use sparsegrid::scheme::RcSource;
use sparsegrid::{
    accumulate_onto, l1_error_vs, CombinationTerm, CombinationTermN, ComponentGrid, FoldN, Grid2,
    GridN, IndexedDownset, LevelPair, LevelVecN, RcSourceN,
};
use ulfm_sim::{Comm, Ctx, Error, Result};

use crate::checkpoint::{CheckpointGrid, CheckpointStore};
use crate::config::AppConfig;
use crate::gather::{BlockRowsMut, GroupBlocks};
use crate::layout::{Assignment, GroupInfo, ProcLayout};
use crate::layout_nd::{AssignmentN, GroupInfoN, ProcLayoutN};
use crate::plan::Plan;
use crate::psolve::DistributedSolver;
use crate::psolve_nd::DistributedSolverN;

/// A sub-grid's level under stack `S`.
pub type Level<S> = <<S as Stack>::Grid as ComponentGrid>::Level;

/// What a rank's run reads unchanged from set-up to report: the
/// configuration, its checkpoint store, and the run's [`Plan`], which
/// every rank shares (the layout, problem and timestep are borrowed from
/// it).
pub struct Env<'a, S: Stack> {
    /// The configuration.
    pub cfg: &'a AppConfig,
    /// The run's plan: built once, by the first rank to ask.
    pub plan: &'a Plan<S>,
    /// The world → sub-grid map.
    pub layout: &'a S::Layout,
    /// The PDE.
    pub problem: &'a S::Problem,
    /// Where CR checkpoints land: `Some` exactly under Checkpoint/Restart,
    /// the one technique that writes to disk. Each rank keeps its own.
    pub store: Option<&'a CheckpointStore>,
    /// The timestep of every solver.
    pub dt: f64,
}

impl<'a, S: Stack> Env<'a, S> {
    /// The environment of a rank with `store` on the run's `plan`.
    pub fn new(cfg: &'a AppConfig, plan: &'a Plan<S>, store: Option<&'a CheckpointStore>) -> Self {
        let (layout, problem, dt) = (&plan.layout, &plan.problem, plan.dt);
        Env { cfg, plan, layout, problem, store, dt }
    }

    /// The checkpoint store, which only a Checkpoint/Restart run has.
    pub fn checkpoints(&self) -> Result<&CheckpointStore> {
        self.store.ok_or_else(|| {
            Error::InvalidArg("only Checkpoint/Restart keeps a checkpoint store".into())
        })
    }
}

/// What the driver and the data recovery need from one dimension's
/// layout, solver, grids, checkpoints and coefficients.
///
/// Two facts differ between the stacks and live here, not in options:
/// only the 2D stack writes a solution file ([`Stack::write_solution`]),
/// and each stack builds its own problem, time grid and layout
/// ([`Stack::setup`]), robust coefficients ([`Stack::robust_coefficients`])
/// and error evaluation ([`Stack::l1_error`]).
pub trait Stack: Sized + 'static {
    /// The PDE the solvers step.
    type Problem: Send + Sync;
    /// One whole sub-grid, and its checkpoint file format.
    type Grid: CheckpointGrid;
    /// The world → sub-grid map. `D2` decomposes each group into a 2D
    /// process grid (4 + 4 halo messages per step); `Nd` into slabs along
    /// the last axis (2 + 2, whatever the dimension).
    type Layout: Send + Sync;
    /// One rank's place in the layout.
    type Assignment: Copy + PartialEq;
    /// Where each member of a grid's group holds its block.
    type Group: GroupBlocks<Grid = Self::Grid>;
    /// The distributed solver on one rank's block of a sub-grid: the
    /// block a gather reads and a scatter writes, where it lies.
    type Solver: BlockRowsMut;

    /// The layout, the problem and the timestep of `cfg`. This runs once
    /// per run, before epoch 0, on the first rank to ask for the run's
    /// [`Plan`]; every other rank shares what it built. Both stacks
    /// validate `cfg` first (building nothing, so at no allocator cost),
    /// turning parameters the layout would panic on into config errors,
    /// which every rank then returns.
    fn setup(cfg: &AppConfig) -> Result<(Self::Layout, Self::Problem, f64)>;
    /// A solver for the slot `a`, at the initial condition. It releases
    /// its spare step buffer when it commits the run's last step, so the
    /// combination does not carry a dead copy of every block.
    fn solver(env: &Env<'_, Self>, a: Self::Assignment) -> Self::Solver;

    /// Active slots (the world size without spares).
    fn world_size(layout: &Self::Layout) -> usize;
    /// Number of sub-grids; ids are `0..n_grids`.
    fn n_grids(layout: &Self::Layout) -> usize;
    /// The slot of `world_rank`, `None` on the spare tail.
    fn assignment(layout: &Self::Layout, world_rank: usize) -> Option<Self::Assignment>;
    /// The grid id of a slot.
    fn grid_of(a: Self::Assignment) -> usize;
    /// The group description of `grid`.
    fn group(layout: &Self::Layout, grid: usize) -> &Self::Group;
    /// World rank of `grid`'s group root.
    fn root_of(layout: &Self::Layout, grid: usize) -> usize;
    /// The highest world rank of `grid`'s group.
    fn last_rank_of(layout: &Self::Layout, grid: usize) -> usize;
    /// The grids that lost a member to `failed`, ascending.
    fn broken_grids(layout: &Self::Layout, failed: &[usize]) -> Vec<usize>;
    /// The grids with a nonzero classical coefficient, ascending.
    fn combination_ids(layout: &Self::Layout) -> Vec<usize>;
    /// The classical combination coefficient of `grid`.
    fn classical_coefficient(layout: &Self::Layout, grid: usize) -> f64;
    /// Where Resampling and Copying restores `grid` from.
    fn rc_source(layout: &Self::Layout, grid: usize) -> Option<RcSource>;
    /// The level of `grid`.
    fn level(layout: &Self::Layout, grid: usize) -> &Level<Self>;
    /// The coarsest level, where the combined solution is evaluated.
    fn min_level(layout: &Self::Layout) -> Level<Self>;

    /// The classical downset, numbered for the robust search.
    fn downset(layout: &Self::Layout) -> IndexedDownset;
    /// Robust coefficients over `downset` (the layout's [`Stack::downset`])
    /// once the grids `lost` are gone, using only the levels of the
    /// others, as the coefficient of each grid's level by grid id. With
    /// `covered`, the level of a lost grid that a surviving grid (a
    /// duplicate) also holds is not lost.
    fn robust_over(
        layout: &Self::Layout,
        downset: &IndexedDownset,
        lost: &[usize],
        covered: bool,
    ) -> Vec<i64>;
    /// [`Stack::robust_over`] the layout's downset, built for this call;
    /// also the size of that downset. A run asks its [`Plan`], which
    /// builds the downset once and solves each lost set once.
    fn robust_coefficients(
        layout: &Self::Layout,
        lost: &[usize],
        covered: bool,
    ) -> (Vec<i64>, usize) {
        let downset = Self::downset(layout);
        (Self::robust_over(layout, &downset, lost, covered), downset.len())
    }

    /// One timestep of the group's solve, halo exchange included.
    fn step(sv: &mut Self::Solver, ctx: &Ctx, group: &Comm) -> Result<()>;
    /// The solver's block was loaded in place (a scatter) with the state
    /// after `steps` steps.
    fn set_steps_done(sv: &mut Self::Solver, steps: u64);
    /// Back to the initial condition at step 0.
    fn reset_to_initial(sv: &mut Self::Solver);

    /// Exact injection of `grid` onto the coarser `level`.
    fn restrict(grid: &Self::Grid, level: &Level<Self>) -> Self::Grid;
    /// One combination term, `coeff · grid` evaluated on the nodes of
    /// `target` (bit for bit the one-term `combine_onto` /
    /// `combine_onto_nd`), its compute (one cell update per node) charged
    /// to `ctx`.
    fn term(ctx: &Ctx, target: &Level<Self>, coeff: f64, grid: &Self::Grid) -> Self::Grid;
    /// Average l1 error of `grid` against the exact solution at `t`.
    fn l1_error(problem: &Self::Problem, grid: &Self::Grid, t: f64) -> f64;
    /// Write the combined solution to `<prefix>.csv` and `<prefix>.pgm`.
    /// Only `D2` writes one; `AppConfig::validate` rejects
    /// `output_prefix` at d ≥ 3, so `Nd` is never asked.
    fn write_solution(grid: &Self::Grid, prefix: &Path) -> Result<()>;
}

/// The 2D stack: the paper's application and the bitwise reference.
pub struct D2;

/// The d-dimensional stack (d ≥ 3).
pub struct Nd;

impl Stack for D2 {
    type Problem = AdvectionProblem;
    type Grid = Grid2;
    type Layout = ProcLayout;
    type Assignment = Assignment;
    type Group = GroupInfo;
    type Solver = DistributedSolver;

    fn setup(cfg: &AppConfig) -> Result<(ProcLayout, AdvectionProblem, f64)> {
        cfg.validate().map_err(Error::InvalidArg)?;
        let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
        let tg = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4);
        Ok((layout, cfg.problem, tg.dt))
    }
    fn solver(env: &Env<'_, Self>, a: Assignment) -> DistributedSolver {
        let level = env.layout.system().grid(a.grid).level;
        DistributedSolver::new(*env.problem, level, env.dt, env.layout.group(a.grid), a.local)
            .with_kernel(env.cfg.kernel)
            .with_last_step(env.cfg.steps())
    }

    fn world_size(layout: &ProcLayout) -> usize {
        layout.world_size()
    }
    fn n_grids(layout: &ProcLayout) -> usize {
        layout.system().n_grids()
    }
    fn assignment(layout: &ProcLayout, world_rank: usize) -> Option<Assignment> {
        layout.try_assignment(world_rank)
    }
    fn grid_of(a: Assignment) -> usize {
        a.grid
    }
    fn group(layout: &ProcLayout, grid: usize) -> &GroupInfo {
        layout.group(grid)
    }
    fn root_of(layout: &ProcLayout, grid: usize) -> usize {
        layout.root_of(grid)
    }
    fn last_rank_of(layout: &ProcLayout, grid: usize) -> usize {
        let info = layout.group(grid);
        info.first + info.size - 1
    }
    fn broken_grids(layout: &ProcLayout, failed: &[usize]) -> Vec<usize> {
        layout.broken_grids(failed)
    }
    fn combination_ids(layout: &ProcLayout) -> Vec<usize> {
        layout.system().combination_ids()
    }
    fn classical_coefficient(layout: &ProcLayout, grid: usize) -> f64 {
        layout.system().classical_coefficient(grid) as f64
    }
    fn rc_source(layout: &ProcLayout, grid: usize) -> Option<RcSource> {
        layout.system().rc_source(grid)
    }
    fn level(layout: &ProcLayout, grid: usize) -> &LevelPair {
        &layout.system().grid(grid).level
    }
    fn min_level(layout: &ProcLayout) -> LevelPair {
        layout.system().min_level()
    }

    fn downset(layout: &ProcLayout) -> IndexedDownset {
        layout.system().indexed_downset()
    }
    fn robust_over(
        layout: &ProcLayout,
        downset: &IndexedDownset,
        lost: &[usize],
        covered: bool,
    ) -> Vec<i64> {
        let sys = layout.system();
        let index = |g: usize| downset.index_of(&[sys.grid(g).level.i, sys.grid(g).level.j]);
        robust_by_grid(downset, sys.n_grids(), index, lost, covered)
    }

    fn step(sv: &mut DistributedSolver, ctx: &Ctx, group: &Comm) -> Result<()> {
        sv.step(ctx, group)
    }
    fn set_steps_done(sv: &mut DistributedSolver, steps: u64) {
        sv.set_steps_done(steps)
    }
    fn reset_to_initial(sv: &mut DistributedSolver) {
        sv.reset_to_initial()
    }

    fn restrict(grid: &Grid2, level: &LevelPair) -> Grid2 {
        grid.restrict_to(*level)
    }
    fn term(ctx: &Ctx, target: &LevelPair, coeff: f64, grid: &Grid2) -> Grid2 {
        let mut term = Grid2::zeros(*target);
        accumulate_onto(&mut term, &CombinationTerm { coeff, grid });
        ctx.compute_cells(term.values().len() as u64);
        term
    }
    fn l1_error(problem: &AdvectionProblem, grid: &Grid2, t: f64) -> f64 {
        l1_error_vs(grid, problem.exact_at(t))
    }
    fn write_solution(grid: &Grid2, prefix: &Path) -> Result<()> {
        let base = prefix.display();
        crate::output::write_csv(grid, format!("{base}.csv"))
            .map_err(|e| Error::InvalidArg(format!("solution csv: {e}")))?;
        crate::output::write_pgm(grid, format!("{base}.pgm"))
            .map_err(|e| Error::InvalidArg(format!("solution pgm: {e}")))
    }
}

impl Stack for Nd {
    type Problem = ProblemN;
    type Grid = GridN;
    type Layout = ProcLayoutN;
    type Assignment = AssignmentN;
    type Group = GroupInfoN;
    type Solver = DistributedSolverN;

    fn setup(cfg: &AppConfig) -> Result<(ProcLayoutN, ProblemN, f64)> {
        cfg.validate().map_err(Error::InvalidArg)?;
        let problem = cfg.resolved_problem_nd();
        let layout = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
        let tg = TimeGridN::for_system(&problem, cfg.n, cfg.steps(), 0.4);
        Ok((layout, problem, tg.dt))
    }
    fn solver(env: &Env<'_, Self>, a: AssignmentN) -> DistributedSolverN {
        let (level, group) = (&env.layout.system().grid(a.grid).level, env.layout.group(a.grid));
        DistributedSolverN::new(env.problem.clone(), level, env.dt, group, a.local)
            .with_kernel(env.cfg.kernel)
            .with_last_step(env.cfg.steps())
    }

    fn world_size(layout: &ProcLayoutN) -> usize {
        layout.world_size()
    }
    fn n_grids(layout: &ProcLayoutN) -> usize {
        layout.system().n_grids()
    }
    fn assignment(layout: &ProcLayoutN, world_rank: usize) -> Option<AssignmentN> {
        layout.try_assignment(world_rank)
    }
    fn grid_of(a: AssignmentN) -> usize {
        a.grid
    }
    fn group(layout: &ProcLayoutN, grid: usize) -> &GroupInfoN {
        layout.group(grid)
    }
    fn root_of(layout: &ProcLayoutN, grid: usize) -> usize {
        layout.root_of(grid)
    }
    fn last_rank_of(layout: &ProcLayoutN, grid: usize) -> usize {
        let info = layout.group(grid);
        info.first + info.size - 1
    }
    fn broken_grids(layout: &ProcLayoutN, failed: &[usize]) -> Vec<usize> {
        layout.broken_grids(failed)
    }
    fn combination_ids(layout: &ProcLayoutN) -> Vec<usize> {
        layout.system().combination_ids()
    }
    fn classical_coefficient(layout: &ProcLayoutN, grid: usize) -> f64 {
        layout.system().classical_coefficient(grid) as f64
    }
    fn rc_source(layout: &ProcLayoutN, grid: usize) -> Option<RcSource> {
        layout.system().rc_source(grid).map(|src| match src {
            RcSourceN::Copy(s) => RcSource::Copy(s),
            RcSourceN::Resample(s) => RcSource::Resample(s),
        })
    }
    fn level(layout: &ProcLayoutN, grid: usize) -> &LevelVecN {
        &layout.system().grid(grid).level
    }
    fn min_level(layout: &ProcLayoutN) -> LevelVecN {
        layout.system().min_level()
    }

    fn downset(layout: &ProcLayoutN) -> IndexedDownset {
        layout.system().indexed_downset()
    }
    fn robust_over(
        layout: &ProcLayoutN,
        downset: &IndexedDownset,
        lost: &[usize],
        covered: bool,
    ) -> Vec<i64> {
        let sys = layout.system();
        let index = |g: usize| downset.index_of(&sys.grid(g).level);
        robust_by_grid(downset, sys.n_grids(), index, lost, covered)
    }

    fn step(sv: &mut DistributedSolverN, ctx: &Ctx, group: &Comm) -> Result<()> {
        sv.step(ctx, group)
    }
    fn set_steps_done(sv: &mut DistributedSolverN, steps: u64) {
        sv.set_steps_done(steps)
    }
    fn reset_to_initial(sv: &mut DistributedSolverN) {
        sv.reset_to_initial()
    }

    fn restrict(grid: &GridN, level: &LevelVecN) -> GridN {
        grid.restrict_to(level)
    }
    fn term(ctx: &Ctx, target: &LevelVecN, coeff: f64, grid: &GridN) -> GridN {
        let mut term = FoldN::new(target);
        term.add(&CombinationTermN { coeff, grid });
        let term = term.into_grid();
        ctx.compute_cells(term.values().len() as u64);
        term
    }
    fn l1_error(problem: &ProblemN, grid: &GridN, t: f64) -> f64 {
        grid.l1_error_vs(|x| problem.exact(x, t))
    }
    fn write_solution(_: &GridN, _: &Path) -> Result<()> {
        Err(Error::InvalidArg("solution files are written by 2D runs only".into()))
    }
}

/// The robust search over `downset` (the classical downset, numbered)
/// read back by grid id, where `index(g)` numbers grid `g`'s level: a
/// level is usable iff a grid outside `lost` holds it and — unless
/// `covered` — no grid in `lost` does. Survivors and losses are read off
/// the grid ids; no level set is built.
fn robust_by_grid(
    downset: &IndexedDownset,
    n_grids: usize,
    index: impl Fn(usize) -> Option<usize>,
    lost: &[usize],
    covered: bool,
) -> Vec<i64> {
    let holds = |g: usize, i: usize| index(g) == Some(i);
    let kept = downset.robust(|i| {
        let survives = (0..n_grids).any(|g| !lost.contains(&g) && holds(g, i));
        survives && (covered || !lost.iter().any(|&g| holds(g, i)))
    });
    (0..n_grids).map(|g| index(g).map_or(0, |i| kept.coefficient(i))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Technique;
    use sparsegrid::Layout;

    /// Every lost set of one to three grids, and for each whether the
    /// robust solve without `covered` (the Alternate Combination recovery's)
    /// equals the one with it (the final combination's), bit for bit.
    fn covered_matters<S: Stack>(layout: &S::Layout) -> Vec<(Vec<usize>, bool)> {
        let n = S::n_grids(layout);
        let mut sets = Vec::new();
        for a in 0..n {
            sets.push(vec![a]);
            for b in a + 1..n {
                sets.push(vec![a, b]);
                sets.extend((b + 1..n).map(|c| vec![a, b, c]));
            }
        }
        sets.into_iter()
            .map(|lost| {
                let differs = S::robust_coefficients(layout, &lost, false)
                    != S::robust_coefficients(layout, &lost, true);
                (lost, differs)
            })
            .collect()
    }

    #[test]
    fn the_alternate_combination_layout_solves_the_same_with_or_without_covered() {
        // The extra-layers layout holds each level once, so no survivor
        // covers a lost level: the combination may reuse the recovery's
        // solve for the same lost set.
        let mut solved = 0;
        for (n, l) in [(6, 3), (9, 4), (10, 5)] {
            let layout = ProcLayout::new(n, l, Layout::ExtraLayers, 1);
            for (lost, differs) in covered_matters::<D2>(&layout) {
                assert!(!differs, "D2 n={n} l={l}: lost {lost:?}");
                solved += 1;
            }
        }
        for (n, l) in [(4, 4), (5, 4)] {
            let layout = ProcLayoutN::new(3, n, l, Layout::ExtraLayers, 1);
            for (lost, differs) in covered_matters::<Nd>(&layout) {
                assert!(!differs, "Nd d=3 n={n} l={l}: lost {lost:?}");
                solved += 1;
            }
        }
        assert!(solved > 500, "only {solved} lost sets checked");
        // The check has teeth: under the Duplicates layout a lost diagonal
        // whose duplicate survives is covered, and the solves differ.
        let dup = ProcLayout::new(6, 3, Layout::Duplicates, 1);
        assert!(covered_matters::<D2>(&dup).iter().any(|&(_, differs)| differs));
    }

    #[test]
    fn both_stacks_turn_a_bad_config_into_a_config_error() {
        // Without validation, `D2::setup` panicked inside `ProcLayout::new`
        // or `GridSystem::new` on these.
        for (n, l, scale) in [(9, 1, 1), (3, 4, 1), (9, 4, 0)] {
            let mut cfg = AppConfig::small(Technique::AlternateCombination);
            (cfg.n, cfg.l, cfg.scale) = (n, l, scale);
            let what = format!("n={n} l={l} scale={scale}");
            assert!(matches!(D2::setup(&cfg), Err(Error::InvalidArg(_))), "D2 {what}");
            cfg.dim = 3;
            assert!(matches!(Nd::setup(&cfg), Err(Error::InvalidArg(_))), "Nd {what}");
        }
    }
}
