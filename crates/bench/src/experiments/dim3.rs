//! `expt 3d` — the paper's Figs. 9/10 experiment lifted to three
//! dimensions: error of the combined solution vs the number of lost
//! component grids, per recovery technique, for both 3D problems
//! (upwind advection–diffusion and the elliptic Jacobi solve).
//!
//! Losses are *simulated* at end-of-run (no kills, no reconstruction
//! time), exactly like the 2D Fig. 9/10 harness: CR restores lost grids
//! from checkpoints (the error stays at the healthy value, bit for bit),
//! RC resamples or copies from duplicate grids and AC recombines the
//! survivors with robust coefficients (both trade error for loss: the
//! committed curves stay within 2x of healthy).
//!
//! [`main`] writes `results/expt3d.csv` and checks what holds of it.

use advect2d::ndproblem::ProblemN;
use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayoutN, Technique};
use ulfm_sim::{run, RunConfig};

use crate::cli::{Args, Flags, Usage};
use crate::runner::random_lost_grids;
use crate::table::{sci, sig3, Table};

/// Sizing knobs for the 3D sweep (own struct: the shared [`crate::Opts`]
/// defaults are 2D-sized). The default shape has a floor level
/// `m = n − l + 1 = 2`, so the error is measured on a 5 × 5 × 5 lattice:
/// at `m = 1` it would be x ∈ {0, ½, 1}³, where the elliptic solution
/// `Π sin(2πxᵢ)` vanishes and the error is round-off.
#[derive(Debug, Clone)]
pub struct Dim3Opts {
    pub n: u32,
    pub l: u32,
    pub log2_steps: u32,
    pub reps: usize,
    pub max_lost: usize,
    pub seed: u64,
}

impl Default for Dim3Opts {
    fn default() -> Self {
        Dim3Opts { n: 5, l: 4, log2_steps: 4, reps: 5, max_lost: 6, seed: 2014 }
    }
}

impl Dim3Opts {
    /// The flags of `expt 3d`.
    pub const FLAGS: Flags = "--quick --n N --l L --steps LOG2 --reps R --max-lost K --seed S";

    /// Read [`Dim3Opts::FLAGS`]; `--quick` caps the sweep at 1 rep and
    /// 2 losses (the CI lane).
    pub fn from_args(a: &Args) -> Result<Self, Usage> {
        let d = Dim3Opts::default();
        let mut o = Dim3Opts {
            n: a.get_or("--n", d.n)?,
            l: a.get_or("--l", d.l)?,
            log2_steps: a.get_or("--steps", d.log2_steps)?,
            reps: a.get_or("--reps", d.reps)?,
            max_lost: a.get_or("--max-lost", d.max_lost)?,
            seed: a.get_or("--seed", d.seed)?,
        };
        if a.quick() {
            (o.reps, o.max_lost) = (o.reps.min(1), o.max_lost.min(2));
        }
        a.check_levels(o.n, o.l)?;
        Ok(o)
    }
}

/// `expt 3d`: the sweep and `results/expt3d.csv`. Exits 1 if an error
/// is not finite, a healthy error is round-off rather than
/// discretization error ([`healthy_errors_resolved`]), or a CR row's
/// error is not its healthy error ([`cr_holds_healthy`]).
pub fn main(a: &Args) -> Result<i32, Usage> {
    let o = Dim3Opts::from_args(a)?;
    let points = sweep(&o);
    table(&o, &points).emit(a.csv("expt3d.csv"));
    if !healthy_errors_resolved(&points) {
        eprintln!("expt 3d: a healthy error is below {RESOLVED_ERR:e}: round-off");
        return Ok(1);
    }
    if !cr_holds_healthy(&points) {
        eprintln!("expt 3d: a CR row's error is not its healthy error: a restore lost data");
        return Ok(1);
    }
    Ok(if points.iter().all(|p| p.err.is_finite()) { 0 } else { 1 })
}

const DIM: usize = 3;

const TECHNIQUES: [Technique; 3] =
    [Technique::CheckpointRestart, Technique::ResamplingCopying, Technique::AlternateCombination];

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct CurvePoint {
    pub problem: &'static str,
    pub technique: &'static str,
    pub lost: usize,
    /// Mean combined-solution L1 error over the reps.
    pub err: f64,
    /// `err / healthy err` for the same (problem, technique).
    pub ratio: f64,
}

fn problem_of(name: &str) -> ProblemN {
    match name {
        "advection" => ProblemN::standard_advection(DIM),
        "elliptic" => ProblemN::standard_elliptic(DIM),
        other => panic!("unknown 3D problem {other:?}"),
    }
}

fn run_once(o: &Dim3Opts, problem: &str, technique: Technique, lost: &[usize], seed: u64) -> f64 {
    let mut cfg = AppConfig::small_nd(technique, DIM).with_problem_nd(problem_of(problem));
    cfg.n = o.n;
    cfg.l = o.l;
    cfg.log2_steps = o.log2_steps;
    cfg = cfg.with_simulated_losses(lost.to_vec());
    let world = ProcLayoutN::new(DIM, o.n, o.l, technique.layout(), 1).world_size();
    let report = run(RunConfig::local(world).with_seed(seed), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report.get_f64(keys::ERR_L1).expect("controller reports err_l1")
}

/// Run the sweep and return every measured point.
pub fn sweep(o: &Dim3Opts) -> Vec<CurvePoint> {
    let mut points = Vec::new();
    for problem in ["advection", "elliptic"] {
        for technique in TECHNIQUES {
            let layout = ProcLayoutN::new(DIM, o.n, o.l, technique.layout(), 1);
            let (n_grids, conflicts) = (layout.system().n_grids(), layout.system().rc_conflicts());
            let rc = technique == Technique::ResamplingCopying;
            let max_lost = o.max_lost.min(n_grids - 1);
            let healthy = run_once(o, problem, technique, &[], o.seed);
            points.push(CurvePoint {
                problem,
                technique: technique.label(),
                lost: 0,
                err: healthy,
                ratio: 1.0,
            });
            for lost in 1..=max_lost {
                let mut sum = 0.0;
                for rep in 0..o.reps {
                    let seed = o.seed ^ ((lost as u64) << 32) ^ ((rep as u64) << 16);
                    let grids = random_lost_grids(n_grids, &conflicts, lost, rc, seed);
                    sum += run_once(o, problem, technique, &grids, seed);
                }
                let err = sum / o.reps as f64;
                points.push(CurvePoint {
                    problem,
                    technique: technique.label(),
                    lost,
                    err,
                    ratio: err / healthy,
                });
            }
        }
    }
    points
}

/// Render the sweep as the CSV table the binary emits.
pub fn table(o: &Dim3Opts, points: &[CurvePoint]) -> Table {
    let mut t = Table::new(
        format!(
            "3D error vs lost grids (d={DIM}, n={}, l={}, 2^{} steps, {} reps)",
            o.n, o.l, o.log2_steps, o.reps
        ),
        &["problem", "technique", "lost_grids", "err_l1", "vs_healthy"],
    );
    for p in points {
        t.row(vec![
            p.problem.into(),
            p.technique.into(),
            p.lost.to_string(),
            sci(p.err),
            sig3(p.ratio),
        ]);
    }
    t
}

/// The smallest healthy error that counts as resolved: anything below is
/// round-off, not discretization error.
pub const RESOLVED_ERR: f64 = 1e-8;

/// The healthy (no loss) error of `problem`.
fn healthy(points: &[CurvePoint], problem: &str) -> f64 {
    points.iter().find(|p| p.problem == problem && p.lost == 0).map_or(f64::NAN, |p| p.err)
}

/// Both healthy errors are discretization errors (≥ [`RESOLVED_ERR`]),
/// so every ratio to them means something.
pub fn healthy_errors_resolved(points: &[CurvePoint]) -> bool {
    ["advection", "elliptic"].iter().all(|prob| healthy(points, prob) >= RESOLVED_ERR)
}

/// Every Checkpoint/Restart row's error is its problem's healthy error,
/// bit for bit: a restore from checkpoints loses nothing, however many
/// grids were lost.
pub fn cr_holds_healthy(points: &[CurvePoint]) -> bool {
    let mut cr =
        points.iter().filter(|p| p.technique == Technique::CheckpointRestart.label()).peekable();
    cr.peek().is_some() && cr.all(|p| p.err.to_bits() == healthy(points, p.problem).to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(problem: &'static str, technique: &'static str, lost: usize, err: f64) -> CurvePoint {
        CurvePoint { problem, technique, lost, err, ratio: 1.0 }
    }

    #[test]
    fn lost_grid_sampler_respects_rc_conflicts() {
        let layout = ProcLayoutN::new(3, 4, 4, Technique::ResamplingCopying.layout(), 1);
        let (n_grids, conflicts) = (layout.system().n_grids(), layout.system().rc_conflicts());
        assert!(!conflicts.is_empty(), "RC layouts have duplicate conflicts");
        for seed in 0..32 {
            let grids = random_lost_grids(n_grids, &conflicts, 4, true, seed);
            assert_eq!(grids.len(), 4);
            assert!(!conflicts.iter().any(|&(a, b)| grids.contains(&a) && grids.contains(&b)));
        }
    }

    #[test]
    fn healthy_errors_must_be_resolved() {
        // No healthy elliptic point: unresolved.
        assert!(!healthy_errors_resolved(&[point("advection", "AC", 0, 1e-3)]));
        let resolved = [point("advection", "CR", 0, 1e-3), point("elliptic", "CR", 0, 2e-2)];
        assert!(healthy_errors_resolved(&resolved));
        let round_off = [point("advection", "CR", 0, 1e-3), point("elliptic", "CR", 0, 3.6e-48)];
        assert!(!healthy_errors_resolved(&round_off));
    }

    #[test]
    fn a_cr_row_one_ulp_off_its_healthy_error_fails() {
        let (adv, ell) = (8.984e-3_f64, 1.048e-1_f64);
        let mut points = vec![
            point("advection", "CR", 0, adv),
            point("advection", "CR", 3, adv),
            point("advection", "AC", 3, 1.2 * adv),
            point("elliptic", "CR", 0, ell),
            point("elliptic", "CR", 6, ell),
        ];
        assert!(cr_holds_healthy(&points));
        points[4].err = f64::from_bits(ell.to_bits() + 1);
        assert!(!cr_holds_healthy(&points));
        points[4].err = ell;
        points[1].err = f64::from_bits(adv.to_bits() - 1);
        assert!(!cr_holds_healthy(&points));
        // A sweep without CR rows shows nothing.
        assert!(!cr_holds_healthy(&points[2..3]));
    }
}
