//! `expt 3d` — the paper's Figs. 9/10 experiment lifted to three
//! dimensions: error of the combined solution vs the number of lost
//! component grids, per recovery technique, for both 3D problems
//! (upwind advection–diffusion and the elliptic Jacobi solve).
//!
//! Losses are *simulated* at end-of-run (no kills, no reconstruction
//! time), exactly like the 2D Fig. 9/10 harness: CR restores lost grids
//! from checkpoints (error stays at the healthy value), RC resamples or
//! copies from duplicate grids (near-exact), and AC recombines the
//! survivors with robust coefficients (the error–loss trade-off curve).
//!
//! [`main`] writes `results/expt3d.csv` and the `BENCH_pr10.json`
//! acceptance artifact.

use advect2d::ndproblem::ProblemN;
use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayoutN, Technique};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{run, RunConfig};

use crate::cli::{Args, Flags, Usage};
use crate::table::{sci, sig3, utc_today, Table};

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

/// `expt 3d`: the sweep, `results/expt3d.csv` and `BENCH_pr10.json`.
/// Exits 1 if an error is not finite or a healthy error is round-off
/// rather than discretization error ([`healthy_errors_resolved`]).
pub fn main(a: &Args) -> Result<i32, Usage> {
    let o = Dim3Opts::from_args(a)?;
    let points = sweep(&o);
    table(&o, &points).emit(a.csv("expt3d.csv"));
    a.record("BENCH_pr10.json", &to_json(&o, &points));
    if !healthy_errors_resolved(&points) {
        eprintln!("expt 3d: a healthy error is below {RESOLVED_ERR:e}: round-off");
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

/// Sample `count` distinct lost grids, honouring the RC duplicate
/// conflicts when the technique is Resampling-and-Copying.
fn random_lost_grids_nd(
    layout: &ProcLayoutN,
    count: usize,
    rc_constraints: bool,
    seed: u64,
) -> Vec<usize> {
    let sys = layout.system();
    let n_grids = sys.n_grids();
    assert!(count <= n_grids, "cannot lose {count} of {n_grids} grids");
    let mut rng = StdRng::seed_from_u64(seed);
    let conflicts = sys.rc_conflicts();
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
        if rc_constraints
            && conflicts.iter().any(|&(a, b)| grids.contains(&a) && grids.contains(&b))
        {
            continue;
        }
        grids.sort_unstable();
        return grids;
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
            let max_lost = o.max_lost.min(layout.system().n_grids() - 1);
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
                    let grids = random_lost_grids_nd(
                        &layout,
                        lost,
                        technique == Technique::ResamplingCopying,
                        seed,
                    );
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

/// The `BENCH_pr10.json` acceptance artifact: the error curves plus the
/// headline numbers the regression lane reads back.
pub fn to_json(o: &Dim3Opts, points: &[CurvePoint]) -> String {
    let worst_ac_ratio =
        points.iter().filter(|p| p.technique == "AC").map(|p| p.ratio).fold(0.0_f64, f64::max);
    let worst_cr_ratio =
        points.iter().filter(|p| p.technique == "CR").map(|p| p.ratio).fold(0.0_f64, f64::max);
    let all_finite = points.iter().all(|p| p.err.is_finite());
    let mut s = String::new();
    s.push_str("{\n \"pr\": 10,\n");
    s.push_str(&format!(" \"date\": \"{}\",\n", utc_today()));
    s.push_str(
        " \"note\": \"expt-3d: combined-solution L1 error vs simulated lost grids for the 3D \
         advection-diffusion and elliptic problems under CR (checkpoint restore), RC \
         (resample/copy) and AC (robust recombination of the survivors) — the paper's \
         Figs. 9/10 lifted to d=3.\",\n",
    );
    s.push_str(&format!(
        " \"config\": {{\"dim\": {DIM}, \"n\": {}, \"l\": {}, \"log2_steps\": {}, \"reps\": {}, \
         \"max_lost\": {}, \"seed\": {}}},\n",
        o.n, o.l, o.log2_steps, o.reps, o.max_lost, o.seed
    ));
    s.push_str(" \"acceptance\": {\n");
    s.push_str(&format!("  \"healthy_3d_err_advection\": {:.6e},\n", healthy(points, "advection")));
    s.push_str(&format!("  \"healthy_3d_err_elliptic\": {:.6e},\n", healthy(points, "elliptic")));
    s.push_str(&format!("  \"worst_cr_err_growth\": {:.4},\n", worst_cr_ratio));
    s.push_str(&format!("  \"worst_ac_err_growth\": {:.4},\n", worst_ac_ratio));
    s.push_str(&format!("  \"all_errors_finite\": {all_finite},\n"));
    s.push_str(&format!("  \"healthy_errors_resolved\": {}\n", healthy_errors_resolved(points)));
    s.push_str(" },\n \"results\": [\n");
    for (i, p) in points.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"problem\": \"{}\", \"technique\": \"{}\", \"lost\": {}, \"err_l1\": {:.6e}, \
             \"vs_healthy\": {:.4}}}{}\n",
            p.problem,
            p.technique,
            p.lost,
            p.err,
            p.ratio,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    s.push_str(" ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lost_grid_sampler_respects_rc_conflicts() {
        let layout = ProcLayoutN::new(3, 4, 4, Technique::ResamplingCopying.layout(), 1);
        let conflicts = layout.system().rc_conflicts();
        assert!(!conflicts.is_empty(), "RC layouts have duplicate conflicts");
        for seed in 0..32 {
            let grids = random_lost_grids_nd(&layout, 4, true, seed);
            assert_eq!(grids.len(), 4);
            assert!(!conflicts.iter().any(|&(a, b)| grids.contains(&a) && grids.contains(&b)));
        }
    }

    #[test]
    fn json_has_the_acceptance_fields() {
        let o = Dim3Opts::default();
        let points = vec![
            CurvePoint { problem: "advection", technique: "AC", lost: 0, err: 1e-3, ratio: 1.0 },
            CurvePoint { problem: "elliptic", technique: "AC", lost: 1, err: 2e-3, ratio: 2.0 },
        ];
        let json = to_json(&o, &points);
        for key in
            ["healthy_3d_err_advection", "worst_ac_err_growth", "all_errors_finite", "\"pr\": 10"]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // No healthy elliptic point: unresolved.
        assert!(json.contains("\"healthy_errors_resolved\": false"), "{json}");
        let resolved = vec![
            CurvePoint { problem: "advection", technique: "CR", lost: 0, err: 1e-3, ratio: 1.0 },
            CurvePoint { problem: "elliptic", technique: "CR", lost: 0, err: 2e-2, ratio: 1.0 },
        ];
        assert!(healthy_errors_resolved(&resolved));
        let round_off = vec![
            CurvePoint { problem: "advection", technique: "CR", lost: 0, err: 1e-3, ratio: 1.0 },
            CurvePoint { problem: "elliptic", technique: "CR", lost: 0, err: 3.6e-48, ratio: 1.0 },
        ];
        assert!(!healthy_errors_resolved(&round_off));
    }
}
