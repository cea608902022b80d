//! `expt kernel` — the kernel-vectorization acceptance experiment: the
//! Lax–Wendroff row's GFLOP/s (scalar reference vs SIMD), and
//! the level-9 steady-state step wall under two configurations —
//! scalar and SIMD. The SIMD-vs-scalar step ratio
//! is the machine-relative quantity the regression gate pins; the
//! absolute nanoseconds let `BENCH_pr8.json` be compared against
//! `BENCH_pr1.json`'s fast path when both were measured on one machine.
//!
//! The experiment also *checks* (not assumes) the bitwise contract: the
//! SIMD path must reproduce the scalar trajectory exactly,
//! bit for bit, over several steps before any timing is reported.
//!
//! The **3D section** ([`run_3d`], `BENCH_pr17.json`) measures the
//! d-dimensional step at the slab shapes of the benchmark's
//! `solve3d_kill` workload — one field per rank, swept in rank order —
//! under the point-closure reference, the scalar row loop and the row
//! kernel of every SIMD backend the CPU can run. The rows-over-closure
//! *ratio* is what `expt regress` gates: both sides are measured in one
//! process, so the host factor cancels.

use std::time::Instant;

use advect2d::laxwendroff::{lax_wendroff_row, LwCoef};
use advect2d::{
    lax_wendroff_row_simd, upwind_diffusion_kernel, upwind_diffusion_row_n,
    upwind_diffusion_row_n_on, AdvectionProblem, PaddedField, PaddedFieldN, SimdIsa, StencilN,
    TimeGridN, UpwindAxisN, UpwindDiffusionCoefN,
};
use ftsg_core::psolve::block_range;
use ftsg_core::{AppConfig, ProcLayoutN, Technique};
use sparsegrid::{Grid2, LevelPair};

use crate::cli::{Args, Usage};
use crate::stamp::Stamp;
use crate::table::{sig3, utc_today, Table};
use crate::Opts;

/// FLOPs per output cell of the Lax–Wendroff row, counted from the
/// pinned scalar expression (adds + subs + muls; no FMA contraction
/// exists in the kernel by design).
pub const LW_FLOPS_PER_CELL: f64 = 21.0;

/// One row-kernel measurement.
#[derive(Debug, Clone)]
pub struct RowKernelRow {
    pub kernel: &'static str,
    pub variant: &'static str,
    pub nx: usize,
    pub best_ns: f64,
    pub gflops: f64,
}

/// One level-9 full-step measurement.
#[derive(Debug, Clone)]
pub struct StepRow {
    pub mode: &'static str,
    pub best_ns: f64,
    pub cells_per_s: f64,
}

/// Whole-experiment outcome.
#[derive(Debug, Clone)]
pub struct KernelReport {
    pub isa: &'static str,
    pub rows: Vec<RowKernelRow>,
    pub steps: Vec<StepRow>,
    /// SIMD level-9 trajectory bitwise-equal to scalar.
    pub bitwise_ok: bool,
    /// Fresh `scalar_ns / simd_ns` at level 9 — machine-relative, gated.
    pub simd_speedup_vs_scalar: f64,
    /// `BENCH_pr1.json`'s committed `level9_step/fast_double_buffered`
    /// median, if the baseline file was readable.
    pub pr1_fast_ns: Option<f64>,
    /// `pr1_fast_ns / simd_ns` — the ≥ 2x acceptance quantity.
    pub speedup_vs_pr1_fast: Option<f64>,
}

/// The minimum over samples — the estimator every timing here uses.
/// On shared hosts the interesting quantity is the *uncontended* cost:
/// contention and steal time only ever add, so the fastest sample is
/// the most reproducible estimate of what the code itself costs, and
/// ratios of minima are far more stable run-to-run than ratios of
/// medians (both sides of a ratio must be uncontended simultaneously
/// for a median to compare fairly).
fn best(v: Vec<f64>) -> f64 {
    v.into_iter().fold(f64::INFINITY, f64::min)
}

/// Time `f` `iters` times (after one warm-up call) and return the best
/// nanoseconds per call, batching `batch` calls per sample so short
/// kernels are not measured at clock resolution.
fn time_ns(iters: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    best(
        (0..iters.max(5))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..batch {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e9 / batch as f64
            })
            .collect(),
    )
}

/// Deterministic stencil rows for the row-kernel timings.
fn rows(nx: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let f = |k: usize, phase: f64| ((k as f64) * 0.37 + phase).sin();
    let s: Vec<f64> = (0..nx + 2).map(|k| f(k, 0.0)).collect();
    let c: Vec<f64> = (0..nx + 2).map(|k| f(k, 1.0)).collect();
    let n: Vec<f64> = (0..nx + 2).map(|k| f(k, 2.0)).collect();
    (s, c, n, vec![0.0; nx])
}

/// Measure both Lax–Wendroff row variants at width `nx`.
fn measure_rows(nx: usize, iters: usize) -> Vec<RowKernelRow> {
    let lw = LwCoef { cx: 0.2, cy: 0.15, cxx: 0.02, cyy: 0.01, cxy: 0.015 };
    let (s, c, n, mut out) = rows(nx);
    let batch = (1 << 14) / nx.max(1) + 1;

    let mut result = Vec::new();
    let mut push = |kernel, variant, flops: f64, ns: f64| {
        result.push(RowKernelRow {
            kernel,
            variant,
            nx,
            best_ns: ns,
            gflops: flops * nx as f64 / ns,
        });
    };
    let ns = time_ns(iters, batch, || lax_wendroff_row(&s, &c, &n, &lw, &mut out));
    push("lax_wendroff", "scalar", LW_FLOPS_PER_CELL, ns);
    let ns = time_ns(iters, batch, || lax_wendroff_row_simd(&s, &c, &n, &lw, &mut out));
    push("lax_wendroff", "simd", LW_FLOPS_PER_CELL, ns);
    result
}

/// Check the bitwise contract on the level-9 field: SIMD must reproduce
/// the scalar trajectory exactly over `steps` steps.
fn check_bitwise(coef: &LwCoef, lev: LevelPair, p: &AdvectionProblem, steps: usize) -> bool {
    let init = Grid2::from_fn(lev, p.initial());
    let mut scalar = PaddedField::from_grid(&init);
    let mut simd = scalar.clone();
    for _ in 0..steps {
        scalar.refresh_periodic_halo();
        scalar.step(|s, c, n, out| lax_wendroff_row(s, c, n, coef, out));
        simd.refresh_periodic_halo();
        simd.step(|s, c, n, out| lax_wendroff_row_simd(s, c, n, coef, out));
    }
    let (ny, _) = (scalar.ny(), scalar.nx());
    (0..ny).all(|m| {
        let r = scalar.interior_row(m);
        r.iter().zip(simd.interior_row(m)).all(|(a, b)| a.to_bits() == b.to_bits())
    })
}

/// Measure the level-9 steady-state step in the two configurations.
///
/// Each mode is timed **in its own steady state**: several un-timed
/// warm-up steps first, so caches are hot and the core's frequency
/// license has settled on *that mode's* instruction mix before any
/// sample is taken. This mirrors what a real rank does — it steps with
/// one kernel configuration for the whole run — and avoids the
/// license-transition penalty that interleaving scalar and wide-vector
/// steps would charge to the SIMD rows (measured ~10% here), a cost no
/// actual solve pays.
fn measure_level9(iters: usize) -> Vec<StepRow> {
    let p = AdvectionProblem::standard();
    let lev = LevelPair::new(9, 9);
    let n = 1usize << 9;
    let coef = LwCoef::new(&p, 1.0 / n as f64, 1.0 / n as f64, 1e-4);
    let cells = (n * n) as f64;
    let iters = iters.max(5);
    let warmup = (iters / 4).max(5);

    [("fast_scalar", false), ("fast_simd", true)]
        .into_iter()
        .map(|(mode, simd)| {
            let mut field = PaddedField::from_grid(&Grid2::from_fn(lev, p.initial()));
            let step = |field: &mut PaddedField| {
                let t = Instant::now();
                field.refresh_periodic_halo();
                if simd {
                    field.step(|s, c, n2, o| lax_wendroff_row_simd(s, c, n2, &coef, o));
                } else {
                    field.step(|s, c, n2, o| lax_wendroff_row(s, c, n2, &coef, o));
                }
                t.elapsed().as_secs_f64() * 1e9
            };
            for _ in 0..warmup {
                step(&mut field);
            }
            let ns = best((0..iters).map(|_| step(&mut field)).collect());
            StepRow { mode, best_ns: ns, cells_per_s: cells / (ns * 1e-9) }
        })
        .collect()
}

/// Committed `level9_step/fast_double_buffered/9x9` median from
/// `BENCH_pr1.json`, if present in `dir`.
fn pr1_fast_baseline(dir: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("{dir}/BENCH_pr1.json")).ok()?;
    let at = text.find("level9_step/fast_double_buffered")?;
    crate::experiments::regress::json_num(&text[at..], "median_ns")
}

/// Run the whole experiment. `iters` sizes the timing loops (use a small
/// value for `--quick` smoke runs); baselines are read from `dir`.
pub fn run(dir: &str, iters: usize) -> KernelReport {
    let p = AdvectionProblem::standard();
    let n = 1usize << 9;
    let coef = LwCoef::new(&p, 1.0 / n as f64, 1.0 / n as f64, 1e-4);
    let bitwise_ok = check_bitwise(&coef, LevelPair::new(9, 9), &p, 4);

    let mut rows = Vec::new();
    for nx in [512usize, 4096] {
        rows.extend(measure_rows(nx, iters));
    }
    let steps = measure_level9(iters);

    let ns_of = |mode: &str| steps.iter().find(|r| r.mode == mode).map(|r| r.best_ns);
    let scalar = ns_of("fast_scalar").unwrap_or(f64::NAN);
    let simd = ns_of("fast_simd").unwrap_or(f64::NAN);
    let pr1_fast_ns = pr1_fast_baseline(dir);

    KernelReport {
        isa: Stamp::host().isa,
        rows,
        steps,
        bitwise_ok,
        simd_speedup_vs_scalar: scalar / simd,
        pr1_fast_ns,
        speedup_vs_pr1_fast: pr1_fast_ns.map(|b| b / simd),
    }
}

impl KernelReport {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Row kernels and level-9 step (isa: {})", self.isa),
            &["bench", "best_ns", "rate"],
        );
        for r in &self.rows {
            t.row(vec![
                format!("{}/{}/{}", r.kernel, r.variant, r.nx),
                sig3(r.best_ns),
                format!("{} GFLOP/s", sig3(r.gflops)),
            ]);
        }
        for s in &self.steps {
            t.row(vec![
                format!("level9_step/{}/9x9", s.mode),
                sig3(s.best_ns),
                format!("{} cells/s", sig3(s.cells_per_s)),
            ]);
        }
        t
    }

    /// `BENCH_pr8.json` contents: acceptance block first, then one result
    /// row per measurement (its `bench` name and best time).
    pub fn to_json(&self, date: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n \"pr\": 8,\n");
        s.push_str(&format!(" \"date\": \"{date}\",\n"));
        s.push_str(
            " \"note\": \"Vectorized kernels from expt-kernel: Lax–Wendroff row GFLOP/s \
             (scalar reference vs SIMD) and the level-9 steady-state step wall under \
             scalar and SIMD configurations. Bitwise equality of the fast path is \
             re-checked before timing.\",\n",
        );
        s.push_str(&format!(" \"config\": {{\"simd_isa\": \"{}\", \"level\": 9}},\n", self.isa));
        s.push_str(" \"acceptance\": {\n");
        s.push_str(&format!("  \"fast_paths_bitwise_identical\": {},\n", self.bitwise_ok));
        s.push_str(&format!(
            "  \"level9_simd_speedup_vs_scalar\": {:.4},\n",
            self.simd_speedup_vs_scalar
        ));
        if let (Some(b), Some(v)) = (self.pr1_fast_ns, self.speedup_vs_pr1_fast) {
            s.push_str(&format!("  \"pr1_fast_double_buffered_median_ns\": {b:.1},\n"));
            s.push_str(&format!("  \"level9_step_speedup_vs_pr1_fast\": {v:.4},\n"));
        }
        s.push_str("  \"required_min_speedup\": 2.0\n },\n \"results\": [\n");
        let mut rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"bench\": \"{}/{}/{}\", \"best_ns\": {:.1}, \"gflops\": {:.3}}}",
                    r.kernel, r.variant, r.nx, r.best_ns, r.gflops
                )
            })
            .collect();
        rows.extend(self.steps.iter().map(|r| {
            format!(
                "  {{\"bench\": \"level9_step/{}/9x9\", \"best_ns\": {:.1}, \
                 \"throughput\": {:.3}, \"throughput_unit\": \"elem/s\"}}",
                r.mode, r.best_ns, r.cells_per_s
            )
        }));
        s.push_str(&rows.join(",\n"));
        s.push_str("\n ]\n}\n");
        s
    }
}

/// Fresh machine-relative level-9 SIMD speedup, for the regression gate.
pub fn measure_simd_step_speedup(iters: usize) -> f64 {
    let steps = measure_level9(iters);
    let ns_of = |mode: &str| steps.iter().find(|r| r.mode == mode).map(|r| r.best_ns);
    ns_of("fast_scalar").unwrap_or(f64::NAN) / ns_of("fast_simd").unwrap_or(f64::NAN)
}

// ---------------------------------------------------------------------
// 3D section
// ---------------------------------------------------------------------

/// One way of stepping the 3D slabs.
#[derive(Debug, Clone, Copy)]
enum Step3d {
    /// `step_planes` with the boxed `upwind_diffusion_kernel` point
    /// closure — the reference, and what the nd solvers ran before rows.
    Closure,
    /// `step_rows` with the scalar row loop.
    RowsScalar,
    /// `step_rows` with the row kernel of one SIMD backend.
    Rows(SimdIsa),
}

impl Step3d {
    fn label(self) -> String {
        match self {
            Step3d::Closure => "closure".into(),
            Step3d::RowsScalar => "rows_scalar".into(),
            Step3d::Rows(isa) => format!("rows_{}", isa.label()),
        }
    }
}

/// One 3D step measurement.
#[derive(Debug, Clone)]
pub struct Step3dRow {
    pub mode: String,
    pub ns_per_cell: f64,
}

/// Outcome of the 3D section.
#[derive(Debug, Clone)]
pub struct Kernel3dReport {
    /// The host; its `isa` is the backend production rows step with.
    pub stamp: &'static Stamp,
    /// Slab fields (= ranks of the workload's layout) and their cells.
    pub fields: usize,
    pub cells: usize,
    pub rows: Vec<Step3dRow>,
    /// Every mode reproduced the closure trajectory bit for bit.
    pub bitwise_ok: bool,
    /// `closure ns ÷ rows ns` at the process's backend — gated.
    pub rows_speedup_vs_closure: f64,
}

/// The reference point kernel, boxed as the benchmark's
/// `probes::kernel_nd` holds it.
type PointKernel = Box<dyn Fn(&[f64], usize) -> f64>;

/// One slab of the workload with both formulations of its stencil.
struct Slab3d {
    field: PaddedFieldN,
    closure: PointKernel,
    axes: Vec<UpwindAxisN>,
}

/// One field per rank of `solve3d_kill`'s layout (3D, n = 7, l = 4,
/// scale 2: 56 ranks over 19 sub-grids), filled with smooth data.
fn solve3d_slabs() -> Vec<Slab3d> {
    let mut cfg = AppConfig::small_nd(Technique::AlternateCombination, 3);
    (cfg.n, cfg.l, cfg.scale, cfg.log2_steps) = (7, 4, 2, 6);
    let lay = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let problem = cfg.resolved_problem_nd();
    let dt = TimeGridN::for_system(&problem, cfg.n, cfg.steps(), 0.4).dt;
    let mut slabs = Vec::new();
    for info in lay.groups() {
        let np: Vec<usize> =
            lay.system().grid(info.grid).level.iter().map(|&l| 1usize << l).collect();
        let h: Vec<f64> = np.iter().map(|&n| 1.0 / n as f64).collect();
        for local in 0..info.size {
            let mut shape = np.clone();
            shape[cfg.dim - 1] = block_range(np[cfg.dim - 1], info.size, local).1;
            let mut field = PaddedFieldN::new(&shape);
            for (k, v) in field.padded_mut().iter_mut().enumerate() {
                *v = (k as f64 * 0.01).sin();
            }
            let coef = UpwindDiffusionCoefN::new(&problem, &h, dt);
            let StencilN::UpwindDiffusion(axes) =
                StencilN::upwind_diffusion(&coef, field.pstrides())
            else {
                unreachable!("upwind_diffusion builds the upwind–diffusion variant")
            };
            let closure = Box::new(upwind_diffusion_kernel(coef, field.pstrides().to_vec()));
            slabs.push(Slab3d { field, closure, axes });
        }
    }
    slabs
}

/// One sweep: wrap + step + commit of every slab, in rank order.
fn sweep_3d(slabs: &mut [Slab3d], how: Step3d) {
    for Slab3d { field, closure, axes } in slabs.iter_mut() {
        field.wrap_transverse_halo();
        let planes = field.shape()[field.dim() - 1];
        match how {
            Step3d::Closure => field.step_planes(0, planes, &**closure),
            Step3d::RowsScalar => field
                .step_rows(0, planes, |cur, off, out| upwind_diffusion_row_n(axes, cur, off, out)),
            Step3d::Rows(isa) => field.step_rows(0, planes, |cur, off, out| {
                upwind_diffusion_row_n_on(isa, axes, cur, off, out)
            }),
        }
        field.commit_step();
    }
}

/// Run the 3D section with `iters` timing samples per mode.
pub fn run_3d(iters: usize) -> Kernel3dReport {
    let modes: Vec<Step3d> = [Step3d::Closure, Step3d::RowsScalar]
        .into_iter()
        .chain(SimdIsa::available().map(Step3d::Rows))
        .collect();
    let slabs = solve3d_slabs();
    let fields = slabs.len();
    let cells: usize = slabs.iter().map(|s| s.field.shape().iter().product::<usize>()).sum();
    drop(slabs);

    // Bitwise contract first: every mode must walk the closure's
    // trajectory exactly.
    let trajectory = |how: Step3d| {
        let mut slabs = solve3d_slabs();
        for _ in 0..3 {
            sweep_3d(&mut slabs, how);
        }
        slabs
    };
    let reference = trajectory(Step3d::Closure);
    let bitwise_ok = modes[1..].iter().all(|&how| {
        trajectory(how).iter().zip(&reference).all(|(a, b)| {
            let (a, b) = (a.field.padded(), b.field.padded());
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        })
    });

    let rows: Vec<Step3dRow> = modes
        .iter()
        .map(|&how| Step3dRow {
            mode: how.label(),
            ns_per_cell: sweep_ns_3d(how, iters) / cells as f64,
        })
        .collect();
    let ns_of = |how: Step3d| {
        let mode = how.label();
        rows.iter().find(|r| r.mode == mode).map(|r| r.ns_per_cell).unwrap_or(f64::NAN)
    };
    Kernel3dReport {
        stamp: Stamp::host(),
        fields,
        cells,
        rows_speedup_vs_closure: ns_of(Step3d::Closure) / ns_of(Step3d::Rows(SimdIsa::resolved())),
        rows,
        bitwise_ok,
    }
}

/// Best-of-samples nanoseconds of one sweep under `how`, measured in its
/// own steady state on fresh slabs (see `measure_level9`).
fn sweep_ns_3d(how: Step3d, iters: usize) -> f64 {
    let mut slabs = solve3d_slabs();
    time_ns(iters, 2, || sweep_3d(&mut slabs, how))
}

/// Fresh rows-over-closure ratio of the 3D step at the process's SIMD
/// backend, for the regression gate.
pub fn measure_3d_rows_speedup(iters: usize) -> f64 {
    sweep_ns_3d(Step3d::Closure, iters) / sweep_ns_3d(Step3d::Rows(SimdIsa::resolved()), iters)
}

impl Kernel3dReport {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "3D step at the solve3d_kill slab shapes ({} fields, {} cells; isa: {})",
                self.fields, self.cells, self.stamp.isa
            ),
            &["mode", "ns_per_cell"],
        );
        for r in &self.rows {
            t.row(vec![r.mode.clone(), sig3(r.ns_per_cell)]);
        }
        t
    }

    /// `BENCH_pr17.json` contents.
    pub fn to_json(&self, date: &str) -> String {
        let mut s = String::new();
        s.push_str("{\n \"pr\": 17,\n");
        s.push_str(&format!(" \"date\": \"{date}\",\n"));
        s.push_str(
            " \"note\": \"3D step from expt-kernel: wrap + step + commit of one field per rank \
             at the slab shapes of the benchmark's solve3d_kill workload, swept in rank order; \
             point-closure reference vs the scalar row loop vs the row kernel of every SIMD \
             backend this CPU runs. Best-of-samples ns per cell update; bitwise equality of \
             every mode to the closure trajectory is re-checked before timing.\",\n",
        );
        s.push_str(&format!(
            " \"config\": {{\"simd_isa\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \
             \"dim\": 3, \"n\": 7, \"l\": 4, \"scale\": 2, \"fields\": {}, \"cells\": {}}},\n",
            self.stamp.isa, self.stamp.nproc, self.stamp.cpu, self.fields, self.cells
        ));
        s.push_str(" \"acceptance\": {\n");
        s.push_str(&format!("  \"nd_rows_bitwise_identical\": {},\n", self.bitwise_ok));
        s.push_str(&format!(
            "  \"nd_rows_speedup_vs_closure\": {:.4}\n }},\n \"results\": [\n",
            self.rows_speedup_vs_closure
        ));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"bench\": \"step3d/{}\", \"ns_per_cell\": {:.3}}}",
                    r.mode, r.ns_per_cell
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n ]\n}\n");
        s
    }
}

/// `expt kernel`: both sections, `BENCH_pr8.json` and `results/kernel.csv`
/// then `BENCH_pr17.json` and `results/kernel3d.csv`. Of the shared
/// experiment flags it takes only `--reps` (timing samples, scaled ×10)
/// and `--quick`.
pub fn main(a: &Args) -> Result<i32, Usage> {
    let opts = Opts::from_args(a)?;
    let iters = if opts.quick { 10 } else { opts.reps.max(3) * 10 };
    let report = run(".", iters);
    report.table().emit(a.csv("kernel.csv"));
    assert!(report.bitwise_ok, "SIMD path drifted from the scalar reference");
    println!(
        "level-9 step: simd {:.2}x vs scalar (isa: {})",
        report.simd_speedup_vs_scalar, report.isa
    );
    if let Some(v) = report.speedup_vs_pr1_fast {
        println!("vs committed BENCH_pr1 fast path: {v:.2}x (required: 2.0x)");
    }
    a.record("BENCH_pr8.json", &report.to_json(&utc_today()));

    let report = run_3d(iters);
    report.table().emit(a.csv("kernel3d.csv"));
    assert!(report.bitwise_ok, "3D row kernels drifted from the closure reference");
    let s = report.stamp;
    println!(
        "3D step: rows {:.2}x vs closure (isa: {}, nproc: {}, cpu: {})",
        report.rows_speedup_vs_closure, s.isa, s.nproc, s.cpu
    );
    a.record("BENCH_pr17.json", &report.to_json(&utc_today()));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_contract_holds_on_level7() {
        let p = AdvectionProblem::standard();
        let n = 1usize << 7;
        let coef = LwCoef::new(&p, 1.0 / n as f64, 1.0 / n as f64, 1e-4);
        assert!(check_bitwise(&coef, LevelPair::new(7, 7), &p, 3));
    }

    #[test]
    fn quick_report_is_complete_and_serializes() {
        let report = run("/nonexistent", 5);
        assert!(report.bitwise_ok, "fast paths drifted from the scalar reference");
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.steps.len(), 2);
        assert!(report.simd_speedup_vs_scalar.is_finite());
        assert!(report.pr1_fast_ns.is_none());
        let json = report.to_json("2026-01-01");
        assert!(json.contains("\"level9_simd_speedup_vs_scalar\""));
        assert!(json.contains("level9_step/fast_simd/9x9"));
        assert!(report.table().render().contains("GFLOP/s"));
    }

    #[test]
    fn quick_3d_report_is_bitwise_and_serializes() {
        let report = run_3d(5);
        assert!(report.bitwise_ok, "3D rows drifted from the closure reference");
        assert_eq!(report.fields, 56, "solve3d_kill runs 56 ranks");
        // closure + scalar rows + at least the portable backend.
        assert!(report.rows.len() >= 3);
        assert!(report.rows_speedup_vs_closure.is_finite());
        let json = report.to_json("2026-01-01");
        assert!(json.contains("\"nd_rows_speedup_vs_closure\""));
        assert!(json.contains("step3d/rows_scalar"));
        assert!(report.table().render().contains("closure"));
    }
}
