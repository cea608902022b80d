//! `expt regress` — the bench-regression gate: re-measure the
//! load-bearing performance claims in this repo and compare each against
//! the committed `BENCH_*.json` baseline, failing on a regression beyond
//! [`TOLERANCE`].
//!
//! The gated quantities, chosen because each one guards a different layer:
//!
//! 1. **`level9_step_speedup`** (wall clock) — the double-buffered
//!    Lax–Wendroff step vs the seed formulation at level 9, vs
//!    `BENCH_pr1.json` `acceptance.level9_single_owner_step_speedup`.
//!    Guards the numerics hot loop.
//! 2. **`combine_tree_speedup_n9`** (virtual time, deterministic) — the
//!    binomial-tree combination vs the centralized master gather, vs
//!    `BENCH_pr3.json` `acceptance.combine_virtual_makespan_speedup_level9`.
//!    Guards the communication schedule and the cost models.
//! 3. **`level9_simd_speedup`** (wall clock, ratio of two same-machine
//!    measurements) — the vectorized level-9 step vs the scalar reference
//!    step, vs `BENCH_pr8.json`
//!    `acceptance.level9_simd_speedup_vs_scalar`. Guards the SIMD
//!    kernels: a build or dispatch change that silently falls back to
//!    scalar collapses this ratio to ~1.
//! 4. **`d2_level9_step_wall_ns`** (wall clock, lower is better) — the
//!    absolute median wall time of the double-buffered d=2 level-9 step,
//!    vs `BENCH_pr8.json` `acceptance.pr1_fast_double_buffered_median_ns`.
//!    Guards the classic 2D hot path against the d-dimensional
//!    generalization: the speedup gates are ratios and would hide a
//!    change that slowed both formulations equally.
//! 5. **`nd_rows_speedup_vs_closure`** (wall clock, ratio of two
//!    same-process measurements) — the d-dimensional row step vs the
//!    point-closure reference step at the `solve3d_kill` slab shapes, vs
//!    `BENCH_pr17.json` `acceptance.nd_rows_speedup_vs_closure`. Guards
//!    the nd hot path: a per-point dispatch or a per-step allocation
//!    creeping back into `PaddedFieldN::step_rows` / `StencilN::row`
//!    collapses the ratio towards 1, while the host factor cancels.
//! 6. **`crc_sliced_over_bytewise_ratio`** (wall clock, ratio of two
//!    same-process measurements, held to a *floor* rather than to the
//!    committed value ± tolerance) — the production slice-by-8 CRC-64
//!    over the byte-at-a-time reference on the largest `ckpt_heavy`
//!    sub-grid, vs `BENCH_pr18.json` `acceptance.crc_ratio_required_min`
//!    (2×). Guards the checkpoint codec: the checksum runs over every
//!    byte written and every byte restored, and a fallback to the
//!    bytewise loop collapses the ratio to 1. How far above the floor a
//!    CPU lands varies with its cache and issue width, which is why the
//!    committed ratio itself is not the bar.
//! 7. **`paper_shape_agree_calls`** and **`paper_shape_t_reconstruct`**
//!    (virtual clock, **exact match**) — how many agreements the
//!    one-failure repair of the paper's own shape (`paper2d_kill`) puts on
//!    rank 0's path, and its `T_RECONSTRUCT`, vs `BENCH_pr22.json`
//!    `acceptance`. Guards the recovery protocol: a consensus round
//!    creeping back in, or a repair-path operation changing, moves one of
//!    the two. Deterministic and host-independent, so unlike the gates
//!    above it is not a matter of tolerance.
//! 8. **`warm_inline_collective_requests`** and
//!    **`warm_gather_view_requests`** (allocator requests, **exact
//!    match**) — what 16 warm rounds of `barrier` + `allreduce_sum` +
//!    `agree`, and 16 warm `gather_view` rounds, cost on 64 ranks
//!    ([`crate::experiments::collectives`]), vs `BENCH_pr24.json`
//!    `acceptance` (0, and 1 per operation). Guards the rendezvous: a
//!    per-rank allocation creeping back into a collective — a cloned
//!    contribution, a boxed outcome, a map node — moves a count by a
//!    multiple of 64. Measured through the calling binary's counting
//!    allocator, so only `expt regress` (which installs one) runs them.
//! 9. **`robust_solve_requests_2d`**, **`robust_solve_requests_3d`** and
//!    **`errhandler_requests`** (allocator requests, **exact match**) —
//!    one warm robust-coefficient solve at the `ranks1k_kill` and
//!    `solve3d_kill` shapes, and 16 warm Fig. 4 handler calls on each of
//!    14 survivors (`ftsg_core::alloc_probe::repair_share`, which
//!    `alloc_discipline.rs` asserts too), vs `BENCH_pr26.json`
//!    `acceptance`. Guards a rank's share of a repair,
//!    which every rank pays: a level set, a coefficient map or a search
//!    node's clone creeping back into the solve, or a failed list or a
//!    group rebuilt per handler call, moves a count.
//! 10. **`paper2d_kill_bytes`** and **`solve3d_kill_bytes`** (bytes
//!     requested of the allocator, held to a **ceiling**) — one whole run
//!     of the `paper2d_kill` and `solve3d_kill` shapes
//!     ([`crate::experiments::repair::run_count`]: seed 7, one scheduler
//!     worker, after a warm-up run), at or below `BENCH_pr30.json`
//!     `acceptance`. Guards the landing grid: a gathered, received or
//!     decoded grid that gets a fresh buffer again, or a scatter that
//!     stages its blocks, adds about a megabyte per grid, and the
//!     Alternate Combination sample coming back adds about 5.7 MB to a
//!     `paper2d_kill` run. The ceiling is
//!     the measurement plus 64 KiB, and it assumes the count depends on
//!     the host only through the temp-dir paths a run formats: on a
//!     2-core Xeon the count was the same to the byte under rustc 1.95.0
//!     and a 1.97 nightly, and from a checkout whose path is 225
//!     characters long; a 259-character `TMPDIR` added 1,983 bytes
//!     (about 8 per character, so even a `PATH_MAX` one stays inside
//!     the margin). A toolchain whose standard library allocates
//!     differently may need the ceiling re-measured.
//! 11. **`paper2d_kill_ac_makespan`** (virtual clock, **exact match**) —
//!     the makespan of the one-failure run of the paper's shape, the
//!     benchmark's `virt_makespan @ paper2d_kill`, vs `BENCH_pr29.json`
//!     `acceptance`. Guards Alternate Combination's recovery: it is the
//!     coefficient solve alone, and a gather, combination or scatter of a
//!     sample for the lost grid creeping back in moves it (by 0.0172
//!     vsec, what that sample cost).
//! 12. **`solve3d_kill_requests`** (allocator requests, held to a
//!     **ceiling**) — the same whole `solve3d_kill` run as gate 10,
//!     counted in requests, at or below `BENCH_pr30.json` `acceptance`.
//!     The count moves with the temp-dir path a run formats, but only
//!     downwards: a short path (`/tmp`) makes the most, 3,733, and paths
//!     of 32 to 416 characters 3,731. So the ceiling is the measured
//!     value. Guards the nd set-up, which every rank runs: a validation
//!     that builds the grid system again adds one request per process
//!     (57), levels that are heap vectors again about 1,400 (one per
//!     level of every rank's grid system, plus each solver's and each
//!     grid's level, shape and strides).
//! 13. **`ckpt_heavy_restore`** and **`ckpt_heavy_makespan`** (virtual
//!     clock, **exact match**) — the benchmark's `virt_restore @
//!     ckpt_heavy` (`T_RECOVERY + T_CKPT`) and `virt_makespan @
//!     ckpt_heavy` of one run of the shape
//!     ([`crate::experiments::repair::measure_restore`]), vs
//!     `BENCH_pr35.json` `acceptance`. Guard the newest-wins checkpoint
//!     writer: each root's virtual disk holds one write in flight and one
//!     queued, a snapshot submitted before the queued write starts
//!     replaces it, and a drain never starts a write — the recovery
//!     barrier and the end of the run both supersede the queued snapshot,
//!     and the restore reads the write that was in flight. A recovery
//!     barrier that lands the queued snapshot again takes the pair back
//!     from 5.79 / 15.99 to 9.31 / 19.51 vsec, both drains landing it to
//!     12.83 / 23.03.
//! 14. **`cr3d_kill_makespan`** (virtual clock, **exact match**) — the
//!     makespan of one Checkpoint/Restart kill on the 3D shape
//!     `virt_pins.rs` pins ([`crate::experiments::repair::measure_cr3d`])
//!     with the asynchronous checkpoint stage, vs `BENCH_pr38.json`
//!     `acceptance`; the same run with synchronous checkpoints must take
//!     longer. Guards the one checkpoint stage of both stacks: a 3D root
//!     that writes synchronously again reads the synchronous makespan,
//!     10.88 instead of 8.86 vsec.
//! 15. **`ranks1k_stack_pages`** (resident pages, held to a **ceiling**) —
//!     how many 4 KiB pages the deepest fiber stack of a run of the
//!     `ranks1k_kill` shape keeps resident, over every stack the run used:
//!     the survivors' and the victims', which their replacements are
//!     spawned onto ([`crate::experiments::repair::measure_stack_pages`],
//!     on stacks no earlier run of the process touched, counted from the
//!     present bits of `/proc/self/pagemap`), at or below
//!     `BENCH_pr39.json` `acceptance` (2). Guards the memory each simulated
//!     rank costs, which at 1k ranks is half of `ranks1k_kill`'s peak
//!     resident set: the overflow canary back on a page of its own reads 3
//!     — 4 KiB more for every rank — and so does a stack that grows past
//!     the 8,176 bytes two pages hold. The deepest are a replacement's
//!     (7,824 bytes, in its data recovery's metadata broadcast, which
//!     grows the rendezvous table through `malloc`) and the survivor that
//!     resolves the spawn (7,592). Those depths depend on the compiler's
//!     frame layout (pinned by the rustc in `BENCH_pr39.json`) and, at the
//!     leaves, on the C library's `malloc`; the count assumes 4 KiB pages
//!     (transparent huge pages not `always`, which the measurement refuses
//!     by name) and a readable pagemap.
//! 16. **`ranks1k_kill_requests`** (allocator requests, held to a
//!     **ceiling**) — one whole run of the `ranks1k_kill` shape (1,005
//!     ranks, two victims, Alternate Combination), counted as gate 12
//!     counts `solve3d_kill`, at or below `BENCH_pr44.json` `acceptance`:
//!     24,863, measured with `TMPDIR` unset (a 64-character one reads
//!     24,861). Guards what every survivor of a repair pays: a second
//!     robust solve per rank adds 3,015, a broken-grid list built twice
//!     1,005, a failure list copied per survivor (an acknowledged list,
//!     an error's rank list) about 1,000 each, a host name per spawn spec
//!     2,006, a vector per rank at the root of a one-scalar gather 2,010,
//!     the Fig. 6 list derived by every survivor instead of shared 6,012,
//!     the repaired-rank books copying it 2,006, the spawn list built on
//!     every survivor instead of the root alone 1,002.
//! 17. **`paper2d_kill_live_peak_bytes`** and
//!     **`solve3d_kill_live_peak_bytes`** (live heap bytes, held to a
//!     **ceiling**) — the most heap bytes one whole run of the shape holds
//!     at once, above what was live when it started
//!     ([`crate::experiments::alloc_sites::live_peak`], gate 12's
//!     protocol), at or below `BENCH_pr46.json` `acceptance`: the
//!     measurement plus 64 KiB, as gate 10. The deterministic twin of the
//!     benchmark's `peak_rss_mb`, which also depends on how the C library
//!     maps and returns memory. Guards each solver releasing its spare
//!     step buffer when it commits the run's last step: solvers that keep
//!     it add 6,489,600 bytes to the peak of a `paper2d_kill` run and
//!     5,264,832 to that of a `solve3d_kill` run.
//!
//! Wall-clock gates are inherently machine-relative, so CI runs the full
//! lane advisory (`continue-on-error`); the exact gate alone
//! ([`run_exact`], `expt regress --exact`) is a blocking CI step. Locally
//! a nonzero exit means "look before you merge".

use std::time::Instant;

use advect2d::laxwendroff::{lax_wendroff_row, lax_wendroff_step, LwCoef};
use advect2d::{AdvectionProblem, PaddedField};
use sparsegrid::{Grid2, LevelPair};

use crate::cli::{Args, Usage};
use crate::experiments::alloc_sites::{bytes, live_peak, requests};
use crate::experiments::overlap::combine_makespan;
use crate::experiments::scale::json_num;
use crate::table::{sig3, Table};

/// Allowed relative slip against a committed baseline before the gate
/// fails (0.15 = 15%).
pub const TOLERANCE: f64 = 0.15;

/// One gated quantity: baseline, fresh measurement, verdict.
#[derive(Debug, Clone)]
pub struct GateResult {
    pub name: &'static str,
    /// Committed file the baseline was read from.
    pub source: &'static str,
    pub baseline: f64,
    pub fresh: f64,
    /// Whether larger values are better (speedups) or worse (walls).
    pub higher_is_better: bool,
    /// A deterministic quantity held to its committed value bit for bit;
    /// neither direction nor tolerance applies.
    pub exact: bool,
    pub pass: bool,
}

impl GateResult {
    fn new(
        name: &'static str,
        source: &'static str,
        baseline: f64,
        fresh: f64,
        higher_is_better: bool,
    ) -> Self {
        let pass = passes(baseline, fresh, higher_is_better, TOLERANCE);
        GateResult { name, source, baseline, fresh, higher_is_better, exact: false, pass }
    }

    /// A deterministic quantity: `fresh` must equal the committed value to
    /// the last bit.
    fn exact(name: &'static str, source: &'static str, baseline: f64, fresh: f64) -> Self {
        let pass = baseline.to_bits() == fresh.to_bits();
        GateResult { name, source, baseline, fresh, higher_is_better: false, exact: true, pass }
    }

    /// A gate held to a fixed floor: `fresh` must reach `floor` itself,
    /// with no tolerance band around a committed measurement.
    fn floor(name: &'static str, source: &'static str, floor: f64, fresh: f64) -> Self {
        Self::bound(name, source, floor, fresh, true)
    }

    /// A gate held to a fixed ceiling: `fresh` must not exceed `ceiling`.
    fn ceiling(name: &'static str, source: &'static str, ceiling: f64, fresh: f64) -> Self {
        Self::bound(name, source, ceiling, fresh, false)
    }

    fn bound(
        name: &'static str,
        source: &'static str,
        bound: f64,
        fresh: f64,
        higher_is_better: bool,
    ) -> Self {
        let pass = passes(bound, fresh, higher_is_better, 0.0);
        GateResult { name, source, baseline: bound, fresh, higher_is_better, exact: false, pass }
    }
}

/// The whole gate run.
#[derive(Debug, Clone)]
pub struct RegressReport {
    pub gates: Vec<GateResult>,
    pub tolerance: f64,
}

impl RegressReport {
    pub fn all_pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!("Bench-regression gate (tolerance {:.0}%)", self.tolerance * 100.0),
            &["gate", "baseline", "fresh", "direction", "verdict", "source"],
        );
        for g in &self.gates {
            t.row(vec![
                g.name.into(),
                sig3(g.baseline),
                sig3(g.fresh),
                match (g.exact, g.higher_is_better) {
                    (true, _) => "exact".into(),
                    (false, true) => "higher-better".into(),
                    (false, false) => "lower-better".into(),
                },
                if g.pass { "ok".into() } else { "REGRESSED".into() },
                g.source.into(),
            ]);
        }
        t
    }
}

/// The pass rule: a speedup may slip to `baseline * (1 - tol)`, a wall
/// time may grow to `baseline * (1 + tol)`. Improvements always pass.
fn passes(baseline: f64, fresh: f64, higher_is_better: bool, tol: f64) -> bool {
    if !baseline.is_finite() || !fresh.is_finite() {
        return false;
    }
    if higher_is_better {
        fresh >= baseline * (1.0 - tol)
    } else {
        fresh <= baseline * (1.0 + tol)
    }
}

fn read_baseline(dir: &str, file: &'static str) -> Result<String, String> {
    let path = format!("{dir}/{file}");
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read baseline {path}: {e}"))
}

/// First numeric occurrence of `key` in `text` (our BENCH files put the
/// `config`/`acceptance` blocks before the result rows, so "first" is the
/// config/acceptance value).
fn num_field(text: &str, key: &str, file: &str) -> Result<f64, String> {
    json_num(text, key).ok_or_else(|| format!("{file}: no numeric field \"{key}\""))
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median wall times `(naive, fast)` in seconds of the seed and the
/// double-buffered level-9 step formulations, over `iters` timed runs
/// each. The ratio feeds the speedup gate; the `fast` wall also gates
/// absolutely.
fn measure_step_walls(iters: usize) -> (f64, f64) {
    let p = AdvectionProblem::standard();
    let lev = LevelPair::new(9, 9);
    let n = 1usize << 9;
    let coef = LwCoef::new(&p, 1.0 / n as f64, 1.0 / n as f64, 1e-4);

    // Seed formulation: rebuild the whole padded copy per step.
    let mut grid = Grid2::from_fn(lev, p.initial());
    let (mut padded, mut out) = (Vec::new(), Vec::new());
    lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out); // warm scratch
    let naive = median(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out);
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );

    // Double-buffered formulation: halo refresh + row kernel + swap.
    let mut field = PaddedField::from_grid(&Grid2::from_fn(lev, p.initial()));
    field.refresh_periodic_halo();
    field.step(|s, c2, n2, out| lax_wendroff_row(s, c2, n2, &coef, out));
    let fast = median(
        (0..iters)
            .map(|_| {
                let t = Instant::now();
                field.refresh_periodic_halo();
                field.step(|s, c2, n2, out| lax_wendroff_row(s, c2, n2, &coef, out));
                t.elapsed().as_secs_f64()
            })
            .collect(),
    );
    (naive, fast)
}

/// The deterministic gates alone (virtual clock, allocator counts and
/// bytes, resident stack pages), so CI can block on them. `requests` and
/// `bytes` read the calling binary's counting allocator.
pub fn run_exact(
    dir: &str,
    requests: fn() -> u64,
    bytes: fn() -> u64,
) -> Result<RegressReport, String> {
    let pr22 = read_baseline(dir, "BENCH_pr22.json")?;
    let agree_base = num_field(&pr22, "paper_shape_agree_calls", "BENCH_pr22.json")?;
    let reconstruct_base = num_field(&pr22, "paper_shape_t_reconstruct", "BENCH_pr22.json")?;
    let (agree_fresh, reconstruct_fresh, makespan_fresh) =
        crate::experiments::repair::measure_paper_shape();
    let pr24 = read_baseline(dir, "BENCH_pr24.json")?;
    let inline_base = num_field(&pr24, "warm_inline_collective_requests", "BENCH_pr24.json")?;
    let gather_base = num_field(&pr24, "warm_gather_view_requests", "BENCH_pr24.json")?;
    let warm = crate::experiments::collectives::measure(requests);
    let pr26 = read_baseline(dir, "BENCH_pr26.json")?;
    let repair = ftsg_core::alloc_probe::repair_share(requests);
    let pr29 = read_baseline(dir, "BENCH_pr29.json")?;
    let makespan_base = num_field(&pr29, "paper2d_kill_ac_makespan", "BENCH_pr29.json")?;
    let pr30 = read_baseline(dir, "BENCH_pr30.json")?;
    let pr35 = read_baseline(dir, "BENCH_pr35.json")?;
    let restore_base = num_field(&pr35, "ckpt_heavy_restore", "BENCH_pr35.json")?;
    let ckpt_makespan_base = num_field(&pr35, "ckpt_heavy_makespan", "BENCH_pr35.json")?;
    let (restore_fresh, ckpt_makespan_fresh) =
        crate::experiments::repair::measure_restore("ckpt_heavy")
            .ok_or("no workload ckpt_heavy")?;
    let pr38 = read_baseline(dir, "BENCH_pr38.json")?;
    let cr3d_base = num_field(&pr38, "cr3d_kill_makespan", "BENCH_pr38.json")?;
    let (cr3d_async, cr3d_sync) = crate::experiments::repair::measure_cr3d();
    let pr39 = read_baseline(dir, "BENCH_pr39.json")?;
    let pages_ceiling = num_field(&pr39, "ranks1k_stack_pages", "BENCH_pr39.json")?;
    let pages = crate::experiments::repair::measure_stack_pages()?
        .into_iter()
        .max()
        .ok_or("the ranks1k_kill run recorded no fiber stack")?;
    let mut cr3d =
        GateResult::exact("cr3d_kill_makespan", "BENCH_pr38.json", cr3d_base, cr3d_async);
    cr3d.pass &= cr3d_async < cr3d_sync;
    let pr44 = read_baseline(dir, "BENCH_pr44.json")?;
    let run_count = |(text, file): (&str, &'static str),
                     key: &'static str,
                     workload: &str,
                     count|
     -> Result<GateResult, String> {
        let ceiling = num_field(text, key, file)?;
        let fresh = crate::experiments::repair::run_count(workload, count)
            .ok_or_else(|| format!("no workload {workload}"))?;
        Ok(GateResult::ceiling(key, file, ceiling, fresh as f64))
    };
    let (pr30, pr44) = ((pr30.as_str(), "BENCH_pr30.json"), (pr44.as_str(), "BENCH_pr44.json"));
    let pr46 = read_baseline(dir, "BENCH_pr46.json")?;
    let live_peak = |key: &'static str, workload: &str| -> Result<GateResult, String> {
        let ceiling = num_field(&pr46, key, "BENCH_pr46.json")?;
        let fresh = live_peak(workload).ok_or_else(|| format!("no workload {workload}"))?;
        Ok(GateResult::ceiling(key, "BENCH_pr46.json", ceiling, fresh as f64))
    };
    let pinned = |key: &'static str, fresh: u64| -> Result<GateResult, String> {
        let base = num_field(&pr26, key, "BENCH_pr26.json")?;
        Ok(GateResult::exact(key, "BENCH_pr26.json", base, fresh as f64))
    };
    Ok(RegressReport {
        gates: vec![
            run_count(pr30, "paper2d_kill_bytes", "paper2d_kill", bytes)?,
            run_count(pr30, "solve3d_kill_bytes", "solve3d_kill", bytes)?,
            run_count(pr30, "solve3d_kill_requests", "solve3d_kill", requests)?,
            run_count(pr44, "ranks1k_kill_requests", "ranks1k_kill", requests)?,
            live_peak("paper2d_kill_live_peak_bytes", "paper2d_kill")?,
            live_peak("solve3d_kill_live_peak_bytes", "solve3d_kill")?,
            pinned("robust_solve_requests_2d", repair.robust_2d)?,
            pinned("robust_solve_requests_3d", repair.robust_3d)?,
            pinned("errhandler_requests", repair.errhandler)?,
            GateResult::exact(
                "warm_inline_collective_requests",
                "BENCH_pr24.json",
                inline_base,
                warm.inline_rounds as f64,
            ),
            GateResult::exact(
                "warm_gather_view_requests",
                "BENCH_pr24.json",
                gather_base,
                warm.gather_rounds as f64,
            ),
            GateResult::exact(
                "paper_shape_agree_calls",
                "BENCH_pr22.json",
                agree_base,
                agree_fresh as f64,
            ),
            GateResult::exact(
                "paper_shape_t_reconstruct",
                "BENCH_pr22.json",
                reconstruct_base,
                reconstruct_fresh,
            ),
            GateResult::exact(
                "paper2d_kill_ac_makespan",
                "BENCH_pr29.json",
                makespan_base,
                makespan_fresh,
            ),
            GateResult::exact("ckpt_heavy_restore", "BENCH_pr35.json", restore_base, restore_fresh),
            GateResult::exact(
                "ckpt_heavy_makespan",
                "BENCH_pr35.json",
                ckpt_makespan_base,
                ckpt_makespan_fresh,
            ),
            cr3d,
            GateResult::ceiling(
                "ranks1k_stack_pages",
                "BENCH_pr39.json",
                pages_ceiling,
                pages as f64,
            ),
        ],
        tolerance: 0.0,
    })
}

/// Run every gate against the baselines committed in `dir`.
pub fn run(
    dir: &str,
    iters: usize,
    requests: fn() -> u64,
    bytes: fn() -> u64,
) -> Result<RegressReport, String> {
    let iters = iters.max(3);
    let exact = run_exact(dir, requests, bytes)?;

    let pr1 = read_baseline(dir, "BENCH_pr1.json")?;
    let step_base = num_field(&pr1, "level9_single_owner_step_speedup", "BENCH_pr1.json")?;
    let (naive_wall, fast_wall) = measure_step_walls(iters);
    let step_fresh = naive_wall / fast_wall;

    let pr3 = read_baseline(dir, "BENCH_pr3.json")?;
    let combine_base =
        num_field(&pr3, "combine_virtual_makespan_speedup_level9", "BENCH_pr3.json")?;
    let combine_fresh = combine_makespan(9, true) / combine_makespan(9, false);

    let pr8 = read_baseline(dir, "BENCH_pr8.json")?;
    let simd_base = num_field(&pr8, "level9_simd_speedup_vs_scalar", "BENCH_pr8.json")?;
    let simd_fresh = crate::experiments::kernel::measure_simd_step_speedup(iters);
    let step_wall_base = num_field(&pr8, "pr1_fast_double_buffered_median_ns", "BENCH_pr8.json")?;

    let pr17 = read_baseline(dir, "BENCH_pr17.json")?;
    let nd_base = num_field(&pr17, "nd_rows_speedup_vs_closure", "BENCH_pr17.json")?;
    let nd_fresh = crate::experiments::kernel::measure_3d_rows_speedup(iters);

    let pr18 = read_baseline(dir, "BENCH_pr18.json")?;
    let crc_floor = num_field(&pr18, "crc_ratio_required_min", "BENCH_pr18.json")?;
    let crc_fresh = crate::experiments::codec::measure_crc_ratio(iters);

    Ok(RegressReport {
        gates: vec![
            GateResult::new("level9_step_speedup", "BENCH_pr1.json", step_base, step_fresh, true),
            GateResult::new(
                "combine_tree_speedup_n9",
                "BENCH_pr3.json",
                combine_base,
                combine_fresh,
                true,
            ),
            GateResult::new("level9_simd_speedup", "BENCH_pr8.json", simd_base, simd_fresh, true),
            GateResult::new(
                "d2_level9_step_wall_ns",
                "BENCH_pr8.json",
                step_wall_base,
                fast_wall * 1e9,
                false,
            ),
            GateResult::new(
                "nd_rows_speedup_vs_closure",
                "BENCH_pr17.json",
                nd_base,
                nd_fresh,
                true,
            ),
            GateResult::floor(
                "crc_sliced_over_bytewise_ratio",
                "BENCH_pr18.json",
                crc_floor,
                crc_fresh,
            ),
        ]
        .into_iter()
        .chain(exact.gates)
        .collect(),
        tolerance: TOLERANCE,
    })
}

/// `expt regress`: `--dir` holds the committed baselines (default `.`,
/// the repo root); `--iters` sets the timed repetitions per wall-clock
/// measurement (default 30, median taken); `--exact` runs only the
/// deterministic gates (virtual clock, allocator counts and bytes,
/// resident stack pages), which CI blocks on. Exits 1 when a gate
/// regressed, 2 when a baseline cannot be read. The allocation gates read
/// the counting allocator the `expt` binary installs.
pub fn main(a: &Args) -> Result<i32, Usage> {
    let dir: String = a.get_or("--dir", ".".into())?;
    let iters = a.get_or("--iters", 30)?;
    let exact = a.has("--exact");
    let report = match if exact {
        run_exact(&dir, requests, bytes)
    } else {
        run(&dir, iters, requests, bytes)
    } {
        Ok(report) => report,
        Err(e) => {
            eprintln!("expt regress: {e}");
            return Ok(2);
        }
    };
    if exact {
        print!("{}", report.table().render());
    } else {
        report.table().emit(a.csv("regress.csv"));
    }
    if report.all_pass() {
        println!(
            "regression gate: PASS ({} gates within {:.0}%)",
            report.gates.len(),
            report.tolerance * 100.0
        );
        return Ok(0);
    }
    for g in report.gates.iter().filter(|g| !g.pass) {
        eprintln!(
            "regression gate: {} regressed beyond {:.0}%: baseline {:.4} vs fresh {:.4} ({})",
            g.name,
            report.tolerance * 100.0,
            g.baseline,
            g.fresh,
            g.source
        );
    }
    Ok(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_rule_is_directional() {
        // Speedup: 15% slip allowed, 16% is a regression, faster passes.
        assert!(passes(2.0, 1.71, true, 0.15));
        assert!(!passes(2.0, 1.69, true, 0.15));
        assert!(passes(2.0, 3.0, true, 0.15));
        // Wall: 15% growth allowed, more is a regression, faster passes.
        assert!(passes(10.0, 11.4, false, 0.15));
        assert!(!passes(10.0, 11.6, false, 0.15));
        assert!(passes(10.0, 5.0, false, 0.15));
        // A floor gate has no band: 2.0 holds, a hair under does not.
        assert!(GateResult::floor("f", "x.json", 2.0, 2.0).pass);
        assert!(GateResult::floor("f", "x.json", 2.0, 4.7).pass);
        assert!(!GateResult::floor("f", "x.json", 2.0, 1.99).pass);
        // Nor has a ceiling: at or under it holds, one byte over does not.
        assert!(GateResult::ceiling("c", "x.json", 100.0, 100.0).pass);
        assert!(GateResult::ceiling("c", "x.json", 100.0, 60.0).pass);
        assert!(!GateResult::ceiling("c", "x.json", 100.0, 101.0).pass);
        // An exact gate has no band either way.
        assert!(GateResult::exact("e", "x.json", 1.5, 1.5).pass);
        assert!(!GateResult::exact("e", "x.json", 1.5, 1.5 + f64::EPSILON).pass);
        assert!(!GateResult::exact("e", "x.json", 3.0, 2.0).pass);
        // Non-finite measurements never pass.
        assert!(!passes(f64::NAN, 1.0, true, 0.15));
        assert!(!passes(1.0, f64::INFINITY, false, 0.15));
    }

    #[test]
    fn report_table_flags_regressions() {
        let report = RegressReport {
            gates: vec![
                GateResult::new("a", "x.json", 2.0, 2.1, true),
                GateResult::new("b", "y.json", 10.0, 20.0, false),
            ],
            tolerance: TOLERANCE,
        };
        assert!(!report.all_pass());
        let rendered = report.table().render();
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("ok"));
    }
}
