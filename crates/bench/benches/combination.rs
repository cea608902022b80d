//! Real-time performance of the sparse grid machinery: coefficient
//! computation (classical and robust) and combination evaluation.

use advect2d::AdvectionProblem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftsg_core::gather::{gather_grid_into, scatter_grid_into};
use ftsg_core::layout::GroupInfo;
use ftsg_core::psolve::{block_range, DistributedSolver};
use sparsegrid::{
    combine_onto, gcp_coefficients, robust_coefficients, CombinationTerm, Grid2, GridSystem,
    Layout, LevelPair,
};
use ulfm_sim::{run, RunConfig};

/// Seed formulation of the gather–scatter grid marshalling: per-element
/// `at`/`at_mut` indexing (each with its own bounds check and 2-D index
/// arithmetic), kept here as the baseline the in-place
/// `scatter_grid_into`/`gather_grid_into` round trip is measured against.
mod seed {
    use super::*;

    pub fn split_grid(grid: &Grid2, info: &GroupInfo) -> Vec<Vec<f64>> {
        let level = grid.level();
        let nxg = 1usize << level.i;
        let nyg = 1usize << level.j;
        let mut out = Vec::with_capacity(info.size);
        for local in 0..info.size {
            let pi = local % info.px;
            let pj = local / info.px;
            let (x0, lnx) = block_range(nxg, info.px, pi);
            let (y0, lny) = block_range(nyg, info.py, pj);
            let mut block = Vec::with_capacity(lnx * lny);
            for m in 0..lny {
                for k in 0..lnx {
                    block.push(grid.at(x0 + k, y0 + m));
                }
            }
            out.push(block);
        }
        out
    }

    pub fn assemble_grid(level: LevelPair, info: &GroupInfo, blocks: &[Vec<f64>]) -> Grid2 {
        let nxg = 1usize << level.i;
        let nyg = 1usize << level.j;
        let mut grid = Grid2::zeros(level);
        for (local, block) in blocks.iter().enumerate() {
            let pi = local % info.px;
            let pj = local / info.px;
            let (x0, lnx) = block_range(nxg, info.px, pi);
            let (y0, lny) = block_range(nyg, info.py, pj);
            for m in 0..lny {
                for k in 0..lnx {
                    *grid.at_mut(x0 + k, y0 + m) = block[m * lnx + k];
                }
            }
        }
        for m in 0..nyg {
            let v = grid.at(0, m);
            *grid.at_mut(nxg, m) = v;
        }
        for k in 0..=nxg {
            let v = grid.at(k, 0);
            *grid.at_mut(k, nyg) = v;
        }
        grid
    }
}

/// The gather–scatter marshalling round trip on a level-9 grid with a
/// 2×2 group: split into member blocks, assemble back into a full grid.
/// The seed case marshals in one thread; the in-place case is the path
/// the application runs — the root scatters its grid straight into the
/// four solvers' padded rows and gathers them back into the same grid —
/// over the simulated runtime, launch included, 8 round trips per run.
fn bench_gather_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather_scatter");
    let level = LevelPair::new(9, 9);
    let grid = Grid2::from_fn(level, |x, y| (x * 3.0).sin() * (y * 2.0).cos());
    let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
    g.throughput(Throughput::Elements((2 * (1usize << 9) * (1usize << 9)) as u64));

    g.bench_function(BenchmarkId::new("seed_per_element", "n9_2x2"), |b| {
        b.iter(|| {
            let blocks = seed::split_grid(&grid, &info);
            seed::assemble_grid(level, &info, &blocks)
        })
    });

    g.sample_size(10);
    g.throughput(Throughput::Elements((8 * 2 * (1usize << 9) * (1usize << 9)) as u64));
    g.bench_function(BenchmarkId::new("in_place_x8", "n9_2x2"), |b| {
        b.iter(|| {
            let grid = grid.clone();
            let report = run(RunConfig::local(4), move |ctx| {
                let w = ctx.initial_world().unwrap();
                let p = AdvectionProblem::standard();
                let mut solver = DistributedSolver::new(p, level, 1e-4, &info, w.rank());
                let mut root = (w.rank() == 0).then(|| grid.clone());
                for _ in 0..8 {
                    scatter_grid_into(ctx, &w, &info, root.as_ref(), &mut solver).unwrap();
                    gather_grid_into(ctx, &w, &info, level, &solver, root.as_mut()).unwrap();
                }
            });
            report.assert_no_app_errors();
        })
    });
    g.finish();
}

fn bench_coefficients(c: &mut Criterion) {
    let mut g = c.benchmark_group("coefficients");
    for &(n, l) in &[(9u32, 4u32), (13, 4), (16, 6)] {
        let sys = GridSystem::new(n, l, Layout::ExtraLayers);
        let downset = sys.classical_downset();
        g.bench_with_input(
            BenchmarkId::new("gcp_classical", format!("n{n}_l{l}")),
            &downset,
            |b, ds| b.iter(|| gcp_coefficients(ds)),
        );
        // Robust recomputation after losing a middle diagonal grid.
        let lost = vec![LevelPair::new(n - l + 2, n - 1)];
        let avail = sys.available_levels();
        g.bench_function(BenchmarkId::new("robust_one_loss", format!("n{n}_l{l}")), |b| {
            b.iter(|| robust_coefficients(&downset, &lost, &avail))
        });
    }
    g.finish();
}

fn bench_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("combine_onto");
    for &n in &[7u32, 9] {
        let l = 4;
        let sys = GridSystem::new(n, l, Layout::Plain);
        let grids: Vec<(f64, Grid2)> = sys
            .grids()
            .iter()
            .map(|sg| {
                (
                    sys.classical_coefficient(sg.id) as f64,
                    Grid2::from_fn(sg.level, |x, y| (x * 3.0).sin() * (y * 2.0).cos()),
                )
            })
            .collect();
        let terms: Vec<CombinationTerm> =
            grids.iter().map(|(c, gr)| CombinationTerm { coeff: *c, grid: gr }).collect();
        let target = sys.min_level();
        g.throughput(Throughput::Elements((terms.len() * target.points()) as u64));
        g.bench_function(BenchmarkId::new("injection_target", format!("n{n}")), |b| {
            b.iter(|| combine_onto(target, &terms))
        });
        // Interpolating target (finer than some components).
        let fine = LevelPair::new(n, n);
        g.bench_function(BenchmarkId::new("interpolating_target", format!("n{n}")), |b| {
            b.iter(|| combine_onto(fine, &terms))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_coefficients, bench_combine, bench_gather_scatter);
criterion_main!(benches);
