//! Wall-clock benches for the PR 3 surfaces: the overlapped halo
//! stepper against the blocking reference, and the combination under
//! both associations — the central master's left fold and the
//! binomial-tree pairing (serial, and distributed over a simulated
//! group of leaders). Virtual-makespan acceptance numbers come from the
//! `expt overlap` binary; these benches pin the real-time cost of the
//! same code paths so regressions show up in `cargo bench`.

use std::sync::Arc;

use advect2d::AdvectionProblem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftsg_core::gather::binomial_combine;
use ftsg_core::layout::GroupInfo;
use ftsg_core::psolve::DistributedSolver;
use sparsegrid::{
    combine_binomial, combine_onto, gcp_coefficients, CombinationTerm, Grid2, GridSystem, Layout,
    LevelPair,
};
use ulfm_sim::{run, RunConfig};

/// The classical level-set terms of the (n, l = 4) system, materialized
/// once outside the timed region.
fn classical_terms(n: u32) -> (LevelPair, Vec<(f64, Grid2)>) {
    let sys = GridSystem::new(n, 4, Layout::Plain);
    let coeffs = gcp_coefficients(&sys.classical_downset());
    let terms = coeffs
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(&lv, &c)| (c as f64, Grid2::from_fn(lv, |x, y| (4.7 * x).sin() * (2.9 * y).cos())))
        .collect();
    (sys.min_level(), terms)
}

/// Serial combination associations at levels 7–11: the left fold is the
/// central master's entire workload; the binomial tree is the same
/// arithmetic under the pairing the distributed reduction uses.
fn bench_combine_association(c: &mut Criterion) {
    let mut g = c.benchmark_group("combine_assoc");
    g.sample_size(10);
    for n in 7u32..=11 {
        let (target, data) = classical_terms(n);
        let terms: Vec<CombinationTerm> =
            data.iter().map(|(cf, gr)| CombinationTerm { coeff: *cf, grid: gr }).collect();
        g.throughput(Throughput::Elements((data.len() * target.points()) as u64));
        g.bench_function(BenchmarkId::new("left_fold", n), |b| {
            b.iter(|| combine_onto(target, &terms))
        });
        g.bench_function(BenchmarkId::new("binomial_tree", n), |b| {
            b.iter(|| combine_binomial(target, &terms))
        });
    }
    g.finish();
}

/// The distributed tree combination end to end: one simulated rank per
/// group leader, each materializing its term and reducing over the
/// binomial tree (isend/irecv hops, in-place merge at every receiver).
fn bench_distributed_tree_combine(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_combine");
    g.sample_size(10);
    for n in [9u32, 11] {
        let (target, data) = classical_terms(n);
        let world = data.len();
        let data = Arc::new(data);
        g.throughput(Throughput::Elements((world * target.points()) as u64));
        g.bench_function(BenchmarkId::new("distributed", n), |b| {
            b.iter(|| {
                let td = Arc::clone(&data);
                let report = run(RunConfig::local(world), move |ctx| {
                    let w = ctx.initial_world().unwrap();
                    let (cf, grid) = &td[w.rank()];
                    let term = CombinationTerm { coeff: *cf, grid };
                    let part = combine_onto(target, std::slice::from_ref(&term));
                    let leaders: Vec<usize> = (0..w.size()).collect();
                    let mut scratch = Vec::new();
                    binomial_combine(ctx, &w, &leaders, 0, &target, Some(part), &mut scratch, 7)
                        .unwrap();
                });
                report.assert_no_app_errors();
            })
        });
    }
    g.finish();
}

/// Overlapped vs blocking halo stepper, 2×2 group, bursts of 8 steps.
/// Both run over the simulated runtime, so the delta here is scheduling
/// overhead (request bookkeeping vs rendezvous), not the virtual-time
/// overlap win — that is `expt overlap`'s job to measure.
fn bench_overlapped_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("overlap_step");
    g.sample_size(10);
    let p = AdvectionProblem::standard();
    for n in [7u32, 9] {
        let lev = LevelPair::new(n, n);
        for (name, blocking) in [("overlapped", false), ("blocking", true)] {
            g.bench_function(BenchmarkId::new(name, n), |b| {
                b.iter(|| {
                    let report = run(RunConfig::local(4), move |ctx| {
                        let w = ctx.initial_world().unwrap();
                        let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
                        let mut s = DistributedSolver::new(p, lev, 1e-4, &info, w.rank());
                        for _ in 0..8 {
                            if blocking {
                                s.step_blocking(ctx, &w).unwrap();
                            } else {
                                s.step(ctx, &w).unwrap();
                            }
                        }
                    });
                    report.assert_no_app_errors();
                })
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_combine_association,
    bench_distributed_tree_combine,
    bench_overlapped_step
);
criterion_main!(benches);
