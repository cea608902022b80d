//! Real-time throughput of the Lax–Wendroff stencil (cells/second), the
//! hot loop of every solve — plus the allocation discipline check: the
//! whole bench binary runs under a counting global allocator, and the
//! steady-state stepping loop is asserted to allocate *nothing*.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use advect2d::laxwendroff::{lax_wendroff_kernel, lax_wendroff_row, lax_wendroff_step, LwCoef};
use advect2d::{
    lax_wendroff_row_simd, AdvectionProblem, BandPool, KernelConfig, KernelKind, LocalSolver,
    PaddedField, PaddedFieldN, ProblemN, StencilN,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftsg_core::gather::{assemble_grid, split_grid};
use ftsg_core::layout_nd::GroupInfoN;
use sparsegrid::{
    combine_onto_into, combine_onto_into_nd, gcp_coefficients, CombinationTerm, CombinationTermN,
    Grid2, GridN, GridSystem, Layout as GridLayout, LevelPair,
};
use ulfm_sim::{MetricsCell, TraceEvent, TraceRing};

/// A pass-through allocator that counts calls to `alloc`/`realloc`. The
/// counter is how the bench proves "allocation-free": warm code paths
/// are run between two reads of [`alloc_count`], and the delta must be
/// zero.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn bench_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("lw_kernel");
    let p = AdvectionProblem::standard();
    for &(i, j) in &[(6u32, 6u32), (8, 8), (6, 10)] {
        let nx = 1usize << i;
        let ny = 1usize << j;
        let coef = LwCoef::new(&p, 1.0 / nx as f64, 1.0 / ny as f64, 1e-4);
        let padded: Vec<f64> = (0..(nx + 2) * (ny + 2)).map(|k| (k as f64).sin()).collect();
        let mut out = vec![0.0; nx * ny];
        g.throughput(Throughput::Elements((nx * ny) as u64));
        g.bench_function(BenchmarkId::new("cells", format!("{i}x{j}")), |b| {
            b.iter(|| lax_wendroff_kernel(&padded, nx, ny, &coef, &mut out))
        });
    }
    g.finish();
}

/// The acceptance benchmark: one steady-state timestep of the level-9
/// single-owner solve, seed formulation (rebuild the whole padded copy,
/// run the kernel into a scratch grid, copy back) against the
/// double-buffered formulation (refresh the halo ring, step, swap).
fn bench_level9_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("level9_step");
    let p = AdvectionProblem::standard();
    let lev = LevelPair::new(9, 9);
    let n = 1usize << 9;
    let coef = LwCoef::new(&p, 1.0 / n as f64, 1.0 / n as f64, 1e-4);
    g.throughput(Throughput::Elements((n * n) as u64));

    // Seed formulation. `lax_wendroff_step` is the kept-as-reference
    // implementation: per step it refills the entire (n+2)² padded copy
    // from the grid (periodic rem_euclid indexing included) and copies
    // the kernel output back node by node.
    let mut grid = Grid2::from_fn(lev, p.initial());
    let (mut padded, mut out) = (Vec::new(), Vec::new());
    g.bench_function(BenchmarkId::new("seed_naive", "9x9"), |b| {
        b.iter(|| lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out))
    });

    // Double-buffered formulation: the per-step work of `LocalSolver` /
    // `DistributedSolver` in steady state — O(perimeter) halo refresh,
    // row-slice kernel into the other buffer, pointer swap.
    let mut field = PaddedField::from_grid(&Grid2::from_fn(lev, p.initial()));
    g.bench_function(BenchmarkId::new("fast_double_buffered", "9x9"), |b| {
        b.iter(|| {
            field.refresh_periodic_halo();
            field.step(|s, c2, n2, out| lax_wendroff_row(s, c2, n2, &coef, out));
        })
    });

    // Same stepping discipline, vectorized rows (bitwise-identical; see
    // advect2d::simd and the equivalence suites).
    let mut field = PaddedField::from_grid(&Grid2::from_fn(lev, p.initial()));
    g.bench_function(BenchmarkId::new("fast_simd", "9x9"), |b| {
        b.iter(|| {
            field.refresh_periodic_halo();
            field.step(|s, c2, n2, out| lax_wendroff_row_simd(s, c2, n2, &coef, out));
        })
    });

    // Vectorized rows + the intra-rank row-band pool (2 bands). Only a
    // speedup on multi-core hosts; benchmarked honestly either way.
    let mut field = PaddedField::from_grid(&Grid2::from_fn(lev, p.initial()));
    let pool = BandPool::global();
    g.bench_function(BenchmarkId::new("fast_simd_bands", "9x9"), |b| {
        b.iter(|| {
            field.refresh_periodic_halo();
            field.step_banded(pool, 2, |s, c2, n2, out| {
                lax_wendroff_row_simd(s, c2, n2, &coef, out)
            });
        })
    });
    g.finish();
}

fn bench_local_solver(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_solver");
    g.sample_size(20);
    let p = AdvectionProblem::standard();
    for &lev in &[6u32, 8] {
        g.bench_function(BenchmarkId::new("steps_x16", lev), |b| {
            b.iter_with_setup(
                || LocalSolver::new(p, LevelPair::new(lev, lev), 1e-4),
                |mut s| {
                    s.run(16);
                    s
                },
            )
        });
    }
    g.finish();
}

/// Not a timing benchmark: assert the steady-state stepping loop is
/// allocation-free. Construction allocates (buffers, coefficients);
/// after one warm-up run, further stepping must not touch the allocator
/// at all.
fn assert_alloc_free(_c: &mut Criterion) {
    // First, while this is the only thread: the counter is process-wide.
    assert_nd_alloc_discipline();

    let p = AdvectionProblem::standard();
    let mut s = LocalSolver::new(p, LevelPair::new(8, 8), 1e-4);
    s.run(2); // warm-up: pays any one-time setup
    let before = alloc_count();
    s.run(64);
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "LocalSolver::run allocated {} times over 64 steady-state steps",
        after - before
    );

    // The same discipline must hold with the vectorized kernel and the
    // band pool active: the pool is created once (warm-up pays for the
    // worker threads), and every subsequent banded dispatch reuses it
    // without touching the allocator.
    let mut s = LocalSolver::new(p, LevelPair::new(8, 8), 1e-4)
        .with_kernel(KernelConfig::simd().with_bands(2).with_band_min_cells(1));
    s.run(2); // warm-up: creates the global BandPool on first banded step
    let before = alloc_count();
    s.run(64);
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "banded LocalSolver::run allocated {} times over 64 steady-state steps",
        after - before
    );

    // The naive reference with reused scratch is also steady-state
    // allocation-free once the scratch vectors are warm.
    let mut grid = Grid2::from_fn(LevelPair::new(8, 8), p.initial());
    let coef = LwCoef::new(&p, 1.0 / 256.0, 1.0 / 256.0, 1e-4);
    let (mut padded, mut out) = (Vec::new(), Vec::new());
    lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out);
    let before = alloc_count();
    for _ in 0..64 {
        lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out);
    }
    let after = alloc_count();
    assert_eq!(after - before, 0, "naive step with warm scratch allocated {}", after - before);

    // A full combine round over warm storage must also be allocation-free:
    // each term is re-materialized into its preallocated partial
    // (`combine_onto_into`), then the partials are merged with the
    // binomial-tree association via in-place `axpy` — the same
    // materialize + pairwise-merge work every leader performs per round
    // in the distributed tree combination.
    let sys = GridSystem::new(6, 3, GridLayout::Plain);
    let coeffs = gcp_coefficients(&sys.classical_downset());
    let grids: Vec<(f64, Grid2)> = coeffs
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(&lv, &c)| (c as f64, Grid2::from_fn(lv, |x, y| (5.0 * x).sin() + 2.0 * y)))
        .collect();
    let target = sys.min_level();
    let mut parts: Vec<Grid2> = grids.iter().map(|_| Grid2::zeros(target)).collect();
    let combine_round = |parts: &mut Vec<Grid2>| {
        for ((c, g), part) in grids.iter().zip(parts.iter_mut()) {
            combine_onto_into(part, &[CombinationTerm { coeff: *c, grid: g }]);
        }
        let mut stride = 1;
        while stride < parts.len() {
            let mut i = 0;
            while i + stride < parts.len() {
                let (head, tail) = parts.split_at_mut(i + stride);
                head[i].axpy(1.0, &tail[0]);
                i += 2 * stride;
            }
            stride *= 2;
        }
    };
    combine_round(&mut parts); // warm-up
    let before = alloc_count();
    for _ in 0..8 {
        combine_round(&mut parts);
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "combine round over warm partials allocated {} times",
        after - before
    );
    assert!(parts[0].values().iter().all(|v| v.is_finite()));

    // Default-on tracing must stay steady-state allocation-free: the ring
    // buffer preallocates its capacity up front and overwrites in place
    // once full, and the per-rank metrics are plain `Cell` counters.
    let mut ring = TraceRing::new(1024);
    let cell = MetricsCell::new();
    let ev = |k: usize| TraceEvent {
        proc: 1,
        host: 0,
        op: "send",
        cat: "mpi",
        cid: 0,
        t_start: k as f64 * 1e-6,
        t_end: k as f64 * 1e-6 + 5e-7,
        bytes: 64,
    };
    // Warm-up: fill past capacity so the ring is in overwrite mode.
    for k in 0..2048 {
        ring.push(ev(k));
    }
    let before = alloc_count();
    for k in 0..4096 {
        ring.push(ev(k));
        cell.note_op("send", 5e-7);
        cell.note_sent(64);
        cell.note_recvd(64);
        cell.note_recv_retry();
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "default-on tracing allocated {} times over 4096 warm events",
        after - before
    );
    assert_eq!(ring.len(), 1024);
    assert_eq!(ring.dropped(), 2048 + 4096 - 1024);

    println!("alloc_discipline: 0 allocations over 192 steps (incl. banded) + 8 combine rounds + 4096 trace events + 200 nd steps; nd combine and assemble size-independent ... ok");
}

/// The d-dimensional stack's share of the discipline: a step allocates
/// nothing, and what the grid walks allocate is per call — it must not
/// grow with the number of nodes walked.
fn assert_nd_alloc_discipline() {
    // 100 steady-state steps — transverse wrap, row kernel over every
    // plane, commit — at a 3D slab shape (128 × 16 cells, 3 planes), for
    // each row formulation.
    let problem = ProblemN::standard_advection(3);
    let (np, shape) = ([128usize, 16, 16], [128usize, 16, 3]);
    let mut field = PaddedFieldN::new(&shape);
    let stencil = StencilN::for_slab(&problem, &field, 5, &np, 1e-4);
    for (k, v) in field.padded_mut().iter_mut().enumerate() {
        *v = (k as f64 * 0.01).sin();
    }
    for kind in KernelKind::all() {
        let step = |field: &mut PaddedFieldN| {
            field.wrap_transverse_halo();
            field.step_rows(0, shape[2], |cur, off, out| stencil.row(kind, cur, off, out));
            field.commit_step();
        };
        step(&mut field); // warm-up: resolves the SIMD backend once
        let before = alloc_count();
        for _ in 0..100 {
            step(&mut field);
        }
        let after = alloc_count();
        assert_eq!(
            after - before,
            0,
            "nd {} row step allocated {} times over 100 steady-state steps",
            kind.label(),
            after - before
        );
    }
    assert!(field.padded().iter().all(|v| v.is_finite()));

    // `combine_onto_into_nd` into a warm `out` on a non-dominated target
    // (both terms are coarser on one axis and finer on another): per-call
    // tables are allowed, per-node requests are not — so a target with 18×
    // the nodes must make exactly as many requests.
    let terms: Vec<GridN> = [[2u32, 6, 3], [7, 2, 5]]
        .iter()
        .map(|lv| GridN::from_fn(lv, |x| (3.0 * x[0]).sin() + x[1] * x[2]))
        .collect();
    let refs: Vec<CombinationTermN> =
        terms.iter().map(|g| CombinationTermN { coeff: 1.0, grid: g }).collect();
    let combine_requests = |level: &[u32]| {
        let mut out = GridN::zeros(level);
        combine_onto_into_nd(&mut out, &refs); // warm-up
        let before = alloc_count();
        combine_onto_into_nd(&mut out, &refs);
        alloc_count() - before
    };
    let (small, large) = (combine_requests(&[4, 4, 4]), combine_requests(&[6, 5, 4]));
    assert_eq!(small, large, "nd combine requests grew with the target: {small} vs {large}");

    // `assemble_grid` over three slabs: the request count must not
    // depend on the plane size (4 × 4 vs 32 × 16 nodes per plane).
    let info = GroupInfoN { grid: 0, first: 0, size: 3 };
    let assemble_requests = |level: Vec<u32>| {
        let blocks = split_grid(&GridN::from_fn(&level, |x| x[0] - x[1] + x[2]), &info);
        let before = alloc_count();
        let grid = assemble_grid(&level, &info, &blocks).expect("well-formed blocks");
        let requests = alloc_count() - before;
        assert_eq!(grid.level(), level);
        requests
    };
    let (small, large) = (assemble_requests(vec![2, 2, 3]), assemble_requests(vec![5, 4, 3]));
    assert_eq!(small, large, "assemble_grid requests grew with the plane: {small} vs {large}");
}

criterion_group!(benches, assert_alloc_free, bench_kernel, bench_level9_step, bench_local_solver);
criterion_main!(benches);
