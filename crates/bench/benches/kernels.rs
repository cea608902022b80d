//! Per-kernel throughput: the scalar reference Lax–Wendroff row vs the
//! vectorized row, plus the full-field step. The scalar row is the
//! bitwise-pinned reference; this bench is where the SIMD speedup is
//! measured in isolation from halo/stepping overhead (the d-dimensional
//! rows are timed per backend by `expt kernel`'s 3D section).

use advect2d::{lax_wendroff_row, lax_wendroff_row_simd, simd_isa_label, LwCoef, PaddedField};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

/// Three padded stencil rows plus an output row, deterministically
/// filled — the inputs every row kernel consumes.
fn rows(nx: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let f = |k: usize, phase: f64| ((k as f64) * 0.37 + phase).sin();
    let s: Vec<f64> = (0..nx + 2).map(|k| f(k, 0.0)).collect();
    let c: Vec<f64> = (0..nx + 2).map(|k| f(k, 1.0)).collect();
    let n: Vec<f64> = (0..nx + 2).map(|k| f(k, 2.0)).collect();
    (s, c, n, vec![0.0; nx])
}

fn bench_rows(c: &mut Criterion) {
    let lw = LwCoef { cx: 0.2, cy: 0.15, cxx: 0.02, cyy: 0.01, cxy: 0.015 };

    let mut g = c.benchmark_group(format!("row_kernels_{}", simd_isa_label()));
    for &nx in &[64usize, 512, 4096] {
        let (s, cc, n, mut out) = rows(nx);
        g.throughput(Throughput::Elements(nx as u64));
        g.bench_function(BenchmarkId::new("lw_scalar", nx), |b| {
            b.iter(|| lax_wendroff_row(&s, &cc, &n, &lw, &mut out))
        });
        g.bench_function(BenchmarkId::new("lw_simd", nx), |b| {
            b.iter(|| lax_wendroff_row_simd(&s, &cc, &n, &lw, &mut out))
        });
    }
    g.finish();
}

/// Full-field Lax–Wendroff step (level 8): scalar and SIMD rows.
/// Steady-state discipline: halo refresh + row kernels + buffer swap.
fn bench_field_step(c: &mut Criterion) {
    let lw = LwCoef { cx: 0.2, cy: 0.15, cxx: 0.02, cyy: 0.01, cxy: 0.015 };
    let n = 1usize << 8;
    let mut g = c.benchmark_group("field_step");
    g.throughput(Throughput::Elements((n * n) as u64));

    let mut field = PaddedField::new(n, n);
    for (k, v) in field.padded_mut().iter_mut().enumerate() {
        *v = ((k as f64) * 0.11).sin();
    }
    for (label, simd) in [("scalar", false), ("simd", true)] {
        g.bench_function(BenchmarkId::new(label, format!("{n}x{n}")), |b| {
            b.iter(|| {
                field.refresh_periodic_halo();
                field.step(|s, c2, n2, out| {
                    if simd {
                        lax_wendroff_row_simd(s, c2, n2, &lw, out)
                    } else {
                        lax_wendroff_row(s, c2, n2, &lw, out)
                    }
                });
            })
        });
    }
    g.finish();
}

criterion_group!(kernels, bench_rows, bench_field_step);
criterion_main!(kernels);
