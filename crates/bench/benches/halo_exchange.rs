//! Cost of the per-timestep halo exchange: boundary pack/unpack, the
//! wire encode/decode path, and the end-to-end distributed step.
//!
//! The seed formulation `collect()`ed four fresh boundary vectors per
//! rank per step and round-tripped every payload through freshly
//! allocated buffers; the optimized path packs into reused scratch,
//! encodes with the bulk little-endian fast path into pooled buffers,
//! and decodes straight into a reused receive vector.

use advect2d::AdvectionProblem;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ftsg_core::layout::GroupInfo;
use ftsg_core::psolve::DistributedSolver;
use sparsegrid::{ensure_len, LevelPair};
use ulfm_sim::datatype::{decode, decode_into, encode, encode_into};
use ulfm_sim::{run, BufPool, RunConfig};

/// Boundary pack/unpack over a level-9 block padded buffer: the seed's
/// four per-step `collect()`s against reused scratch vectors.
fn bench_pack_unpack(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_pack");
    let (lnx, lny) = (256usize, 256usize); // level-9 grid split 2×2
    let pnx = lnx + 2;
    let padded: Vec<f64> = (0..pnx * (lny + 2)).map(|k| (k as f64).cos()).collect();
    g.throughput(Throughput::Elements((2 * lnx + 2 * (lny + 2)) as u64));

    g.bench_function(BenchmarkId::new("seed_collect", "256x256"), |b| {
        b.iter(|| {
            // Verbatim shape of the seed's halo_exchange packing.
            let top: Vec<f64> = (0..lnx).map(|k| padded[lny * pnx + k + 1]).collect();
            let bottom: Vec<f64> = (0..lnx).map(|k| padded[pnx + k + 1]).collect();
            let right: Vec<f64> = (0..lny + 2).map(|m| padded[m * pnx + lnx]).collect();
            let left: Vec<f64> = (0..lny + 2).map(|m| padded[m * pnx + 1]).collect();
            (top.len(), bottom.len(), right.len(), left.len())
        })
    });

    let mut buf: Vec<f64> = Vec::new();
    g.bench_function(BenchmarkId::new("reused_scratch", "256x256"), |b| {
        b.iter(|| {
            // Optimized shape: rows are contiguous slices (no pack at
            // all); columns strided-copy into one reused buffer.
            let top = &padded[lny * pnx + 1..][..lnx];
            let bottom = &padded[pnx + 1..][..lnx];
            let mut sum = top[0] + bottom[0];
            ensure_len(&mut buf, lny + 2);
            for m in 0..lny + 2 {
                buf[m] = padded[m * pnx + lnx];
            }
            sum += buf[0];
            for m in 0..lny + 2 {
                buf[m] = padded[m * pnx + 1];
            }
            sum + buf[0]
        })
    });
    g.finish();
}

/// The wire path one halo message takes: typed slice → bytes → typed
/// vector. Seed: fresh buffer per encode, fresh `Vec` per decode.
/// Optimized: the owned pooled buffer `send` moves into the envelope and
/// `recv_into` recycles (no allocator request once warm), bulk memcpy
/// both ways, reused receive vector.
fn bench_wire_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_wire");
    let boundary: Vec<f64> = (0..258).map(|k| (k as f64).sin()).collect();
    g.throughput(Throughput::Bytes((boundary.len() * 8) as u64));

    g.bench_function(BenchmarkId::new("seed_alloc_per_msg", "258"), |b| {
        b.iter(|| {
            let payload = encode(&boundary);
            let back: Vec<f64> = decode(&payload).unwrap();
            back.len()
        })
    });

    let pool = BufPool::default();
    let mut back: Vec<f64> = Vec::new();
    g.bench_function(BenchmarkId::new("pooled_reused", "258"), |b| {
        b.iter(|| {
            let mut payload = pool.take(boundary.len() * 8);
            encode_into(&boundary, &mut payload);
            decode_into(&payload, &mut back).unwrap();
            pool.recycle(payload);
            back.len()
        })
    });
    g.finish();
}

/// End-to-end: a 2×2 group stepping a level-9 sub-grid over the
/// simulated runtime — halo exchange (pack, send, match, decode, unpack)
/// plus the stencil, amortized per burst of 8 steps.
fn bench_distributed_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("halo_exchange");
    g.sample_size(10);
    let p = AdvectionProblem::standard();
    let lev = LevelPair::new(9, 9);
    g.bench_function(BenchmarkId::new("steps_x8_2x2", "9x9"), |b| {
        b.iter(|| {
            let report = run(RunConfig::local(4), move |ctx| {
                let world = ctx.initial_world().unwrap();
                let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
                let mut s = DistributedSolver::new(p, lev, 1e-4, &info, world.rank());
                for _ in 0..8 {
                    s.step(ctx, &world).unwrap();
                }
            });
            report.assert_no_app_errors();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pack_unpack, bench_wire_path, bench_distributed_step);
criterion_main!(benches);
