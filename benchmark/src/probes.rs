//! Probes: a layer's public functions, called at exactly the shapes the
//! workload uses — one field per rank at its block shape, swept in rank
//! order, so the working set is the workload's. Every probe keeps the
//! fastest of its trials; every call is a span of the host trace.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use advect2d::laxwendroff::LwCoef;
use advect2d::{
    lw_row_fn, upwind_diffusion_kernel, KernelConfig, PaddedField, PaddedFieldN, TimeGrid,
    TimeGridN, UpwindDiffusionCoefN,
};
use ftsg_core::psolve::block_range;
use ftsg_core::{AppConfig, CheckpointStore, ProcLayout, ProcLayoutN, Technique};
use sparsegrid::{
    combine_binomial, combine_binomial_nd, combine_onto, combine_onto_nd, robust_coefficients,
    robust_coefficients_nd, CombinationTerm, CombinationTermN, Grid2, GridN, GridSystem,
    GridSystemN, LevelSet, LevelSetN,
};
use ulfm_sim::{ClusterProfile, Comm, Ctx, RunConfig};

use crate::rep::WORKERS;
use crate::spans::Spans;

/// Fastest of `trials` calls of `f`, each recorded as a span.
fn best(spans: &mut Spans, name: &str, trials: usize, mut f: impl FnMut() -> Option<f64>) -> f64 {
    (0..trials).map(|t| spans.probe(name, t, &mut f)).fold(f64::INFINITY, f64::min)
}

// ---------------------------------------------------------------- kernels

/// What the stencil layer does per step at the workload's block shapes.
pub struct KernelProbe {
    /// Interior cells of all ranks' blocks: one sweep updates each once.
    pub cells_per_step: usize,
    /// Seconds per cell update, fastest sweep.
    pub s_per_cell: f64,
    /// Computed, not measured: padded bytes read plus interior bytes
    /// written per cell update, caches ignored.
    pub bytes_per_cell: f64,
    /// Halo messages all ranks post per step (computed from the shapes).
    pub halo_msgs_per_step: usize,
    /// Their payload, bytes.
    pub halo_bytes_per_step: usize,
    /// The longest single halo message, in `f64`s.
    pub longest_halo: usize,
    /// `f64` lanes of the row kernels (1 for the scalar nd closures).
    pub lanes: usize,
}

/// Sweeps per trial: enough cell updates that the clock's grain is nothing.
fn sweeps_for(cells: usize) -> usize {
    (4_000_000 / cells.max(1)).clamp(2, 64)
}

/// `PaddedField::step` with the configured Lax–Wendroff row kernel over
/// every rank's block of the 2D layout.
fn kernel_2d(cfg: &AppConfig, spans: &mut Spans, trials: usize) -> KernelProbe {
    let lay = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let dt = TimeGrid::for_system(&cfg.problem, cfg.n, cfg.steps(), 0.4).dt;
    let ic = cfg.problem.initial();
    let mut fields: Vec<(PaddedField, LwCoef)> = Vec::new();
    let (mut halo_f64, mut longest) = (0usize, 0usize);
    for info in lay.groups() {
        let level = lay.system().grid(info.grid).level;
        let (nx, ny) = (1usize << level.i, 1usize << level.j);
        let coef = LwCoef::new(&cfg.problem, 1.0 / nx as f64, 1.0 / ny as f64, dt);
        for local in 0..info.size {
            let (x0, lnx) = block_range(nx, info.px, local % info.px);
            let (y0, lny) = block_range(ny, info.py, local / info.px);
            let mut field = PaddedField::new(lnx, lny);
            let pnx = field.pnx();
            for m in 0..lny {
                for k in 0..lnx {
                    field.padded_mut()[(m + 1) * pnx + k + 1] =
                        ic((x0 + k) as f64 / nx as f64, (y0 + m) as f64 / ny as f64);
                }
            }
            // Two rows of `lnx`, two columns of the full padded height.
            halo_f64 += 2 * lnx + 2 * (lny + 2);
            longest = longest.max(lnx).max(lny + 2);
            fields.push((field, coef));
        }
    }
    let cells: usize = fields.iter().map(|(f, _)| f.nx() * f.ny()).sum();
    let padded: usize = fields.iter().map(|(f, _)| f.padded().len()).sum();
    let row = lw_row_fn(KernelConfig::global().kind);
    let sweeps = sweeps_for(cells);
    let secs = best(spans, "advect2d.step", trials, || {
        for _ in 0..sweeps {
            for (field, coef) in &mut fields {
                field.refresh_periodic_halo();
                field.step(|s, c, n, out| row(s, c, n, coef, out));
            }
        }
        black_box(&fields);
        None
    });
    KernelProbe {
        cells_per_step: cells,
        s_per_cell: secs / (sweeps * cells) as f64,
        bytes_per_cell: 8.0 * (padded + cells) as f64 / cells as f64,
        halo_msgs_per_step: 4 * fields.len(),
        halo_bytes_per_step: 8 * halo_f64,
        longest_halo: longest,
        lanes: match advect2d::simd_isa_label() {
            "avx512" => 8,
            _ => 4,
        },
    }
}

/// `PaddedFieldN::step_with(upwind_diffusion_kernel)` over every rank's
/// slab of the d-dimensional layout.
fn kernel_nd(cfg: &AppConfig, spans: &mut Spans, trials: usize) -> KernelProbe {
    let lay = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let problem = cfg.resolved_problem_nd();
    let dt = TimeGridN::for_system(&problem, cfg.n, cfg.steps(), 0.4).dt;
    let d = cfg.dim;
    type Kernel = Box<dyn Fn(&[f64], usize) -> f64>;
    let mut fields: Vec<(PaddedFieldN, Kernel)> = Vec::new();
    let (mut halo_f64, mut longest) = (0usize, 0usize);
    for info in lay.groups() {
        let level = &lay.system().grid(info.grid).level;
        let np: Vec<usize> = level.iter().map(|&l| 1usize << l).collect();
        let h: Vec<f64> = np.iter().map(|&n| 1.0 / n as f64).collect();
        for local in 0..info.size {
            let (_, lnz) = block_range(np[d - 1], info.size, local);
            let mut shape = np.clone();
            shape[d - 1] = lnz;
            let mut field = PaddedFieldN::new(&shape);
            // Any smooth bounded data does: the kernel's cost is not data-dependent.
            for (k, v) in field.padded_mut().iter_mut().enumerate() {
                *v = (k as f64 * 0.01).sin();
            }
            let coef = UpwindDiffusionCoefN::new(&problem, &h, dt);
            let kernel = upwind_diffusion_kernel(coef, field.pstrides().to_vec());
            halo_f64 += 2 * field.plane_len();
            longest = longest.max(field.plane_len());
            fields.push((field, Box::new(kernel)));
        }
    }
    let cells: usize = fields.iter().map(|(f, _)| f.shape().iter().product::<usize>()).sum();
    let padded: usize = fields.iter().map(|(f, _)| f.padded().len()).sum();
    let sweeps = sweeps_for(cells);
    let secs = best(spans, "advect2d.step_nd", trials, || {
        for _ in 0..sweeps {
            for (field, kernel) in &mut fields {
                field.wrap_transverse_halo();
                field.step_with(&**kernel);
            }
        }
        black_box(&fields);
        None
    });
    KernelProbe {
        cells_per_step: cells,
        s_per_cell: secs / (sweeps * cells) as f64,
        bytes_per_cell: 8.0 * (padded + cells) as f64 / cells as f64,
        halo_msgs_per_step: 2 * fields.len(),
        halo_bytes_per_step: 8 * halo_f64,
        longest_halo: longest,
        lanes: 1,
    }
}

/// The stencil probe of the workload's stack (2D rows or nd closures).
pub fn kernel(cfg: &AppConfig, spans: &mut Spans, trials: usize) -> KernelProbe {
    if cfg.dim >= 3 {
        kernel_nd(cfg, spans, trials)
    } else {
        kernel_2d(cfg, spans, trials)
    }
}

// ---------------------------------------------------------------- mpi-sim

/// Unit costs of the simulator at the workload's world size, seconds.
pub struct MpiProbe {
    /// `run` with an empty body, per rank: fiber launch, retire, report.
    pub launch_per_rank: f64,
    /// One `sendrecv_into` of 8 bytes round a 4-rank ring, per rank.
    pub p2p_small: f64,
    /// The same at the workload's longest halo message.
    pub p2p_halo: f64,
    /// One world-wide barrier (all ranks).
    pub barrier: f64,
    /// One world-wide `allreduce_sum` of an `f64` (all ranks).
    pub allreduce: f64,
}

/// Run `body` on `world` simulated ranks; rank 0 times `iters` rounds of
/// it between two barriers. Seconds per round.
fn timed_rounds(
    world: usize,
    iters: usize,
    body: impl Fn(&Ctx, &Comm, &mut Vec<f64>) + Send + Sync + 'static,
) -> Option<f64> {
    let elapsed = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&elapsed);
    let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_workers(WORKERS);
    let report = ulfm_sim::run(rc, move |ctx| {
        let comm = ctx.initial_world().expect("original ranks have a world");
        // Each rank's receive buffer, reused across rounds.
        let mut scratch = Vec::new();
        comm.barrier(ctx).expect("nobody fails in a probe");
        let t0 = Instant::now();
        for _ in 0..iters {
            body(ctx, &comm, &mut scratch);
        }
        comm.barrier(ctx).expect("nobody fails in a probe");
        if comm.rank() == 0 {
            *sink.lock().expect("probe lock") = Some(t0.elapsed().as_secs_f64() / iters as f64);
        }
    });
    report.assert_no_app_errors();
    let secs = *elapsed.lock().expect("probe lock");
    secs
}

fn ring(len: usize, iters: usize) -> Option<f64> {
    const RING: usize = 4;
    let data = vec![1.0f64; len];
    timed_rounds(RING, iters, move |ctx, comm, buf| {
        let (r, p) = (comm.rank(), comm.size());
        comm.sendrecv_into(ctx, (r + 1) % p, 7, &data, (r + p - 1) % p, 7, buf)
            .expect("nobody fails in a probe");
    })
    .map(|round| round / RING as f64)
}

pub fn mpi(world: usize, longest_halo: usize, spans: &mut Spans, trials: usize) -> MpiProbe {
    let launch = best(spans, "mpi-sim.launch", trials, || {
        let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_workers(WORKERS);
        black_box(ulfm_sim::run(rc, |_ctx| {}));
        None
    });
    // Fewer rounds on big worlds: a round is `world` rank-operations.
    let rounds = (20_000 / world).clamp(4, 200);
    MpiProbe {
        launch_per_rank: launch / world as f64,
        p2p_small: best(spans, "mpi-sim.p2p_small", trials, || ring(1, 2000)),
        p2p_halo: best(spans, "mpi-sim.p2p_halo", trials, || ring(longest_halo, 2000)),
        barrier: best(spans, "mpi-sim.barrier", trials, || {
            timed_rounds(world, rounds, |ctx, comm, _| {
                comm.barrier(ctx).expect("nobody fails in a probe");
            })
        }),
        allreduce: best(spans, "mpi-sim.allreduce", trials, || {
            timed_rounds(world, rounds, |ctx, comm, _| {
                black_box(comm.allreduce_sum(ctx, 1.0f64).expect("nobody fails in a probe"));
            })
        }),
    }
}

// ------------------------------------------------------------- sparsegrid

/// The combination layer at the workload's grid system, seconds.
pub struct SparseProbe {
    /// The final combination's term list onto `min_level`, binomial order.
    pub combine: f64,
    /// The sample-based data recovery of the lost grids: AC combines the
    /// survivors onto each lost level, RC copies or resamples; 0 under CR.
    pub recover_sample: f64,
    /// One robust-coefficient solve for the lost set (AC only, else 0).
    pub robust_coeffs: f64,
}

fn sparse_2d(cfg: &AppConfig, lost: &[usize], spans: &mut Spans, trials: usize) -> SparseProbe {
    let sys = GridSystem::new(cfg.n, cfg.l, cfg.technique.layout());
    let ic = cfg.problem.initial();
    let grids: Vec<Grid2> = sys.grids().iter().map(|g| Grid2::from_fn(g.level, &ic)).collect();
    let lost_levels: Vec<_> = lost.iter().map(|&b| sys.grid(b).level).collect();
    let surviving: LevelSet =
        sys.grids().iter().filter(|g| !lost.contains(&g.id)).map(|g| g.level).collect();
    let robust = || robust_coefficients(&sys.classical_downset(), &lost_levels, &surviving);

    // The term list the run's final combination uses.
    let ac = cfg.technique == Technique::AlternateCombination;
    let terms: Vec<CombinationTerm> = if ac {
        let cmap = robust();
        sys.grids()
            .iter()
            .filter(|g| !lost.contains(&g.id))
            .filter_map(|g| match cmap.get(&g.level) {
                Some(&c) if c != 0 => Some(CombinationTerm { coeff: c as f64, grid: &grids[g.id] }),
                _ => None,
            })
            .collect()
    } else {
        sys.combination_ids()
            .into_iter()
            .map(|i| CombinationTerm {
                coeff: sys.classical_coefficient(i) as f64,
                grid: &grids[i],
            })
            .collect()
    };
    let combine = best(spans, "sparsegrid.combine", trials, || {
        black_box(combine_binomial(sys.min_level(), &terms));
        None
    });
    let recover_sample = match cfg.technique {
        Technique::AlternateCombination => best(spans, "sparsegrid.recover_ac", trials, || {
            for level in &lost_levels {
                black_box(combine_onto(*level, &terms));
            }
            None
        }),
        Technique::ResamplingCopying => best(spans, "sparsegrid.recover_rc", trials, || {
            use sparsegrid::scheme::RcSource;
            for &b in lost {
                black_box(match sys.rc_source(b).expect("RC victims have a source") {
                    RcSource::Copy(s) => grids[s].clone(),
                    RcSource::Resample(s) => grids[s].restrict_to(sys.grid(b).level),
                });
            }
            None
        }),
        _ => 0.0,
    };
    let robust_coeffs = if ac {
        best(spans, "sparsegrid.robust_coeffs", trials, || {
            black_box(robust());
            None
        })
    } else {
        0.0
    };
    SparseProbe { combine, recover_sample, robust_coeffs }
}

fn sparse_nd(cfg: &AppConfig, lost: &[usize], spans: &mut Spans, trials: usize) -> SparseProbe {
    assert!(
        cfg.technique == Technique::AlternateCombination,
        "the nd workload recovers by alternate combination"
    );
    let sys = GridSystemN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout());
    let problem = cfg.resolved_problem_nd();
    let grids: Vec<GridN> =
        sys.grids().iter().map(|g| GridN::from_fn(&g.level, |x| problem.initial(x))).collect();
    let lost_levels: Vec<_> = lost.iter().map(|&b| sys.grid(b).level.clone()).collect();
    let mut surviving = LevelSetN::new(sys.dim());
    for g in sys.grids().iter().filter(|g| !lost.contains(&g.id)) {
        surviving.insert(g.level.clone());
    }
    let robust = || robust_coefficients_nd(&sys.classical_downset(), &lost_levels, &surviving);
    let cmap = robust();
    let terms: Vec<CombinationTermN> = sys
        .grids()
        .iter()
        .filter(|g| !lost.contains(&g.id))
        .filter_map(|g| match cmap.get(&g.level) {
            Some(&c) if c != 0 => Some(CombinationTermN { coeff: c as f64, grid: &grids[g.id] }),
            _ => None,
        })
        .collect();
    SparseProbe {
        combine: best(spans, "sparsegrid.combine_nd", trials, || {
            black_box(combine_binomial_nd(&sys.min_level(), &terms));
            None
        }),
        recover_sample: best(spans, "sparsegrid.recover_ac_nd", trials, || {
            for level in &lost_levels {
                black_box(combine_onto_nd(level, &terms));
            }
            None
        }),
        robust_coeffs: best(spans, "sparsegrid.robust_coeffs_nd", trials, || {
            black_box(robust());
            None
        }),
    }
}

/// The combination probe of the workload's stack; `lost` are the grids the
/// fault plan breaks.
pub fn sparse(cfg: &AppConfig, lost: &[usize], spans: &mut Spans, trials: usize) -> SparseProbe {
    if cfg.dim >= 3 {
        sparse_nd(cfg, lost, spans, trials)
    } else {
        sparse_2d(cfg, lost, spans, trials)
    }
}

// ------------------------------------------------------------- checkpoint

/// The checkpoint codec and store over every sub-grid of the system.
pub struct CkptProbe {
    /// Encoded bytes of one checkpoint of every sub-grid.
    pub bytes_per_round: usize,
    pub n_grids: usize,
    /// `CheckpointStore::encode` of every sub-grid, seconds.
    pub encode: f64,
    /// `crc64` over the same bytes, seconds.
    pub crc: f64,
    /// `write` (encode, CRC, file, fsync, rename, directory fsync, prune)
    /// of every sub-grid, seconds.
    pub write: f64,
    /// `read_latest_valid` (list, read, CRC, decode) of every sub-grid.
    pub read_valid: f64,
}

/// Only Checkpoint/Restart on the 2D stack writes checkpoints here.
pub fn checkpoint(
    cfg: &AppConfig,
    scratch: &Path,
    spans: &mut Spans,
    trials: usize,
) -> Result<CkptProbe, String> {
    assert!(cfg.dim == 2, "the checkpoint probe covers the 2D (v2) format");
    let sys = GridSystem::new(cfg.n, cfg.l, cfg.technique.layout());
    let ic = cfg.problem.initial();
    let grids: Vec<Grid2> = sys.grids().iter().map(|g| Grid2::from_fn(g.level, &ic)).collect();
    let encoded: Vec<Vec<u8>> =
        grids.iter().map(|g| CheckpointStore::encode(0, g.level(), g.values())).collect();
    let dir = scratch.join("ckpt-probe");
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let store = CheckpointStore::new(&dir).map_err(io)?;

    let encode = best(spans, "core.ckpt_encode", trials, || {
        for g in &grids {
            black_box(CheckpointStore::encode(0, g.level(), g.values()));
        }
        None
    });
    let crc = best(spans, "core.ckpt_crc", trials, || {
        for raw in &encoded {
            black_box(ftsg_core::checkpoint::crc64(raw));
        }
        None
    });
    let mut failure = None;
    let mut step = 0u64;
    let write = best(spans, "core.ckpt_write", trials, || {
        step += 1;
        for (id, g) in grids.iter().enumerate() {
            if let Err(e) = store.write(id, step, g) {
                failure = Some(e);
            }
        }
        None
    });
    let read_valid = best(spans, "core.ckpt_read_valid", trials, || {
        for id in 0..grids.len() {
            match store.read_latest_valid(id) {
                Ok((Some(_), 0)) => {}
                Ok(_) => panic!("the probe's own checkpoint of grid {id} is gone or corrupt"),
                Err(e) => failure = Some(e),
            }
        }
        None
    });
    store.clear().map_err(io)?;
    let _ = std::fs::remove_dir(&dir);
    if let Some(e) = failure {
        return Err(io(e));
    }
    Ok(CkptProbe {
        bytes_per_round: encoded.iter().map(Vec::len).sum(),
        n_grids: grids.len(),
        encode,
        crc,
        write,
        read_valid,
    })
}

// ------------------------------------------------------------------- host

/// A fixed dependent multiply-add chain of about 20 ms on this class of
/// machine; its run-to-run spread is `host.fp_noise`. Seconds.
pub fn fp_loop() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(1.0f64);
    for _ in 0..5_000_000 {
        x = x * 1.000_000_1 + 1e-9;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}
