//! The `--trace 1` run: the per-layer metrics, never taken from the timed
//! run. Three short series in one process — plain reps, reps with a large
//! simulator trace ring, reps of the failure-free twin — then the probes.
//! A layer's `est_s` is a count times a probed unit cost;
//! `host.residual_share` says how far the parts are from summing to the
//! whole.

use std::path::Path;
use std::time::Instant;

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, Technique};
use ulfm_sim::{write_chrome_trace, Report};

use crate::harness::{Budget, Harness, Kind, Series};
use crate::probes;
use crate::spans::{RepSpans, Spans};
use crate::stats;
use crate::workload::Shape;

/// Trace-ring capacity of the traced series: large enough that the ring
/// drops nothing on four of the five workloads (`mpi-sim.trace_dropped`
/// says what it did drop).
const TRACE_CAPACITY: usize = 1 << 20;

/// What the checkpoint schedule implies for a mid-run kill (all zero when
/// the technique has no periodic protection or the kill is at the end).
struct Schedule {
    /// Healthy checkpoint rounds: detection points before the last step,
    /// less the one that found the failure instead of writing.
    ckpt_rounds: u64,
    /// Steps the restored grid recomputes: detection point − checkpoint.
    recompute_steps: u64,
    /// Steps the broken group sat out between the kill and its detection.
    skipped_steps: u64,
}

fn schedule(cfg: &AppConfig, kill_step: u64) -> Schedule {
    let steps = cfg.steps();
    if cfg.technique != Technique::CheckpointRestart {
        return Schedule { ckpt_rounds: 0, recompute_steps: 0, skipped_steps: 0 };
    }
    let p = cfg.ckpt_period();
    let points = (1..).map(|k| k * p).take_while(|&s| s < steps).count() as u64;
    if kill_step >= steps {
        return Schedule { ckpt_rounds: points, recompute_steps: 0, skipped_steps: 0 };
    }
    let last_ckpt = kill_step / p * p;
    let detected = (last_ckpt + p).min(steps);
    Schedule {
        ckpt_rounds: points - u64::from(detected < steps),
        recompute_steps: detected - last_ckpt,
        skipped_steps: detected - kill_step,
    }
}

/// Fundamental-domain cells of every sub-grid, by grid id.
fn grid_cells(cfg: &AppConfig) -> Vec<usize> {
    let layout = cfg.technique.layout();
    if cfg.dim >= 3 {
        let sys = sparsegrid::GridSystemN::new(cfg.dim, cfg.n, cfg.l, layout);
        sys.grids().iter().map(|g| 1usize << g.level.iter().sum::<u32>()).collect()
    } else {
        let sys = sparsegrid::GridSystem::new(cfg.n, cfg.l, layout);
        sys.grids().iter().map(|g| 1usize << g.level.sum()).collect()
    }
}

/// Spares that ended the run in a grid slot: final ranks inside the layout
/// whose original rank lies beyond it (0 where the policy reports no map).
fn spares_promoted(report: &Report, shape: &Shape) -> usize {
    report.get_list(keys::RANK_ORIG).map_or(0, |orig| {
        orig.iter().take(shape.layout_world).filter(|&&r| r as usize >= shape.layout_world).count()
    })
}

/// `(count, virtual seconds)`, summed over ranks, of the named operations
/// in `MetricsReport::op_totals` (complete whatever the trace ring dropped).
fn op_sum(totals: &[(&'static str, u64, f64)], ops: &[&str]) -> (u64, f64) {
    totals
        .iter()
        .filter(|(op, _, _)| ops.contains(op))
        .fold((0, 0.0), |(n, t), &(_, dn, dt)| (n + dn, t + dt))
}

fn record(spans: &mut Spans, track: &'static str, series: &Series) -> Vec<RepSpans> {
    series.samples.iter().enumerate().map(|(k, s)| spans.rep(track, k, &s.stamps)).collect()
}

pub fn run(
    h: &mut Harness,
    started: Instant,
    deadline: Instant,
    smoke: bool,
    out: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut spans = Spans::new(started);
    let total = deadline.saturating_duration_since(started);
    // Shares of the budget: the rest is for the probes.
    let until = |share: f64| {
        if smoke {
            Budget::Reps(2)
        } else {
            Budget::Until(started + total.mul_f64(share))
        }
    };
    let trials = if smoke { 1 } else { 5 };
    let cfg = h.w.config();
    let shape = h.w.shape();
    let name = h.w.name;

    // ---- the series.
    let cold = h.rep(Kind::Twin, None);
    let cold_setup = spans.rep("reference", 0, &cold.stamps).setup;
    drop(cold);
    let mut fp_samples = Vec::new();
    let plain = h.series(Kind::Kill, None, until(0.45), true, || {
        fp_samples.push(probes::fp_loop());
    });
    let traced = h.series(Kind::Kill, Some(TRACE_CAPACITY), until(0.65), true, || {});
    let twin = h.series(Kind::Twin, None, until(0.85), false, || {});
    let plain_spans = record(&mut spans, "plain", &plain);
    record(&mut spans, "traced", &traced);
    record(&mut spans, "twin", &twin);
    let report = plain.last.as_ref().ok_or("the plain series ran no rep")?;
    let traced_report = traced.last.as_ref().ok_or("the traced series ran no rep")?;

    let wall = plain.solve_s();
    let wall_min = stats::min(&wall);
    // The fastest plain rep: its spans tile `call → return`.
    let fastest = (0..wall.len())
        .min_by(|&a, &b| wall[a].total_cmp(&wall[b]))
        .map(|k| &plain_spans[k])
        .expect("the plain series has reps");
    let eprint_series = |label: &str, s: &Series| {
        eprintln!("{name}: {label} solve wall [s] {}", stats::summary(&s.solve_s()));
    };
    eprint_series("plain ", &plain);
    eprint_series("traced", &traced);
    eprint_series("twin  ", &twin);

    // ---- the probes.
    let kernel = probes::kernel(&cfg, &mut spans, trials);
    let mpi = probes::mpi(shape.launch_world, kernel.longest_halo, &mut spans, trials);
    let sparse = probes::sparse(&cfg, h.w.victim_grids, &mut spans, trials);
    let ckpt = if cfg.technique == Technique::CheckpointRestart {
        Some(probes::checkpoint(&cfg, out, &mut spans, trials)?)
    } else {
        None
    };

    // ---- counts, measured by the simulator or computed from the shapes.
    let steps = cfg.steps();
    let sched = schedule(&cfg, h.w.kill_step());
    let cells = grid_cells(&cfg);
    let victim_cells: usize = h.w.victim_grids.iter().map(|&g| cells[g]).sum();
    let cell_updates = kernel.cells_per_step as f64 * steps as f64
        + victim_cells as f64 * (sched.recompute_steps as f64 - sched.skipped_steps as f64);
    let msgs = report.metrics.total_messages() as f64;
    let totals = report.metrics.op_totals();
    let ops: u64 = totals.iter().map(|t| t.1).sum();
    let (reductions, _) = op_sum(&totals, &["reduce"]);
    let (p2p_ops, _) = op_sum(&totals, &["send", "recv", "isend"]);
    let kills = h.plan.n_failures();
    let respawned = report.procs_created - shape.launch_world;
    let phase = |name: &str| report.timelines.iter().map(|tl| tl.phase(name)).sum::<f64>();

    // ---- a layer's estimate: its count times its probed unit cost. The
    // initial launch is set-up, before the wall window opens.
    let halo_msgs = (kernel.halo_msgs_per_step as f64 * steps as f64).min(msgs);
    let world = shape.launch_world as f64;
    let mpi_est = halo_msgs * mpi.p2p_halo
        + (msgs - halo_msgs) * mpi.p2p_small
        + (ops - p2p_ops - reductions) as f64 * mpi.barrier / world
        + reductions as f64 * mpi.allreduce / world
        + respawned as f64 * mpi.launch_per_rank;
    let advect_est = cell_updates * kernel.s_per_cell;
    // Every Alternate-Combination rank solves the coefficient problem in
    // its recovery and again in the final combination.
    let robust_solves =
        if cfg.technique == Technique::AlternateCombination { 2.0 * world } else { 0.0 };
    let sparse_est = sparse.combine + sparse.recover_sample + sparse.robust_coeffs * robust_solves;
    let ckpt_est = ckpt.as_ref().map_or(0.0, |c| {
        sched.ckpt_rounds as f64 * c.write + kills as f64 * c.read_valid / c.n_grids as f64
    });
    let residual = 1.0 - (mpi_est + advect_est + sparse_est + ckpt_est) / wall_min;
    eprintln!(
        "{name}: shares of wall_min {wall_min:.4} s: advect2d {:.3} mpi-sim {:.3} sparsegrid {:.3} \
         ckpt {:.3} residual {residual:.3}",
        advect_est / wall_min,
        mpi_est / wall_min,
        sparse_est / wall_min,
        ckpt_est / wall_min,
    );

    // ---- the artifacts: host spans and the simulator's virtual trace.
    let io = |e: std::io::Error| format!("{}: {e}", out.display());
    spans.write(&out.join(format!("{name}.trace.json"))).map_err(io)?;
    write_chrome_trace(traced_report, out.join(format!("{name}.virt.trace.json"))).map_err(io)?;

    let mb = |bytes: f64| bytes / 1e6;
    let ckpt_rate = |bytes: usize, secs: f64| mb(bytes as f64) / secs;
    Ok(vec![
        ("mpi-sim.msgs", msgs),
        ("mpi-sim.bytes_mb", mb(report.metrics.total_bytes() as f64)),
        ("mpi-sim.ops", ops as f64),
        ("mpi-sim.recv_retries", report.metrics.total_retries() as f64),
        ("mpi-sim.failures_observed", report.metrics.total_failures_observed() as f64),
        ("mpi-sim.trace_dropped", traced_report.trace_dropped as f64),
        ("mpi-sim.comm_hidden_share", report.hidden_comm_fraction()),
        ("mpi-sim.io_hidden_share", report.hidden_io_fraction()),
        ("mpi-sim.virt_agree_s", op_sum(&totals, &["agree", "intercomm_agree"]).1),
        ("mpi-sim.virt_shrink_s", op_sum(&totals, &["shrink"]).1),
        ("mpi-sim.virt_spawn_s", op_sum(&totals, &["spawn_multiple"]).1),
        ("mpi-sim.virt_merge_s", op_sum(&totals, &["intercomm_merge"]).1),
        ("mpi-sim.launch_us_per_rank", mpi.launch_per_rank * 1e6),
        ("mpi-sim.p2p_small_ns", mpi.p2p_small * 1e9),
        ("mpi-sim.p2p_halo_ns", mpi.p2p_halo * 1e9),
        ("mpi-sim.barrier_us", mpi.barrier * 1e6),
        ("mpi-sim.allreduce_us", mpi.allreduce * 1e6),
        ("mpi-sim.est_s", mpi_est),
        ("advect2d.cell_updates", cell_updates),
        ("advect2d.step_ns_per_cell", kernel.s_per_cell * 1e9),
        ("advect2d.bytes_per_cell", kernel.bytes_per_cell),
        ("advect2d.isa_lanes", kernel.lanes as f64),
        ("advect2d.est_s", advect_est),
        ("sparsegrid.combine_ms", sparse.combine * 1e3),
        ("sparsegrid.recover_sample_ms", sparse.recover_sample * 1e3),
        ("sparsegrid.robust_coeffs_us", sparse.robust_coeffs * 1e6),
        ("sparsegrid.est_s", sparse_est),
        ("core.halo_msgs_per_step", kernel.halo_msgs_per_step as f64),
        ("core.halo_bytes_per_step", kernel.halo_bytes_per_step as f64),
        ("core.span_setup_s", fastest.setup),
        ("core.span_epoch_p50_s", stats::median(&fastest.epochs)),
        ("core.span_tail_s", fastest.tail),
        (
            "core.ckpt_encode_mb_s",
            ckpt.as_ref().map_or(0.0, |c| ckpt_rate(c.bytes_per_round, c.encode)),
        ),
        ("core.ckpt_crc_mb_s", ckpt.as_ref().map_or(0.0, |c| ckpt_rate(c.bytes_per_round, c.crc))),
        ("core.ckpt_write_ms", ckpt.as_ref().map_or(0.0, |c| c.write * 1e3)),
        ("core.ckpt_read_valid_ms", ckpt.as_ref().map_or(0.0, |c| c.read_valid * 1e3)),
        (
            "core.ckpt_writes",
            ckpt.as_ref().map_or(0.0, |c| (sched.ckpt_rounds as usize * c.n_grids) as f64),
        ),
        (
            "core.ckpt_bytes_mb",
            ckpt.as_ref()
                .map_or(0.0, |c| mb((sched.ckpt_rounds as usize * c.bytes_per_round) as f64)),
        ),
        ("core.ckpt_skipped", report.get_f64(keys::CKPT_SKIPPED).unwrap_or(0.0)),
        ("core.ckpt_est_s", ckpt_est),
        ("core.virt_detect_s", phase("detect")),
        ("core.virt_ack_s", phase("ack")),
        ("core.virt_revoke_shrink_s", phase("revoke_shrink")),
        ("core.virt_failed_list_s", phase("failed_list")),
        ("core.virt_spawn_s", phase("spawn")),
        ("core.virt_merge_s", phase("merge")),
        ("core.virt_agree_s", phase("agree")),
        ("core.virt_rank_reorder_s", phase("rank_reorder")),
        ("core.virt_data_restore_s", phase("data_restore")),
        ("core.virt_other_s", phase("other")),
        ("core.recoveries", report.timelines.len() as f64),
        ("core.recompute_steps", sched.recompute_steps as f64),
        ("core.spares_promoted", spares_promoted(report, &shape) as f64),
        ("core.span_recover_excess_s", wall_min - stats::min(&twin.solve_s())),
        ("host.wall_min_s", wall_min),
        ("host.wall_p50_s", stats::median(&wall)),
        ("host.wall_p90_s", stats::quantile(&wall, 0.9)),
        ("host.setup_p50_s", stats::median(&plain.setup_s())),
        ("host.cold_setup_s", cold_setup),
        ("host.reps", wall.len() as f64),
        ("host.fp_noise", stats::median(&fp_samples) / stats::quantile(&fp_samples, 0.1)),
        ("host.trace_overhead_share", stats::min(&traced.solve_s()) / wall_min - 1.0),
        ("host.residual_share", residual),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn the_checkpoint_schedule_of_the_mid_run_kill() {
        let w = workload::find("ckpt_heavy").unwrap();
        let s = schedule(&w.config(), w.kill_step());
        // 256 steps at period 15: points 15, 30, …, 255; the kill at 131 is
        // found at 135, which restores the checkpoint of step 120.
        assert_eq!((s.ckpt_rounds, s.recompute_steps, s.skipped_steps), (16, 15, 4));
        // Nothing to recompute when nobody dies before the last step …
        let end = schedule(&w.config(), w.config().steps());
        assert_eq!((end.ckpt_rounds, end.recompute_steps, end.skipped_steps), (17, 0, 0));
        // … nor when the technique keeps no checkpoints.
        let ac = workload::find("paper2d_kill").unwrap();
        assert_eq!(schedule(&ac.config(), ac.kill_step()).ckpt_rounds, 0);
    }

    #[test]
    fn cells_follow_the_grid_levels() {
        let w = workload::find("paper2d_kill").unwrap();
        let cells = grid_cells(&w.config());
        assert_eq!(cells.len(), 10);
        assert_eq!(cells[0], 1 << 17); // diagonal: i + j = 2n - l + 1
        assert_eq!(cells[4], 1 << 16); // lower diagonal
        let w3 = workload::find("solve3d_kill").unwrap();
        assert_eq!(grid_cells(&w3.config())[0], 1 << 15); // |l| = n + 2m
    }
}
