//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for the gated ones — bound. `../BENCHMARK.json` is
//! [`spec`]'s output, byte for byte (a unit test keeps the two in step);
//! README.md says what each metric measures.

use crate::workload::WORKLOADS;

/// One metric's declaration.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// a change may worsen the metric before it counts as a regression.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: None }
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: Some(bound) }
}

/// How long one run measures, seconds (`--seconds` of the driver).
pub const RUN_SECONDS: u32 = 24;

/// The gated end-to-end metrics (`--trace 0`), all lower-is-better. `vsec`
/// is a second of the simulated cluster's clock: computed by the cost
/// model, not timed, hence exact. No wall-clock quantity but the mandatory
/// `setup_s` is gated; README.md, "Host noise", says why.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", 0.25),
    gated("peak_rss_mb", "MB", 0.15),
    gated("heap_allocs", "count/rep", 0.03),
    gated("heap_alloc_mb", "MB/rep", 0.02),
    gated("virt_makespan", "vsec", 1e-6),
    gated("virt_repair", "vsec", 1e-6),
    gated("virt_restore", "vsec", 1e-6),
    gated("err_l1", "1", 1e-6),
];

/// The per-layer metrics (`--trace 1`), grouped by layer prefix.
pub const PER_LAYER: &[MetricDef] = &[
    // mpi-sim: counts the simulator keeps, whatever the trace ring drops.
    lower("mpi-sim.msgs", "count"),
    lower("mpi-sim.bytes_mb", "MB"),
    lower("mpi-sim.ops", "count"),
    lower("mpi-sim.recv_retries", "count"),
    lower("mpi-sim.failures_observed", "count"),
    lower("mpi-sim.trace_dropped", "count"),
    higher("mpi-sim.comm_hidden_share", "1"),
    higher("mpi-sim.io_hidden_share", "1"),
    lower("mpi-sim.virt_agree_s", "vsec"),
    lower("mpi-sim.virt_shrink_s", "vsec"),
    lower("mpi-sim.virt_spawn_s", "vsec"),
    lower("mpi-sim.virt_merge_s", "vsec"),
    // mpi-sim: probed unit costs at the workload's world size.
    lower("mpi-sim.launch_us_per_rank", "us/rank"),
    lower("mpi-sim.p2p_small_ns", "ns"),
    lower("mpi-sim.p2p_halo_ns", "ns"),
    lower("mpi-sim.barrier_us", "us"),
    lower("mpi-sim.allreduce_us", "us"),
    lower("mpi-sim.est_s", "s"),
    // advect2d: the stencil kernels.
    lower("advect2d.cell_updates", "count"),
    lower("advect2d.step_ns_per_cell", "ns/cell"),
    lower("advect2d.bytes_per_cell", "B/cell"),
    higher("advect2d.isa_lanes", "lanes"),
    lower("advect2d.est_s", "s"),
    // sparsegrid: combination and the sample-based recoveries.
    lower("sparsegrid.combine_ms", "ms"),
    lower("sparsegrid.recover_sample_ms", "ms"),
    lower("sparsegrid.robust_coeffs_us", "us"),
    lower("sparsegrid.est_s", "s"),
    // core: distributed solve and gather.
    lower("core.halo_msgs_per_step", "msgs/step"),
    lower("core.halo_bytes_per_step", "B/step"),
    lower("core.span_setup_s", "s"),
    lower("core.span_epoch_p50_s", "s"),
    lower("core.span_tail_s", "s"),
    // core: checkpoint codec and store.
    higher("core.ckpt_encode_mb_s", "MB/s"),
    higher("core.ckpt_crc_mb_s", "MB/s"),
    lower("core.ckpt_write_ms", "ms"),
    lower("core.ckpt_read_valid_ms", "ms"),
    lower("core.ckpt_writes", "count"),
    lower("core.ckpt_bytes_mb", "MB"),
    lower("core.ckpt_skipped", "count"),
    lower("core.ckpt_est_s", "s"),
    // core: reconstruction and recovery, rank 0's timeline phases.
    lower("core.virt_detect_s", "vsec"),
    lower("core.virt_ack_s", "vsec"),
    lower("core.virt_revoke_shrink_s", "vsec"),
    lower("core.virt_failed_list_s", "vsec"),
    lower("core.virt_spawn_s", "vsec"),
    lower("core.virt_merge_s", "vsec"),
    lower("core.virt_agree_s", "vsec"),
    lower("core.virt_rank_reorder_s", "vsec"),
    lower("core.virt_data_restore_s", "vsec"),
    lower("core.virt_other_s", "vsec"),
    lower("core.recoveries", "count"),
    lower("core.recompute_steps", "steps"),
    lower("core.spares_promoted", "count"),
    lower("core.span_recover_excess_s", "s"),
    // host: wall-clock of this machine, advisory.
    lower("host.wall_min_s", "s"),
    lower("host.wall_p50_s", "s"),
    lower("host.wall_p90_s", "s"),
    lower("host.setup_p50_s", "s"),
    lower("host.cold_setup_s", "s"),
    higher("host.reps", "count"),
    lower("host.fp_noise", "1"),
    lower("host.trace_overhead_share", "1"),
    lower("host.residual_share", "1"),
];

/// The text of `../BENCHMARK.json`.
pub fn spec() -> String {
    let better = |d: &MetricDef| if d.higher_is_better { "higher" } else { "lower" };
    let rows = |items: Vec<String>| items.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_spec() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            spec(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --spec`"
        );
        assert_eq!((END_TO_END.len(), PER_LAYER.len()), (8, 63));
    }

    #[test]
    fn setup_carries_the_largest_bound_and_no_bound_exceeds_the_cap() {
        let bound = |d: &MetricDef| d.bound.unwrap();
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| bound(d) <= bound(setup) && bound(d) <= 0.25));
        assert!(END_TO_END.iter().all(|d| !d.higher_is_better));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }
}
