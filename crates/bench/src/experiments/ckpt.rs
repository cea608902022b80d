//! `expt ckpt` — synchronous vs asynchronous checkpointing A/B on the
//! paper's two clusters (OPL: T_IO ≈ 3.52 s per checkpoint write; Raijin:
//! T_IO ≈ 0.03 s), in **virtual seconds** from the runtime's cost models.
//!
//! Both arms run the identical Checkpoint/Restart application at emulated
//! paper scale; the only difference is whether the write sits on the
//! critical path (`--sync-ckpt` behavior) or is handed to the
//! asynchronous stage and charged as deferred I/O that compute can cover
//! (the root still writes the file itself, once that write starts on the
//! virtual clock). The run
//! reports how much checkpoint I/O the overlap hid (`io_hidden` vs
//! `io_exposed`), and re-derives Eq. 2's optimal checkpoint count `C =
//! (t_app / 2) / T_IO` from the *measured exposed* time per write — with
//! the write off the critical path the effective `T_IO` collapses and the
//! optimum moves to "checkpoint every period".
//!
//! A third arm kills a rank mid-run to prove the recovery drain barrier:
//! the restart must produce the bitwise-identical combined solution.
//! The A/B prints its table and asserts; it writes no record (its
//! committed `BENCH_pr5.json` is history that no gate reads).
//!
//! Then the **codec section** ([`crate::experiments::codec`]): sliced
//! vs bytewise CRC-64 throughput, `write` / `read_latest_valid` per round
//! and the allocator bytes a write round requests, at the `ckpt_heavy`
//! grid set — wall-clock and counts of the layer the A/B above prices in
//! virtual seconds. Emits `BENCH_pr18.json` under `--out` and
//! `results/ckpt_codec.csv`. It asserts bitwise agreement only, never a
//! timing, so the CI step stays deterministic; `expt regress` holds the
//! CRC ratio to its floor.

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, ProcLayout, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan, Report};

use crate::cli::{Args, Usage};
use crate::experiments::{alloc_sites, codec};
use crate::runner::{emulate_paper_scale, launch_on, ModelKind};
use crate::table::utc_today;

const N: u32 = 7;
const LOG2_STEPS: u32 = 5;
const CHECKPOINTS: u32 = 3; // period 8 → writes at steps 8, 16, 24
const SEED: u64 = 2014;

/// What one A/B arm measured.
struct Outcome {
    makespan: f64,
    err: f64,
    io_hidden: f64,
    io_exposed: f64,
    t_ckpt: f64,
}

fn outcome(report: &Report) -> Outcome {
    let g = |k: &str| report.get_f64(k).unwrap_or(f64::NAN);
    Outcome {
        makespan: report.makespan,
        err: g(keys::ERR_L1),
        io_hidden: report.io_hidden,
        io_exposed: report.io_exposed,
        t_ckpt: g(keys::T_CKPT),
    }
}

fn cr_run(profile: &ClusterProfile, sync: bool, plan: FaultPlan) -> Outcome {
    let mut cfg = AppConfig::paper_shaped(Technique::CheckpointRestart, N, 1, LOG2_STEPS)
        .with_checkpoints(CHECKPOINTS)
        .with_plan(plan);
    if sync {
        cfg = cfg.with_sync_checkpoints();
    }
    let profile = emulate_paper_scale(profile.clone(), N, LOG2_STEPS);
    let report = launch_on(profile, ModelKind::Beta, cfg, SEED);
    outcome(&report)
}

fn hidden_frac(o: &Outcome) -> f64 {
    let total = o.io_hidden + o.io_exposed;
    if total > 0.0 {
        o.io_hidden / total
    } else {
        0.0
    }
}

/// `expt ckpt`: the A/B, then the codec section, whose write rounds' bytes
/// the counting allocator of the `expt` binary counts.
pub fn main(a: &Args) -> Result<i32, Usage> {
    let layout = ProcLayout::new(N, 4, Technique::CheckpointRestart.layout(), 1);
    let n_grids = layout.system().n_grids();
    // Each group root writes once per period: total writes in a healthy run.
    let n_writes = (n_grids as u64 * u64::from(CHECKPOINTS)) as f64;

    let show = |case: &str, o: &Outcome| {
        println!(
            "{case:<24} makespan {:>10.3}  t_ckpt {:>8.3}  io hidden/exposed {:>8.3}/{:>8.3}  \
             hidden {:>6.1}%",
            o.makespan,
            o.t_ckpt,
            o.io_hidden,
            o.io_exposed,
            100.0 * hidden_frac(o)
        );
    };

    let opl = ClusterProfile::opl();
    let raijin = ClusterProfile::raijin();

    let opl_sync = cr_run(&opl, true, FaultPlan::none());
    let opl_async = cr_run(&opl, false, FaultPlan::none());
    let rai_sync = cr_run(&raijin, true, FaultPlan::none());
    let rai_async = cr_run(&raijin, false, FaultPlan::none());
    // Recovery-drain arm: a rank dies between the first two writes; the
    // restart drains in-flight checkpoints, falls back to the step-8 file
    // and recomputes — the combined solution must not move by one bit.
    let opl_fail = cr_run(&opl, false, FaultPlan::new(vec![(3, 12)]));

    show("opl/sync", &opl_sync);
    show("opl/async", &opl_async);
    show("raijin/sync", &rai_sync);
    show("raijin/async", &rai_async);
    show("opl/async+kill@12", &opl_fail);

    // Eq. 2 with the measured *exposed* write cost: what the schedule
    // optimizer should actually price once writes overlap compute.
    let tio = |o: &Outcome| o.io_exposed / n_writes;
    let eq2 = |o: &Outcome| AppConfig::optimal_checkpoints(o.makespan, tio(o));
    let (tio_sync, tio_async) = (tio(&opl_sync), tio(&opl_async));
    let (c_sync, c_async) = (eq2(&opl_sync), eq2(&opl_async));
    println!(
        "\nEq. 2 on OPL:  exposed T_IO per write  sync {tio_sync:.3}s -> C = {c_sync}   \
         async {tio_async:.3}s -> C = {c_async}"
    );

    let frac = hidden_frac(&opl_async);
    let bitwise_sync_async = opl_sync.err.to_bits() == opl_async.err.to_bits()
        && rai_sync.err.to_bits() == rai_async.err.to_bits();
    let bitwise_recovery = opl_fail.err.to_bits() == opl_async.err.to_bits();
    println!(
        "hidden-io fraction (OPL async) {frac:.3} (required >= 0.5)   bitwise sync==async: \
         {bitwise_sync_async}   bitwise after kill: {bitwise_recovery}"
    );
    assert!(
        frac >= 0.5,
        "async checkpointing must hide >= 50% of checkpoint I/O at OPL T_IO, got {frac:.3}"
    );
    assert!(bitwise_sync_async, "sync and async checkpointing must produce identical solutions");
    assert!(bitwise_recovery, "restart after a kill must reproduce the solution bitwise");
    assert!(
        opl_async.makespan < opl_sync.makespan,
        "hiding T_IO must shorten the OPL makespan: async {} vs sync {}",
        opl_async.makespan,
        opl_sync.makespan
    );

    let report = codec::run(10, alloc_sites::bytes).expect("codec section I/O");
    report.table().emit(a.csv("ckpt_codec.csv"));
    let s = report.stamp;
    println!(
        "codec: sliced CRC {:.2}x the bytewise reference (nproc: {}, cpu: {}, {}, git: {})",
        report.crc_ratio, s.nproc, s.cpu, s.rustc, s.git
    );
    a.record("BENCH_pr18.json", &report.to_json(&utc_today()));
    Ok(0)
}
