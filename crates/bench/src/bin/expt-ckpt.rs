//! `expt-ckpt` — synchronous vs asynchronous checkpointing A/B on the
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
//!
//! Emits `BENCH_pr5.json` (override with `BENCH_OUT`).
//!
//! Then the **codec section** (`ftsg_bench::experiments::codec`): sliced
//! vs bytewise CRC-64 throughput, `write` / `read_latest_valid` per round
//! and the allocator bytes a write round requests, at the `ckpt_heavy`
//! grid set — wall-clock and counts of the layer the A/B above prices in
//! virtual seconds. Emits `BENCH_pr18.json` (`<BENCH_OUT stem>_codec.json`
//! when `BENCH_OUT` redirects the run) and `results/ckpt_codec.csv`. It
//! asserts bitwise agreement only, never a timing, so the CI step stays
//! deterministic; `expt-regress` holds the CRC ratio to its floor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ftsg_bench::experiments::codec;
use ftsg_bench::runner::{emulate_paper_scale, launch_on, ModelKind};
use ftsg_core::app::keys;
use ftsg_core::{AppConfig, ProcLayout, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan, Report};

/// Bytes requested from the allocator so far, by every thread.
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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

/// UTC date (YYYY-MM-DD) from the system clock, no external crates.
fn utc_today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() {
    let layout = ProcLayout::new(N, 4, Technique::CheckpointRestart.layout(), 1);
    let n_grids = layout.system().n_grids();
    // Each group root writes once per period: total writes in a healthy run.
    let n_writes = (n_grids as u64 * u64::from(CHECKPOINTS)) as f64;

    let mut cases = Vec::new();
    let mut record = |case: &str, o: &Outcome| {
        println!(
            "{case:<24} makespan {:>10.3}  t_ckpt {:>8.3}  io hidden/exposed {:>8.3}/{:>8.3}  \
             hidden {:>6.1}%",
            o.makespan,
            o.t_ckpt,
            o.io_hidden,
            o.io_exposed,
            100.0 * hidden_frac(o)
        );
        cases.push(format!(
            "  {{\"case\": \"{case}\", \"virtual_makespan_s\": {:.6}, \"t_ckpt_s\": {:.6}, \
             \"io_hidden_s\": {:.6}, \"io_exposed_s\": {:.6}, \"hidden_io_fraction\": {:.4}, \
             \"err_l1\": {:.17e}}}",
            o.makespan,
            o.t_ckpt,
            o.io_hidden,
            o.io_exposed,
            hidden_frac(o),
            o.err
        ));
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

    record("opl/sync", &opl_sync);
    record("opl/async", &opl_async);
    record("raijin/sync", &rai_sync);
    record("raijin/async", &rai_async);
    record("opl/async+kill@12", &opl_fail);

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

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pr5.json".into());
    let json = format!(
        "{{\n \"pr\": 5,\n \"date\": \"{date}\",\n \"note\": \"Sync vs async checkpointing A/B \
         from expt-ckpt (virtual seconds; emulated paper scale, n={N}, 2^{LOG2_STEPS} steps, \
         C={CHECKPOINTS}, {n_grids} grids). Eq. 2 re-derived from the measured exposed write \
         cost: overlap collapses the effective T_IO, moving the optimal C from the paper's \
         disk-limited value toward one checkpoint per period.\",\n \"acceptance\": {{\n  \
         \"hidden_io_fraction_opl_async\": {frac:.4},\n  \
         \"required_min_hidden_io_fraction\": 0.5,\n  \
         \"bitwise_identical_sync_vs_async\": {bitwise_sync_async},\n  \
         \"bitwise_identical_after_midrun_kill\": {bitwise_recovery},\n  \
         \"opl_makespan_sync_s\": {:.6},\n  \"opl_makespan_async_s\": {:.6},\n  \
         \"eq2_exposed_tio_per_write_sync_s\": {tio_sync:.6},\n  \
         \"eq2_exposed_tio_per_write_async_s\": {tio_async:.6},\n  \
         \"eq2_optimal_checkpoints_sync\": {c_sync},\n  \
         \"eq2_optimal_checkpoints_async\": {c_async}\n }},\n \"cases\": [\n{cases}\n ]\n}}\n",
        opl_sync.makespan,
        opl_async.makespan,
        date = utc_today(),
        cases = cases.join(",\n"),
    );
    std::fs::write(&out, json).expect("write bench json");
    println!("wrote {out}");

    let report = codec::run(10, || ALLOC_BYTES.load(Ordering::Relaxed)).expect("codec section I/O");
    report.table().emit("results/ckpt_codec.csv");
    println!(
        "codec: sliced CRC {:.2}x the bytewise reference (nproc: {}, cpu: {}, {}, git: {})",
        report.crc_ratio, report.nproc, report.cpu, report.rustc, report.git
    );
    // A redirected run (smoke lanes) must not touch the committed file.
    let out_codec = match std::env::var("BENCH_OUT") {
        Ok(path) => format!("{}_codec.json", path.trim_end_matches(".json")),
        Err(_) => "BENCH_pr18.json".into(),
    };
    std::fs::write(&out_codec, report.to_json(&utc_today())).expect("write bench json");
    println!("wrote {out_codec}");
}
