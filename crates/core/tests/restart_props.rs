//! Restart-correctness properties (PR 5, satellite S4).
//!
//! 1. **Kill–restart determinism.** A Checkpoint/Restart run killed at an
//!    arbitrary step and restarted from the newest valid checkpoint must
//!    produce the *bitwise-identical* combined-solution error of the
//!    uninterrupted run — under both synchronous and asynchronous
//!    checkpointing (the async arm crosses the recovery drain barrier).
//!    With a disk two or more writes behind, the writer supersedes stale
//!    snapshots. A drain never starts a write: a snapshot still queued at
//!    the recovery barrier or at the end of the run is superseded too, and
//!    the restore reads the write that was in flight and recomputes more
//!    steps, to the same bits.
//! 2. **Wire-format integrity.** The v2 checkpoint codec round-trips
//!    exactly, and *any* single-bit flip of an encoded buffer is detected
//!    (magic/version/bounds checks or the CRC-64 trailer) — a decode must
//!    never silently succeed on damaged bytes.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, CheckpointStore, ProcLayout, Technique};
use proptest::prelude::*;
use sparsegrid::{Grid2, LevelPair};
use ulfm_sim::{run, ClusterProfile, FaultPlan, Report, RunConfig};

const N: u32 = 6;
const L: u32 = 3;
const LOG2_STEPS: u32 = 5;

fn cr_config(checkpoints: u32, ckpt_async: bool) -> AppConfig {
    let mut cfg = AppConfig::small(Technique::CheckpointRestart).with_checkpoints(checkpoints);
    cfg.n = N;
    cfg.l = L;
    cfg.log2_steps = LOG2_STEPS;
    if !ckpt_async {
        cfg = cfg.with_sync_checkpoints();
    }
    cfg
}

fn err_bits(cfg: AppConfig, seed: u64) -> u64 {
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let world = layout.world_size();
    let report = run(RunConfig::local(world).with_seed(seed), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report.get_f64(keys::ERR_L1).expect("healthy run reports err_l1").to_bits()
}

/// Uninterrupted-run error bits, memoized per (checkpoints, async, seed).
fn healthy_bits(checkpoints: u32, ckpt_async: bool, seed: u64) -> u64 {
    type Cache = Mutex<HashMap<(u32, bool, u64), u64>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(&bits) = cache.lock().unwrap().get(&(checkpoints, ckpt_async, seed)) {
        return bits;
    }
    let bits = err_bits(cr_config(checkpoints, ckpt_async), seed);
    cache.lock().unwrap().insert((checkpoints, ckpt_async, seed), bits);
    bits
}

fn opl_world() -> (ProcLayout, impl Fn(AppConfig) -> Report) {
    let layout = ProcLayout::new(N, L, Technique::CheckpointRestart.layout(), 1);
    let world = layout.world_size();
    let opl = move |cfg: AppConfig| -> Report {
        let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(3);
        let report = run(rc, move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        report
    };
    (layout, opl)
}

fn get(r: &Report, key: &str) -> f64 {
    r.get_f64(key).unwrap_or_else(|| panic!("no {key}"))
}

/// Halo messages of `steps` steps of grid `id`: every rank of its group
/// sends four per step (north, south, east, west).
fn halo_msgs(layout: &ProcLayout, id: usize, steps: u64) -> u64 {
    4 * layout.group(id).size as u64 * steps
}

/// On OPL a checkpoint write costs about 3.5 vsec and this shape's
/// compute between two checkpoints about 0.48 vsec, so every asynchronous
/// root falls further behind with each checkpoint. The newest-wins writer
/// skips the snapshots queued behind the disk. Here the repair outlasts
/// the write in flight, so the checkpoint queued behind it has started by
/// the recovery barrier: the kill restores the newest checkpoint the group
/// took — the one the synchronous writer restores — and recomputes the
/// same steps.
#[test]
fn a_restart_behind_a_busy_disk_reads_the_newest_checkpoint() {
    let (layout, opl) = opl_world();
    // Seven checkpoints of 32 steps: every 4 steps. The kill at step 26
    // is detected at step 28, so both writers restore step 24.
    let victim = layout.group(0).first + 1;
    let kill = FaultPlan::new(vec![(victim, 26)]);
    let healthy = opl(cr_config(7, true));
    let killed = opl(cr_config(7, true).with_plan(kill.clone()));
    let sync = opl(cr_config(7, false).with_plan(kill));
    // The disk was behind: snapshots were superseded, by every root.
    let superseded = get(&killed, keys::CKPT_SUPERSEDED);
    assert!(superseded >= layout.groups().len() as f64, "superseded {superseded}");
    assert_eq!(sync.get_f64(keys::CKPT_SUPERSEDED), None);
    assert_eq!(get(&killed, keys::ERR_L1).to_bits(), get(&healthy, keys::ERR_L1).to_bits());
    // The same checkpoint read and the same steps recomputed: the data
    // recovery costs what the synchronous writer's does, to rounding. One
    // checkpoint older would recompute four more steps.
    let (t_async, t_sync) = (get(&killed, keys::T_RECOVERY), get(&sync, keys::T_RECOVERY));
    assert!((t_async - t_sync).abs() <= 1e-12 * t_sync, "{t_async} vs {t_sync}");
}

/// A kill at step 10 is detected at step 12, after about 1 vsec of
/// repair, while each root's disk still writes step 4 (until about 4
/// vsec) with step 8 queued behind it. The recovery barrier lands step 4
/// and supersedes step 8 instead of waiting a second write out, so the
/// restore reads step 4 and the broken group recomputes four steps more
/// than the synchronous writer's, which restores step 8 — to the same
/// bits.
#[test]
fn a_restart_whose_barrier_finds_a_queued_snapshot_reads_the_write_in_flight() {
    let (layout, opl) = opl_world();
    let victim = layout.group(0).first + 1;
    let kill = FaultPlan::new(vec![(victim, 10)]);
    let healthy = opl(cr_config(7, true));
    let killed = opl(cr_config(7, true).with_plan(kill.clone()));
    let sync = opl(cr_config(7, false).with_plan(kill));
    assert_eq!(get(&killed, keys::ERR_L1).to_bits(), get(&healthy, keys::ERR_L1).to_bits());
    assert_eq!(get(&sync, keys::ERR_L1).to_bits(), get(&healthy, keys::ERR_L1).to_bits());
    // Restored from step 4, not 8: exactly four more steps of the broken
    // group's halo traffic, and no other message.
    let msgs = |r: &Report| r.metrics.total_messages();
    assert_eq!(msgs(&killed) - msgs(&sync), halo_msgs(&layout, 0, 4));
    // Per root: step 8 at the barrier. After it, step 16 starts on an idle
    // disk and lands, 20 and 24 are superseded by the next checkpoint, and
    // 28 by the end of the run. A barrier that landed step 8 would
    // supersede one snapshot fewer per root.
    let roots = layout.groups().len() as f64;
    assert_eq!(get(&killed, keys::CKPT_SUPERSEDED), 4.0 * roots);
}

/// The simulated-loss restore of Figs. 9/10 reads the store after the
/// end-of-run drain, which supersedes the queued snapshot like any other
/// drain. On the disk-bound shape above, each root's first checkpoint
/// (step 4) is still in flight when the run ends and the last (step 28)
/// queued behind it: the async run drops step 28, restores step 4 and
/// recomputes 24 steps more than the synchronous run, which restores step
/// 28 — to the same bits. (`T_RECOVERY` cannot tell: the lost group's
/// members wait out their root's end-of-run drain inside the restore.)
#[test]
fn a_simulated_loss_after_the_run_reads_the_newest_checkpoint() {
    let (layout, opl) = opl_world();
    let lost = |cfg: AppConfig| opl(cfg.with_simulated_losses(vec![0]));
    let (lost_async, lost_sync) = (lost(cr_config(7, true)), lost(cr_config(7, false)));
    assert_eq!(get(&lost_async, keys::ERR_L1).to_bits(), get(&lost_sync, keys::ERR_L1).to_bits());
    let msgs = |r: &Report| r.metrics.total_messages();
    assert_eq!(msgs(&lost_async) - msgs(&lost_sync), halo_msgs(&layout, 0, 28 - 4));
    // Every root lands step 4 and supersedes the other six: steps 8 to 24
    // by the next checkpoint, step 28 by the end of the run.
    let roots = layout.groups().len() as f64;
    assert_eq!(get(&lost_async, keys::CKPT_SUPERSEDED), 6.0 * roots);
    assert_eq!(lost_sync.get_f64(keys::CKPT_SUPERSEDED), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill any non-controller rank at any step (including the very last):
    /// the restarted run's combined solution equals the uninterrupted
    /// run's, bit for bit, in both checkpointing modes.
    #[test]
    fn killed_and_restarted_run_is_bitwise_identical(
        victim_ix in 0usize..64,
        kill_step in 1u64..=(1 << LOG2_STEPS),
        checkpoints in 1u32..=3,
        seed in 0u64..4,
    ) {
        let layout = ProcLayout::new(N, L, Technique::CheckpointRestart.layout(), 1);
        let victim = 1 + victim_ix % (layout.world_size() - 1);
        for ckpt_async in [true, false] {
            let reference = healthy_bits(checkpoints, ckpt_async, seed);
            let cfg = cr_config(checkpoints, ckpt_async)
                .with_plan(FaultPlan::new(vec![(victim, kill_step)]));
            let killed = err_bits(cfg, seed);
            prop_assert_eq!(
                killed, reference,
                "rank {} killed at step {} (C={}, async={}) diverged from the uninterrupted run",
                victim, kill_step, checkpoints, ckpt_async
            );
        }
    }

    /// v2 codec round-trip: decode(encode(x)) == x, including the step
    /// and every payload bit.
    #[test]
    fn v2_codec_roundtrips_exactly(
        i in 1u32..=6,
        j in 1u32..=6,
        step in 0u64..1_000_000,
        fx in -8.0f64..8.0,
        fy in -8.0f64..8.0,
    ) {
        let level = LevelPair::new(i, j);
        let grid = Grid2::from_fn(level, |x, y| (fx * x).sin() + (fy * y).cos());
        let raw = CheckpointStore::encode(step, level, grid.values());
        let (got_step, got) = CheckpointStore::decode(&raw).expect("pristine buffer decodes");
        prop_assert_eq!(got_step, step);
        prop_assert_eq!(got.level(), level);
        let same = got
            .values()
            .iter()
            .zip(grid.values())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        prop_assert!(same, "payload changed across the codec round-trip");
    }

    /// Flipping any single bit anywhere in an encoded checkpoint —
    /// header, payload, or CRC trailer — must make decode fail.
    #[test]
    fn any_single_bit_flip_is_detected(
        i in 1u32..=5,
        j in 1u32..=5,
        step in 0u64..1_000_000,
        flip_seed in any::<u64>(),
    ) {
        let level = LevelPair::new(i, j);
        let grid = Grid2::from_fn(level, |x, y| x * 0.7 - y * 1.3);
        let mut raw = CheckpointStore::encode(step, level, grid.values());
        let bit = (flip_seed % (raw.len() as u64 * 8)) as usize;
        raw[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            CheckpointStore::decode(&raw).is_err(),
            "flipped bit {} of {} and decode still succeeded",
            bit,
            raw.len() * 8
        );
    }
}
