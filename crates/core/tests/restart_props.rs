//! Restart-correctness properties (PR 5, satellite S4).
//!
//! 1. **Kill–restart determinism.** A Checkpoint/Restart run killed at an
//!    arbitrary step and restarted from the newest valid checkpoint must
//!    produce the *bitwise-identical* combined-solution error of the
//!    uninterrupted run — under both synchronous and asynchronous
//!    checkpointing (the async arm crosses the recovery drain barrier).
//!    With a disk two or more writes behind, the writer supersedes stale
//!    snapshots, and the restart still reads the newest checkpoint taken;
//!    so does the simulated-loss restore after the end-of-run drain.
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

/// On OPL a checkpoint write costs about 3.5 vsec and this shape's
/// compute between two checkpoints a fraction of a millisecond, so every
/// asynchronous root falls further behind with each checkpoint. The
/// newest-wins writer skips the snapshots queued behind the disk, yet a
/// kill still restores the newest checkpoint the group took — the one the
/// synchronous writer restores — and recomputes the same steps.
#[test]
fn a_restart_behind_a_busy_disk_reads_the_newest_checkpoint() {
    let layout = ProcLayout::new(N, L, Technique::CheckpointRestart.layout(), 1);
    let world = layout.world_size();
    let opl = |cfg: AppConfig| -> Report {
        let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(3);
        let report = run(rc, move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        report
    };
    // Seven checkpoints of 32 steps: every 4 steps. The kill at step 26
    // is detected at step 28, so both writers restore step 24.
    let victim = layout.group(0).first + 1;
    let kill = FaultPlan::new(vec![(victim, 26)]);
    let healthy = opl(cr_config(7, true));
    let killed = opl(cr_config(7, true).with_plan(kill.clone()));
    let sync = opl(cr_config(7, false).with_plan(kill));
    let get = |r: &Report, key: &str| r.get_f64(key).unwrap_or_else(|| panic!("no {key}"));
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

/// The simulated-loss restore of Figs. 9/10 reads the store after the
/// end-of-run drain, so that drain lands the queued snapshot too. On the
/// disk-bound shape above, the async run restores the newest checkpoint
/// taken — the one the synchronous writer restores — and recomputes the
/// same steps, so both runs send the same halo messages. A final drain
/// that dropped the queued snapshot would restore an older one and
/// recompute more. (`T_RECOVERY` cannot tell: the lost group's members
/// wait out their root's end-of-run drain inside the restore.)
#[test]
fn a_simulated_loss_after_the_run_reads_the_newest_checkpoint() {
    let layout = ProcLayout::new(N, L, Technique::CheckpointRestart.layout(), 1);
    let world = layout.world_size();
    let opl = |cfg: AppConfig| -> Report {
        let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(3);
        let cfg = cfg.with_simulated_losses(vec![0]);
        let report = run(rc, move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        report
    };
    let (lost_async, lost_sync) = (opl(cr_config(7, true)), opl(cr_config(7, false)));
    let get = |r: &Report, key: &str| r.get_f64(key).unwrap_or_else(|| panic!("no {key}"));
    let superseded = get(&lost_async, keys::CKPT_SUPERSEDED);
    assert!(superseded >= layout.groups().len() as f64, "superseded {superseded}");
    assert_eq!(get(&lost_async, keys::ERR_L1).to_bits(), get(&lost_sync, keys::ERR_L1).to_bits());
    let msgs = |r: &Report| r.metrics.total_messages();
    assert_eq!(msgs(&lost_async), msgs(&lost_sync), "the restores recomputed different steps");
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
