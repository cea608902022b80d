//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Respawn placement** — the paper pins replacements to the failed
//!    rank's original host "for load balancing" (§II-C) and proposes
//!    spare-node recovery as future work (§V). The ablation compares
//!    same-host, spare-node, and a naive first-host placement under a
//!    whole-node failure: the naive policy oversubscribes a node, and the
//!    bulk-synchronous solve slows down with it.
//! 2. **ULFM implementation maturity** — the beta-vs-ideal cost model
//!    comparison (also visible in Fig. 8's series) at the application
//!    level: total time to recover from a double failure.

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, RespawnPolicy, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan};

use crate::opts::Opts;
use crate::runner::{emulate_paper_scale, launch_on, random_victims, ModelKind};
use crate::table::{sig3, Table};

/// Run all ablations.
pub fn run(opts: &Opts) -> Vec<Table> {
    vec![respawn_placement(opts), ulfm_maturity(opts), buddy_vs_disk(opts)]
}

/// Extension bench: diskless buddy checkpointing vs on-disk
/// Checkpoint/Restart on both clusters — the protection cost (all
/// checkpoint epochs) and the recovery outcome for one mid-run failure.
fn buddy_vs_disk(opts: &Opts) -> Table {
    let mut t = Table::new(
        "Extension: diskless buddy checkpointing vs Checkpoint/Restart (1 mid-run failure)",
        &["cluster", "technique", "t_protect(s)", "t_recovery(s)", "t_total(s)", "err_vs_baseline"],
    );
    for base_profile in [ClusterProfile::opl(), ClusterProfile::raijin()] {
        let profile = emulate_paper_scale(base_profile, opts.n, opts.log2_steps);
        for technique in [Technique::CheckpointRestart, Technique::BuddyCheckpoint] {
            // The paper's CR writes its checkpoints synchronously: that
            // disk term is what the buddy copy removes (BC writes none).
            let cfg = AppConfig::paper_shaped(technique, opts.n, 2, opts.log2_steps)
                .with_checkpoints(4)
                .with_sync_checkpoints();
            let steps = cfg.steps();
            let layout = opts.layout(technique, 2);
            let baseline = launch_on(profile.clone(), ModelKind::Ideal, cfg.clone(), opts.seed)
                .get_f64(keys::ERR_L1)
                .unwrap();
            let victim = layout.group(2).first;
            let plan = FaultPlan::single(victim, steps / 3);
            let report =
                launch_on(profile.clone(), ModelKind::Ideal, cfg.with_plan(plan), opts.seed);
            t.row(vec![
                profile.name.clone(),
                technique.label().into(),
                sig3(report.get_f64(keys::T_CKPT).unwrap()),
                sig3(report.get_f64(keys::T_RECOVERY).unwrap()),
                sig3(report.get_f64(keys::T_TOTAL).unwrap()),
                format!("{:.2}x", report.get_f64(keys::ERR_L1).unwrap() / baseline),
            ]);
        }
    }
    t
}

/// Node failure recovered under three placement policies.
fn respawn_placement(opts: &Opts) -> Table {
    let mut t = Table::new(
        format!(
            "Ablation: respawn placement under a whole-node failure (n={}, l={})",
            opts.n,
            opts.l()
        ),
        &["policy", "t_total(s)", "t_solve(s)", "vs_same_host"],
    );
    // Checkpoint/Restart so detection happens mid-run and the remaining
    // three quarters of the solve feel the post-recovery load (im)balance.
    let technique = Technique::CheckpointRestart;
    let scale = 2;
    let layout = opts.layout(technique, scale);
    // A small-node profile (4 slots) so one node holds a meaningful chunk
    // of the world and its loss is a genuine node failure.
    let mut profile = emulate_paper_scale(
        ClusterProfile::local(layout.world_size().div_ceil(4) + 2, 4),
        opts.n,
        opts.log2_steps,
    );
    profile.name = "ablation".into();
    // Kill node 1 entirely (ranks 4..8) a quarter of the way in.
    let steps = 1u64 << opts.log2_steps;
    let victims: Vec<(usize, u64)> = (4..8).map(|r| (r, steps / 4)).collect();

    let mut baseline = None;
    for policy in [RespawnPolicy::SameHost, RespawnPolicy::SpareNode, RespawnPolicy::FirstHost] {
        let cfg = AppConfig::paper_shaped(technique, opts.n, scale, opts.log2_steps)
            .with_checkpoints(3)
            .with_plan(FaultPlan::new(victims.clone()))
            .with_respawn_policy(policy);
        let report = launch_on(profile.clone(), ModelKind::Ideal, cfg, opts.seed);
        let total = report.get_f64(keys::T_TOTAL).unwrap();
        let solve = report.get_f64(keys::T_SOLVE).unwrap();
        let base = *baseline.get_or_insert(total);
        t.row(vec![
            format!("{policy:?}"),
            sig3(total),
            sig3(solve),
            format!("{:.2}x", total / base),
        ]);
    }
    t
}

/// Beta vs ideal ULFM at the application level.
fn ulfm_maturity(opts: &Opts) -> Table {
    let mut t = Table::new(
        "Ablation: ULFM implementation maturity (2 real failures, RC technique)",
        &["model", "cores", "t_reconstruct(s)", "t_total(s)"],
    );
    let technique = Technique::ResamplingCopying;
    for &s in &opts.scales {
        let layout = opts.layout(technique, s);
        for model in [ModelKind::Beta, ModelKind::Ideal] {
            let cfg = AppConfig::paper_shaped(technique, opts.n, s, opts.log2_steps);
            let steps = cfg.steps();
            let victims = random_victims(&layout, 2, true, opts.seed ^ (s as u64));
            let plan = FaultPlan::new(victims.into_iter().map(|r| (r, steps)).collect());
            let report = launch_on(
                emulate_paper_scale(ClusterProfile::opl(), opts.n, opts.log2_steps),
                model,
                cfg.with_plan(plan),
                opts.seed,
            );
            t.row(vec![
                model.label().into(),
                layout.world_size().to_string(),
                sig3(report.get_f64(keys::T_RECONSTRUCT).unwrap()),
                sig3(report.get_f64(keys::T_TOTAL).unwrap()),
            ]);
        }
    }
    t
}
