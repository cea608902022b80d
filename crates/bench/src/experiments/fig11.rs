//! Fig. 11 — overall parallel performance: (a) execution time and
//! (b) parallel efficiency vs core count, for 0/1/2 *real* process
//! failures and all three techniques.
//!
//! Shapes to reproduce: CR most costly (checkpoint I/O), then RC
//! (duplicated computation), AC cheapest; AC and RC above 80 % parallel
//! efficiency without failures; the two-failure runs degraded badly by
//! the beta ULFM's `shrink`/`agree`/`spawn` costs.
//!
//! Efficiency is strong-scaling relative to each series' smallest run:
//! `E(s) = T(s₁)·P(s₁) / (T(s)·P(s))`.

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan};

use crate::experiments::fig9::calibrated_checkpoints;
use crate::opts::Opts;
use crate::runner::{emulate_paper_scale, launch_on, random_victims, ModelKind};
use crate::table::{sig3, Table};

/// Run the time and efficiency sweeps.
pub fn run(opts: &Opts) -> Vec<Table> {
    let mut t11a = Table::new(
        format!("Fig. 11a: overall execution time (n={}, l={})", opts.n, opts.l()),
        &["technique", "failures", "cores", "t_total(s)"],
    );
    let mut t11b = Table::new(
        "Fig. 11b: overall parallel efficiency (relative to each series' smallest run)",
        &["technique", "failures", "cores", "efficiency"],
    );

    let failure_counts: &[usize] = if opts.quick { &[0, 1] } else { &[0, 1, 2] };
    // CR runs with the Eq.-2 optimal checkpoint count, like the paper.
    let log2_steps = if opts.quick { opts.log2_steps } else { opts.log2_steps.max(8) };
    let checkpoints = calibrated_checkpoints(
        opts,
        &emulate_paper_scale(ClusterProfile::opl(), opts.n, log2_steps),
        log2_steps,
    );
    for technique in [
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
        Technique::CheckpointRestart,
    ] {
        for &failures in failure_counts {
            let mut series: Vec<(usize, f64)> = Vec::new();
            for &s in &opts.scales {
                let layout = opts.layout(technique, s);
                let cores = layout.world_size();
                let mut total = 0.0;
                for rep in 0..opts.reps {
                    let seed = opts.seed
                        ^ (s as u64) << 24
                        ^ (failures as u64) << 16
                        ^ (rep as u64) << 4
                        ^ match technique {
                            Technique::CheckpointRestart => 1,
                            Technique::ResamplingCopying => 2,
                            Technique::AlternateCombination => 3,
                            Technique::BuddyCheckpoint => 4,
                        };
                    // Synchronous checkpoint writes, as in the paper.
                    let cfg = AppConfig::paper_shaped(technique, opts.n, s, log2_steps)
                        .with_checkpoints(checkpoints)
                        .with_sync_checkpoints();
                    let steps = cfg.steps();
                    let plan = if failures == 0 {
                        FaultPlan::none()
                    } else {
                        let victims = random_victims(
                            &layout,
                            failures,
                            technique == Technique::ResamplingCopying,
                            seed,
                        );
                        FaultPlan::new(victims.into_iter().map(|r| (r, steps)).collect())
                    };
                    let report = launch_on(
                        emulate_paper_scale(ClusterProfile::opl(), opts.n, log2_steps),
                        ModelKind::Beta,
                        cfg.with_plan(plan),
                        seed,
                    );
                    total += report.get_f64(keys::T_TOTAL).unwrap();
                }
                series.push((cores, total / opts.reps as f64));
            }
            let (p1, t1) = series[0];
            for &(cores, t_total) in &series {
                t11a.row(vec![
                    technique.label().into(),
                    failures.to_string(),
                    cores.to_string(),
                    sig3(t_total),
                ]);
                let eff = (t1 * p1 as f64) / (t_total * cores as f64);
                t11b.row(vec![
                    technique.label().into(),
                    failures.to_string(),
                    cores.to_string(),
                    sig3(eff),
                ]);
            }
        }
    }
    vec![t11a, t11b]
}
