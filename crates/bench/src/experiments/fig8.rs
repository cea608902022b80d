//! Fig. 8 — wall time for (a) creating the failed-process list and
//! (b) reconstructing the faulty communicator, as a function of core
//! count, for one and two real process failures.
//!
//! Setup mirrors the paper: the Resampling-and-Copying process layout
//! (whose world sizes are the 19·s Table-I core counts), failures
//! injected just before the final detection point, times averaged over
//! `reps` runs. Both the calibrated beta-ULFM model and the ideal
//! ablation are reported; the paper's headline is that the beta's
//! two-failure times blow up where "in principle, these two times should
//! be roughly the same, irrespective of the number of process failures".

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan};

use crate::opts::Opts;
use crate::runner::{launch_on, random_victims, ModelKind};
use crate::table::{sig3, Table};

/// Run the sweep; returns one table with both sub-figures' series.
pub fn run(opts: &Opts) -> Vec<Table> {
    let technique = Technique::ResamplingCopying;
    let title = format!(
        "Fig. 8: failure identification & communicator reconstruction (n={}, l={}, {} reps)",
        opts.n,
        opts.l(),
        opts.reps
    );
    let mut t = Table::new(
        title,
        &["model", "cores", "failures", "t_list(s)  [8a]", "t_reconstruct(s)  [8b]"],
    );
    for model in [ModelKind::Beta, ModelKind::Ideal] {
        for &s in &opts.scales {
            let layout = opts.layout(technique, s);
            let cores = layout.world_size();
            for failures in [1usize, 2] {
                let mut t_list = 0.0;
                let mut t_rec = 0.0;
                for rep in 0..opts.reps {
                    let seed = opts.seed ^ (s as u64) << 24 ^ (failures as u64) << 16 ^ rep as u64;
                    let cfg = AppConfig::paper_shaped(technique, opts.n, s, opts.log2_steps);
                    let steps = cfg.steps();
                    let victims = random_victims(&layout, failures, true, seed);
                    let plan = FaultPlan::new(victims.into_iter().map(|r| (r, steps)).collect());
                    let report = launch_on(ClusterProfile::opl(), model, cfg.with_plan(plan), seed);
                    t_list += report.get_f64(keys::T_LIST).expect("t_list reported");
                    t_rec += report.get_f64(keys::T_RECONSTRUCT).expect("t_reconstruct");
                }
                t.row(vec![
                    model.label().into(),
                    cores.to_string(),
                    failures.to_string(),
                    sig3(t_list / opts.reps as f64),
                    sig3(t_rec / opts.reps as f64),
                ]);
            }
        }
    }
    vec![t]
}
