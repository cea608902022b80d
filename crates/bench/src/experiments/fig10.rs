//! Fig. 10 — average approximation error of the combined solution with
//! 0–5 lost grids, per technique, averaged over 20 random loss patterns.
//!
//! The error is the per-point-average l1 difference between the combined
//! solution and the exact analytic advection solution. The shapes to
//! reproduce: Checkpoint/Restart flat at the baseline (exact recovery);
//! Resampling-and-Copying and Alternate Combination growing with losses
//! but staying within a factor of 10 of the baseline up to 5 lost
//! grids — with the paper's surprise that **AC beats RC** even though RC
//! is "near-exact".

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, Technique};
use ulfm_sim::ClusterProfile;

use crate::opts::Opts;
use crate::runner::{launch_on, random_lost_grids, ModelKind};
use crate::table::{sci, sig3, Table};

/// Error experiments are resolution-bound, not process-bound: scale 1
/// keeps them fast without changing any error number.
const SCALE: usize = 1;

/// Run the error sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let reps = if opts.quick { 3 } else { opts.reps.max(20) };
    let mut t = Table::new(
        format!(
            "Fig. 10: average l1 approximation error vs lost grids (n={}, l={}, {} reps)",
            opts.n,
            opts.l(),
            reps
        ),
        &["technique", "lost_grids", "avg_err_l1", "vs_baseline"],
    );
    let max_lost = if opts.quick { 2 } else { 5 };
    for technique in [
        Technique::CheckpointRestart,
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
    ] {
        let layout = opts.layout(technique, SCALE);
        let (n_grids, conflicts) = (layout.system().n_grids(), layout.system().rc_conflicts());
        let rc = technique == Technique::ResamplingCopying;
        let mut baseline = f64::NAN;
        for lost in 0..=max_lost {
            let mut acc = 0.0;
            let actual_reps = if lost == 0 { 1 } else { reps };
            for rep in 0..actual_reps {
                let seed = opts.seed ^ (lost as u64) << 40 ^ (rep as u64) << 8;
                let grids = if lost == 0 {
                    Vec::new()
                } else {
                    random_lost_grids(n_grids, &conflicts, lost, rc, seed)
                };
                let cfg = AppConfig::paper_shaped(technique, opts.n, SCALE, opts.log2_steps)
                    .with_simulated_losses(grids);
                let report = launch_on(ClusterProfile::opl(), ModelKind::Beta, cfg, seed);
                acc += report.get_f64(keys::ERR_L1).unwrap();
            }
            let avg = acc / actual_reps as f64;
            if lost == 0 {
                baseline = avg;
            }
            t.row(vec![technique.label().into(), lost.to_string(), sci(avg), sig3(avg / baseline)]);
        }
    }
    vec![t]
}
