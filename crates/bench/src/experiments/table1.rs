//! Table I — beta Open MPI 3.1 performance with two failed processes:
//! wall times of `MPI_Comm_spawn_multiple`, `OMPI_Comm_shrink`,
//! `OMPI_Comm_agree` and `MPI_Intercomm_merge` at 19–304 cores.
//!
//! The measured columns come from the application's repair path
//! (timed per operation in `ftsg_core::reconstruct`); the paper's
//! published values (`ulfm_sim::TABLE_I`, the same constants the cost
//! model interpolates) are shown alongside for direct comparison — by
//! construction the beta-ULFM cost model was calibrated against them, so
//! agreement here validates the calibration end-to-end *through the whole
//! recovery protocol*, not just the model functions.

use ftsg_core::app::keys;
use ftsg_core::{AppConfig, Technique};
use ulfm_sim::{ClusterProfile, FaultPlan, TABLE_I};

use crate::opts::Opts;
use crate::runner::{launch_on, random_victims, ModelKind};
use crate::table::{sig3, Table};

/// Run the two-failure sweep.
pub fn run(opts: &Opts) -> Vec<Table> {
    let technique = Technique::ResamplingCopying;
    let mut t = Table::new(
        format!(
            "Table I: ULFM operation wall times, two process failures (n={}, l={})",
            opts.n,
            opts.l()
        ),
        &[
            "cores",
            "spawn(s)",
            "paper",
            "shrink(s)",
            "paper",
            "agree(s)",
            "paper",
            "merge(s)",
            "paper",
        ],
    );
    for &s in &opts.scales {
        let layout = opts.layout(technique, s);
        let cores = layout.world_size();
        let seed = opts.seed ^ (s as u64) << 20;
        let cfg = AppConfig::paper_shaped(technique, opts.n, s, opts.log2_steps);
        let steps = cfg.steps();
        let victims = random_victims(&layout, 2, true, seed);
        let plan = FaultPlan::new(victims.into_iter().map(|r| (r, steps)).collect());
        let report = launch_on(ClusterProfile::opl(), ModelKind::Beta, cfg.with_plan(plan), seed);
        let paper = TABLE_I.iter().find(|&&(c, ..)| c == cores).copied().unwrap_or((
            cores,
            f64::NAN,
            f64::NAN,
            f64::NAN,
            f64::NAN,
        ));
        t.row(vec![
            cores.to_string(),
            sig3(report.get_f64(keys::T_SPAWN).unwrap()),
            sig3(paper.1),
            sig3(report.get_f64(keys::T_SHRINK).unwrap()),
            sig3(paper.2),
            sig3(report.get_f64(keys::T_AGREE).unwrap()),
            sig3(paper.3),
            sig3(report.get_f64(keys::T_MERGE).unwrap()),
            sig3(paper.4),
        ]);
    }
    vec![t]
}
