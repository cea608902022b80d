//! `expt policy` — the recovery-policy matrix: per-failure-count recovery
//! overhead vs combined-solution error vs virtual makespan, across every
//! `RecoveryPolicy` × technique pair.
//!
//! Every `(technique, failures, rep)` cell reuses the *same* victim set
//! under all four policies (the policy never enters the sampling seed),
//! so the rows are directly comparable: what you pay (makespan overhead)
//! and what you get (solution accuracy, final world size) for each way of
//! answering a failure. Two cross-policy invariants are asserted while
//! sweeping — `DeferRepair` and `SpareSubstitute` must reproduce the
//! `Respawn` solution *bitwise* (same restore sources, same deterministic
//! recompute), while `ShrinkRedistribute` trades accuracy for repair-free
//! continuation.

use std::collections::HashMap;
use std::time::Duration;

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, RecoveryPolicy, Technique};
use ulfm_sim::{FaultPlan, Report, RunConfig};

use crate::chaos::CHAOS_SPARES;
use crate::cli::{Args, Usage};
use crate::opts::Opts;
use crate::runner::random_victims;
use crate::table::{sig3, Table};

/// Failure counts swept per policy × technique cell.
pub const FAILURE_COUNTS: [usize; 4] = [0, 1, 2, 3];

/// One aggregated cell of the matrix (means over `reps` victim draws).
#[derive(Debug, Clone)]
pub struct PolicyRow {
    pub policy: &'static str,
    pub technique: &'static str,
    pub failures: usize,
    /// Mean virtual makespan (s).
    pub makespan: f64,
    /// Mean makespan minus this policy × technique's 0-failure makespan.
    pub overhead: f64,
    /// Mean combined-solution l1 error.
    pub err: f64,
    /// Mean final communicator size.
    pub world_end: f64,
}

/// Whole-sweep outcome.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    pub rows: Vec<PolicyRow>,
    pub n: u32,
    pub l: u32,
    pub log2_steps: u32,
    pub reps: usize,
    /// `substitute overhead / respawn overhead`, averaged over techniques
    /// at the highest failure count — the promote-don't-spawn payoff.
    pub substitute_overhead_ratio: f64,
    /// Same ratio for `ShrinkRedistribute` (no restore, no spawn).
    pub shrink_overhead_ratio: f64,
}

fn launch(cfg: AppConfig, seed: u64) -> Report {
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let world = cfg.world_size(layout.world_size());
    let mut rc = RunConfig::local(world).with_seed(seed);
    rc.stall_timeout = Duration::from_secs(120);
    let report = ulfm_sim::run(rc, move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

/// Run the sweep. Victim sets depend on `(technique, failures, rep)` only.
pub fn run(opts: &Opts) -> PolicyReport {
    let techniques = [
        Technique::CheckpointRestart,
        Technique::ResamplingCopying,
        Technique::AlternateCombination,
        Technique::BuddyCheckpoint,
    ];
    let reps = opts.reps.clamp(1, 3);
    let mut rows = Vec::new();
    // err bits per (policy, technique, failures, rep) — for the bitwise
    // cross-policy assertions.
    let mut err_bits: HashMap<(&'static str, &'static str, usize, usize), u64> = HashMap::new();
    for technique in techniques {
        let layout = opts.layout(technique, 1);
        let steps = 1u64 << opts.log2_steps;
        for policy in RecoveryPolicy::all() {
            let mut zero_makespan = f64::NAN;
            for failures in FAILURE_COUNTS {
                let cell_reps = if failures == 0 { 1 } else { reps };
                let (mut mk, mut ov, mut er, mut we) = (0.0, 0.0, 0.0, 0.0);
                for rep in 0..cell_reps {
                    let seed = opts.seed ^ (failures as u64) << 16 ^ (rep as u64) << 4;
                    let plan = if failures == 0 {
                        FaultPlan::none()
                    } else {
                        // Mid-run kills spread evenly over the schedule;
                        // the same victims under every policy.
                        let victims = random_victims(
                            &layout,
                            failures,
                            technique == Technique::ResamplingCopying,
                            seed,
                        );
                        FaultPlan::new(
                            victims
                                .into_iter()
                                .enumerate()
                                .map(|(j, r)| (r, (j as u64 + 1) * steps / (failures as u64 + 1)))
                                .collect(),
                        )
                    };
                    let mut cfg = AppConfig::paper_shaped(technique, opts.n, 1, opts.log2_steps)
                        .with_recovery_policy(policy)
                        .with_plan(plan);
                    if policy == RecoveryPolicy::SpareSubstitute {
                        cfg = cfg.with_spares(CHAOS_SPARES);
                    }
                    let report = launch(cfg, opts.seed);
                    let err = report.get_f64(keys::ERR_L1).expect("err_l1");
                    err_bits
                        .insert((policy.label(), technique.label(), failures, rep), err.to_bits());
                    mk += report.makespan;
                    er += err;
                    we += report.get_f64(keys::WORLD).expect("world");
                }
                mk /= cell_reps as f64;
                er /= cell_reps as f64;
                we /= cell_reps as f64;
                if failures == 0 {
                    zero_makespan = mk;
                } else {
                    ov = mk - zero_makespan;
                }
                rows.push(PolicyRow {
                    policy: policy.label(),
                    technique: technique.label(),
                    failures,
                    makespan: mk,
                    overhead: ov,
                    err: er,
                    world_end: we,
                });
            }
        }
    }
    // Cross-policy invariants: defer and substitute reproduce the respawn
    // solution bitwise for every technique, failure count, and draw.
    for (&(policy, tech, failures, rep), &bits) in &err_bits {
        if policy == "defer" || policy == "substitute" {
            let respawn = err_bits[&("respawn", tech, failures, rep)];
            assert_eq!(
                bits, respawn,
                "{policy} err bits diverge from respawn for {tech} f={failures} rep={rep}"
            );
        }
    }
    let ratio_of = |policy: &str| {
        let max_f = *FAILURE_COUNTS.last().unwrap();
        let mut num = 0.0;
        let mut den = 0.0;
        for row in &rows {
            if row.failures == max_f {
                if row.policy == policy {
                    num += row.overhead;
                } else if row.policy == "respawn" {
                    den += row.overhead;
                }
            }
        }
        num / den
    };
    let substitute_overhead_ratio = ratio_of("substitute");
    let shrink_overhead_ratio = ratio_of("shrink");
    PolicyReport {
        rows,
        n: opts.n,
        l: opts.l(),
        log2_steps: opts.log2_steps,
        reps,
        substitute_overhead_ratio,
        shrink_overhead_ratio,
    }
}

impl PolicyReport {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Recovery-policy matrix (n={}, l={}, 2^{} steps, {} draw(s) per cell)",
                self.n, self.l, self.log2_steps, self.reps
            ),
            &["policy", "technique", "failures", "makespan(s)", "overhead(s)", "err_l1", "world"],
        );
        for r in &self.rows {
            t.row(vec![
                r.policy.into(),
                r.technique.into(),
                r.failures.to_string(),
                sig3(r.makespan),
                sig3(r.overhead),
                format!("{:.3e}", r.err),
                format!("{:.1}", r.world_end),
            ]);
        }
        t
    }
}

/// `expt policy`: the matrix and `results/policy.csv`. The cross-policy
/// invariants are asserted while sweeping; no record is written (the
/// committed `BENCH_pr7.json` is history that no gate reads).
pub fn main(a: &Args) -> Result<i32, Usage> {
    let report = run(&Opts::from_args(a)?);
    report.table().emit(a.csv("policy.csv"));
    println!(
        "overhead vs respawn at {} failures: substitute {:.2}x, shrink {:.2}x",
        FAILURE_COUNTS.last().unwrap(),
        report.substitute_overhead_ratio,
        report.shrink_overhead_ratio,
    );
    Ok(0)
}
