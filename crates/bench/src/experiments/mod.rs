//! One module per experiment, and [`EXPERIMENTS`]: the registry that
//! `expt <name>` dispatches on, `expt --help` lists and `expt all` walks.

pub mod ablation;
pub mod alloc_sites;
pub mod ckpt;
pub mod codec;
pub mod collectives;
pub mod dim3;
pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod kernel;
pub mod overlap;
pub mod policy;
pub mod regress;
pub mod repair;
pub mod scale;
pub mod table1;
pub mod timeline;

use crate::chaos::{self, CampaignOpts};
use crate::cli::{Args, Experiment, Flags, Usage};
use crate::table::Table;
use crate::Opts;

/// [`Opts::FLAGS`] without `--reps`: sweeps that repeat no run.
const NO_REPS: Flags = "--n N --steps LOG2 --scales a,b,c --seed S --quick";
/// [`Opts::FLAGS`] without `--scales`: runs at one process scale.
const ONE_SCALE: Flags = "--n N --steps LOG2 --reps R --seed S --quick";

/// Every `expt` subcommand, in `expt --help` order. `expt all` runs the
/// entries before its own: the paper's figures and tables. Each entry
/// declares only the flags its run reads, so a flag that would change
/// nothing is a usage error; `expt all` takes all of [`Opts::FLAGS`].
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "fig8", flags: Opts::FLAGS, run: |a| figure(a, fig8::run, &["fig8.csv"]),
        help: "Fig. 8: failed-list creation and reconstruction times vs cores, 1 and 2 failures" },
    Experiment { name: "table1", flags: NO_REPS,
        run: |a| figure(a, table1::run, &["table1.csv"]),
        help: "Table I: spawn/shrink/agree/merge times at 2 failures, beside the paper's" },
    Experiment { name: "fig9", flags: ONE_SCALE,
        run: |a| figure(a, fig9::run, &["fig9a.csv", "fig9b.csv"]),
        help: "Fig. 9: data recovery overheads, raw and process-time normalized, OPL and Raijin" },
    Experiment { name: "fig10", flags: ONE_SCALE, run: |a| figure(a, fig10::run, &["fig10.csv"]),
        help: "Fig. 10: average error of the combined solution vs number of lost grids" },
    Experiment { name: "fig11", flags: Opts::FLAGS,
        run: |a| figure(a, fig11::run, &["fig11a.csv", "fig11b.csv"]),
        help: "Fig. 11: overall time and parallel efficiency vs cores, 0/1/2 failures" },
    Experiment { name: "ablation", flags: NO_REPS,
        run: |a| figure(a, ablation::run, &["ablation_respawn.csv", "ablation_ulfm.csv",
            "ablation_buddy.csv"]),
        help: "respawn placement, beta vs ideal ULFM, buddy checkpointing vs CR" },
    Experiment { name: "all", flags: Opts::FLAGS, run: all,
        help: "every experiment above in turn (the committed results/*.csv)" },
    Experiment { name: "3d", flags: dim3::Dim3Opts::FLAGS, run: dim3::main,
        help: "Figs. 9/10 at d = 3: error vs lost grids, advection-diffusion and elliptic" },
    Experiment { name: "ckpt", flags: "", run: ckpt::main,
        help: "synchronous vs asynchronous checkpointing A/B, then the checkpoint codec" },
    Experiment { name: "overlap", flags: "", run: overlap::main,
        help: "combination tree vs central gather, overlapped vs blocking halo steps" },
    Experiment { name: "kernel", flags: "--reps R --quick", run: kernel::main,
        help: "SIMD vs scalar rows and level-9 steps, 3D rows vs the closure reference" },
    Experiment { name: "policy", flags: ONE_SCALE, run: policy::main,
        help: "recovery-policy matrix: overhead vs error vs makespan per technique" },
    Experiment { name: "timeline", flags: "--seed S --json PATH --alloc-sites WORKLOAD",
        run: timeline::main,
        help: "per-phase recovery timelines, ULFM op-count audit, repair ledger" },
    Experiment { name: "chaos", flags: CampaignOpts::FLAGS, run: chaos::main,
        help: "fault-injection campaign with invariant oracles and case minimization" },
    Experiment { name: "scale", flags: scale::FLAGS, run: scale::main,
        help: "pooled vs thread-per-rank runtime at ~1k/10k/100k simulated ranks" },
    Experiment { name: "regress", flags: "--dir PATH --iters K --exact", run: regress::main,
        help: "re-measure every gated quantity against its committed BENCH_*.json" },
];

/// A paper figure: print its tables and save table `i` as `csvs[i]`.
fn figure(a: &Args, run: fn(&Opts) -> Vec<Table>, csvs: &[&str]) -> Result<i32, Usage> {
    let tables = run(&Opts::from_args(a)?);
    assert_eq!(tables.len(), csvs.len(), "one CSV per table");
    for (t, csv) in tables.iter().zip(csvs) {
        t.emit(a.csv(csv));
    }
    Ok(0)
}

/// `expt all`: every entry before this one, with the same flags.
fn all(a: &Args) -> Result<i32, Usage> {
    let opts = Opts::from_args(a)?;
    println!(
        "ftsg experiment suite: n={}, l={}, 2^{} steps, scales {:?}, {} reps{}\n",
        opts.n,
        opts.l(),
        opts.log2_steps,
        opts.scales,
        opts.reps,
        if opts.quick { " (quick)" } else { "" }
    );
    let t0 = std::time::Instant::now();
    for e in EXPERIMENTS.iter().take_while(|e| e.name != "all") {
        (e.run)(a)?;
    }
    println!("all experiments finished in {:.1?} (real time)", t0.elapsed());
    Ok(0)
}
