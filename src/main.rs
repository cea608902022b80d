//! `ftsg` — command-line driver for the fault-tolerant sparse-grid
//! advection solver.
//!
//! ```text
//! ftsg [--technique cr|rc|ac|bc] [--dim D] [--n N] [--l L] [--scale S]
//!      [--steps LOG2] [--problem advection|elliptic]
//!      [--fail COUNT] [--fail-at STEP] [--cluster local|opl|raijin]
//!      [--policy respawn|shrink|substitute|defer] [--spares N]
//!      [--sync-ckpt] [--spare-node] [--trace]
//!      [--trace-json FILE] [--output PREFIX] [--seed S]
//! ```
//!
//! `--output` is a 2D option: a 3D run writes no solution file (asking
//! for one is an invalid configuration). `--sync-ckpt` writes
//! Checkpoint/Restart's checkpoints on the critical path instead of
//! through the asynchronous stage, at every dimension.
//!
//! Runs one complete application: solve, (optionally) suffer real process
//! failures, detect, reconstruct, recover, combine, and report the error
//! against the analytic solution plus the virtual-time cost breakdown.

use std::sync::Arc;

use ftsg::app::app::keys;
use ftsg::app::{run_app, AppConfig, ProcLayout, RecoveryPolicy, RespawnPolicy, Technique};
use ftsg::mpi::{run, BetaUlfm, ClusterProfile, FaultPlan, RunConfig};

struct Cli {
    technique: Technique,
    dim: usize,
    problem: String,
    n: u32,
    l: u32,
    scale: usize,
    log2_steps: u32,
    failures: usize,
    fail_at: Option<u64>,
    cluster: String,
    policy: RecoveryPolicy,
    spares: usize,
    sync_ckpt: bool,
    spare_node: bool,
    trace: bool,
    output: Option<String>,
    trace_json: Option<String>,
    seed: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftsg [--technique cr|rc|ac|bc] [--dim D] [--n N] [--l L] [--scale S]\n\
         \x20           [--steps LOG2] [--problem advection|elliptic]\n\
         \x20           [--fail COUNT] [--fail-at STEP] [--cluster local|opl|raijin]\n\
         \x20           [--policy respawn|shrink|substitute|defer] [--spares N]\n\
         \x20           [--sync-ckpt] [--spare-node] [--seed S]\n\
         \x20           [--trace] [--trace-json FILE] [--output PREFIX]\n\
         --output is a 2D option: a 3D run writes no solution file (asking\n\
         for one is an invalid configuration). --sync-ckpt writes CR's\n\
         checkpoints on the critical path, at every dimension."
    );
    std::process::exit(2);
}

fn parse() -> Cli {
    let mut cli = Cli {
        technique: Technique::AlternateCombination,
        dim: 2,
        problem: "advection".into(),
        n: 9,
        l: 4,
        scale: 1,
        log2_steps: 6,
        failures: 0,
        fail_at: None,
        cluster: "local".into(),
        policy: RecoveryPolicy::Respawn,
        spares: 4,
        sync_ckpt: false,
        spare_node: false,
        trace: false,
        output: None,
        trace_json: None,
        seed: 2014,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--technique" => {
                cli.technique = match take(&mut i).to_lowercase().as_str() {
                    "cr" => Technique::CheckpointRestart,
                    "rc" => Technique::ResamplingCopying,
                    "ac" => Technique::AlternateCombination,
                    "bc" => Technique::BuddyCheckpoint,
                    _ => usage(),
                }
            }
            "--dim" => {
                cli.dim = take(&mut i).parse().unwrap_or_else(|_| usage());
                if cli.dim < 2 {
                    usage()
                }
            }
            "--problem" => cli.problem = take(&mut i).to_lowercase(),
            "--n" => cli.n = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--l" => cli.l = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--scale" => cli.scale = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => cli.log2_steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fail" => cli.failures = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--fail-at" => cli.fail_at = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--cluster" => cli.cluster = take(&mut i).to_lowercase(),
            "--policy" => {
                cli.policy = RecoveryPolicy::from_label(&take(&mut i)).unwrap_or_else(|| usage())
            }
            "--spares" => cli.spares = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--sync-ckpt" => cli.sync_ckpt = true,
            "--spare-node" => cli.spare_node = true,
            "--trace" => cli.trace = true,
            "--output" => cli.output = Some(take(&mut i)),
            "--trace-json" => cli.trace_json = Some(take(&mut i)),
            "--seed" => cli.seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    cli
}

fn main() {
    let cli = parse();
    // d >= 3 selects the generalized driver; the problem flag picks which
    // nd model problem it solves (d = 2 keeps the paper's 2D advection).
    let problem_nd = if cli.dim >= 3 {
        Some(match cli.problem.as_str() {
            "advection" => ftsg::pde::ndproblem::ProblemN::standard_advection(cli.dim),
            "elliptic" => ftsg::pde::ndproblem::ProblemN::standard_elliptic(cli.dim),
            _ => usage(),
        })
    } else {
        None
    };
    let mut cfg = AppConfig {
        dim: cli.dim,
        n: cli.n,
        l: cli.l,
        scale: cli.scale,
        technique: cli.technique,
        log2_steps: cli.log2_steps,
        plan: FaultPlan::none(),
        checkpoints: 4,
        ckpt_dir: ftsg::app::config::default_ckpt_dir(),
        ckpt_async: !cli.sync_ckpt,
        ckpt_corruption: Default::default(),
        problem: ftsg::pde::AdvectionProblem::standard(),
        problem_nd,
        simulated_lost_grids: Vec::new(),
        recovery_policy: cli.policy,
        spares: cli.spares,
        respawn_policy: if cli.spare_node {
            RespawnPolicy::SpareNode
        } else {
            RespawnPolicy::SameHost
        },
        output_prefix: cli.output.clone().map(Into::into),
        kernel: ftsg::pde::KernelConfig::global(),
        observer: None,
    };
    if let Err(e) = cfg.validate() {
        eprintln!("ftsg: invalid configuration: {e}");
        std::process::exit(2);
    }
    let (n_active, n_grids) = if cfg.dim >= 3 {
        let l =
            ftsg::app::ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
        (l.world_size(), l.system().n_grids())
    } else {
        let l = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
        (l.world_size(), l.system().n_grids())
    };
    // Spare ranks (substitute policy only) sit after the active slots;
    // victims are always drawn from the active slots.
    let world = cfg.world_size(n_active);
    if cli.failures > 0 {
        let at = cli.fail_at.unwrap_or(cfg.steps());
        cfg.plan = FaultPlan::random(cli.failures, n_active, at, cli.seed, &[]);
        println!(
            "injecting {} failure(s) at step {at}: ranks {:?}",
            cli.failures,
            cfg.plan.victim_ranks()
        );
    }

    let mut rc = match cli.cluster.as_str() {
        "local" => RunConfig::local(world).with_seed(cli.seed),
        "opl" => RunConfig::cluster(ClusterProfile::opl(), world)
            .with_seed(cli.seed)
            .with_model(Arc::new(BetaUlfm)),
        "raijin" => RunConfig::cluster(ClusterProfile::raijin(), world).with_seed(cli.seed),
        _ => usage(),
    };
    // Tracing is on by default (bounded ring); give explicit trace
    // requests a deeper buffer so big runs keep every event.
    if cli.trace || cli.trace_json.is_some() {
        rc = rc.with_trace_capacity(1 << 20);
    }

    println!(
        "ftsg: {} on {} | d={} n={} l={} scale={} -> {} grids, {} ranks, 2^{} steps",
        cfg.technique.label(),
        rc.profile.name,
        cfg.dim,
        cfg.n,
        cfg.l,
        cfg.scale,
        n_grids,
        world,
        cfg.log2_steps
    );

    let app_cfg = cfg.clone();
    let report = run(rc, move |ctx| run_app(&app_cfg, ctx));
    if !report.app_errors.is_empty() {
        eprintln!("run failed:");
        for e in &report.app_errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }

    println!("\n-- results ----------------------------------------------------");
    let g = |k: &str| report.get_f64(k).unwrap_or(f64::NAN);
    println!("combined-solution l1 error vs analytic : {:.4e}", g(keys::ERR_L1));
    println!("virtual makespan                       : {:.4} s", g(keys::T_TOTAL));
    println!("  solve phase                          : {:.4} s", g(keys::T_SOLVE));
    if cfg.technique == Technique::CheckpointRestart {
        println!("  checkpoint writes                    : {:.4} s", g(keys::T_CKPT));
        let superseded = report.get_f64(keys::CKPT_SUPERSEDED).unwrap_or(0.0);
        println!("  checkpoints superseded (unwritten)   : {superseded}");
    }
    if g(keys::N_FAILED) > 0.0 {
        println!("failures repaired                      : {}", g(keys::N_FAILED));
        println!("  failed-list creation                 : {:.4} s", g(keys::T_LIST));
        println!("  communicator reconstruction          : {:.4} s", g(keys::T_RECONSTRUCT));
        println!(
            "    shrink {:.4} s | spawn {:.4} s | merge {:.4} s | agree {:.4} s",
            g(keys::T_SHRINK),
            g(keys::T_SPAWN),
            g(keys::T_MERGE),
            g(keys::T_AGREE)
        );
        println!("  data recovery                        : {:.4} s", g(keys::T_RECOVERY));
    }
    println!("processes: {} created, {} failed", report.procs_created, report.procs_failed);

    if let Some(path) = &cli.trace_json {
        match ftsg::mpi::write_chrome_trace(&report, path) {
            Ok(()) => println!("\n[chrome trace written to {path} — open in ui.perfetto.dev]"),
            Err(e) => eprintln!("could not write trace: {e}"),
        }
    }
    if cli.trace {
        println!("\n-- virtual-time by operation (summed over ranks) ---------------");
        let mut rows: Vec<(&str, usize, f64)> =
            report.op_totals().into_iter().map(|(op, (n, t))| (op, n, t)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        for (op, n, t) in rows {
            println!("{op:>16}  x{n:<8}  {t:>12.4} s");
        }
    }
}
