//! `expt scale` — runtime scalability sweep: wall-clock-per-simulated-step
//! and peak RSS of Fig-8-style failure/recovery runs at ~1k/10k/100k
//! simulated ranks, pooled cooperative scheduler versus the legacy
//! thread-per-rank escape hatch.
//!
//! The interesting quantity is *simulator* cost, not model output: the
//! same Resampling-and-Copying layout, beta-ULFM model and single
//! injected failure as Fig. 8, but swept over process scales `s` where
//! the RC world size `19s` reaches 1007, 10013 and 100700 ranks. Each
//! configuration runs in its own child process (a re-exec of this binary
//! as `expt scale --child …`) so that
//!
//! 1. `VmHWM` in `/proc/self/status` is an honest per-configuration peak,
//! 2. a thread-per-rank attempt that cannot finish — thread spawn failing
//!    outright at 100k, or crawling under oversubscription — is bounded
//!    by a parent-side timeout and recorded as a DNF instead of wedging
//!    the sweep.
//!
//! Results land in `target/expt/BENCH_pr6.json` (machine-readable rows +
//! summary against the ≥10x-ranks / ≥2x-wall targets) and
//! `results/scale.csv`.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, RecoveryPolicy, Technique};
use ulfm_sim::{run, ClusterProfile, FaultPlan, RunConfig};

use crate::chaos::CHAOS_SPARES;
use crate::cli::{list, Args, Flags, Usage};
use crate::runner::random_victims;
use crate::stamp::nproc;
use crate::table::{sig3, Table};

/// Sweep sizing and orchestration knobs (see `expt scale --help`).
#[derive(Debug, Clone)]
pub struct ScaleOpts {
    /// RC process scales to sweep; world size is `19s`.
    pub scales: Vec<usize>,
    /// Full grid size `n` (9 keeps the real numerics trivial next to the
    /// scheduling cost being measured, while every group still fits its
    /// sub-grid's process-grid factorization at `s = 5300`).
    pub n: u32,
    /// `log2` of the timestep count.
    pub log2_steps: u32,
    /// Real failures injected just before the final detection point.
    pub failures: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-child wall-clock budget; exceeding it records a DNF row.
    pub timeout: Duration,
    /// Run only the thread-per-rank escape hatch (CI smoke of the
    /// fallback path).
    pub threads_only: bool,
    /// `--quick`: smallest scale only, fewer steps, pooled only (or
    /// threads only when combined with `threads_only`).
    pub quick: bool,
    /// Worker count for the pooled scheduler (0 = available parallelism).
    pub workers: usize,
    /// Fiber/thread stack size in KiB.
    pub stack_kb: usize,
    /// Recovery policy applied by the app on every injected failure.
    pub policy: RecoveryPolicy,
}

impl Default for ScaleOpts {
    fn default() -> Self {
        ScaleOpts {
            scales: vec![53, 527, 5300],
            n: 9,
            log2_steps: 4,
            failures: 1,
            seed: 2014,
            timeout: Duration::from_secs(900),
            threads_only: false,
            quick: false,
            workers: 0,
            stack_kb: 1024,
            policy: RecoveryPolicy::Respawn,
        }
    }
}

/// The flags of `expt scale`: the sweep's, then the internal `--child`
/// and the two only a child takes.
pub const FLAGS: Flags = "--quick --threads-per-rank --scales a,b,c --n N --steps LOG2 \
    --failures F --seed S --workers W --stack-kb K --policy respawn|shrink|substitute|defer \
    --timeout-secs T --child --s S --mode pooled|threads";

impl ScaleOpts {
    pub fn from_args(a: &Args) -> Result<Self, Usage> {
        let d = ScaleOpts::default();
        let mut o = ScaleOpts {
            scales: a.get_with("--scales", list)?.unwrap_or(d.scales),
            n: a.get_or("--n", d.n)?,
            log2_steps: a.get_or("--steps", d.log2_steps)?,
            failures: a.get_or("--failures", d.failures)?,
            seed: a.get_or("--seed", d.seed)?,
            timeout: a.get_with("--timeout-secs", secs)?.unwrap_or(d.timeout),
            threads_only: a.has("--threads-per-rank"),
            quick: false,
            workers: a.get_or("--workers", d.workers)?,
            stack_kb: a.get_or("--stack-kb", d.stack_kb)?,
            policy: a.get_with("--policy", RecoveryPolicy::from_label)?.unwrap_or(d.policy),
        };
        if a.quick() {
            o.apply_quick();
        }
        a.check_levels(o.n, L)?;
        Ok(o)
    }

    /// Shrink to the CI smoke shape: ~1k ranks, 4 steps, tight timeout.
    pub fn apply_quick(&mut self) {
        self.scales = vec![53];
        self.log2_steps = 2;
        self.timeout = Duration::from_secs(300);
        self.quick = true;
    }

    /// The pooled configuration at process scale `s`.
    fn spec(&self, s: usize) -> ChildSpec {
        let (n, log2_steps, failures, seed) = (self.n, self.log2_steps, self.failures, self.seed);
        let (workers, stack_kb, policy) = (self.workers, self.stack_kb, self.policy);
        ChildSpec { n, s, log2_steps, failures, seed, threads: false, workers, stack_kb, policy }
    }
}

/// The RC combination level every configuration runs at.
const L: u32 = 4;

fn secs(v: &str) -> Option<Duration> {
    v.parse().ok().map(Duration::from_secs)
}

/// `expt scale`: the sweep (`BENCH_pr6.json`, `results/scale.csv`), or
/// with `--child` one configuration of it, whose result row goes to
/// stdout for the parent to parse.
pub fn main(a: &Args) -> Result<i32, Usage> {
    let child = a.has("--child");
    let (misplaced, with): (&[&str], _) = match child {
        true => (&["--quick", "--threads-per-rank", "--scales", "--timeout-secs"], "without"),
        false => (&["--s", "--mode"], "with"),
    };
    if let Some(f) = misplaced.iter().find(|f| a.has(f)) {
        return Err(a.usage(format!("{f} is only taken {with} --child")));
    }
    if !child {
        return Ok(orchestrate(&ScaleOpts::from_args(a)?, a));
    }
    println!("{}", run_child(&child_spec(a)?));
    Ok(0)
}

/// The configuration a `--child` command line names.
fn child_spec(a: &Args) -> Result<ChildSpec, Usage> {
    let o = ScaleOpts::from_args(a)?;
    let threads = a.get_with("--mode", |m| Some(m == "threads"))?.unwrap_or(false);
    Ok(ChildSpec { threads, ..o.spec(a.get_or("--s", o.scales[0])?) })
}

/// One child configuration, round-trippable through argv.
#[derive(Debug, Clone, Copy)]
pub struct ChildSpec {
    pub n: u32,
    pub s: usize,
    pub log2_steps: u32,
    pub failures: usize,
    pub seed: u64,
    pub threads: bool,
    pub workers: usize,
    pub stack_kb: usize,
    pub policy: RecoveryPolicy,
}

impl ChildSpec {
    /// The child's command line: this subcommand, `--child`, and every
    /// field.
    fn argv(&self) -> Vec<String> {
        let ChildSpec { n, s, log2_steps, failures, seed, workers, stack_kb, policy, .. } = *self;
        let (mode, policy) = (self.mode(), policy.label());
        format!(
            "scale --child --n {n} --s {s} --steps {log2_steps} --failures {failures} --seed {seed} \
             --mode {mode} --workers {workers} --stack-kb {stack_kb} --policy {policy}"
        )
        .split(' ')
        .map(String::from)
        .collect()
    }

    fn mode(&self) -> &'static str {
        if self.threads {
            "threads"
        } else {
            "pooled"
        }
    }

    /// Worker count this configuration actually runs with: the world size
    /// under thread-per-rank, the machine's available parallelism when the
    /// pooled count was left at 0. Shared by the child's result row and
    /// the parent's DNF synthesizer so both echo the same number.
    fn resolved_workers(&self, world: usize) -> usize {
        if self.threads {
            world
        } else if self.workers == 0 {
            nproc()
        } else {
            self.workers
        }
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// (`None` off Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

fn json_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.6}"),
        None => "null".into(),
    }
}

/// Run one configuration in-process and return its result row as a JSON
/// object on a single line. This is the `--child` entry point: the
/// parent parses the line, so the schema tag comes first.
pub fn run_child(spec: &ChildSpec) -> String {
    let technique = Technique::ResamplingCopying;
    let layout = ProcLayout::new(spec.n, L, technique.layout(), spec.s);
    let mut cfg = AppConfig::paper_shaped(technique, spec.n, spec.s, spec.log2_steps)
        .with_recovery_policy(spec.policy);
    if spec.policy == RecoveryPolicy::SpareSubstitute {
        cfg = cfg.with_spares(CHAOS_SPARES);
    }
    // Spare ranks (substitute only) sit after the layout's active slots.
    let world = cfg.world_size(layout.world_size());
    let steps = cfg.steps();
    let victims = random_victims(&layout, spec.failures, true, spec.seed);
    let plan = FaultPlan::new(victims.into_iter().map(|r| (r, steps)).collect());
    let cfg = cfg.with_plan(plan);

    let mut rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(spec.seed);
    rc.stall_timeout = Duration::from_secs(600);
    rc.stack_size = spec.stack_kb << 10;
    rc = if spec.threads { rc.with_thread_per_rank() } else { rc.with_workers(spec.workers) };

    let workers = spec.resolved_workers(world);

    let t0 = Instant::now();
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    let wall = t0.elapsed().as_secs_f64();
    report.assert_no_app_errors();

    format!(
        concat!(
            r#"{{"schema":"scale-row-v2","status":"ok","mode":"{mode}","policy":"{policy}","#,
            r#""ranks":{ranks},"workers":{workers},"n":{n},"s":{s},"steps":{steps},"#,
            r#""failures":{failures},"seed":{seed},"stack_kb":{stack_kb},"#,
            r#""wall_s":{wall:.6},"wall_per_step_ms":{wps:.6},"#,
            r#""peak_rss_mb":{rss},"sim_makespan_s":{mk:.6},"#,
            r#""t_list_s":{tl},"t_reconstruct_s":{tr},"t_recovery_s":{tv}}}"#
        ),
        mode = spec.mode(),
        policy = spec.policy.label(),
        ranks = world,
        workers = workers,
        n = spec.n,
        s = spec.s,
        steps = steps,
        failures = spec.failures,
        seed = spec.seed,
        stack_kb = spec.stack_kb,
        wall = wall,
        wps = wall * 1e3 / steps as f64,
        rss = json_opt(peak_rss_kb().map(|kb| kb as f64 / 1024.0)),
        mk = report.makespan,
        tl = json_opt(report.get_f64(keys::T_LIST)),
        tr = json_opt(report.get_f64(keys::T_RECONSTRUCT)),
        tv = json_opt(report.get_f64(keys::T_RECOVERY)),
    )
}

/// Extract a numeric field from one of our own flat JSON rows. Good
/// enough because every value we emit is a bare number or `null`.
pub(crate) fn json_num(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = obj.find(&pat)? + pat.len();
    let rest = obj[i..].trim_start();
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

pub(crate) fn json_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let i = obj.find(&pat)? + pat.len();
    let rest = &obj[i..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Spawn one child configuration, enforce the timeout, and return its
/// result row (a DNF/failed row is synthesized when the child dies or
/// overruns).
fn run_one(exe: &std::path::Path, spec: &ChildSpec, ranks: usize, timeout: Duration) -> String {
    // A DNF/failed row echoes the *full* child configuration — mode,
    // workers, steps, stack size, recovery policy — so a sweep that only
    // produced DNFs at some scale is still attributable from the JSON
    // alone (the nightly matrix relies on this).
    let dnf = |status: &str| {
        format!(
            concat!(
                r#"{{"schema":"scale-row-v2","status":"{status}","mode":"{mode}","#,
                r#""policy":"{policy}","ranks":{ranks},"workers":{workers},"n":{n},"s":{s},"#,
                r#""steps":{steps},"failures":{failures},"seed":{seed},"stack_kb":{stack_kb}}}"#
            ),
            status = status,
            mode = spec.mode(),
            policy = spec.policy.label(),
            ranks = ranks,
            workers = spec.resolved_workers(ranks),
            n = spec.n,
            s = spec.s,
            steps = 1u64 << spec.log2_steps,
            failures = spec.failures,
            seed = spec.seed,
            stack_kb = spec.stack_kb,
        )
    };
    let child =
        Command::new(exe).args(spec.argv()).stdout(Stdio::piped()).stderr(Stdio::inherit()).spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            eprintln!("expt scale: cannot spawn child: {e}");
            return dnf("failed_spawn");
        }
    };
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if Instant::now() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    eprintln!(
                        "expt scale: {} ranks ({}) exceeded {}s — recorded as DNF",
                        ranks,
                        spec.mode(),
                        timeout.as_secs()
                    );
                    return dnf(&format!("dnf_timeout_{}s", timeout.as_secs()));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => {
                eprintln!("expt scale: wait failed: {e}");
                let _ = child.kill();
                return dnf("failed_wait");
            }
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        use std::io::Read as _;
        let _ = stdout.read_to_string(&mut out);
    }
    if !status.success() {
        // Thread-per-rank at large scale dies in spawn (`Resource
        // temporarily unavailable`) — the expected "old runtime can't
        // launch this" outcome.
        return dnf(&format!("failed_exit_{}", status.code().unwrap_or(-1)));
    }
    out.lines()
        .find(|l| l.trim_start().starts_with(r#"{"schema":"scale-row-v2""#))
        .map(|l| l.trim().to_string())
        .unwrap_or_else(|| dnf("failed_no_output"))
}

/// Run the sweep, write `BENCH_pr6.json` and the CSV table, and return
/// the process exit code (0 when every pooled configuration finished).
pub fn orchestrate(o: &ScaleOpts, a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("expt scale: current_exe: {e}");
            return 2;
        }
    };
    let mut specs: Vec<ChildSpec> = Vec::new();
    for &s in &o.scales {
        let base = o.spec(s);
        if !o.threads_only {
            specs.push(base);
        }
        if o.threads_only || !o.quick {
            specs.push(ChildSpec { threads: true, ..base });
        }
    }

    let mut table = Table::new(
        format!(
            "Scale sweep: pooled vs thread-per-rank (n={}, 2^{} steps, {} failure(s), policy={})",
            o.n, o.log2_steps, o.failures, o.policy
        ),
        &[
            "mode",
            "ranks",
            "workers",
            "wall(s)",
            "wall/step(ms)",
            "peak RSS(MB)",
            "t_list(s)",
            "t_reconstruct(s)",
            "status",
        ],
    );
    let mut rows: Vec<String> = Vec::new();
    for spec in &specs {
        let ranks =
            ProcLayout::new(spec.n, L, Technique::ResamplingCopying.layout(), spec.s).world_size();
        eprintln!("expt scale: {} ranks, mode={} ...", ranks, spec.mode());
        let row = run_one(&exe, spec, ranks, o.timeout);
        let status = json_str(&row, "status").unwrap_or_else(|| "unparsed".into());
        table.row(vec![
            spec.mode().into(),
            ranks.to_string(),
            json_num(&row, "workers").map(|w| (w as u64).to_string()).unwrap_or_else(|| "-".into()),
            json_num(&row, "wall_s").map(sig3).unwrap_or_else(|| "-".into()),
            json_num(&row, "wall_per_step_ms").map(sig3).unwrap_or_else(|| "-".into()),
            json_num(&row, "peak_rss_mb").map(sig3).unwrap_or_else(|| "-".into()),
            json_num(&row, "t_list_s").map(sig3).unwrap_or_else(|| "-".into()),
            json_num(&row, "t_reconstruct_s").map(sig3).unwrap_or_else(|| "-".into()),
            status,
        ]);
        rows.push(row);
    }

    // Summary against the PR's two targets: pooled launches ≥10x the
    // ranks the thread runtime manages, and ≥2x lower wall-clock at the
    // smallest (~1k) scale.
    let ok = |r: &&String| json_str(r, "status").as_deref() == Some("ok");
    let max_ranks = |mode: &str| -> u64 {
        rows.iter()
            .filter(ok)
            .filter(|r| json_str(r, "mode").as_deref() == Some(mode))
            .filter_map(|r| json_num(r, "ranks"))
            .fold(0.0, f64::max) as u64
    };
    let wall_at_smallest = |mode: &str| -> Option<f64> {
        let s0 = *o.scales.iter().min()?;
        rows.iter()
            .filter(ok)
            .filter(|r| {
                json_str(r, "mode").as_deref() == Some(mode) && json_num(r, "s") == Some(s0 as f64)
            })
            .filter_map(|r| json_num(r, "wall_s"))
            .next()
    };
    let (mp, mt) = (max_ranks("pooled"), max_ranks("threads"));
    let (wp, wt) = (wall_at_smallest("pooled"), wall_at_smallest("threads"));
    let speedup = match (wp, wt) {
        (Some(p), Some(t)) if p > 0.0 => Some(t / p),
        _ => None,
    };
    let rank_ratio = if mt > 0 { Some(mp as f64 / mt as f64) } else { None };

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"BENCH_pr6\",\n",
            "  \"experiment\": \"expt-scale\",\n",
            "  \"config\": {{\"n\": {n}, \"log2_steps\": {k}, \"failures\": {f}, ",
            "\"seed\": {seed}, \"timeout_s\": {to}, \"smoke\": {smoke}, ",
            "\"policy\": \"{policy}\", \"workers\": {workers}, \"stack_kb\": {stack_kb}}},\n",
            "  \"rows\": [\n    {rows}\n  ],\n",
            "  \"summary\": {{\n",
            "    \"max_ok_ranks_pooled\": {mp},\n",
            "    \"max_ok_ranks_threads\": {mt},\n",
            "    \"rank_ratio_pooled_over_threads\": {ratio},\n",
            "    \"wall_smallest_pooled_s\": {wp},\n",
            "    \"wall_smallest_threads_s\": {wt},\n",
            "    \"speedup_smallest_threads_over_pooled\": {sp},\n",
            "    \"target_ranks_10x\": {t10},\n",
            "    \"target_wall_2x\": {t2}\n",
            "  }}\n",
            "}}\n"
        ),
        n = o.n,
        k = o.log2_steps,
        f = o.failures,
        seed = o.seed,
        to = o.timeout.as_secs(),
        smoke = o.quick,
        policy = o.policy.label(),
        workers = o.workers,
        stack_kb = o.stack_kb,
        rows = rows.join(",\n    "),
        mp = mp,
        mt = mt,
        ratio = json_opt(rank_ratio),
        wp = json_opt(wp),
        wt = json_opt(wt),
        sp = json_opt(speedup),
        t10 = rank_ratio.map(|r| r >= 10.0).unwrap_or(mp > 0 && mt == 0),
        t2 = speedup.map(|s| s >= 2.0).unwrap_or(false),
    );
    a.record("BENCH_pr6.json", &json);
    table.emit(a.csv("scale.csv"));
    if let Some(s) = speedup {
        println!("speedup at smallest scale (threads/pooled): {:.2}x", s);
    }
    println!("max ranks completed: pooled={mp} threads={mt}");

    let pooled_all_ok = o.threads_only
        || rows
            .iter()
            .filter(|r| json_str(r, "mode").as_deref() == Some("pooled"))
            .all(|r| json_str(r, "status").as_deref() == Some("ok"));
    let threads_smallest_ok = !o.threads_only || wall_at_smallest("threads").is_some();
    if pooled_all_ok && threads_smallest_ok {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spec_argv_roundtrips_mode() {
        let spec = ChildSpec {
            n: 9,
            s: 53,
            log2_steps: 2,
            failures: 1,
            seed: 7,
            threads: true,
            workers: 0,
            stack_kb: 1024,
            policy: RecoveryPolicy::ShrinkRedistribute,
        };
        let argv = spec.argv();
        // The child is this same binary: without the subcommand in front
        // it would run something else, or nothing.
        assert_eq!(argv[..2], ["scale", "--child"]);
        let parsed = crate::cli::parse(&argv).expect("the child's argv parses");
        assert_eq!(parsed.experiment.name, "scale");
        let back = child_spec(&parsed).unwrap();
        assert!(back.threads);
        assert_eq!((back.n, back.s, back.log2_steps, back.seed), (9, 53, 2, 7));
        assert_eq!(back.policy, RecoveryPolicy::ShrinkRedistribute);
        assert!(argv.windows(2).any(|w| w == ["--mode", "threads"]));
        assert!(argv.windows(2).any(|w| w == ["--policy", "shrink"]));
    }

    #[test]
    fn json_helpers_parse_own_rows() {
        let row = r#"{"schema":"scale-row-v2","status":"ok","mode":"pooled","ranks":1007,"wall_s":1.5,"peak_rss_mb":null}"#;
        assert_eq!(json_num(row, "ranks"), Some(1007.0));
        assert_eq!(json_num(row, "wall_s"), Some(1.5));
        assert_eq!(json_num(row, "peak_rss_mb"), None);
        assert_eq!(json_str(row, "mode").as_deref(), Some("pooled"));
    }

    #[test]
    fn smoke_shrinks_to_smallest_scale() {
        let mut o = ScaleOpts::default();
        o.apply_quick();
        assert_eq!(o.scales, vec![53]);
        assert!(o.log2_steps <= 2);
    }

    /// The sweep's child configuration really runs end to end at a tiny
    /// scale (s=2 → 38 ranks): this is the in-tree guard that the
    /// orchestrated path stays wired to the app.
    #[test]
    fn tiny_child_run_reports_recovery_times() {
        let spec = ChildSpec {
            n: 7,
            s: 2,
            log2_steps: 2,
            failures: 1,
            seed: 2014,
            threads: false,
            workers: 1,
            stack_kb: 1024,
            policy: RecoveryPolicy::Respawn,
        };
        let row = run_child(&spec);
        assert_eq!(json_str(&row, "status").as_deref(), Some("ok"));
        assert_eq!(json_num(&row, "ranks"), Some(38.0));
        assert_eq!(json_str(&row, "policy").as_deref(), Some("respawn"));
        assert_eq!(json_num(&row, "stack_kb"), Some(1024.0));
        assert!(json_num(&row, "t_list_s").is_some(), "row: {row}");
        assert!(json_num(&row, "t_reconstruct_s").is_some(), "row: {row}");
    }

    /// The shrink policy survives the orchestrated child path: the world
    /// shrinks by the failure count and the row still echoes the full
    /// configuration (the nightly matrix runs exactly this shape).
    #[test]
    fn tiny_child_run_honors_shrink_policy() {
        let spec = ChildSpec {
            n: 7,
            s: 2,
            log2_steps: 2,
            failures: 1,
            seed: 2014,
            threads: false,
            workers: 1,
            stack_kb: 1024,
            policy: RecoveryPolicy::ShrinkRedistribute,
        };
        let row = run_child(&spec);
        assert_eq!(json_str(&row, "status").as_deref(), Some("ok"), "row: {row}");
        assert_eq!(json_str(&row, "policy").as_deref(), Some("shrink"));
        assert_eq!(json_num(&row, "ranks"), Some(38.0));
    }
}
