//! Deterministic fault-injection campaigns with invariant oracles and
//! failing-case minimization (the `expt chaos` engine).
//!
//! A *campaign* samples `budget` cases from a seeded RNG, cycling through
//! the four techniques and the three fault-site kinds (step boundary,
//! operation site, during recovery), runs each case **in-process** on the
//! simulated runtime, and checks four invariant oracles against a cached
//! no-failure baseline of the same shape:
//!
//! * **O1 — completion.** The run finishes with no application errors and
//!   a reported error value. Deadlocks cannot hang the campaign: the
//!   runtime's bounded stall watchdog turns a wedged collective into a
//!   `CollectiveMismatch` application error, and the virtual-time budget
//!   (O4) catches livelock.
//! * **O2 — placement.** The final rank→host and rank→grid maps equal the
//!   no-failure run's: reconstruction restored the original rank order
//!   and the paper's same-host load balance.
//! * **O3 — error envelope.** The combined-solution l1 error is within
//!   the technique's envelope vs baseline: Checkpoint/Restart and Buddy
//!   recomputation must be **bitwise identical**; Resampling-and-Copying
//!   and Alternate Combination must stay within a constant factor (the
//!   Fig. 10 robustness claim). A case whose sites never fired must match
//!   the baseline bitwise for every technique.
//! * **O4 — virtual-time budget.** The makespan stays within a generous
//!   multiple of the baseline: recovery may be expensive, but never
//!   unbounded.
//! * **O5 — timeline.** Every injected failure event surfaces as a
//!   [`RecoveryTimeline`] whose per-phase durations are non-negative and
//!   sum (within `1e-9`) to the event's measured recovery window.
//! * **O6 — restart integrity.** Checkpoint-file corruption (bit flips,
//!   torn writes, trashed headers — injected via the store's
//!   [`CorruptionPlan`]) must never be consumed silently: when the run
//!   reports the strike actually landed on disk (`ckpt_corrupt_applied`
//!   — a targeted write that a later checkpoint or the recovery barrier
//!   supersedes on the virtual clock never lands), a restart positioned to
//!   read the damaged file has to report it as skipped
//!   (`ckpt_skipped_corrupt ≥ 1`) and fall back to an older checkpoint —
//!   O3's bitwise check then proves the restored data is right.
//!   Conversely a run with *no* injected corruption must never report
//!   skipped files (the store must not corrupt its own writes). Every
//!   fifth campaign case is a corruption case (CR, one step kill landing
//!   inside the corrupted checkpoint's live window); `--no-corrupt` and
//!   `--corrupt-only` adjust the mix.
//!
//! Failing cases are shrunk greedily — drop failures one at a time, halve
//! the step count, reduce the combination level — re-running the oracles
//! after each candidate reduction, and emitted as one-line repro specs
//! (`CR/n6l3s1k5c2/3@step:16+5@op:gather:1`) that `expt chaos --repro`
//! replays exactly. With `--artifacts DIR`, every shrunk repro is re-run
//! once more to attach a Chrome trace and a timeline JSON to the report.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use ftsg_core::app::keys;
use ftsg_core::{
    run_app, AppConfig, CorruptKind, CorruptionPlan, CorruptionStrike, ProcLayout, ProcLayoutN,
    RecoveryPolicy, Technique,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ulfm_sim::{
    run, timelines_to_json, write_chrome_trace, FaultPlan, FaultSite, OpClass, RecoveryTimeline,
    Report, RunConfig,
};

use crate::cli::{Args, Flags, Usage};
use crate::runner::violates_rc;

/// Default campaign size (`--budget`).
pub const DEFAULT_BUDGET: usize = 200;
/// Default campaign seed (`--seed`).
pub const DEFAULT_SEED: u64 = 1;
/// Default per-run stall watchdog (`--stall-secs`).
pub const DEFAULT_STALL_SECS: u64 = 30;

/// RC/AC error envelope: recovered-run l1 error must stay within this
/// factor of the no-failure baseline (generous multi-failure version of
/// the paper's Fig. 10 single-failure factor-10 observation).
pub const APPROX_ENVELOPE: f64 = 64.0;
/// O3 envelope for `ShrinkRedistribute`: the run continues *without* the
/// dropped grids, so the combined solution degrades with every loss —
/// the robust combination must still keep the absolute l1 error under
/// this cap (campaigns with up to 3 victims on the small shape measure
/// ≤ ~0.11; the cap leaves generous headroom while still catching a
/// blown combination, whose error is O(1)).
pub const SHRINK_ERR_CAP: f64 = 0.5;
/// `"recovery"` cases strike one of the first this-many operations inside
/// the recovery scopes: the repair's five (shrink, spawn, merge, agree,
/// reorder split under respawn), the data recovery's metadata broadcast
/// and group split, and the first restore transfers on grid owners.
pub const RECOVERY_REACH: u64 = 12;
/// Spares provisioned for every `SpareSubstitute` chaos case. Campaign
/// cases inject at most 3 failures, so promotion never runs out and the
/// spawn fallback stays a deliberate (separately tested) path.
pub const CHAOS_SPARES: usize = 4;
/// O4: makespan must stay under `base * MAKESPAN_FACTOR + MAKESPAN_SLACK`
/// virtual seconds.
pub const MAKESPAN_FACTOR: f64 = 50.0;
/// See [`MAKESPAN_FACTOR`].
pub const MAKESPAN_SLACK: f64 = 1e4;

/// The four techniques in campaign rotation order (the paper's three plus
/// the Buddy Checkpoint extension).
pub const TECHNIQUES: [Technique; 4] = [
    Technique::CheckpointRestart,
    Technique::ResamplingCopying,
    Technique::AlternateCombination,
    Technique::BuddyCheckpoint,
];

/// The three fault-site kinds in campaign rotation order.
pub const SITE_KINDS: [&str; 3] = ["step", "op", "recovery"];

/// Structural shape of a case (problem size + schedule). `dim` = 2 is
/// the tuned 2D advection path; `dim` ≥ 3 routes through the
/// d-dimensional driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CaseShape {
    pub n: u32,
    pub l: u32,
    pub scale: usize,
    pub log2_steps: u32,
    pub checkpoints: u32,
    pub dim: usize,
}

impl CaseShape {
    /// The campaign's default laptop-scale shape.
    pub fn small() -> Self {
        CaseShape { n: 6, l: 3, scale: 1, log2_steps: 5, checkpoints: 2, dim: 2 }
    }

    /// The 3D campaign shape: the chaos-scale truncated simplex
    /// (19 combining grids at `n = 4`, `l = 4`).
    pub fn small3() -> Self {
        CaseShape { n: 4, l: 4, scale: 1, log2_steps: 4, checkpoints: 2, dim: 3 }
    }

    /// Number of solver timesteps.
    pub fn steps(&self) -> u64 {
        1u64 << self.log2_steps
    }

    fn spec(&self) -> String {
        let mut s = format!(
            "n{}l{}s{}k{}c{}",
            self.n, self.l, self.scale, self.log2_steps, self.checkpoints
        );
        if self.dim != 2 {
            s.push_str(&format!("d{}", self.dim));
        }
        s
    }

    fn parse(s: &str) -> Result<Self, String> {
        let err = || format!("bad shape spec {s:?} (want e.g. n6l3s1k5c2 or n4l4s1k4c2d3)");
        let mut vals = [0u64; 5];
        let mut rest = s;
        for (i, tag) in ["n", "l", "s", "k", "c"].iter().enumerate() {
            rest = rest.strip_prefix(tag).ok_or_else(err)?;
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            vals[i] = rest[..end].parse().map_err(|_| err())?;
            rest = &rest[end..];
        }
        let dim = match rest.strip_prefix('d') {
            None if rest.is_empty() => 2,
            Some(d) if !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()) => {
                d.parse().map_err(|_| err())?
            }
            _ => return Err(err()),
        };
        Ok(CaseShape {
            n: vals[0] as u32,
            l: vals[1] as u32,
            scale: vals[2] as usize,
            log2_steps: vals[3] as u32,
            checkpoints: vals[4] as u32,
            dim,
        })
    }
}

/// Dimension-agnostic view of a case's process layout: the 2D layout for
/// `dim` = 2, the d-dimensional one otherwise, with the handful of
/// queries the sampler and oracles need.
pub enum CaseLayout {
    D2(ProcLayout),
    Nd(ProcLayoutN),
}

impl CaseLayout {
    pub fn world_size(&self) -> usize {
        match self {
            CaseLayout::D2(l) => l.world_size(),
            CaseLayout::Nd(l) => l.world_size(),
        }
    }

    pub fn n_grids(&self) -> usize {
        match self {
            CaseLayout::D2(l) => l.system().n_grids(),
            CaseLayout::Nd(l) => l.system().n_grids(),
        }
    }

    pub fn grid_of(&self, rank: usize) -> usize {
        match self {
            CaseLayout::D2(l) => l.grid_of(rank),
            CaseLayout::Nd(l) => l.grid_of(rank),
        }
    }

    pub fn root_of(&self, grid: usize) -> usize {
        match self {
            CaseLayout::D2(l) => l.root_of(grid),
            CaseLayout::Nd(l) => l.root_of(grid),
        }
    }

    pub fn broken_grids(&self, dead: &[usize]) -> Vec<usize> {
        match self {
            CaseLayout::D2(l) => l.broken_grids(dead),
            CaseLayout::Nd(l) => l.broken_grids(dead),
        }
    }

    pub fn rc_conflicts(&self) -> Vec<(usize, usize)> {
        match self {
            CaseLayout::D2(l) => l.system().rc_conflicts(),
            CaseLayout::Nd(l) => l.system().rc_conflicts(),
        }
    }
}

/// One fault-injection case: a technique, a recovery policy, a shape, a
/// victim list, and (for corruption cases) one checkpoint-corruption
/// strike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosCase {
    pub technique: Technique,
    pub policy: RecoveryPolicy,
    pub shape: CaseShape,
    pub victims: Vec<(usize, FaultSite)>,
    pub corruption: Option<CorruptionStrike>,
}

fn site_spec(site: &FaultSite) -> String {
    match site {
        FaultSite::Step(s) => format!("step:{s}"),
        FaultSite::Op { kind, nth } => format!("op:{}:{}", kind.name(), nth),
        FaultSite::DuringRecovery { nth } => format!("rec:{nth}"),
    }
}

fn parse_site(s: &str) -> Result<FaultSite, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let bad = || format!("bad site spec {s:?}");
    match parts.as_slice() {
        ["step", n] => Ok(FaultSite::Step(n.parse().map_err(|_| bad())?)),
        ["op", kind, nth] => Ok(FaultSite::Op {
            kind: OpClass::from_name(kind).ok_or_else(bad)?,
            nth: nth.parse().map_err(|_| bad())?,
        }),
        ["rec", nth] => Ok(FaultSite::DuringRecovery { nth: nth.parse().map_err(|_| bad())? }),
        _ => Err(bad()),
    }
}

fn corrupt_spec(s: &CorruptionStrike) -> String {
    let kind = match s.kind {
        CorruptKind::BitFlip { offset, bit } => format!("flip:{offset}:{bit}"),
        CorruptKind::Torn { keep_pct } => format!("torn:{keep_pct}"),
        CorruptKind::GarbageHeader => "garbage".into(),
    };
    format!("corrupt:g{}:s{}:{kind}", s.grid_id, s.step)
}

fn parse_corrupt(s: &str) -> Result<CorruptionStrike, String> {
    let bad = || format!("bad corruption spec {s:?} (want e.g. corrupt:g2:s10:flip:40:3)");
    let parts: Vec<&str> = s.split(':').collect();
    let (head, kind_parts) = parts.split_at(3.min(parts.len()));
    let [tag, grid, step] = head else { return Err(bad()) };
    if *tag != "corrupt" {
        return Err(bad());
    }
    let grid_id: usize = grid.strip_prefix('g').ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let step: u64 = step.strip_prefix('s').ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let kind = match kind_parts {
        ["flip", offset, bit] => CorruptKind::BitFlip {
            offset: offset.parse().map_err(|_| bad())?,
            bit: bit.parse().map_err(|_| bad())?,
        },
        ["torn", keep] => CorruptKind::Torn { keep_pct: keep.parse().map_err(|_| bad())? },
        ["garbage"] => CorruptKind::GarbageHeader,
        _ => return Err(bad()),
    };
    Ok(CorruptionStrike { grid_id, step, kind })
}

fn parse_technique(s: &str) -> Result<Technique, String> {
    TECHNIQUES
        .iter()
        .copied()
        .find(|t| t.label() == s)
        .ok_or_else(|| format!("unknown technique {s:?} (want CR, RC, AC, or BC)"))
}

/// Parse the leading `TECH[+policy]` spec segment (`CR`, `CR+shrink`, …).
/// A bare technique means the default `Respawn` policy.
fn parse_tech_policy(s: &str) -> Result<(Technique, RecoveryPolicy), String> {
    match s.split_once('+') {
        None => Ok((parse_technique(s)?, RecoveryPolicy::Respawn)),
        Some((t, p)) => Ok((
            parse_technique(t)?,
            RecoveryPolicy::from_label(p)
                .ok_or_else(|| format!("unknown recovery policy {p:?} in {s:?}"))?,
        )),
    }
}

impl ChaosCase {
    /// One-line repro spec, e.g. `CR/n6l3s1k5c2/3@step:16+5@op:gather:1`
    /// (corruption cases carry a fourth segment:
    /// `CR/n6l3s1k5c2/3@step:12/corrupt:g2:s10:flip:40:3`). A non-default
    /// recovery policy rides on the technique: `CR+shrink/…`.
    pub fn spec(&self) -> String {
        let victims: Vec<String> =
            self.victims.iter().map(|(r, s)| format!("{r}@{}", site_spec(s))).collect();
        let tech = match self.policy {
            RecoveryPolicy::Respawn => self.technique.label().to_string(),
            p => format!("{}+{}", self.technique.label(), p.label()),
        };
        let mut out = format!("{}/{}/{}", tech, self.shape.spec(), victims.join("+"));
        if let Some(strike) = &self.corruption {
            out.push('/');
            out.push_str(&corrupt_spec(strike));
        }
        out
    }

    /// Parse a spec produced by [`ChaosCase::spec`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split('/').collect();
        let (tech, shape, victims, corrupt) = match parts.as_slice() {
            [t, s, v] => (t, s, v, None),
            [t, s, v, c] => (t, s, v, Some(parse_corrupt(c)?)),
            _ => return Err(format!("bad case spec {spec:?} (want TECH/SHAPE/VICTIMS[/CORRUPT])")),
        };
        let (technique, policy) = parse_tech_policy(tech)?;
        let shape = CaseShape::parse(shape)?;
        let mut vs = Vec::new();
        for v in victims.split('+') {
            let (rank, site) = v.split_once('@').ok_or_else(|| format!("bad victim spec {v:?}"))?;
            let rank: usize = rank.parse().map_err(|_| format!("bad victim rank in {v:?}"))?;
            vs.push((rank, parse_site(site)?));
        }
        Ok(ChaosCase { technique, policy, shape, victims: vs, corruption: corrupt })
    }

    /// The dominant site kind of this case (`corrupt` > `recovery` > `op`
    /// > `step`), used for coverage accounting.
    pub fn kind(&self) -> &'static str {
        if self.corruption.is_some() {
            return "corrupt";
        }
        let mut kind = "step";
        for (_, site) in &self.victims {
            match site {
                FaultSite::DuringRecovery { .. } => return "recovery",
                FaultSite::Op { kind: k, .. } => {
                    // Shrink/spawn/merge/agree ops only happen while
                    // repairing an earlier failure.
                    if matches!(
                        k,
                        OpClass::Shrink | OpClass::Spawn | OpClass::Merge | OpClass::Agree
                    ) {
                        return "recovery";
                    }
                    kind = "op";
                }
                FaultSite::Step(_) => {}
            }
        }
        kind
    }

    fn layout(&self) -> CaseLayout {
        if self.shape.dim >= 3 {
            CaseLayout::Nd(ProcLayoutN::new(
                self.shape.dim,
                self.shape.n,
                self.shape.l,
                self.technique.layout(),
                self.shape.scale,
            ))
        } else {
            CaseLayout::D2(ProcLayout::new(
                self.shape.n,
                self.shape.l,
                self.technique.layout(),
                self.shape.scale,
            ))
        }
    }

    fn app_config(&self, plan: FaultPlan) -> AppConfig {
        let mut cfg = AppConfig::small(self.technique)
            .with_dim(self.shape.dim)
            .with_recovery_policy(self.policy);
        if self.policy == RecoveryPolicy::SpareSubstitute {
            cfg = cfg.with_spares(CHAOS_SPARES);
        }
        cfg.n = self.shape.n;
        cfg.l = self.shape.l;
        cfg.scale = self.shape.scale;
        cfg.log2_steps = self.shape.log2_steps;
        cfg.checkpoints = self.shape.checkpoints;
        cfg.plan = plan;
        if let Some(strike) = &self.corruption {
            cfg = cfg.with_ckpt_corruption(CorruptionPlan::one(*strike));
        }
        cfg
    }

    /// Are the victims admissible for this shape? (In range, not rank 0,
    /// distinct, and not breaking the RC conflict constraint.)
    pub fn victims_valid(&self) -> bool {
        let layout = self.layout();
        let world = layout.world_size();
        let ranks: Vec<usize> = self.victims.iter().map(|&(r, _)| r).collect();
        let distinct = ranks.iter().collect::<std::collections::BTreeSet<_>>().len() == ranks.len();
        distinct
            && ranks.iter().all(|&r| r != 0 && r < world)
            && !(self.technique == Technique::ResamplingCopying
                && violates_rc(&layout.broken_grids(&ranks), &layout.rc_conflicts()))
    }
}

/// What one run produced, as the oracles see it.
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub app_errors: Vec<String>,
    pub err: Option<f64>,
    pub n_failed: Option<f64>,
    pub procs_failed: usize,
    pub makespan: f64,
    pub rank_hosts: Vec<f64>,
    pub rank_grids: Vec<f64>,
    /// Final communicator size (`world`; `None` if the controller never
    /// reported it).
    pub world: Option<f64>,
    /// Current-rank → original-rank map (gathered only under the shrink
    /// and substitute policies; empty otherwise).
    pub rank_orig: Vec<f64>,
    /// Grids dropped by `ShrinkRedistribute` (empty for other policies).
    pub dropped_grids: Vec<f64>,
    pub timelines: Vec<RecoveryTimeline>,
    /// Corrupt/torn checkpoint files the restart fallback skipped
    /// (`ckpt_skipped_corrupt`; `None` when no restore ran).
    pub ckpt_skipped: Option<f64>,
    /// Injected corruption strikes that actually landed on disk
    /// (`ckpt_corrupt_applied`; `None` when none did — e.g. when an
    /// early failure detection preempted the targeted write).
    pub ckpt_corrupt_applied: Option<f64>,
}

/// Run one case end-to-end and return the full runtime report (the
/// artifact path: trace + timelines for a failing repro).
pub fn run_case_report(case: &ChaosCase, plan: FaultPlan, seed: u64, stall: Duration) -> Report {
    let cfg = case.app_config(plan);
    let world = cfg.world_size(case.layout().world_size());
    let mut rc = RunConfig::local(world).with_seed(seed);
    rc.stall_timeout = stall;
    run(rc, move |ctx| run_app(&cfg, ctx))
}

/// Run one case (or, with [`FaultPlan::none`], its baseline) in-process.
pub fn run_case(case: &ChaosCase, plan: FaultPlan, seed: u64, stall: Duration) -> CaseResult {
    let report = run_case_report(case, plan, seed, stall);
    CaseResult {
        app_errors: report.app_errors.clone(),
        err: report.get_f64(keys::ERR_L1),
        n_failed: report.get_f64(keys::N_FAILED),
        procs_failed: report.procs_failed,
        makespan: report.makespan,
        rank_hosts: report.get_list(keys::RANK_HOSTS).unwrap_or_default().to_vec(),
        rank_grids: report.get_list(keys::RANK_GRIDS).unwrap_or_default().to_vec(),
        world: report.get_f64(keys::WORLD),
        rank_orig: report.get_list(keys::RANK_ORIG).unwrap_or_default().to_vec(),
        dropped_grids: report.get_list(keys::DROPPED_GRIDS).unwrap_or_default().to_vec(),
        ckpt_skipped: report.get_f64(keys::CKPT_SKIPPED),
        ckpt_corrupt_applied: report.get_f64(keys::CKPT_CORRUPT_APPLIED),
        timelines: report.timelines,
    }
}

/// No-failure reference run for one `(technique, policy class, shape)`.
#[derive(Debug, Clone)]
pub struct Baseline {
    pub err: f64,
    pub makespan: f64,
    pub rank_hosts: Vec<f64>,
    pub rank_grids: Vec<f64>,
    pub world: usize,
}

/// The baseline-sharing class of a policy. `Respawn` and `DeferRepair`
/// take bitwise-identical healthy runs (defer adds no operation until a
/// failure happens), so they share one baseline; shrink changes the
/// end-of-run gathers and substitute the world size, so each gets its
/// own.
fn policy_class(policy: RecoveryPolicy) -> &'static str {
    match policy {
        RecoveryPolicy::Respawn | RecoveryPolicy::DeferRepair => "std",
        RecoveryPolicy::ShrinkRedistribute => "shrink",
        RecoveryPolicy::SpareSubstitute => "sub",
    }
}

/// Memoized baselines: shrinking re-runs cases at reduced shapes, so each
/// `(technique, policy class, shape)` baseline is computed once per
/// campaign.
pub struct BaselineCache {
    seed: u64,
    stall: Duration,
    map: HashMap<(&'static str, &'static str, CaseShape), Baseline>,
    /// Baseline runs performed (for the campaign report).
    pub runs: usize,
}

impl BaselineCache {
    pub fn new(seed: u64, stall: Duration) -> Self {
        BaselineCache { seed, stall, map: HashMap::new(), runs: 0 }
    }

    pub fn get(&mut self, case: &ChaosCase) -> &Baseline {
        let key = (case.technique.label(), policy_class(case.policy), case.shape);
        if !self.map.contains_key(&key) {
            // The baseline is the *healthy* run: no failures and no store
            // corruption (a corrupted-but-never-read checkpoint must not
            // leak into the reference either). Defer shares the respawn
            // baseline, so normalize its policy.
            let mut clean = case.clone();
            clean.corruption = None;
            if clean.policy == RecoveryPolicy::DeferRepair {
                clean.policy = RecoveryPolicy::Respawn;
            }
            let res = run_case(&clean, FaultPlan::none(), self.seed, self.stall);
            assert!(
                res.app_errors.is_empty(),
                "baseline run {}/{}/{} must be healthy: {:?}",
                key.0,
                key.1,
                case.shape.spec(),
                res.app_errors
            );
            let base = Baseline {
                err: res.err.expect("healthy baseline reports err_l1"),
                makespan: res.makespan,
                world: res.world.expect("healthy baseline reports world") as usize,
                rank_hosts: res.rank_hosts,
                rank_grids: res.rank_grids,
            };
            self.runs += 1;
            self.map.insert(key, base);
        }
        &self.map[&key]
    }
}

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub oracle: &'static str,
    pub detail: String,
}

/// CR checkpoint-write steps for a shape: the detection points strictly
/// below `steps` (the run is split into `checkpoints + 1` segments).
pub fn write_steps(shape: &CaseShape) -> Vec<u64> {
    let steps = shape.steps();
    let p = (steps / (u64::from(shape.checkpoints) + 1)).max(1);
    (1..).map(|i| i * p).take_while(|&s| s < steps).collect()
}

/// Must this case's restart consult the corrupted checkpoint file —
/// *provided the damaged write actually landed*?
///
/// True when the damaged write, once on disk, is the *newest* file for
/// the victim's grid at recovery time: technique CR, the strike lands on
/// a real write step `cs` of the victim's own grid, and every victim is a
/// plain step kill inside `[cs, next_write)` (or up to `steps` when `cs`
/// is the last write) — so no newer, clean checkpoint can supersede it.
/// For such cases O6 requires `ckpt_skipped ≥ 1` *when the run reports
/// `ckpt_corrupt_applied ≥ 1`*: a strike that landed must be reported.
///
/// A strike can be missing from disk only by the virtual-clock supersede
/// rules, which decide every write, so the same case lands the same
/// files on every run. The asynchronous writer keeps only the newest
/// snapshot whose write has not started on the virtual clock: a strike on
/// a step that a later submit superseded never lands, because that file
/// is never written. In the cases this function selects the damaged step
/// is the newest checkpoint taken before the failure is detected, which
/// no later submit supersedes. A drain never starts a write, though: if
/// the damaged write is still queued, unstarted, at the recovery barrier,
/// the barrier supersedes it, the file never lands and the restart reads
/// the older write that was in flight. In both cases the strike is not
/// applied, `ckpt_corrupt_applied` does not count it, and no skip is
/// owed.
pub fn corrupt_read_expected(case: &ChaosCase) -> bool {
    let Some(strike) = &case.corruption else { return false };
    if case.technique != Technique::CheckpointRestart || case.victims.is_empty() {
        return false;
    }
    // Shrink never restarts: the victim's grid is dropped, nobody reads
    // its checkpoint, so no skip is ever owed. (Respawn and substitute
    // restore the victim immediately; defer restores at the repair epoch
    // — in all three the damaged file is still the newest for the grid,
    // because a dead grid writes no further checkpoints.)
    if case.policy == RecoveryPolicy::ShrinkRedistribute {
        return false;
    }
    let writes = write_steps(&case.shape);
    if !writes.contains(&strike.step) {
        return false;
    }
    let next = writes.iter().copied().find(|&w| w > strike.step);
    let hi = match next {
        Some(w) => w - 1,           // a write at `w` would supersede the corrupt file
        None => case.shape.steps(), // last write: any later kill still reads it
    };
    let layout = case.layout();
    case.victims.iter().all(|(r, site)| {
        matches!(site, FaultSite::Step(k)
            if layout.grid_of(*r) == strike.grid_id && *k >= strike.step && *k <= hi)
    })
}

/// O7 — policy-invariant oracle: the final communicator size, the
/// current→original rank map, and the grid coverage must match the
/// active policy's contract (see `RecoveryPolicy`'s module docs).
fn check_policy_contract(case: &ChaosCase, res: &CaseResult, base: &Baseline) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |detail: String| out.push(Violation { oracle: "O7-policy", detail });
    let w = case.layout().world_size();
    let Some(world) = res.world.map(|x| x as usize) else {
        fail("no final world size reported".into());
        return out;
    };
    let orig: Vec<usize> = res.rank_orig.iter().map(|&o| o as usize).collect();
    match case.policy {
        RecoveryPolicy::Respawn | RecoveryPolicy::DeferRepair => {
            // Full restoration: the baseline's world, and no membership
            // map is gathered (its absence is what keeps the no-failure
            // path bitwise-identical).
            if world != base.world {
                fail(format!("world {world} != restored baseline world {}", base.world));
            }
            if !orig.is_empty() {
                fail(format!("{} gathered a rank_orig map: {orig:?}", case.policy));
            }
        }
        RecoveryPolicy::ShrinkRedistribute => {
            if world != w - res.procs_failed {
                fail(format!("world {world} != {w} - {} dead after shrink", res.procs_failed));
            }
            if orig.len() != world {
                fail(format!("rank_orig has {} entries for world {world}", orig.len()));
                return out;
            }
            let ok_membership = orig.windows(2).all(|p| p[0] < p[1])
                && orig.first() == Some(&0)
                && orig.iter().all(|&o| o < w);
            if !ok_membership {
                fail(format!(
                    "survivors must be a strictly increasing subset of 0..{w} containing \
                     the controller: {orig:?}"
                ));
                return out;
            }
            let layout = case.layout();
            for (i, &o) in orig.iter().enumerate() {
                if res.rank_grids.get(i).copied() != Some(layout.grid_of(o) as f64) {
                    fail(format!(
                        "current rank {i} (orig {o}) reports grid {:?}, expected {}",
                        res.rank_grids.get(i),
                        layout.grid_of(o)
                    ));
                }
                if res.rank_hosts.get(i).copied() != base.rank_hosts.get(o).copied() {
                    fail(format!(
                        "current rank {i} (orig {o}) moved host: {:?} vs baseline {:?}",
                        res.rank_hosts.get(i),
                        base.rank_hosts.get(o)
                    ));
                }
            }
            let dead: Vec<usize> = (0..w).filter(|r| !orig.contains(r)).collect();
            let dropped: Vec<usize> = res.dropped_grids.iter().map(|&g| g as usize).collect();
            if dropped != layout.broken_grids(&dead) {
                fail(format!(
                    "dropped grids {dropped:?} != broken grids {:?} of the dead set {dead:?}",
                    layout.broken_grids(&dead)
                ));
            }
        }
        RecoveryPolicy::SpareSubstitute => {
            if orig.len() != world {
                fail(format!("rank_orig has {} entries for world {world}", orig.len()));
                return out;
            }
            let layout = case.layout();
            let mut promoted = 0;
            for (i, &o) in orig.iter().enumerate().take(w) {
                if o != i {
                    if o < w {
                        fail(format!(
                            "active slot {i} held by another active's rank {o} — substitution \
                             must fill slots with spares or respawned children"
                        ));
                    }
                    promoted += 1;
                }
                if res.rank_grids.get(i).copied() != Some(layout.grid_of(i) as f64) {
                    fail(format!(
                        "active slot {i} reports grid {:?}, expected {}",
                        res.rank_grids.get(i),
                        layout.grid_of(i)
                    ));
                }
            }
            // Each promotion consumes one spare; the spawn fallback
            // consumes none. Everything past the active slots idles.
            if world != w + CHAOS_SPARES - promoted {
                fail(format!(
                    "world {world} != {w} actives + {CHAOS_SPARES} spares - {promoted} promoted"
                ));
            }
            for (i, &o) in orig.iter().enumerate().skip(w) {
                if res.rank_grids.get(i).copied() != Some(-1.0) {
                    fail(format!(
                        "tail rank {i} (orig {o}) must idle, reports grid {:?}",
                        res.rank_grids.get(i)
                    ));
                }
            }
        }
    }
    out
}

/// Check the four invariant oracles for one case result. `sabotage`
/// deliberately tightens O3 to bitwise equality for the approximate
/// techniques — a knob that *must* produce violations, used to prove the
/// detection + shrinking pipeline works end to end.
pub fn check_oracles(
    case: &ChaosCase,
    res: &CaseResult,
    base: &Baseline,
    sabotage: bool,
) -> Vec<Violation> {
    let mut out = Vec::new();
    // O1: the run completed cleanly. Everything else is meaningless if
    // it did not, so report and stop.
    if !res.app_errors.is_empty() {
        out.push(Violation {
            oracle: "O1-completion",
            detail: format!("application errors: {:?}", res.app_errors),
        });
        return out;
    }
    let Some(err) = res.err else {
        out.push(Violation {
            oracle: "O1-completion",
            detail: "no err_l1 reported (controller never reached the combination)".into(),
        });
        return out;
    };
    if !err.is_finite() {
        out.push(Violation { oracle: "O3-error", detail: format!("non-finite l1 error {err}") });
    }
    // O2: recovery restored the paper's rank order and host placement.
    // Only the full-restoration policies promise this; shrink and
    // substitute promise the O7 membership contracts instead.
    if case.policy.restores_full_placement() {
        if res.rank_hosts != base.rank_hosts {
            out.push(Violation {
                oracle: "O2-placement",
                detail: format!(
                    "rank→host map diverged: {:?} vs baseline {:?}",
                    res.rank_hosts, base.rank_hosts
                ),
            });
        }
        if res.rank_grids != base.rank_grids {
            out.push(Violation {
                oracle: "O2-placement",
                detail: format!(
                    "rank→grid map diverged: {:?} vs baseline {:?}",
                    res.rank_grids, base.rank_grids
                ),
            });
        }
    }
    // O7: the post-recovery communicator size, membership, and grid
    // coverage match the active policy's contract.
    out.extend(check_policy_contract(case, res, base));
    // O3: per-technique error envelope vs the no-failure baseline.
    let bitwise = err.to_bits() == base.err.to_bits();
    if res.procs_failed == 0 {
        // No site fired (vacuous case): the run *is* the baseline.
        if !bitwise {
            out.push(Violation {
                oracle: "O3-error",
                detail: format!("no process failed, yet err {err} != baseline {}", base.err),
            });
        }
        if res.n_failed != Some(0.0) {
            out.push(Violation {
                oracle: "O3-error",
                detail: format!("no process failed, yet n_failed = {:?}", res.n_failed),
            });
        }
    } else if case.policy == RecoveryPolicy::ShrinkRedistribute {
        // Shrink continues *without* the dropped grids: no recovery class
        // is bitwise and the combination degrades with every loss, so the
        // envelope is an absolute cap on the robust-combined error.
        if err > SHRINK_ERR_CAP {
            out.push(Violation {
                oracle: "O3-error",
                detail: format!(
                    "shrink robust combination error {err:e} exceeds the {SHRINK_ERR_CAP} cap \
                     (baseline {:e}, dropped grids {:?})",
                    base.err, res.dropped_grids
                ),
            });
        }
    } else {
        let exact =
            matches!(case.technique, Technique::CheckpointRestart | Technique::BuddyCheckpoint);
        if exact || sabotage {
            if !bitwise {
                out.push(Violation {
                    oracle: "O3-error",
                    detail: format!(
                        "{} recomputation must be bitwise-exact: err {err:e} vs baseline {:e}",
                        case.technique.label(),
                        base.err
                    ),
                });
            }
        } else if err > APPROX_ENVELOPE * base.err {
            out.push(Violation {
                oracle: "O3-error",
                detail: format!(
                    "{} error {err:e} exceeds {APPROX_ENVELOPE}x baseline {:e}",
                    case.technique.label(),
                    base.err
                ),
            });
        }
    }
    // O4: bounded virtual time (livelock watchdog).
    let cap = base.makespan * MAKESPAN_FACTOR + MAKESPAN_SLACK;
    if res.makespan > cap {
        out.push(Violation {
            oracle: "O4-time",
            detail: format!(
                "virtual makespan {:.1}s exceeds budget {:.1}s (baseline {:.1}s)",
                res.makespan, cap, base.makespan
            ),
        });
    }
    // O5: every real failure produced a recovery timeline, and every
    // timeline is well-formed (non-negative phases summing to the window).
    if res.procs_failed > 0 && res.timelines.is_empty() {
        out.push(Violation {
            oracle: "O5-timeline",
            detail: format!(
                "{} process(es) failed but no recovery timeline was reported",
                res.procs_failed
            ),
        });
    }
    if res.procs_failed == 0 && !res.timelines.is_empty() {
        out.push(Violation {
            oracle: "O5-timeline",
            detail: format!("no process failed, yet {} timeline(s) reported", res.timelines.len()),
        });
    }
    for tl in &res.timelines {
        for (name, dur) in &tl.phases {
            if *dur < -1e-12 {
                out.push(Violation {
                    oracle: "O5-timeline",
                    detail: format!("event {}: phase {name} has negative duration {dur}", tl.event),
                });
            }
        }
        let (sum, total) = (tl.phase_sum(), tl.total());
        if (sum - total).abs() > 1e-9 {
            out.push(Violation {
                oracle: "O5-timeline",
                detail: format!(
                    "event {}: phases sum to {sum} but the recovery window is {total}",
                    tl.event
                ),
            });
        }
    }
    // O6: restart integrity. A store with no injected corruption must
    // never skip files (it must not corrupt its own writes); a restart
    // that provably reads the damaged file must skip it (O3's bitwise
    // check above then proves the fallback restored correct data).
    let skipped = res.ckpt_skipped.unwrap_or(0.0);
    match &case.corruption {
        None if skipped > 0.0 => {
            out.push(Violation {
                oracle: "O6-restart-integrity",
                detail: format!(
                    "no corruption injected, yet the restart skipped {skipped} checkpoint file(s) \
                     — the store damaged its own writes"
                ),
            });
        }
        Some(strike)
            if corrupt_read_expected(case)
                && res.procs_failed > 0
                && res.ckpt_corrupt_applied.unwrap_or(0.0) >= 1.0
                && skipped < 1.0 =>
        {
            out.push(Violation {
                oracle: "O6-restart-integrity",
                detail: format!(
                    "the corrupted checkpoint ({}) landed and was the newest file at restart, \
                     yet no skip was reported — a corrupt checkpoint was consumed silently",
                    corrupt_spec(strike)
                ),
            });
        }
        _ => {}
    }
    out
}

/// Campaign options.
#[derive(Debug, Clone)]
pub struct CampaignOpts {
    pub budget: usize,
    pub seed: u64,
    pub sabotage: bool,
    /// Recovery policy every sampled case runs under (`--policy`). The
    /// victim sampling is policy-independent, so campaigns with the same
    /// seed examine the same fault sites under each policy.
    pub policy: RecoveryPolicy,
    pub stall: Duration,
    /// When set, every violating case's shrunk repro is re-run once more
    /// and its Chrome trace + recovery-timeline JSON are written here.
    pub artifact_dir: Option<PathBuf>,
    /// Mix checkpoint-corruption cases into the campaign (every fifth
    /// case; on by default, `--no-corrupt` clears it).
    pub corruption: bool,
    /// Sample *only* corruption cases (`--corrupt-only`).
    pub corrupt_only: bool,
    /// Worker threads the campaign fans its case runs out over (0 = the
    /// machine's available parallelism). Reports are byte-identical at
    /// any width.
    pub fanout_workers: usize,
    /// Problem dimensionality (`--dim`): 2 samples the classic 2D shape,
    /// ≥ 3 the d-dimensional campaign shape.
    pub dim: usize,
}

impl Default for CampaignOpts {
    fn default() -> Self {
        CampaignOpts {
            budget: DEFAULT_BUDGET,
            seed: DEFAULT_SEED,
            sabotage: false,
            policy: RecoveryPolicy::Respawn,
            stall: Duration::from_secs(DEFAULT_STALL_SECS),
            artifact_dir: None,
            corruption: true,
            corrupt_only: false,
            fanout_workers: 0,
            dim: 2,
        }
    }
}

impl CampaignOpts {
    /// The flags of `expt chaos`.
    pub const FLAGS: Flags =
        "--budget N --seed S --policy respawn|shrink|substitute|defer --dim D \
        --stall-secs T --fanout-workers W --sabotage --no-corrupt --corrupt-only --json PATH \
        --repro SPEC --artifacts DIR";

    pub fn from_args(a: &Args) -> Result<Self, Usage> {
        let d = CampaignOpts::default();
        let o = CampaignOpts {
            budget: a.get_or("--budget", d.budget)?,
            seed: a.get_or("--seed", d.seed)?,
            sabotage: a.has("--sabotage"),
            policy: a.get_with("--policy", RecoveryPolicy::from_label)?.unwrap_or(d.policy),
            stall: a
                .get_with("--stall-secs", |v| v.parse().ok().map(Duration::from_secs))?
                .unwrap_or(d.stall),
            artifact_dir: a.value("--artifacts").map(PathBuf::from),
            corruption: !a.has("--no-corrupt"),
            corrupt_only: a.has("--corrupt-only"),
            fanout_workers: a.get_or("--fanout-workers", d.fanout_workers)?,
            dim: a.get_or("--dim", d.dim)?,
        };
        if o.dim < 2 {
            return Err(a.usage(format!("--dim must be at least 2 (got {})", o.dim)));
        }
        Ok(o)
    }
}

/// `expt chaos`: a campaign (or with `--repro SPEC` one case), printed
/// and with `--json PATH` written out. Exit code 0 when every examined
/// case satisfies all oracles, 1 when any violation was found (the
/// minimized repro specs are printed and go into the report).
///
/// `--policy` runs every sampled case under the given recovery policy;
/// sampling is policy-independent, so campaigns with the same seed
/// examine the same fault sites under each policy. `--dim 3` samples the
/// 3D campaign shape instead of the classic 2D one.
pub fn main(a: &Args) -> Result<i32, Usage> {
    let opts = CampaignOpts::from_args(a)?;
    if let Some(spec) = a.value("--repro") {
        return Ok(match replay(spec, &opts) {
            Ok(record) => {
                print_record(0, &record);
                i32::from(!record.violations.is_empty())
            }
            Err(e) => {
                eprintln!("expt chaos: {e}");
                2
            }
        });
    }

    let corrupt_mix = if opts.corrupt_only {
        "all"
    } else if opts.corruption {
        "1-in-5"
    } else {
        "off"
    };
    println!(
        "chaos campaign: budget={} seed={} policy={} dim={} sabotage={} stall={}s \
         corruption={corrupt_mix}",
        opts.budget,
        opts.seed,
        opts.policy.label(),
        opts.dim,
        opts.sabotage,
        opts.stall.as_secs()
    );
    let report = run_campaign_with(&opts, |i, r| {
        if !r.violations.is_empty() {
            print_record(i, r);
        }
    });

    println!();
    println!("coverage (technique x site kind):");
    let cov = report.coverage();
    let mut keys: Vec<_> = cov.keys().collect();
    keys.sort();
    for k in keys {
        println!("  {:<4} {:<8} {:>4} cases", k.0, k.1, cov[k]);
    }
    println!(
        "\nexamined {} cases ({} baseline runs, {} shrink runs): {} violating",
        report.cases.len(),
        report.baseline_runs,
        report.shrink_runs,
        report.n_violating()
    );
    for line in report.repro_lines() {
        println!("  {line}");
    }

    if let Some(path) = a.value("--json") {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("expt chaos: cannot write {path}: {e}");
            return Ok(2);
        }
        println!("report written to {path}");
    }
    Ok(i32::from(report.n_violating() != 0))
}

fn print_record(i: usize, r: &CaseRecord) {
    let verdict = if r.violations.is_empty() { "ok" } else { "VIOLATION" };
    println!(
        "[{i:>4}] {verdict:<9} {:<4} {:<8} failed={} {}",
        r.technique, r.kind, r.procs_failed, r.spec
    );
    for v in &r.violations {
        println!("        {}: {}", v.oracle, v.detail);
    }
    if let Some(s) = &r.shrunk_spec {
        println!("        minimized to {} failure(s): {s}", r.shrunk_n_failures.unwrap_or(0));
    }
    for a in &r.artifacts {
        println!("        artifact: {a}");
    }
}

/// One examined case in the campaign report.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    pub spec: String,
    pub technique: &'static str,
    pub kind: &'static str,
    pub procs_failed: usize,
    /// Corrupt checkpoint files the restart skipped (0 when none).
    pub ckpt_skipped: f64,
    pub violations: Vec<Violation>,
    /// Minimized failing spec (only when `violations` is non-empty).
    pub shrunk_spec: Option<String>,
    pub shrunk_n_failures: Option<usize>,
    /// Trace/timeline files written for this case (`--artifacts` only).
    pub artifacts: Vec<String>,
}

/// Whole-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    pub seed: u64,
    pub budget: usize,
    pub sabotage: bool,
    /// Label of the recovery policy the campaign ran under.
    pub policy: &'static str,
    pub cases: Vec<CaseRecord>,
    pub baseline_runs: usize,
    pub shrink_runs: usize,
}

impl CampaignReport {
    pub fn n_violating(&self) -> usize {
        self.cases.iter().filter(|c| !c.violations.is_empty()).count()
    }

    /// `(technique label, kind) -> examined case count`.
    pub fn coverage(&self) -> HashMap<(&'static str, &'static str), usize> {
        let mut m = HashMap::new();
        for c in &self.cases {
            *m.entry((c.technique, c.kind)).or_insert(0) += 1;
        }
        m
    }

    /// One-line repro commands for every violating case (minimized spec).
    pub fn repro_lines(&self) -> Vec<String> {
        self.cases
            .iter()
            .filter(|c| !c.violations.is_empty())
            .map(|c| {
                format!(
                    "cargo run -p ftsg-bench --bin expt -- chaos --repro '{}'  # {}",
                    c.shrunk_spec.as_deref().unwrap_or(&c.spec),
                    c.violations[0].oracle
                )
            })
            .collect()
    }

    /// Hand-rolled JSON serialization (the workspace has no serde).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        let mut cases = Vec::new();
        for c in &self.cases {
            let viols: Vec<String> = c
                .violations
                .iter()
                .map(|v| {
                    format!(r#"{{"oracle":"{}","detail":"{}"}}"#, esc(v.oracle), esc(&v.detail))
                })
                .collect();
            let shrunk = match &c.shrunk_spec {
                Some(s) => format!(r#""{}""#, esc(s)),
                None => "null".into(),
            };
            let artifacts: Vec<String> =
                c.artifacts.iter().map(|a| format!(r#""{}""#, esc(a))).collect();
            cases.push(format!(
                r#"{{"spec":"{}","technique":"{}","kind":"{}","procs_failed":{},"ckpt_skipped":{},"violations":[{}],"shrunk_spec":{},"shrunk_n_failures":{},"artifacts":[{}]}}"#,
                esc(&c.spec),
                c.technique,
                c.kind,
                c.procs_failed,
                c.ckpt_skipped,
                viols.join(","),
                shrunk,
                c.shrunk_n_failures.map_or("null".into(), |n| n.to_string()),
                artifacts.join(","),
            ));
        }
        format!(
            r#"{{"seed":{},"budget":{},"sabotage":{},"policy":"{}","examined":{},"violating":{},"baseline_runs":{},"shrink_runs":{},"cases":[{}]}}"#,
            self.seed,
            self.budget,
            self.sabotage,
            esc(self.policy),
            self.cases.len(),
            self.n_violating(),
            self.baseline_runs,
            self.shrink_runs,
            cases.join(",")
        )
    }
}

/// Sample distinct victim ranks (never 0), respecting RC conflicts.
fn sample_ranks(
    rng: &mut StdRng,
    layout: &CaseLayout,
    technique: Technique,
    count: usize,
) -> Vec<usize> {
    let world = layout.world_size();
    let mut chosen: Vec<usize> = Vec::new();
    let mut guard = 0;
    while chosen.len() < count {
        guard += 1;
        assert!(guard < 10_000, "could not sample {count} victims in world {world}");
        let r = rng.gen_range(1..world);
        if chosen.contains(&r) {
            continue;
        }
        if technique == Technique::ResamplingCopying {
            let mut attempt = chosen.clone();
            attempt.push(r);
            if violates_rc(&layout.broken_grids(&attempt), &layout.rc_conflicts()) {
                continue;
            }
        }
        chosen.push(r);
    }
    chosen
}

/// Sample one case of the requested site kind.
pub fn sample_case(
    rng: &mut StdRng,
    technique: Technique,
    kind: &str,
    shape: CaseShape,
) -> ChaosCase {
    let mut case = ChaosCase {
        technique,
        policy: RecoveryPolicy::Respawn,
        shape,
        victims: Vec::new(),
        corruption: None,
    };
    let layout = case.layout();
    let steps = shape.steps();
    let step_site = |rng: &mut StdRng| FaultSite::Step(rng.gen_range(1..=steps));
    match kind {
        "step" => {
            // 1–3 plain step-boundary kills.
            let n = 1 + rng.gen_range(0..3usize);
            let ranks = sample_ranks(rng, &layout, technique, n);
            case.victims = ranks.into_iter().map(|r| (r, step_site(rng))).collect();
        }
        "op" => {
            // One mid-operation kill, sometimes with a step kill alongside.
            let extra = rng.gen_bool(0.5);
            let ranks = sample_ranks(rng, &layout, technique, 1 + extra as usize);
            let site = if technique == Technique::CheckpointRestart && rng.gen_bool(0.25) {
                // Mid-checkpoint-write kill: only group roots write, so
                // redirect the victim to a non-controller root.
                FaultSite::Op { kind: OpClass::CkptWrite, nth: rng.gen_range(0..2) }
            } else {
                let (class, max_nth) = match rng.gen_range(0..6) {
                    0 => {
                        (OpClass::Barrier, if technique.has_periodic_protection() { 3 } else { 1 })
                    }
                    1 => (OpClass::Gather, if technique.has_periodic_protection() { 3 } else { 1 }),
                    2 => (OpClass::Allreduce, 4),
                    // Nonblocking sites: every rank posts 4 isends and 4
                    // irecvs per solver step in 2D (and fires 8 waits) but
                    // only 2 + 2 on the slab-decomposed nd path, plus the
                    // reduction-tree hops at the combination. Halving the
                    // index range for dim ≥ 3 keeps every sampled site
                    // inside the run.
                    3 => (OpClass::Isend, if shape.dim >= 3 { 16 } else { 32 }),
                    4 => (OpClass::Irecv, if shape.dim >= 3 { 16 } else { 32 }),
                    _ => (OpClass::Wait, if shape.dim >= 3 { 32 } else { 64 }),
                };
                FaultSite::Op { kind: class, nth: rng.gen_range(0..max_nth) }
            };
            let victim = if matches!(site, FaultSite::Op { kind: OpClass::CkptWrite, .. }) {
                // A root other than rank 0 (grid 0's root is the
                // controller, which never dies).
                let g = rng.gen_range(1..layout.n_grids());
                layout.root_of(g)
            } else {
                ranks[0]
            };
            case.victims.push((victim, site));
            if extra && ranks[1] != victim {
                case.victims.push((ranks[1], step_site(rng)));
            }
        }
        "recovery" => {
            // A primary step kill plus a second failure striking *during
            // the recovery of the first* — mid-shrink, mid-spawn, at the
            // Nth runtime operation inside the recovery scopes (the repair
            // makes the first five under respawn, then come the data
            // recovery's metadata broadcast, its group split and the
            // technique's restore transfers), or entering the confirming
            // barrier that commits it all.
            let ranks = sample_ranks(rng, &layout, technique, 2);
            let killed_at = rng.gen_range(1..=steps);
            case.victims.push((ranks[0], FaultSite::Step(killed_at)));
            let site = match rng.gen_range(0..6) {
                0 => FaultSite::Op { kind: OpClass::Shrink, nth: 0 },
                1 => FaultSite::Op { kind: OpClass::Spawn, nth: 0 },
                2 => {
                    // Every detection round before the one that finds the
                    // primary made one (passing) barrier; the detecting
                    // barrier follows, then the confirming one.
                    let mut rounds = vec![steps];
                    if technique.has_periodic_protection() {
                        rounds.splice(0..0, write_steps(&shape));
                    }
                    let detected_in =
                        rounds.iter().filter(|&&d| d <= killed_at).count().min(rounds.len() - 1);
                    FaultSite::Op { kind: OpClass::Barrier, nth: detected_in as u64 + 1 }
                }
                _ => FaultSite::DuringRecovery { nth: rng.gen_range(0..RECOVERY_REACH) },
            };
            case.victims.push((ranks[1], site));
        }
        other => panic!("unknown site kind {other:?}"),
    }
    debug_assert!(case.victims_valid(), "sampled inadmissible case {}", case.spec());
    case
}

/// Sample one checkpoint-corruption case: CR, one victim rank, a strike
/// damaging the victim grid's checkpoint at a random write step `cs`, and
/// a step kill landing while that file is still the newest checkpoint the
/// grid took. The restart hits the damage only if the damaged write
/// landed: an asynchronous root supersedes a snapshot still queued at the
/// recovery barrier, in 2D and 3D alike (see [`corrupt_read_expected`]),
/// so at budget 200 and seed 1 about two cases in three trip a skip.
pub fn sample_corrupt_case(rng: &mut StdRng, shape: CaseShape) -> ChaosCase {
    let technique = Technique::CheckpointRestart;
    let mut case = ChaosCase {
        technique,
        policy: RecoveryPolicy::Respawn,
        shape,
        victims: Vec::new(),
        corruption: None,
    };
    let layout = case.layout();
    let writes = write_steps(&shape);
    assert!(!writes.is_empty(), "shape {} has no checkpoint writes", shape.spec());
    let wi = rng.gen_range(0..writes.len());
    let cs = writes[wi];
    let hi = if wi + 1 < writes.len() { writes[wi + 1] - 1 } else { shape.steps() };
    let kill = rng.gen_range(cs..=hi);
    let victim = sample_ranks(rng, &layout, technique, 1)[0];
    let kind = match rng.gen_range(0..3) {
        0 => {
            CorruptKind::BitFlip { offset: rng.gen::<u64>() % (1 << 20), bit: rng.gen_range(0..8) }
        }
        1 => CorruptKind::Torn { keep_pct: rng.gen_range(1..95) },
        _ => CorruptKind::GarbageHeader,
    };
    case.victims.push((victim, FaultSite::Step(kill)));
    case.corruption = Some(CorruptionStrike { grid_id: layout.grid_of(victim), step: cs, kind });
    debug_assert!(case.victims_valid(), "sampled inadmissible case {}", case.spec());
    debug_assert!(
        corrupt_read_expected(&case),
        "sampled toothless corruption case {}",
        case.spec()
    );
    case
}

/// Greedily minimize a failing case: drop victims one at a time, then
/// reduce the step count, then the combination level, keeping each
/// reduction only if the shrunk case still violates an oracle. Bounded by
/// `max_runs` re-executions.
pub fn shrink_case(
    case: &ChaosCase,
    opts: &CampaignOpts,
    cache: &mut BaselineCache,
    max_runs: usize,
) -> (ChaosCase, usize) {
    let mut best = case.clone();
    let mut runs = 0;
    let mut still_fails = |c: &ChaosCase, runs: &mut usize| -> bool {
        *runs += 1;
        let plan = FaultPlan::new_sites(c.victims.clone());
        let res = run_case(c, plan, opts.seed, opts.stall);
        let base = cache.get(c).clone();
        !check_oracles(c, &res, &base, opts.sabotage).is_empty()
    };
    'outer: while runs < max_runs {
        // 0. Drop the corruption strike (a case that still fails without
        // it is a plain fault-injection bug, a simpler repro).
        if best.corruption.is_some() {
            let mut cand = best.clone();
            cand.corruption = None;
            if still_fails(&cand, &mut runs) {
                best = cand;
                continue 'outer;
            }
        }
        // 1. Drop each victim.
        if best.victims.len() > 1 {
            for i in 0..best.victims.len() {
                let mut cand = best.clone();
                cand.victims.remove(i);
                if runs >= max_runs {
                    break 'outer;
                }
                if still_fails(&cand, &mut runs) {
                    best = cand;
                    continue 'outer;
                }
            }
        }
        // 2. Halve the run length (clamping step sites into range).
        if best.shape.log2_steps > 3 {
            let mut cand = best.clone();
            cand.shape.log2_steps -= 1;
            let steps = cand.shape.steps();
            for (_, site) in cand.victims.iter_mut() {
                if let FaultSite::Step(s) = site {
                    *s = (*s).min(steps);
                }
            }
            if still_fails(&cand, &mut runs) {
                best = cand;
                continue 'outer;
            }
        }
        // 3. Reduce the combination level (fewer grids, smaller world).
        if best.shape.l > 2 {
            let mut cand = best.clone();
            cand.shape.l -= 1;
            if cand.victims_valid() && still_fails(&cand, &mut runs) {
                best = cand;
                continue 'outer;
            }
        }
        break;
    }
    (best, runs)
}

/// Re-run a (shrunk) case and write its Chrome trace and recovery
/// timelines under `dir` as `{stem}-trace.json` / `{stem}-timeline.json`.
/// Best-effort: an unwritable directory yields an empty path list, never
/// a campaign abort.
fn write_artifacts(
    case: &ChaosCase,
    opts: &CampaignOpts,
    dir: &std::path::Path,
    stem: &str,
) -> Vec<String> {
    if std::fs::create_dir_all(dir).is_err() {
        return Vec::new();
    }
    let plan = FaultPlan::new_sites(case.victims.clone());
    let report = run_case_report(case, plan, opts.seed, opts.stall);
    let trace_path = dir.join(format!("{stem}-trace.json"));
    let tl_path = dir.join(format!("{stem}-timeline.json"));
    let mut out = Vec::new();
    if write_chrome_trace(&report, &trace_path).is_ok() {
        out.push(trace_path.display().to_string());
    }
    if std::fs::write(&tl_path, timelines_to_json(&report.timelines)).is_ok() {
        out.push(tl_path.display().to_string());
    }
    out
}

/// Run a full campaign: sample, execute, check, shrink. Deterministic in
/// `opts.seed` — the same seed reproduces the same cases and verdicts.
pub fn run_campaign(opts: &CampaignOpts) -> CampaignReport {
    run_campaign_with(opts, |_, _| {})
}

/// [`run_campaign`] with a progress callback `(index, record)`.
///
/// Every case run fans out over a scoped worker pool ([`fan_out`]), panic
/// isolated, while sampling, baselines, oracle checks and shrinking stay
/// sequential on this thread. Determinism is preserved by sampling every
/// case up front (the exact RNG order of the old sequential loop) and
/// consuming results in sampling order.
pub fn run_campaign_with(
    opts: &CampaignOpts,
    mut progress: impl FnMut(usize, &CaseRecord),
) -> CampaignReport {
    let mut cache = BaselineCache::new(opts.seed, opts.stall);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut report = CampaignReport {
        seed: opts.seed,
        budget: opts.budget,
        sabotage: opts.sabotage,
        policy: opts.policy.label(),
        ..Default::default()
    };
    let shape = if opts.dim >= 3 { CaseShape::small3() } else { CaseShape::small() };

    // Phase 1 — sample the whole campaign. Sampling is policy-independent
    // (the policy is stamped after), so the same seed examines the same
    // fault sites under every policy — the matrix lanes are directly
    // comparable.
    let mut cases: Vec<ChaosCase> = Vec::with_capacity(opts.budget);
    for i in 0..opts.budget {
        let mut case = if opts.corrupt_only || (opts.corruption && i % 5 == 0) {
            sample_corrupt_case(&mut rng, shape)
        } else {
            let technique = TECHNIQUES[i % TECHNIQUES.len()];
            let kind = SITE_KINDS[i % SITE_KINDS.len()];
            sample_case(&mut rng, technique, kind, shape)
        };
        case.policy = opts.policy;
        cases.push(case);
    }

    // Phase 2 — run the cases on the pool and consume them in sampling
    // order; the baseline cache and the shrink loop are deterministic
    // because their call order is.
    let workers =
        if opts.fanout_workers == 0 { crate::stamp::nproc() } else { opts.fanout_workers };
    let run_one = |i: usize| {
        let case = &cases[i];
        run_case(case, FaultPlan::new_sites(case.victims.clone()), opts.seed, opts.stall)
    };
    fan_out(cases.len(), workers, run_one, |i, out| {
        let case = &cases[i];
        let mut record = CaseRecord {
            spec: case.spec(),
            technique: case.technique.label(),
            kind: case.kind(),
            procs_failed: 0,
            ckpt_skipped: 0.0,
            violations: Vec::new(),
            shrunk_spec: None,
            shrunk_n_failures: None,
            artifacts: Vec::new(),
        };
        match out {
            Ok(res) => {
                let base = cache.get(case).clone();
                record.violations = check_oracles(case, &res, &base, opts.sabotage);
                record.procs_failed = res.procs_failed;
                record.ckpt_skipped = res.ckpt_skipped.unwrap_or(0.0);
                if !record.violations.is_empty() {
                    let (shrunk, runs) = shrink_case(case, opts, &mut cache, 40);
                    report.shrink_runs += runs;
                    record.shrunk_spec = Some(shrunk.spec());
                    record.shrunk_n_failures = Some(shrunk.victims.len());
                    if let Some(dir) = &opts.artifact_dir {
                        record.artifacts =
                            write_artifacts(&shrunk, opts, dir, &format!("case{i:03}"));
                    }
                }
            }
            // A panic inside the case run was caught at the worker: record
            // it as a violation of its own instead of killing the campaign.
            Err(detail) => record.violations.push(Violation { oracle: "job-panic", detail }),
        }
        progress(i, &record);
        report.cases.push(record);
    });
    report.baseline_runs = cache.runs;
    report
}

/// Run `job(i)` for every `i` in `0..n` on `workers` scoped threads and
/// hand each outcome to `consume` in index order, whatever order the runs
/// finish in: results that arrive early wait in a buffer, so `consume`
/// streams as soon as the next index is in. A panic inside `job(i)` is
/// caught on its worker and arrives as `Err("panic: <payload>")` at
/// index `i`; the other jobs run on.
fn fan_out<T: Send>(
    n: usize,
    workers: usize,
    job: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(usize, Result<T, String>),
) {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(n) {
            let (tx, next, job) = (tx.clone(), &next, &job);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| job(i)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                if tx.send((i, out)).is_err() {
                    break; // the consumer is gone (it panicked)
                }
            });
        }
        drop(tx);
        let mut early = HashMap::new();
        for i in 0..n {
            let out = match early.remove(&i) {
                Some(out) => out,
                None => loop {
                    let (j, out) = rx.recv().expect("every claimed job sends its outcome");
                    if j == i {
                        break out;
                    }
                    early.insert(j, out);
                },
            };
            consume(i, out);
        }
    });
}

/// Render a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>");
    format!("panic: {text}")
}

/// Replay one spec (the `--repro` path): returns the record after running
/// the case once against its baseline.
pub fn replay(spec: &str, opts: &CampaignOpts) -> Result<CaseRecord, String> {
    let case = ChaosCase::parse(spec)?;
    if !case.victims_valid() {
        return Err(format!("inadmissible victims in {spec:?}"));
    }
    let mut cache = BaselineCache::new(opts.seed, opts.stall);
    let plan = FaultPlan::new_sites(case.victims.clone());
    let res = run_case(&case, plan, opts.seed, opts.stall);
    let base = cache.get(&case).clone();
    let violations = check_oracles(&case, &res, &base, opts.sabotage);
    let artifacts = match &opts.artifact_dir {
        Some(dir) => write_artifacts(&case, opts, dir, "repro"),
        None => Vec::new(),
    };
    Ok(CaseRecord {
        spec: case.spec(),
        technique: case.technique.label(),
        kind: case.kind(),
        procs_failed: res.procs_failed,
        ckpt_skipped: res.ckpt_skipped.unwrap_or(0.0),
        violations,
        shrunk_spec: None,
        shrunk_n_failures: None,
        artifacts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let case = ChaosCase {
            technique: Technique::CheckpointRestart,
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape::small(),
            victims: vec![
                (3, FaultSite::Step(16)),
                (5, FaultSite::Op { kind: OpClass::Gather, nth: 1 }),
                (7, FaultSite::DuringRecovery { nth: 2 }),
            ],
            corruption: None,
        };
        let spec = case.spec();
        assert_eq!(spec, "CR/n6l3s1k5c2/3@step:16+5@op:gather:1+7@rec:2");
        assert_eq!(ChaosCase::parse(&spec).unwrap(), case);
    }

    #[test]
    fn spec_roundtrip_with_policy() {
        for policy in RecoveryPolicy::all() {
            let case = ChaosCase {
                technique: Technique::AlternateCombination,
                policy,
                shape: CaseShape::small(),
                victims: vec![(3, FaultSite::Step(16))],
                corruption: None,
            };
            let spec = case.spec();
            if policy == RecoveryPolicy::Respawn {
                assert_eq!(spec, "AC/n6l3s1k5c2/3@step:16", "default policy stays implicit");
            } else {
                assert_eq!(spec, format!("AC+{}/n6l3s1k5c2/3@step:16", policy.label()));
            }
            assert_eq!(ChaosCase::parse(&spec).unwrap(), case);
        }
        assert!(ChaosCase::parse("AC+banana/n6l3s1k5c2/3@step:16").is_err());
    }

    #[test]
    fn corrupt_spec_roundtrip() {
        for (kind, tail) in [
            (CorruptKind::BitFlip { offset: 40, bit: 3 }, "flip:40:3"),
            (CorruptKind::Torn { keep_pct: 60 }, "torn:60"),
            (CorruptKind::GarbageHeader, "garbage"),
        ] {
            let case = ChaosCase {
                technique: Technique::CheckpointRestart,
                policy: RecoveryPolicy::Respawn,
                shape: CaseShape::small(),
                victims: vec![(3, FaultSite::Step(12))],
                corruption: Some(CorruptionStrike { grid_id: 2, step: 10, kind }),
            };
            let spec = case.spec();
            assert_eq!(spec, format!("CR/n6l3s1k5c2/3@step:12/corrupt:g2:s10:{tail}"));
            assert_eq!(ChaosCase::parse(&spec).unwrap(), case);
        }
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ChaosCase::parse("XX/n6l3s1k5c2/3@step:16").is_err());
        assert!(ChaosCase::parse("CR/n6l3/3@step:16").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2/0@banana").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2/3@step:16/corrupt:g2").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2/3@step:16/corrupt:g2:s10:flip:1").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2/3@step:16/banana:g2:s10:garbage").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2d/3@step:16").is_err());
        assert!(ChaosCase::parse("CR/n6l3s1k5c2x3/3@step:16").is_err());
    }

    #[test]
    fn spec_roundtrip_3d() {
        let case = ChaosCase {
            technique: Technique::AlternateCombination,
            policy: RecoveryPolicy::ShrinkRedistribute,
            shape: CaseShape::small3(),
            victims: vec![(3, FaultSite::Step(8)), (5, FaultSite::DuringRecovery { nth: 1 })],
            corruption: None,
        };
        let spec = case.spec();
        assert_eq!(spec, "AC+shrink/n4l4s1k4c2d3/3@step:8+5@rec:1");
        assert_eq!(ChaosCase::parse(&spec).unwrap(), case);
        // 2D specs stay exactly as before: the dim tag is only emitted
        // when it differs from 2 (so old repro lines keep parsing, and
        // old baselines keep their keys).
        assert_eq!(
            ChaosCase::parse("AC/n6l3s1k5c2/3@step:16").unwrap().shape.dim,
            2,
            "dim-less specs are 2D"
        );
    }

    #[test]
    fn sampling_is_deterministic_and_valid_in_3d() {
        let shape = CaseShape::small3();
        for kind in SITE_KINDS {
            let mut a = StdRng::seed_from_u64(13);
            let mut b = StdRng::seed_from_u64(13);
            for tech in TECHNIQUES {
                let ca = sample_case(&mut a, tech, kind, shape);
                let cb = sample_case(&mut b, tech, kind, shape);
                assert_eq!(ca, cb, "3D sampling must be deterministic");
                assert!(ca.victims_valid(), "{}", ca.spec());
                assert!(ca.spec().contains("d3"), "{}", ca.spec());
            }
        }
        let mut rng = StdRng::seed_from_u64(13);
        let corrupt = sample_corrupt_case(&mut rng, shape);
        assert!(corrupt.victims_valid(), "{}", corrupt.spec());
        assert!(corrupt_read_expected(&corrupt), "{}", corrupt.spec());
    }

    #[test]
    fn sampling_is_deterministic_and_valid() {
        let shape = CaseShape::small();
        for kind in SITE_KINDS {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            for tech in TECHNIQUES {
                let ca = sample_case(&mut a, tech, kind, shape);
                let cb = sample_case(&mut b, tech, kind, shape);
                assert_eq!(ca, cb, "sampling must be deterministic");
                assert!(ca.victims_valid(), "{}", ca.spec());
                assert!(!ca.victims.is_empty());
            }
        }
    }

    #[test]
    fn corrupt_sampling_is_deterministic_and_armed() {
        let shape = CaseShape::small();
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..32 {
            let ca = sample_corrupt_case(&mut a, shape);
            let cb = sample_corrupt_case(&mut b, shape);
            assert_eq!(ca, cb, "corruption sampling must be deterministic");
            assert!(ca.victims_valid(), "{}", ca.spec());
            assert_eq!(ca.kind(), "corrupt");
            assert!(
                corrupt_read_expected(&ca),
                "every sampled corruption case must force the corrupt read: {}",
                ca.spec()
            );
        }
    }

    #[test]
    fn corrupt_read_expectation_window() {
        // small shape: 32 steps, C=2 → writes at 10, 20, 30.
        assert_eq!(write_steps(&CaseShape::small()), vec![10, 20, 30]);
        let layout = ProcLayout::new(6, 3, Technique::CheckpointRestart.layout(), 1);
        let g = layout.grid_of(1);
        let strike = |step| CorruptionStrike { grid_id: g, step, kind: CorruptKind::GarbageHeader };
        let mk = |kill, s| ChaosCase {
            technique: Technique::CheckpointRestart,
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape::small(),
            victims: vec![(1, FaultSite::Step(kill))],
            corruption: Some(strike(s)),
        };
        assert!(corrupt_read_expected(&mk(10, 10)), "kill on the write step reads it");
        assert!(corrupt_read_expected(&mk(19, 10)), "kill before the next write reads it");
        assert!(!corrupt_read_expected(&mk(20, 10)), "the write at 20 supersedes the file");
        assert!(corrupt_read_expected(&mk(32, 30)), "nothing supersedes the last write");
        assert!(!corrupt_read_expected(&mk(9, 10)), "kill before the write never reads it");
        assert!(!corrupt_read_expected(&mk(12, 11)), "step 11 is not a write step");
        let mut other_grid = mk(12, 10);
        other_grid.corruption.as_mut().unwrap().grid_id = g + 1;
        assert!(!corrupt_read_expected(&other_grid), "victim recovers its own grid only");
        let mut not_cr = mk(12, 10);
        not_cr.technique = Technique::BuddyCheckpoint;
        assert!(!corrupt_read_expected(&not_cr), "only CR restarts read the disk store");
        let mut shrink = mk(12, 10);
        shrink.policy = RecoveryPolicy::ShrinkRedistribute;
        assert!(!corrupt_read_expected(&shrink), "shrink drops the grid, nothing restarts");
        for policy in [RecoveryPolicy::SpareSubstitute, RecoveryPolicy::DeferRepair] {
            let mut c = mk(12, 10);
            c.policy = policy;
            assert!(corrupt_read_expected(&c), "{policy} still restores from the store");
        }
    }

    #[test]
    fn o6_logic_both_directions() {
        let healthy = |case: &ChaosCase| CaseResult {
            app_errors: Vec::new(),
            err: Some(0.25),
            n_failed: Some(case.victims.len() as f64),
            procs_failed: case.victims.len(),
            makespan: 10.0,
            rank_hosts: vec![0.0],
            rank_grids: vec![0.0],
            world: Some(1.0),
            rank_orig: Vec::new(),
            dropped_grids: Vec::new(),
            timelines: Vec::new(),
            ckpt_skipped: None,
            ckpt_corrupt_applied: Some(1.0),
        };
        let base = Baseline {
            err: 0.25,
            makespan: 10.0,
            rank_hosts: vec![0.0],
            rank_grids: vec![0.0],
            world: 1,
        };
        // Armed corruption case (strike landed) + no skip report = silent
        // consumption.
        let layout = ProcLayout::new(6, 3, Technique::CheckpointRestart.layout(), 1);
        let case = ChaosCase {
            technique: Technique::CheckpointRestart,
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape::small(),
            victims: vec![(1, FaultSite::Step(12))],
            corruption: Some(CorruptionStrike {
                grid_id: layout.grid_of(1),
                step: 10,
                kind: CorruptKind::Torn { keep_pct: 50 },
            }),
        };
        let mut res = healthy(&case);
        let viols = check_oracles(&case, &res, &base, false);
        assert!(
            viols.iter().any(|v| v.oracle == "O6-restart-integrity"),
            "silent consumption must trip O6: {viols:?}"
        );
        // Same case with the skip reported: O6 is satisfied.
        res.ckpt_skipped = Some(1.0);
        let viols = check_oracles(&case, &res, &base, false);
        assert!(!viols.iter().any(|v| v.oracle == "O6-restart-integrity"), "{viols:?}");
        // Strike planned but preempted (never landed): no skip is owed —
        // an early failure detection can legitimately cancel the write.
        res.ckpt_skipped = None;
        res.ckpt_corrupt_applied = None;
        let viols = check_oracles(&case, &res, &base, false);
        assert!(
            !viols.iter().any(|v| v.oracle == "O6-restart-integrity"),
            "a preempted strike must not trip O6: {viols:?}"
        );
        // No corruption injected but files skipped: the store lied.
        let mut clean = case.clone();
        clean.corruption = None;
        let mut res = healthy(&clean);
        res.ckpt_skipped = Some(2.0);
        let viols = check_oracles(&clean, &res, &base, false);
        assert!(
            viols.iter().any(|v| v.oracle == "O6-restart-integrity"),
            "self-corruption must trip O6: {viols:?}"
        );
    }

    #[test]
    fn o7_contract_has_teeth() {
        // A shrink case whose result claims the full world survived, with
        // an identity membership map: O7 must flag the world-size lie.
        let case = ChaosCase {
            technique: Technique::CheckpointRestart,
            policy: RecoveryPolicy::ShrinkRedistribute,
            shape: CaseShape::small(),
            victims: vec![(3, FaultSite::Step(12))],
            corruption: None,
        };
        let layout = case.layout();
        let w = layout.world_size();
        let res = CaseResult {
            app_errors: Vec::new(),
            err: Some(0.01),
            n_failed: Some(1.0),
            procs_failed: 1,
            makespan: 10.0,
            rank_hosts: (0..w).map(|_| 0.0).collect(),
            rank_grids: (0..w).map(|r| layout.grid_of(r) as f64).collect(),
            world: Some(w as f64),
            rank_orig: (0..w).map(|r| r as f64).collect(),
            dropped_grids: Vec::new(),
            timelines: Vec::new(),
            ckpt_skipped: None,
            ckpt_corrupt_applied: None,
        };
        let base = Baseline {
            err: 0.01,
            makespan: 10.0,
            rank_hosts: (0..w).map(|_| 0.0).collect(),
            rank_grids: res.rank_grids.clone(),
            world: w,
        };
        let viols = check_policy_contract(&case, &res, &base);
        assert!(
            viols.iter().any(|v| v.detail.contains("dead after shrink")),
            "a full-size world after a shrink death must trip O7: {viols:?}"
        );
        // A substitute result that claims an active slot was filled by
        // another active's rank must also trip it.
        let mut sub_case = case.clone();
        sub_case.policy = RecoveryPolicy::SpareSubstitute;
        let mut sub_res = res.clone();
        sub_res.world = Some((w + CHAOS_SPARES - 1) as f64);
        sub_res.rank_orig = (0..w + CHAOS_SPARES - 1).map(|r| r as f64).collect();
        sub_res.rank_orig[3] = 5.0; // active 5 "took over" slot 3
        sub_res.rank_grids = (0..w + CHAOS_SPARES - 1)
            .map(|r| if r < w { layout.grid_of(r) as f64 } else { -1.0 })
            .collect();
        let viols = check_policy_contract(&sub_case, &sub_res, &base);
        assert!(
            viols.iter().any(|v| v.detail.contains("another active")),
            "an active stealing a slot must trip O7: {viols:?}"
        );
    }

    #[test]
    fn case_kind_classification() {
        let mk = |victims| ChaosCase {
            technique: Technique::BuddyCheckpoint,
            policy: RecoveryPolicy::Respawn,
            shape: CaseShape::small(),
            victims,
            corruption: None,
        };
        assert_eq!(mk(vec![(1, FaultSite::Step(4))]).kind(), "step");
        assert_eq!(mk(vec![(1, FaultSite::Op { kind: OpClass::Barrier, nth: 0 })]).kind(), "op");
        assert_eq!(
            mk(vec![(1, FaultSite::Step(4)), (2, FaultSite::Op { kind: OpClass::Shrink, nth: 0 })])
                .kind(),
            "recovery"
        );
        assert_eq!(
            mk(vec![(1, FaultSite::Step(4)), (2, FaultSite::DuringRecovery { nth: 1 })]).kind(),
            "recovery"
        );
    }

    #[test]
    fn json_report_is_wellformed_enough() {
        let report = CampaignReport {
            seed: 1,
            budget: 0,
            sabotage: false,
            policy: "respawn",
            cases: vec![CaseRecord {
                spec: "BC/n6l3s1k5c2/3@step:4".into(),
                technique: "BC",
                kind: "step",
                procs_failed: 1,
                ckpt_skipped: 0.0,
                violations: vec![Violation { oracle: "O3-error", detail: "x \"y\"".into() }],
                shrunk_spec: Some("BC/n6l3s1k5c2/3@step:4".into()),
                shrunk_n_failures: Some(1),
                artifacts: vec!["out/case000-trace.json".into()],
            }],
            baseline_runs: 1,
            shrink_runs: 2,
        };
        let json = report.to_json();
        assert!(json.contains(r#""violating":1"#));
        assert!(json.contains(r#"\"y\""#), "quotes must be escaped: {json}");
        assert!(json.contains(r#""artifacts":["out/case000-trace.json"]"#));
    }

    /// The fan-out contract: results are consumed in sampling order, not
    /// arrival order, so a campaign's report is byte-identical at any pool
    /// width, and from run to run. That holds for every corruption mix:
    /// which checkpoint files land is decided on the virtual clock alone.
    #[test]
    fn campaign_report_is_the_same_at_any_fanout_width() {
        let mixes = [
            ("--no-corrupt", false, false),
            ("default", true, false),
            ("corrupt-only", true, true),
        ];
        for dim in [2, 3] {
            for (mix, corruption, corrupt_only) in mixes {
                let report = |fanout_workers| {
                    let opts = CampaignOpts {
                        budget: 24,
                        seed: 1,
                        corruption,
                        corrupt_only,
                        fanout_workers,
                        dim,
                        ..Default::default()
                    };
                    run_campaign(&opts)
                };
                let (one, again, three) = (report(1), report(1), report(3));
                assert_eq!(one.cases.len(), 24);
                let one = one.to_json();
                assert_eq!(one, again.to_json(), "dim {dim} {mix}: two runs at width 1");
                assert_eq!(one, three.to_json(), "dim {dim} {mix}: width 1 vs 3");
            }
        }
    }

    /// Panic isolation: a job that panics arrives as `Err("panic: ..")` at
    /// its own index, and every other job still returns its value, in
    /// order.
    #[test]
    fn a_panicking_job_lands_at_its_own_index_and_the_rest_run_on() {
        let mut seen = Vec::new();
        let job = |i: usize| if i == 5 { panic!("boom") } else { i * 10 };
        fan_out(12, 3, job, |i, out| seen.push((i, out)));
        let want: Vec<(usize, Result<usize, String>)> = (0..12)
            .map(|i| (i, if i == 5 { Err("panic: boom".to_string()) } else { Ok(i * 10) }))
            .collect();
        assert_eq!(seen, want);
    }
}
