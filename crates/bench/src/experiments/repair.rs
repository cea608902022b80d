//! The repair path on the virtual clock: what one failure event costs on
//! the benchmark's five kill-and-repair shapes, and how many ULFM calls it
//! makes, before and after the commit vote went (PR 22).
//!
//! The shapes, victims and runtime settings are the ones
//! `benchmark/src/workload.rs` declares (OPL profile, beta-ULFM cost
//! model, one scheduler worker, seed 7), re-declared here because the
//! benchmark is a separate package; the four virtual metrics of a row are
//! the benchmark's gated `virt_makespan`, `virt_repair`
//! (= `T_RECONSTRUCT`), `virt_restore` (= `T_RECOVERY + T_CKPT`) and
//! `err_l1`. Everything is deterministic, so the committed
//! `BENCH_pr22.json` is exact and [`measure_paper_shape`] feeds a
//! *blocking* exact-match gate of `expt-regress`.

use ftsg_core::app::{keys, AUDITED_OPS};
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::{run, ClusterProfile, FaultPlan, Report, RunConfig};

use crate::experiments::codec::{git_revision, rustc_version};
use crate::experiments::kernel::cpu_model;
use crate::table::Table;

/// The seed the benchmark's recorded runs use (it only picks which
/// non-root rank of the victim grid dies; the metrics do not depend on it).
const SEED: u64 = 7;

/// One benchmark workload: `(name, configuration, victim grids, kill step
/// or `None` for the final step)`.
type Shape = (&'static str, fn() -> AppConfig, &'static [usize], Option<u64>);

const SHAPES: [Shape; 5] = [
    (
        "paper2d_kill",
        || AppConfig::paper_shaped(Technique::AlternateCombination, 10, 4, 9),
        &[1],
        None,
    ),
    (
        "ranks1k_kill",
        || AppConfig::paper_shaped(Technique::AlternateCombination, 9, 82, 2),
        &[1, 2],
        None,
    ),
    (
        "solve3d_kill",
        || {
            let mut cfg = AppConfig::small_nd(Technique::AlternateCombination, 3);
            (cfg.n, cfg.l, cfg.scale, cfg.log2_steps) = (7, 4, 2, 6);
            cfg
        },
        &[1],
        None,
    ),
    (
        "ckpt_heavy",
        || AppConfig::paper_shaped(Technique::CheckpointRestart, 10, 4, 8).with_checkpoints(16),
        &[1],
        Some(128 + 3),
    ),
    (
        "rc_spare_kill",
        || {
            AppConfig::paper_shaped(Technique::ResamplingCopying, 9, 4, 8)
                .with_recovery_policy(RecoveryPolicy::SpareSubstitute)
                .with_spares(2)
        },
        &[1, 6],
        None,
    ),
];

/// The four gated virtual metrics of one run plus rank 0's per-event
/// [`AUDITED_OPS`] counts (summed over the run's failure events).
#[derive(Debug, Clone, PartialEq)]
pub struct RepairRow {
    pub makespan: f64,
    pub repair: f64,
    pub restore: f64,
    pub err_l1: f64,
    pub ops: [u64; AUDITED_OPS.len()],
    /// Checkpoint snapshots the writer superseded (`ckpt_superseded`).
    pub superseded: u64,
}

/// The parent commit (`af44c49`, the four-agree protocol) on the same
/// shapes: the benchmark's seed-7 values, and rank 0's calls per event
/// (whole-run `MetricsCell` counts of the kill run minus the healthy
/// run's — that commit had no per-event keys).
const PARENT: [RepairRow; 5] = [
    RepairRow {
        makespan: 2.3339762269221,
        repair: 1.5954274701221054,
        restore: 0.000140000000000029,
        err_l1: 2.1087270803889937e-6,
        ops: [3, 1, 1, 1, 1, 2, 2],
        superseded: 0,
    },
    RepairRow {
        makespan: 184.62005456143999,
        repair: 183.42729467072,
        restore: 0.0001399999999875945,
        err_l1: 1.317342714116752e-7,
        ops: [3, 1, 1, 1, 1, 2, 2],
        superseded: 0,
    },
    RepairRow {
        makespan: 2.1650586609852627,
        repair: 1.6166595753852635,
        restore: 0.000180000000000069,
        err_l1: 0.0010830862873698035,
        ops: [3, 1, 1, 1, 1, 2, 2],
        superseded: 0,
    },
    RepairRow {
        makespan: 58.751353987199806,
        repair: 1.5802616806484213,
        restore: 48.04178158799222,
        err_l1: 1.054192564302708e-6,
        ops: [3, 1, 1, 1, 1, 2, 2],
        superseded: 0,
    },
    RepairRow {
        makespan: 45.71703210581893,
        repair: 45.15597216741895,
        restore: 0.0002662438400022893,
        err_l1: 2.6029160974104527e-5,
        ops: [3, 0, 1, 0, 0, 2, 2],
        superseded: 0,
    },
];

/// World ranks `first..first + size` of every sub-grid's group.
fn groups(cfg: &AppConfig) -> Vec<(usize, usize)> {
    let layout = cfg.technique.layout();
    if cfg.dim >= 3 {
        let lay = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, layout, cfg.scale);
        lay.groups().iter().map(|g| (g.first, g.size)).collect()
    } else {
        let lay = ProcLayout::new(cfg.n, cfg.l, layout, cfg.scale);
        lay.groups().iter().map(|g| (g.first, g.size)).collect()
    }
}

/// Run one shape the way `benchmark/src/rep.rs` does.
fn launch(shape: &Shape) -> Report {
    let (name, base, victim_grids, kill_step) = *shape;
    let mut cfg = base();
    let groups = groups(&cfg);
    let layout_world = groups.last().map_or(0, |&(first, size)| first + size);
    let world = cfg.world_size(layout_world);
    let step = kill_step.unwrap_or_else(|| cfg.steps());
    // The seed picks one non-root rank in each victim grid: the
    // benchmark's `FaultPlan::random` draw with every other rank forbidden.
    let kills = victim_grids.iter().enumerate().map(|(k, &grid)| {
        let (first, size) = groups[grid];
        let candidates = first + 1..first + size;
        let forbidden: Vec<usize> = (1..world).filter(|r| !candidates.contains(r)).collect();
        let pick = FaultPlan::random(1, world, 0, SEED.wrapping_add(k as u64), &forbidden);
        (pick.victim_ranks()[0], step)
    });
    cfg.plan = FaultPlan::new(kills.collect());
    cfg.ckpt_dir = std::env::temp_dir().join(format!("ftsg-repair-{}-{name}", std::process::id()));
    let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(SEED).with_workers(1);
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    report
}

/// The five workloads' names, in the benchmark's order.
pub fn workloads() -> impl Iterator<Item = &'static str> {
    SHAPES.iter().map(|shape| shape.0)
}

/// Run the workload called `name` the way the benchmark does (`None` if
/// there is no such workload).
pub fn launch_workload(name: &str) -> Option<Report> {
    SHAPES.iter().find(|shape| shape.0 == name).map(launch)
}

/// What one whole run of the workload called `name` moves a counter of
/// the calling binary's counting allocator by — the bytes asked of it, or
/// its requests — after a warm-up run, so process-wide lazies are paid
/// (`None` if there is no such workload).
pub fn run_count(name: &str, count: fn() -> u64) -> Option<u64> {
    launch_workload(name)?;
    let before = count();
    launch_workload(name)?;
    Some(count() - before)
}

fn row_of(report: &Report) -> RepairRow {
    let get = |key: &str| report.get_f64(key).unwrap_or(f64::NAN);
    RepairRow {
        makespan: report.makespan,
        repair: get(keys::T_RECONSTRUCT),
        restore: get(keys::T_RECOVERY) + get(keys::T_CKPT),
        err_l1: get(keys::ERR_L1),
        ops: AUDITED_OPS.map(|op| {
            report.get_list(&keys::op_count(op)).map_or(0, |v| v.iter().sum::<f64>() as u64)
        }),
        superseded: report.get_f64(keys::CKPT_SUPERSEDED).map_or(0, |n| n as u64),
    }
}

/// `(world + intercomm agree calls, T_RECONSTRUCT, makespan)` of the
/// one-failure repair on the paper's own shape (`paper2d_kill`) — the
/// exact-match gates.
pub fn measure_paper_shape() -> (u64, f64, f64) {
    let row = row_of(&launch(&SHAPES[0]));
    (row.ops[0] + row.ops[1], row.repair, row.makespan)
}

/// The benchmark's `virt_restore` (`T_RECOVERY + T_CKPT`) and
/// `virt_makespan` of one run of the workload called `name` — exact-match
/// gates for `ckpt_heavy` (`None` if there is no such workload).
pub fn measure_restore(name: &str) -> Option<(f64, f64)> {
    launch_workload(name).map(|report| {
        let row = row_of(&report);
        (row.restore, row.makespan)
    })
}

/// `(asynchronous, synchronous)` makespan of one Checkpoint/Restart kill
/// on the 3D shape `core/tests/virt_pins.rs` pins: `AppConfig::small_nd`
/// at d = 3 on OPL, one scheduler worker, seed 11, the last rank of grid
/// 1 killed halfway through the run, with the asynchronous checkpoint
/// stage and with `--sync-ckpt`. No benchmark workload runs 3D CR; this
/// is the exact gate `cr3d_kill_makespan`.
pub fn measure_cr3d() -> (f64, f64) {
    let makespan = |sync: bool| {
        let mut cfg = AppConfig::small_nd(Technique::CheckpointRestart, 3);
        if sync {
            cfg = cfg.with_sync_checkpoints();
        }
        let groups = groups(&cfg);
        let world = groups.last().map_or(0, |&(first, size)| first + size);
        let (first, size) = groups[1];
        cfg.plan = FaultPlan::single(first + size - 1, cfg.steps() / 2);
        let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(11).with_workers(1);
        let report = run(rc, move |ctx| run_app(&cfg, ctx));
        report.assert_no_app_errors();
        report.makespan
    };
    (makespan(false), makespan(true))
}

/// Parent and change on all five shapes, with the host stamp.
#[derive(Debug, Clone)]
pub struct RepairReport {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub git: String,
    /// `(workload, parent, change)`.
    pub rows: Vec<(&'static str, RepairRow, RepairRow)>,
}

pub fn run_all() -> RepairReport {
    RepairReport {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: cpu_model(),
        rustc: rustc_version(),
        git: git_revision(),
        rows: SHAPES
            .iter()
            .zip(PARENT)
            .map(|(shape, parent)| (shape.0, parent, row_of(&launch(shape))))
            .collect(),
    }
}

impl RepairReport {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Repair path on the virtual clock: parent (af44c49, commit vote) vs change (vsec)",
            &[
                "workload",
                "makespan",
                "was",
                "repair",
                "was",
                "restore",
                "was",
                "agree+intercomm_agree",
                "was",
                "ckpt_superseded",
            ],
        );
        for (name, parent, change) in &self.rows {
            t.row(vec![
                name.to_string(),
                format!("{:.7}", change.makespan),
                format!("{:.7}", parent.makespan),
                format!("{:.7}", change.repair),
                format!("{:.7}", parent.repair),
                format!("{:.7}", change.restore),
                format!("{:.7}", parent.restore),
                format!("{}+{}", change.ops[0], change.ops[1]),
                format!("{}+{}", parent.ops[0], parent.ops[1]),
                change.superseded.to_string(),
            ]);
        }
        t
    }

    /// `BENCH_pr22.json` contents.
    pub fn to_json(&self, date: &str) -> String {
        let side = |r: &RepairRow| {
            let ops: Vec<String> =
                AUDITED_OPS.iter().zip(r.ops).map(|(op, n)| format!("\"{op}\": {n}")).collect();
            format!(
                "{{\"virt_makespan\": {:?}, \"virt_repair\": {:?}, \"virt_restore\": {:?}, \
                 \"err_l1\": {:?}, \"ops_per_event\": {{{}}}}}",
                r.makespan,
                r.repair,
                r.restore,
                r.err_l1,
                ops.join(", ")
            )
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(name, parent, change)| {
                format!(
                    "  {{\"workload\": \"{name}\", \"clock\": \"virtual\",\n   \"parent\": {},\n   \
                     \"change\": {}}}",
                    side(parent),
                    side(change)
                )
            })
            .collect();
        let paper = &self.rows[0].2;
        format!(
            "{{\n \"pr\": 22,\n \"date\": \"{date}\",\n \"note\": \"One consensus round fewer \
             per repair: the data recovery runs inside the confirming round of the paper's \
             Fig. 3 loop and the commit vote (an agree plus an explicit failure_ack) is gone. \
             The benchmark's five shapes on OPL under the beta-ULFM model, one scheduler \
             worker, seed 7; rank 0's ULFM calls summed over the run's failure events. Virtual \
             clock: every number is exact and host-independent; parent = af44c49.\",\n \
             \"config\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
             \"seed\": {SEED}}},\n \"acceptance\": {{\n  \"paper_shape_agree_calls\": {},\n  \
             \"paper_shape_t_reconstruct\": {:?}\n }},\n \"rows\": [\n{}\n ]\n}}\n",
            self.nproc,
            self.cpu,
            self.rustc,
            self.git,
            paper.ops[0] + paper.ops[1],
            paper.repair,
            rows.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_smallest_shape_reproduces_the_benchmark_row_and_saves_one_agree() {
        let (name, parent) = (SHAPES[4].0, &PARENT[4]);
        assert_eq!(name, "rc_spare_kill");
        let change = row_of(&launch(&SHAPES[4]));
        // The listed rounds and the numerics did not move; one agree did.
        assert_eq!(change.repair.to_bits(), parent.repair.to_bits());
        assert_eq!(change.restore.to_bits(), parent.restore.to_bits());
        assert_eq!(change.err_l1.to_bits(), parent.err_l1.to_bits());
        assert_eq!(change.ops, [2, 0, 1, 0, 0, 2, 2]);
        assert!(change.makespan < parent.makespan - 0.5);
    }
}
