//! `expt timeline` — per-phase recovery timeline breakdown (the paper's
//! Figs. 8–11 lens over one failure event), for all four techniques.
//!
//! For each technique (CR, RC, AC, BC) the small configuration is run
//! with one injected failure in the controller's own grid group, and the
//! resulting recovery timeline is broken down phase by phase: detect,
//! ack, revoke+shrink, failed-list, spawn, merge, agree, rank reorder,
//! data restore, and the uninstrumented residual. The table shows virtual
//! milliseconds per phase; `--json` additionally writes the raw
//! timelines, keyed by technique label, for plotting.
//!
//! A second pair of tables is the op-count audit: how many ULFM calls the
//! event put on rank 0's path under `Respawn` and under
//! `SpareSubstitute`, next to what the paper's listings (Figs. 3 and 5)
//! make — the reproduction should perform exactly those.
//!
//! Last comes the repair-path ledger ([`crate::experiments::repair`]):
//! the benchmark's five kill-and-repair shapes on OPL under the beta-ULFM
//! model, parent commit vs this one, written to `BENCH_pr22.json` under
//! `--out` (the committed one holds two `expt regress` baselines) and
//! `results/repair.csv`.
//!
//! `--alloc-sites <workload>` prints instead where one warm rep of a
//! benchmark workload's shape asks the allocator, by call site, from a
//! backtrace of every request (see [`crate::experiments::alloc_sites`]):
//! requests and bytes per site, once with the sites that make the most
//! requests first and once with those that ask for the most bytes. The
//! totals are the benchmark's `heap_allocs` and `heap_alloc_mb` of that
//! workload, give or take the harness's own few.

use ftsg_core::app::{keys, AUDITED_OPS};
use ftsg_core::{run_app, AppConfig, ProcLayout, RecoveryPolicy, PHASES};
use ulfm_sim::{run, timelines_to_json, FaultPlan, RecoveryTimeline, RunConfig};

use crate::chaos::TECHNIQUES;
use crate::cli::{Args, Usage};
use crate::experiments::{alloc_sites, repair};
use crate::table::{utc_today, Table};

/// ULFM calls of one single-failure repair in the paper's listings, in
/// [`AUDITED_OPS`] order: Fig. 3's agree before the detecting and before
/// the confirming barrier plus Fig. 5's on the intercommunicator, one
/// shrink, spawn and merge, the reorder split, the two barriers.
const LISTINGS_RESPAWN: [u64; 7] = [2, 1, 1, 1, 1, 1, 2];
/// The same loop with Fig. 5 replaced by one promote split.
const LISTINGS_SUBSTITUTE: [u64; 7] = [2, 0, 1, 0, 0, 1, 2];

/// One failure in rank 0's own group, so the rank-0 timeline shows the
/// data-restore phase itself rather than a wait in the confirming barrier.
/// Returns the timelines and rank 0's per-event [`AUDITED_OPS`] counts.
fn one_failure(
    technique: ftsg_core::Technique,
    policy: RecoveryPolicy,
    seed: u64,
) -> (Vec<RecoveryTimeline>, Vec<u64>) {
    let spares = if policy == RecoveryPolicy::SpareSubstitute { 1 } else { 0 };
    let base = AppConfig::small(technique).with_recovery_policy(policy).with_spares(spares);
    let steps = base.steps();
    let layout = ProcLayout::new(base.n, base.l, technique.layout(), base.scale);
    let victim = layout.group(0).first + 1;
    let when = if technique.has_periodic_protection() { steps / 2 } else { steps };
    let cfg = base.with_plan(FaultPlan::single(victim, when));
    let world = cfg.world_size(layout.world_size());
    let report = run(RunConfig::local(world).with_seed(seed), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    let counts = AUDITED_OPS
        .iter()
        .map(|op| report.get_list(&keys::op_count(op)).map_or(0, |per_event| per_event[0] as u64))
        .collect();
    (report.timelines, counts)
}

/// The op-count audit of one policy: the listings' counts beside every
/// technique's (`per_tech` in [`TECHNIQUES`] order).
fn audit_table(
    policy: RecoveryPolicy,
    listings: [u64; 7],
    per_tech: &[Vec<u64>],
    seed: u64,
) -> Table {
    let mut headers: Vec<&str> = vec!["op", "listings"];
    headers.extend(TECHNIQUES.iter().map(|t| t.label()));
    let mut table = Table::new(
        format!("ULFM calls per failure event on rank 0 ({}, seed={seed})", policy.label()),
        &headers,
    );
    for (i, op) in AUDITED_OPS.iter().enumerate() {
        let mut row = vec![op.to_string(), listings[i].to_string()];
        row.extend(per_tech.iter().map(|counts| counts[i].to_string()));
        table.row(row);
    }
    table
}

/// `expt timeline`, or with `--alloc-sites` the attribution instead
/// (which traces through the counting allocator of the `expt` binary).
pub fn main(a: &Args) -> Result<i32, Usage> {
    let seed = a.get_or("--seed", 1)?;
    if let Some(workload) = a.value("--alloc-sites") {
        return Ok(match alloc_sites::attribute(workload) {
            Ok(sites) => {
                print!("{}", sites.table(25, false).render());
                print!("{}", sites.table(25, true).render());
                0
            }
            Err(e) => {
                eprintln!("expt timeline: {e}");
                2
            }
        });
    }
    let mut headers: Vec<&str> = vec!["phase"];
    headers.extend(TECHNIQUES.iter().map(|t| t.label()));
    let mut table =
        Table::new(format!("Recovery timeline breakdown (ms, seed={})", seed), &headers);

    let respawn: Vec<(Vec<RecoveryTimeline>, Vec<u64>)> =
        TECHNIQUES.iter().map(|&t| one_failure(t, RecoveryPolicy::Respawn, seed)).collect();
    let per_tech: Vec<(&'static str, &Vec<RecoveryTimeline>)> =
        TECHNIQUES.iter().zip(&respawn).map(|(t, (timelines, _))| (t.label(), timelines)).collect();
    let respawn_ops: Vec<Vec<u64>> = respawn.iter().map(|(_, ops)| ops.clone()).collect();
    for (label, tls) in &per_tech {
        assert!(!tls.is_empty(), "{label}: the injected failure must produce a recovery timeline");
    }
    for (i, phase) in PHASES.iter().enumerate() {
        let mut row = vec![phase.to_string()];
        for (_, tls) in &per_tech {
            let ms: f64 = tls.iter().map(|tl| tl.phases[i].1).sum::<f64>() * 1e3;
            row.push(format!("{ms:.3}"));
        }
        table.row(row);
    }
    let mut total_row = vec!["total".to_string()];
    for (_, tls) in &per_tech {
        let ms: f64 = tls.iter().map(|tl| tl.total()).sum::<f64>() * 1e3;
        total_row.push(format!("{ms:.3}"));
    }
    table.row(total_row);
    print!("{}", table.render());
    // The split row is one above the listings': the application's per-grid
    // group split rides the confirming round.
    let substitute_ops: Vec<Vec<u64>> = TECHNIQUES
        .iter()
        .map(|&t| one_failure(t, RecoveryPolicy::SpareSubstitute, seed).1)
        .collect();
    for (policy, listings, ops) in [
        (RecoveryPolicy::Respawn, LISTINGS_RESPAWN, &respawn_ops),
        (RecoveryPolicy::SpareSubstitute, LISTINGS_SUBSTITUTE, &substitute_ops),
    ] {
        print!("{}", audit_table(policy, listings, ops, seed).render());
    }

    let ledger = repair::run_all();
    ledger.table().emit(a.csv("repair.csv"));
    a.record("BENCH_pr22.json", &ledger.to_json(&utc_today()));

    if let Some(path) = a.value("--json") {
        let entries: Vec<String> = per_tech
            .iter()
            .map(|(label, tls)| format!("\"{label}\": {}", timelines_to_json(tls)))
            .collect();
        let json = format!("{{\n{}\n}}\n", entries.join(",\n"));
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("expt timeline: cannot write {path}: {e}");
            return Ok(2);
        }
        println!("timelines written to {path}");
    }
    Ok(0)
}
