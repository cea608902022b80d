//! Virtual-clock pins for the repair path, on the OPL profile with the
//! calibrated beta-ULFM cost model (the clock the paper's figures are
//! drawn on). Everything here is deterministic.
//!
//! One failure, `Respawn`, per technique in 2D and 3D:
//!
//! * rank 0 makes, and its timeline books, exactly the three agreements
//!   of the paper's listings (Fig. 3 twice, Fig. 5 once) — the fourth, a
//!   commit vote after the data recovery, is gone;
//! * `T_RECONSTRUCT` is, to the bit, the value the four-agree protocol
//!   reported (the `BEFORE` constants were printed by `print_pins` on the commit
//!   that still had the vote);
//! * the makespan fell by exactly that vote: one failure-free `agree`
//!   plus the explicit `failure_ack` that preceded it — and, under
//!   Alternate Combination, by the window of the sample it no longer
//!   ships to the lost grid (its recovery is the coefficient solve alone);
//! * with an asynchronous checkpoint in flight at the kill (CR), the
//!   checkpoint time grew by at most one barrier charge — the drain now
//!   runs before the confirming barrier instead of after it — and the
//!   makespan's fall is short by exactly that much.

use ftsg_core::app::keys;
use ftsg_core::{run_app, AppConfig, ProcLayout, ProcLayoutN, Technique};
use ulfm_sim::{run, BetaUlfm, ClusterProfile, FaultPlan, Report, RunConfig, UlfmCostModel};

const TECHNIQUES: [Technique; 4] = [
    Technique::CheckpointRestart,
    Technique::ResamplingCopying,
    Technique::AlternateCombination,
    Technique::BuddyCheckpoint,
];

/// `(dim, technique label, makespan, T_RECONSTRUCT, T_CKPT)` with the
/// commit vote still in place.
const BEFORE: [(usize, &str, f64, f64, f64); 8] = [
    (2, "CR", 9.312898560640017, 1.4790008659199998, 5.045523440959997),
    (2, "RC", 1.98611449008, 1.49556572304, 0.0),
    (2, "AC", 1.9689661652800003, 1.48171572304, 0.0),
    (2, "BC", 3.392369128000002, 1.4790036947199998, 2.1100479999869304e-5),
    (3, "CR", 11.383781616639999, 1.5372567961599977, 7.00005432768),
    (3, "RC", 2.1099487056421036, 1.5954304192421054, 0.0),
    (3, "AC", 2.0413321022399993, 1.5398971772799999, 0.0),
    (3, "BC", 3.5087423955199957, 1.5372600678400001, 1.1311039999850614e-5),
];

/// `(dim, makespan, makespan with the sample)` of the AC rows: now, and
/// while Alternate Combination still gathered the survivors, combined
/// them onto the lost level and scattered that sample into the respawned
/// group (printed by `print_pins` on the commit that still did, release
/// build: there the sample's messages raced the respawn, and a debug build
/// printed less). The difference is the sample window.
const AC_SAMPLE: [(usize, f64, f64); 2] =
    [(2, 1.48256669776, 1.4826661652800004), (3, 1.5402657572800007, 1.540332102240001)];

fn config(dim: usize, technique: Technique) -> AppConfig {
    if dim >= 3 {
        AppConfig::small_nd(technique, dim)
    } else {
        AppConfig::small(technique)
    }
}

/// One non-root victim in grid 1, killed mid-run (CR/BC, so a checkpoint
/// write is in flight) or right before the final detection (RC/AC).
fn one_failure(dim: usize, technique: Technique) -> (Report, usize) {
    let base = config(dim, technique);
    let layout = technique.layout();
    let (world, victim) = if dim >= 3 {
        let lay = ProcLayoutN::new(base.dim, base.n, base.l, layout, base.scale);
        (lay.world_size(), lay.group(1).first + lay.group(1).size - 1)
    } else {
        let lay = ProcLayout::new(base.n, base.l, layout, base.scale);
        (lay.world_size(), lay.group(1).first + lay.group(1).size - 1)
    };
    let when = if technique.has_periodic_protection() { base.steps() / 2 } else { base.steps() };
    let cfg = base.with_plan(FaultPlan::single(victim, when));
    // One scheduler worker, as the benchmark pins it: with more, whether
    // the victim's halo partner gets its last sends out before an
    // end-of-run kill lands is a real-time race worth 0.13 virtual ms.
    let rc = RunConfig::cluster(ClusterProfile::opl(), world).with_seed(11).with_workers(1);
    let report = run(rc, move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 1);
    assert_eq!(report.timelines.len(), 1);
    (report, world)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn one_failure_costs_three_agreements_and_the_reconstruction_is_unchanged() {
    for (dim, label, makespan0, reconstruct0, ckpt0) in BEFORE {
        let technique =
            TECHNIQUES.into_iter().find(|t| t.label() == label).expect("technique label");
        let (report, world) = one_failure(dim, technique);
        let what = format!("{label}/{dim}D");
        // All three run with fewer than two failures known, at world size.
        let agree = BetaUlfm.agree(world, 0);
        let ack = BetaUlfm.failure_ack(world);
        // The phase is rank 0's time *in* the calls: the three charges
        // plus whatever it waited there for later arrivals, which its
        // whole-run peer wait bounds.
        let booked = report.timelines[0].phase("agree");
        let waited = report.metrics.ranks[0].peer_wait;
        assert!(
            booked >= 3.0 * agree * (1.0 - 1e-12) && booked <= 3.0 * agree + waited + 1e-12,
            "{what}: agree phase {booked} vs 3 x {agree} (+ at most {waited} waiting)"
        );
        assert!(booked < 3.5 * agree, "{what}: a fourth agreement is back ({booked})");
        let calls = |op: &str| report.get_list(&keys::op_count(op)).expect("op counts")[0];
        assert_eq!((calls("agree"), calls("intercomm_agree")), (2.0, 1.0), "{what}");
        let reconstruct = report.get_f64(keys::T_RECONSTRUCT).expect("t_reconstruct");
        assert_eq!(
            reconstruct.to_bits(),
            reconstruct0.to_bits(),
            "{what}: T_RECONSTRUCT {reconstruct:?} vs {reconstruct0:?}"
        );
        // An in-flight checkpoint write completes when it completes: the
        // confirming barrier that used to run before its drain now runs
        // after, so that much of the saving goes back into the write's
        // exposed tail — and nothing else moves.
        let ckpt = report.get_f64(keys::T_CKPT).expect("t_ckpt_total");
        let barrier = ClusterProfile::opl().net.barrier(world);
        assert!(
            ckpt >= ckpt0 && ckpt - ckpt0 <= barrier * (1.0 + 1e-9),
            "{what}: T_CKPT moved {ckpt0:?} -> {ckpt:?}, more than one barrier ({barrier})"
        );
        let mut window = 0.0;
        if technique == Technique::AlternateCombination {
            let (_, now, with_sample) =
                AC_SAMPLE.into_iter().find(|row| row.0 == dim).expect("AC row");
            assert_eq!(report.makespan.to_bits(), now.to_bits(), "{what}: {}", report.makespan);
            window = with_sample - now;
            assert!(window > 0.0, "{what}: the sample window is {window}");
        }
        let saved = makespan0 - report.makespan;
        assert!(
            close(saved + (ckpt - ckpt0), agree + ack + window),
            "{what}: makespan fell by {saved}, not {agree} + {ack} + {window} - {}",
            ckpt - ckpt0
        );
        if technique == Technique::CheckpointRestart && dim == 2 {
            assert!(report.io_exposed > 0.0, "{what}: the drain must have waited on a write");
        }
    }
}

/// Prints the rows of [`BEFORE`] for the current commit.
#[test]
#[ignore = "re-pinning aid: run with --ignored --nocapture"]
fn print_pins() {
    for dim in [2usize, 3] {
        for technique in TECHNIQUES {
            let (report, _) = one_failure(dim, technique);
            println!(
                "    ({dim}, {:?}, {:?}, {:?}, {:?}),",
                technique.label(),
                report.makespan,
                report.get_f64(keys::T_RECONSTRUCT).unwrap(),
                report.get_f64(keys::T_CKPT).unwrap(),
            );
        }
    }
}
