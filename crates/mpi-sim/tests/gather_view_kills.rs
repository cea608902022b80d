//! The gatherv kill sweep of `midop_kills.rs`, over the root-visiting
//! form: the root assembles every contribution in place from the wire
//! bytes of a `gather_view` while a victim — the root itself, or a
//! member — dies at the top of its Nth gather, at every op index of a
//! short run. Survivors must observe `ProcFailed` naming the *complete*
//! victim set, nobody may wedge, and the root must never come away with
//! a partially assembled buffer it takes for a success.

use ulfm_sim::{run, Error, FaultPlan, FaultSite, OpClass, Report, RunConfig};

const WORLD: usize = 6;
const ROUNDS: u64 = 3;
/// Marks a slot of the root's buffer no contribution has landed in.
const HOLE: u64 = u64::MAX;

/// The gather root of a communicator of `size` ranks: rank 3 of the full
/// world (a rank a fault plan may kill — rank 0 is the controller), the
/// middle rank of whatever survives.
fn root_of(size: usize) -> usize {
    size / 2
}

/// `ROUNDS` rounds of a variable-count gather assembled in place on the
/// root, with a revoke/shrink recovery loop. `expect_victims` is the set
/// every survivor's first `ProcFailed` must name, in original ranks.
fn run_script(plan: FaultPlan, expect_victims: Vec<usize>) -> Report {
    run(RunConfig::local(WORLD), move |ctx| {
        let w0 = ctx.initial_world().unwrap();
        ctx.arm_fault_sites(&plan, w0.rank());
        let mut comm = w0;
        let mut round = 0u64;
        let mut observed = 0u32;
        // The root's caller-owned target, reused across rounds.
        let mut assembled: Vec<u64> = Vec::new();
        while round < ROUNDS {
            let root = root_of(comm.size());
            // Variable counts per rank — gatherv, morally.
            let mine = vec![comm.rank() as u64; comm.rank() + 1];
            match comm.gather_view(ctx, root, &mine) {
                Ok(view) => {
                    assert_eq!(view.is_some(), comm.rank() == root, "only the root gets a view");
                    if let Some(parts) = view {
                        assert_eq!(parts.len(), comm.size());
                        let total = comm.size() * (comm.size() + 1) / 2;
                        assembled.clear();
                        assembled.resize(total, HOLE);
                        let mut at = 0;
                        for r in 0..parts.len() {
                            let part = parts.part(r);
                            assert_eq!(part.len(), r + 1, "gatherv counts");
                            part.copy_to(0, &mut assembled[at..at + r + 1]);
                            assert!(assembled[at..at + r + 1].iter().all(|&x| x == r as u64));
                            at += r + 1;
                        }
                        assert!(
                            at == total && !assembled.contains(&HOLE),
                            "a successful gather must assemble completely"
                        );
                    }
                    round += 1;
                }
                Err(e @ (Error::ProcFailed { .. } | Error::Revoked)) => {
                    if let (0, Error::ProcFailed { ranks }) = (observed, &e) {
                        // Nothing shrank yet, so ranks are original ranks.
                        assert_eq!(ranks[..], expect_victims[..], "the complete victim set");
                    }
                    observed += 1;
                    assert!(observed <= 8, "recovery did not converge");
                    comm.revoke(ctx);
                    comm = comm.shrink(ctx).expect("shrink after failure");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        ctx.report_add("done", 1.0);
        if observed > 0 {
            ctx.report_add("observers", 1.0);
        }
        if comm.rank() == 0 {
            ctx.report_f64("final_size", comm.size() as f64);
        }
    })
}

fn check(report: &Report, deaths: usize, what: &str) {
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, deaths, "{what}: wrong number of deaths");
    let survivors = (WORLD - deaths) as f64;
    assert_eq!(report.get_f64("done"), Some(survivors), "{what}: every survivor finishes");
    assert_eq!(report.get_f64("final_size"), Some(survivors), "{what}");
    let observers = if deaths > 0 { Some(survivors) } else { None };
    assert_eq!(report.get_f64("observers"), observers, "{what}: uniform failure");
}

/// One victim, every op index it can reach plus one vacuous index.
fn sweep(victim: usize) {
    for nth in 0..=ROUNDS {
        let plan = FaultPlan::at_site(victim, FaultSite::Op { kind: OpClass::Gather, nth });
        let report = run_script(plan, vec![victim]);
        check(&report, usize::from(nth < ROUNDS), &format!("victim {victim} nth={nth}"));
    }
}

#[test]
fn kill_the_root_inside_gather_view_at_every_index() {
    sweep(root_of(WORLD));
}

#[test]
fn kill_a_member_inside_gather_view_at_every_index() {
    sweep(1);
}

#[test]
fn two_victims_in_one_gather_view_are_reported_together() {
    // The root and a member die in the same collective: every survivor's
    // error names both, not whichever was noticed first.
    for nth in 0..ROUNDS {
        let plan = FaultPlan::new_sites(vec![
            (root_of(WORLD), FaultSite::Op { kind: OpClass::Gather, nth }),
            (4, FaultSite::Op { kind: OpClass::Gather, nth }),
        ]);
        let report = run_script(plan, vec![root_of(WORLD), 4]);
        check(&report, 2, &format!("root + member nth={nth}"));
    }
}
