//! Mid-collective kill stress: a victim dies at the *top of its Nth
//! runtime operation* — inside a barrier, a variable-count gather, an
//! allreduce, or the shrink of a previous failure's recovery — at every
//! op index of a short run. Survivors must observe `ProcFailed` (strict
//! collectives fail uniformly), and the revoke → shrink recovery loop
//! must converge to a working communicator of the right size.
//!
//! This closes the DESIGN.md §7 item on operation-site fault injection at
//! the runtime level; the application-level campaign lives in
//! `ftsg-bench`'s `expt chaos`.

use ulfm_sim::{run, Error, FaultPlan, FaultSite, OpClass, Report, RunConfig};

const WORLD: usize = 6;
const ROUNDS: u64 = 3;

/// Run `ROUNDS` rounds of barrier → gatherv → allreduce with a
/// revoke/shrink recovery loop, under the given fault plan. Every rank
/// that finishes reports `done`; every rank that observed at least one
/// recoverable error reports `observer`; (shrunk) rank 0 reports the
/// final communicator size.
fn run_script(plan: FaultPlan) -> Report {
    run(RunConfig::local(WORLD), move |ctx| {
        let w0 = ctx.initial_world().unwrap();
        ctx.arm_fault_sites(&plan, w0.rank());
        let mut comm = w0;
        let mut round = 0u64;
        let mut observed = 0u32;
        while round < ROUNDS {
            let res = (|| -> ulfm_sim::Result<()> {
                comm.barrier(ctx)?;
                // Variable counts per rank — gatherv, morally.
                let mine = vec![comm.rank() as u64; comm.rank() + 1];
                if let Some(parts) = comm.gather(ctx, 0, &mine)? {
                    for (r, p) in parts.iter().enumerate() {
                        assert_eq!(p.len(), r + 1, "gatherv counts");
                        assert!(p.iter().all(|&x| x == r as u64), "gatherv payload");
                    }
                }
                let n = comm.size() as u64;
                let sum = comm.allreduce_sum(ctx, comm.rank() as u64)?;
                assert_eq!(sum, n * (n - 1) / 2, "allreduce over current membership");
                Ok(())
            })();
            match res {
                Ok(()) => round += 1,
                Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => {
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

/// Sweep one op class over every op index the victim can reach (plus one
/// vacuous index past the end) and check the convergence invariants.
fn sweep(kind: OpClass) {
    for nth in 0..=ROUNDS {
        let victim = 2;
        let plan = FaultPlan::at_site(victim, FaultSite::Op { kind, nth });
        let report = run_script(plan);
        report.assert_no_app_errors();
        // The victim executes each op class once per round, so it dies
        // iff the armed index lies within the run.
        let dies = nth < ROUNDS;
        let expect_failed = usize::from(dies);
        assert_eq!(
            report.procs_failed, expect_failed,
            "{kind:?} nth={nth}: wrong number of deaths"
        );
        let survivors = (WORLD - expect_failed) as f64;
        assert_eq!(
            report.get_f64("done"),
            Some(survivors),
            "{kind:?} nth={nth}: every survivor must finish all rounds"
        );
        assert_eq!(report.get_f64("final_size"), Some(survivors));
        if dies {
            // Strict collectives fail uniformly: every survivor observed
            // the failure and entered recovery.
            assert_eq!(
                report.get_f64("observers"),
                Some(survivors),
                "{kind:?} nth={nth}: all survivors must observe ProcFailed"
            );
        } else {
            assert_eq!(report.get_f64("observers"), None, "{kind:?} nth={nth}: vacuous site");
        }
    }
}

#[test]
fn kill_inside_barrier_at_every_index() {
    sweep(OpClass::Barrier);
}

#[test]
fn kill_inside_gatherv_at_every_index() {
    sweep(OpClass::Gather);
}

#[test]
fn kill_inside_allreduce_at_every_index() {
    sweep(OpClass::Allreduce);
}

#[test]
fn kill_inside_shrink_of_previous_recovery() {
    // v1 dies in the first barrier; while the survivors shrink, v2 dies
    // at the top of its shrink call. The tolerant shrink (or the retry
    // round after it) must absorb the second casualty too.
    let plan = FaultPlan::new_sites(vec![
        (2, FaultSite::Op { kind: OpClass::Barrier, nth: 0 }),
        (4, FaultSite::Op { kind: OpClass::Shrink, nth: 0 }),
    ]);
    let report = run_script(plan);
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 2, "both victims must die");
    assert_eq!(report.get_f64("done"), Some((WORLD - 2) as f64));
    assert_eq!(report.get_f64("final_size"), Some((WORLD - 2) as f64));
    assert_eq!(
        report.get_f64("observers"),
        Some((WORLD - 2) as f64),
        "every survivor observed at least the first failure"
    );
}

#[test]
fn two_victims_die_in_same_collective() {
    let plan = FaultPlan::new_sites(vec![
        (1, FaultSite::Op { kind: OpClass::Gather, nth: 1 }),
        (3, FaultSite::Op { kind: OpClass::Gather, nth: 1 }),
    ]);
    let report = run_script(plan);
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 2);
    assert_eq!(report.get_f64("done"), Some((WORLD - 2) as f64));
    assert_eq!(report.get_f64("final_size"), Some((WORLD - 2) as f64));
}
