//! Mid-operation kill stress for the **nonblocking** layer: a victim
//! dies at the top of its Nth `isend`, `irecv` or `wait` — at every op
//! index of a short run. The p2p phase is a ring shift built from
//! `isend`/`irecv`/`waitall_with`; a strict allreduce closes each round
//! so survivors agree uniformly on failures. A dead peer must surface
//! `ProcFailed` (or `Revoked`) at completion — never a wedge — and the
//! revoke → shrink recovery loop must converge to a working communicator
//! of the right size.

use ulfm_sim::{run, waitall_with, Error, FaultPlan, FaultSite, OpClass, Report, RunConfig};

const WORLD: usize = 6;
const ROUNDS: u64 = 3;

/// Run `ROUNDS` rounds of ring shift (isend right, irecv left, waitall_with)
/// followed by an allreduce, with a revoke/shrink recovery loop, under
/// the given fault plan. Reporting mirrors `midop_kills`: `done` per
/// finishing rank, `observers` per rank that saw a recoverable error,
/// `final_size` from the (shrunk) rank 0.
fn run_script(plan: FaultPlan) -> Report {
    run(RunConfig::local(WORLD), move |ctx| {
        let w0 = ctx.initial_world().unwrap();
        ctx.arm_fault_sites(&plan, w0.rank());
        let mut comm = w0;
        let mut round = 0u64;
        let mut observed = 0u32;
        while round < ROUNDS {
            let res = (|| -> ulfm_sim::Result<()> {
                let size = comm.size();
                let right = (comm.rank() + 1) % size;
                let left = (comm.rank() + size - 1) % size;
                let data = vec![comm.rank() as u64; 4];
                let mut buf: Vec<u64> = Vec::new();
                {
                    let rr = comm.irecv(ctx, left, 7)?;
                    let rs = comm.isend(ctx, right, 7, &data)?;
                    waitall_with(ctx, &mut [rr, rs], |_, wire| {
                        wire.read_into(&mut buf);
                        Ok(())
                    })?;
                }
                assert_eq!(buf, vec![left as u64; 4], "ring payload");
                // Uniform agreement that the round went through: a strict
                // collective fails on every survivor if anyone died.
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
/// vacuous index past the end). `per_round` is how many ops of that
/// class the victim executes per successful round.
fn sweep(kind: OpClass, per_round: u64) {
    let reach = ROUNDS * per_round;
    for nth in 0..=reach {
        let victim = 2;
        let plan = FaultPlan::at_site(victim, FaultSite::Op { kind, nth });
        let report = run_script(plan);
        report.assert_no_app_errors();
        let dies = nth < reach;
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
            assert_eq!(
                report.get_f64("observers"),
                Some(survivors),
                "{kind:?} nth={nth}: all survivors must observe the failure"
            );
        } else {
            assert_eq!(report.get_f64("observers"), None, "{kind:?} nth={nth}: vacuous site");
        }
    }
}

#[test]
fn kill_at_every_isend_site() {
    sweep(OpClass::Isend, 1);
}

#[test]
fn kill_at_every_irecv_site() {
    sweep(OpClass::Irecv, 1);
}

#[test]
fn kill_at_every_wait_site() {
    // `waitall_with` drives two requests per round, each firing a wait site.
    sweep(OpClass::Wait, 2);
}

#[test]
fn two_victims_die_in_same_ring() {
    let plan = FaultPlan::new_sites(vec![
        (1, FaultSite::Op { kind: OpClass::Isend, nth: 1 }),
        (3, FaultSite::Op { kind: OpClass::Wait, nth: 2 }),
    ]);
    let report = run_script(plan);
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 2, "both victims must die");
    assert_eq!(report.get_f64("done"), Some((WORLD - 2) as f64));
    assert_eq!(report.get_f64("final_size"), Some((WORLD - 2) as f64));
}
