//! Integration tests for the ULFM fault-tolerance path: failure
//! observation, revoke/shrink/agree, spawn, merge — the building blocks of
//! the paper's communicator reconstruction.

use ulfm_sim::{comm_spawn_multiple, run, Error, FaultPlan, RunConfig, SpawnSpec};

#[test]
fn send_to_failed_rank_errors() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        match w.rank() {
            2 => ctx.die(),
            0 => {
                // Give the victim a moment to die, then observe the failure.
                ctx.sleep_real(std::time::Duration::from_millis(20));
                let e = w.send_one(ctx, 2, 1, 1u8).unwrap_err();
                assert!(e.is_proc_failed());
                ctx.report_f64("observed", 1.0);
            }
            _ => {}
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("observed"), Some(1.0));
    assert_eq!(report.procs_failed, 1);
}

#[test]
fn recv_from_failed_rank_errors_but_predeath_messages_deliver() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 1 {
            w.send_one(ctx, 0, 1, 42u64).unwrap();
            ctx.die();
        } else {
            // The message sent before death must still be delivered...
            let v: u64 = w.recv_one(ctx, 1, 1).unwrap();
            assert_eq!(v, 42);
            // ...but a second receive can never be satisfied.
            let e = w.recv_one::<u64>(ctx, 1, 1).unwrap_err();
            assert!(e.is_proc_failed());
            ctx.report_f64("ok", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn barrier_detects_failure_like_fig3() {
    // The paper's detection idiom (Fig. 3 line 13): a failed barrier
    // reports the failure to every survivor.
    let n = 5;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 3 {
            ctx.die();
        }
        match w.barrier(ctx) {
            Err(Error::ProcFailed { ranks }) => {
                assert_eq!(ranks[..], [3]);
                ctx.report_add("detected", 1.0);
            }
            other => panic!("expected ProcFailed, got {other:?}"),
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("detected"), Some((n - 1) as f64));
}

#[test]
fn failure_ack_and_get_acked() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 1 {
            ctx.die();
        }
        if w.rank() == 0 {
            let _ = w.barrier(ctx); // observe
            assert!(w.failure_get_acked().is_empty());
            w.failure_ack(ctx);
            let acked = w.failure_get_acked();
            assert_eq!(acked.size(), 1);
            ctx.report_f64("ok", 1.0);
        } else if w.rank() == 2 {
            let _ = w.barrier(ctx);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn shrink_preserves_survivor_order() {
    let n = 6;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 || w.rank() == 4 {
            ctx.die();
        }
        let _ = w.barrier(ctx); // detect
        let s = w.shrink(ctx).unwrap();
        assert_eq!(s.size(), 4);
        // Old ranks 0,1,3,5 → new ranks 0,1,2,3.
        let expected = match w.rank() {
            0 => 0,
            1 => 1,
            3 => 2,
            5 => 3,
            _ => unreachable!(),
        };
        assert_eq!(s.rank(), expected);
        // Shrunken communicator is fully usable.
        let total = s.allreduce_sum(ctx, 1u64).unwrap();
        assert_eq!(total, 4);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
}

#[test]
fn shrink_works_on_revoked_comm_but_collectives_do_not() {
    let n = 4;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 1 {
            ctx.die();
        }
        let _ = w.barrier(ctx);
        if w.rank() == 0 {
            w.revoke(ctx);
        }
        // Normal traffic is now refused (eventually on every rank).
        if w.rank() == 2 {
            loop {
                match w.send_one(ctx, 3, 1, 0u8) {
                    Err(Error::Revoked) => break,
                    Ok(_) => ctx.sleep_real(std::time::Duration::from_millis(1)),
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        // ...but shrink still functions (ULFM's recovery guarantee).
        let s = w.shrink(ctx).unwrap();
        assert_eq!(s.size(), 3);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(3.0));
}

#[test]
fn agree_reaches_consensus_despite_failure() {
    let n = 5;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 {
            ctx.die();
        }
        let _ = w.barrier(ctx); // observe failure
        w.failure_ack(ctx); // ack so agree returns success
        let mut flag = w.rank() != 4; // rank 4 contributes false
        w.agree(ctx, &mut flag).unwrap();
        assert!(!flag, "AND over survivors must be false");
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
}

#[test]
fn agree_flags_unacked_failures() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 1 {
            ctx.die();
        }
        let _ = w.barrier(ctx);
        // No failure_ack on purpose.
        let mut flag = true;
        match w.agree(ctx, &mut flag) {
            Err(Error::ProcFailed { ranks }) => {
                assert_eq!(ranks[..], [1]);
                assert!(flag, "agreed value is still delivered");
                ctx.report_add("ok", 1.0);
            }
            other => panic!("expected ProcFailed, got {other:?}"),
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(2.0));
}

#[test]
fn spawn_and_merge_low_high() {
    let report = run(RunConfig::local(3), |ctx| {
        if ctx.is_spawned() {
            // Child: merge with high=true → top ranks.
            let parent = ctx.parent().unwrap();
            assert_eq!(parent.remote_size(), 3);
            assert_eq!(parent.local_size(), 2);
            let merged = parent.merge(ctx, true).unwrap();
            assert_eq!(merged.size(), 5);
            assert!(merged.rank() >= 3, "children land on top ranks");
            let s = merged.allreduce_sum(ctx, 1u64).unwrap();
            assert_eq!(s, 5);
            ctx.report_add("child_ok", 1.0);
            return;
        }
        let w = ctx.initial_world().unwrap();
        let inter = comm_spawn_multiple(ctx, &w, 0, vec![SpawnSpec::anywhere(); 2]).unwrap();
        assert_eq!(inter.local_size(), 3);
        assert_eq!(inter.remote_size(), 2);
        let merged = inter.merge(ctx, false).unwrap();
        assert_eq!(merged.size(), 5);
        assert_eq!(merged.rank(), w.rank());
        let s = merged.allreduce_sum(ctx, 1u64).unwrap();
        assert_eq!(s, 5);
        ctx.report_add("parent_ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("parent_ok"), Some(3.0));
    assert_eq!(report.get_f64("child_ok"), Some(2.0));
    assert_eq!(report.procs_created, 5);
}

#[test]
fn spawn_pins_to_named_host() {
    let mut cfg = RunConfig::local(4); // 1 host of 8 slots + spares
    cfg.spare_hosts = 3;
    let report = run(cfg, |ctx| {
        if ctx.is_spawned() {
            ctx.report_f64("child_host", ctx.my_host() as f64);
            return;
        }
        let w = ctx.initial_world().unwrap();
        let _inter = comm_spawn_multiple(ctx, &w, 0, vec![SpawnSpec::on_host(2)]).unwrap();
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("child_host"), Some(2.0));
}

#[test]
fn spawn_reads_the_root_specs_alone() {
    // The other ranks' specs (a host past the hostfile's end, which would
    // fail the spawn) are never read, and a root with no specs refuses
    // the spawn on every rank.
    let report = run(RunConfig::local(3), |ctx| {
        if ctx.is_spawned() {
            ctx.report_add("children", 1.0);
            return;
        }
        let w = ctx.initial_world().unwrap();
        let past_the_end = SpawnSpec::on_host(ctx.hostfile().len());
        let mine = if w.rank() == 1 { vec![SpawnSpec::anywhere(); 2] } else { vec![past_the_end] };
        let inter = comm_spawn_multiple(ctx, &w, 1, mine).unwrap();
        assert_eq!(inter.remote_size(), 2);
        let none = if w.rank() == 0 { Vec::new() } else { vec![SpawnSpec::anywhere()] };
        let e = comm_spawn_multiple(ctx, &w, 0, none).unwrap_err();
        assert!(matches!(e, Error::InvalidArg(_)), "{e:?}");
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(3.0));
    assert_eq!(report.get_f64("children"), Some(2.0));
}

#[test]
fn spawn_unknown_host_fails_uniformly() {
    let report = run(RunConfig::local(2), |ctx| {
        if ctx.is_spawned() {
            panic!("nothing should be spawned");
        }
        let w = ctx.initial_world().unwrap();
        let past_the_end = SpawnSpec::on_host(ctx.hostfile().len());
        let e = comm_spawn_multiple(ctx, &w, 0, vec![past_the_end]).unwrap_err();
        assert!(matches!(e, Error::SpawnFailed(_)));
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(2.0));
    assert_eq!(report.procs_created, 2);
}

#[test]
fn intercomm_agree_spans_both_sides() {
    let report = run(RunConfig::local(2), |ctx| {
        if ctx.is_spawned() {
            let parent = ctx.parent().unwrap();
            let mut flag = false; // child votes false
            parent.agree(ctx, &mut flag).unwrap();
            assert!(!flag);
            ctx.report_add("ok", 1.0);
            return;
        }
        let w = ctx.initial_world().unwrap();
        let inter = comm_spawn_multiple(ctx, &w, 0, vec![SpawnSpec::anywhere()]).unwrap();
        let mut flag = true;
        inter.agree(ctx, &mut flag).unwrap();
        assert!(!flag, "child's false vote must win the AND");
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(3.0));
}

#[test]
fn fault_plan_driven_kill_mid_computation() {
    let n = 6;
    let plan = FaultPlan::random(2, n, 10, 99, &[]);
    let victims = plan.victim_ranks();
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        for step in 0..20u64 {
            if plan.strikes(w.rank(), step) {
                ctx.die();
            }
            ctx.compute_cells(100);
        }
        // Survivors detect both failures via a barrier.
        match w.barrier(ctx) {
            Err(Error::ProcFailed { ranks }) => {
                ctx.report_add("detected", ranks.len() as f64);
            }
            Ok(()) => panic!("barrier should have failed"),
            Err(e) => panic!("unexpected {e}"),
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 2);
    // Every survivor saw both victims.
    assert_eq!(report.get_f64("detected"), Some(((n - victims.len()) * victims.len()) as f64));
}

#[test]
fn ulfm_cost_model_charges_shrink_time() {
    // With the Beta model and 2 failures, shrink virtual time must dwarf
    // the single-failure case (Table I behaviour).
    // Table I's pathology appears from 38 cores up; at 19 cores the
    // two-failure shrink is still cheap.
    let time_with_failures = |nfail: usize| {
        let n = 76;
        let plan = FaultPlan::random(nfail, n, 0, 7, &[]);
        let report = run(RunConfig::cluster(ulfm_sim::ClusterProfile::opl(), n), move |ctx| {
            let w = ctx.initial_world().unwrap();
            if plan.strikes(w.rank(), 0) {
                ctx.die();
            }
            let _ = w.barrier(ctx);
            let t0 = ctx.now();
            let s = w.shrink(ctx).unwrap();
            if s.rank() == 0 {
                ctx.report_f64("t_shrink", ctx.now() - t0);
            }
        });
        report.assert_no_app_errors();
        report.get_f64("t_shrink").unwrap()
    };
    let t1 = time_with_failures(1);
    let t2 = time_with_failures(2);
    assert!(t2 > 10.0 * t1, "2-failure shrink ({t2}) must dwarf the 1-failure case ({t1})");
}
