//! Adversarial and stress tests for the runtime: kills landing *inside*
//! blocked operations, repeated failure/repair rounds, mismatched
//! collectives, and volume stress.

use std::time::Duration;

use ulfm_sim::{comm_spawn_multiple, run, Error, RunConfig, SpawnSpec};

#[test]
fn kill_while_blocked_in_barrier() {
    // The victim is killed while inside a barrier. Two legal outcomes,
    // depending on whether its contribution landed before the kill:
    // the barrier completes for the survivors (the victim's deposit
    // counts — like a rank dying right after its message left), or it
    // fails with ProcFailed. Either way the outcome must be *uniform*
    // across survivors, and the victim's thread must unwind.
    let report = run(RunConfig::local(4), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            // Give rank 3 time to block in the barrier, then kill it.
            ctx.sleep_real(Duration::from_millis(30));
            w.inject_kill(3);
        }
        match w.barrier(ctx) {
            Ok(()) => ctx.report_add("ok_outcomes", 1.0),
            Err(Error::ProcFailed { ranks }) => {
                assert_eq!(ranks[..], [3]);
                ctx.report_add("failed_outcomes", 1.0);
            }
            Err(e) => panic!("unexpected {e}"),
        }
    });
    report.assert_no_app_errors();
    let ok = report.get_f64("ok_outcomes").unwrap_or(0.0);
    let failed = report.get_f64("failed_outcomes").unwrap_or(0.0);
    assert_eq!(ok + failed, 3.0, "every survivor returns");
    assert!(ok == 3.0 || failed == 3.0, "outcome must be uniform: ok={ok}, failed={failed}");
    assert_eq!(report.procs_failed, 1);
}

#[test]
fn kill_while_blocked_in_recv() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        match w.rank() {
            0 => {
                ctx.sleep_real(Duration::from_millis(30));
                w.inject_kill(2);
                // 2 was waiting for this message; it must never compute on it.
                let _ = w.send_one(ctx, 2, 1, 42u8);
            }
            2 => {
                // Blocks forever-ish; the kill unwinds it.
                let _: Vec<u8> = w.recv(ctx, 0, 1).unwrap_or_default();
                // If we get here the kill raced the recv; dying now keeps
                // the fail-stop contract either way.
                ctx.die();
            }
            _ => {}
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 1);
}

#[test]
fn repeated_failure_repair_rounds() {
    // Fail → shrink → spawn → verify → fail again → repair again: the
    // failed-rank bookkeeping must stay correct across rounds.
    let report = run(RunConfig::local(5), |ctx| {
        if ctx.is_spawned() {
            // Children join, merge high, then participate in round 2.
            let p = ctx.parent().unwrap();
            let merged = p.merge(ctx, true).unwrap();
            // Round-2 health check.
            let sum = merged.allreduce_sum(ctx, 1u64).unwrap();
            ctx.report_push("child_round_size", sum as f64);
            return;
        }
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 {
            ctx.die();
        }
        let _ = w.barrier(ctx); // detect round 1
        let shrunk = w.shrink(ctx).unwrap();
        assert_eq!(shrunk.size(), 4);
        // Second failure among the survivors.
        if w.rank() == 4 {
            ctx.die();
        }
        let _ = shrunk.barrier(ctx); // detect round 2
        let shrunk2 = shrunk.shrink(ctx).unwrap();
        assert_eq!(shrunk2.size(), 3);
        // Respawn both losses in one go.
        let inter = comm_spawn_multiple(ctx, &shrunk2, 0, vec![SpawnSpec::anywhere(); 2]).unwrap();
        let merged = inter.merge(ctx, false).unwrap();
        assert_eq!(merged.size(), 5);
        let sum = merged.allreduce_sum(ctx, 1u64).unwrap();
        assert_eq!(sum, 5);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(3.0));
    assert_eq!(report.procs_failed, 2);
    assert_eq!(report.procs_created, 7);
}

#[test]
fn mismatched_collectives_are_diagnosed_not_deadlocked() {
    let mut cfg = RunConfig::local(2);
    cfg.stall_timeout = Duration::from_millis(100);
    let report = run(cfg, |ctx| {
        let w = ctx.initial_world().unwrap();
        // Rank 0 calls a barrier; rank 1 never does (application bug).
        if w.rank() == 0 {
            match w.barrier(ctx) {
                Err(Error::CollectiveMismatch { .. }) => ctx.report_f64("diagnosed", 1.0),
                other => panic!("expected mismatch diagnosis, got {other:?}"),
            }
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("diagnosed"), Some(1.0));
}

#[test]
fn spawn_storm() {
    // Several spawn waves; children of earlier waves keep participating
    // in later ones (spawn is collective over the grown communicator).
    let report = run(RunConfig::local(3), |ctx| {
        // World sizes walk 3 → 4 → 6 → 9; each member (original or child)
        // keeps spawning until the target is reached.
        let next_wave = |size: usize| -> Option<usize> {
            match size {
                3 => Some(1),
                4 => Some(2),
                6 => Some(3),
                _ => None,
            }
        };
        let mut comm = if ctx.is_spawned() {
            let p = ctx.parent().unwrap();
            p.merge(ctx, true).unwrap()
        } else {
            ctx.initial_world().unwrap()
        };
        while let Some(wave) = next_wave(comm.size()) {
            let inter =
                comm_spawn_multiple(ctx, &comm, 0, vec![SpawnSpec::anywhere(); wave]).unwrap();
            comm = inter.merge(ctx, false).unwrap();
        }
        assert_eq!(comm.size(), 9);
        let sum = comm.allreduce_sum(ctx, 1u64).unwrap();
        assert_eq!(sum, 9);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(9.0));
    assert_eq!(report.procs_created, 9);
}

#[test]
fn high_message_volume_many_tags() {
    let n = 8;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let r = w.rank();
        // All-pairs exchange with per-pair tags, 20 rounds.
        for round in 0..20i32 {
            for peer in 0..n {
                if peer == r {
                    continue;
                }
                w.send_one(ctx, peer, round * 100 + r as i32, (r * 1000 + round as usize) as u64)
                    .unwrap();
            }
            for peer in 0..n {
                if peer == r {
                    continue;
                }
                let v: u64 = w.recv_one(ctx, peer, round * 100 + peer as i32).unwrap();
                assert_eq!(v, (peer * 1000 + round as usize) as u64);
            }
        }
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn clocks_never_go_backwards() {
    let report = run(RunConfig::local(6), |ctx| {
        let w = ctx.initial_world().unwrap();
        let mut last = ctx.now();
        for i in 0..30u64 {
            match i % 4 {
                0 => {
                    w.barrier(ctx).unwrap();
                }
                1 => {
                    let _ = w.allreduce_max(ctx, w.rank() as u64).unwrap();
                }
                2 => {
                    let next = (w.rank() + 1) % w.size();
                    let prev = (w.rank() + w.size() - 1) % w.size();
                    w.send(ctx, next, 9, &[i as f64]).unwrap();
                    let _: Vec<f64> = w.recv(ctx, prev, 9).unwrap();
                }
                _ => ctx.compute_cells(100),
            }
            assert!(ctx.now() >= last, "clock regressed at op {i}");
            last = ctx.now();
        }
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(6.0));
}

#[test]
fn revoke_releases_blocked_receiver() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        match w.rank() {
            1 => {
                // Blocks on a message that will never come; revocation must
                // release it.
                match w.recv_one::<u64>(ctx, 2, 7) {
                    Err(Error::Revoked) => ctx.report_f64("released", 1.0),
                    other => panic!("expected Revoked, got {other:?}"),
                }
            }
            0 => {
                ctx.sleep_real(Duration::from_millis(30));
                w.revoke(ctx);
            }
            _ => {
                // Rank 2 sends nothing; just observes the revocation
                // eventually on its own operations.
            }
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("released"), Some(1.0));
}

#[test]
fn failed_rank_set_is_consistent_across_survivors() {
    // Whatever interleaving, after shrink every survivor derives the same
    // failed list from the group algebra.
    for seed in 0..5u64 {
        let plan = ulfm_sim::FaultPlan::random(3, 12, 0, seed, &[]);
        let expect: Vec<usize> = plan.victim_ranks();
        let report = run(RunConfig::local(12), move |ctx| {
            let w = ctx.initial_world().unwrap();
            if plan.strikes(w.rank(), 0) {
                // Stagger deaths to randomize observation order.
                ctx.sleep_real(Duration::from_millis((w.rank() % 3) as u64 * 7));
                ctx.die();
            }
            let _ = w.barrier(ctx);
            let shrunk = w.shrink(ctx).unwrap();
            let old = w.group();
            let now = shrunk.group();
            let failed = old.difference(&now);
            let ranks: Vec<usize> = (0..failed.size()).collect();
            let failed_ranks = failed.translate_ranks(&ranks, &old);
            ctx.report_text(
                &format!("failed_as_seen_by_{}", w.rank()),
                &format!("{failed_ranks:?}"),
            );
        });
        report.assert_no_app_errors();
        let views: Vec<&str> = report
            .values
            .keys()
            .filter(|k| k.starts_with("failed_as_seen_by"))
            .map(|k| report.get_text(k).unwrap())
            .collect();
        assert_eq!(views.len(), 12 - expect.len());
        let first = views[0];
        for v in &views {
            assert_eq!(*v, first, "seed {seed}: inconsistent failed lists");
        }
        assert_eq!(first, format!("{expect:?}"));
    }
}

#[test]
fn oversubscription_slows_per_step_compute() {
    // A host with more live processes than slots charges proportionally
    // more virtual time per solver step.
    let mut cfg = RunConfig::local(2);
    cfg.profile = ulfm_sim::ClusterProfile::local(2, 2); // 2 slots per host
    cfg.spare_hosts = 0;
    let report = run(cfg, |ctx| {
        if ctx.is_spawned() {
            // Children just exist to oversubscribe host 0.
            let p = ctx.parent().unwrap();
            let m = p.merge(ctx, true).unwrap();
            m.barrier(ctx).unwrap();
            m.barrier(ctx).unwrap();
            return;
        }
        let w = ctx.initial_world().unwrap();
        // Balanced phase: 2 procs on a 2-slot host → factor 1.
        assert_eq!(ctx.oversubscription(), 1.0);
        let t0 = ctx.now();
        ctx.compute_step_cells(1000);
        let balanced = ctx.now() - t0;

        // Spawn 2 extra processes pinned to host 0 → 4 live procs there.
        let inter = comm_spawn_multiple(ctx, &w, 0, vec![SpawnSpec::on_host(0); 2]).unwrap();
        let m = inter.merge(ctx, false).unwrap();
        m.barrier(ctx).unwrap(); // children are up
        assert_eq!(ctx.oversubscription(), 2.0);
        let t1 = ctx.now();
        ctx.compute_step_cells(1000);
        let oversubscribed = ctx.now() - t1;
        assert!(
            (oversubscribed - 2.0 * balanced).abs() < 1e-12,
            "2x oversubscription must double step compute: {balanced} -> {oversubscribed}"
        );
        ctx.report_add("checked", 1.0);
        m.barrier(ctx).unwrap(); // release children
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("checked"), Some(2.0));
}
