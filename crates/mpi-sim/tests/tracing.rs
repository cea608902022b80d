//! The operation trace: per-rank virtual-time records of every runtime
//! operation (default-on, bounded ring buffer), the aggregate views, and
//! the always-on per-rank metrics.

use ulfm_sim::{run, RunConfig};

#[test]
fn trace_records_collectives_and_p2p() {
    let report = run(RunConfig::local(4).with_trace(), |ctx| {
        let w = ctx.initial_world().unwrap();
        w.barrier(ctx).unwrap();
        let _ = w.allreduce_sum(ctx, 1u64).unwrap();
        if w.rank() == 0 {
            w.send_one(ctx, 1, 7, 9u8).unwrap();
        } else if w.rank() == 1 {
            let _: u8 = w.recv_one(ctx, 0, 7).unwrap();
        }
    });
    report.assert_no_app_errors();
    let totals = report.op_totals();
    assert_eq!(totals["barrier"].0, 4, "one barrier event per rank");
    assert_eq!(totals["reduce"].0, 4);
    assert_eq!(totals["send"].0, 1);
    assert_eq!(totals["recv"].0, 1);
    // Times are sane: start <= end, all within the makespan.
    for e in &report.trace {
        assert!(e.t_start <= e.t_end, "{e:?}");
        assert!(e.t_end <= report.makespan + 1e-12, "{e:?}");
    }
    // The barrier's end time is identical across ranks (clock sync).
    let barrier_ends: Vec<f64> =
        report.trace.iter().filter(|e| e.op == "barrier").map(|e| e.t_end).collect();
    assert!(barrier_ends.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
}

#[test]
fn trace_on_by_default_with_metrics() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        w.barrier(ctx).unwrap();
        if w.rank() == 0 {
            w.send_one(ctx, 1, 3, 1.5f64).unwrap();
        } else {
            let _: f64 = w.recv_one(ctx, 0, 3).unwrap();
        }
    });
    report.assert_no_app_errors();
    // No opt-in flag: the default config records everything.
    assert_eq!(report.op_totals()["barrier"].0, 2);
    assert_eq!(report.trace_dropped, 0);
    // The payload size lands on the p2p trace events...
    let sends: Vec<_> = report.trace.iter().filter(|e| e.op == "send").collect();
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].bytes, 8);
    assert_eq!(sends[0].cat, "mpi");
    // ...and on the per-rank metrics, which mirror the trace aggregates.
    assert_eq!(report.metrics.ranks.len(), 2);
    assert_eq!(report.metrics.total_messages(), 1);
    assert_eq!(report.metrics.total_bytes(), 8);
    assert_eq!(report.metrics.total_failures_observed(), 0);
    let barrier = report
        .metrics
        .op_totals()
        .into_iter()
        .find(|(name, _, _)| *name == "barrier")
        .expect("barrier aggregate");
    assert_eq!(barrier.1, 2);
    assert!((barrier.2 - report.op_totals()["barrier"].1).abs() < 1e-12);
}

#[test]
fn zero_capacity_disables_recording() {
    let report = run(RunConfig::local(2).with_trace_capacity(0), |ctx| {
        let w = ctx.initial_world().unwrap();
        w.barrier(ctx).unwrap();
    });
    report.assert_no_app_errors();
    assert!(report.trace.is_empty());
    assert_eq!(report.trace_dropped, 0, "disabled recording is not 'dropping'");
    assert!(report.op_totals().is_empty());
    // Metrics survive with recording off — they are not trace-derived.
    let totals = report.metrics.op_totals();
    assert_eq!(totals.len(), 1);
    assert_eq!((totals[0].0, totals[0].1), ("barrier", 2));
    assert!(totals[0].2 >= 0.0);
}

#[test]
fn ring_caps_events_and_counts_drops() {
    // A single rank self-sending N times generates exactly 2N p2p events.
    let report = run(RunConfig::local(1).with_trace_capacity(8), |ctx| {
        let w = ctx.initial_world().unwrap();
        for i in 0..12u64 {
            w.send_one(ctx, 0, 1, i).unwrap();
            let _: u64 = w.recv_one(ctx, 0, 1).unwrap();
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.trace.len(), 8, "ring retains exactly its capacity");
    assert_eq!(report.trace_dropped, 24 - 8);
    // The retained events are the *newest*: every evicted event started
    // no later than every survivor.
    let min_kept = report.trace.iter().map(|e| e.t_start).fold(f64::INFINITY, f64::min);
    assert!(min_kept > 0.0, "the first events (t=0) must have been evicted");
    // op_totals undercounts once events drop; the metrics stay complete.
    assert_eq!(report.metrics.total_messages(), 12);
    let totals = report.metrics.op_totals();
    let send = totals.iter().find(|t| t.0 == "send").unwrap();
    let recv = totals.iter().find(|t| t.0 == "recv").unwrap();
    assert_eq!((send.1, recv.1), (12, 12));
}

#[test]
fn op_totals_and_hidden_fraction_edge_cases() {
    // A run with no communication at all: empty totals, fraction 0 (not
    // NaN), nothing dropped.
    let report = run(RunConfig::local(1), |ctx| {
        ctx.advance(1.0);
    });
    report.assert_no_app_errors();
    assert!(report.op_totals().is_empty());
    assert_eq!(report.hidden_comm_fraction(), 0.0);
    assert_eq!(report.trace_dropped, 0);
    assert!(report.timelines.is_empty());
    assert_eq!(report.metrics.op_totals(), Vec::new());

    // Purely blocking communication: all exposed, fraction still 0.
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            w.send_one(ctx, 1, 1, 1u8).unwrap();
        } else {
            let _: u8 = w.recv_one(ctx, 0, 1).unwrap();
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.hidden_comm_fraction(), 0.0);
    assert!(report.comm_exposed >= 0.0);
}

#[test]
fn failures_are_observed_and_marked() {
    let report = run(RunConfig::local(3), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 {
            ctx.die();
        }
        let _ = w.barrier(ctx);
    });
    report.assert_no_app_errors();
    // The dying rank left an instant marker in the trace.
    let markers: Vec<_> = report.trace.iter().filter(|e| e.cat == "failure").collect();
    assert_eq!(markers.len(), 1);
    assert_eq!(markers[0].op, "failure");
    assert_eq!(markers[0].t_start, markers[0].t_end);
    // Both survivors observed the failure through their erroring barrier.
    assert_eq!(report.metrics.total_failures_observed(), 2);
}

#[test]
fn trace_covers_recovery_operations() {
    let report = run(RunConfig::local(4).with_trace(), |ctx| {
        if ctx.is_spawned() {
            let p = ctx.parent().unwrap();
            let _ = p.merge(ctx, true).unwrap();
            return;
        }
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 {
            ctx.die();
        }
        let _ = w.barrier(ctx);
        let s = w.shrink(ctx).unwrap();
        let inter =
            ulfm_sim::comm_spawn_multiple(ctx, &s, 0, vec![ulfm_sim::SpawnSpec::anywhere()])
                .unwrap();
        let _ = inter.merge(ctx, false).unwrap();
    });
    report.assert_no_app_errors();
    let totals = report.op_totals();
    assert_eq!(totals["shrink"].0, 3);
    assert_eq!(totals["spawn_multiple"].0, 3);
    assert_eq!(totals["intercomm_merge"].0, 4); // 3 survivors + 1 child
}
