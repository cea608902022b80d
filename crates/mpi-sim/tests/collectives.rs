//! Cross-thread integration tests for point-to-point and collective
//! operations of the simulated runtime.

use ulfm_sim::{run, ReduceOp, RunConfig, ScatterParts};

#[test]
fn p2p_ring_pass() {
    let n = 8;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let r = w.rank();
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        w.send_one(ctx, next, 1, r as u64).unwrap();
        let got: u64 = w.recv_one(ctx, prev, 1).unwrap();
        assert_eq!(got, prev as u64);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn p2p_large_payload_roundtrip() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            let data: Vec<f64> = (0..100_000).map(|i| i as f64 * 0.5).collect();
            w.send(ctx, 1, 7, &data).unwrap();
        } else {
            let got: Vec<f64> = w.recv(ctx, 0, 7).unwrap();
            assert_eq!(got.len(), 100_000);
            assert_eq!(got[99_999], 99_999.0 * 0.5);
            ctx.report_f64("ok", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn p2p_message_ordering_is_fifo_per_sender() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            for i in 0..50u64 {
                w.send_one(ctx, 1, 3, i).unwrap();
            }
        } else {
            for i in 0..50u64 {
                let got: u64 = w.recv_one(ctx, 0, 3).unwrap();
                assert_eq!(got, i);
            }
            ctx.report_f64("ok", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn recv_any_source_collects_all() {
    let n = 6;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            let mut seen = vec![false; n];
            for _ in 1..n {
                let (src, _tag, v) =
                    w.recv_from::<u64>(ctx, ulfm_sim::ANY_SOURCE, Some(9)).unwrap();
                assert_eq!(v[0] as usize, src);
                seen[src] = true;
            }
            assert!(seen[1..].iter().all(|&s| s));
            ctx.report_f64("ok", 1.0);
        } else {
            w.send_one(ctx, 0, 9, w.rank() as u64).unwrap();
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn sendrecv_halo_style_exchange() {
    let n = 4;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let r = w.rank();
        let right = (r + 1) % n;
        let left = (r + n - 1) % n;
        let mine = vec![r as f64; 16];
        w.send(ctx, right, 11, &mine).unwrap();
        let from_left: Vec<f64> = w.recv(ctx, left, 11).unwrap();
        assert!(from_left.iter().all(|&v| v == left as f64));
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn bcast_from_nonzero_root() {
    let report = run(RunConfig::local(5), |ctx| {
        let w = ctx.initial_world().unwrap();
        let data = if w.rank() == 3 { Some(&[1.5f64, 2.5][..]) } else { None };
        let got = w.bcast(ctx, 3, data).unwrap();
        assert_eq!(got, vec![1.5, 2.5]);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(5.0));
}

#[test]
fn gather_variable_lengths() {
    let n = 5;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let mine: Vec<u32> = vec![w.rank() as u32; w.rank() + 1];
        let got = w.gather(ctx, 2, &mine).unwrap();
        if w.rank() == 2 {
            let got = got.expect("root receives");
            for (r, part) in got.iter().enumerate() {
                assert_eq!(part.len(), r + 1);
                assert!(part.iter().all(|&v| v as usize == r));
            }
            ctx.report_f64("ok", 1.0);
        } else {
            assert!(got.is_none());
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn gather_view_lets_the_root_assemble_in_place() {
    // The root reads each contribution's wire bytes through a typed view
    // and lands ranges of them in its own buffer; the allocating `gather`
    // is the same collective decoded, so the two agree and cost the same.
    let n = 5;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let mine: Vec<u32> = (0..=w.rank() as u32).map(|k| 100 * w.rank() as u32 + k).collect();
        let t0 = ctx.now();
        let decoded = w.gather(ctx, 2, &mine).unwrap();
        let t1 = ctx.now();
        let view = w.gather_view(ctx, 2, &mine).unwrap();
        assert_eq!(ctx.now() - t1, t1 - t0, "same cost-model charge");
        assert_eq!(view.is_some(), w.rank() == 2);
        if let (Some(decoded), Some(view)) = (decoded, view) {
            assert_eq!((view.len(), view.is_empty()), (n, false));
            assert_eq!(view.to_vecs(), decoded);
            // The last element of every contribution, straight into place.
            let mut tails = [0u32; 5];
            for (r, slot) in tails.iter_mut().enumerate() {
                view.part(r).copy_to(r, std::slice::from_mut(slot));
            }
            assert_eq!(tails, [0, 101, 202, 303, 404]);
            ctx.report_f64("ok", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn recv_onto_lands_on_a_caller_sized_slice() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            w.send(ctx, 1, 3, &[1.5f64, -2.5, 4.0]).unwrap();
            w.send(ctx, 1, 3, &[9.0f64, 8.0]).unwrap();
        } else {
            // Into the middle of a larger array, neighbours untouched.
            let mut field = [0.0f64; 5];
            w.recv_onto(ctx, 0, 3, &mut field[1..4]).unwrap();
            assert_eq!(field, [0.0, 1.5, -2.5, 4.0, 0.0]);
            // A payload of another length is refused and changes nothing
            // (the message is consumed, like a truncated MPI receive).
            let err = w.recv_onto(ctx, 0, 3, &mut field[..3]).unwrap_err();
            assert!(err.to_string().contains("payload of 16 bytes for 3 elements"), "{err}");
            assert_eq!(field, [0.0, 1.5, -2.5, 4.0, 0.0]);
            ctx.report_f64("ok", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn scatter_hands_each_rank_its_part() {
    let n = 4;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let parts: Option<Vec<Vec<i64>>> = if w.rank() == 0 {
            Some((0..n as i64).map(|i| vec![i * 10, i * 10 + 1]).collect())
        } else {
            None
        };
        let mine = w.scatter(ctx, 0, parts.as_deref()).unwrap();
        assert_eq!(mine, vec![w.rank() as i64 * 10, w.rank() as i64 * 10 + 1]);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

/// Rank `r`'s part is `r + 1` rows of three values, pushed row by row.
struct Rows;

impl ScatterParts<f64> for Rows {
    fn parts(&self) -> usize {
        4
    }
    fn part_len(&self, rank: usize) -> usize {
        3 * (rank + 1)
    }
    fn put_part(&self, rank: usize, put: &mut dyn FnMut(&[f64])) {
        for row in 0..=rank {
            put(&[rank as f64, row as f64, 0.5]);
        }
    }
}

#[test]
fn scatter_view_lands_each_part_in_place_and_checks_the_root() {
    let report = run(RunConfig::local(4), |ctx| {
        let w = ctx.initial_world().unwrap();
        let parts = (w.rank() == 0).then_some(&Rows);
        // The part is read out of the wire straight into the caller's rows.
        let mut rows = vec![[f64::NAN; 3]; w.rank() + 1];
        let got = w
            .scatter_view_with(ctx, 0, parts, |mine| {
                for (k, row) in rows.iter_mut().enumerate() {
                    mine.copy_to(3 * k, row);
                }
                Ok(mine.len())
            })
            .unwrap();
        assert_eq!(got, 3 * (w.rank() + 1));
        for (k, row) in rows.iter().enumerate() {
            assert_eq!(*row, [w.rank() as f64, k as f64, 0.5]);
        }
        // The plain form reads the same parts into vectors of their own.
        let plain = w.scatter(ctx, 0, (w.rank() == 0).then(|| vec![vec![7u8]; 4]).as_deref());
        assert_eq!(plain.unwrap(), vec![7u8]);
        // Only the root supplies parts, and it must: both are refused
        // before the collective starts.
        let swapped = (w.rank() != 0).then_some(&Rows);
        let bad = w.scatter_view_with(ctx, 0, swapped, |_| Ok(())).unwrap_err();
        let want = if w.rank() == 0 { "root must supply" } else { "only the root supplies" };
        assert!(bad.to_string().contains(want), "{bad}");
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
}

#[test]
fn reduce_and_allreduce_ops() {
    let n = 6;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let r = w.rank() as f64;
        let summed = w.reduce(ctx, 0, ReduceOp::Sum, &[r, 2.0 * r]).unwrap();
        if w.rank() == 0 {
            let s = summed.unwrap();
            assert_eq!(s[0], 15.0);
            assert_eq!(s[1], 30.0);
        }
        assert_eq!(w.allreduce_max(ctx, w.rank() as u64).unwrap(), 5);
        assert_eq!(w.allreduce_sum(ctx, 1u64).unwrap(), n as u64);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn split_into_even_odd() {
    let n = 7;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let color = (w.rank() % 2) as i64;
        let sub = w.split(ctx, Some(color), w.rank() as i64).unwrap().unwrap();
        let expected_size = if color == 0 { 4 } else { 3 };
        assert_eq!(sub.size(), expected_size);
        // New ranks ordered by key = old rank.
        assert_eq!(sub.rank(), w.rank() / 2);
        // The sub-communicator is fully functional.
        let s = sub.allreduce_sum(ctx, w.rank() as u64).unwrap();
        let expect: u64 = (0..n as u64).filter(|r| r % 2 == color as u64).sum();
        assert_eq!(s, expect);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn split_undefined_color_gets_none() {
    let report = run(RunConfig::local(4), |ctx| {
        let w = ctx.initial_world().unwrap();
        let color = if w.rank() < 2 { Some(0) } else { None };
        let sub = w.split(ctx, color, 0).unwrap();
        match (w.rank() < 2, &sub) {
            (true, Some(c)) => assert_eq!(c.size(), 2),
            (false, None) => {}
            other => panic!("unexpected split outcome {other:?}"),
        }
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
}

#[test]
fn split_reorders_ranks_by_key() {
    // The rank-reordering mechanism the paper's Fig. 7 relies on: keys
    // chosen as desired final rank order.
    let n = 5;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        // Reverse the ranks.
        let key = (n - 1 - w.rank()) as i64;
        let sub = w.split(ctx, Some(0), key).unwrap().unwrap();
        assert_eq!(sub.rank(), n - 1 - w.rank());
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn barrier_synchronizes_virtual_clocks() {
    let report = run(RunConfig::local(4), |ctx| {
        let w = ctx.initial_world().unwrap();
        ctx.advance(w.rank() as f64); // ranks at t = 0,1,2,3
        w.barrier(ctx).unwrap();
        // Everyone must now be at least at t = 3.
        assert!(ctx.now() >= 3.0);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
    assert!(report.makespan >= 3.0);
    assert!(report.makespan < 3.1);
}

#[test]
fn virtual_time_charges_compute_and_disk() {
    let report = run(RunConfig::local(1), |ctx| {
        let t0 = ctx.now();
        ctx.compute_cells(1_000_000);
        let t1 = ctx.now();
        assert!(t1 > t0);
        ctx.disk_write(1 << 20);
        assert!(ctx.now() > t1);
        ctx.report_f64("t", ctx.now());
    });
    report.assert_no_app_errors();
    assert!(report.get_f64("t").unwrap() > 0.0);
}

#[test]
fn many_ranks_smoke() {
    // 128 simulated processes on one machine.
    let n = 128;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let s = w.allreduce_sum(ctx, w.rank() as u64).unwrap();
        assert_eq!(s, (n as u64 * (n as u64 - 1)) / 2);
        w.barrier(ctx).unwrap();
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(n as f64));
}

#[test]
fn iprobe_and_nonblocking_recv() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 0 {
            // Nothing queued yet.
            assert!(!w.iprobe(ctx, Some(1), Some(5)).unwrap());
            let mut data: Vec<u64> = Vec::new();
            let mut req = w.irecv(ctx, 1, 5).unwrap();
            // Tell the sender to go, then wait.
            w.send_one(ctx, 1, 1, 0u8).unwrap();
            req.wait_into(ctx, &mut data).unwrap();
            assert_eq!(data, vec![77]);
            // And iprobe sees a second queued message before recv consumes
            // it. The sender's second push races with our wait, so spin
            // until it lands — iprobe itself must never consume.
            while !w.iprobe(ctx, Some(1), Some(6)).unwrap() {
                std::thread::yield_now();
            }
            assert!(w.iprobe(ctx, Some(1), Some(6)).unwrap());
            let tail: u64 = w.recv_one(ctx, 1, 6).unwrap();
            assert_eq!(tail, 88);
            ctx.report_f64("ok", 1.0);
        } else {
            let _: Vec<u8> = w.recv(ctx, 0, 1).unwrap();
            w.send_one(ctx, 0, 5, 77u64).unwrap();
            w.send_one(ctx, 0, 6, 88u64).unwrap();
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

#[test]
fn nonblocking_recv_from_dead_source_errors_on_wait() {
    let report = run(RunConfig::local(2), |ctx| {
        let w = ctx.initial_world().unwrap();
        if w.rank() == 1 {
            ctx.die();
        }
        ctx.sleep_real(std::time::Duration::from_millis(20));
        let mut req = w.irecv::<u64>(ctx, 1, 9).unwrap();
        match req.wait_with(ctx, |_| unreachable!("a dead source delivers nothing")) {
            Err(e) => assert!(e.is_proc_failed()),
            Ok(v) => panic!("expected failure, got {v:?}"),
        }
        ctx.report_f64("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(1.0));
}

/// A collective's outcome knows the last arrival and the operation's cost
/// separately; the gap between a rank's own arrival and the last one is
/// tallied as its `peer_wait`, the cost is not.
#[test]
fn peer_wait_is_the_gap_to_the_last_arrival() {
    let n = 4;
    let report = run(RunConfig::local(n), move |ctx| {
        let w = ctx.initial_world().unwrap();
        // Rank r arrives r virtual seconds late; rank 3 is last.
        ctx.advance(w.rank() as f64);
        let arrived = ctx.now();
        assert_eq!(ctx.peer_wait(), 0.0);
        w.barrier(ctx).unwrap();
        assert_eq!(ctx.peer_wait(), 3.0 - arrived);
        assert!(ctx.now() > 3.0, "the barrier's own cost is charged on top");
        // Everyone leaves together, so the next one makes nobody wait.
        w.barrier(ctx).unwrap();
        assert_eq!(ctx.peer_wait(), 3.0 - arrived);
        assert_eq!(ctx.op_count("barrier"), 2);
        assert_eq!(ctx.op_count("no-such-op"), 0);
    });
    report.assert_no_app_errors();
    let waits: Vec<f64> = report.metrics.ranks.iter().map(|r| r.peer_wait).collect();
    assert_eq!(waits, vec![3.0, 2.0, 1.0, 0.0]);
}
