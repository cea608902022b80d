//! Determinism property of the pooled scheduler: the same seed must
//! produce a bitwise-identical [`Report`] — final clocks, op totals,
//! metrics, trace, blackboard values — at any worker count. Seeded chaos
//! repros and the O1–O6 oracles depend on this.
//!
//! The workload exercises every report channel with scheduling-robust
//! outcomes: one victim dies before contributing anything (so every
//! survivor deterministically observes `ProcFailed`), the survivors
//! shrink and continue with directed p2p, integer collectives,
//! nonblocking overlap, async checkpoint I/O, RNG draws, and `report_*`
//! deposits.

use std::fmt::Write as _;

use ulfm_sim::{run, Report, RunConfig, SchedMode};

const VICTIM: usize = 5;
const WORLD: usize = 12;

fn workload(config: RunConfig) -> Report {
    run(config, |ctx| {
        let w = ctx.initial_world().unwrap();
        let rank = w.rank();
        if rank == VICTIM {
            ctx.die();
        }
        // The victim never contributes: the barrier deterministically
        // fails with exactly this failed set on every survivor.
        match w.barrier(ctx) {
            Err(e) => {
                assert!(e.is_proc_failed(), "expected ProcFailed, got {e:?}");
                ctx.report_add("observed", 1.0);
            }
            Ok(()) => panic!("barrier cannot complete without rank {VICTIM}"),
        }
        let s = w.shrink(ctx).unwrap();
        let r = s.rank();
        let n = s.size();
        assert_eq!(n, WORLD - 1);

        // Directed ring traffic (no ANY_SOURCE: matching stays logical).
        s.send_one(ctx, (r + 1) % n, 7, r as u64).unwrap();
        let left: u64 = s.recv_one(ctx, (r + n - 1) % n, 7).unwrap();
        assert_eq!(left as usize, (r + n - 1) % n);

        // Nonblocking overlap: the halo flight hides behind compute.
        let payload = vec![r as u64; 256];
        let mut pending = s.isend(ctx, (r + 1) % n, 9, &payload).unwrap();
        ctx.compute_cells(50_000);
        let mut halo: Vec<u64> = Vec::new();
        {
            let mut req = s.irecv(ctx, (r + n - 1) % n, 9).unwrap();
            req.wait_into(ctx, &mut halo).unwrap();
        }
        pending.wait(ctx).unwrap();

        // Integer collective (exactly associative: no float-order traps).
        let total = s.allreduce_sum(ctx, r as u64).unwrap();
        assert_eq!(total, (n * (n - 1) / 2) as u64);

        // Async checkpoint I/O split across hidden and exposed.
        ctx.disk_write_async(1 << 16);
        ctx.compute_cells(10_000);
        ctx.disk_drain();

        // Per-rank RNG and every blackboard op.
        use rand::Rng;
        let draw: f64 = ctx.rng().gen();
        ctx.report_push("draws", draw);
        ctx.report_f64(&format!("clock_{r}"), ctx.now());
        ctx.report_add("ranks_done", 1.0);
    })
}

/// Canonical byte-exact rendering of everything in a `Report`. Floats go
/// through `to_bits` so "close" is not "equal"; map keys are sorted.
fn fingerprint(r: &Report, include_retries: bool) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "makespan={:016x} created={} failed={} dropped={}",
        r.makespan.to_bits(),
        r.procs_created,
        r.procs_failed,
        r.trace_dropped
    )
    .unwrap();
    writeln!(
        s,
        "comm={:016x},{:016x} io={:016x},{:016x}",
        r.comm_hidden.to_bits(),
        r.comm_exposed.to_bits(),
        r.io_hidden.to_bits(),
        r.io_exposed.to_bits()
    )
    .unwrap();
    let mut keys: Vec<&String> = r.values.keys().collect();
    keys.sort();
    for k in keys {
        writeln!(s, "value {k} = {:?}", r.values[k]).unwrap();
    }
    for e in &r.app_errors {
        writeln!(s, "app_error {e}").unwrap();
    }
    // Communicator ids are allocated from a process-global counter, so
    // their absolute values depend on how many communicators *earlier
    // runs in this test binary* created. Normalize to first-appearance
    // order, which is deterministic because the trace is sorted.
    let mut cid_map: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    cid_map.insert(0, 0);
    for e in &r.trace {
        let next = cid_map.len() as u64;
        let cid = *cid_map.entry(e.cid).or_insert(next);
        writeln!(
            s,
            "trace {} {} {} {} {:016x} {:016x} {}",
            e.proc,
            e.op,
            e.cat,
            cid,
            e.t_start.to_bits(),
            e.t_end.to_bits(),
            e.bytes
        )
        .unwrap();
    }
    for m in &r.metrics.ranks {
        let mut m = m.clone();
        if !include_retries {
            // Thread mode polls blocked receives on a wall-clock tick;
            // the retry count is the one legitimately timing-dependent
            // counter and is zero by construction under fibers.
            m.recv_retries = 0;
        }
        writeln!(s, "metrics {m:?}").unwrap();
    }
    for t in &r.timelines {
        writeln!(s, "timeline {t:?}").unwrap();
    }
    s
}

#[test]
fn report_is_bitwise_identical_across_worker_counts() {
    let at =
        |workers: usize| workload(RunConfig::local(WORLD).with_seed(0xD5EED).with_workers(workers));
    let one = fingerprint(&at(1), true);
    let two = fingerprint(&at(2), true);
    let auto = fingerprint(&at(0), true); // available parallelism
    assert_eq!(one, two, "worker count 1 vs 2 diverged");
    assert_eq!(one, auto, "worker count 1 vs num_cpus diverged");
}

#[test]
fn same_seed_same_report_different_seed_differs() {
    let at = |seed: u64| workload(RunConfig::local(WORLD).with_seed(seed).with_workers(2));
    assert_eq!(fingerprint(&at(11), true), fingerprint(&at(11), true));
    // Different seed moves the RNG draws (and nothing else in this
    // workload), so the fingerprints must differ.
    assert_ne!(fingerprint(&at(11), true), fingerprint(&at(12), true));
}

#[test]
fn pooled_matches_thread_per_rank_modulo_retries() {
    let pooled = workload(RunConfig::local(WORLD).with_seed(0xD5EED).with_workers(2));
    let threads = workload(RunConfig::local(WORLD).with_seed(0xD5EED).with_thread_per_rank());
    assert_eq!(
        fingerprint(&pooled, false),
        fingerprint(&threads, false),
        "pooled and thread-per-rank reports diverged beyond recv_retries"
    );
}

#[test]
fn sched_mode_env_roundtrip() {
    // `with_*` builders override whatever the environment said.
    let cfg = RunConfig::local(2).with_thread_per_rank();
    assert_eq!(cfg.sched, SchedMode::ThreadPerRank);
    let cfg = cfg.with_workers(3);
    assert_eq!(cfg.sched, SchedMode::Pooled { workers: 3 });
}
