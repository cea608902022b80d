//! What a warm collective costs the allocator — the exact counts behind
//! `BENCH_pr24.json` (`expt regress --exact` re-measures them, and
//! `crates/core/tests/alloc_discipline.rs` pins the same numbers).
//!
//! A round is counted between two gates all ranks pass without touching
//! the allocator (`ftsg_core::alloc_probe::Gate`), after warm-up rounds
//! have grown the rendezvous' slot vectors, the buffer pool and the trace
//! ring to their steady size — on one scheduler worker, so the count is
//! deterministic.

use std::sync::Arc;

use ftsg_core::alloc_probe::Gate;
use ulfm_sim::{run, Comm, Ctx, RunConfig};

/// Ranks of the measured communicator (twice the buffer pool's floor).
pub const RANKS: usize = 64;
/// Rounds counted per measurement.
pub const ROUNDS: u64 = 16;
/// Elements every rank contributes to a gather round (16 KB of `f64`).
const BLOCK: usize = 2048;

/// Allocator requests made by all [`RANKS`] ranks together over
/// [`ROUNDS`] rounds of `round`, after 4 warm-up rounds. `requests` reads
/// the calling binary's counting allocator.
fn warm_requests(
    requests: fn() -> u64,
    round: impl Fn(&Ctx, &Comm, &mut Vec<f64>) + Send + Sync + 'static,
) -> u64 {
    let (open, close) = (Gate::new(requests), Gate::new(requests));
    let gates = (Arc::clone(&open), Arc::clone(&close));
    let report = run(RunConfig::local(RANKS).with_workers(1), move |ctx| {
        let Some(comm) = ctx.initial_world() else { return };
        let mut scratch =
            vec![comm.rank() as f64; BLOCK * if comm.rank() == 0 { RANKS } else { 1 }];
        for _ in 0..4 {
            round(ctx, &comm, &mut scratch);
        }
        gates.0.pass(ctx, &comm);
        for _ in 0..ROUNDS {
            round(ctx, &comm, &mut scratch);
        }
        gates.1.pass(ctx, &comm);
    });
    report.assert_no_app_errors();
    open.requests_until(&close)
}

/// The two exact counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmCollectives {
    /// Requests over [`ROUNDS`] rounds of `barrier` + `allreduce_sum` +
    /// `agree` on [`RANKS`] ranks — 3 · ROUNDS operations, 0 requests.
    pub inline_rounds: u64,
    /// Requests over [`ROUNDS`] `gather_view` rounds of [`RANKS`] ranks,
    /// the root assembling in place — 1 per operation, 0 per rank.
    pub gather_rounds: u64,
}

pub fn measure(requests: fn() -> u64) -> WarmCollectives {
    let inline_rounds = warm_requests(requests, |ctx, comm, _| {
        let mut flag = comm.rank() != 7;
        let sum = comm.barrier(ctx).and_then(|()| comm.allreduce_sum(ctx, comm.rank() as f64));
        let agreed = comm.agree(ctx, &mut flag);
        assert_eq!((sum, agreed, flag), (Ok((RANKS * (RANKS - 1) / 2) as f64), Ok(()), false));
    });
    let gather_rounds = warm_requests(requests, |ctx, comm, scratch| {
        match comm.gather_view(ctx, 0, &scratch[..BLOCK]) {
            Ok(Some(parts)) => (0..parts.len())
                .for_each(|r| parts.part(r).copy_to(0, &mut scratch[r * BLOCK..(r + 1) * BLOCK])),
            Ok(None) => {}
            Err(e) => panic!("healthy gather failed: {e}"),
        }
        // Rounds are apart, as checkpoint rounds are: nobody starts the
        // next one before the root has let go of this one's view.
        assert_eq!(comm.barrier(ctx), Ok(()));
    });
    WarmCollectives { inline_rounds, gather_rounds }
}
