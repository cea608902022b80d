//! Kill-inside-a-tree-combine-hop stress: victims die at the top of
//! their Nth `isend`/`irecv`/`wait` — all of which are reduction-tree
//! hops in this script — and the survivors' revoke → shrink → retry loop
//! must converge to a combined grid that is **bitwise equal** to
//! [`combine_binomial`] (or, for `GridN` terms, [`combine_binomial_nd`])
//! over the surviving terms in leader order.

use ftsg_core::gather::binomial_combine;
use sparsegrid::{
    combine_binomial, combine_binomial_nd, combine_onto, combine_onto_nd, CombinationTerm,
    CombinationTermN, ComponentGrid, Grid2, GridN, LevelPair,
};
use ulfm_sim::{run, Error, FaultPlan, FaultSite, OpClass, Report, RunConfig};

const WORLD: usize = 5;

/// A grid type the tree combines, on one target level.
trait Terms: ComponentGrid + PartialEq + std::fmt::Debug + 'static {
    fn target() -> Self::Level;
    /// One source grid per original rank, scaled by `v` so every term is
    /// distinguishable and the oracle can be rebuilt from gathered
    /// scalars.
    fn source(v: f64) -> Self;
    /// The rank's own term on the target level.
    fn part(src: &Self) -> Self;
    /// The serial binomial reference over unit-coefficient `srcs`.
    fn oracle(srcs: &[Self]) -> Self;
}

impl Terms for Grid2 {
    fn target() -> LevelPair {
        LevelPair::new(3, 3)
    }
    fn source(v: f64) -> Self {
        Grid2::from_fn(Self::target(), |x, y| v * (1.0 + x + 2.0 * y))
    }
    fn part(src: &Self) -> Self {
        combine_onto(Self::target(), &[CombinationTerm { coeff: 1.0, grid: src }])
    }
    fn oracle(srcs: &[Self]) -> Self {
        let terms: Vec<CombinationTerm> =
            srcs.iter().map(|g| CombinationTerm { coeff: 1.0, grid: g }).collect();
        combine_binomial(Self::target(), &terms)
    }
}

impl Terms for GridN {
    fn target() -> Vec<u32> {
        vec![2, 1, 2]
    }
    fn source(v: f64) -> Self {
        GridN::from_fn(&Self::target(), |x| v * (1.0 + x[0] + 2.0 * x[1] - x[2]))
    }
    fn part(src: &Self) -> Self {
        combine_onto_nd(&Self::target(), &[CombinationTermN { coeff: 1.0, grid: src }])
    }
    fn oracle(srcs: &[Self]) -> Self {
        let terms: Vec<CombinationTermN> =
            srcs.iter().map(|g| CombinationTermN { coeff: 1.0, grid: g }).collect();
        combine_binomial_nd(&Self::target(), &terms)
    }
}

/// Every rank is a leader; the tree reduces to rank 0, which verifies
/// the result bitwise against the serial reference, then a strict gather
/// closes each attempt so survivors agree uniformly on failures.
fn run_script<G: Terms>(plan: FaultPlan) -> Report {
    run(RunConfig::local(WORLD), move |ctx| {
        let w0 = ctx.initial_world().unwrap();
        ctx.arm_fault_sites(&plan, w0.rank());
        let myval = (w0.rank() + 1) as f64;
        let (target, src) = (G::target(), G::source(myval));
        let mut comm = w0;
        let mut attempts = 0u32;
        let mut scratch: Vec<f64> = Vec::new();
        loop {
            attempts += 1;
            assert!(attempts <= 6, "tree retry did not converge");
            let res = (|| -> ulfm_sim::Result<()> {
                let leaders: Vec<usize> = (0..comm.size()).collect();
                let part = G::part(&src);
                let combined = binomial_combine(
                    ctx,
                    &comm,
                    &leaders,
                    0,
                    &target,
                    Some(part),
                    &mut scratch,
                    42,
                )?;
                // Strict collective: survivors uniformly observe any death.
                let vals = comm.gather(ctx, 0, &[myval])?;
                if let Some(vals) = vals {
                    let flat: Vec<f64> = vals.into_iter().flatten().collect();
                    let srcs: Vec<G> = flat.iter().map(|&v| G::source(v)).collect();
                    let oracle = G::oracle(&srcs);
                    let combined = combined.expect("reduction root holds the combined grid");
                    assert_eq!(combined, oracle, "tree combine must match the serial reference");
                    ctx.report_add("verified", 1.0);
                }
                Ok(())
            })();
            match res {
                Ok(()) => break,
                Err(Error::ProcFailed { .. }) | Err(Error::Revoked) => {
                    comm.revoke(ctx);
                    comm = comm.shrink(ctx).expect("shrink after failure");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        ctx.report_add("done", 1.0);
    })
}

fn check<G: Terms>(plan: FaultPlan, expect_failed: usize) {
    let report = run_script::<G>(plan);
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, expect_failed, "wrong number of deaths");
    assert_eq!(report.get_f64("done"), Some((WORLD - expect_failed) as f64));
    assert_eq!(report.get_f64("verified"), Some(1.0), "exactly one verified combination");
}

#[test]
fn healthy_tree_matches_serial_reference() {
    check::<Grid2>(FaultPlan::none(), 0);
}

#[test]
fn kill_inside_tree_send_hop() {
    // With 5 leaders: round 1 pairs (0←1), (2←3); round 2 (0←2); round 3
    // (0←4). Every non-root leader sends exactly once, whatever the grid.
    for victim in 1..WORLD {
        let plan = || FaultPlan::at_site(victim, FaultSite::Op { kind: OpClass::Isend, nth: 0 });
        check::<Grid2>(plan(), 1);
        check::<GridN>(plan(), 1);
    }
}

#[test]
fn kill_inside_tree_recv_hop() {
    // Leader 2 is the only non-root receiver (from 3 in round 1).
    check::<Grid2>(FaultPlan::at_site(2, FaultSite::Op { kind: OpClass::Irecv, nth: 0 }), 1);
}

#[test]
fn kill_inside_tree_wait_hops() {
    // Leader 2 waits twice: its recv-hop wait, then its send-hop wait.
    for nth in 0..2 {
        check::<Grid2>(FaultPlan::at_site(2, FaultSite::Op { kind: OpClass::Wait, nth }), 1);
    }
}

#[test]
fn two_leaders_die_in_same_tree() {
    let plan = FaultPlan::new_sites(vec![
        (1, FaultSite::Op { kind: OpClass::Isend, nth: 0 }),
        (3, FaultSite::Op { kind: OpClass::Wait, nth: 0 }),
    ]);
    check::<Grid2>(plan, 2);
}

/// Variant where `leaders[0] != root`: rank 0 is a pure controller and
/// the leaders are ranks `1..size`, so every attempt exercises the
/// final-ship hop (`leaders[0]` → root) — the hop whose missing-partial
/// case used to abort via `expect` instead of returning a recoverable
/// error.
fn run_ship_script(plan: FaultPlan) -> Report {
    run(RunConfig::local(WORLD), move |ctx| {
        let w0 = ctx.initial_world().unwrap();
        ctx.arm_fault_sites(&plan, w0.rank());
        let myval = (w0.rank() + 1) as f64;
        let target = Grid2::target();
        let mut comm = w0;
        let mut attempts = 0u32;
        let mut scratch: Vec<f64> = Vec::new();
        loop {
            attempts += 1;
            assert!(attempts <= 6, "ship retry did not converge");
            let res = (|| -> ulfm_sim::Result<()> {
                let leaders: Vec<usize> = (1..comm.size()).collect();
                let part =
                    leaders.contains(&comm.rank()).then(|| Grid2::part(&Grid2::source(myval)));
                let combined =
                    binomial_combine(ctx, &comm, &leaders, 0, &target, part, &mut scratch, 42)?;
                let vals = comm.gather(ctx, 0, &[myval])?;
                if let Some(vals) = vals {
                    let flat: Vec<f64> = vals.into_iter().flatten().collect();
                    // Terms in leader order: every rank but the controller.
                    let srcs: Vec<Grid2> = flat[1..].iter().map(|&v| Grid2::source(v)).collect();
                    let oracle = Grid2::oracle(&srcs);
                    let combined = combined.expect("root received the shipped grid");
                    assert_eq!(combined, oracle, "shipped combine must match the reference");
                    ctx.report_add("verified", 1.0);
                }
                Ok(())
            })();
            match res {
                Ok(()) => break,
                Err(Error::ProcFailed { .. }) | Err(Error::Revoked) | Err(Error::Protocol(_)) => {
                    comm.revoke(ctx);
                    comm = comm.shrink(ctx).expect("shrink after failure");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        ctx.report_add("done", 1.0);
    })
}

fn check_ship(plan: FaultPlan, expect_failed: usize) {
    let report = run_ship_script(plan);
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, expect_failed, "wrong number of deaths");
    assert_eq!(report.get_f64("done"), Some((WORLD - expect_failed) as f64));
    assert_eq!(report.get_f64("verified"), Some(1.0), "exactly one verified combination");
}

#[test]
fn healthy_ship_matches_serial_reference() {
    check_ship(FaultPlan::none(), 0);
}

#[test]
fn kill_final_ship_leader_at_every_send_hop() {
    // Leaders [1,2,3,4]: rank 1 receives from 2 (round 1) and 3 (round
    // 2), then ships to root 0 — its only isend IS the final-ship hop.
    check_ship(FaultPlan::at_site(1, FaultSite::Op { kind: OpClass::Isend, nth: 0 }), 1);
}

#[test]
fn kill_final_ship_leader_at_every_wait_hop() {
    // Rank 1 waits three times: two recv-hop waits, then the ship wait.
    for nth in 0..3 {
        check_ship(FaultPlan::at_site(1, FaultSite::Op { kind: OpClass::Wait, nth }), 1);
    }
}

#[test]
fn kill_other_leaders_during_ship_rounds() {
    for victim in 2..WORLD {
        check_ship(FaultPlan::at_site(victim, FaultSite::Op { kind: OpClass::Isend, nth: 0 }), 1);
    }
}

/// Direct regression for the consumed-partial state: the final-ship
/// leader enters a retried round with its partial already gone. The old
/// code aborted the process via `expect`; now it must surface
/// `Error::Protocol` and succeed on the rebuilt retry while the root's
/// posted receive is still in flight.
#[test]
fn consumed_partial_surfaces_protocol_error_not_abort() {
    let report = run(RunConfig::local(2), move |ctx| {
        let w = ctx.initial_world().unwrap();
        let target = Grid2::target();
        let mut scratch: Vec<f64> = Vec::new();
        let leaders = vec![1usize];
        if w.rank() == 1 {
            // First round: the partial was consumed by a previous attempt.
            let res =
                binomial_combine::<Grid2>(ctx, &w, &leaders, 0, &target, None, &mut scratch, 7);
            match res {
                Err(Error::Protocol(_)) => ctx.report_add("protocol_err", 1.0),
                other => panic!("expected Error::Protocol, got {other:?}"),
            }
            // Retry with a rebuilt partial — the root's receive completes.
            let part = Grid2::part(&Grid2::source(2.0));
            let _ = binomial_combine(ctx, &w, &leaders, 0, &target, Some(part), &mut scratch, 7)
                .expect("retried ship succeeds");
        } else {
            let combined: Grid2 =
                binomial_combine(ctx, &w, &leaders, 0, &target, None, &mut scratch, 7)
                    .expect("root receives the retried ship")
                    .expect("root holds the combined grid");
            let oracle = Grid2::oracle(&[Grid2::source(2.0)]);
            assert_eq!(combined, oracle, "retried ship is bitwise correct");
            ctx.report_add("verified", 1.0);
        }
    });
    report.assert_no_app_errors();
    assert_eq!(report.procs_failed, 0);
    assert_eq!(report.get_f64("protocol_err"), Some(1.0));
    assert_eq!(report.get_f64("verified"), Some(1.0));
}
