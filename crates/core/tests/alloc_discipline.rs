//! Allocation discipline as a blocking test (PR 18).
//!
//! This binary installs its own counting `#[global_allocator]` and holds
//! exactly **one** `#[test]`, so the process-wide counters see nothing but
//! the scenario under measurement (the harness runs a lone test on a lone
//! thread). It asserts, with the pooled scheduler pinned to one worker:
//!
//! 1. 64 warm `DistributedSolver::step`s of a 2×2 level-9 group make **0**
//!    allocator requests, summed over all ranks;
//! 2. so do 64 warm `DistributedSolverN::step`s of a 3-slab 3D group,
//!    under each row formulation (scalar reference and SIMD);
//! 3. so does a warm ring exchange of mixed 2 KB / 128 KB messages — in
//!    particular `BufPool::take` never (re)allocates once every size has a
//!    buffer in circulation;
//! 4. a Checkpoint/Restart run with 2·C checkpoints requests, per extra
//!    checkpoint round it takes, at most `0.1 × (bytes of one round)` more
//!    than the same run with C: nothing may scale with rounds any more —
//!    no wire copy (round k+1 gathers through round k's pooled buffers),
//!    no decoded copy, no fresh grid, no encoded file image;
//! 5. a warm `barrier` + `allreduce_sum` round of 64 ranks makes **0**
//!    requests — none per rank, none per operation: flags and scalars
//!    travel inline in the rendezvous' recycled slot vector;
//! 6. so does a warm `agree`;
//! 7. a warm `gather_view` of 64 ranks makes **exactly 1** request per
//!    operation (the vector of parts the root's `Gathered` owns) and none
//!    per rank: every member's wire buffer comes from the pool and goes
//!    back to it when the root drops its view;
//! 8. one warm robust-coefficient derivation at the `ranks1k_kill` shape
//!    (n = 9, l = 4, extra layers, grids 1 and 2 lost) makes **exactly
//!    3**: the downset's table, the search's one buffer of masks, the
//!    per-grid result. A run's plan makes it once per lost set, for every
//!    rank of an Alternate Combination repair and the final combination
//!    alike: the plan's first solve of that lost set makes
//!    **exactly [`PLAN_COLD_2D`]** (the derivation over the downset the
//!    plan keeps, the term list and the memo entry), a repeat **0**;
//! 9. so do the derivation and the plan at the `solve3d_kill` shape
//!    (d = 3, n = 7, l = 4, grid 1 lost): 3, **[`PLAN_COLD_3D`]** cold and
//!    **0** again;
//! 10. a warm call of the Fig. 4 error handler on a communicator with two
//!     known failures makes **0**: the acknowledged list is the
//!     communicator's shared failed list and the acknowledged group comes
//!     from the communicator's cache;
//! 11. a warm scatter of a level-9 grid into the solver rows of a 2×2
//!     group makes **0**: the root pushes each block's rows from the grid
//!     into a pooled wire buffer, the parts vector is recycled, and each
//!     member copies its wire rows straight into its padded field;
//! 12. a group root that gathers the same level twice through its landing
//!     grid asks for fewer bytes the second time than one grid holds: no
//!     grid-sized buffer is made again;
//! 13. what set-up builds before epoch 0, warm: the `solve3d_kill`
//!     grid system makes **exactly 1** request (its grid vector, sized
//!     once: levels are inline), validating the `solve3d_kill` and the
//!     `ranks1k_kill` configurations **0** (the checks build nothing), a
//!     `GridN` **1** (its values: level, shape and strides are inline)
//!     and the `ranks1k_kill` 2D grid system **1**;
//! 14. a whole small Alternate Combination run (n = 6, l = 3, scale 2,
//!     2D) whose two victims in grids 1 and 2 die at the final step makes
//!     exactly [`AC_REPAIR_RUN`] requests, warm, beyond what std asks for
//!     to spawn the run's one scheduler worker thread: the run's plan is
//!     built once, and it derives the broken grids, the robust solve and
//!     the term list once for all 17 ranks, whose data recovery and final
//!     combination share them (any of them derived per rank again adds a
//!     multiple of 17);
//! 15. after a two-victim shrink of 16 ranks, once one survivor has
//!     derived the Fig. 6 failed list, the other 13 survivors' calls make
//!     **0** requests together: each gets the list the first one derived,
//!     shared on the shrunken communicator;
//! 16. 64 warm `LocalSolver::run` steps of a level-8 grid make **0**;
//! 17. so do 64 warm `lax_wendroff_step`s, the reference formulation,
//!     once its scratch vectors are warm;
//! 18. so do 8 warm combine rounds: each term re-materialized into its
//!     preallocated partial, the partials merged in place by the
//!     binomial-tree association, as a leader does per round;
//! 19. so do 4,096 warm trace events into a full `TraceRing` and their
//!     `MetricsCell` counters: the ring overwrites in place, and counts
//!     what it dropped;
//! 20. `combine_onto_into_nd` into a warm target makes as many requests
//!     at 18× the target's nodes: per-call tables, nothing per node;
//! 21. `assemble_grid` of three slabs makes as many requests at 32× the
//!     plane's nodes;
//! 22. on a group whose communicator's buffer pool is warm, a freshly
//!     built solver's first overlapped step makes **0** requests, in 2D
//!     (a 2×2 level-9 group) and in nd (3 slabs): halos are received
//!     straight into the field's ghost cells and columns pushed straight
//!     into the wire, so a solver owns no halo buffer to grow;
//! 23. 64 ranks of one run that each ask the run's plan for one lost
//!     set's broken grids, robust solve and term list make **as many**
//!     requests together as the one rank of a one-rank run does (12): the
//!     first to ask derives, the others share. Where every rank derived
//!     its own, each made 5 — the broken grids 1, the robust solve 3, the
//!     term list 1, as `ranks1k_kill`'s site table read over its 1,005
//!     ranks — and 64 ranks made 320.
//!
//! Scenarios 8–10 are measured by `ftsg_core::alloc_probe::repair_share`,
//! the measurement `expt regress --exact` gates on; the multi-rank
//! scenarios count between two of that module's allocation-free `Gate`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use advect2d::{
    lax_wendroff_step, AdvectionProblem, KernelConfig, KernelKind, LocalSolver, LwCoef, ProblemN,
};
use ftsg_core::alloc_probe::{repair_share, Gate, Memoised, RepairShare, HANDLER_CALLS};
use ftsg_core::detect::failed_procs_list;
use ftsg_core::gather::{assemble_grid, scatter_grid_into, split_grid};
use ftsg_core::landing::Landing;
use ftsg_core::layout::GroupInfo;
use ftsg_core::layout_nd::GroupInfoN;
use ftsg_core::plan::Plan;
use ftsg_core::psolve::DistributedSolver;
use ftsg_core::psolve_nd::DistributedSolverN;
use ftsg_core::stack::D2;
use ftsg_core::{run_app, AppConfig, ProcLayout, Technique};
use sparsegrid::{
    combine_onto_into, combine_onto_into_nd, gcp_coefficients, CombinationTerm, CombinationTermN,
    Grid2, GridN, GridSystem, GridSystemN, LevelPair, LevelVecN,
};
use ulfm_sim::{run, Comm, Ctx, FaultPlan, MetricsCell, RunConfig, TraceEvent, TraceRing};

static REQUESTS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requests() -> u64 {
    REQUESTS.load(Ordering::SeqCst)
}

fn bytes() -> u64 {
    BYTES.load(Ordering::SeqCst)
}

/// Allocator requests made by all `world` ranks together over `counted`
/// rounds of `round`, after `warm` warm-up rounds, between two gates that
/// allocate nothing themselves.
fn warm_requests<S>(
    world: usize,
    warm: usize,
    counted: usize,
    make: impl Fn(&Ctx, &Comm) -> S + Send + Sync + 'static,
    round: impl Fn(&Ctx, &Comm, &mut S) + Send + Sync + 'static,
) -> u64 {
    warm_count(requests, world, warm, counted, make, round)
}

/// [`warm_requests`] of another counter: `count` reads it.
fn warm_count<S>(
    count: fn() -> u64,
    world: usize,
    warm: usize,
    counted: usize,
    make: impl Fn(&Ctx, &Comm) -> S + Send + Sync + 'static,
    round: impl Fn(&Ctx, &Comm, &mut S) + Send + Sync + 'static,
) -> u64 {
    let (open, close) = (Gate::new(count), Gate::new(count));
    let gates = (Arc::clone(&open), Arc::clone(&close));
    let report = run(RunConfig::local(world).with_workers(1), move |ctx| {
        let comm = ctx.initial_world().unwrap();
        let mut state = make(ctx, &comm);
        for _ in 0..warm {
            round(ctx, &comm, &mut state);
        }
        gates.0.pass(ctx, &comm);
        for _ in 0..counted {
            round(ctx, &comm, &mut state);
        }
        gates.1.pass(ctx, &comm);
    });
    report.assert_no_app_errors();
    open.requests_until(&close)
}

/// Requests of one call of `f` on this thread.
fn requests_of(f: impl FnOnce()) -> u64 {
    let before = requests();
    f();
    requests() - before
}

/// Requests of the second of two calls of `f` on this thread.
fn warm_call(mut f: impl FnMut()) -> u64 {
    f();
    requests_of(f)
}

/// Requests of a fresh plan's first robust solve of one lost set at the
/// `ranks1k_kill` and `solve3d_kill` shapes (scenarios 8 and 9).
const PLAN_COLD_2D: u64 = 8;
const PLAN_COLD_3D: u64 = 8;

/// Requests of every rank of a `world`-rank run asking the run's plan for
/// the broken grids of one failed list, then the robust solve of what they
/// broke and its term list, at the `ranks1k_kill` shape, all ranks
/// together (scenario 23). The plan is built before the count.
fn plan_share(world: usize) -> u64 {
    warm_requests(
        world,
        0,
        1,
        |ctx, _| {
            let cfg = AppConfig::paper_shaped(Technique::AlternateCombination, 9, 82, 2);
            ctx.run_shared(|| Plan::<D2>::new(&cfg))
        },
        |_, _, plan| {
            let plan = plan.as_ref().as_ref().unwrap();
            let (g1, g2) = (plan.layout.group(1), plan.layout.group(2));
            let broken = plan.broken(&[g1.first + g1.size - 1, g2.first]);
            let solved = plan.robust(&broken, false);
            assert_eq!((&*broken, solved.terms.grids.is_empty()), (&[1, 2][..], false));
            black_box(&solved.terms.roots);
        },
    )
}

/// Allocator requests of a whole warm run of scenario 14's configuration,
/// net of its worker thread's spawn: 519, and 2 more with debug
/// assertions on (the spawn's reconciliation of the per-host live counts
/// in `Hub::live_per_host`).
const AC_REPAIR_RUN: u64 = if cfg!(debug_assertions) { 521 } else { 519 };

/// Requests std makes to spawn and join one named thread, as `run`
/// spawns its scheduler worker. They depend on the test harness: while it
/// captures output, every thread spawned inherits the capture, and that
/// costs 2 requests more per thread than under `--nocapture`.
fn thread_spawn_requests() -> u64 {
    let spawn = || {
        let worker = std::thread::Builder::new().name(format!("ulfm-worker-{}", 0));
        worker.spawn(|| {}).unwrap().join().unwrap();
    };
    warm_call(spawn)
}

/// Scenario 14's run: the small 2D Alternate Combination shape, scale 2,
/// the last rank of grids 1 and 2 killed at the final step. Returns its
/// world size too.
fn ac_repair_config() -> (AppConfig, usize) {
    let mut cfg = AppConfig::small(Technique::AlternateCombination);
    cfg.scale = 2;
    let layout = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale);
    let last = |g: usize| layout.group(g).first + layout.group(g).size - 1;
    let plan = FaultPlan::new(vec![(last(1), cfg.steps()), (last(2), cfg.steps())]);
    (cfg.with_plan(plan), layout.world_size())
}

/// Requests, by every thread, of one whole run of `cfg` on `world` ranks.
fn run_requests(cfg: AppConfig, world: usize) -> u64 {
    let before = requests();
    let report = run(RunConfig::local(world).with_workers(1), move |ctx| run_app(&cfg, ctx));
    let made = requests() - before;
    report.assert_no_app_errors();
    made
}

/// Scenario 15's world and the two of its ranks that die.
const FIG6_RANKS: usize = 16;
const FIG6_DEAD: [usize; 2] = [3, 11];

/// Requests of the Fig. 6 calls of every survivor but the first to make
/// one, together, on the [`FIG6_RANKS`]-rank world whose [`FIG6_DEAD`]
/// ranks died. The survivors' shrunken communicator carries the gates.
fn later_fig6_requests() -> u64 {
    let (open, close) = (Gate::new(requests), Gate::new(requests));
    let gates = (Arc::clone(&open), Arc::clone(&close));
    let report = run(RunConfig::local(FIG6_RANKS).with_workers(1), move |ctx| {
        let world = ctx.initial_world().unwrap();
        if FIG6_DEAD.contains(&world.rank()) {
            ctx.die();
        }
        assert!(world.barrier(ctx).is_err(), "a barrier over dead ranks succeeded");
        let survivors = world.shrink(ctx).unwrap();
        if survivors.rank() == 0 {
            black_box(failed_procs_list(&world, &survivors));
        }
        gates.0.pass(ctx, &survivors);
        if survivors.rank() != 0 {
            black_box(failed_procs_list(&world, &survivors));
        }
        gates.1.pass(ctx, &survivors);
    });
    report.assert_no_app_errors();
    open.requests_until(&close)
}

/// The CR configuration of scenario 4 at `checkpoints` checkpoints.
fn cr_config(checkpoints: u32) -> AppConfig {
    let mut cfg = AppConfig::small(Technique::CheckpointRestart).with_checkpoints(checkpoints);
    (cfg.n, cfg.l, cfg.log2_steps) = (8, 3, 5);
    cfg.kernel = KernelConfig::simd();
    cfg
}

/// Checkpoint rounds a healthy run of `cfg` takes: one per detection
/// point short of the last step.
fn cr_rounds(cfg: &AppConfig) -> u64 {
    (cfg.steps() - 1) / cfg.ckpt_period()
}

/// Bytes requested, by every thread, over one whole CR run of `cfg`.
fn cr_run_bytes(cfg: AppConfig) -> u64 {
    let world = ProcLayout::new(cfg.n, cfg.l, cfg.technique.layout(), cfg.scale).world_size();
    let before = BYTES.load(Ordering::SeqCst);
    let report = run(RunConfig::local(world).with_workers(1), move |ctx| run_app(&cfg, ctx));
    report.assert_no_app_errors();
    BYTES.load(Ordering::SeqCst) - before
}

#[test]
fn bulk_data_paths_hold_their_allocation_budget() {
    // 1. The 2D halo exchange + stencil: 4 isends, 4 irecvs, 8 waits and a
    //    level-9 quarter-grid update per rank per step.
    let steps2d = warm_requests(
        4,
        8,
        64,
        |_, comm| {
            let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
            let p = AdvectionProblem::standard();
            // The production formulation, whatever `FTSG_KERNEL` says.
            DistributedSolver::new(p, LevelPair::new(9, 9), 1e-4, &info, comm.rank())
                .with_kernel(KernelConfig::simd())
        },
        |ctx, comm, solver| solver.step(ctx, comm).unwrap(),
    );
    assert_eq!(steps2d, 0, "64 warm 2D steps x 4 ranks made {steps2d} allocator requests");

    // 2. The d-dimensional plane exchange + row kernels, uneven slabs,
    //    under each row formulation.
    for kind in KernelKind::all() {
        let steps3d = warm_requests(
            3,
            8,
            64,
            move |_, comm| {
                let info = GroupInfoN { grid: 0, first: 0, size: 3 };
                let p = ProblemN::standard_advection(3);
                DistributedSolverN::new(p, &[5, 4, 3], 1e-4, &info, comm.rank())
                    .with_kernel(KernelConfig { kind })
            },
            |ctx, comm, solver| solver.step(ctx, comm).unwrap(),
        );
        assert_eq!(
            steps3d,
            0,
            "64 warm 3D {} steps x 3 ranks made {steps3d} allocator requests",
            kind.label()
        );
    }

    // 3. Mixed message sizes round a ring: every size in flight keeps its
    //    own pooled buffer, so no take grows one or asks for another.
    let ring = warm_requests(
        4,
        4,
        32,
        |_, _| (vec![1.5f64; 256], vec![2.5f64; 16 * 1024], Vec::<f64>::new(), Vec::<f64>::new()),
        |ctx, comm, (small, large, got_small, got_large)| {
            let (to, from) = ((comm.rank() + 1) % comm.size(), (comm.rank() + 3) % comm.size());
            comm.send(ctx, to, 1, small).unwrap();
            comm.send(ctx, to, 2, large).unwrap();
            comm.recv_into(ctx, from, 1, got_small).unwrap();
            comm.recv_into(ctx, from, 2, got_large).unwrap();
            assert_eq!((got_small.len(), got_large.len()), (256, 16 * 1024));
        },
    );
    assert_eq!(ring, 0, "32 warm mixed 2 KB / 128 KB ring rounds made {ring} requests");

    // 4. What a checkpoint round may cost. One round lands every sub-grid
    //    once; its bytes are the files'.
    const C: u32 = 3;
    let (few, many) = (cr_config(C), cr_config(2 * C));
    let extra_rounds = cr_rounds(&many) - cr_rounds(&few);
    assert!(extra_rounds >= u64::from(C), "2C checkpoints add at least C rounds");
    let layout = ProcLayout::new(few.n, few.l, few.technique.layout(), few.scale);
    let round_bytes: u64 = (layout.system().grids().iter())
        .map(|g| (ftsg_core::checkpoint::OVERHEAD + 8 * g.level.points()) as u64)
        .sum();
    let extra = cr_run_bytes(many).saturating_sub(cr_run_bytes(few));
    let budget = (extra_rounds as f64 * 0.1 * round_bytes as f64) as u64;
    assert!(
        extra <= budget,
        "{extra_rounds} more checkpoint rounds requested {extra} more bytes; the budget is \
         {budget} ({extra_rounds} x 0.1 x {round_bytes} per round): something scales with \
         rounds"
    );
    // 5.-7. Collectives through the rendezvous, 64 ranks, warm.
    const RANKS: usize = 64;
    const ROUNDS: usize = 16;
    let small = warm_requests(
        RANKS,
        4,
        ROUNDS,
        |_, _| (),
        |ctx, comm, ()| {
            comm.barrier(ctx).unwrap();
            let ranks = comm.allreduce_sum(ctx, comm.rank() as f64).unwrap();
            assert_eq!(ranks, (RANKS * (RANKS - 1) / 2) as f64);
        },
    );
    assert_eq!(small, 0, "{ROUNDS} warm barrier + allreduce_sum rounds made {small} requests");
    let agree = warm_requests(
        RANKS,
        4,
        ROUNDS,
        |_, _| (),
        |ctx, comm, ()| {
            let mut flag = comm.rank() != 7;
            comm.agree(ctx, &mut flag).unwrap();
            assert!(!flag, "rank 7 said no");
        },
    );
    assert_eq!(agree, 0, "{ROUNDS} warm agree rounds made {agree} requests");
    let gather = warm_requests(
        RANKS,
        4,
        ROUNDS,
        |_, comm| (vec![comm.rank() as f64; 2048], vec![0.0f64; RANKS * 2048]),
        |ctx, comm, (mine, assembled)| {
            // The root assembles in place, as `gather_grid_into` does.
            if let Some(parts) = comm.gather_view(ctx, 0, mine).unwrap() {
                for r in 0..parts.len() {
                    parts.part(r).copy_to(0, &mut assembled[r * 2048..(r + 1) * 2048]);
                }
                assert_eq!(assembled[2048 * (RANKS - 1)], (RANKS - 1) as f64);
            }
            // Rounds are apart, as checkpoint rounds are: nobody starts
            // the next one before the root has let go of this one's view.
            comm.barrier(ctx).unwrap();
        },
    );
    assert_eq!(
        gather, ROUNDS as u64,
        "{ROUNDS} warm gather_view rounds of {RANKS} ranks made {gather} requests, not one each"
    );
    // 8.-10. A repair's robust solve, and a rank's share of the handler.
    let RepairShare { robust_2d, robust_3d, plan_2d, plan_3d, errhandler } = repair_share(requests);
    assert_eq!(robust_2d, 3, "a warm 2D robust solve made {robust_2d} requests, not 3");
    assert_eq!(robust_3d, 3, "a warm 3D robust solve made {robust_3d} requests, not 3");
    for (plan, cold, dim) in [(plan_2d, PLAN_COLD_2D, "2D"), (plan_3d, PLAN_COLD_3D, "3D")] {
        assert_eq!(
            plan,
            Memoised { cold, repeat: 0 },
            "a plan's {dim} robust solve of one lost set, then a repeat: {plan:?}, not {cold} \
             then 0"
        );
    }
    assert_eq!(
        errhandler, 0,
        "{HANDLER_CALLS} warm handler calls x 14 survivors made {errhandler} requests"
    );
    // 11. Scatter a level-9 grid into the rows of four solvers.
    let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
    let level = LevelPair::new(9, 9);
    let scatter = warm_requests(
        4,
        2,
        ROUNDS,
        move |_, comm| {
            let p = AdvectionProblem::standard();
            let solver = DistributedSolver::new(p, level, 1e-4, &info, comm.rank());
            let whole = (comm.rank() == 0).then(|| Grid2::from_fn(level, |x, y| x - y));
            (solver, whole)
        },
        move |ctx, comm, (solver, whole)| {
            scatter_grid_into(ctx, comm, &info, whole.as_ref(), solver).unwrap();
        },
    );
    assert_eq!(scatter, 0, "{ROUNDS} warm level-9 scatters into 2x2 solvers made {scatter}");
    // 12. Gather grid 0 of a layout twice through the root's landing grid.
    let layout = Arc::new(ProcLayout::new(9, 2, sparsegrid::Layout::Plain, 2));
    let group = *layout.group(0);
    let grid_bytes = 8 * layout.system().grid(0).level.points() as u64;
    let regather = warm_count(
        bytes,
        group.size,
        1,
        1,
        move |_, comm| {
            let p = AdvectionProblem::standard();
            let level = layout.system().grid(0).level;
            let solver = DistributedSolver::new(p, level, 1e-4, &group, comm.rank());
            (Arc::clone(&layout), solver, Landing::<D2>::default())
        },
        |ctx, comm, (layout, solver, landing)| {
            let first = landing.gather(ctx, comm, layout, 0, solver, |g| Ok(g.values()[1]));
            assert!(first.unwrap().is_none_or(|v| v.is_finite()));
        },
    );
    assert!(
        regather < grid_bytes,
        "the second gather of a {grid_bytes}-byte grid asked for {regather} bytes"
    );
    // 13. What set-up builds before epoch 0, warm, on this thread.
    let solve3d = {
        let mut cfg = AppConfig::small_nd(Technique::AlternateCombination, 3);
        (cfg.n, cfg.l, cfg.scale, cfg.log2_steps) = (7, 4, 2, 6);
        cfg
    };
    let ranks1k = AppConfig::paper_shaped(Technique::AlternateCombination, 9, 82, 2);
    let layout = solve3d.technique.layout();
    let setup = [
        warm_call(|| drop(black_box(GridSystemN::new(3, 7, 4, layout)))),
        warm_call(|| solve3d.validate().unwrap()),
        warm_call(|| ranks1k.validate().unwrap()),
        warm_call(|| drop(black_box(GridN::zeros(&[4, 4, 7])))),
        warm_call(|| drop(black_box(GridSystem::new(9, 4, layout)))),
    ];
    assert_eq!(
        setup,
        [1, 0, 0, 1, 1],
        "requests of: the solve3d_kill grid system (its grid vector: levels are inline), \
         validating its configuration and ranks1k_kill's (nothing is built), a GridN (its \
         values), the ranks1k_kill 2D grid system (its grid vector, sized once)"
    );
    // 14. A two-failure Alternate Combination repair at the final step.
    let (cfg, world) = ac_repair_config();
    run_requests(cfg.clone(), world);
    let ac_run = run_requests(cfg, world) - thread_spawn_requests();
    assert_eq!(
        ac_run, AC_REPAIR_RUN,
        "a warm two-failure AC run of {world} ranks made {ac_run} requests beyond its worker \
         thread's spawn, not {AC_REPAIR_RUN} (a multiple of 17 more: a rank derived what the \
         run's plan derives once)"
    );
    // 15. The Fig. 6 list, asked for by every survivor of one shrink.
    let fig6 = later_fig6_requests();
    let later = FIG6_RANKS - FIG6_DEAD.len() - 1;
    assert_eq!(fig6, 0, "{later} survivors' Fig. 6 calls after the first made {fig6} requests");
    // 16. The single-owner level-8 solve.
    let p = AdvectionProblem::standard();
    let mut local = LocalSolver::new(p, LevelPair::new(8, 8), 1e-4);
    let local_steps = warm_call(|| local.run(64));
    assert_eq!(local_steps, 0, "64 warm LocalSolver steps made {local_steps} requests");
    // 17. The reference step, scratch warm.
    let mut grid = Grid2::from_fn(LevelPair::new(8, 8), p.initial());
    let coef = LwCoef::new(&p, 1.0 / 256.0, 1.0 / 256.0, 1e-4);
    let (mut padded, mut out) = (Vec::new(), Vec::new());
    let reference = warm_call(|| {
        for _ in 0..64 {
            lax_wendroff_step(&mut grid, &coef, &mut padded, &mut out);
        }
    });
    assert_eq!(reference, 0, "64 warm reference steps made {reference} requests");
    // 18. Combine rounds over warm partials.
    let sys = GridSystem::new(6, 3, sparsegrid::Layout::Plain);
    let terms: Vec<(f64, Grid2)> = gcp_coefficients(&sys.classical_downset())
        .iter()
        .filter(|(_, &c)| c != 0)
        .map(|(&lv, &c)| (c as f64, Grid2::from_fn(lv, |x, y| (5.0 * x).sin() + 2.0 * y)))
        .collect();
    let mut parts: Vec<Grid2> = terms.iter().map(|_| Grid2::zeros(sys.min_level())).collect();
    let combine = warm_call(|| {
        for _ in 0..8 {
            for ((c, g), part) in terms.iter().zip(parts.iter_mut()) {
                combine_onto_into(part, &[CombinationTerm { coeff: *c, grid: g }]);
            }
            let mut stride = 1;
            while stride < parts.len() {
                for i in (0..parts.len() - stride).step_by(2 * stride) {
                    let (head, tail) = parts.split_at_mut(i + stride);
                    head[i].axpy(1.0, &tail[0]);
                }
                stride *= 2;
            }
        }
    });
    assert_eq!(combine, 0, "8 warm combine rounds made {combine} requests");
    assert!(parts[0].values().iter().all(|v| v.is_finite()));
    // 19. Default-on tracing: a full ring and the per-rank counters.
    let (mut ring, cell) = (TraceRing::new(1024), MetricsCell::new());
    let event = |k: usize| TraceEvent {
        proc: 1,
        host: 0,
        op: "send",
        cat: "mpi",
        cid: 0,
        t_start: k as f64 * 1e-6,
        t_end: k as f64 * 1e-6 + 5e-7,
        bytes: 64,
    };
    (0..2048).for_each(|k| ring.push(event(k)));
    let tracing = requests_of(|| {
        for k in 0..4096 {
            ring.push(event(k));
            cell.note_op("send", 5e-7);
            cell.note_sent(64);
            cell.note_recvd(64);
            cell.note_recv_retry();
        }
    });
    assert_eq!(tracing, 0, "4096 warm trace events made {tracing} requests");
    assert_eq!((ring.len(), ring.dropped()), (1024, 2048 + 4096 - 1024));
    // 20. An nd combination onto a non-dominated target: both terms are
    //     coarser than it on one axis and finer on another.
    let nd_terms: Vec<GridN> = [[2u32, 6, 3], [7, 2, 5]]
        .iter()
        .map(|lv| GridN::from_fn(lv, |x| (3.0 * x[0]).sin() + x[1] * x[2]))
        .collect();
    let refs: Vec<CombinationTermN> =
        nd_terms.iter().map(|g| CombinationTermN { coeff: 1.0, grid: g }).collect();
    let nd_combine = |level: &[u32]| {
        let mut out = GridN::zeros(level);
        warm_call(|| combine_onto_into_nd(&mut out, &refs))
    };
    let (small, large) = (nd_combine(&[4, 4, 4]), nd_combine(&[6, 5, 4]));
    assert_eq!(small, large, "nd combine requests grew with the target: {small} vs {large}");
    // 21. Three slabs assembled into one grid, at two plane sizes.
    let slabs = GroupInfoN { grid: 0, first: 0, size: 3 };
    let assemble = |level: &[u32]| {
        let level = LevelVecN::new(level);
        let blocks = split_grid(&GridN::from_fn(&level, |x| x[0] - x[1] + x[2]), &slabs);
        let mut grid = None;
        let made = requests_of(|| grid = Some(assemble_grid(&level, &slabs, &blocks)));
        assert_eq!(grid.unwrap().expect("well-formed blocks").level(), &level[..]);
        made
    };
    let (small_plane, large_plane) = (assemble(&[2, 2, 3]), assemble(&[5, 4, 3]));
    assert_eq!(
        small_plane, large_plane,
        "assemble_grid requests grew with the plane: {small_plane} vs {large_plane}"
    );
    // 22. A fresh solver's first step on a warm pool: a warm solver's
    //     steps warm the pool, then a second solver, built before the
    //     count starts, takes its first step.
    let first2d = warm_requests(
        4,
        8,
        1,
        |_, comm| {
            let info = GroupInfo { grid: 0, first: 0, size: 4, px: 2, py: 2 };
            let p = AdvectionProblem::standard();
            let make = || {
                DistributedSolver::new(p, LevelPair::new(9, 9), 1e-4, &info, comm.rank())
                    .with_kernel(KernelConfig::simd())
            };
            (make(), make(), 0)
        },
        |ctx, comm, (warm, fresh, rounds)| {
            *rounds += 1;
            let solver = if *rounds <= 8 { warm } else { fresh };
            solver.step(ctx, comm).unwrap()
        },
    );
    assert_eq!(first2d, 0, "4 fresh 2D solvers' first steps made {first2d} allocator requests");
    let first3d = warm_requests(
        3,
        8,
        1,
        |_, comm| {
            let info = GroupInfoN { grid: 0, first: 0, size: 3 };
            let make = || {
                let p = ProblemN::standard_advection(3);
                DistributedSolverN::new(p, &[5, 4, 3], 1e-4, &info, comm.rank())
            };
            (make(), make(), 0)
        },
        |ctx, comm, (warm, fresh, rounds)| {
            *rounds += 1;
            let solver = if *rounds <= 8 { warm } else { fresh };
            solver.step(ctx, comm).unwrap()
        },
    );
    assert_eq!(first3d, 0, "3 fresh 3D solvers' first steps made {first3d} allocator requests");
    // 23. One lost set's arithmetic, asked of the plan by every rank.
    let (alone, shared) = (plan_share(1), plan_share(RANKS));
    assert_eq!(
        shared, alone,
        "{RANKS} ranks asking the plan for one lost set made {shared} requests, one rank {alone}"
    );
    println!(
        "alloc_discipline: 0 requests over 64 warm 2D steps, 64 warm 3D steps, 32 mixed ring \
         rounds and {ROUNDS} barrier + allreduce_sum and agree rounds of {RANKS} ranks; 1 per \
         gather_view of {RANKS} ranks; {extra_rounds} extra checkpoint rounds cost {:.3} of one \
         round's bytes each; 3 per warm robust solve (2D and 3D); 0 per warm Fig. 4 handler \
         call; 0 per warm level-9 scatter into solver rows; a second gather through the \
         landing grid asked for {regather} bytes, one grid is {grid_bytes}; set-up: 1 per 3D \
         grid system, 0 per validation, 1 per GridN, 1 per 2D grid system; {ac_run} per \
         warm two-failure AC run of {world} ranks beyond its worker's spawn; {fig6} for \
         {later} survivors' Fig. 6 lists after the first; 0 over 64 warm local and reference \
         steps, 8 combine rounds and 4096 trace events; {small} per nd combine and \
         {small_plane} per assembly at either size; 0 over a fresh solver's first step on a \
         warm pool (2D and 3D); a plan's first robust solve {} (2D) / {} (3D), a repeat 0; \
         {shared} for {RANKS} ranks asking the plan for one lost set, as one rank alone",
        extra as f64 / extra_rounds as f64 / round_bytes as f64,
        plan_2d.cold,
        plan_3d.cold
    );
}
