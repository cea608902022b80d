//! Exact allocator-request counts, read through the caller's counter: a
//! process that installs a counting `#[global_allocator]` passes a
//! function returning its count so far as `requests`. This is the one
//! measurement behind `tests/alloc_discipline.rs`' exact budgets and the
//! allocation gates of `expt regress --exact`; only their assertions and
//! baselines differ.
//!
//! [`Gate`] separates "everything before, on every rank" from "everything
//! after" without allocating itself. [`repair_share`] counts what a
//! repair costs: the robust coefficient problem is solved once per lost
//! set and run, by the run's [`Plan`] (whichever rank asks first; every
//! other rank, and the final combination, gets the same solve), and
//! every rank runs the Fig. 4 error handler twice — on `ranks1k_kill`
//! that is 1,005 ranks.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use sparsegrid::Layout;
use ulfm_sim::{run, Comm, Ctx, RunConfig};

use crate::config::AppConfig;
use crate::detect::mpi_error_handler;
use crate::plan::Plan;
use crate::stack::{Nd, Stack, D2};
use crate::{ProcLayout, ProcLayoutN, Technique};

/// A rendezvous of all ranks of a communicator that itself allocates
/// nothing (an MPI barrier does): arrive, then poll cooperatively — a
/// false `iprobe` yields the fiber without touching the allocator — until
/// the last rank has. That rank stamps the request counter *before* it
/// releases the others.
pub struct Gate {
    arrived: AtomicUsize,
    stamp: AtomicU64,
    open: AtomicBool,
    requests: fn() -> u64,
}

impl Gate {
    pub fn new(requests: fn() -> u64) -> Arc<Self> {
        let (arrived, stamp, open) = Default::default();
        Arc::new(Gate { arrived, stamp, open, requests })
    }

    pub fn pass(&self, ctx: &Ctx, comm: &Comm) {
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == comm.size() {
            self.stamp.store((self.requests)(), Ordering::SeqCst);
            self.open.store(true, Ordering::SeqCst);
        }
        while !self.open.load(Ordering::SeqCst) {
            // Nobody sends on this tag; the probe is the yield point.
            let probed = comm.iprobe(ctx, Some(comm.rank()), Some(i32::MAX));
            assert!(matches!(probed, Ok(false)), "the gate's probe found {probed:?}");
        }
    }

    /// Requests between this gate's stamp and `later`'s.
    pub fn requests_until(&self, later: &Gate) -> u64 {
        later.stamp.load(Ordering::SeqCst) - self.stamp.load(Ordering::SeqCst)
    }
}

/// Ranks of the handler's communicator.
pub const HANDLER_RANKS: usize = 16;
/// The two of them that are dead.
const DEAD: [usize; 2] = [3, 11];
/// Handler calls counted per survivor.
pub const HANDLER_CALLS: u64 = 16;

/// What a repair costs, exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairShare {
    /// One warm robust solve at `ranks1k_kill`'s shape: n = 9, l = 4,
    /// the extra-layers layout, grids 1 and 2 lost
    /// ([`Stack::robust_coefficients`], the derivation a plan memoises).
    pub robust_2d: u64,
    /// One at `solve3d_kill`'s: d = 3, n = 7, l = 4, grid 1 lost.
    pub robust_3d: u64,
    /// The same lost set asked of a fresh plan of `ranks1k_kill`'s
    /// configuration, then asked again.
    pub plan_2d: Memoised,
    /// The same at `solve3d_kill`'s.
    pub plan_3d: Memoised,
    /// [`HANDLER_CALLS`] warm handler calls on each of the 14 survivors,
    /// together.
    pub errhandler: u64,
}

/// Requests of a memoised derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memoised {
    /// The first call: the derivation and its memo entry.
    pub cold: u64,
    /// A repeat of it, which reads the memo.
    pub repeat: u64,
}

/// Requests of the first and the second call of `ask` on a fresh plan of
/// `cfg`, built before the count.
fn memoised<S: Stack>(requests: fn() -> u64, cfg: &AppConfig, ask: impl Fn(&Plan<S>)) -> Memoised {
    let plan = Plan::<S>::new(cfg).expect("a benchmark shape is a valid configuration");
    let count = || {
        let before = requests();
        ask(&plan);
        requests() - before
    };
    let cold = count();
    Memoised { cold, repeat: count() }
}

/// Requests of the second of two calls of `solve`.
fn warm(requests: fn() -> u64, solve: impl Fn()) -> u64 {
    solve();
    let before = requests();
    solve();
    requests() - before
}

/// The counts: the solves on the calling thread, the handler calls
/// between two gates on one scheduler worker.
pub fn repair_share(requests: fn() -> u64) -> RepairShare {
    let d2 = ProcLayout::new(9, 4, Layout::ExtraLayers, 82);
    let robust_2d = warm(requests, || {
        black_box(D2::robust_coefficients(&d2, &[1, 2], false));
    });
    let nd = ProcLayoutN::new(3, 7, 4, Layout::ExtraLayers, 2);
    let robust_3d = warm(requests, || {
        black_box(Nd::robust_coefficients(&nd, &[1], false));
    });
    let ranks1k = AppConfig::paper_shaped(Technique::AlternateCombination, 9, 82, 2);
    let plan_2d = memoised::<D2>(requests, &ranks1k, |plan| {
        black_box(plan.robust(&[1, 2], false));
    });
    let mut solve3d = AppConfig::small_nd(Technique::AlternateCombination, 3);
    (solve3d.n, solve3d.l, solve3d.scale) = (7, 4, 2);
    let plan_3d = memoised::<Nd>(requests, &solve3d, |plan| {
        black_box(plan.robust(&[1], false));
    });
    let errhandler = handler_requests(requests);
    RepairShare { robust_2d, robust_3d, plan_2d, plan_3d, errhandler }
}

/// [`HANDLER_CALLS`] warm calls of the Fig. 4 handler on each survivor of
/// a [`HANDLER_RANKS`]-rank world whose [`DEAD`] ranks died, all survivors
/// together. The survivors' shrunken communicator carries the gates.
fn handler_requests(requests: fn() -> u64) -> u64 {
    let (open, close) = (Gate::new(requests), Gate::new(requests));
    let gates = (Arc::clone(&open), Arc::clone(&close));
    let report = run(RunConfig::local(HANDLER_RANKS).with_workers(1), move |ctx| {
        let Some(world) = ctx.initial_world() else { return };
        if DEAD.contains(&world.rank()) {
            ctx.die();
        }
        let Err(failed) = world.barrier(ctx) else {
            panic!("a barrier over dead ranks succeeded");
        };
        let survivors = world.shrink(ctx).expect("the survivors shrink");
        mpi_error_handler(ctx, &world, &failed);
        gates.0.pass(ctx, &survivors);
        for _ in 0..HANDLER_CALLS {
            mpi_error_handler(ctx, &world, &failed);
        }
        gates.1.pass(ctx, &survivors);
    });
    report.assert_no_app_errors();
    open.requests_until(&close)
}
