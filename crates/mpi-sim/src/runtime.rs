//! The universe: process creation, the scheduler front-end, virtual
//! clocks, and the run report.
//!
//! [`run`] plays the role of `mpirun`: it creates `world` processes,
//! hands every one a [`Ctx`], and executes the application entry function
//! in all of them. Processes spawned later through
//! [`crate::spawn::comm_spawn_multiple`] re-enter the *same* entry
//! function, with [`Ctx::parent`] returning the intercommunicator to the
//! spawning group — exactly how an MPI application distinguishes original
//! from respawned processes via `MPI_Comm_get_parent`.
//!
//! Each simulated process is, by default, a stackful fiber cooperatively
//! scheduled on a bounded worker pool ([`SchedMode::Pooled`]): it runs
//! until it blocks in a runtime op, parks its continuation, and yields
//! its worker to the next runnable rank. That is what lets one machine
//! host 100k ranks. The legacy one-OS-thread-per-rank model survives as
//! [`SchedMode::ThreadPerRank`] (and as the automatic fallback on
//! targets without fiber support). Report assembly is deterministic by
//! construction — every per-rank contribution is buffered and folded in
//! `ProcId` order — so the same seed produces an identical [`Report`] at
//! any worker count.

use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::comm::{Comm, CommShared, InterComm, InterShared};
use crate::costmodel::{BetaUlfm, ClusterProfile, IdealUlfm, NetParams, UlfmCostModel};
use crate::faultplan::{FaultPlan, FaultSite, OpClass};
use crate::metrics::{
    MetricsCell, MetricsReport, RankMetrics, RecoveryTimeline, TraceRing, DEFAULT_TRACE_CAPACITY,
};
use crate::proc::{KillSignal, ProcId, ProcState};
use crate::sched::Hub;
use crate::topology::Hostfile;

/// Execution substrate for simulated ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedMode {
    /// Cooperative scheduling: every rank is a stackful fiber, run to its
    /// next blocking point by a bounded pool of worker threads. The
    /// default. Falls back to [`SchedMode::ThreadPerRank`] on targets
    /// without fiber support.
    Pooled {
        /// Worker threads; 0 means "available parallelism".
        workers: usize,
    },
    /// Legacy escape hatch: one OS thread per simulated rank. Kept until
    /// pooled parity is beyond doubt; chokes on thread-spawn overhead
    /// near a few thousand ranks.
    ThreadPerRank,
}

impl SchedMode {
    /// Resolve the default mode from the environment: `ULFM_SCHED=threads`
    /// selects the escape hatch, `ULFM_WORKERS=N` sizes the pool.
    fn from_env() -> SchedMode {
        match std::env::var("ULFM_SCHED").as_deref() {
            Ok("threads") | Ok("thread") | Ok("thread-per-rank") => SchedMode::ThreadPerRank,
            _ => {
                let workers =
                    std::env::var("ULFM_WORKERS").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
                SchedMode::Pooled { workers }
            }
        }
    }
}

/// Configuration for one simulated MPI job.
#[derive(Clone)]
pub struct RunConfig {
    /// Initial world size (`mpirun -np N`).
    pub world: usize,
    /// The machine being emulated (interconnect, disk, node layout).
    pub profile: ClusterProfile,
    /// Cost model for the ULFM operations.
    pub model: Arc<dyn UlfmCostModel>,
    /// How long a blocked operation may starve before the runtime calls it
    /// an application bug ([`crate::Error::CollectiveMismatch`]).
    pub stall_timeout: Duration,
    /// Stack size per simulated process.
    pub stack_size: usize,
    /// Extra empty hosts appended to the hostfile (for spare-node
    /// recovery policies).
    pub spare_hosts: usize,
    /// Seed for per-process RNGs ([`Ctx::rng`]).
    pub seed: u64,
    /// Capacity (events) of the per-operation trace ring buffer
    /// ([`Report::trace`]). Tracing is *on by default* with a bounded
    /// preallocated ring ([`DEFAULT_TRACE_CAPACITY`]); when full, the
    /// oldest events are evicted and [`Report::trace_dropped`] counts
    /// them. Set 0 to disable recording entirely.
    pub trace_capacity: usize,
    /// How ranks execute: pooled fibers (default) or one OS thread each.
    pub sched: SchedMode,
}

/// One traced operation on one rank (virtual times).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Process id (`ProcId.0`).
    pub proc: u64,
    /// Hostfile index of the node the process ran on.
    pub host: usize,
    /// Operation name ("barrier", "allreduce", "send", "shrink", ...),
    /// recovery phase ("spawn", "data_restore", ...) or "failure".
    pub op: &'static str,
    /// Event category: "mpi" for runtime operations, "recovery" for
    /// application phase spans, "failure" for fail-stop instants.
    pub cat: &'static str,
    /// Communicator id the operation ran on (0 for local ops).
    pub cid: u64,
    /// Virtual time the rank entered the operation.
    pub t_start: f64,
    /// Virtual time the operation completed for this rank.
    pub t_end: f64,
    /// Point-to-point payload bytes moved by the operation (0 for
    /// collectives, spans and markers).
    pub bytes: u64,
}

impl RunConfig {
    /// Small local setup for tests and examples: ideal ULFM costs, a
    /// generic interconnect, 8 slots per host.
    pub fn local(world: usize) -> Self {
        let hosts = world.div_ceil(8).max(1);
        let profile = ClusterProfile::local(hosts, 8);
        let model: Arc<dyn UlfmCostModel> = Arc::new(IdealUlfm::new(profile.net));
        RunConfig {
            world,
            profile,
            model,
            stall_timeout: Duration::from_secs(30),
            stack_size: 1 << 20,
            spare_hosts: 2,
            seed: 0x5eed,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            sched: SchedMode::from_env(),
        }
    }

    /// A job on a named cluster profile with the paper's beta-ULFM cost
    /// model.
    pub fn cluster(profile: ClusterProfile, world: usize) -> Self {
        RunConfig {
            world,
            profile,
            model: Arc::new(BetaUlfm),
            stall_timeout: Duration::from_secs(30),
            stack_size: 1 << 20,
            spare_hosts: 2,
            seed: 0x5eed,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            sched: SchedMode::from_env(),
        }
    }

    /// Ensure operation tracing is on (kept for callers predating
    /// default-on tracing; restores the default capacity if recording
    /// was disabled).
    pub fn with_trace(mut self) -> Self {
        if self.trace_capacity == 0 {
            self.trace_capacity = DEFAULT_TRACE_CAPACITY;
        }
        self
    }

    /// Set the trace ring capacity in events (0 disables recording).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Replace the ULFM cost model.
    pub fn with_model(mut self, model: Arc<dyn UlfmCostModel>) -> Self {
        self.model = model;
        self
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use the pooled scheduler with an explicit worker count (0 means
    /// "available parallelism").
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.sched = SchedMode::Pooled { workers };
        self
    }

    /// Use the legacy thread-per-rank execution model.
    pub fn with_thread_per_rank(mut self) -> Self {
        self.sched = SchedMode::ThreadPerRank;
        self
    }
}

/// A value deposited into the run blackboard by [`Ctx::report_f64`] etc.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Scalar.
    F64(f64),
    /// Text.
    Text(String),
    /// Series.
    List(Vec<f64>),
}

pub(crate) type EntryFn = dyn Fn(&mut Ctx) + Send + Sync;

/// A deferred blackboard mutation. `Ctx::report_*` buffers these per
/// rank; assembly replays them in `ProcId` order, so last-write-wins
/// results and float accumulation are identical at any worker count.
#[derive(Debug, Clone)]
pub(crate) enum BbOp {
    /// Overwrite the key (`report_f64` / `report_text` / `report_list`).
    Set(Value),
    /// Append to a series (`report_push`).
    Push(f64),
    /// Add to a scalar accumulator (`report_add`).
    Add(f64),
}

/// Everything one terminated process contributes to the report.
struct ExitRecord {
    proc: ProcId,
    /// Final virtual clock.
    clock: f64,
    /// `(hidden, exposed)` communication seconds.
    comm: (f64, f64),
    /// `(hidden, exposed)` checkpoint-I/O seconds.
    io: (f64, f64),
    /// Final per-rank counter snapshot.
    metrics: RankMetrics,
    /// Buffered blackboard mutations, in program order.
    bb: Vec<(String, BbOp)>,
}

/// Shared state of one simulated job.
pub(crate) struct Universe {
    pub hostfile: Hostfile,
    pub profile: ClusterProfile,
    pub model: Arc<dyn UlfmCostModel>,
    pub stall_timeout: Duration,
    pub stack_size: usize,
    pub seed: u64,
    pub entry: Arc<EntryFn>,
    next_proc: AtomicU64,
    /// Scheduler, sharded registry and per-host live counters. Also
    /// built in thread-per-rank mode, where only the bookkeeping half is
    /// used (no workers ever start).
    pub(crate) hub: Arc<Hub>,
    /// Fiber mode? Decided once in [`run`] (config + target support).
    pooled: bool,
    live: AtomicUsize,
    /// Thread-mode only: per-rank join handles. The pool has no per-rank
    /// handles — workers are joined instead.
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    done_mx: Mutex<()>,
    done_cv: Condvar,
    /// Per-process exit records; sorted by id at assembly.
    exits: Mutex<Vec<ExitRecord>>,
    app_errors: Mutex<Vec<String>>,
    /// Capacity mirror of `trace` so the hot path can skip the lock when
    /// recording is disabled.
    trace_cap: usize,
    trace: Mutex<TraceRing>,
    /// Per-failure-event recovery timelines ([`Ctx::report_timeline`]).
    timelines: Mutex<Vec<RecoveryTimeline>>,
    /// The run's shared values ([`Ctx::run_shared`]), one per type.
    shared: Mutex<Vec<(TypeId, Arc<dyn Any + Send + Sync>)>>,
}

impl Universe {
    pub fn alloc_proc(&self, host: usize) -> Arc<ProcState> {
        let id = ProcId(self.next_proc.fetch_add(1, Ordering::Relaxed));
        let p = Arc::new(ProcState::new(id, host));
        p.attach_hub(&self.hub);
        self.hub.register(Arc::clone(&p));
        p
    }

    /// Count of live (never-failed) processes per host — used to pick the
    /// least-loaded node for an unpinned spawn. Served from the hub's
    /// incremental counters, O(hosts).
    pub fn live_per_host(&self) -> Vec<usize> {
        self.hub.live_per_host()
    }

    /// Launch a process running the application entry: enqueue a fiber on
    /// the pool, or spawn a dedicated OS thread in escape-hatch mode.
    pub fn launch(
        self: &Arc<Self>,
        me: Arc<ProcState>,
        world: Option<(Arc<CommShared>, usize)>,
        parent: Option<(Arc<InterShared>, usize)>,
        clock0: f64,
    ) {
        self.live.fetch_add(1, Ordering::AcqRel);
        let uni = Arc::clone(self);
        if self.pooled {
            let body_me = Arc::clone(&me);
            let fiber = crate::fiber::Fiber::new(
                self.stack_size,
                Box::new(move || proc_body(&uni, &body_me, world, parent, clock0)),
            );
            me.store_fiber(fiber);
            self.hub.enqueue(me);
        } else {
            let handle = std::thread::Builder::new()
                .stack_size(self.stack_size)
                .spawn(move || proc_body(&uni, &me, world, parent, clock0))
                .expect("failed to spawn simulated process thread");
            self.handles.lock().push(handle);
        }
    }
}

/// The body of one simulated process, shared by both execution
/// substrates: build the [`Ctx`], run the application entry under
/// `catch_unwind`, then fold this rank's contribution into the universe.
fn proc_body(
    uni: &Arc<Universe>,
    me: &Arc<ProcState>,
    world: Option<(Arc<CommShared>, usize)>,
    parent: Option<(Arc<InterShared>, usize)>,
    clock0: f64,
) {
    let seed = uni.seed ^ me.id.0.wrapping_mul(0x9E3779B97F4A7C15);
    let mut ctx = Ctx {
        uni: Arc::clone(uni),
        me: Arc::clone(me),
        clock: Cell::new(clock0),
        world,
        parent,
        rng: RefCell::new(StdRng::seed_from_u64(seed)),
        faults: RefCell::new(None),
        recovery_depth: Cell::new(0),
        comm_hidden: Cell::new(0.0),
        comm_exposed: Cell::new(0.0),
        io_hidden: Cell::new(0.0),
        io_exposed: Cell::new(0.0),
        io_pending: RefCell::new(Vec::new()),
        disk_free_at: Cell::new(0.0),
        metrics: MetricsCell::new(),
        bb: RefCell::new(Vec::new()),
    };
    let entry = Arc::clone(&uni.entry);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| entry(&mut ctx)));
    exit(uni, me, &ctx, result);
}

/// Fold a terminated process into the universe: its exit record, a
/// genuine panic's message, and — for the last process out — the end of
/// the run. Out of line, so that the record and the message formatting do
/// not widen `proc_body`'s frame, which lies under the whole of the rank's
/// run.
#[inline(never)]
fn exit(uni: &Universe, me: &ProcState, ctx: &Ctx, result: std::thread::Result<()>) {
    {
        // Async writes still in flight when the process exits (or dies):
        // the portion of their disk time this rank's lifetime already
        // covered counts as hidden; the rest was never waited on by
        // anyone and is dropped.
        let now = ctx.clock.get();
        for &(start, cost) in ctx.io_pending.borrow().iter() {
            let covered = (now - start).clamp(0.0, cost);
            ctx.io_hidden.set(ctx.io_hidden.get() + covered);
        }
    }
    uni.exits.lock().push(ExitRecord {
        proc: me.id,
        clock: ctx.clock.get(),
        comm: (ctx.comm_hidden.get(), ctx.comm_exposed.get()),
        io: (ctx.io_hidden.get(), ctx.io_exposed.get()),
        metrics: ctx.metrics.snapshot(me.id.0, me.host),
        bb: ctx.bb.take(),
    });
    if let Err(payload) = result {
        me.mark_dead();
        if payload.downcast_ref::<KillSignal>().is_none() {
            // Genuine application panic, not a fail-stop.
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            uni.app_errors.lock().push(format!("proc {} panicked: {msg}", me.id.0));
        }
    }
    if uni.live.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last process out: stop the pool and release a thread-mode
        // `run` from its quiescence wait.
        uni.hub.shutdown();
        let _g = uni.done_mx.lock();
        uni.done_cv.notify_all();
    }
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Values deposited by the application via `Ctx::report_*`.
    pub values: HashMap<String, Value>,
    /// Panic messages from application bugs (empty on a healthy run —
    /// fail-stop kills are *not* errors).
    pub app_errors: Vec<String>,
    /// Processes created over the lifetime of the job (world + spawned).
    pub procs_created: usize,
    /// Processes that failed (killed or panicked).
    pub procs_failed: usize,
    /// Maximum virtual clock over all processes: the job's virtual
    /// makespan in seconds.
    pub makespan: f64,
    /// Virtual communication seconds that were *hidden* behind local
    /// compute (message flight time overlapped by clock progress between
    /// posting a nonblocking operation and completing it), summed over
    /// ranks.
    pub comm_hidden: f64,
    /// Virtual communication seconds ranks actually *stalled* on
    /// (blocking receives plus the un-overlapped tail of nonblocking
    /// ones), summed over ranks.
    pub comm_exposed: f64,
    /// Virtual checkpoint-I/O seconds *hidden* behind compute (disk time
    /// of asynchronously enqueued writes that completed before their
    /// drain barrier), summed over ranks.
    pub io_hidden: f64,
    /// Virtual checkpoint-I/O seconds ranks actually *stalled* on
    /// (synchronous writes, restart reads, and the un-overlapped tail of
    /// async writes paid at a drain barrier), summed over ranks.
    pub io_exposed: f64,
    /// Per-operation trace: the newest [`RunConfig::trace_capacity`]
    /// events, sorted by `(proc, t_start)` (re-sort by `t_start` alone
    /// for a global timeline).
    pub trace: Vec<TraceEvent>,
    /// Events evicted from the trace ring (or suppressed when recording
    /// was disabled). Nonzero means [`Report::op_totals`] undercounts —
    /// use [`Report::metrics`], which is always complete.
    pub trace_dropped: u64,
    /// Final per-rank counters: messages, bytes, retries, failures
    /// observed, per-op durations. Always on and complete.
    pub metrics: MetricsReport,
    /// One [`RecoveryTimeline`] per repaired failure event, ordered by
    /// event start time.
    pub timelines: Vec<RecoveryTimeline>,
}

impl Report {
    /// Fetch a scalar reported by the application.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.values.get(key) {
            Some(Value::F64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Fetch a series reported by the application.
    pub fn get_list(&self, key: &str) -> Option<&[f64]> {
        match self.values.get(key) {
            Some(Value::List(v)) => Some(v),
            _ => None,
        }
    }

    /// Fetch a text value reported by the application.
    pub fn get_text(&self, key: &str) -> Option<&str> {
        match self.values.get(key) {
            Some(Value::Text(v)) => Some(v),
            _ => None,
        }
    }

    /// Aggregate the trace into per-operation `(count, total virtual
    /// seconds summed over ranks)` — the quickest view of where a run's
    /// virtual time went.
    pub fn op_totals(&self) -> std::collections::BTreeMap<&'static str, (usize, f64)> {
        let mut out: std::collections::BTreeMap<&'static str, (usize, f64)> =
            std::collections::BTreeMap::new();
        for e in &self.trace {
            let entry = out.entry(e.op).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += e.t_end - e.t_start;
        }
        out
    }

    /// Fraction of total communication time that was hidden behind
    /// compute: `hidden / (hidden + exposed)`, or 0 when no communication
    /// happened. A purely blocking application reports 0; an overlapped
    /// stepper reports the share of halo latency its interior compute
    /// absorbed.
    pub fn hidden_comm_fraction(&self) -> f64 {
        let total = self.comm_hidden + self.comm_exposed;
        if total > 0.0 {
            self.comm_hidden / total
        } else {
            0.0
        }
    }

    /// Fraction of total checkpoint-I/O time that was hidden behind
    /// compute: `hidden / (hidden + exposed)`, or 0 when no checkpoint
    /// I/O happened. Synchronous checkpointing reports 0; the async
    /// pipeline reports the share of `T_IO` the solver's stepping
    /// absorbed (the paper's Eq. 2 prices CR by exactly this exposed
    /// remainder).
    pub fn hidden_io_fraction(&self) -> f64 {
        let total = self.io_hidden + self.io_exposed;
        if total > 0.0 {
            self.io_hidden / total
        } else {
            0.0
        }
    }

    /// Panics if any application-level panic was recorded. Tests call this
    /// to assert a run was healthy.
    pub fn assert_no_app_errors(&self) {
        assert!(self.app_errors.is_empty(), "application errors: {:#?}", self.app_errors);
    }
}

/// Where [`Ctx::disk_write_async`] put a write on the rank's serial disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncWrite {
    /// Virtual time the write starts: now on an idle disk, otherwise the
    /// end of the write in flight.
    pub start: f64,
    /// The write replaced the queued write, which had not started: that
    /// one is never charged, and its caller must not land it.
    pub superseded: bool,
}

/// Per-process context: the handle through which the application talks to
/// the runtime (the moral equivalent of the MPI library state plus
/// `MPI_COMM_WORLD`, `MPI_Comm_get_parent`, and `MPI_Wtime`).
pub struct Ctx {
    pub(crate) uni: Arc<Universe>,
    pub(crate) me: Arc<ProcState>,
    pub(crate) clock: Cell<f64>,
    /// The initial world (its shared state and this rank), made a handle
    /// only when [`Ctx::initial_world`] takes it: a `Comm` held here would
    /// sit in `proc_body`'s frame, under the whole of the rank's run.
    world: Option<(Arc<CommShared>, usize)>,
    /// The parent intercommunicator, likewise ([`Ctx::parent`]).
    parent: Option<(Arc<InterShared>, usize)>,
    rng: RefCell<StdRng>,
    /// Armed operation-site kills for this rank ([`Ctx::arm_fault_sites`]).
    faults: RefCell<Option<FaultArm>>,
    /// Nesting depth of recovery scopes ([`Ctx::recovery_scope`]); while
    /// positive, runtime ops also advance the `DuringRecovery` counter.
    recovery_depth: Cell<u32>,
    /// Communication time hidden behind compute on this rank (seconds).
    pub(crate) comm_hidden: Cell<f64>,
    /// Communication time this rank stalled on (seconds).
    pub(crate) comm_exposed: Cell<f64>,
    /// Checkpoint-I/O time hidden behind compute on this rank (seconds).
    pub(crate) io_hidden: Cell<f64>,
    /// Checkpoint-I/O time this rank stalled on (seconds).
    pub(crate) io_exposed: Cell<f64>,
    /// Async disk writes not yet settled: `(virtual start, disk cost)`
    /// pairs, at most one in flight and one queued behind it, settled
    /// opportunistically and at [`Ctx::disk_drain`].
    pub(crate) io_pending: RefCell<Vec<(f64, f64)>>,
    /// Virtual time at which this rank's (serial) checkpoint disk becomes
    /// idle — back-to-back async writes queue behind each other.
    pub(crate) disk_free_at: Cell<f64>,
    /// Live per-rank counters, snapshotted into the report on exit.
    pub(crate) metrics: MetricsCell,
    /// Buffered blackboard mutations (`report_*`), folded into the run
    /// report in `ProcId` order at assembly.
    pub(crate) bb: RefCell<Vec<(String, BbOp)>>,
}

/// Per-rank state of armed non-step fault sites.
struct FaultArm {
    sites: Vec<FaultSite>,
    op_counts: HashMap<OpClass, u64>,
    recovery_ops: u64,
}

/// RAII marker for "recovery of a previous failure is in progress" on this
/// rank; see [`Ctx::recovery_scope`].
pub struct RecoveryScope<'a> {
    ctx: &'a Ctx,
}

impl Drop for RecoveryScope<'_> {
    fn drop(&mut self) {
        let d = self.ctx.recovery_depth.get();
        self.ctx.recovery_depth.set(d.saturating_sub(1));
    }
}

impl Ctx {
    /// Take this process's initial world communicator. `Some` exactly once
    /// for original processes; spawned children have no world of their own
    /// beyond their spawn group (also delivered here, like the
    /// `MPI_COMM_WORLD` of a spawned group).
    pub fn initial_world(&mut self) -> Option<Comm> {
        self.world.take().map(|(s, r)| Comm::from_shared(s, r))
    }

    /// Take the parent intercommunicator (`MPI_Comm_get_parent`): `Some`
    /// if and only if this process was spawned by `comm_spawn_multiple`.
    pub fn parent(&mut self) -> Option<InterComm> {
        self.parent.take().map(|(s, r)| InterComm::new(s, 1, r))
    }

    /// True for spawned (child) processes, without consuming the handle.
    pub fn is_spawned(&self) -> bool {
        self.parent.is_some()
    }

    /// The run's one value of type `T`: the first process to ask — of
    /// the run, original or spawned — builds it with `init`, every later
    /// one gets the same `Arc`. What every rank would otherwise derive
    /// alike is derived once. The value lives as long as the run: the next
    /// [`run`] builds its own, so nothing carries over between runs.
    ///
    /// `init` runs under the run's slot lock, so it must make no runtime
    /// operation (a fiber parked in it would hold the lock); it is a pure
    /// derivation, and makes no fault site count.
    pub fn run_shared<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Arc<T> {
        let mut slots = self.uni.shared.lock();
        let id = TypeId::of::<T>();
        let slot = match slots.iter().find(|(t, _)| *t == id) {
            Some((_, value)) => Arc::clone(value),
            None => {
                let value: Arc<dyn Any + Send + Sync> = Arc::new(init());
                slots.push((id, Arc::clone(&value)));
                value
            }
        };
        slot.downcast().unwrap_or_else(|_| unreachable!("the slots are keyed by type"))
    }

    /// Virtual time in seconds (`MPI_Wtime`).
    pub fn now(&self) -> f64 {
        self.clock.get()
    }

    /// Advance the virtual clock by `dt` seconds.
    pub fn advance(&self, dt: f64) {
        debug_assert!(dt >= 0.0, "negative time step {dt}");
        self.clock.set(self.clock.get() + dt);
    }

    /// Move the virtual clock forward to `t` (no-op if already past it).
    pub fn advance_to(&self, t: f64) {
        if t > self.clock.get() {
            self.clock.set(t);
        }
    }

    /// Finish a collective: tally the time this rank waited for the last
    /// participant to arrive, then move the clock to the operation's end.
    pub(crate) fn sync_to(&self, out: &crate::rendezvous::Outcome) {
        self.metrics.note_peer_wait(out.t_arrived - self.now());
        self.advance_to(out.t_end);
    }

    /// Cumulative virtual seconds this rank has spent inside collectives
    /// waiting for slower participants to arrive (the operations' own
    /// cost excluded).
    pub fn peer_wait(&self) -> f64 {
        self.metrics.peer_wait()
    }

    /// How many operations named `op` (an [`crate::OP_NAMES`] entry) this
    /// rank has completed so far; 0 for names outside the table.
    pub fn op_count(&self, op: &str) -> u64 {
        self.metrics.op_count(op)
    }

    /// Charge `n` grid-cell updates of local compute (one-shot work:
    /// combination, recovery interpolation, ...).
    pub fn compute_cells(&self, n: u64) {
        self.advance(n as f64 * self.uni.profile.cell_update_time);
    }

    /// Charge `n` grid-cell updates of *per-timestep* solver compute,
    /// scaled by the profile's step multiplier (experiments that compress
    /// the timestep count use it so one simulated step stands for many
    /// emulated ones) and by the current oversubscription of this
    /// process's node — compute slows down proportionally when more live
    /// processes share the node than it has slots. This is what makes the
    /// paper's load-balancing argument for same-host respawn *measurable*:
    /// replacements dumped onto an already-full node drag the whole
    /// bulk-synchronous application down.
    pub fn compute_step_cells(&self, n: u64) {
        self.advance(
            n as f64
                * self.uni.profile.cell_update_time
                * self.uni.profile.step_multiplier
                * self.oversubscription(),
        );
    }

    /// How oversubscribed this process's node currently is: live processes
    /// on the node divided by its slot count, never below 1. O(1) via the
    /// hub's per-host counters — this runs on every solver step.
    pub fn oversubscription(&self) -> f64 {
        let slots = self.uni.profile.slots_per_host.max(1);
        let here = self.uni.hub.live_on_host(self.me.host);
        (here as f64 / slots as f64).max(1.0)
    }

    /// Charge one *synchronous* checkpoint-style disk write of `bytes`:
    /// the full disk time lands on the critical path (and is counted as
    /// exposed I/O). A fault-site hook: a victim armed at a
    /// [`OpClass::CkptWrite`] site dies here, before the write lands.
    pub fn disk_write(&self, bytes: usize) {
        self.fault_op(OpClass::CkptWrite);
        self.settle_completed_io();
        let now = self.now();
        let start = self.disk_free_at.get().max(now);
        let end = start + self.uni.profile.disk.write(bytes);
        self.disk_free_at.set(end);
        self.io_exposed.set(self.io_exposed.get() + (end - now));
        self.advance_to(end);
    }

    /// Charge one checkpoint-style disk write of `bytes` as *deferred*
    /// cost: the write occupies the rank's serial checkpoint disk from
    /// `max(now, disk idle)` for the usual disk time, but the clock does
    /// not advance here. Disk time covered by subsequent compute before
    /// the next [`Ctx::disk_drain`] is counted hidden; the rest is paid
    /// (exposed) at the drain. Mirrors the nonblocking-communication
    /// overlap model. Same [`OpClass::CkptWrite`] fault-site hook as the
    /// synchronous form — a victim armed there dies before the write
    /// lands.
    ///
    /// Newest wins: the disk holds at most one write in flight and one
    /// queued behind it. A write submitted while the queued one has not
    /// virtually started (its start, the in-flight write's end, is still
    /// ahead of the clock) replaces it, and the replaced write is never
    /// charged — neither hidden nor exposed. A write that has started is
    /// never replaced. The returned [`AsyncWrite`] tells the caller when
    /// this write starts and whether it replaced one, so the caller lands
    /// exactly the writes charged here.
    pub fn disk_write_async(&self, bytes: usize) -> AsyncWrite {
        self.fault_op(OpClass::CkptWrite);
        self.settle_completed_io();
        let superseded = self.disk_drop_unstarted();
        let now = self.now();
        let start = self.disk_free_at.get().max(now);
        let cost = self.uni.profile.disk.write(bytes);
        self.disk_free_at.set(start + cost);
        let mut pending = self.io_pending.borrow_mut();
        pending.push((start, cost));
        debug_assert!(pending.len() <= 2, "one write in flight and one queued at most");
        AsyncWrite { start, superseded }
    }

    /// Drop the queued async write if it has not virtually started (its
    /// start is still ahead of the clock): it is never charged — neither
    /// hidden nor exposed — and the disk goes idle at the end of the write
    /// in flight. A write that has started is never dropped. Returns
    /// whether one was; its caller must then not land it. Not a fault
    /// site: the caller's drain barrier has its own.
    pub fn disk_drop_unstarted(&self) -> bool {
        let now = self.now();
        let mut pending = self.io_pending.borrow_mut();
        match pending.last() {
            Some(&(start, _)) if start > now => {
                pending.pop();
                self.disk_free_at.set(start);
                true
            }
            _ => false,
        }
    }

    /// Complete every in-flight async disk write: disk time already
    /// covered by clock progress counts as hidden, the remainder is
    /// exposed and advances the clock (the rank genuinely waits for the
    /// writer to finish at a recovery or end-of-run barrier).
    pub fn disk_drain(&self) {
        let pending = std::mem::take(&mut *self.io_pending.borrow_mut());
        for (start, cost) in pending {
            let now = self.now();
            let end = start + cost;
            if end <= now {
                self.io_hidden.set(self.io_hidden.get() + cost);
            } else {
                let covered = (now - start).max(0.0);
                self.io_hidden.set(self.io_hidden.get() + covered);
                self.io_exposed.set(self.io_exposed.get() + (end - now.max(start)));
                self.advance_to(end);
            }
        }
    }

    /// Fold async writes that finished in the past into the hidden-I/O
    /// tally. With the newest-wins rule of [`Ctx::disk_write_async`] the
    /// pending list then holds at most two writes.
    fn settle_completed_io(&self) {
        let now = self.now();
        let mut hidden = self.io_hidden.get();
        self.io_pending.borrow_mut().retain(|&(start, cost)| {
            if start + cost <= now {
                hidden += cost;
                false
            } else {
                true
            }
        });
        self.io_hidden.set(hidden);
    }

    /// Charge one restart-style disk read of `bytes` (always on the
    /// critical path, counted as exposed I/O).
    pub fn disk_read(&self, bytes: usize) {
        let dt = self.uni.profile.disk.read(bytes);
        self.io_exposed.set(self.io_exposed.get() + dt);
        self.advance(dt);
    }

    /// Fail-stop this process *right now* — the paper's
    /// `kill(getpid(), SIGKILL)` failure generator.
    pub fn die(&self) -> ! {
        self.trace_instant("failure");
        self.me.kill();
        std::panic::panic_any(KillSignal)
    }

    /// Unwind immediately if an external kill has been requested; called at
    /// every runtime-API entry point so a killed process cannot keep
    /// computing.
    pub fn check_killed(&self) {
        if self.me.killed.load(Ordering::Acquire) {
            self.trace_instant("failure");
            std::panic::panic_any(KillSignal)
        }
    }

    /// Arm this rank's non-step fault sites from `plan`. Called once by
    /// the application after learning its rank; respawned replacements must
    /// NOT re-arm (their fresh operation counters would strike again at the
    /// same index, killing every replacement in an endless loop).
    pub fn arm_fault_sites(&self, plan: &FaultPlan, rank: usize) {
        let sites = plan.sites_for(rank);
        *self.faults.borrow_mut() = if sites.is_empty() {
            None
        } else {
            Some(FaultArm { sites, op_counts: HashMap::new(), recovery_ops: 0 })
        };
    }

    /// Enter a "recovery in progress" region (counted, nestable); the
    /// guard exits the region when dropped, including on unwind.
    pub fn recovery_scope(&self) -> RecoveryScope<'_> {
        self.recovery_depth.set(self.recovery_depth.get() + 1);
        RecoveryScope { ctx: self }
    }

    /// Communication seconds this rank has hidden behind compute so far
    /// (accumulated at nonblocking-operation completion).
    pub fn comm_hidden(&self) -> f64 {
        self.comm_hidden.get()
    }

    /// Communication seconds this rank has stalled on so far.
    pub fn comm_exposed(&self) -> f64 {
        self.comm_exposed.get()
    }

    /// Checkpoint-I/O seconds this rank has hidden behind compute so far.
    pub fn io_hidden(&self) -> f64 {
        self.io_hidden.get()
    }

    /// Checkpoint-I/O seconds this rank has stalled on so far.
    pub fn io_exposed(&self) -> f64 {
        self.io_exposed.get()
    }

    /// Record communication time that was overlapped by local progress.
    pub(crate) fn note_hidden(&self, dt: f64) {
        if dt > 0.0 {
            self.comm_hidden.set(self.comm_hidden.get() + dt);
        }
    }

    /// Record communication time the rank actually waited out.
    pub(crate) fn note_exposed(&self, dt: f64) {
        if dt > 0.0 {
            self.comm_exposed.set(self.comm_exposed.get() + dt);
        }
    }

    /// The kill hook at the top of every runtime operation: honours an
    /// external kill first, then advances this rank's per-class (and, in a
    /// recovery scope, in-recovery) operation counters and fail-stops if an
    /// armed [`FaultSite`] matches. Public so applications can extend the
    /// taxonomy to their own operation sites.
    pub fn fault_op(&self, kind: OpClass) {
        self.check_killed();
        let mut guard = self.faults.borrow_mut();
        let Some(arm) = guard.as_mut() else { return };
        let mut fire = false;
        if self.recovery_depth.get() > 0 {
            let idx = arm.recovery_ops;
            arm.recovery_ops += 1;
            fire |= arm
                .sites
                .iter()
                .any(|s| matches!(s, FaultSite::DuringRecovery { nth } if *nth == idx));
        }
        let count = arm.op_counts.entry(kind).or_insert(0);
        let idx = *count;
        *count += 1;
        fire |= arm
            .sites
            .iter()
            .any(|s| matches!(s, FaultSite::Op { kind: k, nth } if *k == kind && *nth == idx));
        drop(guard);
        if fire {
            self.die();
        }
    }

    /// The cluster profile being emulated.
    pub fn profile(&self) -> &ClusterProfile {
        &self.uni.profile
    }

    /// The hostfile of the job.
    pub fn hostfile(&self) -> &Hostfile {
        &self.uni.hostfile
    }

    /// Hostfile index of the node this process runs on.
    pub fn my_host(&self) -> usize {
        self.me.host
    }

    /// Deterministic per-process RNG.
    pub fn rng(&self) -> std::cell::RefMut<'_, StdRng> {
        self.rng.borrow_mut()
    }

    /// Let other ranks run for at least `dur` of *real* time without
    /// advancing this rank's virtual clock. `std::thread::sleep` is wrong
    /// under the pooled scheduler — it blocks a worker without yielding,
    /// so the ranks being waited for may never get scheduled. This form
    /// yields the fiber in a deadline loop (and degrades to a plain sleep
    /// in thread mode). Test/demo aid for wall-clock cross-rank
    /// coordination; simulated time uses [`Ctx::advance`].
    pub fn sleep_real(&self, dur: Duration) {
        let deadline = std::time::Instant::now() + dur;
        if crate::fiber::in_fiber() {
            while std::time::Instant::now() < deadline {
                crate::fiber::yield_now();
            }
        } else {
            std::thread::sleep(dur);
        }
    }

    /// Deposit a scalar into the run report (last write wins, ties
    /// broken by `ProcId` — reports are buffered per rank and replayed
    /// in id order at assembly, so the outcome is scheduling-independent).
    pub fn report_f64(&self, key: &str, v: f64) {
        self.bb.borrow_mut().push((key.to_string(), BbOp::Set(Value::F64(v))));
    }

    /// Deposit text into the run report.
    pub fn report_text(&self, key: &str, v: &str) {
        self.bb.borrow_mut().push((key.to_string(), BbOp::Set(Value::Text(v.to_string()))));
    }

    /// Deposit a whole series into the run report (last write wins —
    /// unlike [`Ctx::report_push`], retried phases don't accumulate
    /// duplicates).
    pub fn report_list(&self, key: &str, v: &[f64]) {
        self.bb.borrow_mut().push((key.to_string(), BbOp::Set(Value::List(v.to_vec()))));
    }

    /// Append to a series in the run report. Cross-rank appends land
    /// grouped by rank, in `ProcId` order.
    pub fn report_push(&self, key: &str, v: f64) {
        self.bb.borrow_mut().push((key.to_string(), BbOp::Push(v)));
    }

    /// Add to a scalar accumulator in the run report.
    pub fn report_add(&self, key: &str, v: f64) {
        self.bb.borrow_mut().push((key.to_string(), BbOp::Add(v)));
    }

    pub(crate) fn me(&self) -> &Arc<ProcState> {
        &self.me
    }

    pub(crate) fn net(&self) -> &NetParams {
        &self.uni.profile.net
    }

    pub(crate) fn model(&self) -> &dyn UlfmCostModel {
        &*self.uni.model
    }

    pub(crate) fn model_handle(&self) -> Arc<dyn UlfmCostModel> {
        Arc::clone(&self.uni.model)
    }

    pub(crate) fn stall_timeout(&self) -> Duration {
        self.uni.stall_timeout
    }

    pub(crate) fn universe(&self) -> &Arc<Universe> {
        &self.uni
    }

    /// Record one traced runtime operation. Also feeds this rank's
    /// per-op duration aggregates, which stay complete even when the
    /// trace ring evicts the event.
    pub(crate) fn trace_event(&self, op: &'static str, cid: u64, t_start: f64, t_end: f64) {
        self.metrics.note_op(op, t_end - t_start);
        self.trace_push(TraceEvent {
            proc: self.me.id.0,
            host: self.me.host,
            op,
            cat: "mpi",
            cid,
            t_start,
            t_end,
            bytes: 0,
        });
    }

    /// Record one traced point-to-point operation carrying `bytes` of
    /// payload, ending now.
    pub(crate) fn trace_p2p(&self, op: &'static str, cid: u64, t_start: f64, bytes: usize) {
        let t_end = self.now();
        self.metrics.note_op(op, t_end - t_start);
        self.trace_push(TraceEvent {
            proc: self.me.id.0,
            host: self.me.host,
            op,
            cat: "mpi",
            cid,
            t_start,
            t_end,
            bytes: bytes as u64,
        });
    }

    /// Record an application-level recovery-phase span that started at
    /// `t_start` (virtual seconds) and ends now. Shows up in the Chrome
    /// trace under the "recovery" category.
    pub fn trace_phase(&self, name: &'static str, t_start: f64) {
        self.trace_push(TraceEvent {
            proc: self.me.id.0,
            host: self.me.host,
            op: name,
            cat: "recovery",
            cid: 0,
            t_start,
            t_end: self.now(),
            bytes: 0,
        });
    }

    /// Record an instant marker (fail-stop) at the current virtual time.
    pub(crate) fn trace_instant(&self, name: &'static str) {
        let t = self.now();
        self.trace_push(TraceEvent {
            proc: self.me.id.0,
            host: self.me.host,
            op: name,
            cat: "failure",
            cid: 0,
            t_start: t,
            t_end: t,
            bytes: 0,
        });
    }

    fn trace_push(&self, ev: TraceEvent) {
        if self.uni.trace_cap == 0 {
            return;
        }
        self.uni.trace.lock().push(ev);
    }

    /// Deposit one per-failure-event recovery timeline into the report
    /// (called by the application on the post-repair rank 0).
    pub fn report_timeline(&self, timeline: RecoveryTimeline) {
        self.uni.timelines.lock().push(timeline);
    }
}

/// Run a simulated MPI job: `world` processes execute `entry` concurrently;
/// processes spawned during recovery re-enter the same `entry`. Returns
/// once every process (original and spawned) has terminated.
pub fn run<F>(config: RunConfig, entry: F) -> Report
where
    F: Fn(&mut Ctx) + Send + Sync + 'static,
{
    // Fail-stop kills unwind via `panic_any(KillSignal)` and are caught at
    // the thread boundary; keep the default panic hook from spraying a
    // backtrace for each one (they are simulated failures, not bugs).
    static QUIET_KILLS: std::sync::Once = std::sync::Once::new();
    QUIET_KILLS.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillSignal>().is_none() {
                prev(info);
            }
        }));
    });

    let needed_hosts = config.world.div_ceil(config.profile.slots_per_host.max(1));
    let hosts =
        needed_hosts.max(config.profile.hosts.min(needed_hosts.max(1))) + config.spare_hosts;
    let hostfile = Hostfile::uniform("node", hosts, config.profile.slots_per_host.max(1));

    let pooled = match config.sched {
        SchedMode::Pooled { .. } => crate::fiber::SUPPORTED,
        SchedMode::ThreadPerRank => false,
    };
    let workers = match config.sched {
        SchedMode::Pooled { workers: 0 } => {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
        SchedMode::Pooled { workers } => workers,
        SchedMode::ThreadPerRank => 0,
    };

    let hub = Hub::new(hostfile.len());
    let uni = Arc::new(Universe {
        hostfile,
        profile: config.profile.clone(),
        model: Arc::clone(&config.model),
        stall_timeout: config.stall_timeout,
        stack_size: config.stack_size,
        seed: config.seed,
        entry: Arc::new(entry),
        next_proc: AtomicU64::new(0),
        hub: Arc::clone(&hub),
        pooled,
        live: AtomicUsize::new(0),
        handles: Mutex::new(Vec::new()),
        done_mx: Mutex::new(()),
        done_cv: Condvar::new(),
        exits: Mutex::new(Vec::new()),
        app_errors: Mutex::new(Vec::new()),
        trace_cap: config.trace_capacity,
        trace: Mutex::new(TraceRing::new(config.trace_capacity)),
        timelines: Mutex::new(Vec::new()),
        shared: Mutex::new(Vec::new()),
    });

    // Block placement of the initial world, like `mpirun --map-by slot`.
    // Every world rank is launched before the first worker starts: `live`
    // must reach `world` before any rank can exit, or a fast-finishing
    // prefix could drive it to 0 and shut the pool down mid-launch.
    let mut procs = Vec::with_capacity(config.world);
    for rank in 0..config.world {
        let host = uni.hostfile.host_of_rank(rank).expect("hostfile too small for requested world");
        let p = uni.alloc_proc(host);
        p.rank_hint.store(rank, Ordering::Relaxed);
        procs.push(p);
    }
    let world_shared = CommShared::new(procs.clone());
    for (rank, p) in procs.into_iter().enumerate() {
        uni.launch(p, Some((Arc::clone(&world_shared), rank)), None, 0.0);
    }

    if pooled {
        if config.world == 0 {
            hub.shutdown(); // nothing will ever run; don't strand workers
        }
        // Workers exit when the last process flips the shutdown flag.
        for h in hub.start_workers(workers) {
            let _ = h.join();
        }
    } else {
        // Wait for quiescence: no live threads left (children included).
        {
            let mut g = uni.done_mx.lock();
            while uni.live.load(Ordering::Acquire) != 0 {
                uni.done_cv.wait_for(&mut g, Duration::from_millis(50));
            }
        }
        // Join every thread ever launched.
        loop {
            let handle = uni.handles.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => {
                    if uni.live.load(Ordering::Acquire) == 0 {
                        break;
                    }
                }
            }
        }
    }

    let procs_created = hub.procs_created();
    let procs_failed = hub.procs_failed();

    // Deterministic assembly: every per-rank contribution is folded in
    // `ProcId` order, whatever order the scheduler retired the ranks in.
    let mut exits = std::mem::take(&mut *uni.exits.lock());
    exits.sort_by_key(|e| e.proc);
    let makespan = exits.iter().fold(0.0_f64, |m, e| m.max(e.clock));
    let (mut comm_hidden, mut comm_exposed) = (0.0_f64, 0.0_f64);
    let (mut io_hidden, mut io_exposed) = (0.0_f64, 0.0_f64);
    let mut values: HashMap<String, Value> = HashMap::new();
    for e in &exits {
        comm_hidden += e.comm.0;
        comm_exposed += e.comm.1;
        io_hidden += e.io.0;
        io_exposed += e.io.1;
        for (key, op) in &e.bb {
            match op {
                BbOp::Set(v) => {
                    values.insert(key.clone(), v.clone());
                }
                BbOp::Push(x) => {
                    match values.entry(key.clone()).or_insert_with(|| Value::List(Vec::new())) {
                        Value::List(l) => l.push(*x),
                        other => *other = Value::List(vec![*x]),
                    }
                }
                BbOp::Add(x) => match values.entry(key.clone()).or_insert(Value::F64(0.0)) {
                    Value::F64(v) => *v += *x,
                    other => *other = Value::F64(*x),
                },
            }
        }
    }
    let metrics = MetricsReport { ranks: exits.iter().map(|e| e.metrics.clone()).collect() };

    let mut app_errors = std::mem::take(&mut *uni.app_errors.lock());
    app_errors.sort();
    // Every rank has exited: the ring is taken, not copied.
    let ring = std::mem::replace(&mut *uni.trace.lock(), TraceRing::new(0));
    let trace_dropped = ring.dropped();
    let mut trace = ring.into_events();
    // In place: a stable sort would allocate a scratch copy of the ring.
    trace.sort_unstable_by(trace_order);
    let mut timelines = std::mem::take(&mut *uni.timelines.lock());
    timelines.sort_by(|a, b| a.t_start.total_cmp(&b.t_start).then(a.event.cmp(&b.event)));
    Report {
        values,
        app_errors,
        procs_created,
        procs_failed,
        makespan,
        comm_hidden,
        comm_exposed,
        io_hidden,
        io_exposed,
        trace,
        trace_dropped,
        metrics,
        timelines,
    }
}

/// The order of a run's trace: by process, start and end time, operation,
/// communicator and bytes — then host and category, which makes it total
/// over every field. Events that compare equal are identical, so an
/// unstable sort (no scratch copy) gives the trace a stable one would.
fn trace_order(a: &TraceEvent, b: &TraceEvent) -> std::cmp::Ordering {
    a.proc
        .cmp(&b.proc)
        .then(a.t_start.total_cmp(&b.t_start))
        .then(a.t_end.total_cmp(&b.t_end))
        .then(a.op.cmp(b.op))
        .then(a.cid.cmp(&b.cid))
        .then(a.bytes.cmp(&b.bytes))
        .then(a.host.cmp(&b.host))
        .then(a.cat.cmp(b.cat))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_trace_sorts_in_place_to_what_a_stable_sort_gives() {
        // Every field takes two values, so the 256 events tie on the first
        // six keys in groups of four (host × cat) and many are duplicates
        // once the cycle wraps; shuffled, then sorted both ways.
        let ops = ["agree", "send"];
        let cats = ["mpi", "recovery"];
        let mut events: Vec<TraceEvent> = (0..256u64)
            .map(|i| TraceEvent {
                proc: i % 2,
                host: (i / 2 % 2) as usize,
                op: ops[(i / 4 % 2) as usize],
                cat: cats[(i / 8 % 2) as usize],
                cid: i / 16 % 2,
                t_start: if i / 32 % 2 == 0 { 0.0 } else { -0.0 },
                t_end: (i / 64 % 2) as f64,
                bytes: i / 128 % 2 * 8,
            })
            .collect();
        rand::seq::SliceRandom::shuffle(&mut events[..], &mut StdRng::seed_from_u64(27));
        let mut stable = events.clone();
        stable.sort_by(trace_order);
        events.sort_unstable_by(trace_order);
        assert_eq!(events, stable);
        // Where the six keys the trace was always sorted by decide, the
        // two later keys change nothing.
        let six = |a: &TraceEvent, b: &TraceEvent| {
            (a.proc.cmp(&b.proc))
                .then(a.t_start.total_cmp(&b.t_start))
                .then(a.t_end.total_cmp(&b.t_end))
                .then(a.op.cmp(b.op))
                .then(a.cid.cmp(&b.cid))
                .then(a.bytes.cmp(&b.bytes))
        };
        for pair in events.windows(2) {
            assert_ne!(six(&pair[0], &pair[1]), std::cmp::Ordering::Greater);
        }
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn the_default_trace_ring_is_the_documented_size() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 80);
        assert_eq!(TraceRing::new(DEFAULT_TRACE_CAPACITY).capacity() * 80, 2_621_440);
    }

    /// Runs `world` ranks that each ask for the run's shared value, an
    /// `init` that counts its calls; returns the count and the addresses
    /// every rank got.
    fn ask_for_the_shared_value(cfg: RunConfig) -> (usize, Vec<usize>) {
        let inits = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (count, got) = (Arc::clone(&inits), Arc::clone(&seen));
        let report = run(cfg, move |ctx| {
            let value = ctx.run_shared(|| {
                count.fetch_add(1, Ordering::SeqCst);
                vec![7u64; 3]
            });
            assert_eq!(*value, [7, 7, 7]);
            got.lock().push(Arc::as_ptr(&value) as usize);
        });
        report.assert_no_app_errors();
        let seen = std::mem::take(&mut *seen.lock());
        (inits.load(Ordering::SeqCst), seen)
    }

    #[test]
    fn a_shared_value_is_built_once_per_run_and_handed_to_every_rank() {
        for cfg in
            [RunConfig::local(64).with_workers(2), RunConfig::local(64).with_thread_per_rank()]
        {
            // A second run builds its own: nothing carries over.
            for _ in 0..2 {
                let (inits, seen) = ask_for_the_shared_value(cfg.clone());
                assert_eq!(inits, 1, "init ran {inits} times over 64 ranks");
                assert_eq!(seen.len(), 64);
                assert!(seen.iter().all(|&p| p == seen[0]), "ranks got different values");
            }
        }
    }

    #[test]
    fn a_respawned_child_gets_the_survivors_shared_value() {
        let inits = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (count, got) = (Arc::clone(&inits), Arc::clone(&seen));
        let report = run(RunConfig::local(4).with_workers(1), move |ctx| {
            let value = ctx.run_shared(|| {
                count.fetch_add(1, Ordering::SeqCst);
                String::from("plan")
            });
            got.lock().push((ctx.is_spawned(), Arc::as_ptr(&value) as usize));
            if let Some(parent) = ctx.parent() {
                parent.merge(ctx, true).unwrap();
                return;
            }
            let w = ctx.initial_world().unwrap();
            if w.rank() == 3 {
                ctx.die();
            }
            assert!(w.barrier(ctx).is_err(), "a barrier over a dead rank succeeded");
            let survivors = w.shrink(ctx).unwrap();
            let specs = vec![crate::spawn::SpawnSpec::anywhere()];
            let inter = crate::spawn::comm_spawn_multiple(ctx, &survivors, 0, specs).unwrap();
            inter.merge(ctx, false).unwrap();
        });
        report.assert_no_app_errors();
        assert_eq!(inits.load(Ordering::SeqCst), 1);
        let seen = std::mem::take(&mut *seen.lock());
        assert_eq!(seen.iter().filter(|(child, _)| *child).count(), 1, "one child asked");
        assert_eq!(seen.len(), 5);
        assert!(seen.iter().all(|&(_, p)| p == seen[0].1), "the child got another value");
    }

    #[test]
    fn a_shared_value_dies_with_its_run() {
        let weak = Arc::new(Mutex::new(std::sync::Weak::<u64>::new()));
        let keep = Arc::clone(&weak);
        run(RunConfig::local(3), move |ctx| {
            *keep.lock() = Arc::downgrade(&ctx.run_shared(|| 5u64));
        })
        .assert_no_app_errors();
        assert!(weak.lock().upgrade().is_none(), "the value outlived its run");
    }

    #[test]
    fn single_process_runs_and_reports() {
        let report = run(RunConfig::local(1), |ctx| {
            ctx.advance(2.5);
            ctx.report_f64("answer", 42.0);
            ctx.report_text("who", "rank0");
            ctx.report_push("series", 1.0);
            ctx.report_push("series", 2.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("answer"), Some(42.0));
        assert_eq!(report.get_text("who"), Some("rank0"));
        assert_eq!(report.get_list("series"), Some(&[1.0, 2.0][..]));
        assert_eq!(report.procs_created, 1);
        assert_eq!(report.procs_failed, 0);
        assert!((report.makespan - 2.5).abs() < 1e-12);
    }

    #[test]
    fn report_add_accumulates_across_ranks() {
        let report = run(RunConfig::local(4), |ctx| {
            let w = ctx.initial_world().unwrap();
            ctx.report_add("total", (w.rank() + 1) as f64);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("total"), Some(10.0));
    }

    #[test]
    fn app_panics_are_recorded_not_swallowed() {
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 1 {
                panic!("deliberate bug");
            }
        });
        assert_eq!(report.app_errors.len(), 1);
        assert!(report.app_errors[0].contains("deliberate bug"));
        assert_eq!(report.procs_failed, 1);
    }

    #[test]
    fn die_is_a_failure_but_not_an_app_error() {
        let report = run(RunConfig::local(2), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 1 {
                ctx.die();
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.procs_failed, 1);
    }

    #[test]
    fn virtual_clocks_are_per_process() {
        let report = run(RunConfig::local(3), |ctx| {
            let w = ctx.initial_world().unwrap();
            ctx.advance(w.rank() as f64);
        });
        assert!((report.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let roll = |seed: u64| {
            run(RunConfig::local(1).with_seed(seed), |ctx| {
                let v: f64 = ctx.rng().gen();
                ctx.report_f64("v", v);
            })
            .get_f64("v")
            .unwrap()
        };
        assert_eq!(roll(1), roll(1));
        assert_ne!(roll(1), roll(2));
    }

    /// Disk write cost of `bytes` on the `RunConfig::local` profile.
    fn local_write_cost(bytes: usize) -> f64 {
        ClusterProfile::local(1, 8).disk.write(bytes)
    }

    #[test]
    fn async_write_fully_hidden_behind_compute() {
        let report = run(RunConfig::local(1), |ctx| {
            ctx.disk_write_async(1000);
            ctx.advance(10.0); // far more compute than the write costs
            let before = ctx.now();
            ctx.disk_drain();
            assert_eq!(ctx.now(), before, "a finished write must not stall the drain");
        });
        report.assert_no_app_errors();
        assert!((report.io_hidden - local_write_cost(1000)).abs() < 1e-12);
        assert_eq!(report.io_exposed, 0.0);
        assert!((report.hidden_io_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_drain_exposes_the_full_write() {
        let report = run(RunConfig::local(1), |ctx| {
            ctx.disk_write_async(1000);
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        assert_eq!(report.io_hidden, 0.0);
        assert!((report.io_exposed - local_write_cost(1000)).abs() < 1e-12);
        assert_eq!(report.hidden_io_fraction(), 0.0);
        assert!((report.makespan - local_write_cost(1000)).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_splits_hidden_and_exposed() {
        let cost = local_write_cost(1000);
        let covered = cost / 2.0;
        let report = run(RunConfig::local(1), move |ctx| {
            ctx.disk_write_async(1000);
            ctx.advance(covered);
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        assert!((report.io_hidden - covered).abs() < 1e-12);
        assert!((report.io_exposed - (cost - covered)).abs() < 1e-12);
        assert!((report.makespan - cost).abs() < 1e-12);
    }

    #[test]
    fn back_to_back_async_writes_queue_on_the_serial_disk() {
        let report = run(RunConfig::local(1), |ctx| {
            ctx.disk_write_async(1000);
            ctx.disk_write_async(1000); // starts only when the first ends
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        let total = 2.0 * local_write_cost(1000);
        assert!((report.makespan - total).abs() < 1e-12);
        assert!((report.io_hidden + report.io_exposed - total).abs() < 1e-12);
    }

    #[test]
    fn a_superseded_write_is_neither_hidden_nor_exposed() {
        let (small, big) = (local_write_cost(1000), local_write_cost(5000));
        let report = run(RunConfig::local(1), move |ctx| {
            let first = ctx.disk_write_async(1000);
            assert_eq!(first, AsyncWrite { start: 0.0, superseded: false });
            // Queued behind the first; replaced before it starts.
            let queued = ctx.disk_write_async(9000);
            assert_eq!(queued, AsyncWrite { start: first.start + small, superseded: false });
            let newest = ctx.disk_write_async(5000);
            assert_eq!(newest, AsyncWrite { start: queued.start, superseded: true });
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        // The 9000-byte write was never paid for: the drain waited for the
        // two writes that landed, back to back.
        assert_eq!(report.io_hidden, 0.0);
        assert!((report.io_exposed - (small + big)).abs() < 1e-12);
        assert!((report.makespan - (small + big)).abs() < 1e-12);
    }

    #[test]
    fn a_started_write_is_never_superseded() {
        let cost = local_write_cost(1000);
        let report = run(RunConfig::local(1), move |ctx| {
            ctx.disk_write_async(1000);
            let queued = ctx.disk_write_async(1000);
            // The clock reaches the queued write's start exactly: it has
            // started, so the next write queues behind it instead.
            ctx.advance_to(queued.start);
            let next = ctx.disk_write_async(1000);
            assert_eq!(next, AsyncWrite { start: queued.start + cost, superseded: false });
            // Half way through the queued write, the next one is replaced.
            ctx.advance(cost / 2.0);
            assert!(ctx.disk_write_async(1000).superseded);
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        assert!((report.makespan - 3.0 * cost).abs() < 1e-12);
        assert!((report.io_hidden + report.io_exposed - 3.0 * cost).abs() < 1e-12);
    }

    #[test]
    fn only_an_unstarted_write_is_dropped_and_it_is_never_charged() {
        let (small, big) = (local_write_cost(1000), local_write_cost(5000));
        let report = run(RunConfig::local(1), move |ctx| {
            // Nothing pending, then only a write in flight: nothing to drop.
            assert!(!ctx.disk_drop_unstarted());
            ctx.disk_write_async(1000);
            assert!(!ctx.disk_drop_unstarted(), "the first write started at once");
            // Queued behind it, dropped before it starts.
            let queued = ctx.disk_write_async(9000);
            assert!(queued.start > ctx.now());
            assert!(ctx.disk_drop_unstarted());
            assert!(!ctx.disk_drop_unstarted(), "one queued write at most");
            // The disk is free again at the in-flight write's end.
            let next = ctx.disk_write_async(5000);
            assert_eq!(next, AsyncWrite { start: queued.start, superseded: false });
            // At its start exactly it has started, so it stays.
            ctx.advance_to(next.start);
            assert!(!ctx.disk_drop_unstarted());
            ctx.disk_drain();
        });
        report.assert_no_app_errors();
        // The 9000-byte write was never paid for: compute hid the first
        // write and the drain waited for the second.
        assert!((report.io_hidden - small).abs() < 1e-12);
        assert!((report.io_exposed - big).abs() < 1e-12);
        assert!((report.makespan - (small + big)).abs() < 1e-12);
    }

    #[test]
    fn the_disk_holds_one_write_in_flight_and_one_queued() {
        // Sizes and compute gaps that leave the disk anywhere from idle to
        // many writes behind; at every submit at most two writes pend, and
        // hidden + exposed is the summed cost of the writes that landed.
        let report = run(RunConfig::local(1), |ctx| {
            let mut landed = Vec::new();
            for k in 0..64usize {
                let bytes = 1000 + 97 * (k % 7) * 1000;
                let write = ctx.disk_write_async(bytes);
                if write.superseded {
                    landed.pop();
                }
                landed.push(local_write_cost(bytes));
                assert!(ctx.io_pending.borrow().len() <= 2, "submit {k}");
                // Now and then a barrier drops the queued write unstarted.
                if k % 8 == 3 && ctx.disk_drop_unstarted() {
                    landed.pop();
                }
                ctx.advance(local_write_cost(1000) * (k % 5) as f64 * 0.45);
                if k % 16 == 15 {
                    ctx.disk_drain();
                    assert!(ctx.io_pending.borrow().is_empty());
                }
            }
            let paid = ctx.io_hidden() + ctx.io_exposed();
            let sum: f64 = landed.iter().sum();
            assert!((paid - sum).abs() < 1e-9, "paid {paid} for {sum} of landed writes");
            assert!(landed.len() < 64, "some write must have been superseded");
        });
        report.assert_no_app_errors();
    }

    #[test]
    fn sync_write_and_restart_read_are_exposed() {
        let report = run(RunConfig::local(1), |ctx| {
            let t0 = ctx.now();
            ctx.disk_write(1000);
            assert!(ctx.now() > t0, "a sync write must advance the clock");
            ctx.disk_read(1000);
        });
        report.assert_no_app_errors();
        assert_eq!(report.io_hidden, 0.0);
        assert!((report.io_exposed - report.makespan).abs() < 1e-12);
        assert_eq!(report.hidden_io_fraction(), 0.0);
    }

    #[test]
    fn undrained_writes_count_their_covered_time_at_exit() {
        let cost = local_write_cost(1000);
        let report = run(RunConfig::local(1), move |ctx| {
            ctx.disk_write_async(1000);
            ctx.advance(cost * 2.0);
            // Exit without draining: the whole write fits in the rank's
            // lifetime, so it is fully hidden.
        });
        report.assert_no_app_errors();
        assert!((report.io_hidden - cost).abs() < 1e-12);
        assert_eq!(report.io_exposed, 0.0);
    }
}
