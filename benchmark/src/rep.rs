//! One rep: one `ulfm_sim::run` of the application, timed from outside.
//!
//! A minimal observer stamps rank 0's events. `Epoch { step: 0 }` fires
//! after layout, solver construction, initial condition and the collective
//! initial split, so `run() call → Epoch0` is the set-up and
//! `Epoch0 → run() returns` the solve.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ftsg_core::config::{AppEvent, AppObserver};
use ftsg_core::run_app;
use ulfm_sim::{ClusterProfile, FaultPlan, Report, RunConfig};

use crate::alloc;
use crate::workload::Workload;

/// The scheduler worker count of every rep: one deterministic instruction
/// stream. Harness + one worker + the checkpoint writers is all that two
/// vCPUs host without the benchmark timing the host scheduler instead.
pub const WORKERS: usize = 1;

/// Wall-clock stamps of one rep.
pub struct Stamps {
    pub call: Instant,
    /// Rank 0's observer events, in order.
    pub events: Vec<(AppEvent, Instant)>,
    pub ret: Instant,
}

impl Stamps {
    fn epoch0(&self) -> Instant {
        self.events
            .iter()
            .find(|(ev, _)| matches!(ev, AppEvent::Epoch { step: 0, .. }))
            .map(|&(_, at)| at)
            .expect("every run passes the step-0 epoch boundary")
    }

    /// `run() call → Epoch0`, seconds.
    pub fn setup_s(&self) -> f64 {
        (self.epoch0() - self.call).as_secs_f64()
    }

    /// `Epoch0 → run() returns`, seconds.
    pub fn solve_s(&self) -> f64 {
        (self.ret - self.epoch0()).as_secs_f64()
    }
}

/// Everything one rep produced.
pub struct Rep {
    pub report: Report,
    pub stamps: Stamps,
    /// Allocator requests made during the rep, by every thread.
    pub allocs: u64,
    /// Bytes those requests asked for.
    pub alloc_bytes: u64,
}

/// Run `w` once with `plan` on the simulated OPL cluster under the
/// beta-ULFM cost model. `trace_capacity` overrides the simulator's trace
/// ring size; checkpoints go under `scratch`.
pub fn run_rep(
    w: &Workload,
    plan: &FaultPlan,
    seed: u64,
    trace_capacity: Option<usize>,
    scratch: &Path,
) -> Rep {
    let events: Arc<Mutex<Vec<(AppEvent, Instant)>>> = Arc::new(Mutex::new(Vec::with_capacity(64)));
    let sink = Arc::clone(&events);
    let observer = AppObserver::new(move |ev| {
        sink.lock().expect("observer list is never poisoned").push((ev, Instant::now()));
    });
    let mut cfg = w.config().with_plan(plan.clone()).with_observer(observer);
    cfg.ckpt_dir = scratch.join(format!("ckpt-{}", w.name));

    let mut rc = RunConfig::cluster(ClusterProfile::opl(), w.shape().launch_world)
        .with_seed(seed)
        .with_workers(WORKERS);
    if let Some(capacity) = trace_capacity {
        rc = rc.with_trace_capacity(capacity);
    }

    let (allocs0, bytes0) = alloc::snapshot();
    let call = Instant::now();
    let report = ulfm_sim::run(rc, move |ctx| run_app(&cfg, ctx));
    let ret = Instant::now();
    let (allocs1, bytes1) = alloc::snapshot();

    let events = std::mem::take(&mut *events.lock().expect("observer list is never poisoned"));
    Rep {
        report,
        stamps: Stamps { call, events, ret },
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
    }
}
