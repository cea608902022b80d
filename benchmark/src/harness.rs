//! What the timed and the traced run share: the reference rep, series of
//! validated reps under a time budget, and the failure tally.

use std::path::PathBuf;
use std::time::Instant;

use ulfm_sim::{FaultPlan, Report};

use crate::rep::{run_rep, Rep, Stamps};
use crate::validate::{validate, Expect, Fingerprint};
use crate::workload::Workload;

/// Which plan a rep runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The invocation's fault plan.
    Kill,
    /// The failure-free twin: same shape, nobody dies.
    Twin,
}

/// How long a series runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until the instant has passed, and at least two reps: a fixed count
    /// would overrun the driver's cap whenever the host has a slow spell.
    Until(Instant),
    /// Exactly this many reps (`--smoke`).
    Reps(usize),
}

/// What is kept of a rep once its report is dropped.
pub struct Sample {
    pub stamps: Stamps,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// One series of identical reps.
pub struct Series {
    pub samples: Vec<Sample>,
    /// The last rep's report, when asked for.
    pub last: Option<Report>,
}

impl Series {
    pub fn setup_s(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.stamps.setup_s()).collect()
    }

    pub fn solve_s(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.stamps.solve_s()).collect()
    }
}

/// One invocation's state: workload, seed, plan, and the running verdict.
pub struct Harness {
    pub w: &'static Workload,
    pub seed: u64,
    pub plan: FaultPlan,
    expect: Expect,
    scratch: PathBuf,
    /// `err_l1` of the failure-free reference rep.
    reference_err: Option<f64>,
    /// First fingerprint seen of each kind; later reps must match its bits.
    first: [Option<Fingerprint>; 2],
    pub attempted: usize,
    pub failed: usize,
}

impl Harness {
    pub fn new(w: &'static Workload, seed: u64, scratch: PathBuf) -> Self {
        let cfg = w.config();
        let plan = w.fault_plan(seed);
        let expect = Expect {
            technique: cfg.technique,
            policy: cfg.recovery_policy,
            launch_world: w.shape().launch_world,
            kills: plan.n_failures(),
        };
        Harness {
            w,
            seed,
            plan,
            expect,
            scratch,
            reference_err: None,
            first: [None, None],
            attempted: 0,
            failed: 0,
        }
    }

    /// The fingerprint every kill rep of this invocation reproduced.
    pub fn kill_fingerprint(&self) -> Option<Fingerprint> {
        self.first[Kind::Kill as usize]
    }

    /// Run and validate one rep. A failing rep is counted and reported on
    /// stderr; its sample is still returned so the run can finish.
    pub fn rep(&mut self, kind: Kind, trace_capacity: Option<usize>) -> Rep {
        let none = FaultPlan::none();
        let (plan, expect) = match kind {
            Kind::Kill => (&self.plan, self.expect),
            Kind::Twin => (&none, Expect { kills: 0, ..self.expect }),
        };
        let rep = run_rep(self.w, plan, self.seed, trace_capacity, &self.scratch);
        // The twin *is* the reference; only kill reps are held against it.
        let reference = if kind == Kind::Kill { self.reference_err } else { None };
        self.attempted += 1;
        match validate(&rep.report, &expect, reference, self.first[kind as usize].as_ref()) {
            Ok(fp) => {
                self.first[kind as usize].get_or_insert(fp);
                if kind == Kind::Twin {
                    self.reference_err.get_or_insert(fp.err_l1);
                }
            }
            Err(why) => {
                self.failed += 1;
                eprintln!("{}: rep {} ({kind:?}) FAILED: {why}", self.w.name, self.attempted);
            }
        }
        rep
    }

    /// Run reps of one kind until the budget is spent, calling `between`
    /// after each.
    pub fn series(
        &mut self,
        kind: Kind,
        trace_capacity: Option<usize>,
        budget: Budget,
        keep_last: bool,
        mut between: impl FnMut(),
    ) -> Series {
        let mut samples = Vec::new();
        let mut last = None;
        loop {
            let done = match budget {
                Budget::Until(deadline) => samples.len() >= 2 && Instant::now() >= deadline,
                Budget::Reps(n) => samples.len() >= n,
            };
            if done {
                return Series { samples, last };
            }
            // Free the previous report first: one report at a time keeps
            // the peak resident set the program's own.
            last = None;
            let Rep { report, stamps, allocs, alloc_bytes } = self.rep(kind, trace_capacity);
            samples.push(Sample { stamps, allocs, alloc_bytes });
            if keep_last {
                last = Some(report);
            }
            between();
        }
    }
}
