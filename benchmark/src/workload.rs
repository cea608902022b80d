//! The five workloads: each fixes a shape, a technique, a repair policy and
//! *where* processes die. The seed only picks *which* non-root rank of the
//! fixed victim grid(s) dies, so every seed does the same work.

use std::ops::Range;

use ftsg_core::{AppConfig, ProcLayout, ProcLayoutN, RecoveryPolicy, Technique};
use ulfm_sim::FaultPlan;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; README.md has the long form.
    pub why: &'static str,
    /// The application configuration, without plan, observer or scratch dir.
    base: fn() -> AppConfig,
    /// Each of these grids loses one non-root rank.
    pub victim_grids: &'static [usize],
    /// The solver step the victims die at; `None` is the final step, "just
    /// before the final detection point".
    kill_step: Option<u64>,
}

/// World ranks by sub-grid, and the world sizes.
pub struct Shape {
    /// Ranks that own grid data.
    pub layout_world: usize,
    /// Ranks launched: `layout_world` plus the idle spares.
    pub launch_world: usize,
    /// World ranks of each sub-grid's group, by grid id; the first is its root.
    pub groups: Vec<Range<usize>>,
}

pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper2d_kill",
        why: "the paper's own shape (AC, 49 ranks, 2^9 steps): 2D SIMD kernels and halo overlap dominate, scheduler and repair do little",
        base: || AppConfig::paper_shaped(Technique::AlternateCombination, 10, 4, 9),
        victim_grids: &[1],
        kill_step: None,
    },
    Workload {
        name: "ranks1k_kill",
        why: "1005 thin ranks, 4 steps, two victims: fiber launch, mailboxes, collectives and the beta-ULFM two-failure repair dominate, kernels do not",
        base: || AppConfig::paper_shaped(Technique::AlternateCombination, 9, 82, 2),
        victim_grids: &[1, 2],
        kill_step: None,
    },
    Workload {
        name: "solve3d_kill",
        why: "the d-dimensional twin stack (3D, 56 ranks, m=4): point-closure kernels, plane halos, nd gather and recovery; a 3D change moves this row only",
        base: || {
            let mut cfg = AppConfig::small_nd(Technique::AlternateCombination, 3);
            (cfg.n, cfg.l, cfg.scale, cfg.log2_steps) = (7, 4, 2, 6);
            cfg
        },
        victim_grids: &[1],
        kill_step: None,
    },
    Workload {
        name: "ckpt_heavy",
        why: "CR with 16 async checkpoints and a mid-run kill: the codec both ways (encode+CRC+fsync, read_latest_valid+decode) plus recompute; nothing else writes one",
        base: || {
            AppConfig::paper_shaped(Technique::CheckpointRestart, 10, 4, 8).with_checkpoints(16)
        },
        victim_grids: &[1],
        kill_step: Some(128 + 3),
    },
    Workload {
        name: "rc_spare_kill",
        why: "RC under spare-substitute, two victims (one copied, one resampled): promotion by one split, no spawn or merge, yet the two-failure shrink is paid",
        base: || {
            AppConfig::paper_shaped(Technique::ResamplingCopying, 9, 4, 8)
                .with_recovery_policy(RecoveryPolicy::SpareSubstitute)
                .with_spares(2)
        },
        // Diagonal(1), restored from its duplicate, and LowerDiagonal(2)
        // (id l + 2), resampled from the finer diagonal above it.
        victim_grids: &[1, 6],
        kill_step: None,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The application configuration (no failures planned yet).
    pub fn config(&self) -> AppConfig {
        let cfg = (self.base)();
        cfg.validate().expect("workload configurations are valid");
        cfg
    }

    /// Who runs what.
    pub fn shape(&self) -> Shape {
        let cfg = self.config();
        let layout = cfg.technique.layout();
        let groups: Vec<Range<usize>> = if cfg.dim >= 3 {
            let lay = ProcLayoutN::new(cfg.dim, cfg.n, cfg.l, layout, cfg.scale);
            lay.groups().iter().map(|g| g.first..g.first + g.size).collect()
        } else {
            let lay = ProcLayout::new(cfg.n, cfg.l, layout, cfg.scale);
            lay.groups().iter().map(|g| g.first..g.first + g.size).collect()
        };
        let layout_world = groups.last().map_or(0, |g| g.end);
        Shape { layout_world, launch_world: cfg.world_size(layout_world), groups }
    }

    /// The step the victims die at.
    pub fn kill_step(&self) -> u64 {
        self.kill_step.unwrap_or_else(|| self.config().steps())
    }

    /// The failure plan of one invocation: `seed` picks one non-root rank
    /// in each victim grid (`FaultPlan::random` with every other rank
    /// forbidden); grid and step belong to the workload.
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        let shape = self.shape();
        let step = self.kill_step();
        let kills = self.victim_grids.iter().enumerate().map(|(k, &grid)| {
            let group = &shape.groups[grid];
            let candidates = group.start + 1..group.end;
            assert!(!candidates.is_empty(), "{}: grid {grid} has no non-root rank", self.name);
            let forbidden: Vec<usize> =
                (1..shape.launch_world).filter(|r| !candidates.contains(r)).collect();
            let pick = FaultPlan::random(
                1,
                shape.launch_world,
                0,
                seed.wrapping_add(k as u64),
                &forbidden,
            );
            (pick.victim_ranks()[0], step)
        });
        FaultPlan::new(kills.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_are_the_documented_ones() {
        let worlds: Vec<(usize, usize)> = WORKLOADS
            .iter()
            .map(|w| {
                let s = w.shape();
                (s.layout_world, s.launch_world)
            })
            .collect();
        assert_eq!(worlds, [(49, 49), (1005, 1005), (56, 56), (44, 44), (76, 78)]);
        for w in &WORKLOADS {
            assert!(w.kill_step() <= w.config().steps(), "{}", w.name);
            assert!(crate::json::is_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
        }
        assert!(find("no_such_workload").is_none());
        // The mid-run kill sits strictly inside a checkpoint segment.
        let ck = find("ckpt_heavy").unwrap();
        assert_eq!(ck.kill_step(), ck.config().steps() / 2 + 3);
        assert!(!ck.kill_step().is_multiple_of(ck.config().ckpt_period()));
    }

    #[test]
    fn seeds_reach_the_fault_plan() {
        for w in &WORKLOADS {
            let shape = w.shape();
            let plan = w.fault_plan(101);
            assert_eq!(plan, w.fault_plan(101), "{}: same seed, same victims", w.name);
            let mut others = false;
            for seed in 100..140 {
                let p = w.fault_plan(seed);
                others |= p != plan;
                let victims = p.victim_ranks();
                assert_eq!(victims.len(), w.victim_grids.len(), "{}", w.name);
                for (&rank, &grid) in victims.iter().zip(w.victim_grids) {
                    let group = &shape.groups[grid];
                    assert!(group.contains(&rank), "{}: rank {rank} not in grid {grid}", w.name);
                    assert_ne!(rank, group.start, "{}: a group root must not die", w.name);
                }
                assert!(p.victims().iter().all(|&(r, _)| p.strikes(r, w.kill_step())));
            }
            assert!(others, "{}: some other seed must pick other victims", w.name);
        }
    }
}
