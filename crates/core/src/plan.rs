//! One plan per run: what every rank derives alike from the configuration
//! and from a lost set, derived once and shared.
//!
//! In the paper's Figs. 3–5 every surviving process works out the same
//! things: the layout from the configuration, then, from the failed list,
//! the broken grids and (under Alternate Combination) the new combination
//! coefficients, which are a function of the lost set alone
//! (arXiv:1404.2670). A [`Plan`] holds those derivations for one run. The
//! first rank to ask builds it ([`Ctx::run_shared`]); every other rank,
//! respawned children included, gets the same `Arc`, and it dies with the
//! run, so each run builds its own.
//!
//! Every memoised value is a pure function of its key, so which rank
//! derives it first changes nothing. The derivations make no runtime
//! operation, so no memo lock is held across a `Ctx` or `Comm` call, a
//! fiber never parks holding one, and no fault site moves. Only real
//! work is shared: each rank still charges its own virtual time for what
//! the paper's process would compute (the Alternate Combination's
//! coefficient solve, in `recovery`).
//!
//! [`Ctx::run_shared`]: ulfm_sim::Ctx::run_shared

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use sparsegrid::IndexedDownset;
use ulfm_sim::Result;

use crate::config::AppConfig;
use crate::stack::Stack;

/// The combination's terms: one combining grid per term, in term order,
/// and the group root of each (original numbering), which is the tree's
/// leader while the world was never shrunk.
#[derive(Debug, PartialEq)]
pub struct Terms {
    /// Combining grid ids, in term order.
    pub grids: Vec<usize>,
    /// World rank of each one's group root, original numbering.
    pub roots: Vec<usize>,
}

impl Terms {
    fn of<S: Stack>(layout: &S::Layout, grids: Vec<usize>) -> Self {
        let roots = grids.iter().map(|&g| S::root_of(layout, g)).collect();
        Terms { grids, roots }
    }
}

/// One robust solve: the coefficients once the grids `lost` are gone,
/// and the combination they give.
#[derive(Debug, PartialEq)]
pub struct Robust {
    /// The lost grids, ascending: the solve's key, with `covered`.
    pub lost: Box<[usize]>,
    /// Whether a lost grid's level that a surviving grid also holds
    /// counts as kept ([`Stack::robust_coefficients`]).
    pub covered: bool,
    /// The coefficient of each grid's level, by grid id.
    pub by_grid: Vec<i64>,
    /// The size of the downset the search ran over.
    pub downset_len: usize,
    /// One combining grid per level with a nonzero coefficient, in
    /// grid-id order, none of them lost: the diagonal precedes its
    /// duplicate, so the duplicate only stands in when the diagonal is
    /// gone, and a duplicate pair is never counted twice.
    pub terms: Terms,
}

/// What a run derives from its configuration, and the memo of what it
/// derives from each lost set.
pub struct Plan<S: Stack> {
    /// The world → sub-grid map.
    pub layout: S::Layout,
    /// The PDE.
    pub problem: S::Problem,
    /// The timestep of every solver.
    pub dt: f64,
    /// The classical combination: the grids with a nonzero classical
    /// coefficient, ascending.
    pub classical: Terms,
    /// The numbered classical downset, built by the first robust solve
    /// (a run that solves none never builds it).
    downset: OnceLock<IndexedDownset>,
    /// Broken grids by failed list.
    broken: Mutex<Vec<Broken>>,
    /// Robust solves, keyed by their lost set and `covered`.
    robust: Mutex<Vec<Arc<Robust>>>,
}

/// A failed list and the grids it broke.
type Broken = (Box<[usize]>, Arc<[usize]>);

impl<S: Stack> Plan<S> {
    /// The plan of `cfg`, or the configuration error that every rank
    /// returns ([`Stack::setup`]). Every rank of a run runs the one
    /// configuration, so the first rank's builds the plan all of them
    /// read.
    pub fn new(cfg: &AppConfig) -> Result<Self> {
        let (layout, problem, dt) = S::setup(cfg)?;
        let classical = Terms::of::<S>(&layout, S::combination_ids(&layout));
        Ok(Plan {
            layout,
            problem,
            dt,
            classical,
            downset: OnceLock::new(),
            broken: Mutex::new(Vec::new()),
            robust: Mutex::new(Vec::new()),
        })
    }

    /// The grids that lost a member to `failed`, ascending
    /// ([`Stack::broken_grids`]), derived once per list.
    pub fn broken(&self, failed: &[usize]) -> Arc<[usize]> {
        let mut memo = self.broken.lock();
        if let Some((_, grids)) = memo.iter().find(|(key, _)| **key == *failed) {
            return Arc::clone(grids);
        }
        let grids: Arc<[usize]> = S::broken_grids(&self.layout, failed).into();
        memo.push((failed.into(), Arc::clone(&grids)));
        grids
    }

    /// The robust solve once the grids `lost` (ascending) are gone
    /// ([`Stack::robust_coefficients`]), derived once per lost set and
    /// `covered`.
    pub fn robust(&self, lost: &[usize], covered: bool) -> Arc<Robust> {
        let mut memo = self.robust.lock();
        if let Some(r) = memo.iter().find(|r| *r.lost == *lost && r.covered == covered) {
            return Arc::clone(r);
        }
        let layout = &self.layout;
        let downset = self.downset.get_or_init(|| S::downset(layout));
        let by_grid = S::robust_over(layout, downset, lost, covered);
        let mut grids: Vec<usize> = Vec::with_capacity(S::n_grids(layout));
        for (g, &c) in by_grid.iter().enumerate() {
            let level = S::level(layout, g);
            if lost.contains(&g) || c == 0 || grids.iter().any(|&i| S::level(layout, i) == level) {
                continue;
            }
            grids.push(g);
        }
        let solved = Arc::new(Robust {
            lost: lost.into(),
            covered,
            by_grid,
            downset_len: downset.len(),
            terms: Terms::of::<S>(layout, grids),
        });
        memo.push(Arc::clone(&solved));
        solved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{Nd, D2};
    use crate::Technique;

    /// Every lost set of one to three grids of `n` (the enumeration of
    /// `stack.rs`'s `covered_matters`).
    fn lost_sets(n: usize) -> Vec<Vec<usize>> {
        let mut sets = Vec::new();
        for a in 0..n {
            sets.push(vec![a]);
            for b in a + 1..n {
                sets.push(vec![a, b]);
                sets.extend((b + 1..n).map(|c| vec![a, b, c]));
            }
        }
        sets
    }

    /// The plan's solves and broken lists equal fresh derivations, and a
    /// second call hands back the first one's value. Returns how many
    /// lost sets were checked.
    fn assert_plan_matches_fresh<S: Stack>(cfg: &AppConfig) -> usize {
        let plan = Plan::<S>::new(cfg).unwrap();
        let layout = &plan.layout;
        let sets = lost_sets(S::n_grids(layout));
        for lost in &sets {
            for covered in [false, true] {
                let r = plan.robust(lost, covered);
                let (fresh, len) = S::robust_coefficients(layout, lost, covered);
                assert_eq!((&r.by_grid, r.downset_len), (&fresh, len), "{lost:?} {covered}");
                assert!(Arc::ptr_eq(&r, &plan.robust(lost, covered)), "{lost:?} solved twice");
                for &g in &r.terms.grids {
                    assert!(!lost.contains(&g) && fresh[g] != 0, "{lost:?}: term {g}");
                }
            }
            // A failed list: the last rank of each lost grid, and the
            // first rank of the first one.
            let mut failed: Vec<usize> = lost.iter().map(|&g| S::last_rank_of(layout, g)).collect();
            failed.push(S::root_of(layout, lost[0]));
            failed.sort_unstable();
            let broken = plan.broken(&failed);
            assert_eq!(*broken, *S::broken_grids(layout, &failed), "{failed:?}");
            assert_eq!(*broken, lost[..], "{failed:?}");
            assert!(Arc::ptr_eq(&broken, &plan.broken(&failed)), "{failed:?} derived twice");
        }
        sets.len()
    }

    #[test]
    fn the_plan_hands_out_what_a_fresh_derivation_gives() {
        let mut checked = 0;
        for technique in [Technique::AlternateCombination, Technique::ResamplingCopying] {
            for (n, l) in [(6, 3), (9, 4)] {
                let mut cfg = AppConfig::small(technique);
                (cfg.n, cfg.l) = (n, l);
                checked += assert_plan_matches_fresh::<D2>(&cfg);
            }
            for (n, l) in [(4, 4), (5, 4)] {
                let mut cfg = AppConfig::small_nd(technique, 3);
                (cfg.n, cfg.l) = (n, l);
                checked += assert_plan_matches_fresh::<Nd>(&cfg);
            }
        }
        assert!(checked > 1000, "only {checked} lost sets checked");
    }

    #[test]
    fn the_classical_terms_are_the_combining_grids_and_their_roots() {
        let plan = Plan::<D2>::new(&AppConfig::small(Technique::ResamplingCopying)).unwrap();
        assert_eq!(plan.classical.grids, D2::combination_ids(&plan.layout));
        for (&g, &root) in plan.classical.grids.iter().zip(&plan.classical.roots) {
            assert_eq!(root, D2::root_of(&plan.layout, g));
        }
    }

    #[test]
    fn a_bad_configuration_is_the_plans_error() {
        let mut cfg = AppConfig::small(Technique::AlternateCombination);
        cfg.l = 1;
        assert!(matches!(Plan::<D2>::new(&cfg), Err(ulfm_sim::Error::InvalidArg(_))));
    }
}
