//! The sizing flags the paper's figures share.

use ftsg_core::{AppConfig, ProcLayout, Technique};

use crate::cli::{list, Args, Flags, Usage};

/// Experiment sizing knobs. The defaults keep every experiment
/// laptop-scale; the paper's own structural parameters are in the field
/// docs (n = 13 needs substantial memory, see EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Full grid size `n` (paper: 13; default 9). The combination level
    /// is the paper's, from [`AppConfig::paper_shaped`]: see [`Opts::l`].
    pub n: u32,
    /// `log2` of the timestep count (paper: 13; default 6).
    pub log2_steps: u32,
    /// Process scales to sweep (paper: 1, 2, 4, 8, 16 → 19–304 cores).
    pub scales: Vec<usize>,
    /// Repetitions for averaged quantities (paper: 5 for times, 20 for
    /// errors).
    pub reps: usize,
    /// Quick mode: tiny sweep for smoke-testing the harness.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 9,
            log2_steps: 6,
            scales: vec![1, 2, 4, 8, 16],
            reps: 5,
            quick: false,
            seed: 2014,
        }
    }
}

impl Opts {
    /// The flags of the figure experiments, `kernel` and `policy`.
    pub const FLAGS: Flags = "--n N --steps LOG2 --scales a,b,c --reps R --seed S --quick";

    /// Read [`Opts::FLAGS`]; `--quick` then shrinks the sweep, and the
    /// levels must leave a grid system (`2 <= l <= n`).
    pub fn from_args(a: &Args) -> Result<Self, Usage> {
        let d = Opts::default();
        let mut o = Opts {
            n: a.get_or("--n", d.n)?,
            log2_steps: a.get_or("--steps", d.log2_steps)?,
            scales: a.get_with("--scales", list)?.unwrap_or(d.scales),
            reps: a.get_or("--reps", d.reps)?,
            quick: false,
            seed: a.get_or("--seed", d.seed)?,
        };
        if a.quick() {
            o.apply_quick();
        }
        a.check_levels(o.n, o.l())?;
        Ok(o)
    }

    /// The combination level of every run these options size: the one
    /// [`AppConfig::paper_shaped`] sets.
    pub fn l(&self) -> u32 {
        AppConfig::paper_shaped(Technique::AlternateCombination, self.n, 1, self.log2_steps).l
    }

    /// The process layout of `technique`'s runs at `scale`: the one the
    /// run's own configuration builds, so victims drawn from it exist.
    pub fn layout(&self, technique: Technique, scale: usize) -> ProcLayout {
        ProcLayout::new(self.n, self.l(), technique.layout(), scale)
    }

    /// Shrink the sweep for smoke tests.
    pub fn apply_quick(&mut self) {
        self.n = self.n.min(7);
        self.log2_steps = self.log2_steps.min(4);
        self.scales = vec![1, 2];
        self.reps = 2;
        self.quick = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let o = Opts::default();
        assert_eq!(o.l(), 4);
        assert_eq!(o.scales, vec![1, 2, 4, 8, 16]);
    }

    #[test]
    fn quick_shrinks() {
        let mut o = Opts::default();
        o.apply_quick();
        assert!(o.n <= 7);
        assert_eq!(o.scales, vec![1, 2]);
    }
}
