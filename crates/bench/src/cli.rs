//! The `expt` command line: `expt <name> [flags]`, one parser for every
//! experiment.
//!
//! [`parse`] looks `name` up in [`EXPERIMENTS`], checks each flag against
//! the ones that entry declares and hands back the [`Args`] its run
//! function reads typed values from. Every mistake comes back as a
//! [`Usage`] (the binary prints it and exits 2); nothing here exits.
//!
//! One output rule holds for every subcommand: JSON records go to
//! `--out DIR` (default [`DEFAULT_OUT`]) under their `BENCH_prN.json`
//! names, so only an explicit `--out .` rewrites a committed baseline;
//! CSVs go to `results/` from a full-shape run and under `--out` from a
//! `--quick` one, so the committed figures are only ever rewritten by
//! the shape they were made at.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use crate::experiments::EXPERIMENTS;

/// Where JSON records (and `--quick` CSVs) go without `--out`.
pub const DEFAULT_OUT: &str = "target/expt";

/// The flag every subcommand accepts.
const OUT_FLAG: &str = "--out DIR";

/// Flags as `expt` declares them: `"--seed S --quick"` is a `--seed`
/// taking a value (`S`) and a switch.
pub type Flags = &'static str;

/// One `expt` subcommand: one entry of [`EXPERIMENTS`].
pub struct Experiment {
    pub name: &'static str,
    /// One line for `expt --help`.
    pub help: &'static str,
    /// The flags it accepts besides `--out DIR`.
    pub flags: Flags,
    /// Runs the experiment; `Ok` holds the process exit code.
    pub run: fn(&Args) -> Result<i32, Usage>,
}

/// A rejected command line: what is wrong with it, and the usage it
/// breaks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage {
    pub error: String,
    pub usage: String,
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expt: {}\n{}", self.error, self.usage)
    }
}

/// A parsed command line.
pub struct Args {
    pub experiment: &'static Experiment,
    /// `(flag, value)` in command-line order; a later value wins.
    given: Vec<(&'static str, Option<String>)>,
    /// `--out DIR`.
    pub out: PathBuf,
}

impl Args {
    /// A [`Usage`] error against this subcommand's usage line.
    pub fn usage(&self, error: impl Into<String>) -> Usage {
        Usage { error: error.into(), usage: usage_line(self.experiment) }
    }

    /// The switch or flag was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// `--quick`: the smoke shape.
    pub fn quick(&self) -> bool {
        self.has("--quick")
    }

    /// The flag's value as given, or `None` when it was not.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|(_, v)| v.as_deref().unwrap_or_default())
    }

    /// The flag's value read by `read`, or `None` when it was not given.
    pub fn get_with<T>(
        &self,
        flag: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, Usage> {
        let Some(value) = self.value(flag) else { return Ok(None) };
        read(value).map(Some).ok_or_else(|| self.usage(format!("bad value for {flag}: {value:?}")))
    }

    /// The flag's value, or `default` when it was not given.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, Usage> {
        Ok(self.get_with(flag, |v| v.parse().ok())?.unwrap_or(default))
    }

    /// Combination levels a grid system can be built at: `2 <= l <= n`.
    pub fn check_levels(&self, n: u32, l: u32) -> Result<(), Usage> {
        if l < 2 || n < l {
            return Err(self.usage(format!("need 2 <= l <= n (got n={n}, l={l})")));
        }
        Ok(())
    }

    /// Where the CSV called `name` goes: `results/` at full shape, the
    /// out dir under `--quick`.
    pub fn csv(&self, name: &str) -> PathBuf {
        if self.quick() {
            self.out.join(name)
        } else {
            Path::new("results").join(name)
        }
    }

    /// Write the JSON record called `name` (`BENCH_prN.json`) into the out
    /// dir and say where it went.
    pub fn record(&self, name: &str, json: &str) -> PathBuf {
        let path = self.out.join(name);
        std::fs::create_dir_all(&self.out)
            .and_then(|()| std::fs::write(&path, json))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("wrote {}", path.display());
        path
    }
}

/// A comma-separated list, for [`Args::get_with`].
pub fn list<T: FromStr>(value: &str) -> Option<Vec<T>> {
    value.split(',').map(|s| s.parse().ok()).collect()
}

/// `usage: expt <name> [flag]...`.
pub fn usage_line(e: &Experiment) -> String {
    let flags: Vec<String> = specs(e)
        .iter()
        .map(|(f, v)| v.map_or_else(|| format!("[{f}]"), |v| format!("[{f} {v}]")))
        .collect();
    format!("usage: expt {} {}", e.name, flags.join(" "))
}

/// `(flag, metavar)` of every flag `e` accepts, `--out DIR` last; a
/// switch has no metavar.
fn specs(e: &Experiment) -> Vec<(&'static str, Option<&'static str>)> {
    let mut tokens = e.flags.split_whitespace().chain(OUT_FLAG.split_whitespace()).peekable();
    let mut specs = Vec::new();
    while let Some(flag) = tokens.next() {
        specs.push((flag, tokens.next_if(|t| !t.starts_with("--"))));
    }
    specs
}

/// `expt --help`: every subcommand with its one-line help.
pub fn help() -> String {
    let width = EXPERIMENTS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut s = format!(
        "usage: expt <name> [flags] [{OUT_FLAG}]   (`expt <name> --help` lists a name's flags)\n"
    );
    for e in EXPERIMENTS {
        s.push_str(&format!("  {:width$}  {}\n", e.name, e.help));
    }
    s
}

/// Parse `<name> [flags]` (the arguments after the program name).
pub fn parse<S: AsRef<str>>(argv: &[S]) -> Result<Args, Usage> {
    let mut argv = argv.iter().map(AsRef::as_ref);
    let name = argv.next().unwrap_or_default();
    let Some(experiment) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let error = if name.is_empty() {
            "no subcommand".into()
        } else {
            format!("unknown subcommand {name}")
        };
        return Err(Usage { error, usage: help() });
    };
    let specs = specs(experiment);
    let mut args = Args { experiment, given: Vec::new(), out: DEFAULT_OUT.into() };
    while let Some(arg) = argv.next() {
        let Some(&(flag, metavar)) = specs.iter().find(|(f, _)| *f == arg) else {
            return Err(args.usage(format!("unknown flag {arg}")));
        };
        let value = match metavar {
            Some(_) => Some(argv.next().ok_or_else(|| args.usage(format!("{arg} needs a value")))?),
            None => None,
        };
        args.given.push((flag, value.map(str::to_string)));
    }
    if let Some(out) = args.value("--out") {
        args.out = out.into();
    }
    Ok(args)
}

/// Parse and run: the whole `expt` command line.
pub fn dispatch<S: AsRef<str>>(argv: &[S]) -> Result<i32, Usage> {
    let args = parse(argv)?;
    (args.experiment.run)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(argv: &[&str]) -> String {
        match dispatch(argv) {
            Ok(code) => panic!("{argv:?} ran (exit {code}) instead of failing to parse"),
            Err(usage) => usage.error,
        }
    }

    #[test]
    fn an_unknown_subcommand_is_a_usage_error() {
        assert_eq!(err(&["fig12"]), "unknown subcommand fig12");
        assert_eq!(err(&[]), "no subcommand");
    }

    #[test]
    fn an_unknown_flag_is_a_usage_error() {
        assert_eq!(err(&["fig8", "--budget", "3"]), "unknown flag --budget");
        assert_eq!(err(&["ckpt", "--quick"]), "unknown flag --quick");
        assert_eq!(err(&["fig8", "--smoke"]), "unknown flag --smoke");
    }

    #[test]
    fn a_flag_missing_its_value_is_a_usage_error() {
        assert_eq!(err(&["fig8", "--quick", "--n"]), "--n needs a value");
        assert_eq!(err(&["chaos", "--json"]), "--json needs a value");
        assert!(err(&["fig8", "--n", "x"]).starts_with("bad value for --n"));
        assert!(err(&["fig8", "--scales", "53,x"]).starts_with("bad value for --scales"));
    }

    #[test]
    fn only_3d_takes_a_combination_level() {
        // The 2D experiments run `AppConfig::paper_shaped`, whose l is the
        // paper's 4: they take no `--l`.
        for name in ["policy", "fig8", "all"] {
            assert_eq!(err(&[name, "--l", "5"]), "unknown flag --l");
        }
    }

    #[test]
    fn a_flag_the_run_never_reads_is_a_usage_error() {
        assert_eq!(err(&["table1", "--reps", "3"]), "unknown flag --reps");
        assert_eq!(err(&["ablation", "--reps", "3"]), "unknown flag --reps");
        for name in ["fig9", "fig10", "policy", "kernel"] {
            assert_eq!(err(&[name, "--scales", "1,2"]), "unknown flag --scales", "{name}");
        }
        for flag in ["--n", "--steps", "--seed"] {
            assert_eq!(err(&["kernel", flag, "7"]), format!("unknown flag {flag}"));
        }
        // `expt all` runs every figure, so it takes every figure flag.
        let all = EXPERIMENTS.iter().find(|e| e.name == "all").unwrap();
        assert_eq!(all.flags, crate::Opts::FLAGS);
        for e in EXPERIMENTS.iter().take_while(|e| e.name != "all") {
            for (flag, _) in specs(e) {
                assert!(specs(all).iter().any(|(f, _)| *f == flag), "{}: {flag}", e.name);
            }
        }
    }

    #[test]
    fn a_bad_n_l_pair_is_a_usage_error() {
        assert_eq!(err(&["fig8", "--n", "3"]), "need 2 <= l <= n (got n=3, l=4)");
        assert_eq!(err(&["3d", "--quick", "--l", "1"]), "need 2 <= l <= n (got n=5, l=1)");
        assert_eq!(err(&["3d", "--n", "3"]), "need 2 <= l <= n (got n=3, l=4)");
    }

    #[test]
    fn values_parse_and_the_last_one_wins() {
        let a = parse(&["fig8", "--n", "7", "--scales", "1,2", "--n", "8", "--out", "x"]).unwrap();
        assert_eq!(a.get_or("--n", 9u32), Ok(8));
        assert_eq!(a.get_or("--reps", 5usize), Ok(5));
        assert_eq!(a.get_with("--scales", list::<usize>), Ok(Some(vec![1, 2])));
        assert_eq!(a.out, Path::new("x"));
        assert_eq!(a.csv("fig8.csv"), Path::new("results/fig8.csv"));
        let q = parse(&["fig8", "--quick"]).unwrap();
        assert_eq!(q.csv("fig8.csv"), Path::new("target/expt/fig8.csv"));
    }

    #[test]
    fn every_name_and_flag_is_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|f| f.name != e.name), "{} twice", e.name);
            let flags: Vec<&str> = specs(e).iter().map(|(f, _)| *f).collect();
            for (j, f) in flags.iter().enumerate() {
                assert!(f.starts_with("--") && !flags[..j].contains(f), "{}: {f}", e.name);
            }
        }
        let fig8 = usage_line(&EXPERIMENTS[0]);
        assert!(fig8.starts_with("usage: expt fig8 [--n N] [--steps LOG2]"), "{fig8}");
        assert!(fig8.ends_with("[--quick] [--out DIR]"), "{fig8}");
    }
}
