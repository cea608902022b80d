//! The machine and build a measurement ran on, stamped into the JSON
//! records' `config` (`"rustc"`, `"git"`, `"cpu"`, `"nproc"`,
//! `"simd_isa"`): a wall-clock number means nothing without its host.

use std::process::Command;
use std::sync::OnceLock;

/// This process's toolchain, revision and machine.
#[derive(Debug)]
pub struct Stamp {
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse --short HEAD` in the working directory.
    pub git: String,
    /// `/proc/cpuinfo`'s model name.
    pub cpu: String,
    pub nproc: usize,
    /// The SIMD backend the row kernels dispatch to.
    pub isa: &'static str,
}

impl Stamp {
    /// The stamp, built on first use (it runs `rustc` and `git` once).
    pub fn host() -> &'static Stamp {
        static HOST: OnceLock<Stamp> = OnceLock::new();
        HOST.get_or_init(|| Stamp {
            rustc: output_of("rustc", &["-V"]),
            git: output_of("git", &["rev-parse", "--short", "HEAD"]),
            cpu: cpu_model(),
            nproc: nproc(),
            isa: advect2d::simd_isa_label(),
        })
    }
}

/// The machine's available parallelism (1 when it cannot be read): the
/// stamp's `nproc`, and the worker count a `0` width resolves to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn output_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
