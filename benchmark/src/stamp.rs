//! The environment guard and the stamp line: what machine, toolchain and
//! revision a result line came from.

use std::path::Path;
use std::process::Command;

/// Variables with these prefixes silently change kernel, band and
/// scheduler modes of the program, so a run with one set measures
/// something else than the benchmark defines.
const GUARDED_PREFIXES: [&str; 2] = ["FTSG_", "ULFM_"];

/// The guarded variables that are set, sorted.
pub fn guarded_env(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut hits: Vec<String> =
        vars.filter(|k| GUARDED_PREFIXES.iter().any(|p| k.starts_with(p))).collect();
    hits.sort();
    hits
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `<repo>/.git` directly (`unknown`
/// when the checkout is not a repository — the driver's is not).
fn git_revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One line of `key=value` pairs describing this run's environment.
pub fn stamp_line(
    workload: &str,
    seed: u64,
    victims: &[usize],
    reps: usize,
    workers: usize,
    repo: &Path,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp: workload={workload} seed={seed} victims={victims:?} reps={reps} \
         rustc=\"{}\" nproc={nproc} cpu=\"{}\" simd={} workers={workers} git={}",
        rustc_version(),
        cpu_model(),
        advect2d::simd_isa_label(),
        git_revision(repo),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_catches_only_the_mode_switches() {
        let vars = ["PATH", "ULFM_WORKERS", "FTSG_SIMD", "CARGO_TARGET_DIR", "MY_FTSG_X"];
        let hits = guarded_env(vars.iter().map(|s| s.to_string()));
        assert_eq!(hits, ["FTSG_SIMD", "ULFM_WORKERS"]);
        assert!(guarded_env(["HOME".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn stamp_names_everything_the_issue_asks_for() {
        let line = stamp_line("paper2d_kill", 7, &[9], 12, 1, Path::new("/nonexistent"));
        for key in ["workload=", "seed=7", "victims=[9]", "reps=12", "rustc=", "nproc=", "cpu="] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
        assert!(line.contains("simd=") && line.contains("workers=1"));
        assert!(line.ends_with("git=unknown"));
        assert!(!line.contains('\n'));
    }
}
