//! The `--trace 0` run: the eight end-to-end metrics.
//!
//! One untimed failure-free reference rep (it fixes the error every rep is
//! checked against and pays the cold caches and lazy statics), then
//! identical kill reps until the time budget is spent.

use crate::harness::{Budget, Harness, Kind};
use crate::stats;

/// `VmHWM` of this process in MB: the peak resident set so far.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Run the timed series and return the end-to-end metrics by name.
pub fn run(h: &mut Harness, budget: Budget) -> Result<Vec<(&'static str, f64)>, String> {
    h.rep(Kind::Twin, None);
    let series = h.series(Kind::Kill, None, budget, false, || {});
    let fp = h.kill_fingerprint().ok_or("no kill rep passed validation")?;

    // Wall-clock is reported, not gated: see README.md, "Host noise".
    let (wall, setup) = (series.solve_s(), series.setup_s());
    eprintln!("{}: solve wall [s]  {}", h.w.name, stats::summary(&wall));
    eprintln!("{}: set-up wall [s] {}", h.w.name, stats::summary(&setup));
    // The same for compare.py, which keeps the record across invocations.
    println!(
        "advisory: {{\"wall_min_s\": {}, \"wall_p10_s\": {}, \"wall_p50_s\": {}, \
         \"wall_p90_s\": {}, \"setup_p50_s\": {}, \"reps\": {}}}",
        stats::min(&wall),
        stats::quantile(&wall, 0.1),
        stats::median(&wall),
        stats::quantile(&wall, 0.9),
        stats::median(&setup),
        wall.len()
    );

    let allocs: Vec<f64> = series.samples.iter().map(|s| s.allocs as f64).collect();
    let alloc_mb: Vec<f64> = series.samples.iter().map(|s| s.alloc_bytes as f64 / 1e6).collect();
    Ok(vec![
        // The fastest of the run's set-ups, never one cold sample.
        ("setup_s", stats::min(&setup)),
        ("peak_rss_mb", peak_rss_mb()?),
        ("heap_allocs", stats::median(&allocs)),
        ("heap_alloc_mb", stats::median(&alloc_mb)),
        ("virt_makespan", fp.makespan),
        ("virt_repair", fp.repair),
        ("virt_restore", fp.restore),
        ("err_l1", fp.err_l1),
    ])
}
