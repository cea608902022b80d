//! Where a benchmark workload's allocator requests and the bytes they ask
//! for come from, by call site (`expt timeline --alloc-sites <workload>`).
//!
//! [`TracingAllocator`] counts every request the process makes of the
//! system allocator and the bytes it asks for, as the benchmark's counting
//! allocator does (`heap_allocs`, `heap_alloc_mb`), and on demand takes a
//! `std::backtrace` of each and charges it, with its bytes, to its call
//! site and that site's caller — the first two frames in this
//! repository's `crates/`, i.e. the code that asked, not the collection
//! that grew, and where it was asked from, shown as `site < caller`. Capturing, resolving and
//! charging a backtrace allocates too: a per-thread reentrancy guard keeps
//! those requests out of the count and out of the table. [`attribute`]
//! runs one warm-up and then one traced rep of the workload's shape from
//! [`crate::experiments::repair`] (OPL, beta-ULFM, one scheduler worker,
//! seed 7). The counts and byte sums are exact.
//!
//! It also keeps the heap bytes live (allocated and not yet freed) and
//! their high-water mark: [`live_peak`] reads the most one warm run of a
//! workload holds at once, which does not depend on how the C library
//! maps and returns memory, as the benchmark's `peak_rss_mb` does.
//!
//! The `expt` binary installs it as its global allocator; [`requests`]
//! and [`bytes`] read its exact totals (`expt regress` and `expt ckpt` do,
//! with tracing never switched on). In a process that installs none, as
//! the library's unit tests, both stay 0, and so does [`live_peak`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::experiments::repair;
use crate::table::Table;

/// Requests so far, by every thread, the tracer's own excepted.
static REQUESTS: AtomicU64 = AtomicU64::new(0);
/// Bytes those requests asked for.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, the tracer's own included.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since [`live_peak`] last restarted it.
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Take a backtrace of every request.
static TRACING: AtomicBool = AtomicBool::new(false);
/// Traced `(requests, bytes)` by call site.
static SITES: Mutex<BTreeMap<String, (u64, u64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Set while this thread captures and charges a trace.
    static IN_TRACE: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator behind a request and byte counter and, on demand,
/// a backtrace of every request.
pub struct TracingAllocator;

/// Count one request of `size` bytes; trace it if tracing is on.
#[inline]
fn note(size: usize) {
    let count = || {
        REQUESTS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    };
    if !TRACING.load(Ordering::Relaxed) {
        return count();
    }
    // A thread being torn down has no guard left; count it plainly.
    if IN_TRACE.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    count();
    let _ = IN_TRACE.try_with(|guard| {
        guard.set(true);
        let site = site_of(&Backtrace::force_capture());
        let mut sites = SITES.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let (requests, bytes) = sites.entry(site).or_default();
        (*requests, *bytes) = (*requests + 1, *bytes + size as u64);
        guard.set(false);
    });
}

/// `size` bytes became live, or, if the request failed, none did.
#[inline]
fn live_add(ptr: *mut u8, size: usize) -> *mut u8 {
    if !ptr.is_null() {
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    ptr
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting and tracing touch no
// allocator state, and the allocations a trace makes re-enter `alloc`
// under the guard, which only forwards them.
unsafe impl GlobalAlloc for TracingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        live_add(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        live_add(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout` — the
        // caller's obligation, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-or-shrink is one request for `new_size` bytes, as the
        // benchmark counts it.
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // The old block is gone and the new one live; on failure the
            // old one stays live.
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        live_add(moved, new_size)
    }
}

/// Requests so far, by every thread (the tracer's own excepted).
pub fn requests() -> u64 {
    REQUESTS.load(Ordering::SeqCst)
}

/// Bytes those requests asked for.
pub fn bytes() -> u64 {
    BYTES.load(Ordering::SeqCst)
}

/// The most heap bytes one run of `workload` holds live at once, above
/// what was live when it started, by [`repair::run_count`]'s protocol
/// (seed 7, one scheduler worker, after a warm-up run); `None` if there is
/// no such workload.
pub fn live_peak(workload: &str) -> Option<u64> {
    repair::launch_workload(workload)?;
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    repair::launch_workload(workload)?;
    Some(PEAK.load(Ordering::SeqCst) - start)
}

/// One workload's requests and bytes by call site.
pub struct AllocSites {
    pub workload: String,
    /// Requests of the traced rep.
    pub requests: u64,
    /// Bytes they asked for.
    pub bytes: u64,
    /// Every site, most requests first.
    pub sites: Vec<Site>,
}

/// One call site's share of the traced rep.
pub struct Site {
    /// `function (crates/…/file.rs:line)`, then ` < ` and its caller's.
    pub name: String,
    pub requests: u64,
    pub bytes: u64,
}

/// The call site a trace is charged to, and its caller: the first two
/// frames whose source is under `crates/` (this module's own frames
/// excepted), each as `function (crates/…/file.rs:line)`, shown as
/// `site < caller` — the same site reached from two places is two rows —
/// or `(outside crates/)`.
fn site_of(trace: &Backtrace) -> String {
    site_in(&trace.to_string())
}

/// [`site_of`] on a backtrace's text: one line per function — `N: name`
/// for a frame, plain `name` for a function inlined into it — each
/// followed by `at path:line:column` where resolved.
fn site_in(text: &str) -> String {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let mut frames = lines.windows(2).filter_map(|pair| {
        let path = pair[1].strip_prefix("at ")?;
        let symbol = match pair[0].split_once(": ") {
            Some((n, name)) if n.bytes().all(|b| b.is_ascii_digit()) => name,
            _ => pair[0],
        };
        let path = &path[path.find("crates/")?..];
        if path.contains("alloc_sites.rs") {
            return None;
        }
        let path = path.rsplit_once(':').map_or(path, |(file_line, _column)| file_line);
        // Keep the function's path, drop a symbol hash if one is printed.
        let symbol = match symbol.rsplit_once("::h") {
            Some((name, hash))
                if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                name
            }
            _ => symbol,
        };
        Some(format!("{symbol} ({path})"))
    });
    match (frames.next(), frames.next()) {
        (Some(site), Some(caller)) => format!("{site} < {caller}"),
        (Some(site), None) => site,
        (None, _) => "(outside crates/)".into(),
    }
}

/// Run `workload` once to warm up, then once with every request traced,
/// and charge the requests to their call sites.
pub fn attribute(workload: &str) -> Result<AllocSites, String> {
    repair::launch_workload(workload).ok_or_else(|| {
        let names: Vec<_> = repair::workloads().collect();
        format!("no workload {workload:?}; the workloads are {names:?}")
    })?;
    SITES.lock().unwrap_or_else(|p| p.into_inner()).clear();
    TRACING.store(true, Ordering::SeqCst);
    let before = (requests(), bytes());
    repair::launch_workload(workload);
    let counted = (requests() - before.0, bytes() - before.1);
    TRACING.store(false, Ordering::SeqCst);
    let by_site = std::mem::take(&mut *SITES.lock().unwrap_or_else(|p| p.into_inner()));
    let mut sites: Vec<Site> = by_site
        .into_iter()
        .map(|(name, (requests, bytes))| Site { name, requests, bytes })
        .collect();
    sites.sort_by(|a, b| b.requests.cmp(&a.requests).then_with(|| a.name.cmp(&b.name)));
    Ok(AllocSites { workload: workload.into(), requests: counted.0, bytes: counted.1, sites })
}

impl AllocSites {
    /// The `top` sites with the most requests — with `by_bytes`, the most
    /// bytes — each with both, then the rest as one row.
    pub fn table(&self, top: usize, by_bytes: bool) -> Table {
        let key = |s: &Site| if by_bytes { s.bytes } else { s.requests };
        let mut sites: Vec<&Site> = self.sites.iter().collect();
        sites.sort_by(|a, b| key(b).cmp(&key(a)).then_with(|| a.name.cmp(&b.name)));
        let mut t = Table::new(
            format!(
                "Allocator requests of one warm {} rep by call site, most {} first: {} \
                 requests, {} bytes",
                self.workload,
                if by_bytes { "bytes" } else { "requests" },
                self.requests,
                self.bytes
            ),
            &["site", "requests", "share", "bytes", "share"],
        );
        let share = |n: u64, of: u64| format!("{:.1}%", 100.0 * n as f64 / of.max(1) as f64);
        let mut row = |name: String, n: u64, b: u64| {
            let (n_share, b_share) = (share(n, self.requests), share(b, self.bytes));
            t.row(vec![name, n.to_string(), n_share, b.to_string(), b_share]);
        };
        for site in sites.iter().take(top) {
            row(site.name.clone(), site.requests, site.bytes);
        }
        let rest = &sites[top.min(sites.len())..];
        if !rest.is_empty() {
            let (n, b) = rest.iter().fold((0, 0), |(n, b), s| (n + s.requests, b + s.bytes));
            row(format!("({} other sites)", rest.len()), n, b);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_trace_is_charged_to_the_first_function_under_crates() {
        let text = "   0: ftsg_bench::experiments::alloc_sites::note
             at ./crates/bench/src/experiments/alloc_sites.rs:58:25
   1: __rust_alloc
   2: alloc::raw_vec::RawVec<T,A>::with_capacity_in
             at /rustc/abc/library/alloc/src/raw_vec.rs:140:20
      alloc::vec::Vec<T>::with_capacity
             at /rustc/abc/library/alloc/src/vec/mod.rs:480:9
      sparsegrid::ndim::IndexedDownset::with_capacity
             at /src/crates/sparsegrid/src/ndim.rs:330:44
   3: ftsg_core::stack::robust_by_grid
             at ./crates/core/src/stack.rs:641:16
   4: ulfm_sim::comm::Comm::handle_err::h0123456789abcdef
             at ./crates/mpi-sim/src/comm.rs:270:9";
        assert_eq!(
            site_in(text),
            "sparsegrid::ndim::IndexedDownset::with_capacity (crates/sparsegrid/src/ndim.rs:330) \
             < ftsg_core::stack::robust_by_grid (crates/core/src/stack.rs:641)"
        );
        let (_, handler) = text.split_once("   4: ").unwrap();
        assert_eq!(
            site_in(handler),
            "ulfm_sim::comm::Comm::handle_err (crates/mpi-sim/src/comm.rs:270)"
        );
        assert_eq!(site_in("   0: std::rt::lang_start\n   1: main"), "(outside crates/)");
    }
}
