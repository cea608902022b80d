//! The checkpoint-codec section of `expt ckpt`: what the layer between a
//! gathered sub-grid and the disk costs, on the wall clock and in
//! allocator bytes, at the grid set of the benchmark's `ckpt_heavy`
//! workload (CR, n = 10, l = 4).
//!
//! * CRC-64 throughput of the production slice-by-8 [`Crc64`] against the
//!   byte-at-a-time reference [`crc64_bytewise`] — their **ratio** is what
//!   `expt regress` gates, because a ratio of two same-process timings
//!   survives the host factor;
//! * `CheckpointStore::write` and `read_latest_valid` of every sub-grid,
//!   milliseconds per round (write is fsync-bound on most hosts);
//! * allocator bytes one write round requests, beside what building each
//!   file as one `encode`d buffer would request — a count, not a timing.
//!
//! Timings are best-of-samples. Every row names its clock.
//!
//! [`Crc64`]: ftsg_core::checkpoint::Crc64
//! [`crc64_bytewise`]: ftsg_core::checkpoint::crc64_bytewise

use std::hint::black_box;
use std::time::Instant;

use advect2d::AdvectionProblem;
use ftsg_core::checkpoint::{crc64, crc64_bytewise};
use ftsg_core::{CheckpointStore, Technique};
use sparsegrid::{Grid2, GridSystem};

use crate::stamp::Stamp;
use crate::table::{sig3, Table};

/// The `ckpt_heavy` shape.
const N: u32 = 10;
const L: u32 = 4;
/// The floor `expt regress` holds the sliced-over-bytewise ratio to.
pub const CRC_RATIO_REQUIRED_MIN: f64 = 2.0;

/// One measured quantity.
#[derive(Debug, Clone)]
pub struct CodecRow {
    pub bench: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// `wall` (a timing on this host) or `count` (exact, host-independent).
    pub clock: &'static str,
}

/// Outcome of the codec section.
#[derive(Debug, Clone)]
pub struct CodecReport {
    pub stamp: &'static Stamp,
    pub n_grids: usize,
    /// Bytes one checkpoint round puts on disk.
    pub bytes_per_round: usize,
    pub rows: Vec<CodecRow>,
    /// Sliced CRC MB/s ÷ bytewise CRC MB/s — gated.
    pub crc_ratio: f64,
}

/// Every sub-grid of the `ckpt_heavy` system, at the initial condition.
fn grids() -> Vec<Grid2> {
    let sys = GridSystem::new(N, L, Technique::CheckpointRestart.layout());
    let problem = AdvectionProblem::standard();
    let ic = problem.initial();
    sys.grids().iter().map(|g| Grid2::from_fn(g.level, &ic)).collect()
}

/// Fastest of `iters` timed runs of `f`, seconds.
fn best(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..iters.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// `(sliced, bytewise)` CRC throughput over `encoded`, MB/s. Panics if the
/// two disagree on any buffer: a wrong checksum is not worth timing.
fn crc_throughput(encoded: &[Vec<u8>], iters: usize) -> (f64, f64) {
    for raw in encoded {
        assert_eq!(crc64(raw), crc64_bytewise(raw), "sliced CRC drifted from the reference");
    }
    let mb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let over_all = |crc: fn(&[u8]) -> u64| {
        best(iters, || {
            for raw in encoded {
                black_box(crc(black_box(raw)));
            }
        })
    };
    let (sliced, bytewise) = (over_all(crc64), over_all(crc64_bytewise));
    (mb / sliced, mb / bytewise)
}

/// The gated ratio alone (for `expt regress`): sliced over bytewise CRC
/// throughput on the largest `ckpt_heavy` sub-grid.
pub fn measure_crc_ratio(iters: usize) -> f64 {
    let largest = grids().into_iter().max_by_key(Grid2::byte_size).expect("the system has grids");
    let encoded = [CheckpointStore::encode(0, largest.level(), largest.values())];
    let (sliced, bytewise) = crc_throughput(&encoded, iters);
    sliced / bytewise
}

/// Run the section with `iters` timing samples per quantity.
/// `alloc_bytes` reads the calling binary's counting allocator (bytes
/// requested so far, all threads).
pub fn run(iters: usize, alloc_bytes: fn() -> u64) -> std::io::Result<CodecReport> {
    let grids = grids();
    let encoded: Vec<Vec<u8>> =
        grids.iter().map(|g| CheckpointStore::encode(0, g.level(), g.values())).collect();
    let bytes_per_round: usize = encoded.iter().map(Vec::len).sum();

    let (crc_sliced, crc_bytewise) = crc_throughput(&encoded, iters);

    let store = CheckpointStore::new(ftsg_core::config::default_ckpt_dir())?;
    let mut step = 0u64;
    let mut write_round = |store: &CheckpointStore| -> std::io::Result<()> {
        step += 1;
        for (id, g) in grids.iter().enumerate() {
            store.write(id, step, g)?;
        }
        Ok(())
    };
    write_round(&store)?; // warm-up: directory entries, retention at steady state
    write_round(&store)?;
    let mut io_error = None;
    let write_s = best(iters, || {
        if let Err(e) = write_round(&store) {
            io_error = Some(e);
        }
    });
    let read_s = best(iters, || {
        for id in 0..grids.len() {
            match store.read_latest_valid(id) {
                Ok((Some(_), 0)) => {}
                Ok(_) => panic!("the section's own checkpoint of grid {id} is gone or corrupt"),
                Err(e) => io_error = Some(e),
            }
        }
    });
    let before = alloc_bytes();
    write_round(&store)?;
    let write_alloc = alloc_bytes() - before;
    let before = alloc_bytes();
    for g in &grids {
        black_box(CheckpointStore::encode(0, g.level(), g.values()));
    }
    let encode_alloc = alloc_bytes() - before;
    store.clear()?;
    let _ = std::fs::remove_dir(store.dir());
    if let Some(e) = io_error {
        return Err(e);
    }

    let row = |bench, value, unit, clock| CodecRow { bench, value, unit, clock };
    Ok(CodecReport {
        stamp: Stamp::host(),
        n_grids: grids.len(),
        bytes_per_round,
        rows: vec![
            row("codec/crc_sliced", crc_sliced, "MB/s", "wall"),
            row("codec/crc_bytewise_reference", crc_bytewise, "MB/s", "wall"),
            row("codec/write_round", write_s * 1e3, "ms/round", "wall"),
            row("codec/read_latest_valid_round", read_s * 1e3, "ms/round", "wall"),
            row("codec/write_round_alloc", write_alloc as f64, "B/round", "count"),
            row("codec/encode_reference_round_alloc", encode_alloc as f64, "B/round", "count"),
        ],
        crc_ratio: crc_sliced / crc_bytewise,
    })
}

impl CodecReport {
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Checkpoint codec at the ckpt_heavy grid set (n={N}, l={L}: {} grids, {} bytes \
                 per round)",
                self.n_grids, self.bytes_per_round
            ),
            &["bench", "value", "unit", "clock"],
        );
        for r in &self.rows {
            t.row(vec![r.bench.into(), sig3(r.value), r.unit.into(), r.clock.into()]);
        }
        t
    }

    /// `BENCH_pr18.json` contents.
    pub fn to_json(&self, date: &str) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"bench\": \"{}\", \"value\": {:.3}, \"unit\": \"{}\", \"clock\": \"{}\"}}",
                    r.bench, r.value, r.unit, r.clock
                )
            })
            .collect();
        format!(
            "{{\n \"pr\": 18,\n \"date\": \"{date}\",\n \"note\": \"Checkpoint codec section of \
             expt-ckpt: the production slice-by-8 Crc64 vs the byte-at-a-time reference, \
             CheckpointStore::write / read_latest_valid of every sub-grid, and the allocator \
             bytes one streamed write round requests beside what building each file as one \
             encoded buffer would, at the grid set of the benchmark's ckpt_heavy workload. \
             Best-of-samples; wall rows are this host's, count rows are exact.\",\n \
             \"config\": {{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \
             \"n\": {N}, \"l\": {L}, \"grids\": {}, \"bytes_per_round\": {}}},\n \
             \"acceptance\": {{\n  \"crc_sliced_over_bytewise_ratio\": {:.4},\n  \
             \"crc_ratio_required_min\": {CRC_RATIO_REQUIRED_MIN:.1}\n }},\n \"results\": [\n{}\n ]\n}}\n",
            self.stamp.nproc,
            self.stamp.cpu,
            self.stamp.rustc,
            self.stamp.git,
            self.n_grids,
            self.bytes_per_round,
            self.crc_ratio,
            rows.join(",\n"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_is_complete_and_serializes() {
        let report = run(1, || 0).expect("the temp dir is writable");
        assert_eq!(report.rows.len(), 6);
        assert!(report.rows.iter().all(|r| r.value.is_finite() && r.value >= 0.0));
        assert!(report.rows.iter().all(|r| matches!(r.clock, "wall" | "count")));
        assert!(report.crc_ratio > 0.0);
        let json = report.to_json("2026-01-01");
        for key in ["\"nproc\"", "\"cpu\"", "\"rustc\"", "\"git\"", "\"clock\": \"count\""] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        assert_eq!(
            crate::experiments::regress::json_num(&json, "crc_ratio_required_min"),
            Some(CRC_RATIO_REQUIRED_MIN)
        );
    }
}
