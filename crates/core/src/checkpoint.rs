//! On-disk checkpoints for the Checkpoint/Restart technique.
//!
//! Group roots write their sub-grid to per-grid files ("taking periodic
//! checkpoints onto disks while the computation for each sub-grid is in
//! progress", §II-D). Writes are real file I/O — restart correctness is
//! genuinely exercised — and go through a temp-file + rename so a failure
//! mid-write can never corrupt a *completed* checkpoint. The cluster's
//! virtual disk cost (the paper's `T_IO`) is charged separately by the
//! caller via `Ctx::disk_write` / `Ctx::disk_write_async`.
//!
//! # Format v2
//!
//! Version 1 trusted its header and had no integrity check at all: a
//! length-preserving bit flip in the payload passed `read()` and CR
//! silently restarted from garbage, and a corrupt header with huge levels
//! drove `level.points()` into shift overflow *before* any validation.
//! Version 2 closes both holes:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"FTSGCKP2"
//! 8       1     format version byte (2)
//! 9       4     level i   (u32 LE, bounds-checked before any size math)
//! 13      4     level j   (u32 LE, bounds-checked before any size math)
//! 17      8     step      (u64 LE)
//! 25      8*n   payload   (f64 LE, n = (2^i+1)(2^j+1))
//! 25+8n   8     CRC-64/XZ (u64 LE, over all preceding bytes)
//! ```
//!
//! # Streaming writes, incremental CRC
//!
//! A checkpoint is never materialized as one encoded buffer on the write
//! path. [`CheckpointStore::write_raw`] streams the three regions of the
//! layout above into the tmp file in order — the 25-byte header, then the
//! payload, then the CRC trailer — and the payload *is* the grid's own
//! value bytes wherever the in-memory layout equals the little-endian
//! wire format (every little-endian target; elsewhere it is converted a
//! fixed-size chunk at a time). The checksum covers bytes that never sit
//! in one place, so it is computed incrementally: a [`Crc64`] is fed each
//! region as it is written and finished into the trailer. It processes
//! eight bytes per step through slice-by-8 tables and is bit-identical
//! to the byte-at-a-time loop kept as [`crc64_bytewise`].
//! [`CheckpointStore::encode`] / [`CheckpointStore::encode_nd`] remain
//! the whole-buffer reference the streamed file is pinned against, byte
//! for byte, so corruption strikes and repro specs keep addressing the
//! same offsets.
//!
//! Files are *versioned*: each write lands in `grid_NNNN.sSSSSSSSSSSSS.ckpt`
//! (step-stamped, so newest = highest step) and the store retains the last
//! `retain` checkpoints per grid. [`CheckpointStore::read_latest_valid`]
//! walks candidates newest-first and falls back past a corrupt or torn file
//! instead of erroring the whole restart — a restart must never consume a
//! corrupt checkpoint, and a single bad file must not cost more than one
//! checkpoint period of recomputation.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sparsegrid::{ComponentGrid, Grid2, GridN, LevelPair, LevelVecN, MAX_DIM};
use ulfm_sim::MpiData;

const MAGIC: &[u8; 8] = b"FTSGCKP2";
const FORMAT_VERSION: u8 = 2;
/// Magic of the d-dimensional v3 format (see [`CheckpointStore::encode_nd`]).
const MAGIC3: &[u8; 8] = b"FTSGCKP3";
const FORMAT_VERSION3: u8 = 3;
/// v3 header bytes before the level vector: magic + version + dim + step.
/// A header may claim at most [`MAX_DIM`] axes — the most a level vector
/// holds, and few enough that the level bound keeps the payload size math
/// inside u64.
const HEADER3_FIXED: usize = 8 + 1 + 4 + 8;
/// Header bytes before the payload: magic + version + i + j + step.
const HEADER_LEN: usize = 8 + 1 + 4 + 4 + 8;
/// Fixed overhead of a v2 file: header + trailing CRC-64.
pub const OVERHEAD: usize = HEADER_LEN + 8;
/// Largest per-dimension level a checkpoint header may claim. `2^26 + 1`
/// points per dimension is already far beyond anything this code runs;
/// everything above is treated as a corrupt header, *before* any size
/// computation can overflow.
const MAX_LEVEL: u32 = 26;
/// Default number of checkpoints retained per grid. Two is the minimum
/// that lets a restart fall back past one corrupt/torn file.
const DEFAULT_RETAIN: usize = 2;

/// Per-writer tmp-file discriminator: two roots checkpointing the same
/// grid id concurrently (e.g. during a repair retry) must never clobber
/// each other's in-flight tmp file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A successfully restored checkpoint: `(step, grid, bytes on disk)`.
pub type Restored = (u64, Grid2, usize);

/// A whole sub-grid as one checkpoint file: the one place that picks the
/// format, v2 for [`Grid2`] and v3 for [`GridN`]. Both formats share the
/// per-grid file names, with the same atomicity, corruption-strike and
/// retention rules ([`CheckpointStore::write`]), and are told apart by
/// magic when a file is decoded.
pub trait CheckpointGrid: ComponentGrid {
    /// The length of this grid's checkpoint file: what the virtual disk
    /// charges for writing it.
    fn file_len(&self) -> usize;
    /// Stream this grid to `store` as the checkpoint of `grid_id` at
    /// `step`; returns the file's length.
    fn write_to(&self, store: &CheckpointStore, grid_id: usize, step: u64) -> io::Result<usize>;
    /// Decode a checkpoint file of this grid's format onto it, with
    /// [`CheckpointStore::decode_into`]'s contract; returns the step.
    fn decode_onto(&mut self, raw: &[u8]) -> Result<u64, String>;
}

impl CheckpointGrid for Grid2 {
    fn file_len(&self) -> usize {
        OVERHEAD + self.byte_size()
    }
    fn write_to(&self, store: &CheckpointStore, grid_id: usize, step: u64) -> io::Result<usize> {
        store.write_raw(grid_id, step, self.level(), self.values())
    }
    fn decode_onto(&mut self, raw: &[u8]) -> Result<u64, String> {
        CheckpointStore::decode_into(raw, self)
    }
}

impl CheckpointGrid for GridN {
    fn file_len(&self) -> usize {
        HEADER3_FIXED + 4 * self.level().len() + self.byte_size() + 8
    }
    fn write_to(&self, store: &CheckpointStore, grid_id: usize, step: u64) -> io::Result<usize> {
        store.write_raw_nd(grid_id, step, self.level(), self.values())
    }
    fn decode_onto(&mut self, raw: &[u8]) -> Result<u64, String> {
        CheckpointStore::decode_nd_into(raw, self)
    }
}

// ---------------------------------------------------------------------------
// CRC-64/XZ (ECMA-182 polynomial, reflected, init/xorout = !0)
// ---------------------------------------------------------------------------

const CRC64_POLY_REFLECTED: u64 = 0xC96C_5795_D787_0F42;

/// The slice-by-8 tables: `T[0]` is the classic byte table; `T[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u64;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC64_POLY_REFLECTED } else { crc >> 1 };
            k += 1;
        }
        tables[0][n] = crc;
        n += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut n = 0;
        while n < 256 {
            let prev = tables[t - 1][n];
            tables[t][n] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            n += 1;
        }
        t += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

/// An incremental CRC-64/XZ: feed the data in any number of pieces with
/// [`update`](Crc64::update), read the checksum with
/// [`finish`](Crc64::finish). However the input is split, the result is
/// [`crc64`] of the concatenation.
#[derive(Debug, Clone)]
pub struct Crc64 {
    /// The running register (init `!0`; the xorout is applied by `finish`).
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    /// A checksum over no data yet.
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Absorb `data`: eight bytes per step through the sliced tables, the
    /// ragged tail byte by byte.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC64_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for word in &mut words {
            let w = crc ^ u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            crc = t[7][(w & 0xff) as usize]
                ^ t[6][((w >> 8) & 0xff) as usize]
                ^ t[5][((w >> 16) & 0xff) as usize]
                ^ t[4][((w >> 24) & 0xff) as usize]
                ^ t[3][((w >> 32) & 0xff) as usize]
                ^ t[2][((w >> 40) & 0xff) as usize]
                ^ t[1][((w >> 48) & 0xff) as usize]
                ^ t[0][(w >> 56) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// CRC-64/XZ of `data` (the widely used check is
/// `crc64(b"123456789") == 0x995D_C9BB_DF19_39FA`).
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = Crc64::new();
    crc.update(data);
    crc.finish()
}

/// The byte-at-a-time CRC-64/XZ: the pinned reference [`Crc64`] is tested
/// and timed against. No production path calls it.
pub fn crc64_bytewise(data: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in data {
        crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Fault-injection: deliberate corruption of just-written checkpoints
// ---------------------------------------------------------------------------

/// How to damage a checkpoint file (chaos-campaign corruption injector).
///
/// Real writes go through tmp + rename, so a torn `*.ckpt` cannot occur
/// naturally here; the injector simulates a filesystem or device that lied
/// about durability (the failure mode the CRC + fallback exist for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip bit `bit % 8` of byte `offset % len` — a silent media error.
    BitFlip { offset: u64, bit: u8 },
    /// Truncate the file to `max(1, len * keep_pct / 100)` bytes — a torn
    /// write.
    Torn { keep_pct: u8 },
    /// Overwrite the first 16 bytes with `0xFF` — a trashed header with
    /// absurd levels (exercises the bounds check, satellite bugfix).
    GarbageHeader,
}

/// Damage the checkpoint of `grid_id` taken at `step`, once it lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionStrike {
    pub grid_id: usize,
    pub step: u64,
    pub kind: CorruptKind,
}

/// A set of corruption strikes to apply as checkpoints are written.
/// Empty by default (no corruption).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionPlan {
    pub strikes: Vec<CorruptionStrike>,
}

impl CorruptionPlan {
    /// A plan with no strikes.
    pub fn none() -> Self {
        CorruptionPlan::default()
    }

    /// A plan with a single strike.
    pub fn one(strike: CorruptionStrike) -> Self {
        CorruptionPlan { strikes: vec![strike] }
    }

    fn matching(&self, grid_id: usize, step: u64) -> Option<&CorruptionStrike> {
        self.strikes.iter().find(|s| s.grid_id == grid_id && s.step == step)
    }
}

fn apply_strike(path: &Path, kind: CorruptKind) -> io::Result<()> {
    let mut buf = fs::read(path)?;
    if buf.is_empty() {
        return Ok(());
    }
    match kind {
        CorruptKind::BitFlip { offset, bit } => {
            let idx = (offset % buf.len() as u64) as usize;
            buf[idx] ^= 1 << (bit % 8);
        }
        CorruptKind::Torn { keep_pct } => {
            let keep = ((buf.len() as u64 * u64::from(keep_pct.min(99)) / 100).max(1)) as usize;
            buf.truncate(keep);
        }
        CorruptKind::GarbageHeader => {
            let n = buf.len().min(16);
            buf[..n].fill(0xFF);
        }
    }
    fs::write(path, &buf)
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// A directory of per-grid, step-versioned checkpoint files.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    corruption: CorruptionPlan,
    /// Strikes actually applied to landed files, counted across every rank
    /// that shares this store. A planned write may never land — a kill
    /// before it, or a later checkpoint or the recovery barrier superseding
    /// it on the virtual clock — so restart-integrity oracles must key off
    /// "the corruption landed", not "a strike was planned".
    applied: AtomicU64,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn new(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
            retain: DEFAULT_RETAIN,
            corruption: CorruptionPlan::none(),
            applied: AtomicU64::new(0),
        })
    }

    /// How many corruption strikes have landed on completed checkpoint
    /// files, by any rank sharing this store.
    pub fn corruptions_applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// Keep the last `k` checkpoints per grid (minimum 1; default 2).
    pub fn with_retention(mut self, k: usize) -> Self {
        self.retain = k.max(1);
        self
    }

    /// Attach a fault-injection corruption plan: each strike damages the
    /// matching checkpoint file immediately after its write completes.
    pub fn with_corruption(mut self, plan: CorruptionPlan) -> Self {
        self.corruption = plan;
        self
    }

    fn path(&self, grid_id: usize, step: u64) -> PathBuf {
        self.dir.join(format!("grid_{grid_id:04}.s{step:012}.ckpt"))
    }

    /// Step-stamped checkpoint files of one grid, newest (highest step)
    /// first.
    ///
    /// Every write's prune and every restore scans the whole directory —
    /// all grids' files — so entries are matched on the borrowed bytes of
    /// their name and a path is only built for files of the asked-for
    /// grid.
    pub(crate) fn candidates(&self, grid_id: usize) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut prefix = [0u8; 40];
        let mut cursor = io::Cursor::new(&mut prefix[..]);
        write!(cursor, "grid_{grid_id:04}.s").expect("a usize has at most 20 digits");
        let len = cursor.position() as usize;
        let prefix = &prefix[..len];
        let entries = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut found = Vec::new();
        for entry in entries {
            let name = entry?.file_name();
            if let Some(step) = name
                .as_encoded_bytes()
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(b".ckpt"))
                .and_then(|digits| std::str::from_utf8(digits).ok())
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                found.push((step, self.dir.join(&name)));
            }
        }
        found.sort_by_key(|entry| std::cmp::Reverse(entry.0));
        Ok(found)
    }

    /// The v2 header: magic, version, level pair, step.
    fn header(step: u64, level: LevelPair) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(MAGIC);
        h[8] = FORMAT_VERSION;
        h[9..13].copy_from_slice(&level.i.to_le_bytes());
        h[13..17].copy_from_slice(&level.j.to_le_bytes());
        h[17..25].copy_from_slice(&step.to_le_bytes());
        h
    }

    /// Serialize a checkpoint into the v2 wire format, as one buffer: the
    /// reference the streamed [`write_raw`](Self::write_raw) is pinned
    /// against.
    pub fn encode(step: u64, level: LevelPair, values: &[f64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(OVERHEAD + values.len() * 8);
        buf.extend_from_slice(&Self::header(step, level));
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parse and validate a v2 checkpoint buffer. Every field is checked
    /// *before* it is used: level bounds before any size computation (a
    /// corrupt header must not drive `points()` into overflow), declared
    /// size before reading the payload, CRC before trusting any of it.
    pub fn decode(raw: &[u8]) -> Result<(u64, Grid2), String> {
        let (step, level, payload) = Self::parse(raw)?;
        let mut values = Vec::with_capacity(payload.len() / 8);
        f64::extend_from_raw(payload, &mut values);
        Grid2::from_raw(level, values).map(|grid| (step, grid))
    }

    /// [`decode`](Self::decode) onto a grid the caller owns: `out` is
    /// re-shaped to the checkpoint's level, keeping its allocation, and
    /// overwritten; returns the step. A buffer that fails validation
    /// leaves `out` untouched.
    pub fn decode_into(raw: &[u8], out: &mut Grid2) -> Result<u64, String> {
        let (step, level, payload) = Self::parse(raw)?;
        out.reshape(level);
        f64::copy_from_raw(payload, out.values_mut());
        Ok(step)
    }

    /// The validated step, level and payload bytes of a v2 buffer (see
    /// [`decode`](Self::decode)).
    fn parse(raw: &[u8]) -> Result<(u64, LevelPair, &[u8]), String> {
        if raw.len() < OVERHEAD {
            return Err(format!("truncated checkpoint ({} bytes; torn write?)", raw.len()));
        }
        if &raw[..8] != MAGIC {
            return Err("bad checkpoint magic".to_string());
        }
        if raw[8] != FORMAT_VERSION {
            return Err(format!("unsupported checkpoint format version {}", raw[8]));
        }
        let i = u32::from_le_bytes(raw[9..13].try_into().unwrap());
        let j = u32::from_le_bytes(raw[13..17].try_into().unwrap());
        if i > MAX_LEVEL || j > MAX_LEVEL {
            return Err(format!("absurd level pair ({i}, {j}) in checkpoint header"));
        }
        let step = u64::from_le_bytes(raw[17..25].try_into().unwrap());
        // Levels are bounded, so this cannot overflow u64.
        let points = ((1u64 << i) + 1) * ((1u64 << j) + 1);
        let expect = OVERHEAD as u64 + 8 * points;
        if raw.len() as u64 != expect {
            return Err(format!(
                "checkpoint payload size mismatch (have {}, header implies {expect})",
                raw.len()
            ));
        }
        let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
        let computed = crc64(&raw[..raw.len() - 8]);
        if stored != computed {
            return Err(format!(
                "checkpoint checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ));
        }
        Ok((step, LevelPair::new(i, j), &raw[HEADER_LEN..raw.len() - 8]))
    }

    /// Write a checkpoint of a grid, in its format ([`CheckpointGrid`]).
    /// Returns the file's size, for disk-cost accounting.
    pub fn write<G: CheckpointGrid>(
        &self,
        grid_id: usize,
        step: u64,
        grid: &G,
    ) -> io::Result<usize> {
        grid.write_to(self, grid_id, step)
    }

    /// Write a checkpoint from raw parts, streamed: header, payload and
    /// CRC trailer go to the file in order and no encoded copy of the grid
    /// is built (see the module doc). The file lands atomically via tmp +
    /// rename, the parent directory is fsynced, any matching corruption
    /// strike is applied, and retention pruning keeps the newest `retain`
    /// files for the grid.
    pub fn write_raw(
        &self,
        grid_id: usize,
        step: u64,
        level: LevelPair,
        values: &[f64],
    ) -> io::Result<usize> {
        self.land(grid_id, step, &Self::header(step, level), values)
    }

    /// Land a checkpoint on disk: stream `header`, the little-endian
    /// `values` and the CRC-64 of both into a tmp file, then `sync_all` +
    /// rename + dir fsync, then corruption strikes and retention pruning.
    /// Shared by the v2 (2D) and v3 (d-dimensional) write paths. Returns
    /// the file's size.
    fn land(&self, grid_id: usize, step: u64, header: &[u8], values: &[f64]) -> io::Result<usize> {
        let tmp = self.dir.join(format!(
            ".grid_{grid_id:04}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            let mut crc = Crc64::new();
            let mut put = |bytes: &[u8]| {
                crc.update(bytes);
                f.write_all(bytes)
            };
            put(header)?;
            match f64::as_wire(values) {
                Some(bytes) => put(bytes)?,
                None => {
                    let mut chunk = [0u8; 8 * 512];
                    for vals in values.chunks(512) {
                        for (slot, v) in chunk.chunks_exact_mut(8).zip(vals) {
                            slot.copy_from_slice(&v.to_le_bytes());
                        }
                        put(&chunk[..8 * vals.len()])?;
                    }
                }
            }
            let trailer = crc.finish().to_le_bytes();
            f.write_all(&trailer)?;
            f.sync_all()?;
        }
        let dst = self.path(grid_id, step);
        fs::rename(&tmp, &dst)?;
        // The rename itself lives in the directory: without fsyncing it,
        // a crash can roll the directory entry back to the *old*
        // checkpoint-or-nothing state, breaking the durability the
        // restart path relies on.
        self.sync_dir()?;
        if let Some(strike) = self.corruption.matching(grid_id, step) {
            apply_strike(&dst, strike.kind)?;
            self.applied.fetch_add(1, Ordering::SeqCst);
        }
        self.prune(grid_id)?;
        Ok(header.len() + 8 * values.len() + 8)
    }

    fn prune(&self, grid_id: usize) -> io::Result<()> {
        for (_, path) in self.candidates(grid_id)?.into_iter().skip(self.retain) {
            match fs::remove_file(&path) {
                Ok(()) => {}
                // Another root may have pruned it concurrently.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn sync_dir(&self) -> io::Result<()> {
        #[cfg(unix)]
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn read_file(path: &Path) -> io::Result<Vec<u8>> {
        let mut raw = Vec::new();
        fs::File::open(path)?.read_to_end(&mut raw)?;
        Ok(raw)
    }

    /// Strictly read the newest checkpoint of a grid, if one exists: a
    /// corrupt newest file is an *error* here, not a fallback. Restart
    /// paths should use [`CheckpointStore::read_latest_valid`] instead;
    /// this is for tests and tooling that must see corruption.
    pub fn read(&self, grid_id: usize) -> io::Result<Option<(u64, Grid2, usize)>> {
        let candidates = self.candidates(grid_id)?;
        let Some((_, path)) = candidates.first() else {
            return Ok(None);
        };
        let raw = match Self::read_file(path) {
            Ok(raw) => raw,
            // Lost a race with a concurrent prune: the next-newest file
            // is someone else's fresher write landing, not corruption.
            Err(e) if e.kind() == io::ErrorKind::NotFound => return self.read(grid_id),
            Err(e) => return Err(e),
        };
        let (step, grid) =
            Self::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Some((step, grid, raw.len())))
    }

    /// Read the newest *valid* checkpoint of a grid, falling back past
    /// corrupt or torn files. Returns the restored `(step, grid, bytes)`
    /// (or `None` when no valid checkpoint survives — the restart then
    /// recomputes from the initial condition) together with the number of
    /// corrupt candidates skipped, for restart-integrity reporting.
    pub fn read_latest_valid(&self, grid_id: usize) -> io::Result<(Option<Restored>, usize)> {
        let (restored, skipped) = self.latest_valid(grid_id, Self::decode)?;
        Ok((restored.map(|((step, grid), bytes)| (step, grid, bytes)), skipped))
    }

    /// [`read_latest_valid`](Self::read_latest_valid) decoding onto a grid
    /// the caller owns, in its format ([`CheckpointGrid::decode_onto`]):
    /// returns `(step, bytes)` of the restored checkpoint. A file of the
    /// other format counts as corrupt. `out` is untouched when none is
    /// valid.
    pub fn read_latest_valid_into<G: CheckpointGrid>(
        &self,
        grid_id: usize,
        out: &mut G,
    ) -> io::Result<(Option<(u64, usize)>, usize)> {
        self.latest_valid(grid_id, |raw| out.decode_onto(raw))
    }

    /// The newest file of `grid_id` that `decode` accepts, with its size,
    /// and how many newer ones it refused.
    fn latest_valid<T>(
        &self,
        grid_id: usize,
        mut decode: impl FnMut(&[u8]) -> Result<T, String>,
    ) -> io::Result<(Option<(T, usize)>, usize)> {
        let mut skipped = 0usize;
        for (_, path) in self.candidates(grid_id)? {
            let raw = match Self::read_file(&path) {
                Ok(raw) => raw,
                // Pruned from under us by a concurrent writer; not corrupt.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            match decode(&raw) {
                Ok(restored) => return Ok((Some((restored, raw.len())), skipped)),
                Err(_) => skipped += 1,
            }
        }
        Ok((None, skipped))
    }

    // -----------------------------------------------------------------------
    // Format v3: d-dimensional checkpoints
    // -----------------------------------------------------------------------

    /// Serialize a d-dimensional checkpoint into the v3 wire format:
    ///
    /// ```text
    /// offset    size  field
    /// 0         8     magic  b"FTSGCKP3"
    /// 8         1     format version byte (3)
    /// 9         4     dim d     (u32 LE, bounds-checked first)
    /// 13        8     step      (u64 LE)
    /// 21        4*d   levels    (u32 LE each, bounds-checked before size math)
    /// 21+4d     8*n   payload   (f64 LE, n = ∏(2^l_i + 1))
    /// ...       8     CRC-64/XZ (u64 LE, over all preceding bytes)
    /// ```
    ///
    /// Same integrity discipline as v2: bounded header fields before any
    /// size computation, exact-length check, CRC over everything.
    pub fn encode_nd(step: u64, level: &[u32], values: &[f64]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER3_FIXED + 4 * level.len() + 8 * values.len() + 8);
        Self::header_nd(step, level, &mut buf);
        for v in values {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Append the v3 header: magic, version, dim, step, level vector.
    fn header_nd(step: u64, level: &[u32], out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC3);
        out.push(FORMAT_VERSION3);
        out.extend_from_slice(&(level.len() as u32).to_le_bytes());
        out.extend_from_slice(&step.to_le_bytes());
        for &l in level {
            out.extend_from_slice(&l.to_le_bytes());
        }
    }

    /// Parse and validate a v3 checkpoint buffer onto a grid the caller
    /// owns, with [`decode_into`](Self::decode_into)'s contract and the
    /// same check-before-use discipline as [`CheckpointStore::decode`]:
    /// the dimension is bounded before the level vector is read, every
    /// level is bounded before the point count is computed (`d ≤ 8` levels
    /// of `≤ 2^26 + 1` points stay far inside `u64` via a u128 product),
    /// the declared size must match exactly, and the CRC gates everything.
    pub fn decode_nd_into(raw: &[u8], out: &mut GridN) -> Result<u64, String> {
        let (step, level, payload) = Self::parse_nd(raw)?;
        out.reshape(&level);
        f64::copy_from_raw(payload, out.values_mut());
        Ok(step)
    }

    /// The validated step, level vector and payload bytes of a v3 buffer
    /// (see [`decode_nd_into`](Self::decode_nd_into)).
    fn parse_nd(raw: &[u8]) -> Result<(u64, LevelVecN, &[u8]), String> {
        if raw.len() < HEADER3_FIXED + 4 + 8 {
            return Err(format!("truncated checkpoint ({} bytes; torn write?)", raw.len()));
        }
        if &raw[..8] != MAGIC3 {
            return Err("bad checkpoint magic (not a v3 d-dimensional file)".to_string());
        }
        if raw[8] != FORMAT_VERSION3 {
            return Err(format!("unsupported checkpoint format version {}", raw[8]));
        }
        let dim = u32::from_le_bytes(raw[9..13].try_into().unwrap()) as usize;
        if dim == 0 || dim > MAX_DIM {
            return Err(format!("absurd dimension {dim} in checkpoint header"));
        }
        let step = u64::from_le_bytes(raw[13..21].try_into().unwrap());
        let header_len = HEADER3_FIXED + 4 * dim;
        if raw.len() < header_len + 8 {
            return Err(format!("truncated checkpoint ({} bytes; torn write?)", raw.len()));
        }
        let mut level = LevelVecN::splat(0, dim);
        let mut points = 1u128;
        for (a, axis) in level.iter_mut().enumerate() {
            let l = u32::from_le_bytes(raw[HEADER3_FIXED + 4 * a..][..4].try_into().unwrap());
            if l > MAX_LEVEL {
                return Err(format!("absurd level {l} on axis {a} in checkpoint header"));
            }
            points *= (1u128 << l) + 1;
            *axis = l;
        }
        let expect = (header_len + 8) as u128 + 8 * points;
        if raw.len() as u128 != expect {
            return Err(format!(
                "checkpoint payload size mismatch (have {}, header implies {expect})",
                raw.len()
            ));
        }
        let stored = u64::from_le_bytes(raw[raw.len() - 8..].try_into().unwrap());
        let computed = crc64(&raw[..raw.len() - 8]);
        if stored != computed {
            return Err(format!(
                "checkpoint checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ));
        }
        Ok((step, level, &raw[header_len..raw.len() - 8]))
    }

    /// Write a d-dimensional checkpoint from raw parts, streamed like
    /// [`CheckpointStore::write_raw`]. A level that no v3 header can hold
    /// (no axes, more than [`MAX_DIM`], or a level beyond the codec's
    /// bound) is refused with `InvalidInput`: its file could never be
    /// read back.
    pub fn write_raw_nd(
        &self,
        grid_id: usize,
        step: u64,
        level: &[u32],
        values: &[f64],
    ) -> io::Result<usize> {
        if level.is_empty() || level.len() > MAX_DIM || level.iter().any(|&l| l > MAX_LEVEL) {
            let bounds = format!("1 to {MAX_DIM} axes, each at most {MAX_LEVEL}");
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a v3 checkpoint cannot hold level {level:?} ({bounds})"),
            ));
        }
        let mut header = Vec::with_capacity(HEADER3_FIXED + 4 * level.len());
        Self::header_nd(step, level, &mut header);
        self.land(grid_id, step, &header, values)
    }

    /// Remove every checkpoint file (end-of-run cleanup). Only this
    /// store's `*.ckpt` and in-flight `.*.tmp` files are removed; the
    /// directory itself is kept so the store stays usable — a subsequent
    /// [`CheckpointStore::write`] must not fail for want of a tmp-file
    /// parent.
    pub fn clear(&self) -> io::Result<()> {
        let entries = match fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let ours = name.ends_with(".ckpt") || (name.starts_with('.') && name.ends_with(".tmp"));
            if ours {
                match fs::remove_file(entry.path()) {
                    Ok(()) => {}
                    // Another root may have cleaned it up concurrently.
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// The directory behind this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// A store on a directory of its own, which goes, with whatever it holds,
/// when the fixture drops: unit tests leave nothing in the temp dir. It
/// reads as the store it wraps.
#[cfg(test)]
pub(crate) struct ScratchStore(Option<CheckpointStore>);

#[cfg(test)]
impl ScratchStore {
    pub(crate) fn new() -> Self {
        ScratchStore(Some(CheckpointStore::new(crate::config::default_ckpt_dir()).unwrap()))
    }

    pub(crate) fn with_retention(self, k: usize) -> Self {
        self.map(|s| s.with_retention(k))
    }

    pub(crate) fn with_corruption(self, plan: CorruptionPlan) -> Self {
        self.map(|s| s.with_corruption(plan))
    }

    fn map(mut self, f: impl FnOnce(CheckpointStore) -> CheckpointStore) -> Self {
        ScratchStore(self.0.take().map(f))
    }
}

#[cfg(test)]
impl std::ops::Deref for ScratchStore {
    type Target = CheckpointStore;

    fn deref(&self) -> &CheckpointStore {
        self.0.as_ref().expect("a scratch store holds its store until it drops")
    }
}

#[cfg(test)]
impl Drop for ScratchStore {
    fn drop(&mut self) {
        if let Some(store) = &self.0 {
            let _ = fs::remove_dir_all(store.dir());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ScratchStore {
        ScratchStore::new()
    }

    #[test]
    fn a_scratch_store_takes_its_directory_with_it() {
        let s = store().with_retention(2);
        let dir = s.dir().to_path_buf();
        s.write(0, 7, &Grid2::from_fn(LevelPair::new(2, 2), |x, y| x + y)).unwrap();
        assert!(dir.is_dir() && fs::read_dir(&dir).unwrap().count() == 1);
        drop(s);
        assert!(!dir.exists(), "{} outlived its fixture", dir.display());
    }

    #[test]
    fn crc64_known_answer() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn roundtrip_preserves_grid_and_step() {
        let s = store();
        let g = Grid2::from_fn(LevelPair::new(4, 3), |x, y| (x * 3.0).sin() - y);
        let wrote = s.write(2, 1234, &g).unwrap();
        assert_eq!(wrote, OVERHEAD + g.byte_size());
        let (step, back, read_bytes) = s.read(2).unwrap().unwrap();
        assert_eq!(step, 1234);
        assert_eq!(back, g);
        assert_eq!(read_bytes, wrote);
        s.clear().unwrap();
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let s = store();
        assert!(s.read(7).unwrap().is_none());
        let (restored, skipped) = s.read_latest_valid(7).unwrap();
        assert!(restored.is_none());
        assert_eq!(skipped, 0);
        s.clear().unwrap();
    }

    #[test]
    fn newest_step_wins() {
        let s = store();
        let g1 = Grid2::from_fn(LevelPair::new(2, 2), |x, _| x);
        let g2 = Grid2::from_fn(LevelPair::new(2, 2), |_, y| y);
        s.write(0, 10, &g1).unwrap();
        s.write(0, 20, &g2).unwrap();
        let (step, back, _) = s.read(0).unwrap().unwrap();
        assert_eq!(step, 20);
        assert_eq!(back, g2);
        s.clear().unwrap();
    }

    #[test]
    fn retention_keeps_last_k_per_grid() {
        let s = store().with_retention(2);
        let g = Grid2::from_fn(LevelPair::new(2, 2), |x, y| x * y);
        for step in [5, 10, 15, 20] {
            s.write(0, step, &g).unwrap();
        }
        let steps: Vec<u64> = s.candidates(0).unwrap().into_iter().map(|(st, _)| st).collect();
        assert_eq!(steps, vec![20, 15]);
        s.clear().unwrap();
    }

    #[test]
    fn garbage_file_is_an_error_not_garbage() {
        let s = store();
        std::fs::write(s.dir().join("grid_0003.s000000000007.ckpt"), b"not a checkpoint").unwrap();
        assert!(s.read(3).is_err());
        let (restored, skipped) = s.read_latest_valid(3).unwrap();
        assert!(restored.is_none(), "no valid fallback exists");
        assert_eq!(skipped, 1);
        s.clear().unwrap();
    }

    #[test]
    fn payload_bit_flip_is_detected() {
        // Regression for the v1 hole: a length-preserving corruption used
        // to pass read() and CR restarted from garbage.
        let s = store();
        let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x + y);
        s.write(1, 40, &g).unwrap();
        let path = s.path(1, 40);
        let mut raw = std::fs::read(&path).unwrap();
        raw[HEADER_LEN + 11] ^= 0x10; // one bit, mid-payload, length preserved
        std::fs::write(&path, &raw).unwrap();
        let err = s.read(1).unwrap_err();
        assert!(err.to_string().contains("checksum"), "got: {err}");
        s.clear().unwrap();
    }

    #[test]
    fn torn_write_is_detected() {
        let s = store();
        let g = Grid2::from_fn(LevelPair::new(3, 2), |x, y| x - y);
        s.write(1, 8, &g).unwrap();
        let path = s.path(1, 8);
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        assert!(s.read(1).is_err());
        s.clear().unwrap();
    }

    #[test]
    fn absurd_header_levels_are_rejected_before_size_math() {
        // Regression (satellite bugfix): v1 computed level.points() from
        // the untrusted header, so i = 0xFFFFFFFF overflowed the shift.
        // A v2 header is bounds-checked first — even with a *valid* CRC.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.push(FORMAT_VERSION);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = CheckpointStore::decode(&buf).unwrap_err();
        assert!(err.contains("absurd level pair"), "got: {err}");

        let s = store();
        std::fs::write(s.dir().join("grid_0002.s000000000003.ckpt"), &buf).unwrap();
        assert!(s.read(2).is_err(), "store read must error, not panic");
        let (restored, skipped) = s.read_latest_valid(2).unwrap();
        assert!(restored.is_none());
        assert_eq!(skipped, 1);
        s.clear().unwrap();
    }

    // --- v3: d-dimensional checkpoints --------------------------------------

    fn grid3() -> GridN {
        GridN::from_fn(&[3, 2, 3], |x| (x[0] * 3.0).sin() - x[1] + 0.5 * x[2])
    }

    #[test]
    fn nd_roundtrip_preserves_grid_and_step() {
        let s = store();
        let g = grid3();
        let wrote = s.write(2, 1234, &g).unwrap();
        assert_eq!(wrote, HEADER3_FIXED + 4 * 3 + 8 + g.byte_size());
        let mut back = GridN::zeros(&[1, 1, 1]);
        let (restored, skipped) = s.read_latest_valid_into(2, &mut back).unwrap();
        let (step, read_bytes) = restored.unwrap();
        assert_eq!(step, 1234);
        assert_eq!(back.level(), g.level());
        assert_eq!(back.values(), g.values());
        assert_eq!(read_bytes, wrote);
        assert_eq!(skipped, 0);
        s.clear().unwrap();
    }

    #[test]
    fn nd_bit_flip_detected_and_fallback_past_it() {
        let s = store();
        let g = grid3();
        s.write(1, 10, &g).unwrap();
        s.write(1, 20, &g).unwrap();
        let path = s.path(1, 20);
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x04; // one bit, length preserved
        std::fs::write(&path, &raw).unwrap();
        let mut back = GridN::zeros(&[1, 1, 1]);
        let (restored, skipped) = s.read_latest_valid_into(1, &mut back).unwrap();
        let (step, _) = restored.expect("older valid checkpoint must be found");
        assert_eq!(step, 10, "fallback must land on the older valid file");
        assert_eq!(skipped, 1);
        s.clear().unwrap();
    }

    #[test]
    fn nd_absurd_header_rejected_before_size_math() {
        // A corrupt v3 header with a huge dim or level must be rejected
        // before any point-count computation can overflow.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC3);
        buf.push(FORMAT_VERSION3);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd dim
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&[0u8; 12]);
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let mut out = GridN::zeros(&[1, 1, 1]);
        let err = CheckpointStore::decode_nd_into(&buf, &mut out).unwrap_err();
        assert!(err.contains("absurd dimension"), "got: {err}");

        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC3);
        buf.push(FORMAT_VERSION3);
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&7u64.to_le_bytes());
        for l in [2u32, u32::MAX, 2u32] {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        let crc = crc64(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        let err = CheckpointStore::decode_nd_into(&buf, &mut out).unwrap_err();
        assert!(err.contains("absurd level"), "got: {err}");
    }

    #[test]
    fn nd_writes_only_what_a_v3_header_reads_back() {
        // MAX_DIM axes land and read back. One more used to land a file no
        // read accepts, so a restart at d = 9 skipped every checkpoint and
        // silently recomputed from the initial condition.
        let s = store();
        let level = [1u32; MAX_DIM];
        s.write_raw_nd(0, 4, &level, &vec![0.5; 3usize.pow(MAX_DIM as u32)]).unwrap();
        let mut back = GridN::zeros(&[1]);
        let (restored, skipped) = s.read_latest_valid_into(0, &mut back).unwrap();
        assert_eq!((restored.map(|(step, _)| step), skipped), (Some(4), 0));
        assert_eq!(back.level(), &level);
        let nine = [1u32; MAX_DIM + 1];
        let err = s.write_raw_nd(1, 4, &nine, &vec![0.5; 3usize.pow(MAX_DIM as u32 + 1)]);
        assert_eq!(err.unwrap_err().kind(), io::ErrorKind::InvalidInput);
        assert_eq!(s.write_raw_nd(1, 4, &[], &[]).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        let (restored, skipped) = s.read_latest_valid_into(1, &mut back).unwrap();
        assert_eq!((restored, skipped), (None, 0), "nothing was written");
        s.clear().unwrap();
    }

    #[test]
    fn nd_and_v2_formats_are_mutually_invalid() {
        let v2 = CheckpointStore::encode(5, LevelPair::new(2, 2), &[0.0; 25]);
        let err = CheckpointStore::decode_nd_into(&v2, &mut GridN::zeros(&[1, 1])).unwrap_err();
        assert!(err.contains("magic"), "got: {err}");
        let g = GridN::from_fn(&[2, 2], |x| x[0] + x[1]);
        let v3 = CheckpointStore::encode_nd(5, g.level(), g.values());
        let err = CheckpointStore::decode(&v3).unwrap_err();
        assert!(err.contains("magic"), "got: {err}");
    }

    #[test]
    fn read_latest_valid_falls_back_past_corruption() {
        let s = store().with_retention(3);
        let good = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x * 2.0 + y);
        let newer = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x - y);
        s.write(0, 10, &good).unwrap();
        s.write(0, 20, &newer).unwrap();
        let path = s.path(0, 20);
        let mut raw = std::fs::read(&path).unwrap();
        let n = raw.len();
        raw[n - 20] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let (restored, skipped) = s.read_latest_valid(0).unwrap();
        let (step, back, _) = restored.expect("older checkpoint must survive");
        assert_eq!(step, 10);
        assert_eq!(back, good);
        assert_eq!(skipped, 1);
        s.clear().unwrap();
    }

    #[test]
    fn a_restore_decodes_onto_the_callers_grid() {
        let s = store();
        let good = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x * 2.0 + y);
        s.write(0, 10, &good).unwrap();
        s.write(0, 20, &Grid2::from_fn(LevelPair::new(3, 3), |x, y| x - y)).unwrap();
        let path = s.path(0, 20);
        let mut raw = std::fs::read(&path).unwrap();
        raw[HEADER_LEN + 3] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        // A grid of another level with room to spare: re-shaped in place.
        let mut out = Grid2::from_fn(LevelPair::new(4, 3), |_, _| f64::NAN);
        let ptr = out.values().as_ptr();
        let (restored, skipped) = s.read_latest_valid_into(0, &mut out).unwrap();
        assert_eq!((restored, skipped), (Some((10, OVERHEAD + good.byte_size())), 1));
        assert_eq!((&out, out.values().as_ptr()), (&good, ptr));
        // Nothing valid: the caller's grid is left as it was.
        let (restored, skipped) = s.read_latest_valid_into(5, &mut out).unwrap();
        assert_eq!((restored, skipped, &out), (None, 0, &good));
        s.clear().unwrap();
        let g = grid3();
        s.write(1, 7, &g).unwrap();
        let mut out = GridN::zeros(&[1, 1, 1]);
        let (restored, _) = s.read_latest_valid_into(1, &mut out).unwrap();
        assert_eq!((restored.map(|r| r.0), &out), (Some(7), &g));
        s.clear().unwrap();
    }

    #[test]
    fn corruption_plan_strikes_the_matching_write() {
        let s = store().with_corruption(CorruptionPlan::one(CorruptionStrike {
            grid_id: 0,
            step: 20,
            kind: CorruptKind::BitFlip { offset: 1000, bit: 3 },
        }));
        let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x + 3.0 * y);
        s.write(0, 10, &g).unwrap();
        s.write(0, 20, &g).unwrap();
        assert!(s.read(0).is_err(), "strike must corrupt the step-20 file");
        let (restored, skipped) = s.read_latest_valid(0).unwrap();
        assert_eq!(restored.expect("fallback").0, 10);
        assert_eq!(skipped, 1);
        s.clear().unwrap();
    }

    #[test]
    fn torn_and_garbage_strikes_are_detected() {
        for kind in [CorruptKind::Torn { keep_pct: 60 }, CorruptKind::GarbageHeader] {
            let s = store().with_corruption(CorruptionPlan::one(CorruptionStrike {
                grid_id: 4,
                step: 6,
                kind,
            }));
            let g = Grid2::from_fn(LevelPair::new(2, 3), |x, y| x * y + 1.0);
            s.write(4, 6, &g).unwrap();
            assert!(s.read(4).is_err(), "{kind:?} must be detected");
            s.clear().unwrap();
        }
    }

    #[test]
    fn grids_are_isolated_by_id() {
        let s = store();
        let g = Grid2::from_fn(LevelPair::new(2, 2), |x, y| x + y);
        s.write(1, 5, &g).unwrap();
        assert!(s.read(0).unwrap().is_none());
        assert!(s.read(1).unwrap().is_some());
        s.clear().unwrap();
    }

    #[test]
    fn store_stays_usable_after_clear() {
        // Regression: clear() used to remove_dir_all the store directory,
        // so the next write failed with NotFound on the tmp file.
        let s = store();
        let g = Grid2::from_fn(LevelPair::new(3, 3), |x, y| x - 2.0 * y);
        s.write(0, 1, &g).unwrap();
        s.clear().unwrap();
        assert!(s.dir().is_dir(), "clear must keep the directory");
        assert!(s.read(0).unwrap().is_none(), "clear must remove the files");
        s.write(0, 2, &g).unwrap();
        let (step, back, _) = s.read(0).unwrap().unwrap();
        assert_eq!(step, 2);
        assert_eq!(back, g);
        // Idempotent, including on a directory someone else removed.
        s.clear().unwrap();
        std::fs::remove_dir_all(s.dir()).unwrap();
        s.clear().unwrap();
    }

    #[test]
    fn clear_leaves_foreign_files_alone() {
        let s = store();
        let foreign = s.dir().join("notes.txt");
        std::fs::write(&foreign, b"keep me").unwrap();
        let g = Grid2::from_fn(LevelPair::new(2, 2), |x, _| x);
        s.write(4, 9, &g).unwrap();
        s.clear().unwrap();
        assert!(foreign.is_file());
        assert!(s.read(4).unwrap().is_none());
        std::fs::remove_dir_all(s.dir()).unwrap();
    }

    #[test]
    fn concurrent_writers_to_one_grid_never_corrupt() {
        // Two roots may checkpoint the same grid id concurrently during a
        // repair retry; per-writer tmp names keep every rename atomic, so
        // every surviving file is a complete, checksummed write and the
        // newest step wins.
        let s = store();
        let ga = Grid2::from_fn(LevelPair::new(4, 4), |x, y| x + y);
        let gb = Grid2::from_fn(LevelPair::new(4, 4), |x, y| x * y);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for k in 0..50 {
                    s.write(0, 1000 + k, &gb).unwrap();
                }
            });
            for k in 0..50 {
                s.write(0, k, &ga).unwrap();
            }
        });
        let (step, back, _) = s.read(0).unwrap().unwrap();
        assert_eq!(step, 1049, "newest step must win");
        assert_eq!(back, gb);
        let (restored, skipped) = s.read_latest_valid(0).unwrap();
        assert!(restored.is_some());
        assert_eq!(skipped, 0);
        s.clear().unwrap();
    }
}
