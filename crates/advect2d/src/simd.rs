//! Explicitly vectorized row kernels, bitwise-pinned to the scalar
//! references, plus the kernel-selection knobs.
//!
//! ## Why operation order is preserved
//!
//! The fault-recovery machinery recomputes lost state from checkpoints or
//! initial conditions and relies on the solvers being **deterministic to
//! the bit** (see `tests/equivalence.rs` and DESIGN.md §13). IEEE-754
//! arithmetic is not associative, so a vectorized kernel is only admissible
//! if every output point evaluates *the same expression in the same
//! order* as the scalar reference. The kernels here satisfy that by
//! construction:
//!
//! * each SIMD lane evaluates the identical chain of `+`/`-`/`*` the
//!   scalar loop evaluates for that point — lanes are element-wise, no
//!   horizontal operations, no reassociation;
//! * **no FMA**: a fused multiply-add rounds once where `mul` + `add`
//!   round twice, which would change low bits, so the code never uses
//!   fused intrinsics and the portable lane type sticks to `*` and `+`
//!   (Rust never contracts float expressions implicitly);
//! * the scalar tail (widths not divisible by the lane count) runs the
//!   very same expression, so a row may be split between vector body and
//!   tail at any point without changing a single bit.
//!
//! Because of this, *any* mix of scalar and SIMD stepping — including a
//! recompute after a failure on a machine that selected a different ISA
//! backend — produces bit-identical grids. The proptests in
//! `tests/kernel_props.rs` pin this across random sizes, coefficients
//! and ragged widths for the 2D Lax–Wendroff row, and for the
//! d-dimensional upwind–diffusion and Jacobi rows against their
//! point-closure references (d = 1..4, every backend the CPU runs).
//! First-order upwind advection and FTCS diffusion in 2D are the
//! upwind–diffusion row at d = 2 with `κ = 0` or `a = 0`.
//!
//! ## Backends
//!
//! One generic lane-parallel body per stencil, instantiated over:
//!
//! * [`F64x4`] — a portable `[f64; 4]` element-wise lane type the
//!   compiler auto-vectorizes (SSE2 pairs at baseline, `ymm` inside the
//!   AVX2-enabled wrapper);
//! * `F64x8` — eight `f64` lanes over AVX-512 intrinsics (x86-64 only).
//!
//! The backend is picked once per process by runtime feature detection,
//! overridable with `FTSG_SIMD=portable|avx2|avx512` for A/B testing;
//! `FTSG_KERNEL=scalar` bypasses SIMD entirely and forces the reference
//! rows (the default is the fast path — it is bitwise-identical anyway).

use std::ops::{Add, Mul, Sub};
use std::sync::OnceLock;

use crate::laxwendroff::LwCoef;
use crate::ndsolve::{jacobi_row_n, upwind_diffusion_row_n, JacobiAxisN, UpwindAxisN};

// ---------------------------------------------------------------------
// Lane types
// ---------------------------------------------------------------------

/// Element-wise `f64` lane bundle: exactly the scalar `+`/`-`/`*` per
/// lane, nothing cross-lane, nothing fused.
pub(crate) trait Lanes:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    /// Lane count.
    const N: usize;
    /// All lanes set to `v`.
    fn splat(v: f64) -> Self;
    /// Unaligned load of `Self::N` consecutive values.
    ///
    /// # Safety
    /// `p` must be valid for reads of `Self::N` `f64`s.
    unsafe fn load(p: *const f64) -> Self;
    /// Unaligned store of `Self::N` consecutive values.
    ///
    /// # Safety
    /// `p` must be valid for writes of `Self::N` `f64`s.
    unsafe fn store(self, p: *mut f64);
}

/// Portable four-lane bundle. Plain array arithmetic: LLVM lowers it to
/// SSE2 pairs at the x86-64 baseline and to 256-bit `ymm` ops inside the
/// `#[target_feature(enable = "avx2")]` wrappers below; on other
/// architectures it lowers to whatever vector ISA is available.
#[derive(Clone, Copy)]
pub(crate) struct F64x4([f64; 4]);

macro_rules! elementwise_op {
    ($t:ident, $n:expr, $trait:ident, $m:ident, $op:tt) => {
        impl $trait for $t {
            type Output = $t;
            #[inline(always)]
            fn $m(self, o: $t) -> $t {
                let mut r = [0.0; $n];
                let mut i = 0;
                while i < $n {
                    r[i] = self.0[i] $op o.0[i];
                    i += 1;
                }
                $t(r)
            }
        }
    };
}
elementwise_op!(F64x4, 4, Add, add, +);
elementwise_op!(F64x4, 4, Sub, sub, -);
elementwise_op!(F64x4, 4, Mul, mul, *);

impl Lanes for F64x4 {
    const N: usize = 4;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: caller guarantees 4 readable f64s at `p`.
        F64x4(unsafe { (p as *const [f64; 4]).read_unaligned() })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: caller guarantees 4 writable f64s at `p`.
        unsafe { (p as *mut [f64; 4]).write_unaligned(self.0) }
    }
}

/// Eight-lane AVX-512 bundle. Every operation is a single per-lane IEEE
/// instruction (`vaddpd`/`vsubpd`/`vmulpd` on `zmm`), so results are
/// bit-identical to the scalar loop; deliberately **no** `vfmadd`.
///
/// # Safety contract
/// `F64x8` values are only ever created and operated on inside the
/// `#[target_feature(enable = "avx512f")]` wrappers, reached through the
/// runtime-detected [`isa`] dispatch — executing these intrinsics
/// without AVX-512F would be UB (illegal instruction), so the type is
/// crate-private and must not escape that call tree.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct F64x8(std::arch::x86_64::__m512d);

#[cfg(target_arch = "x86_64")]
macro_rules! avx512_op {
    ($trait:ident, $m:ident, $intr:ident) => {
        impl $trait for F64x8 {
            type Output = F64x8;
            #[inline(always)]
            fn $m(self, o: F64x8) -> F64x8 {
                // SAFETY: see the F64x8 safety contract — only executed
                // under the avx512f-guarded dispatch path.
                F64x8(unsafe { std::arch::x86_64::$intr(self.0, o.0) })
            }
        }
    };
}
#[cfg(target_arch = "x86_64")]
avx512_op!(Add, add, _mm512_add_pd);
#[cfg(target_arch = "x86_64")]
avx512_op!(Sub, sub, _mm512_sub_pd);
#[cfg(target_arch = "x86_64")]
avx512_op!(Mul, mul, _mm512_mul_pd);

#[cfg(target_arch = "x86_64")]
impl Lanes for F64x8 {
    const N: usize = 8;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: see the F64x8 safety contract.
        F64x8(unsafe { std::arch::x86_64::_mm512_set1_pd(v) })
    }
    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: caller guarantees 8 readable f64s; avx512f per contract.
        F64x8(unsafe { std::arch::x86_64::_mm512_loadu_pd(p) })
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: caller guarantees 8 writable f64s; avx512f per contract.
        unsafe { std::arch::x86_64::_mm512_storeu_pd(p, self.0) }
    }
}

// ---------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------

/// An instruction-set backend of the SIMD rows, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdIsa {
    /// Four portable lanes at the target's baseline vector ISA.
    Portable,
    /// The same four lanes compiled with AVX2 enabled.
    Avx2,
    /// Eight AVX-512 lanes.
    Avx512,
}

impl SimdIsa {
    /// `"portable"` / `"avx2"` / `"avx512"`, as `FTSG_SIMD` spells them.
    pub fn label(self) -> &'static str {
        match self {
            SimdIsa::Avx512 => "avx512",
            SimdIsa::Avx2 => "avx2",
            SimdIsa::Portable => "portable",
        }
    }

    /// The widest backend this CPU can run (runtime feature detection,
    /// resolved once per process).
    pub fn best() -> SimdIsa {
        static BEST: OnceLock<SimdIsa> = OnceLock::new();
        *BEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx512f") {
                    return SimdIsa::Avx512;
                }
                if is_x86_feature_detected!("avx2") {
                    return SimdIsa::Avx2;
                }
            }
            SimdIsa::Portable
        })
    }

    /// The backend the process steps with: the best one, unless
    /// `FTSG_SIMD` names a narrower one (an override is clamped to what
    /// the CPU can actually run). Resolved once per process.
    pub fn resolved() -> SimdIsa {
        static ISA: OnceLock<SimdIsa> = OnceLock::new();
        *ISA.get_or_init(|| {
            let want = std::env::var("FTSG_SIMD").unwrap_or_default();
            SimdIsa::available().find(|isa| isa.label() == want).unwrap_or(SimdIsa::best())
        })
    }

    /// Every backend this CPU can run, narrowest first (for benchmarks
    /// and tests that sweep them in one process).
    pub fn available() -> impl Iterator<Item = SimdIsa> {
        [SimdIsa::Portable, SimdIsa::Avx2, SimdIsa::Avx512]
            .into_iter()
            .filter(|&isa| isa <= SimdIsa::best())
    }
}

/// Label of the SIMD backend the process resolved to
/// (`"avx512"` / `"avx2"` / `"portable"`), for benchmark reports.
pub fn simd_isa_label() -> &'static str {
    SimdIsa::resolved().label()
}

// ---------------------------------------------------------------------
// Lax–Wendroff
// ---------------------------------------------------------------------

/// Generic lane-parallel Lax–Wendroff body; the expression per point is
/// **identical, in evaluation order, to [`crate::laxwendroff::lax_wendroff_row`]**.
#[inline(always)]
fn lw_body<V: Lanes>(south: &[f64], center: &[f64], north: &[f64], coef: &LwCoef, out: &mut [f64]) {
    let nx = out.len();
    let south = &south[..nx + 2];
    let center = &center[..nx + 2];
    let north = &north[..nx + 2];
    let cx = V::splat(coef.cx);
    let cy = V::splat(coef.cy);
    let cxx = V::splat(coef.cxx);
    let cyy = V::splat(coef.cyy);
    let cxy = V::splat(coef.cxy);
    let two = V::splat(2.0);
    let sp = south.as_ptr();
    let cp = center.as_ptr();
    let np = north.as_ptr();
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + V::N <= nx {
        // SAFETY: k + V::N <= nx, and the input rows hold nx + 2 values,
        // so every load of N values starting at offset <= k + 2 is in
        // bounds; the store writes out[k .. k + N] <= nx.
        unsafe {
            let c = V::load(cp.add(k + 1));
            let w = V::load(cp.add(k));
            let e = V::load(cp.add(k + 2));
            let s = V::load(sp.add(k + 1));
            let n = V::load(np.add(k + 1));
            let sw = V::load(sp.add(k));
            let se = V::load(sp.add(k + 2));
            let nw = V::load(np.add(k));
            let ne = V::load(np.add(k + 2));
            let r = c
                + cx * (e - w)
                + cy * (n - s)
                + cxx * (e - two * c + w)
                + cyy * (n - two * c + s)
                + cxy * (ne - nw - se + sw);
            r.store(op.add(k));
        }
        k += V::N;
    }
    // Scalar tail: the reference expression verbatim.
    while k < nx {
        let c = center[k + 1];
        let w = center[k];
        let e = center[k + 2];
        let s = south[k + 1];
        let n = north[k + 1];
        let sw = south[k];
        let se = south[k + 2];
        let nw = north[k];
        let ne = north[k + 2];
        out[k] = c
            + coef.cx * (e - w)
            + coef.cy * (n - s)
            + coef.cxx * (e - 2.0 * c + w)
            + coef.cyy * (n - 2.0 * c + s)
            + coef.cxy * (ne - nw - se + sw);
        k += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lw_avx2(south: &[f64], center: &[f64], north: &[f64], coef: &LwCoef, out: &mut [f64]) {
    lw_body::<F64x4>(south, center, north, coef, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lw_avx512(south: &[f64], center: &[f64], north: &[f64], coef: &LwCoef, out: &mut [f64]) {
    lw_body::<F64x8>(south, center, north, coef, out)
}

/// Vectorized Lax–Wendroff row update: same contract and **bit-identical
/// results** as [`crate::laxwendroff::lax_wendroff_row`].
#[inline]
pub fn lax_wendroff_row_simd(
    south: &[f64],
    center: &[f64],
    north: &[f64],
    coef: &LwCoef,
    out: &mut [f64],
) {
    match SimdIsa::resolved() {
        // SAFETY: resolved() returns Avx512/Avx2 only after runtime detection.
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { lw_avx512(south, center, north, coef, out) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { lw_avx2(south, center, north, coef, out) },
        _ => lw_body::<F64x4>(south, center, north, coef, out),
    }
}

// ---------------------------------------------------------------------
// d-dimensional rows (upwind–diffusion, Jacobi)
// ---------------------------------------------------------------------

/// The farthest a row's stencil reaches from its cells: rows at
/// `off..off + n` read `cur[off − reach .. off + n + reach]`. Checked
/// once per row so the lane loads below need no per-access bounds test.
#[inline(always)]
fn assert_row_in_bounds(reach: usize, cur: &[f64], off: usize, n: usize) {
    assert!(
        off >= reach && off + n + reach <= cur.len(),
        "row {off}..{} reaches {reach} beyond a buffer of {}",
        off + n,
        cur.len()
    );
}

/// Generic lane-parallel d-dimensional upwind–diffusion body. Per lane
/// the operation sequence is **exactly** that of
/// [`crate::ndsolve::upwind_diffusion_kernel`]: `acc = c`, then per axis
/// in order `acc − c_i·dx`, `acc + r_i·(fwd − 2c + bwd)`. The upwind side
/// is an axis constant, so the branch selects between two whole lane
/// expressions without touching any lane's arithmetic; the tail is the
/// scalar row itself on the remaining cells.
#[inline(always)]
fn upwind_diffusion_n_body<V: Lanes>(
    axes: &[UpwindAxisN],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    let n = out.len();
    assert_row_in_bounds(axes.iter().map(|ax| ax.stride).max().unwrap_or(0), cur, off, n);
    let two = V::splat(2.0);
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + V::N <= n {
        // SAFETY: k + V::N <= n and the assert above give
        // off + k − stride >= 0 and off + k + stride + V::N <= cur.len()
        // for every axis, so each load of V::N values is in bounds; the
        // store writes out[k .. k + V::N] <= n.
        unsafe {
            let p = cur.as_ptr().add(off + k);
            let c = V::load(p);
            let mut acc = c;
            for ax in axes {
                let fwd = V::load(p.add(ax.stride));
                let bwd = V::load(p.sub(ax.stride));
                let dx = if ax.backward { c - bwd } else { fwd - c };
                acc = acc - V::splat(ax.c) * dx;
                acc = acc + V::splat(ax.r) * (fwd - two * c + bwd);
            }
            acc.store(op.add(k));
        }
        k += V::N;
    }
    upwind_diffusion_row_n(axes, cur, off + k, &mut out[k..]);
}

/// Generic lane-parallel d-dimensional Jacobi body; per lane the
/// operation sequence of [`crate::ndsolve::jacobi_kernel`].
#[inline(always)]
fn jacobi_n_body<V: Lanes>(
    axes: &[JacobiAxisN],
    inv_diag: f64,
    rhs: &[f64],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    let n = out.len();
    assert_row_in_bounds(axes.iter().map(|ax| ax.stride).max().unwrap_or(0), cur, off, n);
    let rhs_row = &rhs[off..off + n];
    let scale = V::splat(inv_diag);
    let op = out.as_mut_ptr();
    let mut k = 0;
    while k + V::N <= n {
        // SAFETY: same bounds argument as `upwind_diffusion_n_body`;
        // `rhs_row` holds n values and k + V::N <= n.
        unsafe {
            let p = cur.as_ptr().add(off + k);
            let mut acc = V::load(rhs_row.as_ptr().add(k));
            for ax in axes {
                acc = acc
                    + V::splat(ax.inv_h2) * (V::load(p.add(ax.stride)) + V::load(p.sub(ax.stride)));
            }
            (acc * scale).store(op.add(k));
        }
        k += V::N;
    }
    jacobi_row_n(axes, inv_diag, rhs, cur, off + k, &mut out[k..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn upwind_diffusion_n_avx2(axes: &[UpwindAxisN], cur: &[f64], off: usize, out: &mut [f64]) {
    upwind_diffusion_n_body::<F64x4>(axes, cur, off, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn upwind_diffusion_n_avx512(axes: &[UpwindAxisN], cur: &[f64], off: usize, out: &mut [f64]) {
    upwind_diffusion_n_body::<F64x8>(axes, cur, off, out)
}

/// Vectorized d-dimensional upwind–diffusion row on a named backend, so
/// benchmarks and tests can sweep [`SimdIsa::available`] in one process:
/// same contract and **bit-identical results** as
/// [`crate::ndsolve::upwind_diffusion_row_n`]. Panics if this CPU cannot
/// run `isa`.
#[inline]
pub fn upwind_diffusion_row_n_on(
    isa: SimdIsa,
    axes: &[UpwindAxisN],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    assert!(isa <= SimdIsa::best(), "this CPU cannot run the {} rows", isa.label());
    match isa {
        // SAFETY: `isa` is at most what runtime detection found.
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { upwind_diffusion_n_avx512(axes, cur, off, out) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { upwind_diffusion_n_avx2(axes, cur, off, out) },
        _ => upwind_diffusion_n_body::<F64x4>(axes, cur, off, out),
    }
}

/// [`upwind_diffusion_row_n_on`] the backend the process resolved to —
/// what the solvers step with.
#[inline]
pub fn upwind_diffusion_row_n_simd(axes: &[UpwindAxisN], cur: &[f64], off: usize, out: &mut [f64]) {
    upwind_diffusion_row_n_on(SimdIsa::resolved(), axes, cur, off, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn jacobi_n_avx2(
    axes: &[JacobiAxisN],
    inv_diag: f64,
    rhs: &[f64],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    jacobi_n_body::<F64x4>(axes, inv_diag, rhs, cur, off, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn jacobi_n_avx512(
    axes: &[JacobiAxisN],
    inv_diag: f64,
    rhs: &[f64],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    jacobi_n_body::<F64x8>(axes, inv_diag, rhs, cur, off, out)
}

/// Vectorized d-dimensional Jacobi row: same contract and **bit-identical
/// results** as [`crate::ndsolve::jacobi_row_n`].
#[inline]
pub fn jacobi_row_n_simd(
    axes: &[JacobiAxisN],
    inv_diag: f64,
    rhs: &[f64],
    cur: &[f64],
    off: usize,
    out: &mut [f64],
) {
    match SimdIsa::resolved() {
        // SAFETY: resolved() returns Avx512/Avx2 only after runtime detection.
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx512 => unsafe { jacobi_n_avx512(axes, inv_diag, rhs, cur, off, out) },
        #[cfg(target_arch = "x86_64")]
        SimdIsa::Avx2 => unsafe { jacobi_n_avx2(axes, inv_diag, rhs, cur, off, out) },
        _ => jacobi_n_body::<F64x4>(axes, inv_diag, rhs, cur, off, out),
    }
}

// ---------------------------------------------------------------------
// Kernel selection knobs
// ---------------------------------------------------------------------

/// Which row-kernel formulation the solvers step with. Both produce
/// bit-identical grids; the choice only affects speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The scalar reference rows kept from PR 1.
    Scalar,
    /// The vectorized rows in this module (default).
    #[default]
    Simd,
}

impl KernelKind {
    /// Short label ("scalar" / "simd") for reports and CI lanes.
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }

    /// Both kinds, for mode-matrix tests.
    pub fn all() -> [KernelKind; 2] {
        [KernelKind::Scalar, KernelKind::Simd]
    }
}

/// Per-solver kernel configuration: which row-kernel formulation to step
/// with.
///
/// Environment knob (read by [`KernelConfig::from_env`] /
/// [`KernelConfig::global`], which [`AppConfig`]-level plumbing and the
/// solver constructors default to):
///
/// * `FTSG_KERNEL=scalar|simd` — formulation (default `simd`).
///
/// `AppConfig`: `ftsg_core::AppConfig`
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelConfig {
    /// Scalar reference or vectorized rows.
    pub kind: KernelKind,
}

impl KernelConfig {
    /// Scalar reference rows.
    pub fn scalar() -> Self {
        KernelConfig { kind: KernelKind::Scalar }
    }

    /// Vectorized rows.
    pub fn simd() -> Self {
        KernelConfig { kind: KernelKind::Simd }
    }

    /// Read the `FTSG_KERNEL` environment knob (unset or unknown values
    /// fall back to the default).
    pub fn from_env() -> Self {
        match std::env::var("FTSG_KERNEL").as_deref() {
            Ok("scalar") => KernelConfig::scalar(),
            _ => KernelConfig::default(),
        }
    }

    /// The process-wide configuration, resolved from the environment once
    /// (solver constructors default to this).
    pub fn global() -> Self {
        static CFG: OnceLock<KernelConfig> = OnceLock::new();
        *CFG.get_or_init(KernelConfig::from_env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic_is_elementwise() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([0.5, 0.25, -1.0, 2.0]);
        let r = (a + b) * b - a;
        for i in 0..4 {
            let expect = (a.0[i] + b.0[i]) * b.0[i] - a.0[i];
            assert_eq!(r.0[i].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn simd_rows_match_scalar_on_a_ragged_row() {
        // One direct row-level check of the 2D stencil (the broad sweep,
        // the d-dimensional rows too, lives in tests/kernel_props.rs);
        // nx = 13 exercises body + tail.
        let nx = 13;
        let row: Vec<f64> = (0..3 * (nx + 2)).map(|k| (k as f64 * 0.37).sin()).collect();
        let (s, rest) = row.split_at(nx + 2);
        let (c, n) = rest.split_at(nx + 2);

        let lw = LwCoef { cx: 0.1, cy: -0.2, cxx: 0.01, cyy: 0.02, cxy: -0.005 };
        let mut a = vec![0.0; nx];
        let mut b = vec![0.0; nx];
        crate::laxwendroff::lax_wendroff_row(s, c, n, &lw, &mut a);
        lax_wendroff_row_simd(s, c, n, &lw, &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn isa_label_is_stable() {
        let l = simd_isa_label();
        assert!(["avx512", "avx2", "portable"].contains(&l), "{l}");
        assert_eq!(l, simd_isa_label());
    }
}
