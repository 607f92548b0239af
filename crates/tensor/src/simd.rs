//! Runtime-dispatched SIMD micro-kernels: the single point every GEMM inner
//! loop, fused epilogue and elementwise `exp`, sigmoid and tanh routes
//! through.
//!
//! # One source per kernel
//!
//! Each lane-independent kernel ([`axpy`], [`axpy4`], [`dot`], the epilogue
//! helpers [`add_bias`], [`add_bias_mask_scale`] and [`scale_add_bias`],
//! [`relu_slice`], and the transcendentals [`exp_slice`], [`sigmoid_slice`]
//! and [`tanh_slice`]) is one `#[inline(always)]` scalar loop. One macro
//! compiles that loop once per level under `#[target_feature]`, and the
//! loop vectoriser writes each level's vector code from it:
//!
//! | level | instance compiled with |
//! |---|---|
//! | Scalar | `fma` where the CPU has FMA, the plain build elsewhere |
//! | AVX2 | `avx2,fma` |
//! | AVX-512 | `avx512f,fma` |
//!
//! Only the register-blocked GEMM bodies behind [`gemm_axpy4`] and the
//! 8 × 8 register transpose behind [`transpose`] are written with
//! `std::arch` intrinsics.
//!
//! # Dispatch
//!
//! The instruction set is picked once per process ([`detected_level`]) with
//! `is_x86_feature_detected!` (both vector levels require FMA; AVX-512
//! means AVX-512F, only on toolchains ≥ 1.89, see the crate's `build.rs`).
//! Every other architecture runs the Scalar level, which its compiler
//! vectorises for its own baseline (NEON on aarch64). The *active* level
//! ([`level`]) starts from the `TENSOR_SIMD` environment variable —
//! `0`/`off`/`scalar` forces the Scalar level, `avx2`/`avx512` requests a
//! specific one (clamped to what the host supports), `1`/`auto`/empty/unset
//! selects the detected maximum, and any other value falls back to Scalar
//! (misconfiguration should be slow and correct, the same policy
//! `TENSOR_THREADS` follows) — and can be overridden at runtime with
//! [`set_level`] (used by the bench binaries' `--no-simd` flag).
//!
//! # Bitwise contract
//!
//! Every kernel gives the same bits at every level: each instance runs the
//! same operations in the same order, and IEEE arithmetic rounds an
//! operation alike in a vector lane and in a scalar register.
//!
//! * Every product term is one fused multiply-add, `c ← fma(a, b, c)`,
//!   written `f32::mul_add`, which is exactly rounded, so every build gives
//!   the same bits (without `fma` enabled it is a call to libm's `fmaf`,
//!   about 30× slower, which is why the Scalar level runs an `fma`
//!   instance). [`axpy`] is `c[j] = fma(alpha, b[j], c[j])`, [`axpy4`] four
//!   `axpy`s in order, and each element of [`gemm_axpy4`] the chain
//!   `c ← fma(a_p, b_p, c)` over `p` in K order. Its block of C stays in
//!   registers across a 128-deep K panel; a sequential chain cannot change
//!   at a panel edge or where a chunk of rows starts, so panels and pool
//!   chunks are for cache reuse and threads only. `A·B`, `Aᵀ·B` and `A·Bᵀ`
//!   all run on it, so the three product forms share one rule.
//! * [`dot`] accumulates into a `[f32; 8]`: lane `l` is the chain
//!   `fma(x[8t+l], y[8t+l], ·)` over `t` from `0.0`; the lanes are then
//!   summed `0..7` from `0.0` with plain adds, and the tail runs as `fma`
//!   steps in order. The array fixes that order in the source, so every
//!   instance keeps it (a wider accumulator would reassociate the sum).
//! * Everything else (the epilogues, ReLU and the transcendentals) issues
//!   its multiplies and adds as separate operations, which the compiler
//!   never fuses.
//! * ReLU is `max(v, 0.0)` (a `-0.0` input may come out as either zero).
//! * The transcendentals are polynomials: a Cephes-style `exp`, which the
//!   sigmoid runs on `−|x|`, and Eigen's rational tanh, written once as
//!   [`exp_approx`], [`sigmoid_approx`] and [`tanh_approx`].
//!
//! So `TENSOR_SIMD=0` selects the same source, not other numerics. The
//! polynomials are a few ULP from `libm`: ≤ 16 ULP or 1e-6 absolute for
//! sigmoid, ≤ 32 ULP or 1e-6 absolute for tanh (the latter dominated by
//! the saturation clamp at |x| ≈ 7.9), and for `exp` over `[−88, 0]` ≤ 2 ULP
//! where `libm`'s result is a normal float (1 ULP measured against glibc)
//! and ≤ 1e-38 absolute below that: the kernel returns 0 from about
//! −87.68 down.
//!
//! NaN in gives NaN out at every level: each clamp puts its bound first
//! (`if HI < x { HI } else { x }`, which keeps `x` when `x` is NaN), so no
//! NaN is clamped into a number. [`exp_slice`] is meant for `x ≤ 0`
//! (shifted logits and scores) and NaN; above about 88.38 it saturates at
//! `exp(88.38)` rather than returning +inf.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Level detection and selection
// ---------------------------------------------------------------------------

/// Instruction-set tiers the kernels dispatch over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// The scalar source (built with `fma` enabled where the CPU has it);
    /// the `TENSOR_SIMD=0` determinism anchor and the only level off
    /// x86-64.
    Scalar = 0,
    /// 256-bit AVX2 with FMA (x86-64, runtime-detected).
    Avx2 = 1,
    /// 512-bit AVX-512F with FMA (x86-64, runtime-detected, toolchain
    /// ≥ 1.89).
    Avx512 = 2,
}

impl SimdLevel {
    /// Stable lowercase name (used in `TENSOR_SIMD`, `TUNE_GEMM.json` and
    /// the bench JSON's `simd.isa` key).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parses a level name as accepted by `TENSOR_SIMD` (see module docs).
    /// `None` means "auto": use the detected maximum.
    pub fn parse(value: &str) -> Option<Option<SimdLevel>> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "1" | "auto" | "native" => Some(None),
            "0" | "off" | "scalar" => Some(Some(SimdLevel::Scalar)),
            "avx2" => Some(Some(SimdLevel::Avx2)),
            "avx512" => Some(Some(SimdLevel::Avx512)),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Avx2,
            2 => SimdLevel::Avx512,
            _ => SimdLevel::Scalar,
        }
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // Every vector instance is compiled with FMA, the AVX-512 ones with
        // AVX-512F alone (no 128/256-bit EVEX form, no ymm16–31), so
        // AVX-512VL is not required.
        if !is_x86_feature_detected!("fma") {
            return SimdLevel::Scalar;
        }
        #[cfg(tensor_avx512)]
        if is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::Scalar
    }
}

/// The widest level this host (and toolchain) supports.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// Clamps a requested level to what the host supports: an unsupported
/// request degrades (AVX-512 → AVX2 → Scalar) rather than erroring, so
/// `TENSOR_SIMD=avx512` on an AVX2-only machine still vectorises.
pub fn clamp_to_detected(requested: SimdLevel) -> SimdLevel {
    requested.min(detected_level())
}

const ACTIVE_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(ACTIVE_UNSET);

fn env_level() -> SimdLevel {
    let requested = match std::env::var("TENSOR_SIMD") {
        Ok(value) => match SimdLevel::parse(&value) {
            Some(Some(level)) => Some(level),
            Some(None) => None,
            // Unknown value: slow and correct, like a bad TENSOR_THREADS.
            None => Some(SimdLevel::Scalar),
        },
        Err(_) => None,
    };
    match requested {
        Some(level) => clamp_to_detected(level),
        None => detected_level(),
    }
}

/// The level the kernels currently dispatch to. Initialised from
/// `TENSOR_SIMD` on first use (racing initialisers compute the same value).
#[inline]
pub fn level() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        ACTIVE_UNSET => {
            let level = env_level();
            ACTIVE.store(level as u8, Ordering::Relaxed);
            level
        }
        v => SimdLevel::from_u8(v),
    }
}

/// Overrides the active level (clamped to the host's support) and returns
/// the level that actually took effect. Process-global, like the thread
/// pool: callers that need a pinned mode (tests, `--no-simd`) set it before
/// running kernels.
pub fn set_level(requested: SimdLevel) -> SimdLevel {
    let level = clamp_to_detected(requested);
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

// ---------------------------------------------------------------------------
// The scalar source: one body per kernel, compiled once per level
// ---------------------------------------------------------------------------

// Every body is `inline(always)`, so each `#[target_feature]` instance
// compiles its own copy under its own features.
mod scalar {
    #[inline(always)]
    pub fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
        for (cj, &bj) in c.iter_mut().zip(b) {
            *cj = alpha.mul_add(bj, *cj);
        }
    }

    #[inline(always)]
    pub fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
        for ((((cj, &x0), &x1), &x2), &x3) in c.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            let t = alpha[1].mul_add(x1, alpha[0].mul_add(x0, *cj));
            *cj = alpha[3].mul_add(x3, alpha[2].mul_add(x2, t));
        }
    }

    #[inline(always)]
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        const LANES: usize = 8;
        let mut acc = [0.0f32; LANES];
        let mut xs = x.chunks_exact(LANES);
        let mut ys = y.chunks_exact(LANES);
        for (xc, yc) in (&mut xs).zip(&mut ys) {
            for l in 0..LANES {
                acc[l] = xc[l].mul_add(yc[l], acc[l]);
            }
        }
        let mut sum = 0.0;
        for &lane in &acc {
            sum += lane;
        }
        for (a, b) in xs.remainder().iter().zip(ys.remainder()) {
            sum = a.mul_add(*b, sum);
        }
        sum
    }

    #[inline(always)]
    pub fn add_bias(row: &mut [f32], bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }

    #[inline(always)]
    pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32) {
        for ((v, &b), &m) in row.iter_mut().zip(bias).zip(mask) {
            *v = (*v + b) * (m * scale);
        }
    }

    #[inline(always)]
    pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = *v * scale + b;
        }
    }

    #[inline(always)]
    pub fn relu_slice(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = v.max(0.0);
        }
    }

    #[inline(always)]
    pub fn exp_slice(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = super::exp_approx(*v);
        }
    }

    #[inline(always)]
    pub fn sigmoid_slice(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = super::sigmoid_approx(*v);
        }
    }

    #[inline(always)]
    pub fn tanh_slice(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = super::tanh_approx(*v);
        }
    }

    /// Reference product (see [`super::gemm_axpy4`]): each row of C runs
    /// the `fma` chain over K, four steps at a time through [`axpy4`].
    #[inline(always)]
    pub fn gemm_axpy4(
        a: &[f32],
        [rs, ks]: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let brow = |p: usize| &b[p * n..(p + 1) * n];
        for p0 in (0..k).step_by(super::KC) {
            let p1 = (p0 + super::KC).min(k);
            for (r, crow) in c.chunks_exact_mut(n).take(m).enumerate() {
                let av = |p: usize| a[r * rs + p * ks];
                let mut p = p0;
                while p + 4 <= p1 {
                    let alpha = [av(p), av(p + 1), av(p + 2), av(p + 3)];
                    axpy4(crow, alpha, brow(p), brow(p + 1), brow(p + 2), brow(p + 3));
                    p += 4;
                }
                while p < p1 {
                    axpy(crow, av(p), brow(p));
                    p += 1;
                }
            }
        }
    }

    /// Reference transpose: `dst[j·rows + i] = src[i·cols + j]`.
    pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
        for i in 0..rows {
            for j in 0..cols {
                dst[j * rows + i] = src[i * cols + j];
            }
        }
    }
}

/// Depth of the K panels [`gemm_axpy4`] walks: a `KC`-deep panel of B stays
/// cache-resident while every row block of C passes over it (the CPU
/// analogue of staging a tile in shared memory).
const KC: usize = 128;

// ---------------------------------------------------------------------------
// Polynomial transcendentals
// ---------------------------------------------------------------------------

/// Cephes f32 `exp` constants (the classic `exp_ps` kernel). Valid for the
/// non-positive arguments the sigmoid and the softmaxes feed it; the
/// positive clamp sits just below the overflow threshold.
mod exp_consts {
    pub const HI: f32 = 88.376_26;
    pub const LO: f32 = -88.376_26;
    pub const LOG2EF: f32 = std::f32::consts::LOG2_E;
    pub const C1: f32 = 0.693_359_4;
    pub const C2: f32 = -2.121_944_4e-4;
    pub const P0: f32 = 1.987_569_1e-4;
    pub const P1: f32 = 1.398_199_9e-3;
    pub const P2: f32 = 8.333_452e-3;
    pub const P3: f32 = 4.166_579_6e-2;
    pub const P4: f32 = 1.666_666_6e-1;
    pub const P5: f32 = 5.000_000_3e-1;
}

/// Eigen's `ptanh` rational approximation: `tanh(x) ≈ x·P(x²) / Q(x²)`,
/// clamped to the f32 saturation boundary.
mod tanh_consts {
    pub const CLAMP: f32 = 7.905_311;
    pub const A1: f32 = 4.893_525e-3;
    pub const A3: f32 = 6.372_619e-4;
    pub const A5: f32 = 1.485_722_4e-5;
    pub const A7: f32 = 5.122_297e-8;
    pub const A9: f32 = -8.604_672e-11;
    pub const A11: f32 = 2.000_188e-13;
    pub const A13: f32 = -2.760_768_4e-16;
    pub const B0: f32 = 4.893_525_4e-3;
    pub const B2: f32 = 2.268_434_6e-3;
    pub const B4: f32 = 1.185_347e-4;
    pub const B6: f32 = 1.198_258_4e-6;
}

/// Polynomial `exp`, the body of [`exp_slice`] at every level: clamp,
/// range reduction `n = floor(x·log2 e + 0.5)`, `r = x − n·ln 2` (in two
/// steps), a Horner polynomial in `r`, times 2^n, each step a separate
/// multiply or add. Meant for `x ≤ 0`; saturates at `exp(88.38)` above
/// about 88.38, and maps NaN to NaN.
///
/// 2^n is built without a float-to-int conversion: adding `1.5·2^23` and
/// the bias 127 to the integral float `n` leaves `n + 127` in the low
/// mantissa bits, and the shift moves them into the exponent field. For
/// every `n` the clamp admits (−127..=127) that gives the bits of
/// `((n as i32 + 127) as u32) << 23`; the cast's saturating semantics kept
/// the loop vectoriser off every `exp` and sigmoid loop. A NaN `x` leaves
/// the polynomial NaN, so the product is NaN whatever 2^n's bits are.
#[inline(always)]
pub fn exp_approx(x: f32) -> f32 {
    use exp_consts::*;
    // The bound first, so a NaN `x` passes through both clamps.
    let x = if HI < x { HI } else { x };
    let x = if LO > x { LO } else { x };
    let fx = (x * LOG2EF + 0.5).floor();
    let x = x - fx * C1 - fx * C2;
    let z = x * x;
    let mut y = P0;
    y = y * x + P1;
    y = y * x + P2;
    y = y * x + P3;
    y = y * x + P4;
    y = y * x + P5;
    y = y * z + x + 1.0;
    y * f32::from_bits((fx + 12_582_912.0 + 127.0).to_bits() << 23)
}

/// Polynomial sigmoid: `t = exp(-|x|)`, `r = 1/(1+t)`, selecting `r` for
/// `x ≥ 0` and `t·r` otherwise (avoids cancellation on the negative side);
/// NaN maps to NaN.
#[inline(always)]
pub fn sigmoid_approx(x: f32) -> f32 {
    let t = exp_approx(-x.abs());
    let r = 1.0 / (1.0 + t);
    if x >= 0.0 {
        r
    } else {
        t * r
    }
}

/// Polynomial tanh (Eigen rational form), clamped at the f32 saturation
/// boundary; NaN maps to NaN.
#[inline(always)]
pub fn tanh_approx(x: f32) -> f32 {
    use tanh_consts::*;
    // NaN-preserving clamps, the bound first like [`exp_approx`]'s.
    let x = if -CLAMP > x { -CLAMP } else { x };
    let x = if CLAMP < x { CLAMP } else { x };
    let z = x * x;
    let mut p = A13;
    p = z * p + A11;
    p = z * p + A9;
    p = z * p + A7;
    p = z * p + A5;
    p = z * p + A3;
    p = z * p + A1;
    let p = x * p;
    let mut q = B6;
    q = z * q + B4;
    q = z * q + B2;
    q = z * q + B0;
    p / q
}

// ---------------------------------------------------------------------------
// The hand-written bodies: register-blocked GEMM and register transpose
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Strides of one `axpy4`-form product: A's element `(r, p)` sits at
    /// `r * rs + p * ks`, and B and C share the row stride `ld` (= n).
    #[derive(Clone, Copy)]
    struct AxpyStrides {
        rs: usize,
        ks: usize,
        ld: usize,
    }

    /// Lane mask of the first `w` of eight lanes, for the masked AVX
    /// loads and stores of a column fringe.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_mask8(w: usize) -> __m256i {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w.min(8) as i32), lanes)
    }

    /// Eight floats at `p`, or only the lanes of `mask` when `MASKED`.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and the eight floats at `p` (the lanes of
    /// `mask` when `MASKED`) are in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load8<const MASKED: bool>(p: *const f32, mask: __m256i) -> __m256 {
        if MASKED {
            _mm256_maskload_ps(p, mask)
        } else {
            _mm256_loadu_ps(p)
        }
    }

    /// One `MR × 8·NV` block of C held in ymm registers across a `kc`-deep
    /// K range: per element the `fma` chain of [`super::axpy`]. `MASKED`
    /// reads and writes only the lanes of `masks[v]` (a column fringe).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA; for every `r < MR`, `p < kc`,
    /// `v < NV` and every lane `l < 8` (only the lanes of `masks[v]` when
    /// `MASKED`), `a + r·rs + p·ks`, `b + p·ld + 8v + l` and
    /// `c + r·ld + 8v + l` are in bounds.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn axpy4_block_avx2<const MR: usize, const NV: usize, const MASKED: bool>(
        s: AxpyStrides,
        kc: usize,
        masks: [__m256i; 2],
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = load8::<MASKED>(c.add(r * s.ld + 8 * v), masks[v]);
            }
        }
        for p in 0..kc {
            let mut vb = [_mm256_setzero_ps(); NV];
            for (v, x) in vb.iter_mut().enumerate() {
                *x = load8::<MASKED>(b.add(p * s.ld + 8 * v), masks[v]);
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a.add(r * s.rs + p * s.ks));
                for (x, &y) in row.iter_mut().zip(&vb) {
                    *x = _mm256_fmadd_ps(va, y, *x);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                let dst = c.add(r * s.ld + 8 * v);
                if MASKED {
                    _mm256_maskstore_ps(dst, masks[v], x);
                } else {
                    _mm256_storeu_ps(dst, x);
                }
            }
        }
    }

    /// Every 4-row block of an `m`-row strip, then its 1–3-row fringe.
    ///
    /// # Safety
    ///
    /// As [`axpy4_block_avx2`], for every `r < m`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn axpy4_strip_avx2<const NV: usize, const MASKED: bool>(
        s: AxpyStrides,
        (m, kc): (usize, usize),
        masks: [__m256i; 2],
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut r = 0;
        while r + 4 <= m {
            let (ar, cr) = (a.add(r * s.rs), c.add(r * s.ld));
            axpy4_block_avx2::<4, NV, MASKED>(s, kc, masks, ar, b, cr);
            r += 4;
        }
        // No fringe leaves these one block past the end: never dereferenced.
        let (a, c) = (a.wrapping_add(r * s.rs), c.wrapping_add(r * s.ld));
        match m - r {
            1 => axpy4_block_avx2::<1, NV, MASKED>(s, kc, masks, a, b, c),
            2 => axpy4_block_avx2::<2, NV, MASKED>(s, kc, masks, a, b, c),
            3 => axpy4_block_avx2::<3, NV, MASKED>(s, kc, masks, a, b, c),
            _ => {}
        }
    }

    /// AVX2 body of [`super::gemm_axpy4`]: `4 × 16` blocks (eight ymm
    /// accumulators, enough independent `fma` chains to cover its latency,
    /// beside two B vectors and one broadcast), masked on the column
    /// fringe.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 and FMA, and the extents
    /// [`super::gemm_axpy4`] asserts hold for `a`, `b` and `c`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_axpy4_avx2(
        a: *const f32,
        [rs, ks]: [usize; 2],
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let s = AxpyStrides { rs, ks, ld: n };
        let full = [lane_mask8(8); 2];
        for p0 in (0..k).step_by(super::KC) {
            let kc = super::KC.min(k - p0);
            let (a, b) = (a.add(p0 * ks), b.add(p0 * n));
            let mut j = 0;
            while j + 16 <= n {
                axpy4_strip_avx2::<2, false>(s, (m, kc), full, a, b.add(j), c.add(j));
                j += 16;
            }
            let w = n - j;
            let masks = [lane_mask8(w), lane_mask8(w.saturating_sub(8))];
            // No fringe leaves these at the end: never dereferenced.
            let (b, c) = (b.wrapping_add(j), c.wrapping_add(j));
            if w > 8 {
                axpy4_strip_avx2::<2, true>(s, (m, kc), masks, a, b, c);
            } else if w > 0 {
                axpy4_strip_avx2::<1, true>(s, (m, kc), masks, a, b, c);
            }
        }
    }

    /// One `MR` × `16·NV` block of C held in zmm registers across a
    /// `kc`-deep K range: per element the `fma` chain of [`super::axpy`].
    /// Loads and stores are masked by `masks[v]` (all lanes inside the
    /// matrix; fewer on a column fringe).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F; for every `r < MR`, `p < kc`, `v < NV`
    /// and every lane `l` of `masks[v]`, `a + r·rs + p·ks`,
    /// `b + p·ld + 16v + l` and `c + r·ld + 16v + l` are in bounds.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn axpy4_block_avx512<const MR: usize, const NV: usize>(
        s: AxpyStrides,
        kc: usize,
        masks: [__mmask16; 2],
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut acc = [[_mm512_setzero_ps(); NV]; MR];
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                *x = _mm512_maskz_loadu_ps(masks[v], c.add(r * s.ld + 16 * v));
            }
        }
        for p in 0..kc {
            let mut vb = [_mm512_setzero_ps(); NV];
            for (v, x) in vb.iter_mut().enumerate() {
                *x = _mm512_maskz_loadu_ps(masks[v], b.add(p * s.ld + 16 * v));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*a.add(r * s.rs + p * s.ks));
                for (x, &y) in row.iter_mut().zip(&vb) {
                    *x = _mm512_fmadd_ps(va, y, *x);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &x) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(c.add(r * s.ld + 16 * v), masks[v], x);
            }
        }
    }

    /// Every 4-row block of an `m`-row strip, then its 1–3-row fringe.
    ///
    /// # Safety
    ///
    /// As [`axpy4_block_avx512`], for every `r < m`.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn axpy4_strip_avx512<const NV: usize>(
        s: AxpyStrides,
        (m, kc): (usize, usize),
        masks: [__mmask16; 2],
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut r = 0;
        while r + 4 <= m {
            axpy4_block_avx512::<4, NV>(s, kc, masks, a.add(r * s.rs), b, c.add(r * s.ld));
            r += 4;
        }
        // No fringe leaves these one block past the end: never dereferenced.
        let (a, c) = (a.wrapping_add(r * s.rs), c.wrapping_add(r * s.ld));
        match m - r {
            1 => axpy4_block_avx512::<1, NV>(s, kc, masks, a, b, c),
            2 => axpy4_block_avx512::<2, NV>(s, kc, masks, a, b, c),
            3 => axpy4_block_avx512::<3, NV>(s, kc, masks, a, b, c),
            _ => {}
        }
    }

    /// AVX-512 body of [`super::gemm_axpy4`]: `4 × 32` blocks (two zmm per
    /// row), the column fringe masked at vector width.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F, and the extents [`super::gemm_axpy4`]
    /// asserts hold for `a`, `b` and `c`.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_axpy4_avx512(
        a: *const f32,
        [rs, ks]: [usize; 2],
        b: *const f32,
        c: *mut f32,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let s = AxpyStrides { rs, ks, ld: n };
        let mask = |w: usize| -> __mmask16 { (((1u32 << w.min(16)) - 1) & 0xFFFF) as u16 };
        for p0 in (0..k).step_by(super::KC) {
            let kc = super::KC.min(k - p0);
            let (a, b) = (a.add(p0 * ks), b.add(p0 * n));
            let mut j = 0;
            while j < n {
                let w = (n - j).min(32);
                let masks = [mask(w), mask(w.saturating_sub(16))];
                let (b, c) = (b.add(j), c.add(j));
                if w > 16 {
                    axpy4_strip_avx512::<2>(s, (m, kc), masks, a, b, c);
                } else {
                    axpy4_strip_avx512::<1>(s, (m, kc), masks, a, b, c);
                }
                j += 32;
            }
        }
    }

    /// Moves the 8 × 8 block at `src` (row stride `ls`) transposed to `dst`
    /// (row stride `ld`) through ymm registers.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX; `src + i·ls + j` and `dst + j·ld + i` are in
    /// bounds for every `i, j < 8`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn transpose8x8(src: *const f32, ls: usize, dst: *mut f32, ld: usize) {
        // Intrinsics stay out of closures: before Rust 1.86 a closure does
        // not inherit `avx`.
        let mut r = [_mm256_setzero_ps(); 8];
        for (i, x) in r.iter_mut().enumerate() {
            *x = _mm256_loadu_ps(src.add(i * ls));
        }
        // Pairs of rows interleaved, then quads, then the 128-bit halves.
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let cols = [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ];
        for (j, &col) in cols.iter().enumerate() {
            _mm256_storeu_ps(dst.add(j * ld), col);
        }
    }

    /// AVX body of [`super::transpose`]: 32 × 32 tiles (a tile's source
    /// and destination lines stay in L1), each moved as 8 × 8 register
    /// blocks, the fringes element by element.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX, `src` holds `rows × cols` values and `dst`
    /// as many.
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose_avx(src: *const f32, rows: usize, cols: usize, dst: *mut f32) {
        const TILE: usize = 32;
        let copy = |i: usize, j: usize| *dst.add(j * rows + i) = *src.add(i * cols + j);
        for i0 in (0..rows).step_by(TILE) {
            let i1 = (i0 + TILE).min(rows);
            for j0 in (0..cols).step_by(TILE) {
                let j1 = (j0 + TILE).min(cols);
                let mut i = i0;
                while i + 8 <= i1 {
                    let mut j = j0;
                    while j + 8 <= j1 {
                        transpose8x8(src.add(i * cols + j), cols, dst.add(j * rows + i), rows);
                        j += 8;
                    }
                    (j..j1).for_each(|j| (i..i + 8).for_each(|i| copy(i, j)));
                    i += 8;
                }
                (i..i1).for_each(|i| (j0..j1).for_each(|j| copy(i, j)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch points
// ---------------------------------------------------------------------------

/// Defines the public entry point of each lane-independent kernel from its
/// `scalar` body: the body compiled once per level under
/// `#[target_feature]`, and the one mapping from the active level to those
/// instances.
macro_rules! kernels {
    ($(
        $(#[$doc:meta])*
        pub fn $name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;
    )*) => {$(
        $(#[$doc])*
        #[inline]
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
            /// # Safety
            ///
            /// The CPU supports FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "fma")]
            unsafe fn fma($($arg: $ty),*) $(-> $ret)? {
                scalar::$name($($arg),*)
            }
            /// # Safety
            ///
            /// The CPU supports AVX2 and FMA.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                scalar::$name($($arg),*)
            }
            /// # Safety
            ///
            /// The CPU supports AVX-512F and FMA.
            #[cfg(all(target_arch = "x86_64", tensor_avx512))]
            #[target_feature(enable = "avx512f,fma")]
            unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                scalar::$name($($arg),*)
            }
            // SAFETY: a level is active only where `detect` found its
            // features (AVX-512 implies a toolchain with `tensor_avx512`),
            // and the Scalar level's guard checks FMA.
            match level() {
                #[cfg(all(target_arch = "x86_64", tensor_avx512))]
                SimdLevel::Avx512 => unsafe { avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe { avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe {
                    fma($($arg),*)
                },
                _ => scalar::$name($($arg),*),
            }
        }
    )*};
}

kernels! {
    /// `c[j] = fma(alpha, b[j], c[j])` over equal-length slices (the shorter
    /// length wins, like a `zip` loop).
    pub fn axpy(c: &mut [f32], alpha: f32, b: &[f32]);

    /// Four [`axpy`]s in order: per element `c = fma(a_q, b_q[j], c)` for
    /// `q = 0..3`.
    pub fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]);

    /// Dot product in the 8-lane `fma` accumulation order (see module
    /// docs).
    pub fn dot(x: &[f32], y: &[f32]) -> f32;

    /// `row[j] += bias[j]`.
    pub fn add_bias(row: &mut [f32], bias: &[f32]);

    /// `row[j] = (row[j] + bias[j]) * (mask[j] * scale)`.
    pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32);

    /// `row[j] = row[j] * scale + bias[j]` (the tile epilogue's order).
    pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]);

    /// Elementwise `max(v, 0.0)`.
    pub fn relu_slice(row: &mut [f32]);

    /// Elementwise polynomial `exp` ([`exp_approx`]). Callers pass `x ≤ 0`
    /// (shifted logits and scores) or NaN; above about 88.38 the result
    /// saturates at `exp(88.38)`, not +inf.
    pub fn exp_slice(row: &mut [f32]);

    /// Elementwise polynomial sigmoid ([`sigmoid_approx`]).
    pub fn sigmoid_slice(row: &mut [f32]);

    /// Elementwise polynomial tanh ([`tanh_approx`]).
    pub fn tanh_slice(row: &mut [f32]);
}

/// `C += A·B`, a block of C held in registers across each K panel: `c` is
/// `m × n` and `b` is `k × n` (both row-major at row stride `n`), and A's
/// element `(r, p)` is `a[r·rs + p·ks]` for `a_strides = [rs, ks]` —
/// `[lda, 1]` reads a row-major A, `[1, lda]` its transpose (so `Xᵀ·G`
/// needs no transpose of its own). Each element of C runs the chain
/// `c ← fma(a_p, b_p, c)` over `p` in K order (see module docs).
///
/// # Panics
///
/// Panics if `c` does not hold `m × n` values, `b` holds fewer than
/// `k × n`, or A's strides reach past `a`.
pub fn gemm_axpy4(
    a: &[f32],
    a_strides: [usize; 2],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(Some(c.len()), m.checked_mul(n), "C must hold m × n values");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let [rs, ks] = a_strides;
    let a_last = (m - 1)
        .checked_mul(rs)
        .zip((k - 1).checked_mul(ks))
        .and_then(|(r, p)| r.checked_add(p));
    assert!(
        a_last.is_some_and(|last| last < a.len()),
        "A's strides reach past its slice"
    );
    assert!(
        k.checked_mul(n).is_some_and(|len| len <= b.len()),
        "B must hold k × n values"
    );
    /// The Scalar level's instance where the CPU has FMA.
    ///
    /// # Safety
    ///
    /// The CPU supports FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "fma")]
    unsafe fn fma(
        a: &[f32],
        s: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        scalar::gemm_axpy4(a, s, b, c, m, k, n)
    }
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    // SAFETY: a level is active only where `detect` found its features,
    // the Scalar level's guard checks FMA, and the asserts above bound
    // every element of A, B and C the bodies touch.
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::gemm_axpy4_avx512(pa, a_strides, pb, pc, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gemm_axpy4_avx2(pa, a_strides, pb, pc, m, k, n) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe {
            fma(a, a_strides, b, c, m, k, n)
        },
        _ => scalar::gemm_axpy4(a, a_strides, b, c, m, k, n),
    }
}

/// `dst = srcᵀ`: `src` is `rows × cols` and `dst` `cols × rows`, both
/// row-major. It moves values without arithmetic, so every level gives the
/// same bits; the vector levels move 8 × 8 blocks through registers.
///
/// # Panics
///
/// Panics if `src` does not hold `rows × cols` values or `dst` as many.
pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    let len = rows.checked_mul(cols);
    assert_eq!(Some(src.len()), len, "src must hold rows × cols values");
    assert_eq!(dst.len(), src.len(), "dst must hold as many values as src");
    match level() {
        // SAFETY: every vector level implies AVX (see `detect`), and both
        // slices hold the `rows × cols` values the body touches.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::transpose_avx(src.as_ptr(), rows, cols, dst.as_mut_ptr())
        },
        _ => scalar::transpose(src, rows, cols, dst),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::{Mutex, PoisonError};

    /// Runs `f` with the active level pinned to `level`, restoring after.
    /// Tests touching the global level must go through the serializing lock
    /// below — unit tests in one binary run concurrently. The lock guards
    /// no data, so a test that panicked while holding it leaves nothing
    /// half-updated: the guard is recovered, and one failing test does not
    /// fail every later one.
    pub(crate) fn with_level(requested: SimdLevel, f: impl FnOnce(SimdLevel)) {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let previous = level();
        let actual = set_level(requested);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(actual)));
        set_level(previous);
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }

    /// Every level; one the host lacks is clamped to the widest it has, so
    /// a loop over these runs every instance the host supports.
    const LEVELS: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Every length up to 70, then 100 and 1000: each instance's vectorised
    /// main loop (up to 64 elements per step), its vectorised remainder and
    /// its scalar remainder each run on some of them.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=70).chain([100, 1000])
    }

    fn test_data(len: usize) -> Vec<f32> {
        // Deterministic, sign-mixed, non-trivial mantissas.
        (0..len)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 / 81.0 - 6.0)
            .collect()
    }

    #[test]
    fn parse_accepts_the_documented_names() {
        assert_eq!(SimdLevel::parse("0"), Some(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("off"), Some(Some(SimdLevel::Scalar)));
        assert_eq!(SimdLevel::parse("AVX2"), Some(Some(SimdLevel::Avx2)));
        assert_eq!(SimdLevel::parse("avx512"), Some(Some(SimdLevel::Avx512)));
        assert_eq!(SimdLevel::parse(""), Some(None));
        assert_eq!(SimdLevel::parse("auto"), Some(None));
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn clamp_never_exceeds_detected() {
        for requested in LEVELS {
            let clamped = clamp_to_detected(requested);
            assert!(clamped <= detected_level(), "{requested:?} → {clamped:?}");
            assert_eq!(clamp_to_detected(clamped), clamped, "clamp is idempotent");
        }
    }

    /// Every x86 vector instance issues FMA, so a detected vector level
    /// implies the CPU has it.
    #[test]
    fn a_detected_x86_vector_level_implies_fma() {
        #[cfg(target_arch = "x86_64")]
        if detected_level() >= SimdLevel::Avx2 {
            assert!(is_x86_feature_detected!("fma"));
        }
    }

    /// The transpose equals the element-by-element reference at every
    /// level, on shapes with every 8 × 8 block and 32 × 32 tile fringe.
    #[test]
    fn transpose_matches_the_reference_at_every_level() {
        let shapes = [(0, 3), (1, 1), (3, 17), (8, 8), (9, 33), (40, 7), (64, 96)];
        for (rows, cols) in shapes {
            let src = test_data(rows * cols);
            let mut expected = vec![f32::NAN; src.len()];
            scalar::transpose(&src, rows, cols, &mut expected);
            for (j, col) in expected.chunks_exact(rows.max(1)).enumerate().take(cols) {
                for (i, &v) in col.iter().enumerate() {
                    assert_eq!(v, src[i * cols + j], "reference at ({i}, {j})");
                }
            }
            for requested in LEVELS {
                with_level(requested, |actual| {
                    let mut dst = vec![f32::NAN; src.len()];
                    transpose(&src, rows, cols, &mut dst);
                    assert_eq!(dst, expected, "{rows} × {cols} at {actual:?}");
                });
            }
        }
    }

    #[test]
    fn detected_level_is_selectable() {
        // Whatever the host detects must actually become the active level
        // when requested.
        let detected = detected_level();
        with_level(detected, |actual| {
            assert_eq!(actual, detected);
            assert_eq!(level(), detected);
        });
    }

    #[test]
    fn vector_kernels_match_scalar_bitwise() {
        let alpha = [1.25, -0.5, 0.75, 2.0];
        for len in lengths() {
            let b0 = test_data(len);
            let b1: Vec<f32> = b0.iter().map(|v| v * 0.5 + 1.0).collect();
            let b2: Vec<f32> = b0.iter().map(|v| v * -0.25 + 2.0).collect();
            let b3: Vec<f32> = b0.iter().map(|v| v * 2.0 - 3.0).collect();
            let c0 = test_data(len + 5)[5..].to_vec();

            let mut expected_axpy = c0.clone();
            scalar::axpy(&mut expected_axpy, 1.25, &b0);
            let mut expected_axpy4 = c0.clone();
            scalar::axpy4(&mut expected_axpy4, alpha, &b0, &b1, &b2, &b3);
            let expected_dot = scalar::dot(&c0, &b0);

            for requested in LEVELS {
                with_level(requested, |actual| {
                    let mut c = c0.clone();
                    axpy(&mut c, 1.25, &b0);
                    assert_eq!(c, expected_axpy, "axpy len {len} at {actual:?}");
                    let mut c = c0.clone();
                    axpy4(&mut c, alpha, &b0, &b1, &b2, &b3);
                    assert_eq!(c, expected_axpy4, "axpy4 len {len} at {actual:?}");
                    assert_eq!(
                        dot(&c0, &b0).to_bits(),
                        expected_dot.to_bits(),
                        "dot len {len} at {actual:?}"
                    );
                });
            }
        }
    }

    #[test]
    fn epilogue_helpers_match_scalar_bitwise() {
        for len in lengths() {
            let base = test_data(len);
            let bias = test_data(len + 3)[3..].to_vec();
            let mask: Vec<f32> = (0..len)
                .map(|j| if j % 3 == 0 { 0.0 } else { 1.0 })
                .collect();
            let scale = 1.75f32;

            let mut e1 = base.clone();
            scalar::add_bias(&mut e1, &bias);
            let mut e2 = base.clone();
            scalar::add_bias_mask_scale(&mut e2, &bias, &mask, scale);
            let mut e4 = base.clone();
            scalar::scale_add_bias(&mut e4, scale, &bias);
            let mut e5 = base.clone();
            scalar::relu_slice(&mut e5);

            for requested in LEVELS {
                with_level(requested, |actual| {
                    let mut r = base.clone();
                    add_bias(&mut r, &bias);
                    assert_eq!(r, e1, "add_bias len {len} at {actual:?}");
                    let mut r = base.clone();
                    add_bias_mask_scale(&mut r, &bias, &mask, scale);
                    assert_eq!(r, e2, "add_bias_mask_scale len {len} at {actual:?}");
                    let mut r = base.clone();
                    scale_add_bias(&mut r, scale, &bias);
                    assert_eq!(r, e4, "scale_add_bias len {len} at {actual:?}");
                    let mut r = base.clone();
                    relu_slice(&mut r);
                    assert_eq!(r, e5, "relu len {len} at {actual:?}");
                });
            }
        }
    }

    fn ulp_distance(a: f32, b: f32) -> u32 {
        let ia = a.to_bits() as i32;
        let ib = b.to_bits() as i32;
        // Map to a monotonic integer line (sign-magnitude → offset binary).
        let ma = if ia < 0 { i32::MIN - ia } else { ia };
        let mb = if ib < 0 { i32::MIN - ib } else { ib };
        ma.abs_diff(mb)
    }

    #[test]
    fn vector_transcendentals_match_their_scalar_tails_bitwise() {
        // Every element of a slice, in a vector lane or in a remainder,
        // must equal the scalar form, or slicing and threading would
        // change results. The inputs run over [−100, 100] in steps of 0.1,
        // shuffled, across both clamps of `exp` and of tanh.
        let inputs: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 2001) as f32 * 0.1 - 100.0)
            .collect();
        for len in lengths() {
            let x = &inputs[..len];
            for requested in LEVELS {
                with_level(requested, |actual| {
                    let mut ex = x.to_vec();
                    exp_slice(&mut ex);
                    let mut sig = x.to_vec();
                    sigmoid_slice(&mut sig);
                    let mut tan = x.to_vec();
                    tanh_slice(&mut tan);
                    for (j, &x) in x.iter().enumerate() {
                        let at = format!("{x} (index {j} of {len}) at {actual:?}");
                        assert_eq!(ex[j].to_bits(), exp_approx(x).to_bits(), "exp {at}");
                        assert_eq!(
                            sig[j].to_bits(),
                            sigmoid_approx(x).to_bits(),
                            "sigmoid {at}"
                        );
                        assert_eq!(tan[j].to_bits(), tanh_approx(x).to_bits(), "tanh {at}");
                    }
                });
            }
        }
    }

    /// [`exp_approx`] as it built 2^n before, through the saturating
    /// `fx as i32` cast: the reference for the exponent-bit construction.
    fn exp_approx_cast(x: f32) -> f32 {
        use exp_consts::*;
        let x = if HI < x { HI } else { x };
        let x = if LO > x { LO } else { x };
        let fx = (x * LOG2EF + 0.5).floor();
        let x = x - fx * C1 - fx * C2;
        let z = x * x;
        let mut y = P0;
        y = y * x + P1;
        y = y * x + P2;
        y = y * x + P3;
        y = y * x + P4;
        y = y * x + P5;
        y = y * z + x + 1.0;
        let n = fx as i32;
        y * f32::from_bits(((n + 127) as u32) << 23)
    }

    /// `exp_approx(x)` has the bits of [`exp_approx_cast`], or is NaN
    /// where the cast form is.
    fn assert_exp_matches_the_cast_form(x: f32) {
        let (new, old) = (exp_approx(x), exp_approx_cast(x));
        if old.is_nan() {
            assert!(new.is_nan(), "exp_approx({x:e}) = {new:e}, want NaN");
        } else {
            assert_eq!(
                new.to_bits(),
                old.to_bits(),
                "exp_approx({x:e} = {:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn exponent_bits_equal_the_cast_form() {
        // ±88.376_26 are the clamp bounds, where `fx` reaches ±127.
        let specials = [
            88.376_26,
            -88.376_26,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::NAN,
            -f32::NAN,
        ];
        for x in specials {
            assert_exp_matches_the_cast_form(x);
        }
        assert!(exp_approx(f32::NAN).is_nan());
        for bits in (0..=u32::MAX).step_by(4099) {
            assert_exp_matches_the_cast_form(f32::from_bits(bits));
        }
    }

    /// Every f32, a few minutes in a release build:
    /// `cargo test --release -p tensor --lib -- --ignored every_f32`.
    #[test]
    #[ignore = "sweeps all 2^32 inputs"]
    fn exponent_bits_equal_the_cast_form_for_every_f32() {
        for bits in 0..=u32::MAX {
            assert_exp_matches_the_cast_form(f32::from_bits(bits));
        }
    }

    #[test]
    fn polynomial_transcendentals_are_ulp_close_to_libm() {
        for i in -2000..=2000 {
            let x = i as f32 * 0.005; // [-10, 10]
            let sig = sigmoid_approx(x);
            let sig_ref = 1.0 / (1.0 + (-x).exp());
            assert!(
                ulp_distance(sig, sig_ref) <= 16 || (sig - sig_ref).abs() <= 1e-6,
                "sigmoid({x}): {sig} vs {sig_ref}"
            );
            let tan = tanh_approx(x);
            let tan_ref = x.tanh();
            assert!(
                ulp_distance(tan, tan_ref) <= 32 || (tan - tan_ref).abs() <= 1e-6,
                "tanh({x}): {tan} vs {tan_ref}"
            );
        }
        // Exact anchors.
        assert_eq!(exp_approx(0.0), 1.0);
        assert_eq!(sigmoid_approx(0.0), 0.5);
        assert_eq!(tanh_approx(0.0), 0.0);
        assert!(sigmoid_approx(-30.0).abs() < 1e-9);
        assert!((sigmoid_approx(30.0) - 1.0).abs() < 1e-6);
        assert!(tanh_approx(30.0) <= 1.0 && tanh_approx(30.0) > 0.999999);
    }

    #[test]
    fn nan_stays_nan_and_special_values_match_at_every_level() {
        // The specials repeated past every vector width, then a 3-element
        // tail: every special value sits in a vector lane and in a
        // remainder at every level.
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-40,
            -1e-40,
            -0.5,
        ];
        let mut inputs = specials.repeat(9);
        inputs.extend_from_slice(&[f32::NAN, -1e-40, f32::NEG_INFINITY]);
        type Kernel = (&'static str, fn(&mut [f32]), fn(f32) -> f32);
        let slices: [Kernel; 3] = [
            ("exp", exp_slice, exp_approx),
            ("sigmoid", sigmoid_slice, sigmoid_approx),
            ("tanh", tanh_slice, tanh_approx),
        ];
        for (name, slice, approx) in slices {
            assert!(approx(f32::NAN).is_nan(), "{name}_approx(NaN)");
            let reference: Vec<u32> = inputs.iter().map(|&x| approx(x).to_bits()).collect();
            for requested in LEVELS {
                with_level(requested, |actual| {
                    let mut row = inputs.clone();
                    slice(&mut row);
                    for (j, (&x, &y)) in inputs.iter().zip(&row).enumerate() {
                        if x.is_nan() {
                            assert!(y.is_nan(), "{name}(NaN) = {y} at index {j}, {actual:?}");
                        } else {
                            assert_eq!(
                                y.to_bits(),
                                reference[j],
                                "{name}({x}) at index {j}, {actual:?}"
                            );
                        }
                    }
                });
            }
        }
    }
}
