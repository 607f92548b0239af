//! Runtime-dispatched SIMD micro-kernels: the single point every GEMM inner
//! loop, fused epilogue and elementwise `exp`, sigmoid and tanh routes
//! through.
//!
//! # Dispatch
//!
//! The instruction set is picked once per process ([`detected_level`]) with
//! `is_x86_feature_detected!` (both x86 vector levels require FMA; AVX-512
//! means AVX-512F, only on toolchains ≥ 1.89, see the crate's `build.rs`);
//! NEON is unconditional on aarch64 and the scalar
//! loops remain the mandatory fallback everywhere else. The *active* level
//! ([`level`]) starts from the `TENSOR_SIMD` environment variable —
//! `0`/`off`/`scalar` forces the scalar path, `avx2`/`avx512`/`neon`
//! requests a specific ISA (clamped to what the host supports),
//! `1`/`auto`/empty/unset selects the detected maximum, and any other value
//! falls back to scalar (misconfiguration should be slow and correct, the
//! same policy `TENSOR_THREADS` follows) — and can be overridden at runtime
//! with [`set_level`] (used by the bench binaries' `--no-simd` flag).
//!
//! # Bitwise contract
//!
//! Every kernel gives the same bits at every level. The vector bodies of
//! [`axpy`], [`axpy4`], [`dot`], the GEMM block kernel [`gemm_axpy4`], ReLU,
//! every bias/mask/scale epilogue helper and the transcendentals
//! ([`exp_slice`], [`sigmoid_slice`], [`tanh_slice`]) reproduce the scalar
//! bodies **bitwise**:
//!
//! * every product term is one fused multiply-add, `c ← fma(a, b, c)`,
//!   rounded once. [`axpy`] is `c[j] = fma(alpha, b[j], c[j])`, [`axpy4`]
//!   four `axpy`s in order, and each element of [`gemm_axpy4`] the chain
//!   `c ← fma(a_p, b_p, c)` over `p` in K order. Its block of C stays in
//!   registers across a 128-deep K panel; a sequential chain cannot change
//!   at a panel edge or where a chunk of rows starts, so panels and pool
//!   chunks are for cache reuse and threads only. `A·B`, `Aᵀ·B` and
//!   `A·Bᵀ` all run on it, so the three product forms share one rule;
//! * [`dot`] accumulates 8 independent lanes, lane `l` the chain
//!   `fma(x[8t+l], y[8t+l], ·)` over `t` from `0.0`, then sums the lanes
//!   `0..7` from `0.0` with plain adds and runs the tail as `fma` steps in
//!   order. Under AVX-512 it stays on the 8-lane kernel (a 16-lane
//!   reduction would reassociate the sum);
//! * the scalar bodies are the reference, written with `f32::mul_add`,
//!   which is exactly rounded, so every build of them gives the same bits.
//!   The Scalar level runs them compiled with `fma` enabled where the CPU
//!   has it (one instruction per term instead of a libm call) and the
//!   plain build elsewhere. NEON runs them for the products (on aarch64
//!   `mul_add` is one instruction; no NEON body exists, so its speed is
//!   unmeasured);
//! * everything else — the epilogues, ReLU and the transcendentals — issues
//!   its multiplies and adds as separate instructions in the scalar order,
//!   never fused;
//! * ReLU is `max(v, 0.0)` in both worlds (`-0.0` inputs may normalise to
//!   `+0.0` differently across ISAs);
//! * the transcendentals are polynomials — a Cephes-style `exp`, which the
//!   sigmoid runs on `−|x|`, and Eigen's rational tanh. Their scalar forms
//!   ([`exp_approx`], [`sigmoid_approx`], [`tanh_approx`]) replay the
//!   vector op sequence one element at a time; they are the Scalar and
//!   NEON levels and the vector bodies' tails.
//!
//! So `TENSOR_SIMD=0` selects the scalar bodies, not other numerics. The
//! polynomials are a few ULP from `libm`: ≤ 16 ULP or 1e-6 absolute for
//! sigmoid, ≤ 32 ULP or 1e-6 absolute for tanh (the latter dominated by
//! the saturation clamp at |x| ≈ 7.9), and for `exp` over `[−88, 0]` ≤ 2 ULP
//! where `libm`'s result is a normal float (1 ULP measured against glibc)
//! and ≤ 1e-38 absolute below that: the kernel returns 0 from about
//! −87.68 down.
//!
//! NaN in gives NaN out at every level: each clamp puts its bound first
//! (`min(HI, x)`, which returns `x` when `x` is NaN), so no NaN is clamped
//! into a number. [`exp_slice`] is meant for `x ≤ 0` (shifted logits and
//! scores) and NaN; above about 88.38 it saturates at `exp(88.38)` rather
//! than returning +inf.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Level detection and selection
// ---------------------------------------------------------------------------

/// Instruction-set tiers the kernels dispatch over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SimdLevel {
    /// Plain slice loops; the mandatory fallback and the `TENSOR_SIMD=0`
    /// determinism anchor.
    Scalar = 0,
    /// 128-bit NEON (aarch64, where it is architecturally guaranteed).
    Neon = 1,
    /// 256-bit AVX2 (x86-64, runtime-detected).
    Avx2 = 2,
    /// 512-bit AVX-512F (x86-64, runtime-detected, toolchain ≥ 1.89).
    Avx512 = 3,
}

impl SimdLevel {
    /// Stable lowercase name (used in `TENSOR_SIMD`, `TUNE_GEMM.json` and
    /// the bench JSON's `simd.isa` key).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Neon => "neon",
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
            "neon" => Some(Some(SimdLevel::Neon)),
            "avx2" => Some(Some(SimdLevel::Avx2)),
            "avx512" => Some(Some(SimdLevel::Avx512)),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            1 => SimdLevel::Neon,
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            _ => SimdLevel::Scalar,
        }
    }
}

fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // Every product body issues FMA. No body uses a 128/256-bit EVEX
        // form or ymm16–31, so AVX-512VL is not required.
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
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
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
/// request degrades down its own ISA family (AVX-512 → AVX2 → scalar,
/// NEON → scalar) rather than erroring, so `TENSOR_SIMD=avx512` on an
/// AVX2-only machine still vectorises.
pub fn clamp_to_detected(requested: SimdLevel) -> SimdLevel {
    let detected = detected_level();
    match requested {
        SimdLevel::Scalar => SimdLevel::Scalar,
        SimdLevel::Neon if detected == SimdLevel::Neon => SimdLevel::Neon,
        SimdLevel::Neon => SimdLevel::Scalar,
        SimdLevel::Avx2 | SimdLevel::Avx512 if detected < SimdLevel::Avx2 => SimdLevel::Scalar,
        SimdLevel::Avx2 => SimdLevel::Avx2,
        SimdLevel::Avx512 => detected.min(SimdLevel::Avx512),
    }
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
// Scalar reference kernels (the dispatch fallback and the bitwise spec)
// ---------------------------------------------------------------------------

// The product bodies are `inline(always)` so that `scalar_fma` compiles the
// same source with `fma` enabled.
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

    #[inline]
    pub fn add_bias(row: &mut [f32], bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }

    #[inline]
    pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32) {
        for ((v, &b), &m) in row.iter_mut().zip(bias).zip(mask) {
            *v = (*v + b) * (m * scale);
        }
    }

    #[inline]
    pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v = *v * scale + b;
        }
    }

    #[inline]
    pub fn relu(row: &mut [f32]) {
        for v in row.iter_mut() {
            *v = v.max(0.0);
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

/// The Scalar level's product bodies compiled with `fma` enabled: the same
/// source as [`scalar`], so the same bits, with each `mul_add` one
/// instruction instead of a call to libm's `fmaf`.
#[cfg(target_arch = "x86_64")]
mod scalar_fma {
    use super::scalar;

    /// # Safety
    ///
    /// The CPU supports FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
        scalar::axpy(c, alpha, b)
    }

    /// # Safety
    ///
    /// The CPU supports FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn axpy4(
        c: &mut [f32],
        alpha: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        scalar::axpy4(c, alpha, b0, b1, b2, b3)
    }

    /// # Safety
    ///
    /// The CPU supports FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        scalar::dot(x, y)
    }

    /// # Safety
    ///
    /// The CPU supports FMA.
    #[target_feature(enable = "fma")]
    pub unsafe fn gemm_axpy4(
        a: &[f32],
        a_strides: [usize; 2],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        scalar::gemm_axpy4(a, a_strides, b, c, m, k, n)
    }
}

/// Depth of the K panels [`gemm_axpy4`] walks: a `KC`-deep panel of B stays
/// cache-resident while every row block of C passes over it (the CPU
/// analogue of staging a tile in shared memory).
const KC: usize = 128;

// ---------------------------------------------------------------------------
// Polynomial transcendentals (the Scalar and NEON levels and the vector
// bodies' tails — every operation below has a lane-for-lane vector twin)
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

/// Polynomial `exp`, the scalar replay of the vector kernel: identical op
/// sequence (separate mul/add, floor-based range reduction, exponent-bit
/// 2^n), so a scalar element rounds exactly like a vector lane. Meant for
/// `x ≤ 0`; saturates at `exp(88.38)` above about 88.38, and maps NaN to
/// NaN.
#[inline]
pub fn exp_approx(x: f32) -> f32 {
    use exp_consts::*;
    // MINPS(HI, x) then MAXPS(LO, ·): the bound first, so a NaN `x` passes
    // through, lane for lane like the vector kernel.
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

/// Polynomial sigmoid: `t = exp(-|x|)`, `r = 1/(1+t)`, selecting `r` for
/// `x ≥ 0` and `t·r` otherwise (avoids cancellation on the negative side);
/// NaN maps to NaN.
#[inline]
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
#[inline]
pub fn tanh_approx(x: f32) -> f32 {
    use tanh_consts::*;
    // MAXPS(−CLAMP, x) then MINPS(CLAMP, ·), NaN-preserving like
    // [`exp_approx`].
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
// AVX2 / AVX-512 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{exp_approx, exp_consts, sigmoid_approx, tanh_approx, tanh_consts};
    use std::arch::x86_64::*;

    /// `c = fma(alpha, b, c)`, 8 lanes at a time.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_avx2(c: &mut [f32], alpha: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            let vb = _mm256_loadu_ps(b.as_ptr().add(j));
            let vc = _mm256_loadu_ps(c.as_ptr().add(j));
            _mm256_storeu_ps(c.as_mut_ptr().add(j), _mm256_fmadd_ps(va, vb, vc));
            j += 8;
        }
        while j < n {
            c[j] = alpha.mul_add(b[j], c[j]);
            j += 1;
        }
    }

    /// Four `fma` steps per element, in order.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy4_avx2(
        c: &mut [f32],
        alpha: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = c
            .len()
            .min(b0.len())
            .min(b1.len())
            .min(b2.len())
            .min(b3.len());
        let va0 = _mm256_set1_ps(alpha[0]);
        let va1 = _mm256_set1_ps(alpha[1]);
        let va2 = _mm256_set1_ps(alpha[2]);
        let va3 = _mm256_set1_ps(alpha[3]);
        let mut j = 0;
        while j + 8 <= n {
            let mut vc = _mm256_loadu_ps(c.as_ptr().add(j));
            vc = _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.as_ptr().add(j)), vc);
            vc = _mm256_fmadd_ps(va1, _mm256_loadu_ps(b1.as_ptr().add(j)), vc);
            vc = _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.as_ptr().add(j)), vc);
            vc = _mm256_fmadd_ps(va3, _mm256_loadu_ps(b3.as_ptr().add(j)), vc);
            _mm256_storeu_ps(c.as_mut_ptr().add(j), vc);
            j += 8;
        }
        while j < n {
            let t = alpha[1].mul_add(b1[j], alpha[0].mul_add(b0[j], c[j]));
            c[j] = alpha[3].mul_add(b3[j], alpha[2].mul_add(b2[j], t));
            j += 1;
        }
    }

    /// 8-lane dot product: the vector accumulator *is* the scalar kernel's
    /// `[f32; 8]` lane array, reduced in the same sequential lane order.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_avx2(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let mut acc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let vx = _mm256_loadu_ps(x.as_ptr().add(j));
            let vy = _mm256_loadu_ps(y.as_ptr().add(j));
            acc = _mm256_fmadd_ps(vx, vy, acc);
            j += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut sum = 0.0;
        for &lane in &lanes {
            sum += lane;
        }
        while j < n {
            sum = x[j].mul_add(y[j], sum);
            j += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_bias_avx2(row: &mut [f32], bias: &[f32]) {
        let n = row.len().min(bias.len());
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_add_ps(v, b));
            j += 8;
        }
        while j < n {
            row[j] += bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn add_bias_mask_scale_avx2(
        row: &mut [f32],
        bias: &[f32],
        mask: &[f32],
        scale: f32,
    ) {
        let n = row.len().min(bias.len()).min(mask.len());
        let vs = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            let m = _mm256_loadu_ps(mask.as_ptr().add(j));
            let r = _mm256_mul_ps(_mm256_add_ps(v, b), _mm256_mul_ps(m, vs));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * (mask[j] * scale);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_add_bias_avx2(row: &mut [f32], scale: f32, bias: &[f32]) {
        let n = row.len().min(bias.len());
        let vs = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            let b = _mm256_loadu_ps(bias.as_ptr().add(j));
            let r = _mm256_add_ps(_mm256_mul_ps(v, vs), b);
            _mm256_storeu_ps(row.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            row[j] = row[j] * scale + bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn relu_avx2(row: &mut [f32]) {
        let n = row.len();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_loadu_ps(row.as_ptr().add(j));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_max_ps(v, zero));
            j += 8;
        }
        while j < n {
            row[j] = row[j].max(0.0);
            j += 1;
        }
    }

    /// Vector twin of [`super::exp_approx`]: same clamp, range reduction,
    /// Horner polynomial and exponent-bit 2^n, lane for lane. The clamp
    /// bounds come first: MINPS/MAXPS return their second operand when
    /// either is NaN, so a NaN lane stays NaN.
    #[target_feature(enable = "avx2")]
    unsafe fn exp_ps(x: __m256) -> __m256 {
        use exp_consts::*;
        let x = _mm256_max_ps(_mm256_set1_ps(LO), _mm256_min_ps(_mm256_set1_ps(HI), x));
        let fx = _mm256_floor_ps(_mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2EF)),
            _mm256_set1_ps(0.5),
        ));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C1)));
        let x = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(C2)));
        let z = _mm256_mul_ps(x, x);
        let mut y = _mm256_set1_ps(P0);
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P1));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P2));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P3));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P4));
        y = _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(P5));
        y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(y, z), x), _mm256_set1_ps(1.0));
        let n = _mm256_cvttps_epi32(fx);
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            n,
            _mm256_set1_epi32(127),
        )));
        _mm256_mul_ps(y, pow2)
    }

    /// Polynomial `exp` of every element of `row` in place: 8-lane blocks
    /// through [`exp_ps`], the tail through [`super::exp_approx`].
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn exp_avx2(row: &mut [f32]) {
        let n = row.len();
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(row.as_ptr().add(j));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), exp_ps(x));
            j += 8;
        }
        while j < n {
            row[j] = exp_approx(row[j]);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn sigmoid_avx2(row: &mut [f32]) {
        let n = row.len();
        let sign = _mm256_set1_ps(-0.0);
        let one = _mm256_set1_ps(1.0);
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(row.as_ptr().add(j));
            // t = exp(-|x|) via OR-ing the sign bit in.
            let t = exp_ps(_mm256_or_ps(x, sign));
            let r = _mm256_div_ps(one, _mm256_add_ps(one, t));
            let neg = _mm256_mul_ps(t, r);
            let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(x, zero);
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_blendv_ps(neg, r, ge));
            j += 8;
        }
        while j < n {
            row[j] = sigmoid_approx(row[j]);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh_avx2(row: &mut [f32]) {
        use tanh_consts::*;
        let n = row.len();
        let clamp = _mm256_set1_ps(CLAMP);
        let neg_clamp = _mm256_set1_ps(-CLAMP);
        let mut j = 0;
        while j + 8 <= n {
            let x = _mm256_loadu_ps(row.as_ptr().add(j));
            let x = _mm256_min_ps(clamp, _mm256_max_ps(neg_clamp, x));
            let z = _mm256_mul_ps(x, x);
            let mut p = _mm256_set1_ps(A13);
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A11));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A9));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A7));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A5));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A3));
            p = _mm256_add_ps(_mm256_mul_ps(z, p), _mm256_set1_ps(A1));
            let p = _mm256_mul_ps(x, p);
            let mut q = _mm256_set1_ps(B6);
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B4));
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B2));
            q = _mm256_add_ps(_mm256_mul_ps(z, q), _mm256_set1_ps(B0));
            _mm256_storeu_ps(row.as_mut_ptr().add(j), _mm256_div_ps(p, q));
            j += 8;
        }
        while j < n {
            row[j] = tanh_approx(row[j]);
            j += 1;
        }
    }

    /// 16-lane axpy. Lane-wise `fma` has no cross-lane reduction, so any
    /// width is bitwise identical to the scalar loop.
    // The AVX-512 intrinsics stabilised in 1.89; `tensor_avx512` is only
    // emitted by build.rs on rustc >= 1.89, so the MSRV lint cannot apply.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f,fma")]
    pub unsafe fn axpy_avx512(c: &mut [f32], alpha: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let va = _mm512_set1_ps(alpha);
        let mut j = 0;
        while j + 16 <= n {
            let vb = _mm512_loadu_ps(b.as_ptr().add(j));
            let vc = _mm512_loadu_ps(c.as_ptr().add(j));
            _mm512_storeu_ps(c.as_mut_ptr().add(j), _mm512_fmadd_ps(va, vb, vc));
            j += 16;
        }
        while j < n {
            c[j] = alpha.mul_add(b[j], c[j]);
            j += 1;
        }
    }

    /// 16-lane four-step update, one `fma` per step in order.
    // See axpy_avx512: the build.rs cfg gate already guarantees rustc >= 1.89.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f,fma")]
    pub unsafe fn axpy4_avx512(
        c: &mut [f32],
        alpha: [f32; 4],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) {
        let n = c
            .len()
            .min(b0.len())
            .min(b1.len())
            .min(b2.len())
            .min(b3.len());
        let va0 = _mm512_set1_ps(alpha[0]);
        let va1 = _mm512_set1_ps(alpha[1]);
        let va2 = _mm512_set1_ps(alpha[2]);
        let va3 = _mm512_set1_ps(alpha[3]);
        let mut j = 0;
        while j + 16 <= n {
            let mut vc = _mm512_loadu_ps(c.as_ptr().add(j));
            vc = _mm512_fmadd_ps(va0, _mm512_loadu_ps(b0.as_ptr().add(j)), vc);
            vc = _mm512_fmadd_ps(va1, _mm512_loadu_ps(b1.as_ptr().add(j)), vc);
            vc = _mm512_fmadd_ps(va2, _mm512_loadu_ps(b2.as_ptr().add(j)), vc);
            vc = _mm512_fmadd_ps(va3, _mm512_loadu_ps(b3.as_ptr().add(j)), vc);
            _mm512_storeu_ps(c.as_mut_ptr().add(j), vc);
            j += 16;
        }
        while j < n {
            let t = alpha[1].mul_add(b1[j], alpha[0].mul_add(b0[j], c[j]));
            c[j] = alpha[3].mul_add(b3[j], alpha[2].mul_add(b2[j], t));
            j += 1;
        }
    }

    // -----------------------------------------------------------------------
    // Register-blocked GEMM bodies
    // -----------------------------------------------------------------------

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
    /// K range: per element the `fma` chain of [`axpy_avx2`]. `MASKED`
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
    /// `kc`-deep K range: per element the `fma` chain of [`axpy_avx512`].
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
// NEON kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn relu_neon(row: &mut [f32]) {
        let n = row.len();
        let zero = vdupq_n_f32(0.0);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vmaxq_f32(v, zero));
            j += 4;
        }
        while j < n {
            row[j] = row[j].max(0.0);
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_bias_neon(row: &mut [f32], bias: &[f32]) {
        let n = row.len().min(bias.len());
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vaddq_f32(v, b));
            j += 4;
        }
        while j < n {
            row[j] += bias[j];
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn add_bias_mask_scale_neon(
        row: &mut [f32],
        bias: &[f32],
        mask: &[f32],
        scale: f32,
    ) {
        let n = row.len().min(bias.len()).min(mask.len());
        let vs = vdupq_n_f32(scale);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            let m = vld1q_f32(mask.as_ptr().add(j));
            vst1q_f32(
                row.as_mut_ptr().add(j),
                vmulq_f32(vaddq_f32(v, b), vmulq_f32(m, vs)),
            );
            j += 4;
        }
        while j < n {
            row[j] = (row[j] + bias[j]) * (mask[j] * scale);
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn scale_add_bias_neon(row: &mut [f32], scale: f32, bias: &[f32]) {
        let n = row.len().min(bias.len());
        let vs = vdupq_n_f32(scale);
        let mut j = 0;
        while j + 4 <= n {
            let v = vld1q_f32(row.as_ptr().add(j));
            let b = vld1q_f32(bias.as_ptr().add(j));
            vst1q_f32(row.as_mut_ptr().add(j), vaddq_f32(vmulq_f32(v, vs), b));
            j += 4;
        }
        while j < n {
            row[j] = row[j] * scale + bias[j];
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch points
// ---------------------------------------------------------------------------

/// `c[j] = fma(alpha, b[j], c[j])` over equal-length slices (the shorter
/// length wins, like a `zip` loop).
#[inline]
pub fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::axpy_avx512(c, alpha, b) },
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::axpy_avx2(c, alpha, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(c, alpha, b) },
        // SAFETY: the guard checked FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe {
            scalar_fma::axpy(c, alpha, b)
        },
        _ => scalar::axpy(c, alpha, b),
    }
}

/// Four [`axpy`]s in order: per element `c = fma(a_q, b_q[j], c)` for
/// `q = 0..3`.
#[inline]
pub fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::axpy4_avx512(c, alpha, b0, b1, b2, b3) },
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::axpy4_avx2(c, alpha, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy4_avx2(c, alpha, b0, b1, b2, b3) },
        // SAFETY: the guard checked FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe {
            scalar_fma::axpy4(c, alpha, b0, b1, b2, b3)
        },
        _ => scalar::axpy4(c, alpha, b0, b1, b2, b3),
    }
}

/// Dot product in the 8-lane `fma` accumulation order (see module docs);
/// NEON keeps the scalar loop for the same reason AVX-512 delegates to the
/// 8-lane AVX2 kernel — a 4-lane reduction would reassociate.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::dot_avx2(x, y) },
        // SAFETY: the guard checked FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe { scalar_fma::dot(x, y) },
        _ => scalar::dot(x, y),
    }
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
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    match level() {
        // SAFETY: the level is AVX-512 only when the CPU has AVX-512F (see
        // `detect`), and the asserts above bound every element of A, B and
        // C the body touches.
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::gemm_axpy4_avx512(pa, a_strides, pb, pc, m, k, n) },
        // SAFETY: every vector level on x86-64 implies AVX2 and FMA (see
        // `detect`), and the asserts above bound every element the body
        // touches.
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::gemm_axpy4_avx2(pa, a_strides, pb, pc, m, k, n) },
        // SAFETY: as above — AVX2 and FMA are detected, the extents are
        // asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gemm_axpy4_avx2(pa, a_strides, pb, pc, m, k, n) },
        // SAFETY: the guard checked FMA.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Scalar if is_x86_feature_detected!("fma") => unsafe {
            scalar_fma::gemm_axpy4(a, a_strides, b, c, m, k, n)
        },
        _ => scalar::gemm_axpy4(a, a_strides, b, c, m, k, n),
    }
}

/// `dst = srcᵀ`: `src` is `rows × cols` and `dst` `cols × rows`, both
/// row-major. It moves values without arithmetic, so every level gives the
/// same bits; the x86 vector levels move 8 × 8 blocks through registers.
///
/// # Panics
///
/// Panics if `src` does not hold `rows × cols` values or `dst` as many.
pub fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    let len = rows.checked_mul(cols);
    assert_eq!(Some(src.len()), len, "src must hold rows × cols values");
    assert_eq!(dst.len(), src.len(), "dst must hold as many values as src");
    match level() {
        // SAFETY: every vector level on x86-64 implies AVX (see `detect`),
        // and both slices hold the `rows × cols` values the body touches.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::transpose_avx(src.as_ptr(), rows, cols, dst.as_mut_ptr())
        },
        _ => scalar::transpose(src, rows, cols, dst),
    }
}

/// `row[j] += bias[j]`.
#[inline]
pub fn add_bias(row: &mut [f32], bias: &[f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::add_bias_avx2(row, bias) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_bias_neon(row, bias) },
        _ => scalar::add_bias(row, bias),
    }
}

/// `row[j] = (row[j] + bias[j]) * (mask[j] * scale)`.
#[inline]
pub fn add_bias_mask_scale(row: &mut [f32], bias: &[f32], mask: &[f32], scale: f32) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::add_bias_mask_scale_avx2(row, bias, mask, scale)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::add_bias_mask_scale_neon(row, bias, mask, scale) },
        _ => scalar::add_bias_mask_scale(row, bias, mask, scale),
    }
}

/// `row[j] = row[j] * scale + bias[j]` (the tile epilogue's order).
#[inline]
pub fn scale_add_bias(row: &mut [f32], scale: f32, bias: &[f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            x86::scale_add_bias_avx2(row, scale, bias)
        },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::scale_add_bias_neon(row, scale, bias) },
        _ => scalar::scale_add_bias(row, scale, bias),
    }
}

/// Elementwise `max(v, 0.0)` — scalar-exact at every level.
#[inline]
pub fn relu_slice(row: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::relu_avx2(row) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::relu_neon(row) },
        _ => scalar::relu(row),
    }
}

/// Elementwise polynomial `exp` ([`exp_approx`]), the same bits at every
/// level: one AVX2 body serves both x86 levels, and Scalar and NEON run the
/// scalar form. Callers pass `x ≤ 0` (shifted logits and scores) or NaN;
/// above about 88.38 the result saturates at `exp(88.38)`, not +inf.
#[inline]
pub fn exp_slice(row: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every vector level on x86-64 implies AVX2 (see `detect`),
        // and the body touches only `row`'s elements.
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::exp_avx2(row) },
        _ => row.iter_mut().for_each(|v| *v = exp_approx(*v)),
    }
}

/// Elementwise polynomial sigmoid ([`sigmoid_approx`]), the same bits at
/// every level (see [`exp_slice`]).
#[inline]
pub fn sigmoid_slice(row: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every vector level on x86-64 implies AVX2 (see `detect`),
        // and the body touches only `row`'s elements.
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::sigmoid_avx2(row) },
        _ => row.iter_mut().for_each(|v| *v = sigmoid_approx(*v)),
    }
}

/// Elementwise polynomial tanh ([`tanh_approx`]), the same bits at every
/// level (see [`exp_slice`]).
#[inline]
pub fn tanh_slice(row: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every vector level on x86-64 implies AVX2 (see `detect`),
        // and the body touches only `row`'s elements.
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::tanh_avx2(row) },
        _ => row.iter_mut().for_each(|v| *v = tanh_approx(*v)),
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
        assert_eq!(SimdLevel::parse("neon"), Some(Some(SimdLevel::Neon)));
        assert_eq!(SimdLevel::parse(""), Some(None));
        assert_eq!(SimdLevel::parse("auto"), Some(None));
        assert_eq!(SimdLevel::parse("bogus"), None);
    }

    #[test]
    fn clamp_never_exceeds_detected() {
        for requested in [
            SimdLevel::Scalar,
            SimdLevel::Neon,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            let clamped = clamp_to_detected(requested);
            assert!(clamped <= detected_level(), "{requested:?} → {clamped:?}");
            assert_eq!(clamp_to_detected(clamped), clamped, "clamp is idempotent");
        }
    }

    /// Every x86 vector body issues FMA, so a detected vector level
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
            for requested in [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512] {
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
        // The dispatch test of the satellite list: whatever the host
        // detects must actually become the active level when requested.
        let detected = detected_level();
        with_level(detected, |actual| {
            assert_eq!(actual, detected);
            assert_eq!(level(), detected);
        });
    }

    #[test]
    fn vector_kernels_match_scalar_bitwise() {
        // Odd lengths exercise every remainder tail.
        for len in [1usize, 7, 8, 9, 16, 31, 64, 100] {
            let b0 = test_data(len);
            let b1: Vec<f32> = b0.iter().map(|v| v * 0.5 + 1.0).collect();
            let b2: Vec<f32> = b0.iter().map(|v| v * -0.25 + 2.0).collect();
            let b3: Vec<f32> = b0.iter().map(|v| v * 2.0 - 3.0).collect();
            let c0 = test_data(len);

            let mut expected_axpy = c0.clone();
            scalar::axpy(&mut expected_axpy, 1.25, &b0);
            let mut expected_axpy4 = c0.clone();
            scalar::axpy4(
                &mut expected_axpy4,
                [1.25, -0.5, 0.75, 2.0],
                &b0,
                &b1,
                &b2,
                &b3,
            );
            let expected_dot = scalar::dot(&c0, &b0);

            with_level(detected_level(), |_| {
                let mut c = c0.clone();
                axpy(&mut c, 1.25, &b0);
                assert_eq!(c, expected_axpy, "axpy len {len}");
                let mut c = c0.clone();
                axpy4(&mut c, [1.25, -0.5, 0.75, 2.0], &b0, &b1, &b2, &b3);
                assert_eq!(c, expected_axpy4, "axpy4 len {len}");
                assert_eq!(dot(&c0, &b0), expected_dot, "dot len {len}");
            });
        }
    }

    #[test]
    fn epilogue_helpers_match_scalar_bitwise() {
        for len in [1usize, 5, 8, 13, 40] {
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
            scalar::relu(&mut e5);

            with_level(detected_level(), |_| {
                let mut r = base.clone();
                add_bias(&mut r, &bias);
                assert_eq!(r, e1, "add_bias len {len}");
                let mut r = base.clone();
                add_bias_mask_scale(&mut r, &bias, &mask, scale);
                assert_eq!(r, e2, "add_bias_mask_scale len {len}");
                let mut r = base.clone();
                scale_add_bias(&mut r, scale, &bias);
                assert_eq!(r, e4, "scale_add_bias len {len}");
                let mut r = base.clone();
                relu_slice(&mut r);
                assert_eq!(r, e5, "relu len {len}");
            });
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
        // The vector body and the scalar tail must agree bitwise per
        // element, or slicing/threading would change results.
        let inputs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.025).collect();
        with_level(detected_level(), |actual| {
            if actual == SimdLevel::Scalar {
                return; // nothing vectorised to compare
            }
            for len in [3usize, 8, 11, 801] {
                let mut ex = inputs[..len].to_vec();
                exp_slice(&mut ex);
                let mut sig = inputs[..len].to_vec();
                sigmoid_slice(&mut sig);
                let mut tan = inputs[..len].to_vec();
                tanh_slice(&mut tan);
                for (j, &x) in inputs[..len].iter().enumerate() {
                    assert_eq!(ex[j], exp_approx(x), "exp lane/tail at {x}");
                    assert_eq!(sig[j], sigmoid_approx(x), "sigmoid lane/tail at {x}");
                    assert_eq!(tan[j], tanh_approx(x), "tanh lane/tail at {x}");
                }
            }
        });
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
        // Two 8-lane blocks then a 3-element tail: every special value sits
        // once in a vector lane and once in the tail.
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
        let mut inputs = specials.to_vec();
        inputs.extend_from_slice(&specials);
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
            for requested in [
                SimdLevel::Scalar,
                SimdLevel::Neon,
                SimdLevel::Avx2,
                SimdLevel::Avx512,
            ] {
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
