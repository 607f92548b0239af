//! Runtime-dispatched SIMD micro-kernels: the single point every GEMM inner
//! loop, fused epilogue and elementwise `exp`, sigmoid and tanh routes
//! through.
//!
//! # Dispatch
//!
//! The instruction set is picked once per process ([`detected_level`]) with
//! `is_x86_feature_detected!` (AVX-512, which here means AVX-512F with
//! AVX-512VL, only on toolchains ≥ 1.89, see the crate's `build.rs`); NEON
//! is unconditional on aarch64 and the scalar
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
//! [`axpy`], [`axpy4`], [`dot`], the two GEMM block kernels, ReLU, every
//! bias/mask/scale epilogue helper and the transcendentals ([`exp_slice`],
//! [`sigmoid_slice`], [`tanh_slice`]) reproduce the scalar bodies
//! **bitwise**:
//!
//! * multiplies and adds are issued as separate instructions in the scalar
//!   evaluation order — never fused into FMA, which rounds once instead of
//!   twice and would change the low bits;
//! * [`dot`] keeps the historical 8-independent-lane accumulation and the
//!   sequential lane reduction, so the AVX2 kernel is lane-for-lane the
//!   scalar loop; under AVX-512 `dot` deliberately stays on the 8-lane
//!   kernel rather than widening to 16 lanes (a 16-lane reduction would
//!   reassociate the sum);
//! * the `axpy4`-form block kernel [`gemm_axpy4`] keeps a block of C in
//!   registers across a 128-deep K panel, and each element still sees
//!   [`axpy4`] then [`axpy`]: from the panel start, K runs in quads as
//!   `c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3)`, then the remaining steps
//!   one at a time as `c + a·b`. Panels are a multiple of 4 deep, so no
//!   quad straddles one, and a chunk of rows starting anywhere gives the
//!   same bits;
//! * the `dot`-form block kernel [`gemm_dot`] runs a block of dot products
//!   side by side, each element exactly [`dot`]: lane `l` sums
//!   `x[8t+l]·y[8t+l]` over `t` from `0.0`, the lanes are summed `0..7`
//!   from `0.0`, then the tail in order. Its AVX-512 body holds 16 ymm
//!   accumulators in ymm0–31, which is why the AVX-512 level also
//!   requires AVX-512VL;
//! * the scalar bodies are the reference: the old one-row-at-a-time loops.
//!   NEON runs them for the block kernels too (no NEON block body exists;
//!   its speed is unmeasured);
//! * ReLU is `max(v, 0.0)` in both worlds (`-0.0` inputs may normalise to
//!   `+0.0` differently across ISAs; accumulated GEMM outputs never produce
//!   `-0.0`);
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
    /// 512-bit AVX-512F with AVX-512VL (x86-64, runtime-detected,
    /// toolchain ≥ 1.89).
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
        // The dot-form GEMM body keeps 16 ymm accumulators, which needs
        // AVX-512VL's ymm16–31: no AVX-512 body may run without it.
        #[cfg(tensor_avx512)]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
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

mod scalar {
    #[inline]
    pub fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
        for (cj, &bj) in c.iter_mut().zip(b) {
            *cj += alpha * bj;
        }
    }

    #[inline]
    pub fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
        for ((((cj, &x0), &x1), &x2), &x3) in c.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
            *cj += alpha[0] * x0 + alpha[1] * x1 + alpha[2] * x2 + alpha[3] * x3;
        }
    }

    #[inline]
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        const LANES: usize = 8;
        let mut acc = [0.0f32; LANES];
        let mut xs = x.chunks_exact(LANES);
        let mut ys = y.chunks_exact(LANES);
        for (xc, yc) in (&mut xs).zip(&mut ys) {
            for l in 0..LANES {
                acc[l] += xc[l] * yc[l];
            }
        }
        let mut sum = 0.0;
        for &lane in &acc {
            sum += lane;
        }
        for (a, b) in xs.remainder().iter().zip(ys.remainder()) {
            sum += a * b;
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

    /// Reference `axpy4`-form product (see [`super::gemm_axpy4`]): each row
    /// of C runs [`axpy4`] over the quads of every K panel, then [`axpy`]
    /// over the panel's remainder.
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

    /// Reference `dot`-form product (see [`super::gemm_dot`]): every
    /// element of C is one [`dot`].
    pub fn gemm_dot(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
        for (i, crow) in c.chunks_exact_mut(n).take(m).enumerate() {
            let arow = &a[i * k..(i + 1) * k];
            for (j, cj) in crow.iter_mut().enumerate() {
                *cj = dot(arow, &b[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Depth of the K panels the `axpy4`-form product walks: a `KC`-deep panel
/// of B stays cache-resident while every row block of C passes over it
/// (the CPU analogue of staging a tile in shared memory).
const KC: usize = 128;

// A panel edge inside a quad would regroup the accumulation and move
// rounding; with `KC % 4 == 0` every quad sits at the same absolute `k` as
// in a single-panel pass, so results are bitwise panel-invariant.
const _: () = assert!(KC % 4 == 0, "KC must be a multiple of 4");

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

    /// `c += alpha * b`, 8 lanes at a time; mul then add, never FMA.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy_avx2(c: &mut [f32], alpha: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let va = _mm256_set1_ps(alpha);
        let mut j = 0;
        while j + 8 <= n {
            let vb = _mm256_loadu_ps(b.as_ptr().add(j));
            let vc = _mm256_loadu_ps(c.as_ptr().add(j));
            let r = _mm256_add_ps(vc, _mm256_mul_ps(va, vb));
            _mm256_storeu_ps(c.as_mut_ptr().add(j), r);
            j += 8;
        }
        while j < n {
            c[j] += alpha * b[j];
            j += 1;
        }
    }

    /// Four-panel update in the scalar grouping order:
    /// `c += ((a0·x0 + a1·x1) + a2·x2) + a3·x3`.
    #[target_feature(enable = "avx2")]
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
            let x0 = _mm256_loadu_ps(b0.as_ptr().add(j));
            let x1 = _mm256_loadu_ps(b1.as_ptr().add(j));
            let x2 = _mm256_loadu_ps(b2.as_ptr().add(j));
            let x3 = _mm256_loadu_ps(b3.as_ptr().add(j));
            let vc = _mm256_loadu_ps(c.as_ptr().add(j));
            let mut t = _mm256_add_ps(_mm256_mul_ps(va0, x0), _mm256_mul_ps(va1, x1));
            t = _mm256_add_ps(t, _mm256_mul_ps(va2, x2));
            t = _mm256_add_ps(t, _mm256_mul_ps(va3, x3));
            _mm256_storeu_ps(c.as_mut_ptr().add(j), _mm256_add_ps(vc, t));
            j += 8;
        }
        while j < n {
            c[j] += alpha[0] * b0[j] + alpha[1] * b1[j] + alpha[2] * b2[j] + alpha[3] * b3[j];
            j += 1;
        }
    }

    /// 8-lane dot product: the vector accumulator *is* the scalar kernel's
    /// `[f32; 8]` lane array, reduced in the same sequential lane order.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len().min(y.len());
        let mut acc = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            let vx = _mm256_loadu_ps(x.as_ptr().add(j));
            let vy = _mm256_loadu_ps(y.as_ptr().add(j));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(vx, vy));
            j += 8;
        }
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        let mut sum = 0.0;
        for &lane in &lanes {
            sum += lane;
        }
        while j < n {
            sum += x[j] * y[j];
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

    /// 16-lane axpy. Lane-wise mul+add has no cross-lane reduction, so any
    /// width is bitwise identical to the scalar loop.
    // The AVX-512 intrinsics stabilised in 1.89; `tensor_avx512` is only
    // emitted by build.rs on rustc >= 1.89, so the MSRV lint cannot apply.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn axpy_avx512(c: &mut [f32], alpha: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let va = _mm512_set1_ps(alpha);
        let mut j = 0;
        while j + 16 <= n {
            let vb = _mm512_loadu_ps(b.as_ptr().add(j));
            let vc = _mm512_loadu_ps(c.as_ptr().add(j));
            let r = _mm512_add_ps(vc, _mm512_mul_ps(va, vb));
            _mm512_storeu_ps(c.as_mut_ptr().add(j), r);
            j += 16;
        }
        while j < n {
            c[j] += alpha * b[j];
            j += 1;
        }
    }

    /// 16-lane four-panel update in the scalar grouping order.
    // See axpy_avx512: the build.rs cfg gate already guarantees rustc >= 1.89.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f")]
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
            let x0 = _mm512_loadu_ps(b0.as_ptr().add(j));
            let x1 = _mm512_loadu_ps(b1.as_ptr().add(j));
            let x2 = _mm512_loadu_ps(b2.as_ptr().add(j));
            let x3 = _mm512_loadu_ps(b3.as_ptr().add(j));
            let vc = _mm512_loadu_ps(c.as_ptr().add(j));
            let mut t = _mm512_add_ps(_mm512_mul_ps(va0, x0), _mm512_mul_ps(va1, x1));
            t = _mm512_add_ps(t, _mm512_mul_ps(va2, x2));
            t = _mm512_add_ps(t, _mm512_mul_ps(va3, x3));
            _mm512_storeu_ps(c.as_mut_ptr().add(j), _mm512_add_ps(vc, t));
            j += 16;
        }
        while j < n {
            c[j] += alpha[0] * b0[j] + alpha[1] * b1[j] + alpha[2] * b2[j] + alpha[3] * b3[j];
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

    /// One `MR × 8` block of C held in ymm registers across a `kc`-deep K
    /// range: per element the quads of [`axpy4_avx2`], then the single
    /// steps of [`axpy_avx2`]. `MASKED` reads and writes only the lanes of
    /// `mask` (a column fringe).
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; for every `r < MR`, `p < kc` and every column
    /// `j < 8` (only the lanes of `mask` when `MASKED`), `a + r·rs + p·ks`,
    /// `b + p·ld + j` and `c + r·ld + j` are in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn axpy4_block_avx2<const MR: usize, const MASKED: bool>(
        s: AxpyStrides,
        kc: usize,
        mask: __m256i,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut acc = [_mm256_setzero_ps(); MR];
        for (r, x) in acc.iter_mut().enumerate() {
            *x = load8::<MASKED>(c.add(r * s.ld), mask);
        }
        let mut p = 0;
        while p + 4 <= kc {
            let x0 = load8::<MASKED>(b.add(p * s.ld), mask);
            let x1 = load8::<MASKED>(b.add((p + 1) * s.ld), mask);
            let x2 = load8::<MASKED>(b.add((p + 2) * s.ld), mask);
            let x3 = load8::<MASKED>(b.add((p + 3) * s.ld), mask);
            for (r, x) in acc.iter_mut().enumerate() {
                let ar = a.add(r * s.rs + p * s.ks);
                let va0 = _mm256_set1_ps(*ar);
                let va1 = _mm256_set1_ps(*ar.add(s.ks));
                let va2 = _mm256_set1_ps(*ar.add(2 * s.ks));
                let va3 = _mm256_set1_ps(*ar.add(3 * s.ks));
                let mut t = _mm256_add_ps(_mm256_mul_ps(va0, x0), _mm256_mul_ps(va1, x1));
                t = _mm256_add_ps(t, _mm256_mul_ps(va2, x2));
                t = _mm256_add_ps(t, _mm256_mul_ps(va3, x3));
                *x = _mm256_add_ps(*x, t);
            }
            p += 4;
        }
        while p < kc {
            let vb = load8::<MASKED>(b.add(p * s.ld), mask);
            for (r, x) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*a.add(r * s.rs + p * s.ks));
                *x = _mm256_add_ps(*x, _mm256_mul_ps(va, vb));
            }
            p += 1;
        }
        for (r, &x) in acc.iter().enumerate() {
            if MASKED {
                _mm256_maskstore_ps(c.add(r * s.ld), mask, x);
            } else {
                _mm256_storeu_ps(c.add(r * s.ld), x);
            }
        }
    }

    /// Every 4-row block of an `m`-row strip, then its 1–3-row fringe.
    ///
    /// # Safety
    ///
    /// As [`axpy4_block_avx2`], for every `r < m`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn axpy4_strip_avx2<const MASKED: bool>(
        s: AxpyStrides,
        (m, kc): (usize, usize),
        mask: __m256i,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
    ) {
        let mut r = 0;
        while r + 4 <= m {
            axpy4_block_avx2::<4, MASKED>(s, kc, mask, a.add(r * s.rs), b, c.add(r * s.ld));
            r += 4;
        }
        // No fringe leaves these one block past the end: never dereferenced.
        let (a, c) = (a.wrapping_add(r * s.rs), c.wrapping_add(r * s.ld));
        match m - r {
            1 => axpy4_block_avx2::<1, MASKED>(s, kc, mask, a, b, c),
            2 => axpy4_block_avx2::<2, MASKED>(s, kc, mask, a, b, c),
            3 => axpy4_block_avx2::<3, MASKED>(s, kc, mask, a, b, c),
            _ => {}
        }
    }

    /// AVX2 body of [`super::gemm_axpy4`]: `4 × 8` blocks (four ymm
    /// accumulators, four B vectors and the broadcasts of one row fit the
    /// 16 ymm registers), masked on the column fringe.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and the extents [`super::gemm_axpy4`] asserts
    /// hold for `a`, `b` and `c`.
    #[target_feature(enable = "avx2")]
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
        let full = lane_mask8(8);
        for p0 in (0..k).step_by(super::KC) {
            let kc = super::KC.min(k - p0);
            let (a, b) = (a.add(p0 * ks), b.add(p0 * n));
            let mut j = 0;
            while j + 8 <= n {
                axpy4_strip_avx2::<false>(s, (m, kc), full, a, b.add(j), c.add(j));
                j += 8;
            }
            if j < n {
                let mask = lane_mask8(n - j);
                axpy4_strip_avx2::<true>(s, (m, kc), mask, a, b.add(j), c.add(j));
            }
        }
    }

    /// One `MR` × `16·NV` block of C held in zmm registers across a
    /// `kc`-deep K range: per element the quads of [`axpy4_avx512`], then
    /// the single steps of [`axpy_avx512`]. Loads and stores are masked by
    /// `masks[v]` (all lanes inside the matrix; fewer on a column fringe).
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
        let mut p = 0;
        while p + 4 <= kc {
            let mut xq = [[_mm512_setzero_ps(); NV]; 4];
            for (q, row) in xq.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = _mm512_maskz_loadu_ps(masks[v], b.add((p + q) * s.ld + 16 * v));
                }
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let ar = a.add(r * s.rs + p * s.ks);
                let va0 = _mm512_set1_ps(*ar);
                let va1 = _mm512_set1_ps(*ar.add(s.ks));
                let va2 = _mm512_set1_ps(*ar.add(2 * s.ks));
                let va3 = _mm512_set1_ps(*ar.add(3 * s.ks));
                for (v, x) in row.iter_mut().enumerate() {
                    let mut t =
                        _mm512_add_ps(_mm512_mul_ps(va0, xq[0][v]), _mm512_mul_ps(va1, xq[1][v]));
                    t = _mm512_add_ps(t, _mm512_mul_ps(va2, xq[2][v]));
                    t = _mm512_add_ps(t, _mm512_mul_ps(va3, xq[3][v]));
                    *x = _mm512_add_ps(*x, t);
                }
            }
            p += 4;
        }
        while p < kc {
            let mut vb = [_mm512_setzero_ps(); NV];
            for (v, x) in vb.iter_mut().enumerate() {
                *x = _mm512_maskz_loadu_ps(masks[v], b.add(p * s.ld + 16 * v));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let va = _mm512_set1_ps(*a.add(r * s.rs + p * s.ks));
                for (x, &y) in row.iter_mut().zip(&vb) {
                    *x = _mm512_add_ps(*x, _mm512_mul_ps(va, y));
                }
            }
            p += 1;
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

    /// One `MR × NR` block of dot products `C[r][j] = a_r · b_j` of
    /// `k`-long rows (A and B both at row stride `k`, C at `ldc`), one ymm
    /// accumulator per element: each element is exactly [`dot_avx2`].
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2; `a + r·k + p`, `b + j·k + p` and
    /// `c + r·ldc + j` are in bounds for every `r < MR`, `j < NR`, `p < k`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot_block<const MR: usize, const NR: usize>(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        k: usize,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); NR]; MR];
        let mut p = 0;
        while p + 8 <= k {
            let mut va = [_mm256_setzero_ps(); MR];
            for (r, x) in va.iter_mut().enumerate() {
                *x = _mm256_loadu_ps(a.add(r * k + p));
            }
            for j in 0..NR {
                let vb = _mm256_loadu_ps(b.add(j * k + p));
                for (row, &x) in acc.iter_mut().zip(&va) {
                    row[j] = _mm256_add_ps(row[j], _mm256_mul_ps(x, vb));
                }
            }
            p += 8;
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, &x) in row.iter().enumerate() {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), x);
                let mut sum = 0.0;
                for &lane in &lanes {
                    sum += lane;
                }
                for q in p..k {
                    sum += *a.add(r * k + q) * *b.add(j * k + q);
                }
                *c.add(r * ldc + j) = sum;
            }
        }
    }

    /// Every `MR`-row block of an `m`-row strip against `NR` rows of B,
    /// then the strip's row fringe (`MR ≤ 4`).
    ///
    /// # Safety
    ///
    /// As [`dot_block`], for every `r < m`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn dot_strip<const MR: usize, const NR: usize>(
        m: usize,
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        (k, ldc): (usize, usize),
    ) {
        let mut r = 0;
        while r + MR <= m {
            dot_block::<MR, NR>(a.add(r * k), b, c.add(r * ldc), k, ldc);
            r += MR;
        }
        // No fringe leaves these one block past the end: never dereferenced.
        let (a, c) = (a.wrapping_add(r * k), c.wrapping_add(r * ldc));
        match m - r {
            1 => dot_block::<1, NR>(a, b, c, k, ldc),
            2 => dot_block::<2, NR>(a, b, c, k, ldc),
            3 => dot_block::<3, NR>(a, b, c, k, ldc),
            _ => {}
        }
    }

    /// Shared body of the `dot`-form product at `MR × NR` blocks
    /// (`MR, NR ≤ 4`): each `NR`-row panel of B stays in L1 while every row
    /// block of A passes over it.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2 (and every feature the `MR × NR` accumulators
    /// need to stay in registers), and the extents [`super::gemm_dot`]
    /// asserts hold for `a`, `b` and `c`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn gemm_dot_blocked<const MR: usize, const NR: usize>(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        m: usize,
        n: usize,
        k: usize,
    ) {
        let mut j = 0;
        while j + NR <= n {
            dot_strip::<MR, NR>(m, a, b.add(j * k), c.add(j), (k, n));
            j += NR;
        }
        // No fringe leaves these one block past the end: never dereferenced.
        let (b, c) = (b.wrapping_add(j * k), c.wrapping_add(j));
        match n - j {
            1 => dot_strip::<MR, 1>(m, a, b, c, (k, n)),
            2 => dot_strip::<MR, 2>(m, a, b, c, (k, n)),
            3 => dot_strip::<MR, 3>(m, a, b, c, (k, n)),
            _ => {}
        }
    }

    /// AVX2 body of [`super::gemm_dot`]: `2 × 4` blocks, eight ymm
    /// accumulators beside two A vectors and one B vector.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, and the extents [`super::gemm_dot`] asserts
    /// hold for `a`, `b` and `c`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_dot_avx2(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        m: usize,
        n: usize,
        k: usize,
    ) {
        gemm_dot_blocked::<2, 4>(a, b, c, m, n, k);
    }

    /// AVX-512 body of [`super::gemm_dot`]: `4 × 4` blocks of 8-lane
    /// accumulators (the 16 accumulators need ymm16–31, hence AVX-512VL);
    /// the per-element order stays [`dot_avx2`]'s, never 16 lanes.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX-512F and AVX-512VL, and the extents
    /// [`super::gemm_dot`] asserts hold for `a`, `b` and `c`.
    #[allow(clippy::incompatible_msrv)]
    #[cfg(tensor_avx512)]
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn gemm_dot_avx512(
        a: *const f32,
        b: *const f32,
        c: *mut f32,
        m: usize,
        n: usize,
        k: usize,
    ) {
        gemm_dot_blocked::<4, 4>(a, b, c, m, n, k);
    }
}

// ---------------------------------------------------------------------------
// NEON kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy_neon(c: &mut [f32], alpha: f32, b: &[f32]) {
        let n = c.len().min(b.len());
        let va = vdupq_n_f32(alpha);
        let mut j = 0;
        while j + 4 <= n {
            let vb = vld1q_f32(b.as_ptr().add(j));
            let vc = vld1q_f32(c.as_ptr().add(j));
            vst1q_f32(c.as_mut_ptr().add(j), vaddq_f32(vc, vmulq_f32(va, vb)));
            j += 4;
        }
        while j < n {
            c[j] += alpha * b[j];
            j += 1;
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn axpy4_neon(
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
        let va0 = vdupq_n_f32(alpha[0]);
        let va1 = vdupq_n_f32(alpha[1]);
        let va2 = vdupq_n_f32(alpha[2]);
        let va3 = vdupq_n_f32(alpha[3]);
        let mut j = 0;
        while j + 4 <= n {
            let x0 = vld1q_f32(b0.as_ptr().add(j));
            let x1 = vld1q_f32(b1.as_ptr().add(j));
            let x2 = vld1q_f32(b2.as_ptr().add(j));
            let x3 = vld1q_f32(b3.as_ptr().add(j));
            let vc = vld1q_f32(c.as_ptr().add(j));
            let mut t = vaddq_f32(vmulq_f32(va0, x0), vmulq_f32(va1, x1));
            t = vaddq_f32(t, vmulq_f32(va2, x2));
            t = vaddq_f32(t, vmulq_f32(va3, x3));
            vst1q_f32(c.as_mut_ptr().add(j), vaddq_f32(vc, t));
            j += 4;
        }
        while j < n {
            c[j] += alpha[0] * b0[j] + alpha[1] * b1[j] + alpha[2] * b2[j] + alpha[3] * b3[j];
            j += 1;
        }
    }

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

/// `c += alpha * b` over equal-length slices (the shorter length wins, like
/// the historical `zip` loop).
#[inline]
pub fn axpy(c: &mut [f32], alpha: f32, b: &[f32]) {
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::axpy_avx512(c, alpha, b) },
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::axpy_avx2(c, alpha, b) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy_avx2(c, alpha, b) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::axpy_neon(c, alpha, b) },
        _ => scalar::axpy(c, alpha, b),
    }
}

/// `c += a0·b0 + a1·b1 + a2·b2 + a3·b3` in the scalar grouping order.
#[inline]
pub fn axpy4(c: &mut [f32], alpha: [f32; 4], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    match level() {
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::axpy4_avx512(c, alpha, b0, b1, b2, b3) },
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::axpy4_avx2(c, alpha, b0, b1, b2, b3) },
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::axpy4_avx2(c, alpha, b0, b1, b2, b3) },
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => unsafe { neon::axpy4_neon(c, alpha, b0, b1, b2, b3) },
        _ => scalar::axpy4(c, alpha, b0, b1, b2, b3),
    }
}

/// Dot product in the historical 8-lane accumulation order (see module
/// docs); NEON keeps the scalar loop for the same reason AVX-512 delegates
/// to the 8-lane AVX2 kernel — a 4-lane reduction would reassociate.
#[inline]
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe { x86::dot_avx2(x, y) },
        _ => scalar::dot(x, y),
    }
}

/// `C += A·B` in the `axpy4` form, a block of C held in registers across
/// each K panel: `c` is `m × n` and `b` is `k × n` (both row-major at row
/// stride `n`), and A's element `(r, p)` is `a[r·rs + p·ks]` for
/// `a_strides = [rs, ks]` — `[lda, 1]` reads a row-major A, `[1, lda]` its
/// transpose (so `Xᵀ·G` needs no transpose of its own). Each element of C
/// sees exactly the operations of [`axpy4`] over the quads of each
/// 128-deep K panel, then [`axpy`] over the remainder (see module docs).
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
        // SAFETY: every vector level on x86-64 implies AVX2 (see `detect`),
        // and the asserts above bound every element the body touches.
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::gemm_axpy4_avx2(pa, a_strides, pb, pc, m, k, n) },
        // SAFETY: as above — AVX2 is detected, the extents are asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gemm_axpy4_avx2(pa, a_strides, pb, pc, m, k, n) },
        _ => scalar::gemm_axpy4(a, a_strides, b, c, m, k, n),
    }
}

/// `C = A·Bᵀ` in the `dot` form, blocks of dot products run side by side:
/// `a` is `m × k`, `b` is `n × k` and `c` is `m × n`, all row-major, and
/// `C[i][j]` is exactly [`dot`]`(a_i, b_j)` (see module docs).
///
/// # Panics
///
/// Panics if `c` does not hold `m × n` values, or `a` (`b`) holds fewer
/// than `m × k` (`n × k`).
pub fn gemm_dot(a: &[f32], b: &[f32], c: &mut [f32], m: usize, n: usize, k: usize) {
    assert_eq!(Some(c.len()), m.checked_mul(n), "C must hold m × n values");
    assert!(
        m.checked_mul(k).is_some_and(|len| len <= a.len()),
        "A must hold m × k values"
    );
    assert!(
        n.checked_mul(k).is_some_and(|len| len <= b.len()),
        "B must hold n × k values"
    );
    if m == 0 || n == 0 {
        return;
    }
    let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
    match level() {
        // SAFETY: the level is AVX-512 only when the CPU has AVX-512F and
        // AVX-512VL (see `detect`), and the asserts above bound every
        // element of A, B and C the body touches.
        #[cfg(all(target_arch = "x86_64", tensor_avx512))]
        SimdLevel::Avx512 => unsafe { x86::gemm_dot_avx512(pa, pb, pc, m, n, k) },
        // SAFETY: every vector level on x86-64 implies AVX2 (see `detect`),
        // and the asserts above bound every element the body touches.
        #[cfg(all(target_arch = "x86_64", not(tensor_avx512)))]
        SimdLevel::Avx512 => unsafe { x86::gemm_dot_avx2(pa, pb, pc, m, n, k) },
        // SAFETY: as above — AVX2 is detected, the extents are asserted.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::gemm_dot_avx2(pa, pb, pc, m, n, k) },
        _ => scalar::gemm_dot(a, b, c, m, n, k),
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
mod tests {
    use super::*;

    /// Runs `f` with the active level pinned to `level`, restoring after.
    /// Tests touching the global level must go through the serializing lock
    /// below — unit tests in one binary run concurrently.
    fn with_level(requested: SimdLevel, f: impl FnOnce(SimdLevel)) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap();
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
