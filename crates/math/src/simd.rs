//! Fixed-width SIMD lane types for the CPU force pass, at both
//! precisions.
//!
//! The paper's *Improvement I* halves the arithmetic width (FP64→FP32) to
//! double the effective memory bandwidth of the force kernel. This module
//! brings that to the CPU hot path: 8-wide lane types stored as plain
//! `[T; 8]` arrays, on stable Rust — no nightly `std::simd`. Every op
//! the force kernels' batch loops are made of has two bodies computing
//! the same IEEE operation per lane:
//!
//! * a **portable** one — an `#[inline]` per-lane array loop that LLVM
//!   autovectorizes into AVX/SSE code. It is what the `f64` arithmetic
//!   (`+ − × ÷` of the f64 force body; LLVM already emits the `vaddpd` /
//!   `vmulpd` / `vdivpd` pairs, and pinning them measured no better) and
//!   every non-AVX2 build run;
//! * an **AVX2** one behind `cfg(target_feature = "avx2")` — the one
//!   `core::arch` instruction the op *is* (`vsubps`, `vcmpps`,
//!   `vpaddd`, …), reached through the safe wrappers of the private
//!   `avx2` module. Autovectorization is a good default and a poor
//!   contract: across the force kernel's batch loop, scalar replacement
//!   splits the array-typed statistic accumulators into thirty-two
//!   scalar slots and re-packs them every batch, and the voxel-staged
//!   kernel measured *slower* than the per-agent gather it replaces
//!   until its instruction selection was pinned here. The indexed
//!   gathers ([`F32x8::gather4`], [`F64x8::gather`], [`U32x8::gather`]:
//!   `vgatherdps` / `vgatherdpd` / `vpgatherdd`) are the one load shape
//!   LLVM cannot form on its own at all, and a compare that should end
//!   as a bitmask in a general register ([`F64x8::le_bits`]: `vcmppd` +
//!   `vmovmskpd`) is another it rarely finds.
//!
//! Which body a build compiled never shows in a result: CI runs the
//! kernel's oracle, the determinism suites and the checkpoint goldens
//! under both `x86-64-v3` and the portable baseline.
//!
//! Design rules that keep the path deterministic:
//!
//! * **Strict IEEE ops by default.** The basic operations are plain
//!   `+ - * /` or `sqrt` — all exactly specified by IEEE 754, so results
//!   are bitwise reproducible across machines. No FMA contraction (Rust
//!   never contracts, and the AVX2 bodies use no fused intrinsic), no
//!   fast-math, no approximate reciprocal seeds.
//! * **Bitwise masking, not branching.** [`M32x8::select`] blends lanes
//!   through bit operations on the raw `f32` representation, so a
//!   masked-out lane contributes an exact `+0.0` even when its
//!   *computed* value was NaN or ±inf (e.g. `sqrt` of a negative
//!   excluded-lane operand, or a division by a zero distance). NaNs
//!   compare false, so a NaN lane can never enter a mask.
//! * **Fixed reduction order.** [`F64x8`] accumulates each lane in `f64`
//!   and [`F64x8::reduce`] sums the lanes in index order — the
//!   accumulation order is a function of the candidate sequence alone,
//!   never of thread scheduling.
//!
//! Tails shorter than [`LANES`] are the *caller's* job: pad the last
//! batch with lanes a mask already discards rather than constructing a
//! partial vector load. See `bdm_sim::mech::simd_lanes` (f32) and
//! `bdm_sim::mech::f64_lanes` (f64, bitwise the scalar kernel: a
//! vectorised gate, [`U32x8::compacted`] survivors, Eq. 1 on those).

// Every lane kernel is written as `for l in 0..LANES { out[l] = … }`:
// the index form keeps the ops visually uniform across one- and
// two-operand kernels and is the shape LLVM's loop vectorizer matches.
// Clippy's iterator rewrite obscures that without changing codegen.
#![allow(clippy::needless_range_loop)]

use core::ops::{Add, Div, Mul, Sub};

/// Lane count of every vector type in this module (one AVX2 register of
/// `f32`, two SSE registers — either way a shape LLVM vectorizes well).
pub const LANES: usize = 8;

/// 8 × `f32` lanes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(align(32))]
pub struct F32x8(pub [f32; LANES]);

/// 8 × `u32` lanes (agent ids, lane indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(align(32))]
pub struct U32x8(pub [u32; LANES]);

/// 8-lane mask: each lane is all-ones (`!0`) or all-zeros. Produced by
/// comparisons, consumed by [`M32x8::select`] and the popcount helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(align(32))]
pub struct M32x8(pub [u32; LANES]);

/// 8 × `f64` accumulator lanes for the mixed-precision discipline: the
/// force kernel computes in `f32`, but each lane's running sum is kept in
/// `f64` so accumulation error does not grow with neighbor count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(align(64))]
pub struct F64x8(pub [f64; LANES]);

/// The body of a lane op: `$avx2` (a call into the [`avx2`] module)
/// where the build targets AVX2, else `$portable` (the
/// per-lane array loop). Both compute the same IEEE operation per lane,
/// so which one was compiled never shows in a result bit.
macro_rules! lanes {
    ($avx2:expr, $portable:expr) => {{
        #[cfg(target_feature = "avx2")]
        let out = $avx2;
        #[cfg(not(target_feature = "avx2"))]
        let out = $portable;
        out
    }};
}

/// The AVX2 bodies of the lane ops: each is the lane types bit-cast to
/// `__m256` / `__m256i` / a `__m256d` pair, one or two register-to-register
/// intrinsics, and the cast back — safe functions over the lane types, so
/// the ops above never see a register type. Only the two indexed gathers
/// at the end touch memory through a pointer.
#[cfg(target_feature = "avx2")]
mod avx2 {
    use super::{F32x8, F64x8, M32x8, U32x8};
    use core::arch::x86_64::*;

    macro_rules! bitcasts {
        ($($name:ident: $from:ty => $to:ty;)*) => {$(
            #[inline(always)]
            fn $name(v: $from) -> $to {
                // SAFETY: both sides are the same number of bytes
                // (`transmute` checks it) of plain `f32` / `u32` / `f64`
                // lanes, lane `l` at element `l`, and every bit pattern
                // is valid for either.
                unsafe { core::mem::transmute(v) }
            }
        )*};
    }
    bitcasts! {
        ps: F32x8 => __m256;
        f32x8: __m256 => F32x8;
        epi32: U32x8 => __m256i;
        u32x8: __m256i => U32x8;
        mask: M32x8 => __m256i;
        m32x8: __m256i => M32x8;
        pd: F64x8 => [__m256d; 2];
        f64x8: [__m256d; 2] => F64x8;
    }

    macro_rules! lane_ops {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty = $body:expr;)*) => {$(
            #[inline(always)]
            pub fn $name($($arg: $ty),*) -> $ret {
                // SAFETY: register-only intrinsics — no pointer, no
                // alignment, no value precondition; all they require is
                // a CPU with AVX2, which `cfg(target_feature = "avx2")`
                // on this module makes a property of the whole build.
                unsafe { $body }
            }
        )*};
    }
    lane_ops! {
        add_ps(a: F32x8, b: F32x8) -> F32x8 = f32x8(_mm256_add_ps(ps(a), ps(b)));
        sub_ps(a: F32x8, b: F32x8) -> F32x8 = f32x8(_mm256_sub_ps(ps(a), ps(b)));
        mul_ps(a: F32x8, b: F32x8) -> F32x8 = f32x8(_mm256_mul_ps(ps(a), ps(b)));
        div_ps(a: F32x8, b: F32x8) -> F32x8 = f32x8(_mm256_div_ps(ps(a), ps(b)));
        sqrt_ps(a: F32x8) -> F32x8 = f32x8(_mm256_sqrt_ps(ps(a)));
        // Ordered, quiet predicates: a NaN lane compares false.
        le_ps(a: F32x8, b: F32x8) -> M32x8 =
            m32x8(_mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(ps(a), ps(b))));
        lt_ps(a: F32x8, b: F32x8) -> M32x8 =
            m32x8(_mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(ps(a), ps(b))));
        gt_ps(a: F32x8, b: F32x8) -> M32x8 =
            m32x8(_mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(ps(a), ps(b))));
        // `if m != 0 { a } else { b }`, for any lane value of `m`.
        select_ps(m: M32x8, a: F32x8, b: F32x8) -> F32x8 = f32x8(_mm256_blendv_ps(
            ps(a),
            ps(b),
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(mask(m), _mm256_setzero_si256())),
        ));
        and_mask(a: M32x8, b: M32x8) -> M32x8 = m32x8(_mm256_and_si256(mask(a), mask(b)));
        ones(m: M32x8) -> U32x8 = u32x8(_mm256_and_si256(mask(m), _mm256_set1_epi32(1)));
        add_epi32(a: U32x8, b: U32x8) -> U32x8 = u32x8(_mm256_add_epi32(epi32(a), epi32(b)));
        ne_epi32(a: U32x8, b: U32x8) -> M32x8 = m32x8(_mm256_xor_si256(
            _mm256_cmpeq_epi32(epi32(a), epi32(b)),
            _mm256_set1_epi32(-1),
        ));
        abs_diff_epu32(a: U32x8, b: U32x8) -> U32x8 = u32x8(_mm256_sub_epi32(
            _mm256_max_epu32(epi32(a), epi32(b)),
            _mm256_min_epu32(epi32(a), epi32(b)),
        ));
        // `acc[l] + v[l] as f64`: lanes 0–3 in the first register,
        // 4–7 in the second (`vcvtps2pd` is exact).
        add_widened(acc: F64x8, v: F32x8) -> F64x8 = {
            let (acc, v) = (pd(acc), ps(v));
            f64x8([
                _mm256_add_pd(acc[0], _mm256_cvtps_pd(_mm256_castps256_ps128(v))),
                _mm256_add_pd(acc[1], _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v))),
            ])
        };
        // The f64 ops: one instruction per register half.
        sqrt_pd(a: F64x8) -> F64x8 = {
            let a = pd(a);
            f64x8([_mm256_sqrt_pd(a[0]), _mm256_sqrt_pd(a[1])])
        };
        // Ordered, quiet predicates straight to a bitmask (`vcmppd` +
        // `vmovmskpd`): lane `l` is bit `l`; a NaN lane compares false.
        le_pd_bits(a: F64x8, b: F64x8) -> u32 = {
            let (a, b) = (pd(a), pd(b));
            (_mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a[0], b[0]))
                | _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a[1], b[1])) << 4) as u32
        };
        lt_pd_bits(a: F64x8, b: F64x8) -> u32 = {
            let (a, b) = (pd(a), pd(b));
            (_mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a[0], b[0]))
                | _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a[1], b[1])) << 4) as u32
        };
        gt_pd_bits(a: F64x8, b: F64x8) -> u32 = {
            let (a, b) = (pd(a), pd(b));
            (_mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a[0], b[0]))
                | _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a[1], b[1])) << 4) as u32
        };
        // `base + row[l]` per lane: `vpmovzxbd` + `vpaddd`.
        widen_add(row: [u8; 8], base: u32) -> U32x8 = u32x8(_mm256_add_epi32(
            _mm256_cvtepu8_epi32(_mm_cvtsi64_si128(i64::from_le_bytes(row))),
            _mm256_set1_epi32(base as i32),
        ));
    }

    /// Lane indices clamped to `len − 1` (`vpminud`), so a gather through
    /// them stays inside a `len`-element slice.
    #[inline(always)]
    fn clamped(idx: U32x8, len: usize) -> __m256i {
        // The hardware reads the lanes as *signed* 32-bit offsets.
        assert!(
            (1..=i32::MAX as usize).contains(&len),
            "gather source must hold 1..=i32::MAX elements"
        );
        // SAFETY: register-only, as in `lane_ops!`.
        unsafe { _mm256_min_epu32(epi32(idx), _mm256_set1_epi32((len - 1) as i32)) }
    }

    /// `src[idx[l]]` per lane — two `vgatherdpd`.
    #[inline(always)]
    pub fn gather_pd(src: &[f64], idx: U32x8) -> F64x8 {
        let idx = clamped(idx, src.len());
        // SAFETY: every lane of `idx` is in `0..src.len()` and
        // non-negative as an `i32` (`clamped`), so each of the eight
        // 8-byte loads at `src + 8·idx[l]` lies inside `src`, which is
        // borrowed for the whole call.
        unsafe {
            f64x8([
                _mm256_i32gather_pd::<8>(src.as_ptr(), _mm256_castsi256_si128(idx)),
                _mm256_i32gather_pd::<8>(src.as_ptr(), _mm256_extracti128_si256::<1>(idx)),
            ])
        }
    }

    /// `src[idx[l]]` per lane — one `vpgatherdd`.
    #[inline(always)]
    pub fn gather_epi32(src: &[u32], idx: U32x8) -> U32x8 {
        let idx = clamped(idx, src.len());
        // SAFETY: as in `gather_pd`, with 4-byte loads at `src + 4·idx[l]`.
        unsafe { u32x8(_mm256_i32gather_epi32::<4>(src.as_ptr().cast(), idx)) }
    }
}

/// Row `bits` lists the indices of the set bits of `bits`, ascending,
/// zero-filled — the order-preserving compaction of an 8-lane bitmask as
/// one table row ([`U32x8::compacted`]).
const COMPACTED: [[u8; LANES]; 256] = {
    let mut table = [[0u8; LANES]; 256];
    let mut bits = 0;
    while bits < 256 {
        let (mut lane, mut n) = (0, 0);
        while lane < LANES {
            if bits >> lane & 1 == 1 {
                table[bits][n] = lane as u8;
                n += 1;
            }
            lane += 1;
        }
        bits += 1;
    }
    table
};

/// The portable indexed gather: `src[idx[l]]` per lane, out-of-range
/// lanes clamped to the last element instead of panicking. A per-lane
/// bounds-check branch is a side exit that forbids LLVM from vectorizing
/// the load loop; the assert hoists the only side exit out of it, after
/// which `min(last) < len` is provable and every lane's check drops.
#[cfg(not(target_feature = "avx2"))]
#[inline(always)]
fn gather_clamped<T: Copy + Default>(src: &[T], idx: U32x8) -> [T; LANES] {
    assert!(!src.is_empty(), "gather from empty slice");
    let last = src.len() - 1;
    let mut out = [T::default(); LANES];
    for l in 0..LANES {
        out[l] = src[(idx.0[l] as usize).min(last)];
    }
    out
}

impl F32x8 {
    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; LANES])
    }

    /// Gather 8 packed `[f32; 4]` records and transpose them into four
    /// lane vectors — the CPU analogue of a `float4` gather on the GPU.
    /// One address computation and one 16-byte load per lane replaces
    /// four scattered column touches; out-of-range lanes clamp to the
    /// last record, as in [`U32x8::gather`].
    ///
    /// On AVX2 targets this compiles to four hardware `vgatherdps`
    /// instructions — the one load shape LLVM cannot autovectorize from
    /// scalar IR. Written as per-lane record loads, the 8×4 transpose
    /// becomes ~30 port-5-only shuffle µops per batch, which measures as
    /// *the* throughput bottleneck of the fused force pass; the
    /// hardware gather eliminates the transpose entirely. Both paths
    /// load identical `f32` values, so results are bitwise equal.
    #[cfg(target_feature = "avx2")]
    #[inline(always)]
    pub fn gather4(src: &[[f32; 4]], idx: U32x8) -> [Self; 4] {
        use core::arch::x86_64::*;
        assert!(!src.is_empty(), "gather from empty slice");
        // Element offsets are built in i32 lanes: 4·idx + 3 must not
        // wrap. Far below any realistic agent count.
        assert!(
            src.len() <= i32::MAX as usize / 4,
            "gather4 source too large"
        );
        let last = (src.len() - 1) as u32;
        // SAFETY: every lane offset is
        // clamped to `last` first (`vpminud`), so each of the eight
        // 16-byte records the hardware gathers touch lies inside `src`,
        // which is immutably borrowed for the whole call. The
        // loadu/storeu shims move lanes between the portable `[f32; 8]`
        // representation and `__m256` without alignment assumptions.
        unsafe {
            let idxv = _mm256_loadu_si256(idx.0.as_ptr() as *const __m256i);
            let cl = _mm256_min_epu32(idxv, _mm256_set1_epi32(last as i32));
            // Record index → f32 element index (each record is 4 lanes).
            let elem = _mm256_slli_epi32::<2>(cl);
            let base = src.as_ptr() as *const f32;
            let mut out = [Self::zero(); 4];
            for (c, lanes) in out.iter_mut().enumerate() {
                let off = _mm256_add_epi32(elem, _mm256_set1_epi32(c as i32));
                let v = _mm256_i32gather_ps::<4>(base, off);
                _mm256_storeu_ps(lanes.0.as_mut_ptr(), v);
            }
            out
        }
    }

    /// Portable fallback: clamped per-lane record loads; LLVM builds
    /// the transpose from shuffles. Bitwise-identical results to the
    /// AVX2 path.
    #[cfg(not(target_feature = "avx2"))]
    #[inline(always)]
    pub fn gather4(src: &[[f32; 4]], idx: U32x8) -> [Self; 4] {
        assert!(!src.is_empty(), "gather from empty slice");
        let last = src.len() - 1;
        // Clamp as a u32 lane op first (`vpminud`) — clamping the
        // zero-extended usize per lane instead costs a scalar
        // compare+cmov chain on eight 64-bit registers.
        // (a u32 lane can't index past u32::MAX anyway, so saturating
        // the bound there keeps the clamp exact for any slice length).
        let lastv = last.min(u32::MAX as usize) as u32;
        let mut cl = [0u32; LANES];
        for l in 0..LANES {
            cl[l] = idx.0[l].min(lastv);
        }
        let mut out = [[0.0f32; LANES]; 4];
        for l in 0..LANES {
            let rec = src[cl[l] as usize];
            out[0][l] = rec[0];
            out[1][l] = rec[1];
            out[2][l] = rec[2];
            out[3][l] = rec[3];
        }
        [Self(out[0]), Self(out[1]), Self(out[2]), Self(out[3])]
    }

    /// Load 8 contiguous lanes from `src` (must hold at least 8).
    /// Contiguous vector loads are the one memory shape SLP always
    /// vectorizes cleanly, so hot loops prefer staging through a
    /// contiguous scratch buffer and reloading with this over keeping
    /// wide accumulators live across a gather-heavy loop.
    #[inline(always)]
    pub fn from_slice(src: &[f32]) -> Self {
        let mut out = [0.0f32; LANES];
        out.copy_from_slice(&src[..LANES]);
        Self(out)
    }

    /// Store the 8 lanes contiguously into `dst` (must hold at least 8).
    #[inline(always)]
    pub fn write_to_slice(self, dst: &mut [f32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Per-lane square root (`vsqrtps` — exactly rounded per IEEE 754).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        lanes!(avx2::sqrt_ps(self), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l].sqrt();
            }
            Self(out)
        })
    }

    // The comparisons below are written as branchless
    // `-(cond as i32) as u32` sign extensions rather than
    // `if cond { !0 } else { 0 }`: the two are identical lane-by-lane,
    // but the `if` form tempts LLVM into scalar `ucomiss`+`setcc` chains
    // while the arithmetic form reliably fuses into one `vcmpps`.

    /// Lanewise `self <= rhs`. NaN lanes compare false.
    #[inline(always)]
    pub fn le(self, rhs: Self) -> M32x8 {
        lanes!(avx2::le_ps(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = (-((self.0[l] <= rhs.0[l]) as i32)) as u32;
            }
            M32x8(out)
        })
    }

    /// Lanewise `self < rhs`. NaN lanes compare false.
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> M32x8 {
        lanes!(avx2::lt_ps(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = (-((self.0[l] < rhs.0[l]) as i32)) as u32;
            }
            M32x8(out)
        })
    }

    /// Lanewise `self > rhs`. NaN lanes compare false.
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> M32x8 {
        lanes!(avx2::gt_ps(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = (-((self.0[l] > rhs.0[l]) as i32)) as u32;
            }
            M32x8(out)
        })
    }
}

impl Add for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        lanes!(avx2::add_ps(self, rhs), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] + rhs.0[l];
            }
            Self(out)
        })
    }
}

impl Sub for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        lanes!(avx2::sub_ps(self, rhs), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] - rhs.0[l];
            }
            Self(out)
        })
    }
}

impl Mul for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        lanes!(avx2::mul_ps(self, rhs), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] * rhs.0[l];
            }
            Self(out)
        })
    }
}

impl Div for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        lanes!(avx2::div_ps(self, rhs), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] / rhs.0[l];
            }
            Self(out)
        })
    }
}

impl U32x8 {
    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: u32) -> Self {
        Self([v; LANES])
    }

    /// Load 8 consecutive lanes from a slice (panics if shorter).
    #[inline(always)]
    pub fn from_slice(src: &[u32]) -> Self {
        let mut out = [0u32; LANES];
        out.copy_from_slice(&src[..LANES]);
        Self(out)
    }

    /// Store the 8 lanes contiguously into `dst` (must hold at least 8).
    #[inline(always)]
    pub fn write_to_slice(self, dst: &mut [u32]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Gather `src[idx[l]]` per lane (`vpgatherdd`); out-of-range lanes
    /// clamp to the last element instead of panicking (callers index
    /// with ids already validated against `src`, where the clamp is a
    /// no-op). `src` must hold between 1 and `i32::MAX` elements.
    #[inline(always)]
    pub fn gather(src: &[u32], idx: Self) -> Self {
        lanes!(avx2::gather_epi32(src, idx), Self(gather_clamped(src, idx)))
    }

    /// Order-preserving mask compaction: the indices of the set bits of
    /// `bits` (low 8 bits, lane `l` = bit `l`), ascending, packed into
    /// the first `bits.count_ones()` lanes, each plus `base`; the other
    /// lanes hold `base`. A batch loop stores all eight lanes at its
    /// write cursor and advances the cursor by the popcount — no branch
    /// on how many lanes survived.
    #[inline(always)]
    pub fn compacted(bits: u32, base: u32) -> Self {
        let row = COMPACTED[(bits & 0xff) as usize];
        lanes!(avx2::widen_add(row, base), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = base + row[l] as u32;
            }
            Self(out)
        })
    }

    /// Lanewise `self != rhs` (branchless, like the float comparisons).
    #[inline(always)]
    pub fn ne(self, rhs: Self) -> M32x8 {
        lanes!(avx2::ne_epi32(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = (-((self.0[l] != rhs.0[l]) as i32)) as u32;
            }
            M32x8(out)
        })
    }

    /// Lanewise `|self[l] - rhs[l]|` — the per-candidate index gap. Kept
    /// in vector form so a hot loop can run many batches through a lane
    /// accumulator ([`Add`]) and pay the horizontal reduction
    /// ([`Self::reduce_sum`]) once.
    #[inline(always)]
    pub fn abs_diff(self, rhs: Self) -> Self {
        lanes!(avx2::abs_diff_epu32(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l].abs_diff(rhs.0[l]);
            }
            Self(out)
        })
    }

    /// Horizontal sum of the lanes as `u64`. Integer arithmetic, so the
    /// lane order is irrelevant to the result.
    #[inline(always)]
    pub fn reduce_sum(self) -> u64 {
        let mut sum = 0u64;
        for l in 0..LANES {
            sum += self.0[l] as u64;
        }
        sum
    }
}

/// Lanewise *wrapping* add — the counter-accumulator op (index gaps,
/// popcounts held in lanes). Wrapping, so the optimizer can keep the
/// whole accumulation in one `vpaddd` without overflow branches; callers
/// reduce often enough (per agent) that wraparound cannot occur in
/// practice.
impl Add for U32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        lanes!(avx2::add_epi32(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l].wrapping_add(rhs.0[l]);
            }
            Self(out)
        })
    }
}

impl M32x8 {
    /// Lanewise AND.
    #[inline(always)]
    pub fn and(self, rhs: Self) -> Self {
        lanes!(avx2::and_mask(self, rhs), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] & rhs.0[l];
            }
            Self(out)
        })
    }

    /// The lanes' sign bits packed into the low 8 bits — the
    /// `vmovmskps` idiom, which LLVM recognizes from this exact shift
    /// pattern when the mask is still in its natural 32-bit lane form.
    /// Beware in hot loops: if surrounding code has let the optimizer
    /// narrow the mask representation (e.g. through a blend), this
    /// lowers to a cross-lane shuffle tree instead — prefer
    /// [`Self::ones`] plus a [`U32x8`] accumulator for counting there.
    #[inline(always)]
    pub fn bits(self) -> u32 {
        let mut out = 0u32;
        for l in 0..LANES {
            out |= (self.0[l] >> 31) << l;
        }
        out
    }

    /// Number of true lanes (`vmovmskps` + `popcnt`).
    #[inline(always)]
    pub fn count(self) -> u32 {
        self.bits().count_ones()
    }

    /// The mask as 0/1 integer lanes (`vpand` with a splat of 1).
    ///
    /// This is the vertical-counting primitive: a loop that needs "how
    /// many lanes were true across many batches" adds these into a
    /// [`U32x8`] accumulator and pays one horizontal
    /// [`U32x8::reduce_sum`] at the end, instead of a per-batch
    /// horizontal [`Self::count`] — which costs a cross-lane reduction
    /// inside the hot loop every iteration.
    #[inline(always)]
    pub fn ones(self) -> U32x8 {
        lanes!(avx2::ones(self), {
            let mut out = [0u32; LANES];
            for l in 0..LANES {
                out[l] = self.0[l] & 1;
            }
            U32x8(out)
        })
    }

    /// Lanewise blend: `if mask { a } else { b }`, as *bit* operations on
    /// the raw representation — a masked-out lane yields `b`'s exact bits
    /// even when `a`'s lane is NaN/inf, which is what lets the force
    /// kernel compute `sqrt`/division unconditionally and zero the
    /// non-contact lanes afterwards.
    #[inline(always)]
    pub fn select(self, a: F32x8, b: F32x8) -> F32x8 {
        lanes!(avx2::select_ps(self, a, b), {
            let mut out = [0.0f32; LANES];
            for l in 0..LANES {
                // Lanes are all-ones or all-zeros by construction, so
                // this value select *is* the bitwise blend
                // (`vblendvps`) — and unlike the explicit
                // to_bits/from_bits formulation, LLVM keeps it in the
                // float domain instead of bouncing every lane through
                // scalar integer registers.
                out[l] = if self.0[l] != 0 { a.0[l] } else { b.0[l] };
            }
            F32x8(out)
        })
    }
}

impl F64x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; LANES])
    }

    /// All lanes = `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        Self([v; LANES])
    }

    /// Load 8 contiguous lanes from `src` (must hold at least 8); any
    /// offset will do — the load is unaligned.
    #[inline(always)]
    pub fn from_slice(src: &[f64]) -> Self {
        let mut out = [0.0f64; LANES];
        out.copy_from_slice(&src[..LANES]);
        Self(out)
    }

    /// Store the 8 lanes contiguously into `dst` (must hold at least 8).
    #[inline(always)]
    pub fn write_to_slice(self, dst: &mut [f64]) {
        dst[..LANES].copy_from_slice(&self.0);
    }

    /// Gather `src[idx[l]]` per lane (two `vgatherdpd`); out-of-range
    /// lanes clamp to the last element, as in [`U32x8::gather`]. `src`
    /// must hold between 1 and `i32::MAX` elements.
    #[inline(always)]
    pub fn gather(src: &[f64], idx: U32x8) -> Self {
        lanes!(avx2::gather_pd(src, idx), Self(gather_clamped(src, idx)))
    }

    /// Per-lane square root (`vsqrtpd` — exactly rounded per IEEE 754).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        lanes!(avx2::sqrt_pd(self), {
            let mut out = [0.0f64; LANES];
            for l in 0..LANES {
                out[l] = self.0[l].sqrt();
            }
            Self(out)
        })
    }

    // The comparisons return the bitmask itself (lane `l` = bit `l`):
    // the f64 force body compacts its survivors and walks its contacts
    // by bit, and never blends.

    /// Lanewise `self <= rhs` as a bitmask. NaN lanes compare false.
    #[inline(always)]
    pub fn le_bits(self, rhs: Self) -> u32 {
        lanes!(avx2::le_pd_bits(self, rhs), {
            let mut out = 0u32;
            for l in 0..LANES {
                out |= ((self.0[l] <= rhs.0[l]) as u32) << l;
            }
            out
        })
    }

    /// Lanewise `self < rhs` as a bitmask. NaN lanes compare false.
    #[inline(always)]
    pub fn lt_bits(self, rhs: Self) -> u32 {
        lanes!(avx2::lt_pd_bits(self, rhs), {
            let mut out = 0u32;
            for l in 0..LANES {
                out |= ((self.0[l] < rhs.0[l]) as u32) << l;
            }
            out
        })
    }

    /// Lanewise `self > rhs` as a bitmask. NaN lanes compare false.
    #[inline(always)]
    pub fn gt_bits(self, rhs: Self) -> u32 {
        lanes!(avx2::gt_pd_bits(self, rhs), {
            let mut out = 0u32;
            for l in 0..LANES {
                out |= ((self.0[l] > rhs.0[l]) as u32) << l;
            }
            out
        })
    }

    /// Widen each `f32` lane to `f64` (exact) and add it to the running
    /// lane sum (`vcvtps2pd` + `vaddpd`).
    #[inline(always)]
    pub fn accumulate(&mut self, v: F32x8) {
        *self = lanes!(avx2::add_widened(*self, v), {
            let mut out = self.0;
            for l in 0..LANES {
                out[l] += v.0[l] as f64;
            }
            Self(out)
        });
    }

    /// Horizontal sum in lane-index order (0, then 1, … then 7) — a fixed
    /// order so the reduction is deterministic.
    #[inline(always)]
    pub fn reduce(self) -> f64 {
        let mut acc = 0.0f64;
        for l in 0..LANES {
            acc += self.0[l];
        }
        acc
    }
}

// The f64 lane arithmetic mirrors the f32 ops above: plain per-lane
// IEEE `+ - * /`, which LLVM fuses into `vaddpd`/`vmulpd`/`vdivpd`
// pairs (two AVX2 registers per F64x8). Exactly specified per IEEE 754,
// so a lane computes bit-for-bit what the equivalent scalar expression
// computes — the property the f64 force body's bitwise parity with its
// scalar oracle rests on.

impl Add for F64x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        let mut out = [0.0f64; LANES];
        for l in 0..LANES {
            out[l] = self.0[l] + rhs.0[l];
        }
        Self(out)
    }
}

impl Sub for F64x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        let mut out = [0.0f64; LANES];
        for l in 0..LANES {
            out[l] = self.0[l] - rhs.0[l];
        }
        Self(out)
    }
}

impl Mul for F64x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        let mut out = [0.0f64; LANES];
        for l in 0..LANES {
            out[l] = self.0[l] * rhs.0[l];
        }
        Self(out)
    }
}

impl Div for F64x8 {
    type Output = Self;
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        let mut out = [0.0f64; LANES];
        for l in 0..LANES {
            out[l] = self.0[l] / rhs.0[l];
        }
        Self(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_scalar_bitwise() {
        let a = F32x8([1.5, -2.25, 0.0, 1e-30, 3.75e7, -0.5, 6.0, 1e-8]);
        let b = F32x8([0.5, 4.0, -1.0, 2e-30, 1.25e3, -0.25, 3.0, 7e-9]);
        let sum = a + b;
        let dif = a - b;
        let prd = a * b;
        let quo = a / b;
        for l in 0..LANES {
            assert_eq!(sum.0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif.0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(prd.0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
            assert_eq!(quo.0[l].to_bits(), (a.0[l] / b.0[l]).to_bits());
        }
        let sq = a.sqrt();
        for l in 0..LANES {
            assert_eq!(sq.0[l].to_bits(), a.0[l].sqrt().to_bits());
        }
    }

    #[test]
    fn comparisons_and_select() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let b = F32x8::splat(4.0);
        let le = a.le(b);
        assert_eq!(le.count(), 4);
        let lt = a.lt(b);
        assert_eq!(lt.count(), 3);
        let gt = a.gt(b);
        assert_eq!(gt.count(), 4);
        let sel = le.select(a, F32x8::zero());
        assert_eq!(sel.0, [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(le.and(gt).count(), 0);
    }

    #[test]
    fn mask_ones_accumulate_counts_vertically() {
        let a = F32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let le = a.le(F32x8::splat(4.0));
        assert_eq!(le.ones().0, [1, 1, 1, 1, 0, 0, 0, 0]);
        assert_eq!(M32x8([0; LANES]).ones().0, [0; LANES]);
        // Vertical accumulation over batches sums to the same total the
        // per-batch horizontal counts would give.
        let mut acc = U32x8::splat(0);
        acc = acc + le.ones();
        acc = acc + a.gt(F32x8::splat(6.0)).ones();
        assert_eq!(acc.reduce_sum(), (le.count() + 2) as u64);
    }

    #[test]
    fn nan_lanes_compare_false_and_select_zero() {
        // The force kernel computes sqrt/division on *every* lane and
        // relies on the mask to discard garbage: NaN must never pass a
        // comparison, and select must produce exact +0.0 bits for
        // masked-out NaN/inf lanes.
        let nan = f32::NAN;
        let inf = f32::INFINITY;
        let a = F32x8([nan, inf, -inf, nan, 1.0, -1.0, 0.0, nan]);
        let r = F32x8::splat(2.0);
        assert_eq!(
            a.le(r).count(),
            4,
            "-inf, 1.0, -1.0, 0.0; NaN/inf lanes fail"
        );
        assert_eq!(a.lt(r).count(), 4);
        let masked = M32x8([0; LANES]).select(a, F32x8::zero());
        for l in 0..LANES {
            assert_eq!(masked.0[l].to_bits(), 0.0f32.to_bits(), "lane {l}");
        }
        // sqrt of a negative produces NaN but stays confined to its lane.
        let sq = F32x8([-1.0, 4.0, -9.0, 16.0, 0.0, 1.0, 2.0, 3.0]).sqrt();
        assert!(sq.0[0].is_nan());
        assert_eq!(sq.0[1], 2.0);
        assert!(sq.0[2].is_nan());
        assert_eq!(sq.0[3], 4.0);
    }

    #[test]
    fn subnormal_lanes_survive_arithmetic() {
        // Rust never enables FTZ/DAZ: subnormal inputs flow through the
        // lane ops with full IEEE gradual-underflow semantics.
        let tiny = f32::MIN_POSITIVE / 4.0; // subnormal
        assert!(tiny > 0.0 && !tiny.is_normal());
        let a = F32x8::splat(tiny);
        let doubled = a + a;
        assert_eq!(doubled.0[0].to_bits(), (tiny + tiny).to_bits());
        let squared = a * a; // underflows to zero
        assert_eq!(squared.0[0], 0.0);
        let root = a.sqrt(); // sqrt of a subnormal is normal
        assert!(root.0[0].is_normal());
        assert_eq!(root.0[0].to_bits(), tiny.sqrt().to_bits());
        // Accumulating subnormals in f64 is exact.
        let mut acc = F64x8::zero();
        acc.accumulate(a);
        assert_eq!(acc.0[0], tiny as f64);
    }

    #[test]
    // The expected sum is written per-lane on purpose, zero terms included.
    #[allow(clippy::identity_op)]
    fn gather_and_ids() {
        let src = [10u32, 11, 12, 13, 14, 15, 16, 17, 18];
        let idx = U32x8([8, 0, 3, 3, 1, 7, 2, 5]);
        let g = U32x8::gather(&src, idx);
        assert_eq!(g.0, [18, 10, 13, 13, 11, 17, 12, 15]);
        let ids = U32x8::from_slice(&[4, 9, 2, 7, 4, 0, 1, 3]);
        let not_four = ids.ne(U32x8::splat(4));
        assert_eq!(not_four.count(), 6);
        assert_eq!(
            ids.abs_diff(U32x8::splat(4)).reduce_sum(),
            0 + 5 + 2 + 3 + 0 + 4 + 3 + 1
        );
    }

    #[test]
    fn integer_and_mask_ops_match_scalar_per_lane() {
        // Whichever body the build compiled (AVX2 instruction or array
        // loop), each op is its scalar definition per lane — on the full
        // unsigned range, and for mask lanes that are neither all-ones
        // nor all-zeros.
        let a = U32x8([
            0,
            1,
            7,
            u32::MAX,
            1 << 31,
            (1 << 31) - 1,
            12345,
            u32::MAX - 1,
        ]);
        let b = U32x8([0, 9, 7, 0, 1, u32::MAX, 54321, u32::MAX]);
        let (ne, ad, sum) = (a.ne(b), a.abs_diff(b), a + b);
        let odd = M32x8([0, 1, 2, 1 << 31, u32::MAX, 0, 0x0101_0101, 6]);
        let (and, ones) = (odd.and(M32x8(b.0)), odd.ones());
        let x = F32x8([1.0, -2.0, f32::NAN, 4.0, -0.0, 6.0, f32::INFINITY, 8.0]);
        let y = F32x8([-1.0, 0.5, 3.0, f32::NAN, 0.0, -6.0, 7.0, f32::NEG_INFINITY]);
        let sel = odd.select(x, y);
        for l in 0..LANES {
            assert_eq!(ne.0[l], if a.0[l] != b.0[l] { !0 } else { 0 }, "ne {l}");
            assert_eq!(ad.0[l], a.0[l].abs_diff(b.0[l]), "abs_diff {l}");
            assert_eq!(sum.0[l], a.0[l].wrapping_add(b.0[l]), "add {l}");
            assert_eq!(and.0[l], odd.0[l] & b.0[l], "and {l}");
            assert_eq!(ones.0[l], odd.0[l] & 1, "ones {l}");
            let want = if odd.0[l] != 0 { x.0[l] } else { y.0[l] };
            assert_eq!(sel.0[l].to_bits(), want.to_bits(), "select {l}");
        }
    }

    #[test]
    fn gather4_transposes_packed_records() {
        let src: Vec<[f32; 4]> = (0..6)
            .map(|r| [r as f32, 10.0 + r as f32, 20.0 + r as f32, 30.0 + r as f32])
            .collect();
        let [x, y, z, w] = F32x8::gather4(&src, U32x8([5, 0, 2, 2, 4, 1, 3, 99]));
        assert_eq!(x.0, [5.0, 0.0, 2.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
        assert_eq!(y.0, [15.0, 10.0, 12.0, 12.0, 14.0, 11.0, 13.0, 15.0]);
        assert_eq!(z.0, [25.0, 20.0, 22.0, 22.0, 24.0, 21.0, 23.0, 25.0]);
        assert_eq!(w.0, [35.0, 30.0, 32.0, 32.0, 34.0, 31.0, 33.0, 35.0]);
    }

    #[test]
    fn f64_lane_arithmetic_matches_scalar_bitwise() {
        // The f64 lane bodies' parity contract: every F64x8 op must
        // produce, per lane, the exact bits of the scalar expression.
        let a = F64x8([1.5, -2.25, 0.0, 1e-300, 3.75e7, -0.5, 6.0, 1e-8]);
        let b = F64x8([0.5, 4.0, -1.0, 2e-300, 1.25e3, -0.25, 3.0, 7e-9]);
        let (sum, dif, prd, quo) = (a + b, a - b, a * b, a / b);
        for l in 0..LANES {
            assert_eq!(sum.0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif.0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(prd.0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
            assert_eq!(quo.0[l].to_bits(), (a.0[l] / b.0[l]).to_bits());
        }
        // A composite expression keeps bitwise equality too (same
        // tree, lane by lane).
        let h2 = F64x8::splat(1.5625);
        let lap = (a + b - F64x8::splat(2.0) * a) / h2;
        for l in 0..LANES {
            let s = (a.0[l] + b.0[l] - 2.0 * a.0[l]) / 1.5625;
            assert_eq!(lap.0[l].to_bits(), s.to_bits(), "lane {l}");
        }
    }

    #[test]
    fn f64_sqrt_and_compare_bits_match_scalar_per_lane() {
        // Whichever body the build compiled, each op is its scalar
        // definition per lane — NaN, ±inf, ±0 and subnormals included.
        let tiny = f64::MIN_POSITIVE / 4.0;
        let a = F64x8([2.0, -1.0, f64::NAN, 0.0, -0.0, tiny, f64::INFINITY, 6.25]);
        let b = F64x8([2.0, 1.0, 1.0, -0.0, tiny, 0.0, f64::INFINITY, f64::NAN]);
        let root = a.sqrt();
        let (le, lt, gt) = (a.le_bits(b), a.lt_bits(b), a.gt_bits(b));
        for l in 0..LANES {
            assert_eq!(root.0[l].to_bits(), a.0[l].sqrt().to_bits(), "sqrt {l}");
            assert_eq!(le >> l & 1 == 1, a.0[l] <= b.0[l], "le {l}");
            assert_eq!(lt >> l & 1 == 1, a.0[l] < b.0[l], "lt {l}");
            assert_eq!(gt >> l & 1 == 1, a.0[l] > b.0[l], "gt {l}");
        }
        assert_eq!((le | lt | gt) >> LANES, 0, "nothing above the lane bits");
    }

    #[test]
    fn indexed_gathers_clamp_out_of_range_lanes() {
        let wide: Vec<f64> = (0..11).map(|i| 0.5 + i as f64).collect();
        let ids: Vec<u32> = (0..11).map(|i| 100 + i).collect();
        let idx = U32x8([10, 0, 3, 3, 11, u32::MAX, 1 << 31, 7]);
        let want = [10usize, 0, 3, 3, 10, 10, 10, 7];
        assert_eq!(F64x8::gather(&wide, idx).0, want.map(|i| wide[i]));
        assert_eq!(U32x8::gather(&ids, idx).0, want.map(|i| ids[i]));
        // A one-element source clamps every lane onto it.
        assert_eq!(F64x8::gather(&[7.5], idx).0, [7.5; LANES]);
    }

    #[test]
    fn compaction_packs_set_lanes_in_order() {
        for bits in 0u32..256 {
            let packed = U32x8::compacted(bits, 40);
            let want: Vec<u32> = (0..LANES as u32).filter(|l| bits >> l & 1 == 1).collect();
            let n = bits.count_ones() as usize;
            assert_eq!(want.len(), n);
            for (l, &got) in packed.0.iter().enumerate() {
                let lane = want.get(l).copied().unwrap_or(0);
                assert_eq!(got, 40 + lane, "bits {bits:#010b} lane {l}");
            }
        }
        // Bits above the lanes are ignored.
        assert_eq!(U32x8::compacted(0x1_05, 8).0, [8, 10, 8, 8, 8, 8, 8, 8]);
        let mut out = [0u32; 9];
        U32x8::compacted(0b1000_0001, 0).write_to_slice(&mut out[1..]);
        assert_eq!(out, [0, 0, 7, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn f64_shifted_loads_and_stores_roundtrip() {
        let src: Vec<f64> = (0..12).map(|i| i as f64 * 0.25 + 0.125).collect();
        let v0 = F64x8::from_slice(&src[0..]);
        let v1 = F64x8::from_slice(&src[1..]);
        let v2 = F64x8::from_slice(&src[2..]);
        for l in 0..LANES {
            assert_eq!(v0.0[l], src[l]);
            assert_eq!(v1.0[l], src[l + 1]);
            assert_eq!(v2.0[l], src[l + 2]);
        }
        let mut dst = [0.0f64; 10];
        v1.write_to_slice(&mut dst[2..]);
        assert_eq!(&dst[2..10], &src[1..9]);
        assert_eq!(dst[0], 0.0);
        let mut d32 = [0.0f32; 9];
        F32x8::splat(0.5).write_to_slice(&mut d32[1..]);
        assert_eq!(d32[0], 0.0);
        assert!(d32[1..].iter().all(|&v| v == 0.5));
    }

    #[test]
    fn f64_accumulator_reduces_in_lane_order() {
        let mut acc = F64x8::zero();
        acc.accumulate(F32x8([1e-7, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]));
        acc.accumulate(F32x8::splat(0.5));
        // Reference: per-lane f64 sums, then left-to-right lane fold.
        let mut lanes = [0.0f64; LANES];
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane = [1e-7f32, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0][l] as f64 + 0.5f32 as f64;
        }
        let expect = lanes.iter().fold(0.0f64, |a, &v| a + v);
        assert_eq!(acc.reduce().to_bits(), expect.to_bits());
    }
}
