//! Z-order (Morton) space-filling curve — the paper's *Improvement II*.
//!
//! "A space-filling curve describes a path in multidimensional space that
//! passes through the data points in consecutively local order. … For a
//! Z-order curve, the Z-value of each data point can be computed by binary
//! interleaving its coordinate values" (paper §IV-D, Fig. 6).
//!
//! The workflow the paper applies to BioDynaMo, reproduced here:
//!
//! 1. quantize each agent's position into integer voxel coordinates
//!    ([`quantize`]),
//! 2. interleave the coordinate bits into a 63-bit Z-value
//!    ([`encode3`]),
//! 3. argsort agents by Z-value ([`RadixArgsort`], a radix sort on the
//!    keys' digits) and apply the permutation to every SoA column
//!    ([`sort_permutation`] + `bdm_soa::Permutation`).
//!
//! After the sort, agents that are close in 3-D space are close in memory,
//! so a GPU warp that walks a voxel neighborhood touches few distinct cache
//! lines — the mechanism behind the paper's 2.6× kernel speedup.

pub mod argsort;
pub mod hilbert;
pub mod shard;

use bdm_math::{Aabb, Scalar, Vec3};
use bdm_soa::{parts, Permutation, MAX_PARTS};
use rayon::prelude::*;

pub use argsort::RadixArgsort;
pub use hilbert::{hilbert_decode3, hilbert_encode3};
pub use shard::ShardMap;

/// Which space-filling curve orders the agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Curve {
    /// Z-order / Morton — the paper's choice (cheap bit interleave).
    #[default]
    ZOrder,
    /// Hilbert — no long jumps, costlier keys (the ablation alternative).
    Hilbert,
}

impl Curve {
    /// Key of quantized coordinates under this curve.
    #[inline]
    pub fn key(&self, x: u32, y: u32, z: u32) -> u64 {
        match self {
            Curve::ZOrder => encode3(x, y, z),
            Curve::Hilbert => hilbert_encode3(x, y, z),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Curve::ZOrder => "z-order",
            Curve::Hilbert => "hilbert",
        }
    }
}

/// Bits kept per coordinate. 3 × 21 = 63 bits fit a `u64` Z-value.
pub const COORD_BITS: u32 = 21;
/// Maximum representable quantized coordinate.
pub const COORD_MAX: u32 = (1 << COORD_BITS) - 1;

/// Spread the low 21 bits of `v` so that consecutive input bits land three
/// positions apart (standard magic-mask dilation).
#[inline]
pub fn spread(v: u32) -> u64 {
    let mut x = (v as u64) & COORD_MAX as u64;
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`spread`]: compact every third bit back into 21 bits.
#[inline]
pub fn compact(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & COORD_MAX as u64;
    x as u32
}

/// Interleave three 21-bit coordinates into a Z-value.
/// Bit layout: `… z2 y2 x2 z1 y1 x1 z0 y0 x0` (x in the least significant
/// lane, matching the classic Morton convention).
///
/// ```
/// assert_eq!(bdm_morton::encode3(1, 1, 1), 0b111);
/// assert_eq!(bdm_morton::decode3(bdm_morton::encode3(42, 7, 1000)), (42, 7, 1000));
/// ```
#[inline]
pub fn encode3(x: u32, y: u32, z: u32) -> u64 {
    debug_assert!(x <= COORD_MAX && y <= COORD_MAX && z <= COORD_MAX);
    spread(x) | (spread(y) << 1) | (spread(z) << 2)
}

/// Recover the three coordinates of a Z-value.
#[inline]
pub fn decode3(m: u64) -> (u32, u32, u32) {
    (compact(m), compact(m >> 1), compact(m >> 2))
}

/// 2-D encode, used for the Fig. 6 path illustration and its tests.
#[inline]
pub fn encode2(x: u32, y: u32) -> u64 {
    let mut sx = x as u64;
    sx = (sx | (sx << 16)) & 0x0000_FFFF_0000_FFFF;
    sx = (sx | (sx << 8)) & 0x00FF_00FF_00FF_00FF;
    sx = (sx | (sx << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    sx = (sx | (sx << 2)) & 0x3333_3333_3333_3333;
    sx = (sx | (sx << 1)) & 0x5555_5555_5555_5555;
    let mut sy = y as u64;
    sy = (sy | (sy << 16)) & 0x0000_FFFF_0000_FFFF;
    sy = (sy | (sy << 8)) & 0x00FF_00FF_00FF_00FF;
    sy = (sy | (sy << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    sy = (sy | (sy << 2)) & 0x3333_3333_3333_3333;
    sy = (sy | (sy << 1)) & 0x5555_5555_5555_5555;
    sx | (sy << 1)
}

/// Quantize a position inside `space` into integer voxel coordinates with
/// voxel edge `cell_len`. Positions below the lower boundary clamp to 0;
/// coordinates saturate at [`COORD_MAX`].
#[inline]
pub fn quantize<R: Scalar>(p: Vec3<R>, space: &Aabb<R>, cell_len: R) -> (u32, u32, u32) {
    debug_assert!(cell_len > R::ZERO);
    let rel = p - space.min;
    let q = |v: R| -> u32 {
        let idx = (v / cell_len).floor().to_f64();
        if idx < 0.0 {
            0
        } else {
            (idx as u64).min(COORD_MAX as u64) as u32
        }
    };
    (q(rel.x), q(rel.y), q(rel.z))
}

/// Z-value of a position (quantized at `cell_len` within `space`).
#[inline]
pub fn zvalue<R: Scalar>(p: Vec3<R>, space: &Aabb<R>, cell_len: R) -> u64 {
    let (x, y, z) = quantize(p, space, cell_len);
    encode3(x, y, z)
}

/// Compute the Z-values of all positions in parallel.
///
/// `xs`, `ys`, `zs` are the SoA position columns; `cell_len` is normally
/// the uniform-grid box length, so agents in the same grid voxel share a
/// key (the stable argsort then keeps them adjacent).
pub fn zvalues<R: Scalar>(xs: &[R], ys: &[R], zs: &[R], space: &Aabb<R>, cell_len: R) -> Vec<u64> {
    assert_eq!(xs.len(), ys.len());
    assert_eq!(xs.len(), zs.len());
    let compute = |i: usize| zvalue(Vec3::new(xs[i], ys[i], zs[i]), space, cell_len);
    if xs.len() >= 1 << 14 {
        (0..xs.len()).into_par_iter().map(compute).collect()
    } else {
        (0..xs.len()).map(compute).collect()
    }
}

/// The curve keys of a uniform grid's voxels: positions quantized like
/// [`quantize`] at `cell_len`, but additionally clamped above to the
/// per-axis voxel counts a uniform grid derives from the same space and
/// edge (`ceil(extent / cell_len)`, at least 1 — `bdm_grid`'s
/// `GridGeometry` convention), then keyed along `curve`.
///
/// The distinction matters exactly on the upper domain boundary: an agent
/// sitting at `space.max` quantizes into a phantom cell one past the last
/// voxel, while every grid layout clamps it into the boundary voxel. By
/// clamping the same way, "agents share a key" coincides *exactly* with
/// "agents share a grid voxel", which is what lets downstream consumers
/// (the host reorder op, the GPU pipeline's sorted-input detection) treat
/// key order as grid order.
#[derive(Debug, Clone, Copy)]
pub struct CellCurve<R> {
    space: Aabb<R>,
    cell_len: R,
    dims: [u32; 3],
    curve: Curve,
}

impl<R: Scalar> CellCurve<R> {
    /// The voxels of the grid cut at edge `cell_len` over `space`, along
    /// `curve`.
    pub fn new(space: &Aabb<R>, cell_len: R, curve: Curve) -> Self {
        let e = space.extents();
        let dim = |len: R| -> u32 { ((len / cell_len).ceil().to_f64() as u32).max(1) };
        Self {
            space: *space,
            cell_len,
            dims: [dim(e.x), dim(e.y), dim(e.z)],
            curve,
        }
    }

    /// Key of the voxel holding `(x, y, z)`.
    #[inline]
    pub fn key(&self, x: R, y: R, z: R) -> u64 {
        let (x, y, z) = quantize(Vec3::new(x, y, z), &self.space, self.cell_len);
        let [dx, dy, dz] = self.dims;
        self.curve.key(x.min(dx - 1), y.min(dy - 1), z.min(dz - 1))
    }

    /// Every position's key into `out`, in parallel parts
    /// ([`bdm_soa::parts`]); `out` keeps its capacity across calls.
    pub fn keys_into(&self, xs: &[R], ys: &[R], zs: &[R], out: &mut Vec<u64>) {
        let n = xs.len();
        assert!(ys.len() == n && zs.len() == n, "ragged position columns");
        // Longer contents are overwritten; only growth writes zeros.
        out.resize(n, 0);
        let (_, len) = parts(n);
        out.par_chunks_mut(len).enumerate().for_each(|(p, part)| {
            let base = p * len;
            for (k, key) in part.iter_mut().enumerate() {
                let i = base + k;
                *key = self.key(xs[i], ys[i], zs[i]);
            }
        });
    }

    /// `true` when the pairs `(key, tie)` are non-decreasing in storage
    /// order — checked in parallel parts, each comparing its first
    /// position with the previous part's last, and writing nothing.
    pub fn is_sorted_with(&self, xs: &[R], ys: &[R], zs: &[R], ties: &[u64]) -> bool {
        let n = xs.len();
        assert!(
            ys.len() == n && zs.len() == n && ties.len() == n,
            "ragged position or tie columns"
        );
        let pair = |i: usize| (self.key(xs[i], ys[i], zs[i]), ties[i]);
        let (count, len) = parts(n);
        let mut sorted = [true; MAX_PARTS];
        sorted[..count]
            .par_iter_mut()
            .enumerate()
            .for_each(|(p, sorted)| {
                let first = (p * len).saturating_sub(1);
                let end = ((p + 1) * len).min(n);
                *sorted = (first..end).map(pair).is_sorted();
            });
        sorted.iter().all(|&s| s)
    }
}

/// Curve keys of all positions, quantized into **grid voxels** (see
/// [`CellCurve`]).
pub fn cell_keys<R: Scalar>(
    xs: &[R],
    ys: &[R],
    zs: &[R],
    space: &Aabb<R>,
    cell_len: R,
    curve: Curve,
) -> Vec<u64> {
    let mut keys = Vec::new();
    CellCurve::new(space, cell_len, curve).keys_into(xs, ys, zs, &mut keys);
    keys
}

/// The permutation that sorts agents along the Z-order curve.
pub fn sort_permutation<R: Scalar>(
    xs: &[R],
    ys: &[R],
    zs: &[R],
    space: &Aabb<R>,
    cell_len: R,
) -> Permutation {
    sort_permutation_with(xs, ys, zs, space, cell_len, Curve::ZOrder)
}

/// The permutation that sorts agents along the chosen space-filling
/// curve (quantized at `cell_len` within `space`; stable, so agents
/// sharing a key keep their order), by [`RadixArgsort`].
pub fn sort_permutation_with<R: Scalar>(
    xs: &[R],
    ys: &[R],
    zs: &[R],
    space: &Aabb<R>,
    cell_len: R,
    curve: Curve,
) -> Permutation {
    assert_eq!(xs.len(), ys.len());
    assert_eq!(xs.len(), zs.len());
    let compute = |i: usize| {
        let (x, y, z) = quantize(Vec3::new(xs[i], ys[i], zs[i]), space, cell_len);
        curve.key(x, y, z)
    };
    let keys: Vec<u64> = if xs.len() >= 1 << 14 {
        (0..xs.len()).into_par_iter().map(compute).collect()
    } else {
        (0..xs.len()).map(compute).collect()
    };
    let mut sorter = RadixArgsort::default();
    sorter.sort(&keys, None);
    Permutation::new_unchecked(sorter.into_order())
}

/// Average index distance in the given order between spatial neighbors —
/// a locality diagnostic used by tests and the benchmark harness to verify
/// that Morton sorting actually improves memory locality. O(n²); intended
/// for diagnostic sample sizes only.
pub fn mean_neighbor_index_distance(positions: &[(f64, f64, f64)], radius: f64) -> f64 {
    let n = positions.len();
    if n < 2 {
        return 0.0;
    }
    let r2 = radius * radius;
    let mut total = 0.0f64;
    let mut count = 0u64;
    for i in 0..n {
        let (xi, yi, zi) = positions[i];
        for (j, &(xj, yj, zj)) in positions.iter().enumerate().skip(i + 1) {
            let d2 = (xi - xj).powi(2) + (yi - yj).powi(2) + (zi - zj).powi(2);
            if d2 <= r2 {
                total += (j - i) as f64;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_compact_roundtrip_small() {
        for v in [0u32, 1, 2, 3, 255, 1 << 20, COORD_MAX] {
            assert_eq!(compact(spread(v)), v);
        }
    }

    #[test]
    fn encode3_known_values() {
        assert_eq!(encode3(1, 0, 0), 0b001);
        assert_eq!(encode3(0, 1, 0), 0b010);
        assert_eq!(encode3(0, 0, 1), 0b100);
        assert_eq!(encode3(1, 1, 1), 0b111);
        // (2,0,0): x bit 1 → output bit 3.
        assert_eq!(encode3(2, 0, 0), 0b1000);
        assert_eq!(encode3(3, 3, 3), 0b111111);
    }

    #[test]
    fn decode_inverts_encode() {
        for (x, y, z) in [
            (0, 0, 0),
            (1, 2, 3),
            (100, 2000, 30000),
            (COORD_MAX, 0, COORD_MAX),
        ] {
            assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
        }
    }

    #[test]
    fn z_order_visits_quadrants_in_z_pattern() {
        // Fig. 6: in 2-D the curve visits (0,0) (1,0) (0,1) (1,1) — a "Z".
        let order: Vec<u64> = [(0u32, 0u32), (1, 0), (0, 1), (1, 1)]
            .iter()
            .map(|&(x, y)| encode2(x, y))
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn encode2_four_level_path() {
        // All 16 cells of a 4×4 grid enumerate 0..16 in Z-order.
        let mut keys: Vec<(u64, (u32, u32))> = (0..4u32)
            .flat_map(|y| (0..4u32).map(move |x| (encode2(x, y), (x, y))))
            .collect();
        keys.sort_unstable();
        let ks: Vec<u64> = keys.iter().map(|&(k, _)| k).collect();
        assert_eq!(ks, (0..16u64).collect::<Vec<_>>());
        // The first four cells in curve order are the lower-left 2×2 block.
        let first_block: Vec<(u32, u32)> = keys[..4].iter().map(|&(_, c)| c).collect();
        assert_eq!(first_block, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn quantize_boundaries() {
        let space = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(10.0));
        assert_eq!(quantize(Vec3::splat(0.0), &space, 1.0), (0, 0, 0));
        assert_eq!(quantize(Vec3::new(0.99, 1.0, 9.99), &space, 1.0), (0, 1, 9));
        assert_eq!(quantize(Vec3::splat(-5.0), &space, 1.0), (0, 0, 0));
    }

    #[test]
    fn zvalue_same_voxel_same_key() {
        let space = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(8.0));
        let a = zvalue(Vec3::new(1.1, 2.2, 3.3), &space, 1.0);
        let b = zvalue(Vec3::new(1.9, 2.8, 3.9), &space, 1.0);
        assert_eq!(a, b);
        let c = zvalue(Vec3::new(7.5, 7.5, 7.5), &space, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn sort_permutation_sorts_keys() {
        let space = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(16.0));
        let mut rng = bdm_math::SplitMix64::new(3);
        let n = 500;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 16.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 16.0)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 16.0)).collect();
        let perm = sort_permutation(&xs, &ys, &zs, &space, 1.0);
        let keys = zvalues(&xs, &ys, &zs, &space, 1.0);
        let sorted = perm.apply(&keys);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn morton_sort_improves_locality_metric() {
        // Random cloud: after Morton sorting, spatial neighbors should sit
        // much closer together in index space than in insertion order.
        let space = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(32.0));
        let mut rng = bdm_math::SplitMix64::new(99);
        let n = 800;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 32.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 32.0)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 32.0)).collect();
        let unsorted: Vec<(f64, f64, f64)> = (0..n).map(|i| (xs[i], ys[i], zs[i])).collect();
        let perm = sort_permutation(&xs, &ys, &zs, &space, 2.0);
        let g = perm.gather_indices();
        let sorted: Vec<(f64, f64, f64)> = g
            .iter()
            .map(|&i| (xs[i as usize], ys[i as usize], zs[i as usize]))
            .collect();
        let before = mean_neighbor_index_distance(&unsorted, 3.0);
        let after = mean_neighbor_index_distance(&sorted, 3.0);
        assert!(
            after < before * 0.5,
            "expected ≥2× locality improvement, got before={before:.1} after={after:.1}"
        );
    }

    #[test]
    fn cell_keys_clamp_to_grid_dims_on_the_upper_boundary() {
        // extent 8, cell 1 → 8 voxels per axis (0..=7). An agent at the
        // upper boundary quantizes to phantom cell 8 but must share the
        // boundary voxel's key, exactly as GridGeometry::box_coords does.
        let space = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(8.0));
        let xs = [7.5, 8.0];
        let ys = [7.5, 8.0];
        let zs = [7.5, 8.0];
        for curve in [Curve::ZOrder, Curve::Hilbert] {
            let keys = cell_keys(&xs, &ys, &zs, &space, 1.0, curve);
            assert_eq!(keys[0], keys[1], "{} boundary clamp", curve.name());
            assert_eq!(keys[0], curve.key(7, 7, 7));
        }
        // Interior agents agree with the unclamped quantization.
        let keys = cell_keys(&[3.2], &[4.7], &[0.1], &space, 1.0, Curve::ZOrder);
        assert_eq!(keys[0], encode3(3, 4, 0));
    }

    #[test]
    fn f32_and_f64_quantize_identically_on_grid_points() {
        let space64 = Aabb::new(Vec3::new(0.0f64, 0.0, 0.0), Vec3::splat(64.0));
        let space32 = Aabb::new(Vec3::new(0.0f32, 0.0, 0.0), Vec3::splat(64.0));
        for i in 0..32u32 {
            let p64 = Vec3::new(i as f64 + 0.5, 1.5, 2.5);
            let p32 = Vec3::new(i as f32 + 0.5, 1.5, 2.5);
            assert_eq!(quantize(p64, &space64, 1.0), quantize(p32, &space32, 1.0));
        }
    }
}
