//! Voxel geometry shared by every grid layout.
//!
//! Both storage layouts of the uniform grid — the paper-faithful linked
//! list ([`crate::UniformGrid`]) and the CSR counting-sort layout
//! ([`crate::CsrGrid`]) — partition space identically: cubic voxels of
//! edge `box_length` over an axis-aligned box, x-major flat indexing, and
//! a ≤ 27-voxel neighbor stencil. This module owns that partitioning so
//! the two layouts and the device kernels of `bdm-gpu` (which take a
//! [`GridGeometry`] by value, as a GPU takes constant-memory parameters)
//! cannot drift apart. Its voxel counts and position → voxel mapping are
//! [`Aabb::voxel_dims`] and [`Aabb::voxel_of`], the rule the Z-order keys
//! of `bdm-morton` cut space by too, and [`GridGeometry::same_as`] is the
//! one test of "the same grid".

use bdm_math::{Aabb, Scalar, Vec3};

/// The spatial partitioning of a uniform grid: voxel edge, per-axis voxel
/// counts, and the covered space.
#[derive(Debug, Clone, Copy)]
pub struct GridGeometry<R> {
    /// Edge length of a cubic voxel. Must be ≥ the largest interaction
    /// radius for the 27-voxel query to be exhaustive.
    box_length: R,
    /// Number of voxels along each axis.
    dims: [u32; 3],
    /// The (inflated) space the grid covers.
    space: Aabb<R>,
}

impl<R: Scalar> GridGeometry<R> {
    /// Compute the voxel layout for `space` and voxel edge `box_length`.
    pub fn new(space: Aabb<R>, box_length: R) -> Self {
        assert!(box_length > R::ZERO, "box length must be positive");
        Self {
            box_length,
            dims: space.voxel_dims(box_length),
            space,
        }
    }

    /// `true` when `other` cuts the same space at the same edge, every
    /// coordinate compared by bit pattern (so `-0.0` is not `0.0`, and a
    /// grid is never "the same" as one a rounding away). The voxel counts
    /// follow from those seven numbers. The one "same grid" test: the CSR
    /// rebuild's skip and the GPU pipeline's both ask it.
    pub fn same_as(&self, other: &Self) -> bool {
        let bits = |g: &Self| {
            let (lo, hi) = (g.space.min, g.space.max);
            [g.box_length, lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].map(|c| c.to_f64().to_bits())
        };
        bits(self) == bits(other)
    }

    /// Voxel edge length.
    #[inline]
    pub fn box_length(&self) -> R {
        self.box_length
    }

    /// Voxels per axis.
    #[inline]
    pub fn dims(&self) -> [u32; 3] {
        self.dims
    }

    /// Total number of voxels.
    #[inline]
    pub fn num_boxes(&self) -> usize {
        self.dims[0] as usize * self.dims[1] as usize * self.dims[2] as usize
    }

    /// The covered space.
    #[inline]
    pub fn space(&self) -> &Aabb<R> {
        &self.space
    }

    /// Integer voxel coordinates of a position, by the host's one voxel
    /// rule ([`Aabb::voxel_of`], which the curve keys of `bdm-morton` also
    /// call).
    ///
    /// Clamp semantics: a **finite** position outside the covered space is
    /// clamped onto the nearest boundary voxel, so escaped-but-finite
    /// agents are still indexed (and still found by queries from nearby
    /// boundary voxels — the simulation's bound-space operation pulls them
    /// back the same step). Non-finite coordinates (NaN/±∞) have no
    /// meaningful voxel; in debug builds they trip an assertion rather
    /// than being silently clamped into voxel 0 (NaN fails every `<`
    /// comparison and would land there), because a NaN position upstream
    /// is always a bug worth catching at the source.
    #[inline]
    pub fn box_coords(&self, p: Vec3<R>) -> [u32; 3] {
        debug_assert!(
            p.x.is_finite() && p.y.is_finite() && p.z.is_finite(),
            "non-finite position {:?} cannot be assigned a voxel",
            (p.x.to_f64(), p.y.to_f64(), p.z.to_f64())
        );
        self.space.voxel_of(p, self.box_length, self.dims)
    }

    /// Flat voxel index of a position (x-major).
    #[inline]
    pub fn box_index(&self, p: Vec3<R>) -> usize {
        let [cx, cy, cz] = self.box_coords(p);
        self.flat_index(cx, cy, cz)
    }

    /// Flat index of voxel coordinates.
    #[inline]
    pub fn flat_index(&self, cx: u32, cy: u32, cz: u32) -> usize {
        (cz as usize * self.dims[1] as usize + cy as usize) * self.dims[0] as usize + cx as usize
    }

    /// Voxel coordinates of a flat index — the inverse of
    /// [`Self::flat_index`].
    #[inline]
    pub fn coords_of(&self, flat: usize) -> [u32; 3] {
        let (dx, dy) = (self.dims[0] as usize, self.dims[1] as usize);
        [
            (flat % dx) as u32,
            (flat / dx % dy) as u32,
            (flat / (dx * dy)) as u32,
        ]
    }

    /// Enumerate the flat indices of the ≤ 27 voxels around `p` (clamped
    /// at the grid boundary, deduplicated), x fastest, then y, then z.
    pub fn neighbor_boxes(&self, p: Vec3<R>) -> impl ExactSizeIterator<Item = usize> + Clone {
        self.neighbor_boxes_of(self.box_coords(p))
    }

    /// [`Self::neighbor_boxes`] of the voxel at coordinates `c` — for
    /// callers that start from a voxel, not a position (the device's
    /// block-per-voxel kernel): the voxels of its [`Self::x_runs_of`],
    /// one by one.
    pub fn neighbor_boxes_of(&self, c: [u32; 3]) -> impl ExactSizeIterator<Item = usize> + Clone {
        let mut boxes = [0usize; 27];
        let mut len = 0;
        for (first, count) in self.x_runs_of(c) {
            for flat in first..first + count as usize {
                boxes[len] = flat;
                len += 1;
            }
        }
        boxes.into_iter().take(len)
    }

    /// The same stencil as [`Self::neighbor_boxes`], collapsed into ≤ 9
    /// runs of x-adjacent voxels, each `(first_flat, voxel_count)`.
    ///
    /// Voxels adjacent in x are adjacent in the x-major flat order, so a
    /// layout that stores per-voxel ranges contiguously (CSR) can walk a
    /// whole run as one slice bounded by two offsets — the reason
    /// [`crate::CsrGrid`] queries touch ≤ 18 offsets where the linked
    /// list dereferences 27 heads.
    pub fn x_runs(&self, p: Vec3<R>) -> impl ExactSizeIterator<Item = (usize, u32)> + Clone {
        self.x_runs_of(self.box_coords(p))
    }

    /// [`Self::x_runs`] of the voxel at coordinates `c`: the stencil is
    /// a function of the voxel alone, so a sweep that walks voxels asks
    /// once per voxel instead of once per resident.
    pub fn x_runs_of(
        &self,
        [cx, cy, cz]: [u32; 3],
    ) -> impl ExactSizeIterator<Item = (usize, u32)> + Clone {
        let range = |c: u32, d: u32| {
            let lo = c.saturating_sub(1);
            let hi = (c + 1).min(d - 1);
            (lo, hi)
        };
        let (x_lo, x_hi) = range(cx, self.dims[0]);
        let (y_lo, y_hi) = range(cy, self.dims[1]);
        let (z_lo, z_hi) = range(cz, self.dims[2]);
        let mut runs = [(0usize, 0u32); 9];
        let mut len = 0;
        for z in z_lo..=z_hi {
            for y in y_lo..=y_hi {
                runs[len] = (self.flat_index(x_lo, y, z), x_hi - x_lo + 1);
                len += 1;
            }
        }
        runs.into_iter().take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(extent: f64, edge: f64) -> GridGeometry<f64> {
        GridGeometry::new(Aabb::new(Vec3::zero(), Vec3::splat(extent)), edge)
    }

    #[test]
    fn finite_out_of_bounds_points_clamp_to_boundary_voxels() {
        let g = geom(10.0, 2.0);
        assert_eq!(g.box_coords(Vec3::new(-3.0, 5.0, 5.0)), [0, 2, 2]);
        assert_eq!(g.box_coords(Vec3::new(42.0, 5.0, 5.0)), [4, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "non-finite position")]
    #[cfg(debug_assertions)]
    fn nan_positions_are_rejected_in_debug() {
        geom(10.0, 2.0).box_coords(Vec3::new(f64::NAN, 1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-finite position")]
    #[cfg(debug_assertions)]
    fn infinite_positions_are_rejected_in_debug() {
        geom(10.0, 2.0).box_coords(Vec3::new(1.0, f64::INFINITY, 1.0));
    }

    #[test]
    fn same_as_matches_only_the_same_bits() {
        let space = Aabb::new(Vec3::new(-0.0, 1.5, -3.0), Vec3::new(10.0, 7.25, 4.0));
        let g = GridGeometry::new(space, 1.3);
        assert!(g.same_as(&GridGeometry::new(space, 1.3)));
        let bump = |v: f64| f64::from_bits(v.to_bits() ^ 1);
        assert!(!g.same_as(&GridGeometry::new(space, bump(1.3))));
        // One bit of any coordinate, whether or not it moves a voxel count.
        let (lo, hi) = (space.min, space.max);
        for k in 0..6 {
            let mut c = [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z];
            c[k] = bump(c[k]);
            let moved = Aabb::new(Vec3::new(c[0], c[1], c[2]), Vec3::new(c[3], c[4], c[5]));
            assert!(!g.same_as(&GridGeometry::new(moved, 1.3)), "coordinate {k}");
        }
        let positive_zero = Aabb::new(Vec3::new(0.0, lo.y, lo.z), hi);
        assert!(!g.same_as(&GridGeometry::new(positive_zero, 1.3)));
    }

    #[test]
    fn stencil_sizes() {
        let g = geom(10.0, 1.0);
        assert_eq!(g.neighbor_boxes(Vec3::splat(5.5)).count(), 27);
        assert_eq!(g.neighbor_boxes(Vec3::splat(0.1)).count(), 8);
        assert_eq!(g.neighbor_boxes(Vec3::new(5.5, 5.5, 0.1)).count(), 18);
        // An exact-size iterator: `len` counts what is left.
        let mut nb = g.neighbor_boxes(Vec3::splat(5.5));
        assert_eq!(nb.len(), 27);
        nb.next();
        nb.next();
        assert_eq!(nb.len(), 25);
        assert_eq!(nb.count(), 25);
    }

    #[test]
    fn coords_of_inverts_flat_index() {
        let g = GridGeometry::new(Aabb::new(Vec3::zero(), Vec3::new(7.0, 4.0, 9.0)), 1.3);
        assert_eq!(g.dims(), [6, 4, 7]);
        for flat in 0..g.num_boxes() {
            let [cx, cy, cz] = g.coords_of(flat);
            assert_eq!(g.flat_index(cx, cy, cz), flat);
        }
        let p = Vec3::new(6.9, 0.1, 4.0);
        let by_point: Vec<_> = g.x_runs(p).collect();
        let by_voxel: Vec<_> = g.x_runs_of(g.coords_of(g.box_index(p))).collect();
        assert_eq!(by_point, by_voxel);
    }

    #[test]
    fn x_runs_cover_exactly_the_stencil() {
        let g = geom(10.0, 1.3);
        for &p in &[
            Vec3::splat(5.5),
            Vec3::splat(0.1),
            Vec3::new(9.9, 5.0, 0.0),
            Vec3::new(0.0, 9.9, 5.0),
        ] {
            let stencil: std::collections::BTreeSet<usize> = g.neighbor_boxes(p).collect();
            let mut covered = std::collections::BTreeSet::new();
            for (first, len) in g.x_runs(p) {
                for b in first..first + len as usize {
                    assert!(covered.insert(b), "run overlap at {b}");
                }
            }
            assert_eq!(covered, stencil, "at {p:?}");
        }
    }
}
