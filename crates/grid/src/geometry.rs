//! Voxel geometry shared by every grid layout.
//!
//! Both storage layouts of the uniform grid — the paper-faithful linked
//! list ([`crate::UniformGrid`]) and the CSR counting-sort layout
//! ([`crate::CsrGrid`]) — partition space identically: cubic voxels of
//! edge `box_length` over an axis-aligned box, x-major flat indexing, and
//! a ≤ 27-voxel neighbor stencil. This module owns that partitioning so
//! the two layouts and the device kernels of `bdm-gpu` (which take a
//! [`GridGeometry`] by value, as a GPU takes constant-memory parameters)
//! cannot drift apart.

use bdm_math::{Aabb, Scalar, Vec3};

/// The spatial partitioning of a uniform grid: voxel edge, per-axis voxel
/// counts, and the covered space.
#[derive(Debug, Clone, Copy, PartialEq)]
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
        let e = space.extents();
        let dim = |len: R| -> u32 { ((len / box_length).ceil().to_f64() as u32).max(1) };
        Self {
            box_length,
            dims: [dim(e.x), dim(e.y), dim(e.z)],
            space,
        }
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

    /// Integer voxel coordinates of a position.
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
        let rel = p - self.space.min;
        let coord = |v: R, d: u32| -> u32 {
            let idx = (v / self.box_length).floor().to_f64();
            if idx < 0.0 {
                0
            } else {
                (idx as u64).min(d as u64 - 1) as u32
            }
        };
        [
            coord(rel.x, self.dims[0]),
            coord(rel.y, self.dims[1]),
            coord(rel.z, self.dims[2]),
        ]
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
    /// at the grid boundary, deduplicated).
    pub fn neighbor_boxes(&self, p: Vec3<R>) -> NeighborBoxes {
        self.neighbor_boxes_of(self.box_coords(p))
    }

    /// [`Self::neighbor_boxes`] of the voxel at coordinates `c` — for
    /// callers that start from a voxel, not a position (the device's
    /// block-per-voxel kernel).
    pub fn neighbor_boxes_of(&self, [cx, cy, cz]: [u32; 3]) -> NeighborBoxes {
        NeighborBoxes::new(self, cx, cy, cz)
    }

    /// The same stencil as [`Self::neighbor_boxes`], collapsed into ≤ 9
    /// runs of x-adjacent voxels, each `(first_flat, voxel_count)`.
    ///
    /// Voxels adjacent in x are adjacent in the x-major flat order, so a
    /// layout that stores per-voxel ranges contiguously (CSR) can walk a
    /// whole run as one slice bounded by two offsets — the reason
    /// [`crate::CsrGrid`] queries touch ≤ 18 offsets where the linked
    /// list dereferences 27 heads.
    pub fn x_runs(&self, p: Vec3<R>) -> XRuns {
        self.x_runs_of(self.box_coords(p))
    }

    /// [`Self::x_runs`] of the voxel at coordinates `c`: the stencil is
    /// a function of the voxel alone, so a sweep that walks voxels asks
    /// once per voxel instead of once per resident.
    pub fn x_runs_of(&self, [cx, cy, cz]: [u32; 3]) -> XRuns {
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
        XRuns { runs, len, next: 0 }
    }
}

/// Iterator over the ≤ 9 x-runs of a neighbor stencil — see
/// [`GridGeometry::x_runs`].
pub struct XRuns {
    runs: [(usize, u32); 9],
    len: usize,
    next: usize,
}

impl Iterator for XRuns {
    type Item = (usize, u32);
    fn next(&mut self) -> Option<(usize, u32)> {
        if self.next < self.len {
            let v = self.runs[self.next];
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }
}

impl ExactSizeIterator for XRuns {
    fn len(&self) -> usize {
        self.len - self.next
    }
}

/// Iterator over the flat indices of the ≤ 27 voxels surrounding a point.
#[derive(Clone)]
pub struct NeighborBoxes {
    indices: [usize; 27],
    len: usize,
    next: usize,
}

impl NeighborBoxes {
    fn new<R: Scalar>(geom: &GridGeometry<R>, cx: u32, cy: u32, cz: u32) -> Self {
        let mut indices = [0usize; 27];
        let mut len = 0;
        let range = |c: u32, d: u32| {
            let lo = c.saturating_sub(1);
            let hi = (c + 1).min(d - 1);
            lo..=hi
        };
        for z in range(cz, geom.dims[2]) {
            for y in range(cy, geom.dims[1]) {
                for x in range(cx, geom.dims[0]) {
                    indices[len] = geom.flat_index(x, y, z);
                    len += 1;
                }
            }
        }
        Self {
            indices,
            len,
            next: 0,
        }
    }
}

impl Iterator for NeighborBoxes {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.next < self.len {
            let v = self.indices[self.next];
            self.next += 1;
            Some(v)
        } else {
            None
        }
    }
}

impl ExactSizeIterator for NeighborBoxes {
    fn len(&self) -> usize {
        self.len - self.next
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
    fn stencil_sizes() {
        let g = geom(10.0, 1.0);
        assert_eq!(g.neighbor_boxes(Vec3::splat(5.5)).count(), 27);
        assert_eq!(g.neighbor_boxes(Vec3::splat(0.1)).count(), 8);
        assert_eq!(g.neighbor_boxes(Vec3::new(5.5, 5.5, 0.1)).count(), 18);
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
