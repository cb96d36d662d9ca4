//! Axis-aligned bounding boxes.
//!
//! The uniform grid (paper §IV-A) covers the axis-aligned bounding box of
//! all agents, grown to a whole number of voxels. Benchmark B constructs
//! variable-sized cubic spaces to sweep the neighborhood density.

use crate::scalar::Scalar;
use crate::vec3::Vec3;

/// An axis-aligned box `[min, max]` (inclusive corners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb<R> {
    /// Smallest corner.
    pub min: Vec3<R>,
    /// Largest corner.
    pub max: Vec3<R>,
}

impl<R: Scalar> Aabb<R> {
    /// Box spanning the two corners. Panics in debug builds when any
    /// component of `min` exceeds `max`.
    pub fn new(min: Vec3<R>, max: Vec3<R>) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z);
        Self { min, max }
    }

    /// A cube `[-half, +half]^3`, the shape of benchmark B's space.
    pub fn cube(half: R) -> Self {
        Self::new(Vec3::splat(-half), Vec3::splat(half))
    }

    /// Expand every face outward by `margin`.
    pub fn inflate(&self, margin: R) -> Self {
        Self {
            min: self.min - Vec3::splat(margin),
            max: self.max + Vec3::splat(margin),
        }
    }

    /// Edge lengths.
    pub fn extents(&self) -> Vec3<R> {
        self.max - self.min
    }

    /// Geometric center.
    pub fn center(&self) -> Vec3<R> {
        (self.min + self.max) * R::HALF
    }

    /// Volume of the box.
    pub fn volume(&self) -> R {
        let e = self.extents();
        e.x * e.y * e.z
    }

    /// `true` when `p` lies inside or on the boundary.
    pub fn contains(&self, p: Vec3<R>) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Clamp a point onto the box (the `BoundSpace` operation uses this to
    /// keep agents inside the simulation space).
    pub fn clamp_point(&self, p: Vec3<R>) -> Vec3<R> {
        p.clamp(self.min, self.max)
    }

    /// Voxels per axis when the box is cut into cubes of edge `edge`:
    /// `ceil(extent / edge)`, at least 1.
    ///
    /// This and [`Self::voxel_of`] are the one voxel rule of the host:
    /// the uniform grids and the space-filling-curve keys both cut space
    /// through them, so "same curve key" is "same grid voxel".
    #[inline]
    pub fn voxel_dims(&self, edge: R) -> [u32; 3] {
        let e = self.extents();
        [e.x, e.y, e.z].map(|len| ((len / edge).ceil().to_f64() as u32).max(1))
    }

    /// Voxel coordinates of `p` in the cut of edge `edge` with `dims`
    /// voxels per axis: `floor((p − min) / edge)`, negative → 0, clamped
    /// to `dims − 1`. A finite position outside the box lands in the
    /// nearest boundary voxel, and so does one on the max faces.
    #[inline]
    pub fn voxel_of(&self, p: Vec3<R>, edge: R, dims: [u32; 3]) -> [u32; 3] {
        let rel = p - self.min;
        let coord = |v: R, d: u32| -> u32 {
            let idx = (v / edge).floor().to_f64();
            if idx < 0.0 {
                0
            } else {
                (idx as u64).min(d as u64 - 1) as u32
            }
        };
        [
            coord(rel.x, dims[0]),
            coord(rel.y, dims[1]),
            coord(rel.z, dims[2]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b() -> Aabb<f64> {
        Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 4.0, 6.0))
    }

    #[test]
    fn extents_center_volume() {
        let bb = b();
        assert_eq!(bb.extents(), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(bb.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(bb.volume(), 48.0);
    }

    #[test]
    fn contains_boundary_and_interior() {
        let bb = b();
        assert!(bb.contains(Vec3::new(0.0, 0.0, 0.0)));
        assert!(bb.contains(Vec3::new(2.0, 4.0, 6.0)));
        assert!(bb.contains(Vec3::new(1.0, 1.0, 1.0)));
        assert!(!bb.contains(Vec3::new(-0.1, 0.0, 0.0)));
        assert!(!bb.contains(Vec3::new(0.0, 4.1, 0.0)));
    }

    #[test]
    fn inflate_grows_every_face() {
        let bb = b().inflate(1.0);
        assert_eq!(bb.min, Vec3::new(-1.0, -1.0, -1.0));
        assert_eq!(bb.max, Vec3::new(3.0, 5.0, 7.0));
    }

    #[test]
    fn clamp_point_projects_outside_points() {
        let bb = b();
        assert_eq!(
            bb.clamp_point(Vec3::new(-1.0, 2.0, 9.0)),
            Vec3::new(0.0, 2.0, 6.0)
        );
        let inside = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(bb.clamp_point(inside), inside);
    }

    #[test]
    fn cube_is_symmetric() {
        let c = Aabb::<f64>::cube(5.0);
        assert_eq!(c.center(), Vec3::zero());
        assert_eq!(c.volume(), 1000.0);
    }
}
