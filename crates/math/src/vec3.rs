//! A minimal 3-D vector generic over the scalar precision.
//!
//! Agent positions, displacement accumulators (`tractor_force` in
//! BioDynaMo's terminology) and the collision force of Eq. 1 are all
//! `Vec3<R>`. The type is `#[repr(C)]` so a slice of `Vec3<R>` has the
//! exact memory layout the SoA columns assume when they are reinterpreted
//! as flat scalar buffers for the simulated device transfers.

use crate::scalar::Scalar;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

/// A 3-component vector at precision `R`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Vec3<R> {
    /// X component.
    pub x: R,
    /// Y component.
    pub y: R,
    /// Z component.
    pub z: R,
}

impl<R: Scalar> Vec3<R> {
    /// The zero vector.
    pub const fn new(x: R, y: R, z: R) -> Self {
        Self { x, y, z }
    }

    /// All components zero.
    pub fn zero() -> Self {
        Self::new(R::ZERO, R::ZERO, R::ZERO)
    }

    /// All components set to `v`.
    pub fn splat(v: R) -> Self {
        Self::new(v, v, v)
    }

    /// Build from an `f64` triple (rounding to `R`).
    pub fn from_f64(x: f64, y: f64, z: f64) -> Self {
        Self::new(R::from_f64(x), R::from_f64(y), R::from_f64(z))
    }

    /// Widen to an `f64` triple.
    pub fn to_f64(self) -> [f64; 3] {
        [self.x.to_f64(), self.y.to_f64(), self.z.to_f64()]
    }

    /// Convert precision (e.g. the FP64→FP32 narrowing of Improvement I).
    pub fn cast<S: Scalar>(self) -> Vec3<S> {
        Vec3::new(
            S::from_f64(self.x.to_f64()),
            S::from_f64(self.y.to_f64()),
            S::from_f64(self.z.to_f64()),
        )
    }

    /// Dot product.
    #[inline(always)]
    pub fn dot(self, rhs: Self) -> R {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Squared Euclidean norm. Preferred in distance filters because it
    /// avoids the `sqrt` (the paper's neighbor predicate compares squared
    /// distances against a squared radius).
    #[inline(always)]
    pub fn norm_squared(self) -> R {
        self.dot(self)
    }

    /// Euclidean norm.
    #[inline(always)]
    pub fn norm(self) -> R {
        self.norm_squared().sqrt()
    }

    /// Unit vector in the direction of `self`; `None` when the norm is not
    /// safely invertible (below `eps`).
    pub fn try_normalized(self, eps: R) -> Option<Self> {
        let n = self.norm();
        if n <= eps {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component-wise minimum.
    pub fn min(self, rhs: Self) -> Self {
        Self::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    pub fn max(self, rhs: Self) -> Self {
        Self::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// Component-wise clamp into `[lo, hi]`.
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        self.max(lo).min(hi)
    }

    /// `true` when every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Access as a fixed-size array (copy).
    pub fn to_array(self) -> [R; 3] {
        [self.x, self.y, self.z]
    }
}

impl<R: Scalar> Index<usize> for Vec3<R> {
    type Output = R;
    #[inline(always)]
    fn index(&self, i: usize) -> &R {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl<R: Scalar> IndexMut<usize> for Vec3<R> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut R {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl<R: Scalar> $trait for Vec3<R> {
            type Output = Self;
            #[inline(always)]
            fn $fn(self, rhs: Self) -> Self {
                Self::new(self.x $op rhs.x, self.y $op rhs.y, self.z $op rhs.z)
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);

impl<R: Scalar> Mul<R> for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, s: R) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

impl<R: Scalar> Div<R> for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn div(self, s: R) -> Self {
        Self::new(self.x / s, self.y / s, self.z / s)
    }
}

impl<R: Scalar> Neg for Vec3<R> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl<R: Scalar> AddAssign for Vec3<R> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.x += rhs.x;
        self.y += rhs.y;
        self.z += rhs.z;
    }
}

impl<R: Scalar> SubAssign for Vec3<R> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.x -= rhs.x;
        self.y -= rhs.y;
        self.z -= rhs.z;
    }
}

impl<R: Scalar> MulAssign<R> for Vec3<R> {
    #[inline(always)]
    fn mul_assign(&mut self, s: R) {
        self.x *= s;
        self.y *= s;
        self.z *= s;
    }
}

impl<R: Scalar> DivAssign<R> for Vec3<R> {
    #[inline(always)]
    fn div_assign(&mut self, s: R) {
        self.x /= s;
        self.y /= s;
        self.z /= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: f64, y: f64, z: f64) -> Vec3<f64> {
        Vec3::new(x, y, z)
    }

    #[test]
    fn arithmetic() {
        let a = v(1.0, 2.0, 3.0);
        let b = v(4.0, 5.0, 6.0);
        assert_eq!(a + b, v(5.0, 7.0, 9.0));
        assert_eq!(b - a, v(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, v(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, v(2.0, 2.5, 3.0));
        assert_eq!(-a, v(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = v(1.0, 1.0, 1.0);
        a += v(1.0, 2.0, 3.0);
        assert_eq!(a, v(2.0, 3.0, 4.0));
        a -= v(1.0, 1.0, 1.0);
        assert_eq!(a, v(1.0, 2.0, 3.0));
        a *= 3.0;
        assert_eq!(a, v(3.0, 6.0, 9.0));
        a /= 3.0;
        assert_eq!(a, v(1.0, 2.0, 3.0));
    }

    #[test]
    fn norms_and_dot() {
        let a = v(3.0, 4.0, 0.0);
        assert_eq!(a.norm_squared(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(v(1.0, 0.0, 0.0)), 3.0);
    }

    #[test]
    fn normalization() {
        let a = v(0.0, 3.0, 4.0);
        let n = a.try_normalized(1e-12).unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(Vec3::<f64>::zero().try_normalized(1e-12).is_none());
    }

    #[test]
    fn indexing() {
        let mut a = v(1.0, 2.0, 3.0);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[2], 3.0);
        a[1] = 9.0;
        assert_eq!(a.y, 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = v(0.0, 0.0, 0.0)[3];
    }

    #[test]
    fn min_max_clamp() {
        let a = v(1.0, 5.0, -2.0);
        let lo = Vec3::splat(0.0);
        let hi = Vec3::splat(3.0);
        assert_eq!(a.clamp(lo, hi), v(1.0, 3.0, 0.0));
        assert_eq!(a.min(lo), v(0.0, 0.0, -2.0));
        assert_eq!(a.max(hi), v(3.0, 5.0, 3.0));
    }

    #[test]
    fn precision_cast() {
        let a = v(0.1, 0.2, 0.3);
        let f: Vec3<f32> = a.cast();
        let back: Vec3<f64> = f.cast();
        for i in 0..3 {
            assert!((back[i] - a[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn finite_detection() {
        assert!(v(1.0, 2.0, 3.0).is_finite());
        assert!(!v(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!v(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn array_roundtrip() {
        let a = v(1.0, 2.0, 3.0);
        let [x, y, z] = a.to_array();
        assert_eq!(Vec3::new(x, y, z), a);
    }
}
