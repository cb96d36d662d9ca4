//! A 3-component attribute stored as three scalar columns.
//!
//! "The position data of all agents are stored contiguously in memory"
//! (paper §IV-B): positions live as separate `x[]`, `y[]`, `z[]` arrays so
//! the device transfer of the position attribute is three contiguous
//! buffers, and a warp reading the x-coordinates of 32 consecutive
//! (Z-order-sorted) agents issues one coalesced transaction.

use crate::column::Column;
use crate::perm::Word;
use bdm_math::{Scalar, Vec3};
use std::mem::MaybeUninit;

/// SoA storage of one `Vec3` attribute for all agents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaVec3<R: Copy> {
    x: Column<R>,
    y: Column<R>,
    z: Column<R>,
}

impl<R: Scalar> SoaVec3<R> {
    /// Empty storage.
    pub fn new() -> Self {
        Self {
            x: Column::new(),
            y: Column::new(),
            z: Column::new(),
        }
    }

    /// Storage with reserved capacity in each component column.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            x: Column::with_capacity(cap),
            y: Column::with_capacity(cap),
            z: Column::with_capacity(cap),
        }
    }

    /// `n` copies of `v`.
    pub fn filled(v: Vec3<R>, n: usize) -> Self {
        Self {
            x: Column::filled(v.x, n),
            y: Column::filled(v.y, n),
            z: Column::filled(v.z, n),
        }
    }

    /// Build from an AoS slice (used at model-initialization time only; the
    /// hot loops never materialize AoS data).
    pub fn from_vecs(vs: &[Vec3<R>]) -> Self {
        let mut out = Self::with_capacity(vs.len());
        for &v in vs {
            out.push(v);
        }
        out
    }

    /// Build directly from three raw component columns (the
    /// checkpoint-restore import path: deserialized SoA data never takes
    /// an AoS detour). Panics when the column lengths disagree — callers
    /// deserializing untrusted data must length-check first.
    pub fn from_columns(x: Vec<R>, y: Vec<R>, z: Vec<R>) -> Self {
        assert!(
            x.len() == y.len() && y.len() == z.len(),
            "component columns must have equal lengths ({}/{}/{})",
            x.len(),
            y.len(),
            z.len()
        );
        Self {
            x: Column::from_vec(x),
            y: Column::from_vec(y),
            z: Column::from_vec(z),
        }
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Bytes the three columns hold allocated, used or not (resident-set
    /// accounting; [`Self::bytes`] is the transfer size).
    pub fn allocated_bytes(&self) -> usize {
        (self.x.capacity() + self.y.capacity() + self.z.capacity()) * R::BYTES
    }

    /// Make room for `additional` more agents in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.x.reserve(additional);
        self.y.reserve(additional);
        self.z.reserve(additional);
    }

    /// [`Column::split_spare`] of the three component columns: the
    /// components, and `additional` spare slots past each.
    pub fn split_spare(&mut self, additional: usize) -> Vec3Spare<'_, R> {
        let [(x, sx), (y, sy), (z, sz)] =
            [&mut self.x, &mut self.y, &mut self.z].map(|c| c.split_spare(additional));
        ([x, y, z], [sx, sy, sz])
    }

    /// [`Column::append_from_spare`] of the three component columns.
    ///
    /// # Safety
    /// Every slot `order` names was written in all three columns through
    /// [`Self::split_spare`] since they last grew or changed length.
    pub unsafe fn append_from_spare(&mut self, order: &[u32], words: &mut [u64])
    where
        R: Word,
    {
        for c in [&mut self.x, &mut self.y, &mut self.z] {
            // SAFETY: forwarded contract.
            unsafe { c.append_from_spare(order, words) };
        }
    }

    /// Append one agent's vector.
    pub fn push(&mut self, v: Vec3<R>) {
        self.x.push(v.x);
        self.y.push(v.y);
        self.z.push(v.z);
    }

    /// Gather agent `i`'s vector from the three columns.
    #[inline(always)]
    pub fn get(&self, i: usize) -> Vec3<R> {
        Vec3::new(*self.x.get(i), *self.y.get(i), *self.z.get(i))
    }

    /// Scatter a vector into agent `i`'s slots.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: Vec3<R>) {
        self.x.set(i, v.x);
        self.y.set(i, v.y);
        self.z.set(i, v.z);
    }

    /// Add `delta` to agent `i`'s vector (displacement application).
    #[inline(always)]
    pub fn add_assign(&mut self, i: usize, delta: Vec3<R>) {
        *self.x.get_mut(i) += delta.x;
        *self.y.get_mut(i) += delta.y;
        *self.z.get_mut(i) += delta.z;
    }

    /// O(1) removal by swapping in the last agent.
    pub fn swap_remove(&mut self, i: usize) -> Vec3<R> {
        Vec3::new(
            self.x.swap_remove(i),
            self.y.swap_remove(i),
            self.z.swap_remove(i),
        )
    }

    /// Component slices `(x, y, z)` — the exact buffers a device transfer
    /// of this attribute copies.
    pub fn as_slices(&self) -> (&[R], &[R], &[R]) {
        (self.x.as_slice(), self.y.as_slice(), self.z.as_slice())
    }

    /// Mutable component slices.
    pub fn as_mut_slices(&mut self) -> (&mut [R], &mut [R], &mut [R]) {
        (
            self.x.as_mut_slice(),
            self.y.as_mut_slice(),
            self.z.as_mut_slice(),
        )
    }

    /// Resize, filling new agents with `v`.
    pub fn resize(&mut self, n: usize, v: Vec3<R>) {
        self.x.resize(n, v.x);
        self.y.resize(n, v.y);
        self.z.resize(n, v.z);
    }

    /// Set every agent's vector to `v` (e.g. zeroing force accumulators).
    pub fn fill(&mut self, v: Vec3<R>) {
        self.x.as_mut_slice().fill(v.x);
        self.y.as_mut_slice().fill(v.y);
        self.z.as_mut_slice().fill(v.z);
    }

    /// Iterate agents as `Vec3`s (gathering; test/diagnostic use).
    pub fn iter(&self) -> impl Iterator<Item = Vec3<R>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Disjoint mutable views over the windows between consecutive
    /// `cuts` of all three component columns — the substrate for
    /// embarrassingly parallel per-agent writes (each rayon task owns one
    /// window, no two tasks alias). Cuts that depend on the population
    /// alone ([`crate::chunk_cuts`], or shard ranges subdivided by it)
    /// keep the partition independent of the worker count, so
    /// window-ordered merges are deterministic. `cuts` must be
    /// non-decreasing, start at 0, and end at `len()`; window `w`
    /// covers agents `cuts[w]..cuts[w + 1]`.
    pub fn chunks_mut_at(&mut self, cuts: &[usize]) -> Vec<Vec3ChunkMut<'_, R>> {
        let (x, y, z) = self.as_mut_slices();
        chunks_at([x, y, z], cuts)
    }

    /// Total bytes of the three columns (transfer-size accounting).
    pub fn bytes(&self) -> usize {
        3 * self.len() * R::BYTES
    }
}

/// What [`SoaVec3::split_spare`] returns: the `x`, `y` and `z` components,
/// and the spare slots past each.
pub type Vec3Spare<'a, R> = ([&'a mut [R]; 3], [&'a mut [MaybeUninit<R>]; 3]);

/// [`SoaVec3::chunks_mut_at`] over three component slices of equal
/// length.
pub fn chunks_at<'a, R>([x, y, z]: [&'a mut [R]; 3], cuts: &[usize]) -> Vec<Vec3ChunkMut<'a, R>> {
    let [x, y, z] = [x, y, z].map(|c| split_mut_at(c, cuts));
    x.into_iter()
        .zip(y)
        .zip(z)
        .map(|((x, y), z)| Vec3ChunkMut { x, y, z })
        .collect()
}

/// Split a mutable slice at explicit cut points (same contract as
/// [`SoaVec3::chunks_mut_at`]): disjoint windows `cuts[w]..cuts[w+1]`.
pub fn split_mut_at<'a, T>(mut data: &'a mut [T], cuts: &[usize]) -> Vec<&'a mut [T]> {
    assert_eq!(cuts.first().copied(), Some(0), "cuts must start at 0");
    assert_eq!(
        cuts.last().copied(),
        Some(data.len()),
        "cuts must end at len"
    );
    assert!(
        cuts.windows(2).all(|w| w[0] <= w[1]),
        "cuts must be non-decreasing"
    );
    let mut out = Vec::with_capacity(cuts.len() - 1);
    for w in cuts.windows(2) {
        let (head, tail) = data.split_at_mut(w[1] - w[0]);
        out.push(head);
        data = tail;
    }
    out
}

/// A disjoint mutable window over one chunk of a [`SoaVec3`]: the same
/// agent range of the `x`, `y`, and `z` columns. Produced by
/// [`SoaVec3::chunks_mut_at`]; indices are chunk-local.
pub struct Vec3ChunkMut<'a, R> {
    x: &'a mut [R],
    y: &'a mut [R],
    z: &'a mut [R],
}

impl<R: Scalar> Vec3ChunkMut<'_, R> {
    /// Agents in this chunk.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Gather local agent `k`'s vector.
    #[inline(always)]
    pub fn get(&self, k: usize) -> Vec3<R> {
        Vec3::new(self.x[k], self.y[k], self.z[k])
    }

    /// Scatter a vector into local agent `k`'s slots.
    #[inline(always)]
    pub fn set(&mut self, k: usize, v: Vec3<R>) {
        self.x[k] = v.x;
        self.y[k] = v.y;
        self.z[k] = v.z;
    }

    /// Add `delta` to local agent `k`'s vector.
    #[inline(always)]
    pub fn add_assign(&mut self, k: usize, delta: Vec3<R>) {
        self.x[k] += delta.x;
        self.y[k] += delta.y;
        self.z[k] += delta.z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_columns_roundtrips_as_slices() {
        let s = sample();
        let (x, y, z) = s.as_slices();
        let rebuilt = SoaVec3::from_columns(x.to_vec(), y.to_vec(), z.to_vec());
        assert_eq!(rebuilt.as_slices(), s.as_slices());
        assert_eq!(rebuilt.len(), 3);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn from_columns_rejects_ragged_input() {
        let _ = SoaVec3::from_columns(vec![1.0, 2.0], vec![3.0], vec![4.0]);
    }

    fn sample() -> SoaVec3<f64> {
        SoaVec3::from_vecs(&[
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(4.0, 5.0, 6.0),
            Vec3::new(7.0, 8.0, 9.0),
        ])
    }

    #[test]
    fn push_get_roundtrip() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(1), Vec3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn columns_are_contiguous() {
        let s = sample();
        let (x, y, z) = s.as_slices();
        assert_eq!(x, &[1.0, 4.0, 7.0]);
        assert_eq!(y, &[2.0, 5.0, 8.0]);
        assert_eq!(z, &[3.0, 6.0, 9.0]);
    }

    #[test]
    fn set_and_add_assign() {
        let mut s = sample();
        s.set(0, Vec3::splat(0.0));
        s.add_assign(0, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(s.get(0), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn swap_remove_keeps_soa_consistent() {
        let mut s = sample();
        let removed = s.swap_remove(0);
        assert_eq!(removed, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), Vec3::new(7.0, 8.0, 9.0));
        assert_eq!(s.get(1), Vec3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn fill_overwrites_everything() {
        let mut s = sample();
        s.fill(Vec3::splat(-1.0));
        assert!(s.iter().all(|v| v == Vec3::splat(-1.0)));
    }

    #[test]
    fn bytes_accounting() {
        let s = sample();
        assert_eq!(s.bytes(), 3 * 3 * 8);
        let f: SoaVec3<f32> = SoaVec3::filled(Vec3::zero(), 10);
        assert_eq!(f.bytes(), 3 * 10 * 4);
    }

    #[test]
    fn chunks_mut_at_respects_cut_points() {
        let mut s: SoaVec3<f64> = SoaVec3::filled(Vec3::zero(), 10);
        let cuts = [0usize, 3, 3, 7, 10];
        {
            let chunks = s.chunks_mut_at(&cuts);
            assert_eq!(chunks.len(), 4);
            assert_eq!(chunks[0].len(), 3);
            assert!(chunks[1].is_empty());
            assert_eq!(chunks[2].len(), 4);
            assert_eq!(chunks[3].len(), 3);
            for (c, mut chunk) in chunks.into_iter().enumerate() {
                for k in 0..chunk.len() {
                    chunk.set(k, Vec3::splat((c * 100 + k) as f64));
                }
            }
        }
        assert_eq!(s.get(0), Vec3::splat(0.0));
        assert_eq!(s.get(3), Vec3::splat(200.0));
        assert_eq!(s.get(6), Vec3::splat(203.0));
        assert_eq!(s.get(9), Vec3::splat(302.0));
    }

    #[test]
    #[should_panic(expected = "cuts must end at len")]
    fn chunks_mut_at_rejects_short_cuts() {
        let mut s: SoaVec3<f64> = SoaVec3::filled(Vec3::zero(), 5);
        s.chunks_mut_at(&[0, 3]);
    }

    #[test]
    fn split_mut_at_partitions_a_slice() {
        let mut data = [0u32; 7];
        let parts = split_mut_at(&mut data, &[0, 2, 2, 7]);
        assert_eq!(parts.iter().map(|p| p.len()).collect::<Vec<_>>(), [2, 0, 5]);
        for (i, part) in parts.into_iter().enumerate() {
            part.fill(i as u32);
        }
        assert_eq!(data, [0, 0, 2, 2, 2, 2, 2]);
    }

    #[test]
    fn resize_extends_with_value() {
        let mut s = sample();
        s.resize(5, Vec3::splat(0.5));
        assert_eq!(s.len(), 5);
        assert_eq!(s.get(4), Vec3::splat(0.5));
    }
}
