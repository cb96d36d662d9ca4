//! Validated index permutations with (parallel) gather application.
//!
//! Improvement II sorts agents along the Z-order curve. With SoA state the
//! sort is realized as: compute Morton keys → argsort → apply the resulting
//! permutation to every column. This module owns the "apply to every
//! column" half; `bdm-morton` owns key computation and argsort.
//!
//! Two ways to apply it: [`Permutation`] gathers each column into a
//! scratch column of its own type and swaps the two, and [`gather_words`]
//! gathers any column whose elements fit a `u64` ([`Word`]) through one
//! shared word buffer — a population of mixed column types reorders
//! through 8 bytes per agent of scratch.

use rayon::prelude::*;

/// Threshold below which gathers run serially; rayon's fork/join overhead
/// dominates for tiny columns.
const PAR_THRESHOLD: usize = 1 << 14;

/// Most parts a reorder pass ([`parts`]) cuts its agents into.
pub const MAX_PARTS: usize = 8;

/// Fewest agents a reorder part gets, so a small population stays one
/// part (and one thread).
const MIN_PART: usize = 1024;

/// `(parts, part_len)` of a reorder pass over `n` agents: part `p` covers
/// `p * part_len .. min((p + 1) * part_len, n)`. A function of `n` alone —
/// never of the worker count — so whatever a pass computes per part (a
/// histogram, a sortedness verdict) is the same on any schedule.
pub fn parts(n: usize) -> (usize, usize) {
    let parts = n.div_ceil(MIN_PART).clamp(1, MAX_PARTS);
    (parts, n.div_ceil(parts).max(1))
}

/// A column element that round-trips through one `u64` word, bit for
/// bit — what lets every column of a population gather through one
/// 8-byte buffer ([`gather_words`]).
pub trait Word: Copy + Send + Sync {
    /// The element as a word.
    fn to_word(self) -> u64;
    /// The element [`Self::to_word`] made `w` from.
    fn from_word(w: u64) -> Self;
}

impl Word for f64 {
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl Word for u32 {
    fn to_word(self) -> u64 {
        self.into()
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

/// Reorder `col` in place by the gather indices `order` (`new[k] =
/// old[order[k]]`, which must be a bijection of `0..col.len()`), through
/// `words`: the gathered elements go into the buffer and are copied back.
/// `words` grows to `col.len()` and keeps its capacity, so the columns of
/// one population share it and a warm reorder allocates nothing.
///
/// # Panics
/// When `order` and `col` differ in length, or an index is out of range.
pub fn gather_words<T: Word>(order: &[u32], col: &mut [T], words: &mut Vec<u64>) {
    let n = col.len();
    assert_eq!(order.len(), n, "gather order / column length mismatch");
    // Longer contents are overwritten below; only growth writes zeros.
    words.resize(n, 0);
    let (_, len) = parts(n);
    let src = &*col;
    words.par_chunks_mut(len).enumerate().for_each(|(p, out)| {
        let order = &order[p * len..];
        for (w, &g) in out.iter_mut().zip(order) {
            *w = src[g as usize].to_word();
        }
    });
    col.par_chunks_mut(len)
        .zip(words.par_chunks(len))
        .for_each(|(dst, src)| {
            for (d, &w) in dst.iter_mut().zip(src) {
                *d = T::from_word(w);
            }
        });
}

/// A permutation of `0..len`, stored in *gather* convention:
/// `new[i] = old[perm[i]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    gather: Vec<u32>,
}

impl Permutation {
    /// Wrap a gather vector, validating that it is a bijection of
    /// `0..gather.len()`.
    pub fn new(gather: Vec<u32>) -> Self {
        let n = gather.len();
        assert!(n < u32::MAX as usize, "permutation too large for u32");
        let mut seen = vec![false; n];
        for &g in &gather {
            let g = g as usize;
            assert!(g < n, "permutation entry {g} out of range 0..{n}");
            assert!(!seen[g], "duplicate permutation entry {g}");
            seen[g] = true;
        }
        Self { gather }
    }

    /// Wrap without validation. Safe in the memory sense (application
    /// bounds-checks), but a non-bijective vector would silently duplicate
    /// or drop elements — callers must guarantee bijectivity.
    pub fn new_unchecked(gather: Vec<u32>) -> Self {
        Self { gather }
    }

    /// The identity permutation of length `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            gather: (0..n as u32).collect(),
        }
    }

    /// Argsort: the permutation that orders `keys` ascending (stable, so
    /// equal Morton keys — agents in the same voxel — keep their relative
    /// order, which keeps the parallel and serial pipelines bit-identical).
    pub fn sorting_by_key<K: Ord + Send + Sync + Copy>(keys: &[K]) -> Self {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        if keys.len() >= PAR_THRESHOLD {
            idx.par_sort_by_key(|&i| keys[i as usize]);
        } else {
            idx.sort_by_key(|&i| keys[i as usize]);
        }
        Self { gather: idx }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.gather.len()
    }

    /// `true` when the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.gather.is_empty()
    }

    /// `true` when this is the identity.
    pub fn is_identity(&self) -> bool {
        self.gather.iter().enumerate().all(|(i, &g)| i as u32 == g)
    }

    /// Raw gather indices (`new[i] = old[g[i]]`).
    pub fn gather_indices(&self) -> &[u32] {
        &self.gather
    }

    /// The inverse permutation: if `self` maps old→new by gather, the
    /// inverse maps new→old. `self.apply(&inverse.apply(&x)) == x`.
    pub fn inverse(&self) -> Self {
        let mut inv = vec![0u32; self.gather.len()];
        for (new_pos, &old_pos) in self.gather.iter().enumerate() {
            inv[old_pos as usize] = new_pos as u32;
        }
        Self { gather: inv }
    }

    /// Out-of-place gather: returns `new` with `new[i] = data[perm[i]]`.
    pub fn apply<T: Copy + Send + Sync>(&self, data: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        self.gather(data, &mut out);
        out
    }

    /// `dst[i] = src[perm[i]]` into `dst`'s own buffer (cleared first) —
    /// no intermediate vector, so a reused `dst` costs one pass over the
    /// column and no allocation.
    fn gather<T: Copy + Send + Sync>(&self, src: &[T], dst: &mut Vec<T>) {
        assert_eq!(
            src.len(),
            self.gather.len(),
            "column length {} does not match permutation length {}",
            src.len(),
            self.gather.len()
        );
        if src.len() >= PAR_THRESHOLD {
            self.gather
                .par_iter()
                .map(|&g| src[g as usize])
                .collect_into_vec(dst);
        } else {
            dst.clear();
            dst.extend(self.gather.iter().map(|&g| src[g as usize]));
        }
    }

    /// Gather `src` through the permutation into `dst`, reusing `dst`'s
    /// capacity (`dst[i] = src[perm[i]]`; `dst` is cleared first).
    pub fn gather_into<T: Copy + Send + Sync>(&self, src: &[T], dst: &mut Vec<T>) {
        // Check the length up front — including on the identity fast
        // path — so a mismatched column fails here with a clear message
        // instead of silently copying a wrong-sized column.
        assert_eq!(
            src.len(),
            self.gather.len(),
            "column length {} does not match permutation length {}",
            src.len(),
            self.gather.len()
        );
        if self.is_identity() {
            dst.clear();
            dst.extend_from_slice(src);
        } else {
            self.gather(src, dst);
        }
    }

    /// In-place gather through a scratch buffer (reuses `scratch`'s
    /// capacity; on a non-identity permutation, leaves `scratch` holding
    /// the old data).
    ///
    /// Identity fast path: when the permutation is the identity the data
    /// is already in place, so nothing is copied and `scratch` is left
    /// untouched — an amortized reorder pass that finds the population
    /// already sorted costs one O(n) index scan and zero element moves.
    pub fn apply_in_place<T: Copy + Send + Sync>(&self, data: &mut Vec<T>, scratch: &mut Vec<T>) {
        self.apply_columns_in_place(&mut [data], scratch);
    }

    /// Apply the permutation to several same-typed columns, cascading one
    /// scratch buffer across all of them (one allocation amortized over
    /// the whole reorder). The identity check runs once up front, so an
    /// already-sorted population costs zero copies no matter how many
    /// columns ride along.
    pub fn apply_columns_in_place<T: Copy + Send + Sync>(
        &self,
        columns: &mut [&mut Vec<T>],
        scratch: &mut Vec<T>,
    ) {
        if self.is_identity() {
            for col in columns.iter() {
                assert_eq!(
                    col.len(),
                    self.gather.len(),
                    "column length {} does not match permutation length {}",
                    col.len(),
                    self.gather.len()
                );
            }
            return;
        }
        for col in columns.iter_mut() {
            self.gather(col.as_slice(), scratch);
            std::mem::swap(*col, scratch);
        }
    }

    /// Composition: `(self ∘ other)` first applies `other`, then `self`.
    pub fn compose(&self, other: &Self) -> Self {
        assert_eq!(self.len(), other.len());
        let gather = self
            .gather
            .iter()
            .map(|&g| other.gather[g as usize])
            .collect();
        Self { gather }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.apply(&[10, 20, 30, 40, 50]), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn gather_convention() {
        // new[i] = old[perm[i]]
        let p = Permutation::new(vec![2, 0, 1]);
        assert_eq!(p.apply(&['a', 'b', 'c']), vec!['c', 'a', 'b']);
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::new(vec![3, 1, 0, 2]);
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let shuffled = p.apply(&data);
        let restored = p.inverse().apply(&shuffled);
        assert_eq!(restored, data);
    }

    #[test]
    fn sorting_by_key_sorts() {
        let keys = [5u64, 1, 4, 2, 3];
        let p = Permutation::sorting_by_key(&keys);
        let sorted = p.apply(&keys);
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn sorting_is_stable() {
        let keys = [1u64, 0, 1, 0];
        let p = Permutation::sorting_by_key(&keys);
        // Values tagged with original index; equal keys preserve order.
        let tagged = ["a1", "b0", "c1", "d0"];
        assert_eq!(p.apply(&tagged), vec!["b0", "d0", "a1", "c1"]);
    }

    #[test]
    fn compose_applies_right_then_left() {
        let rot = Permutation::new(vec![1, 2, 0]); // new[i] = old[i+1 mod 3]
        let composed = rot.compose(&rot);
        let data = vec![0, 1, 2];
        assert_eq!(composed.apply(&data), rot.apply(&rot.apply(&data)));
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let p = Permutation::new(vec![2, 0, 3, 1]);
        let data = vec![9, 8, 7, 6];
        let expected = p.apply(&data);
        let mut d = data.clone();
        let mut scratch = Vec::new();
        p.apply_in_place(&mut d, &mut scratch);
        assert_eq!(d, expected);
        assert_eq!(scratch, data); // scratch holds the pre-gather data
    }

    #[test]
    fn gather_into_matches_apply_and_reuses_dst() {
        let p = Permutation::new(vec![2, 0, 3, 1]);
        let data = vec![9, 8, 7, 6];
        let mut dst = Vec::with_capacity(16);
        let cap = dst.capacity();
        p.gather_into(&data, &mut dst);
        assert_eq!(dst, p.apply(&data));
        assert_eq!(dst.capacity(), cap, "dst capacity is reused");
    }

    #[test]
    fn identity_apply_in_place_is_zero_copy() {
        // The identity fast path must neither move the data buffer nor
        // touch the scratch — sentinel contents survive unchanged.
        let p = Permutation::identity(4);
        let mut data = vec![1, 2, 3, 4];
        let ptr = data.as_ptr();
        let mut scratch = vec![99, 99];
        p.apply_in_place(&mut data, &mut scratch);
        assert_eq!(data, vec![1, 2, 3, 4]);
        assert_eq!(data.as_ptr(), ptr, "identity must not reallocate data");
        assert_eq!(scratch, vec![99, 99], "identity must not touch scratch");

        let mut cols = [vec![1.0, 2.0], vec![3.0, 4.0]];
        let [ref mut a, ref mut b] = cols;
        let mut scratch = vec![7.0];
        Permutation::identity(2).apply_columns_in_place(&mut [a, b], &mut scratch);
        assert_eq!(scratch, vec![7.0], "multi-column identity is zero-copy");
        assert_eq!(cols, [vec![1.0, 2.0], vec![3.0, 4.0]]);
    }

    #[test]
    fn apply_columns_in_place_cascades_one_scratch() {
        let p = Permutation::new(vec![1, 2, 0]);
        let mut a = vec![10, 20, 30];
        let mut b = vec![40, 50, 60];
        let mut scratch = Vec::new();
        p.apply_columns_in_place(&mut [&mut a, &mut b], &mut scratch);
        assert_eq!(a, p.apply(&[10, 20, 30]));
        assert_eq!(b, p.apply(&[40, 50, 60]));
    }

    #[test]
    #[should_panic]
    fn identity_apply_in_place_still_checks_length() {
        let p = Permutation::identity(3);
        p.apply_in_place(&mut vec![1, 2], &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range() {
        Permutation::new(vec![0, 3]);
    }

    #[test]
    #[should_panic]
    fn rejects_duplicates() {
        Permutation::new(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn apply_rejects_length_mismatch() {
        Permutation::identity(3).apply(&[1, 2]);
    }

    #[test]
    #[should_panic(expected = "column length 2 does not match permutation length 3")]
    fn gather_into_rejects_length_mismatch_even_for_identity() {
        let mut dst = Vec::new();
        Permutation::identity(3).gather_into(&[1, 2], &mut dst);
    }

    #[test]
    #[should_panic(expected = "does not match permutation length")]
    fn apply_columns_in_place_rejects_length_mismatch() {
        let mut short = vec![1.0];
        let mut scratch = Vec::new();
        Permutation::identity(3).apply_columns_in_place(&mut [&mut short], &mut scratch);
    }

    #[test]
    fn large_parallel_gather_matches_serial() {
        let n = PAR_THRESHOLD * 2;
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1000).collect();
        let p = Permutation::sorting_by_key(&keys);
        let gathered = p.apply(&keys);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(gathered, expected);
    }
}
