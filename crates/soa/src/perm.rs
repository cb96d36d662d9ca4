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

use crate::partition::parts;
use rayon::prelude::*;

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

impl Word for f32 {
    fn to_word(self) -> u64 {
        self.to_bits().into()
    }
    fn from_word(w: u64) -> Self {
        f32::from_bits(w as u32)
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
/// `words`, one per element: the gathered elements go into the buffer and
/// are copied back, so the columns of one population share it.
///
/// # Panics
/// When `order`, `col` and `words` differ in length, or an index is out
/// of range.
pub fn gather_words<T: Word>(order: &[u32], col: &mut [T], words: &mut [u64]) {
    let n = col.len();
    assert_eq!(order.len(), n, "gather order / column length mismatch");
    assert_eq!(words.len(), n, "one word per element");
    let (_, len) = parts(n);
    let src = &*col;
    gather_with(order, words, |g| src[g].to_word());
    col.par_chunks_mut(len)
        .zip(words.par_chunks(len))
        .for_each(|(dst, src)| {
            for (d, &w) in dst.iter_mut().zip(src) {
                *d = T::from_word(w);
            }
        });
}

/// `words[k] = read(order[k])` for every `k`, in the parallel parts of
/// [`parts`]`(words.len())`.
pub(crate) fn gather_with(order: &[u32], words: &mut [u64], read: impl Fn(usize) -> u64 + Sync) {
    let (_, len) = parts(words.len());
    words.par_chunks_mut(len).enumerate().for_each(|(p, out)| {
        let order = &order[p * len..];
        for (w, &g) in out.iter_mut().zip(order) {
            *w = read(g as usize);
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

    /// Argsort by a comparison sort: the permutation that orders `keys`
    /// ascending (stable, so equal keys keep their relative order). The
    /// oracle `bdm_morton::radix_argsort` is checked against.
    pub fn sorting_by_key<K: Ord + Copy>(keys: &[K]) -> Self {
        let mut idx: Vec<u32> = (0..keys.len() as u32).collect();
        idx.sort_by_key(|&i| keys[i as usize]);
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
        if parts(src.len()).0 > 1 {
            self.gather
                .par_iter()
                .map(|&g| src[g as usize])
                .collect_into_vec(dst);
        } else {
            dst.clear();
            dst.extend(self.gather.iter().map(|&g| src[g as usize]));
        }
    }

    /// Apply the permutation to several same-typed columns in place,
    /// cascading one scratch buffer across all of them (one allocation
    /// amortized over the whole reorder; on a non-identity permutation,
    /// `scratch` is left holding the last column's old data).
    ///
    /// Identity fast path: the identity check runs once up front, and then
    /// nothing is copied and `scratch` is left untouched — an already-sorted
    /// population costs one O(n) index scan and zero element moves, however
    /// many columns ride along. The column lengths are checked either way.
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
    fn identity_apply_columns_in_place_is_zero_copy() {
        // The identity fast path must neither move a column's buffer nor
        // touch the scratch — sentinel contents survive unchanged.
        let mut a = vec![1, 2, 3, 4];
        let mut b = vec![5, 6, 7, 8];
        let ptr = a.as_ptr();
        let mut scratch = vec![99, 99];
        Permutation::identity(4).apply_columns_in_place(&mut [&mut a, &mut b], &mut scratch);
        assert_eq!(
            (a.as_slice(), b.as_slice()),
            (&[1, 2, 3, 4][..], &[5, 6, 7, 8][..])
        );
        assert_eq!(a.as_ptr(), ptr, "identity must not reallocate a column");
        assert_eq!(scratch, vec![99, 99], "identity must not touch scratch");
    }

    #[test]
    fn apply_columns_in_place_matches_apply() {
        let p = Permutation::new(vec![2, 0, 3, 1]);
        let data = vec![9, 8, 7, 6];
        let expected = p.apply(&data);
        let mut d = data.clone();
        let mut scratch = Vec::new();
        p.apply_columns_in_place(&mut [&mut d], &mut scratch);
        assert_eq!(d, expected);
        assert_eq!(scratch, data); // scratch holds the pre-gather data
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
        assert_eq!(
            scratch,
            vec![40, 50, 60],
            "scratch holds the last old column"
        );
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
    fn apply_rejects_length_mismatch_even_for_identity() {
        Permutation::identity(3).apply(&[1, 2]);
    }

    #[test]
    #[should_panic]
    fn identity_apply_columns_in_place_still_checks_length() {
        let p = Permutation::identity(3);
        p.apply_columns_in_place(&mut [&mut vec![1, 2]], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "column length 1 does not match permutation length 3")]
    fn apply_columns_in_place_rejects_length_mismatch() {
        // Even for the identity, whose fast path copies nothing.
        let mut short = vec![1.0];
        let mut scratch = Vec::new();
        Permutation::identity(3).apply_columns_in_place(&mut [&mut short], &mut scratch);
    }

    #[test]
    fn large_parallel_gather_matches_serial() {
        let n = 1 << 15;
        let keys: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 1000).collect();
        let p = Permutation::sorting_by_key(&keys);
        let gathered = p.apply(&keys);
        let mut expected = keys.clone();
        expected.sort_unstable();
        assert_eq!(gathered, expected);
    }

    /// One part (1,024 elements) gathers on the calling thread, one more
    /// element forks: both equal a plain serial gather.
    #[test]
    fn gather_at_the_fork_point_matches_a_serial_gather() {
        for n in [1024, 1025] {
            assert_eq!(parts(n).0, n - 1023, "{n} elements");
            let data: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            let order: Vec<u32> = (0..n as u32).map(|i| (i * 389) % n as u32).collect();
            let serial: Vec<u64> = order.iter().map(|&g| data[g as usize]).collect();
            assert_eq!(Permutation::new(order).apply(&data), serial, "{n}");
        }
    }
}
