//! A single SoA attribute column.
//!
//! `Column<T>` is a thin, purpose-revealing wrapper over `Vec<T>` that adds
//! the operations the resource manager needs: mutable slices (the Z-order
//! sort gathers them through [`crate::gather_words`]), swap-remove (agent
//! death), and contiguous byte views (device transfers of exactly this
//! column).
//!
//! `T: Copy` is part of the type: a column is plain data, so a gather, a
//! swap-remove, a clone or a checkpoint walk is a copy of `len` elements
//! and nothing else. An attribute that owns heap (a list per agent) does
//! not fit — intern it and store the id, as the resource manager does
//! with behavior lists.
//!
//! A division wave writes its daughters straight into a column's spare
//! capacity ([`Column::split_spare`]), each chunk of agents into its own
//! window, and appends them afterwards in a canonical order
//! ([`Column::append_from_spare`]) — the same gather through one word per
//! element as [`crate::gather_words`], and no record of the daughters
//! anywhere else.

use crate::partition::parts;
use crate::perm::{gather_with, Word};
use rayon::prelude::*;
use std::mem::MaybeUninit;

/// One agent attribute, stored contiguously for all agents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Column<T: Copy> {
    data: Vec<T>,
}

impl<T: Copy + Send + Sync> Column<T> {
    /// Empty column.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Column with reserved capacity (the cell-division benchmark grows the
    /// population every step; reserving avoids reallocation in the loop).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Column of `n` copies of `value`.
    pub fn filled(value: T, n: usize) -> Self {
        Self {
            data: vec![value; n],
        }
    }

    /// Build from an existing vector.
    pub fn from_vec(data: Vec<T>) -> Self {
        Self { data }
    }

    /// Number of agents in the column.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no agents are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Slots allocated (what the column holds resident, used or not).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Make room for `additional` more agents in one growth step (a
    /// division wave reserves once, then appends).
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Append one agent's value.
    pub fn push(&mut self, v: T) {
        self.data.push(v);
    }

    /// The elements, and the first `additional` slots past them, reserved
    /// first. What is written to a slot stays until the column grows or
    /// changes length; the pages a wave never writes are never touched.
    pub fn split_spare(&mut self, additional: usize) -> (&mut [T], &mut [MaybeUninit<T>]) {
        self.data.reserve(additional);
        let len = self.data.len();
        let ptr = self.data.as_mut_ptr();
        // SAFETY: `reserve` left room for `len + additional` elements: the
        // first `len` are initialised and the next `additional` lie inside
        // the allocation, so the two slices are in bounds, disjoint, and
        // covered by the exclusive borrow of `self`.
        unsafe {
            (
                std::slice::from_raw_parts_mut(ptr, len),
                std::slice::from_raw_parts_mut(ptr.add(len).cast(), additional),
            )
        }
    }

    /// Append spare slot `order[k]` as element `len + k`, for every `k`, in
    /// parallel parts ([`parts`]) through `words`, one per appended
    /// element: the slots are read into the words first, so `order` may
    /// name any slots, the appended ones included.
    ///
    /// # Safety
    /// Every slot `order` names was written through [`Self::split_spare`]
    /// since the column last grew or changed length.
    ///
    /// # Panics
    /// When `order` and `words` differ in length, or a slot is past the
    /// spare capacity.
    pub unsafe fn append_from_spare(&mut self, order: &[u32], words: &mut [u64])
    where
        T: Word,
    {
        let m = order.len();
        assert_eq!(words.len(), m, "one word per appended element");
        let spare = self.data.spare_capacity_mut();
        assert!(
            m <= spare.len(),
            "{m} elements past a spare of {}",
            spare.len()
        );
        let src = &*spare;
        // SAFETY: the caller wrote every slot `order` names (`[]` panics
        // on one past the spare).
        gather_with(order, words, |g| unsafe { src[g].assume_init() }.to_word());
        let (_, len) = parts(m);
        spare[..m]
            .par_chunks_mut(len)
            .zip(words.par_chunks(len))
            .for_each(|(dst, src)| {
                for (d, &w) in dst.iter_mut().zip(src) {
                    d.write(T::from_word(w));
                }
            });
        // SAFETY: the loop above wrote the first `m` spare slots.
        unsafe { self.data.set_len(self.data.len() + m) };
    }

    /// Remove agent `i` by moving the last agent into its slot (O(1), does
    /// not preserve order — the environment is rebuilt each step anyway).
    pub fn swap_remove(&mut self, i: usize) -> T {
        self.data.swap_remove(i)
    }

    /// Read access.
    #[inline(always)]
    pub fn get(&self, i: usize) -> &T {
        &self.data[i]
    }

    /// Write access.
    #[inline(always)]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }

    /// Set agent `i`'s value.
    #[inline(always)]
    pub fn set(&mut self, i: usize, v: T) {
        self.data[i] = v;
    }

    /// The whole column as a slice (this is what gets copied to the device).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable slice over the whole column.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Drop all agents but keep the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Grow to `n` agents, filling new slots with `value`.
    pub fn resize(&mut self, n: usize, value: T) {
        self.data.resize(n, value);
    }

    /// Iterate over values.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }
}

impl<T: Copy + Send + Sync> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl<T: Copy + Send + Sync> std::ops::Index<usize> for Column<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        &self.data[i]
    }
}

impl<T: Copy + Send + Sync> std::ops::IndexMut<usize> for Column<T> {
    #[inline(always)]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut c = Column::new();
        c.push(1.0f64);
        c.push(2.0);
        assert_eq!(c.len(), 2);
        assert_eq!(*c.get(1), 2.0);
        c.set(0, 5.0);
        assert_eq!(c[0], 5.0);
    }

    #[test]
    fn swap_remove_moves_last() {
        let mut c: Column<i32> = [10, 20, 30, 40].into_iter().collect();
        let removed = c.swap_remove(1);
        assert_eq!(removed, 20);
        assert_eq!(c.as_slice(), &[10, 40, 30]);
    }

    #[test]
    fn filled_and_resize() {
        let mut c = Column::filled(7u8, 3);
        assert_eq!(c.as_slice(), &[7, 7, 7]);
        c.resize(5, 9);
        assert_eq!(c.as_slice(), &[7, 7, 7, 9, 9]);
        c.resize(2, 0);
        assert_eq!(c.as_slice(), &[7, 7]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c = Column::with_capacity(100);
        c.push(1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn spare_slots_append_in_the_order_given() {
        let mut c: Column<u32> = [1, 2].into_iter().collect();
        // Slots 0, 2 and 4 written; 1 and 3 left as the gaps of a wave.
        let (agents, spare) = c.split_spare(5);
        assert_eq!(agents, &[1, 2]);
        for (k, slot) in spare.iter_mut().enumerate().step_by(2) {
            slot.write(10 + k as u32);
        }
        assert_eq!(c.len(), 2);
        let mut words = [u64::MAX; 3];
        // SAFETY: slots 4, 0 and 2 were written above.
        unsafe { c.append_from_spare(&[4, 0, 2], &mut words) };
        assert_eq!(c.as_slice(), &[1, 2, 14, 10, 12]);
    }

    #[test]
    fn index_mut_writes() {
        let mut c: Column<i32> = [1, 2].into_iter().collect();
        c[1] = 99;
        assert_eq!(c.as_slice(), &[1, 99]);
    }
}
