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

    /// Disjoint mutable views over consecutive `size`-agent chunks.
    ///
    /// The chunks partition the column, so they can be written from
    /// different threads simultaneously; chunking by a *fixed* size
    /// (instead of dividing by the thread count) keeps the partition —
    /// and therefore any per-chunk reduction order — independent of how
    /// many workers execute it.
    pub fn chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
        self.data.chunks_mut(size)
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
    fn chunks_mut_are_disjoint_windows() {
        let mut c: Column<i32> = (0..7).collect();
        let chunks: Vec<&mut [i32]> = c.chunks_mut(3).collect();
        assert_eq!(chunks.len(), 3);
        for chunk in chunks {
            for v in chunk.iter_mut() {
                *v *= 10;
            }
        }
        assert_eq!(c.as_slice(), &[0, 10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn index_mut_writes() {
        let mut c: Column<i32> = [1, 2].into_iter().collect();
        c[1] = 99;
        assert_eq!(c.as_slice(), &[1, 99]);
    }
}
