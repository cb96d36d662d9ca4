//! One per-agent buffer that a step's phases borrow in turn.
//!
//! Five phases of a host step need a buffer of plain words for the
//! length of their own call, and they never overlap: the reorder (a
//! `u64` per agent — its key, then each column's gathered values — and
//! the argsort's two `u32` index arrays), a division wave (a mother uid
//! per daughter slot the chunks may fill, then the same word and index
//! arrays per daughter to order and append them), the CSR grid build (a
//! `u32` voxel id per agent), the force sweep (`Vec3<f64>`
//! displacements: one per agent, or two bands' worth on the global CSR
//! sweep, which integrates each band before it sweeps the one after
//! next) and the diffusion sweep (a window of `f64` or `f32` planes per
//! field swept at once). [`StepBuffer`] is that memory, held once and
//! lent to each as the type it needs: a step holds its largest
//! borrower's bytes, not the sum of all five.

use bdm_math::Vec3;
use std::mem::{align_of, size_of, size_of_val};
use std::slice::ChunksExactMut;

/// Words per agent of the widest per-agent view: the reorder's and a
/// division wave's word and two indices
/// ([`StepBuffer::words_and_indices`]). Every per-agent view sizes the
/// buffer by it, so a population grows the buffer once, whichever view a
/// step borrows first. The displacements ([`StepBuffer::vec3s`]) are
/// sized by their caller: a banded sweep holds fewer than one per agent.
const AGENT_WORDS: usize = 2;

/// Plain data a run of `u64` words can be viewed as.
///
/// # Safety
/// An implementor has no padding and no invalid bit patterns (any bytes
/// are a value), and its alignment divides a `u64`'s.
pub unsafe trait Plain: Copy {}

// SAFETY: an integer accepts any bits; align 4 divides 8.
unsafe impl Plain for u32 {}
// SAFETY: `Vec3` is `repr(C)` over three `f64`s: 24 bytes, no padding,
// align 8, and every bit pattern is some `f64`.
unsafe impl Plain for Vec3<f64> {}
// SAFETY: 8 bytes, align 8, and every bit pattern is some `f64` (a NaN
// among them).
unsafe impl Plain for f64 {}
// SAFETY: 4 bytes, align 4 divides 8, and every bit pattern is some
// `f32`.
unsafe impl Plain for f32 {}

/// `words` as the `T`s that fit in them whole.
fn view<T: Plain>(words: &mut [u64]) -> &mut [T] {
    debug_assert_eq!(align_of::<u64>() % align_of::<T>(), 0);
    let len = size_of_val(words) / size_of::<T>();
    // SAFETY: the pointer is a `u64`'s, so aligned for `T` (`Plain`); the
    // `len` `T`s span no more bytes than `words`, which this exclusive
    // borrow covers for the returned lifetime; and whatever bits the
    // words hold are valid `T`s (`Plain`).
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), len) }
}

/// The per-step buffer (see the module docs). Between borrows its
/// contents are unspecified: a view hands out whatever the last borrower
/// left there, and a borrower that needs zeros writes them.
#[derive(Debug, Default)]
pub struct StepBuffer {
    words: Vec<u64>,
}

impl StepBuffer {
    /// The first `len` words. A shorter buffer is replaced by a zeroed
    /// one of exactly `len` words.
    fn words(&mut self, len: usize) -> &mut [u64] {
        if self.words.len() < len {
            // Free before allocating: no borrower keeps anything across
            // a growth, and a growing population must not hold both.
            self.words = Vec::new();
            self.words = vec![0; len];
        }
        &mut self.words[..len]
    }

    /// `len` `Vec3<f64>`s — sized by themselves, not by a population:
    /// one per agent is 24 bytes, wider than any per-agent view.
    pub fn vec3s(&mut self, len: usize) -> &mut [Vec3<f64>] {
        view(self.words(len * size_of::<Vec3<f64>>() / size_of::<u64>()))
    }

    /// One word per agent, then two arrays of one `u32` per agent.
    pub fn words_and_indices(&mut self, agents: usize) -> (&mut [u64], &mut [u32], &mut [u32]) {
        let words = &mut self.words(AGENT_WORDS * agents)[..2 * agents];
        let (words, indices) = words.split_at_mut(agents);
        let (first, second) = view(indices).split_at_mut(agents);
        (words, first, second)
    }

    /// One `u32` per agent.
    pub fn indices(&mut self, agents: usize) -> &mut [u32] {
        &mut view(self.words(AGENT_WORDS * agents))[..agents]
    }

    /// `count` windows of `len` `T`s each, side by side — sized by
    /// themselves, not by a population.
    pub fn windows<T: Plain>(&mut self, count: usize, len: usize) -> ChunksExactMut<'_, T> {
        let words = (count * len * size_of::<T>()).div_ceil(size_of::<u64>());
        view(self.words(words))[..count * len].chunks_exact_mut(len.max(1))
    }

    /// Heap bytes the buffer holds.
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_views_share_one_block_sized_for_the_widest() {
        let mut buf = StepBuffer::default();
        assert_eq!(buf.resident_bytes(), 0);
        // The reorder's view first: it sizes the block for every
        // per-agent view, at two words per agent.
        let (words, first, second) = buf.words_and_indices(100);
        assert_eq!((words.len(), first.len(), second.len()), (100, 100, 100));
        words[99] = u64::MAX;
        assert_eq!(buf.resident_bytes(), 1600);
        // Displacements are sized by their caller: 66 of them fit in the
        // same 1,600 bytes, and word 99 is the x of record 33.
        let disp = buf.vec3s(66);
        assert_eq!(disp.len(), 66);
        assert_eq!(disp[33].x.to_bits(), u64::MAX);
        assert_eq!(buf.resident_bytes(), 1600);
        // The grid build's voxel ids are the same block's first 50 words
        // (word 49 is ids 98 and 99).
        let ids = buf.indices(100);
        assert_eq!(ids.len(), 100);
        assert_eq!(ids[98..100], [0; 2]);
        buf.vec3s(66)[16].y = f64::from_bits(u64::MAX);
        assert_eq!(buf.indices(100)[98..100], [u32::MAX; 2]);
        assert_eq!(buf.resident_bytes(), 1600);
        // One displacement per agent outgrows the per-agent views; they
        // then fit in its block.
        assert_eq!(buf.vec3s(100).len(), 100);
        assert_eq!(buf.resident_bytes(), 2400);
        assert_eq!(buf.words_and_indices(100).0.len(), 100);
        assert_eq!(buf.resident_bytes(), 2400);
        assert!(buf.indices(0).is_empty() && buf.vec3s(0).is_empty());
    }

    #[test]
    fn diffusion_windows_tile_the_block_at_either_width() {
        let mut buf = StepBuffer::default();
        // Three windows of five `f32`s: 60 bytes, rounded up to 8 words.
        let windows: Vec<_> = buf.windows::<f32>(3, 5).collect();
        assert_eq!(windows.iter().map(|w| w.len()).collect::<Vec<_>>(), [5; 3]);
        for (k, w) in windows.into_iter().enumerate() {
            w.fill(k as f32 + 0.5);
        }
        assert_eq!(buf.resident_bytes(), 64);
        // The same bytes as `f64`s: the first word holds window 0's first
        // two `f32`s, word 7 the last one of window 2 and a spare half.
        let words: Vec<_> = buf.windows::<f64>(2, 4).collect();
        assert_eq!(
            words[0][0].to_bits(),
            u64::from(0.5f32.to_bits()) * 0x1_0000_0001
        );
        assert_eq!(words[1][3].to_bits() as u32, 2.5f32.to_bits());
        assert_eq!(buf.resident_bytes(), 64);
        // Wider windows grow the block; a per-agent view then fits in it.
        for w in buf.windows::<f64>(2, 9) {
            w.fill(-1.0);
        }
        assert_eq!(buf.resident_bytes(), 144);
        assert_eq!(buf.vec3s(6)[5].z, -1.0);
        assert_eq!(
            buf.windows::<f64>(0, 9).len() + buf.windows::<f32>(4, 0).len(),
            0
        );
    }
}
