//! Stable LSD radix argsort of `u64` keys, with an optional tie-break —
//! the sort behind the host reorder and [`crate::sort_permutation_with`].
//!
//! The keys are sorted by their digits, least significant first: each
//! pass is a stable counting sort on [`DIGIT_BITS`] bits of `key - min`,
//! and only as many passes run as the keys' range has digits (two for
//! any grid of up to 2²² voxels). Ties, when given, then order each run
//! of equal keys. The result is the strict total order `(key, tie,
//! index)`, so the permutation is exactly the one a stable comparison
//! sort of `(key, tie)` pairs returns.
//!
//! A pass cuts the current order into [`bdm_soa::parts`] — a function of
//! the key count alone — counts each part's digits into its own
//! histogram, turns the histograms into disjoint write cursors in one
//! ordered scan, and scatters every part in order. The output is
//! therefore the same at any worker count and on any schedule. Scratch
//! is two `u32` index buffers and [`MAX_PARTS`] histograms of
//! 2^[`DIGIT_BITS`] counters (64 KiB), whatever the keys' range.

use bdm_soa::{parts, MAX_PARTS};
use rayon::prelude::*;
use std::mem::size_of;
use std::ops::Range;

/// Bits per counting pass.
const DIGIT_BITS: u32 = 11;

/// Counters per histogram.
const BUCKETS: usize = 1 << DIGIT_BITS;

/// The output buffer of a scatter, written through by every part.
struct Slots(*mut u32);

// SAFETY: parts write through the pointer only at the disjoint cursor
// ranges the scan hands them, and `u32` is plain data.
unsafe impl Sync for Slots {}

/// The reusable buffers of the argsort: the order, its ping-pong twin
/// and the per-part histograms. Held across calls, a sort of a population
/// no larger than the last allocates nothing.
#[derive(Debug, Default)]
pub struct RadixArgsort {
    order: Vec<u32>,
    spare: Vec<u32>,
    hists: Vec<[u32; BUCKETS]>,
}

impl RadixArgsort {
    /// The gather indices that order `keys` ascending (`sorted[k] =
    /// keys[order[k]]`): equal keys by `ties` ascending when given, and
    /// otherwise — or on equal ties — by index.
    ///
    /// # Panics
    /// When `ties` is not as long as `keys`, or there are `u32::MAX` keys
    /// or more.
    pub fn sort(&mut self, keys: &[u64], ties: Option<&[u64]>) -> &[u32] {
        let n = keys.len();
        assert!(n < u32::MAX as usize, "{n} keys overflow u32 indices");
        if let Some(ties) = ties {
            assert_eq!(ties.len(), n, "one tie per key");
        }
        let (count, len) = parts(n);
        let part = |p: usize| (p * len).min(n)..((p + 1) * len).min(n);
        let mut bounds = [(u64::MAX, 0); MAX_PARTS];
        bounds[..count]
            .par_iter_mut()
            .enumerate()
            .for_each(|(p, (lo, hi))| {
                for &k in &keys[part(p)] {
                    (*lo, *hi) = ((*lo).min(k), (*hi).max(k));
                }
            });
        let (lo, hi) = bounds
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &(l, h)| (lo.min(l), hi.max(h)));
        let digits = (u64::BITS - hi.saturating_sub(lo).leading_zeros()).div_ceil(DIGIT_BITS);

        // Longer contents are overwritten; only growth writes zeros.
        self.order.resize(n, 0);
        self.spare.resize(n, 0);
        self.hists.resize(MAX_PARTS, [0; BUCKETS]);
        let hists = &mut self.hists[..count];
        for pass in 0..digits.max(1) {
            let shift = pass * DIGIT_BITS;
            let digit = |i: u32| ((keys[i as usize] - lo) >> shift) as usize & (BUCKETS - 1);
            if pass == 0 {
                counting_pass(&part, hists, |k| k as u32, digit, &mut self.spare);
            } else {
                let order = &self.order;
                counting_pass(&part, hists, |k| order[k], digit, &mut self.spare);
            }
            std::mem::swap(&mut self.order, &mut self.spare);
        }
        if let Some(ties) = ties {
            order_runs(&mut self.order, keys, ties, count, len);
        }
        &self.order
    }

    /// The order the last [`Self::sort`] returned, as an owned vector.
    pub fn into_order(self) -> Vec<u32> {
        self.order
    }

    /// Heap bytes the buffers hold: capacity times element size.
    pub fn resident_bytes(&self) -> usize {
        (self.order.capacity() + self.spare.capacity()) * size_of::<u32>()
            + self.hists.capacity() * size_of::<[u32; BUCKETS]>()
    }
}

/// One stable counting pass: `dst` receives the indices `src(k)` for
/// every `k` of every part, ordered by `digit`, equal digits in `k`
/// order.
fn counting_pass(
    part: &(impl Fn(usize) -> Range<usize> + Sync),
    hists: &mut [[u32; BUCKETS]],
    src: impl Fn(usize) -> u32 + Sync,
    digit: impl Fn(u32) -> usize + Sync,
    dst: &mut [u32],
) {
    hists.par_iter_mut().enumerate().for_each(|(p, hist)| {
        hist.fill(0);
        for k in part(p) {
            hist[digit(src(k))] += 1;
        }
    });
    // Exclusive scan in (digit, part) order: part p's elements of digit d
    // land after every smaller digit's and after parts < p's of digit d.
    let mut next = 0u32;
    for d in 0..BUCKETS {
        for hist in hists.iter_mut() {
            (hist[d], next) = (next, next + hist[d]);
        }
    }
    assert_eq!(next as usize, dst.len(), "the parts must cover the output");
    let slots = Slots(dst.as_mut_ptr());
    hists.par_iter_mut().enumerate().for_each(|(p, cursor)| {
        let slots = &slots;
        for k in part(p) {
            let i = src(k);
            let d = digit(i);
            // SAFETY: the scan gave part p the slots
            // `cursor[d] .. cursor[d] + count_p(d)`, disjoint from every
            // other (part, digit) pair's and inside `0..dst.len()` (the
            // counts sum to it, asserted above); this loop sees the same
            // digits the counting loop did, so it writes exactly
            // `count_p(d)` of them.
            unsafe { *slots.0.add(cursor[d] as usize) = i };
            cursor[d] += 1;
        }
    });
}

/// Put every run of equal keys in `order` in `(tie, index)` order, the
/// runs split across the parts whole.
fn order_runs(order: &mut [u32], keys: &[u64], ties: &[u64], count: usize, len: usize) {
    let n = order.len();
    let key_at = |k: usize| keys[order[k] as usize];
    // Each part boundary moves forward to the next run start.
    let mut cuts = [n; MAX_PARTS + 1];
    cuts[0] = 0;
    for p in 1..count {
        let mut c = (p * len).clamp(cuts[p - 1], n);
        while 0 < c && c < n && key_at(c) == key_at(c - 1) {
            c += 1;
        }
        cuts[p] = c;
    }
    let mut pieces: [&mut [u32]; MAX_PARTS] = Default::default();
    let mut rest = order;
    for (p, piece) in pieces[..count].iter_mut().enumerate() {
        let (head, tail) = rest.split_at_mut(cuts[p + 1] - cuts[p]);
        (*piece, rest) = (head, tail);
    }
    let tie = |&i: &u32| (ties[i as usize], i);
    pieces[..count].par_iter_mut().for_each(|piece| {
        for run in piece.chunk_by_mut(|&a, &b| keys[a as usize] == keys[b as usize]) {
            if !run.is_sorted_by_key(tie) {
                run.sort_unstable_by_key(tie);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_soa::Permutation;

    /// A comparison sort's answer over `(key, tie)` pairs.
    fn oracle(keys: &[u64], ties: &[u64]) -> Vec<u32> {
        let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(ties.iter().copied()).collect();
        Permutation::sorting_by_key(&pairs)
            .gather_indices()
            .to_vec()
    }

    #[test]
    fn sorts_like_the_comparison_sort() {
        let mut rng = bdm_math::SplitMix64::new(5);
        let mut sorter = RadixArgsort::default();
        // One pass, two passes, the full 64 bits; equal keys everywhere.
        for (n, range) in [
            (5000, 1 << 10),
            (9000, 1 << 20),
            (3000, u64::MAX),
            (2500, 3),
        ] {
            let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() % range).collect();
            let ties: Vec<u64> = (0..n).map(|_| rng.next_u64() % 50).collect();
            let order = sorter.sort(&keys, Some(&ties)).to_vec();
            assert_eq!(order, oracle(&keys, &ties), "{n} keys below {range}");
            let by_index = sorter.sort(&keys, None);
            assert_eq!(
                by_index,
                Permutation::sorting_by_key(&keys).gather_indices()
            );
        }
        assert!(sorter.sort(&[], None).is_empty());
        assert_eq!(sorter.sort(&[7], Some(&[1])), [0]);
    }

    #[test]
    fn scratch_is_two_indices_per_key_and_the_histograms() {
        let mut sorter = RadixArgsort::default();
        let keys: Vec<u64> = (0..20_000u64).rev().collect();
        sorter.sort(&keys, None);
        let bytes = sorter.resident_bytes();
        assert!(bytes >= 8 * keys.len() + MAX_PARTS * BUCKETS * 4);
        assert!(bytes <= 8 * (keys.len() + 64) + 64 * 1024, "{bytes} bytes");
    }
}
