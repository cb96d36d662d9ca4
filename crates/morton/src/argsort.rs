//! Stable LSD radix argsort of `u64` keys, with an optional tie-break —
//! the sort behind the host reorder and [`crate::sort_permutation_with`].
//!
//! The keys are sorted by their digits, least significant first: each
//! pass is a stable counting sort on `DIGIT_BITS` bits of `key - min`,
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
//! is the caller's two `u32` index buffers and, on the stack,
//! [`MAX_PARTS`] histograms of 2^`DIGIT_BITS` counters (64 KiB),
//! whatever the keys' range: the sort holds nothing between calls.

use bdm_soa::{parts, MAX_PARTS};
use rayon::prelude::*;
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

/// Write into `order` the gather indices that order `keys` ascending
/// (`sorted[k] = keys[order[k]]`): equal keys by `ties` ascending when
/// given, and otherwise — or on equal ties — by index. `spare` is the
/// passes' ping-pong buffer; its contents on return are unspecified.
///
/// # Panics
/// When `ties`, `order` or `spare` is not as long as `keys`, or there are
/// `u32::MAX` keys or more.
pub fn radix_argsort(keys: &[u64], ties: Option<&[u64]>, order: &mut [u32], spare: &mut [u32]) {
    let n = keys.len();
    assert!(n < u32::MAX as usize, "{n} keys overflow u32 indices");
    assert!(
        order.len() == n && spare.len() == n,
        "one order and one spare slot per key"
    );
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
    let passes = (u64::BITS - hi.saturating_sub(lo).leading_zeros())
        .div_ceil(DIGIT_BITS)
        .max(1);

    let mut hists = [[0u32; BUCKETS]; MAX_PARTS];
    let hists = &mut hists[..count];
    // Each pass writes the buffer the next one reads, so the first pass
    // writes `order` when the count is odd and the last one always does.
    let (mut dst, mut src) = if passes % 2 == 1 {
        (order, spare)
    } else {
        (spare, order)
    };
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let digit = |i: u32| ((keys[i as usize] - lo) >> shift) as usize & (BUCKETS - 1);
        if pass == 0 {
            counting_pass(&part, hists, |k| k as u32, digit, dst);
        } else {
            let prev = &*src;
            counting_pass(&part, hists, |k| prev[k], digit, dst);
        }
        std::mem::swap(&mut dst, &mut src);
    }
    if let Some(ties) = ties {
        order_runs(src, keys, ties, count, len);
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

    /// The argsort's order, through stale buffers.
    fn sort(keys: &[u64], ties: Option<&[u64]>) -> Vec<u32> {
        let mut order = vec![u32::MAX; keys.len()];
        radix_argsort(keys, ties, &mut order, &mut vec![7; keys.len()]);
        order
    }

    #[test]
    fn sorts_like_the_comparison_sort() {
        let mut rng = bdm_math::SplitMix64::new(5);
        // One pass, two passes, the full 64 bits (six: the last lands in
        // `order` either way); equal keys everywhere.
        for (n, range) in [
            (5000, 1 << 10),
            (9000, 1 << 20),
            (3000, u64::MAX),
            (2500, 3),
        ] {
            let keys: Vec<u64> = (0..n).map(|_| rng.next_u64() % range).collect();
            let ties: Vec<u64> = (0..n).map(|_| rng.next_u64() % 50).collect();
            let order = sort(&keys, Some(&ties));
            assert_eq!(order, oracle(&keys, &ties), "{n} keys below {range}");
            assert_eq!(
                sort(&keys, None),
                Permutation::sorting_by_key(&keys).gather_indices()
            );
        }
        assert!(sort(&[], None).is_empty());
        assert_eq!(sort(&[7], Some(&[1])), [0]);
    }
}
