//! Property-based tests for the SoA substrate.

use bdm_math::Vec3;
use bdm_soa::{gather_words, Column, Permutation, SoaVec3};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Strategy producing a random valid permutation of length 0..=256.
fn permutation_strategy() -> impl Strategy<Value = Permutation> {
    (0usize..=256, any::<u64>()).prop_map(|(n, seed)| {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        Permutation::new(idx)
    })
}

proptest! {
    /// A permutation followed by its inverse restores the original column.
    #[test]
    fn inverse_restores(perm in permutation_strategy()) {
        let data: Vec<u32> = (0..perm.len() as u32).map(|i| i * 7 + 3).collect();
        let shuffled = perm.apply(&data);
        let restored = perm.inverse().apply(&shuffled);
        prop_assert_eq!(restored, data);
    }

    /// The inverse of the inverse is the original permutation.
    #[test]
    fn double_inverse_is_identity(perm in permutation_strategy()) {
        prop_assert_eq!(perm.inverse().inverse(), perm);
    }

    /// Applying a permutation never loses or duplicates elements.
    #[test]
    fn apply_is_bijective(perm in permutation_strategy()) {
        let data: Vec<u32> = (0..perm.len() as u32).collect();
        let mut shuffled = perm.apply(&data);
        shuffled.sort_unstable();
        prop_assert_eq!(shuffled, data);
    }

    /// Sorting-by-key produces ascending output for arbitrary keys.
    #[test]
    fn argsort_sorts(keys in proptest::collection::vec(any::<u64>(), 0..512)) {
        let perm = Permutation::sorting_by_key(&keys);
        let sorted = perm.apply(&keys);
        prop_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Composition law: (p ∘ q).apply(x) == p.apply(q.apply(x)).
    #[test]
    fn composition_law(seed in any::<u64>(), n in 0usize..=128) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a: Vec<u32> = (0..n as u32).collect();
        let mut b: Vec<u32> = (0..n as u32).collect();
        a.shuffle(&mut rng);
        b.shuffle(&mut rng);
        let p = Permutation::new(a);
        let q = Permutation::new(b);
        let data: Vec<u32> = (0..n as u32).map(|i| i * 13).collect();
        prop_assert_eq!(p.compose(&q).apply(&data), p.apply(&q.apply(&data)));
    }

    /// Gathering a SoaVec3's three columns keeps (x, y, z) triples
    /// together.
    #[test]
    fn soavec3_triples_stay_together(perm in permutation_strategy()) {
        let n = perm.len();
        let vecs: Vec<Vec3<f64>> = (0..n)
            .map(|i| Vec3::new(i as f64, i as f64 + 0.25, i as f64 + 0.5))
            .collect();
        let mut soa = SoaVec3::from_vecs(&vecs);
        let mut words = Vec::new();
        let (xs, ys, zs) = soa.as_mut_slices();
        for col in [xs, ys, zs] {
            gather_words(perm.gather_indices(), col, &mut words);
        }
        for i in 0..n {
            let v = soa.get(i);
            // A valid triple satisfies y = x + 0.25 and z = x + 0.5.
            prop_assert_eq!(v.y, v.x + 0.25);
            prop_assert_eq!(v.z, v.x + 0.5);
        }
    }

    /// Gathering through the shared word buffer is `Permutation::apply`,
    /// bit for bit (NaN payloads and signed zeros included), for every
    /// column type, whatever the buffer held before.
    #[test]
    fn gather_words_is_apply(perm in permutation_strategy(), seed in any::<u64>()) {
        let n = perm.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<u64> = (0..n).map(|_| rand::RngCore::next_u64(&mut rng)).collect();
        let mut words = bits.iter().rev().copied().take(n / 2).collect();
        let mut f64s: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        gather_words(perm.gather_indices(), &mut f64s, &mut words);
        let want: Vec<u64> = perm.apply(&bits);
        prop_assert_eq!(f64s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want.clone());
        let mut u64s = bits.clone();
        gather_words(perm.gather_indices(), &mut u64s, &mut words);
        prop_assert_eq!(&u64s, &want);
        let mut u32s: Vec<u32> = bits.iter().map(|&b| (b >> 32) as u32).collect();
        let want32 = perm.apply(&u32s);
        gather_words(perm.gather_indices(), &mut u32s, &mut words);
        prop_assert_eq!(u32s, want32);
        prop_assert_eq!(words.len(), n);
    }

    /// Column swap_remove preserves the multiset minus the removed element.
    #[test]
    fn swap_remove_multiset(data in proptest::collection::vec(any::<i32>(), 1..64), idx in any::<prop::sample::Index>()) {
        let i = idx.index(data.len());
        let mut col: Column<i32> = data.iter().copied().collect();
        let removed = col.swap_remove(i);
        prop_assert_eq!(removed, data[i]);
        let mut remaining: Vec<i32> = col.as_slice().to_vec();
        let mut expected = data.clone();
        expected.remove(i);
        remaining.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(remaining, expected);
    }
}
