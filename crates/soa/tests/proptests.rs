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

    /// Gathering a SoaVec3's three columns keeps (x, y, z) triples
    /// together.
    #[test]
    fn soavec3_triples_stay_together(perm in permutation_strategy()) {
        let n = perm.len();
        let vecs: Vec<Vec3<f64>> = (0..n)
            .map(|i| Vec3::new(i as f64, i as f64 + 0.25, i as f64 + 0.5))
            .collect();
        let mut soa = SoaVec3::from_vecs(&vecs);
        let mut words = vec![0; n];
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
        let mut words: Vec<u64> = bits.iter().rev().copied().collect();
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
        let mut f32s: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b as u32)).collect();
        let want32: Vec<u32> = perm.apply(&f32s).iter().map(|v| v.to_bits()).collect();
        gather_words(perm.gather_indices(), &mut f32s, &mut words);
        prop_assert_eq!(f32s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want32);
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
