//! Property-based tests for the Z-order curve, the Hilbert curve, the
//! curve-span shard map built on top of them, and the radix argsort.

use bdm_math::{Aabb, SplitMix64, Vec3};
use bdm_morton::{
    cell_keys, compact, decode3, encode2, encode3, hilbert_decode3, hilbert_encode3, quantize,
    spread, Curve, RadixArgsort, ShardMap, COORD_BITS, COORD_MAX,
};
use bdm_soa::Permutation;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

proptest! {
    /// spread/compact are inverse for every 21-bit value.
    #[test]
    fn spread_compact_bijection(v in 0u32..=COORD_MAX) {
        prop_assert_eq!(compact(spread(v)), v);
    }

    /// encode3/decode3 are inverse.
    #[test]
    fn encode_decode_bijection(
        x in 0u32..=COORD_MAX,
        y in 0u32..=COORD_MAX,
        z in 0u32..=COORD_MAX,
    ) {
        prop_assert_eq!(decode3(encode3(x, y, z)), (x, y, z));
    }

    /// Distinct coordinates yield distinct Z-values (injectivity).
    #[test]
    fn encode_injective(
        a in (0u32..1024, 0u32..1024, 0u32..1024),
        b in (0u32..1024, 0u32..1024, 0u32..1024),
    ) {
        if a != b {
            prop_assert_ne!(encode3(a.0, a.1, a.2), encode3(b.0, b.1, b.2));
        }
    }

    /// Monotone within an axis: increasing one coordinate while the others
    /// stay at zero increases the Z-value.
    #[test]
    fn monotone_on_axes(v in 0u32..COORD_MAX) {
        prop_assert!(encode3(v, 0, 0) < encode3(v + 1, 0, 0));
        prop_assert!(encode3(0, v, 0) < encode3(0, v + 1, 0));
        prop_assert!(encode3(0, 0, v) < encode3(0, 0, v + 1));
    }

    /// Octant nesting: the top interleaved bits of the Z-value select the
    /// octant, so all points of a lower octant sort before any point of a
    /// higher octant at the same level.
    #[test]
    fn octant_nesting(
        x0 in 0u32..512, y0 in 0u32..512, z0 in 0u32..512,
        x1 in 512u32..1024, y1 in 512u32..1024, z1 in 512u32..1024,
    ) {
        // Point entirely within the low half on every axis precedes a point
        // entirely within the high half on every axis (10-bit space).
        prop_assert!(encode3(x0, y0, z0) < encode3(x1, y1, z1));
    }

    /// The 2-D encode agrees with the 3-D encode at z = 0 after removing
    /// the z-lane gaps — checked indirectly through order agreement.
    #[test]
    fn encode2_order_matches_encode3_z0(
        a in (0u32..4096, 0u32..4096),
        b in (0u32..4096, 0u32..4096),
    ) {
        let ord2 = encode2(a.0, a.1).cmp(&encode2(b.0, b.1));
        let ord3 = encode3(a.0, a.1, 0).cmp(&encode3(b.0, b.1, 0));
        prop_assert_eq!(ord2, ord3);
    }

    /// Quantization is translation-consistent: shifting the space and the
    /// point by the same offset yields the same voxel coordinates.
    #[test]
    fn quantize_translation_invariant(
        px in 0.0f64..100.0, py in 0.0f64..100.0, pz in 0.0f64..100.0,
        shift in -50.0f64..50.0,
    ) {
        let space = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::splat(100.0));
        let shifted = Aabb::new(
            Vec3::splat(shift),
            Vec3::splat(shift + 100.0),
        );
        let p = Vec3::new(px, py, pz);
        let ps = p + Vec3::splat(shift);
        prop_assert_eq!(
            quantize(p, &space, 1.0),
            quantize(ps, &shifted, 1.0)
        );
    }

    /// Hilbert keys over a clamped grid are a bijection on voxel
    /// coordinates: distinct voxels get distinct keys, and decoding
    /// recovers the voxel. (Injectivity + left inverse = bijection onto
    /// the key image, which is what the shard splitter needs: one key ↔
    /// one voxel.)
    #[test]
    fn hilbert_is_a_bijection_on_voxel_coords(
        dx in 1u32..=6, dy in 1u32..=6, dz in 1u32..=6,
    ) {
        let mut seen = std::collections::HashSet::new();
        for z in 0..dz {
            for y in 0..dy {
                for x in 0..dx {
                    let k = hilbert_encode3(x, y, z);
                    prop_assert!(seen.insert(k), "key collision at {:?}", (x, y, z));
                    prop_assert_eq!(hilbert_decode3(k), (x, y, z));
                }
            }
        }
    }

    /// Consecutive Hilbert curve positions are face-adjacent voxels:
    /// walking from key k to k+1 moves exactly one unit step along
    /// exactly one axis, anywhere in the 63-bit key space. This is the
    /// locality property the shard splitter relies on — a contiguous
    /// key span is a connected blob of voxels, so shard surfaces (and
    /// with them the ghost halos) stay small.
    #[test]
    fn hilbert_consecutive_positions_are_face_adjacent(
        k in 0u64..((1u64 << (3 * COORD_BITS)) - 1),
    ) {
        let (ax, ay, az) = hilbert_decode3(k);
        let (bx, by, bz) = hilbert_decode3(k + 1);
        let d = (ax as i64 - bx as i64).abs()
            + (ay as i64 - by as i64).abs()
            + (az as i64 - bz as i64).abs();
        prop_assert_eq!(d, 1, "keys {} and {} are not face-adjacent", k, k + 1);
    }

    /// ShardMap over clamped-grid Hilbert keys: `ranges` on the sorted
    /// key column and `shard_of` on individual keys agree, the ranges
    /// tile the column, and no voxel (key run) straddles two shards.
    #[test]
    fn shard_map_ranges_agree_with_shard_of(
        points in proptest::collection::vec(
            (0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0), 1..200),
        shards in 1usize..=8,
    ) {
        let space = Aabb::new(Vec3::new(0.0, 0.0, 0.0), Vec3::splat(50.0));
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.2).collect();
        let mut keys = cell_keys(&xs, &ys, &zs, &space, 5.0, Curve::Hilbert);
        keys.sort_unstable();
        let map = ShardMap::balanced(&keys, shards);
        let ranges = map.ranges(&keys);
        prop_assert_eq!(ranges.len(), shards);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, keys.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        for (s, range) in ranges.iter().enumerate() {
            for &k in &keys[range.clone()] {
                prop_assert_eq!(map.shard_of(k), s);
            }
        }
        // No key run straddles a shard boundary.
        for w in keys.windows(2) {
            if w[0] == w[1] {
                prop_assert_eq!(map.shard_of(w[0]), map.shard_of(w[1]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The radix argsort is a stable comparison sort of `(key, tie)`
    /// pairs: the same permutation for keys of 1 to 64 bits (one to six
    /// digit passes), offset far from zero or not, random, few distinct
    /// or already ordered, with and without ties (which may repeat), on 1,
    /// 2 and 4 workers and on shuffled part schedules.
    #[test]
    fn radix_argsort_matches_the_comparison_sort(
        n in 0usize..6000,
        bits in 1u32..=64,
        pattern in 0u32..3,
        seed in any::<u64>(),
        offset in any::<u64>(),
        with_ties in any::<bool>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let mask = u64::MAX >> (64 - bits);
        let base = offset & !mask;
        let mut keys: Vec<u64> = (0..n)
            .map(|_| match pattern {
                0 => rng.next_u64() & mask,
                _ => (rng.next_u64() % 5) * (mask / 4),
            })
            .map(|k| base | k)
            .collect();
        if pattern == 2 {
            keys.sort_unstable();
        }
        let ties: Vec<u64> = (0..n).map(|_| rng.next_u64() % 40).collect();
        let ties = with_ties.then_some(ties.as_slice());
        let want = match ties {
            Some(ties) => {
                let pairs: Vec<(u64, u64)> = keys.iter().copied().zip(ties.iter().copied()).collect();
                Permutation::sorting_by_key(&pairs)
            }
            None => Permutation::sorting_by_key(&keys),
        };
        let sort = || RadixArgsort::default().sort(&keys, ties).to_vec();
        for workers in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(workers).build().unwrap();
            prop_assert_eq!(pool.install(sort), want.gather_indices(), "{} workers", workers);
        }
        let shuffled = rayon::with_shuffled_schedule(seed, sort);
        prop_assert_eq!(shuffled, want.gather_indices(), "shuffled schedule");
    }
}
