//! Property-based tests: the kd-tree radius query must agree with brute
//! force on arbitrary point clouds, radii, and query points.

use bdm_kdtree::KdTree;
use bdm_math::Vec3;
use proptest::prelude::*;

fn brute(xs: &[f64], ys: &[f64], zs: &[f64], q: Vec3<f64>, r: f64) -> Vec<u32> {
    let r2 = r * r;
    (0..xs.len() as u32)
        .filter(|&i| {
            let d = Vec3::new(xs[i as usize], ys[i as usize], zs[i as usize]) - q;
            d.norm_squared() <= r2
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact agreement with brute force, including clustered/duplicated
    /// coordinates (values snap to a 0.25 lattice to force ties).
    #[test]
    fn agrees_with_brute_force(
        points in proptest::collection::vec((0i32..64, 0i32..64, 0i32..64), 0..400),
        q in (0i32..64, 0i32..64, 0i32..64),
        r_quarter in 1i32..24,
    ) {
        let xs: Vec<f64> = points.iter().map(|p| p.0 as f64 * 0.25).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1 as f64 * 0.25).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.2 as f64 * 0.25).collect();
        let tree = KdTree::build(&xs, &ys, &zs);
        let qv = Vec3::new(q.0 as f64 * 0.25, q.1 as f64 * 0.25, q.2 as f64 * 0.25);
        let r = r_quarter as f64 * 0.25;
        let mut got = Vec::new();
        tree.for_each_within(qv, r, None, |id| got.push(id));
        got.sort_unstable();
        prop_assert_eq!(got, brute(&xs, &ys, &zs, qv, r));
    }

    /// Neighbor counts reported by counters equal the result length.
    #[test]
    fn counters_consistent(
        points in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0, -50.0f64..50.0), 1..200),
        r in 0.1f64..20.0,
    ) {
        let xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.2).collect();
        let tree = KdTree::build(&xs, &ys, &zs);
        let q = Vec3::new(xs[0], ys[0], zs[0]);
        let mut out = Vec::new();
        let c = tree.for_each_within(q, r, Some(0), |id| out.push(id));
        prop_assert_eq!(c.neighbors_found as usize, out.len());
        prop_assert!(c.points_tested >= c.neighbors_found);
        prop_assert!(!out.contains(&0));
    }
}
