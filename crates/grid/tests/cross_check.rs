//! Cross-validation: the uniform grid and the kd-tree are different
//! implementations of the same radius-query contract, so on identical
//! inputs they must return identical neighbor sets (paper §IV-A replaces
//! one with the other *without changing simulation results*).

use bdm_grid::{CsrGrid, UniformGrid};
use bdm_kdtree::KdTree;
use bdm_math::{Aabb, SplitMix64, Vec3};
use bdm_soa::AgentId;
use proptest::prelude::*;

fn grid_ids(
    g: &UniformGrid<f64>,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    q: Vec3<f64>,
    r: f64,
    exclude: Option<AgentId>,
) -> Vec<u32> {
    let mut ids = Vec::new();
    g.for_each_within(xs, ys, zs, q, r, exclude, |a| ids.push(a.0));
    ids.sort_unstable();
    ids
}

#[test]
fn grid_equals_kdtree_on_random_clouds() {
    let mut rng = SplitMix64::new(42);
    for trial in 0..10 {
        let n = 200 + trial * 100;
        let extent = 12.0 + trial as f64;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let radius = 2.0;
        let grid = UniformGrid::build_serial(&xs, &ys, &zs, space, radius);
        let tree = KdTree::build(&xs, &ys, &zs);
        for i in (0..n).step_by(17) {
            let q = Vec3::new(xs[i], ys[i], zs[i]);
            let from_grid = grid_ids(&grid, &xs, &ys, &zs, q, radius, Some(AgentId(i as u32)));
            let mut from_tree = Vec::new();
            tree.for_each_within(q, radius, Some(i as u32), |id| from_tree.push(id));
            from_tree.sort_unstable();
            assert_eq!(from_grid, from_tree, "trial {trial} query {i}");
        }
    }
}

#[test]
fn parallel_grid_equals_kdtree() {
    let mut rng = SplitMix64::new(77);
    let n = 800;
    let extent = 20.0;
    let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
    let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
    let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
    let radius = 2.5;
    let grid = UniformGrid::build_parallel(&xs, &ys, &zs, space, radius);
    let tree = KdTree::build(&xs, &ys, &zs);
    for i in (0..n).step_by(31) {
        let q = Vec3::new(xs[i], ys[i], zs[i]);
        let from_grid = grid_ids(&grid, &xs, &ys, &zs, q, radius, Some(AgentId(i as u32)));
        let mut from_tree = Vec::new();
        tree.for_each_within(q, radius, Some(i as u32), |id| from_tree.push(id));
        from_tree.sort_unstable();
        assert_eq!(from_grid, from_tree, "query {i}");
    }
}

fn csr_ids(
    g: &CsrGrid<f64>,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
    q: Vec3<f64>,
    r: f64,
    exclude: Option<AgentId>,
) -> Vec<u32> {
    let mut ids = Vec::new();
    g.for_each_within(xs, ys, zs, q, r, exclude, |a| ids.push(a.0));
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grid radius query ≡ brute force on arbitrary lattice-snapped clouds
    /// (ties included), for any radius up to the voxel edge — and the CSR
    /// layout returns the identical set.
    #[test]
    fn grid_equals_brute_force(
        points in proptest::collection::vec((0i32..40, 0i32..40, 0i32..40), 1..300),
        qi in (0i32..40, 0i32..40, 0i32..40),
        r_q in 1i32..8,
    ) {
        let xs: Vec<f64> = points.iter().map(|p| p.0 as f64 * 0.5).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.1 as f64 * 0.5).collect();
        let zs: Vec<f64> = points.iter().map(|p| p.2 as f64 * 0.5).collect();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(20.0));
        let box_len = 4.0;
        let r = r_q as f64 * 0.5; // ≤ 4.0 = box_len
        let grid = UniformGrid::build_serial(&xs, &ys, &zs, space, box_len);
        let csr = CsrGrid::build_parallel(&xs, &ys, &zs, space, box_len);
        let q = Vec3::new(qi.0 as f64 * 0.5, qi.1 as f64 * 0.5, qi.2 as f64 * 0.5);
        let got = grid_ids(&grid, &xs, &ys, &zs, q, r, None);
        let got_csr = csr_ids(&csr, &xs, &ys, &zs, q, r, None);
        let r2 = r * r;
        let expected: Vec<u32> = (0..xs.len() as u32)
            .filter(|&i| {
                let d = Vec3::new(xs[i as usize], ys[i as usize], zs[i as usize]) - q;
                d.norm_squared() <= r2
            })
            .collect();
        prop_assert_eq!(got, expected.clone());
        prop_assert_eq!(got_csr, expected);
    }

    /// The three layouts answer arbitrary (non-lattice) clouds with the
    /// same neighbor sets.
    #[test]
    fn csr_equals_linked_list_and_kdtree(
        seed in 0u64..1000,
        n in 50usize..400,
        extent_q in 8u32..24,
    ) {
        let extent = extent_q as f64;
        let mut rng = SplitMix64::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let space = Aabb::new(Vec3::zero(), Vec3::splat(extent));
        let radius = 2.0;
        let linked = UniformGrid::build_serial(&xs, &ys, &zs, space, radius);
        let csr = CsrGrid::build_parallel(&xs, &ys, &zs, space, radius);
        let tree = KdTree::build(&xs, &ys, &zs);
        for i in (0..n).step_by(13) {
            let q = Vec3::new(xs[i], ys[i], zs[i]);
            let ex = Some(AgentId(i as u32));
            let from_linked = grid_ids(&linked, &xs, &ys, &zs, q, radius, ex);
            let from_csr = csr_ids(&csr, &xs, &ys, &zs, q, radius, ex);
            let mut from_tree = Vec::new();
            tree.for_each_within(q, radius, Some(i as u32), |id| from_tree.push(id));
            from_tree.sort_unstable();
            prop_assert_eq!(&from_csr, &from_linked, "csr vs linked, query {}", i);
            prop_assert_eq!(&from_csr, &from_tree, "csr vs kd-tree, query {}", i);
        }
    }
}
