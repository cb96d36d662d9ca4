//! Baseline kd-tree radius neighborhood search.
//!
//! This is the method the paper *replaces*: BioDynaMo v0.0.9 updates each
//! agent's neighborhood in two steps — "1) building a kd-tree, and
//! 2) searching all the agents' neighbors within a specified radius"
//! (paper §III). Two properties make it the loser of the comparison:
//!
//! * **Serial construction.** Median-split building is a sequential
//!   recursion over the whole point set; the uniform grid builds with one
//!   parallel counting pass. The paper attributes the 4.3× multithreaded
//!   gap between the methods to exactly this (§VI).
//! * **Pointer chasing.** Queries hop through tree nodes with little
//!   spatial regularity, which is hostile to wide SIMT hardware.
//!
//! The implementation is a classic median-split kd-tree over an index
//! arena (no per-node heap allocation), with leaf buckets and iterative
//! radius queries. Query methods optionally report *work counters* (nodes
//! visited, points tested) that feed the analytic CPU timing model in
//! `bdm-device` — the counters are how benchmark figures convert real
//! algorithmic work into modeled Xeon runtimes.

use bdm_math::{Scalar, Vec3};

/// Number of points per leaf bucket. 16 balances tree depth against
/// per-leaf scan cost; BioDynaMo's unibn/kd backends use similar buckets.
const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone)]
enum Node<R> {
    /// Internal split node: points with `coord[axis] < split` are in the
    /// left subtree. `right` is the index of the right child; the left
    /// child is always `self + 1` (pre-order layout).
    Internal { axis: u8, split: R, right: u32 },
    /// Leaf bucket: `indices[start..start+len]` hold the point ids.
    Leaf { start: u32, len: u32 },
}

/// Work counters accumulated during queries; consumed by the CPU timing
/// model (`bdm_device::cpu`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Tree nodes visited (internal + leaf).
    pub nodes_visited: u64,
    /// Candidate points distance-tested.
    pub points_tested: u64,
    /// Points accepted as neighbors.
    pub neighbors_found: u64,
}

impl QueryCounters {
    /// Element-wise accumulation (for merging per-thread counters).
    pub fn merge(&mut self, other: &Self) {
        self.nodes_visited += other.nodes_visited;
        self.points_tested += other.points_tested;
        self.neighbors_found += other.neighbors_found;
    }
}

/// Statistics of a tree build; consumed by the CPU timing model.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Number of points indexed.
    pub points: usize,
    /// Total nodes allocated.
    pub nodes: usize,
    /// Maximum leaf depth.
    pub depth: usize,
}

/// A static kd-tree over a snapshot of agent positions.
///
/// The tree is rebuilt from scratch every simulation step, mirroring
/// BioDynaMo's per-step neighborhood update (§III). It stores its own
/// copy of the coordinates: queries then touch tree-local memory exactly
/// like the original's contiguous point storage.
///
/// ```
/// use bdm_kdtree::KdTree;
/// use bdm_math::Vec3;
///
/// let tree = KdTree::build(&[0.0, 1.0, 5.0], &[0.0; 3], &[0.0; 3]);
/// let mut out = Vec::new();
/// tree.for_each_within(Vec3::new(0.0, 0.0, 0.0), 1.5, Some(0), |id| out.push(id));
/// assert_eq!(out, vec![1]); // point 5.0 is too far; point 0 is excluded
/// ```
#[derive(Debug, Clone)]
pub struct KdTree<R> {
    nodes: Vec<Node<R>>,
    /// Point ids, reordered so each leaf owns a contiguous range.
    indices: Vec<u32>,
    /// Coordinates in leaf order (xyz interleaved per point).
    points: Vec<[R; 3]>,
    stats: BuildStats,
}

impl<R: Scalar> KdTree<R> {
    /// Build from SoA position columns. Serial by design — this *is* the
    /// bottleneck the paper identifies; do not parallelize it.
    pub fn build(xs: &[R], ys: &[R], zs: &[R]) -> Self {
        assert_eq!(xs.len(), ys.len());
        assert_eq!(xs.len(), zs.len());
        let n = xs.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut pts: Vec<[R; 3]> = (0..n).map(|i| [xs[i], ys[i], zs[i]]).collect();
        let mut nodes = Vec::with_capacity(2 * (n / LEAF_SIZE + 1));
        let mut depth = 0;
        if n > 0 {
            Self::build_recursive(&mut pts, &mut order, 0, &mut nodes, 1, &mut depth);
        }
        let stats = BuildStats {
            points: n,
            nodes: nodes.len(),
            depth,
        };
        Self {
            nodes,
            indices: order,
            points: pts,
            stats,
        }
    }

    /// Recursive median-split over `pts[lo..]`/`order[lo..]` (both are
    /// permuted in tandem so leaves own contiguous coordinate ranges).
    fn build_recursive(
        pts: &mut [[R; 3]],
        order: &mut [u32],
        base: u32,
        nodes: &mut Vec<Node<R>>,
        level: usize,
        max_depth: &mut usize,
    ) {
        let n = pts.len();
        if n <= LEAF_SIZE {
            *max_depth = (*max_depth).max(level);
            nodes.push(Node::Leaf {
                start: base,
                len: n as u32,
            });
            return;
        }
        // Split along the axis with the widest spread (classic heuristic;
        // keeps the tree balanced for anisotropic clouds).
        let mut lo = pts[0];
        let mut hi = pts[0];
        for p in pts.iter() {
            for a in 0..3 {
                lo[a] = lo[a].min(p[a]);
                hi[a] = hi[a].max(p[a]);
            }
        }
        let mut axis = 0usize;
        let mut best = hi[0] - lo[0];
        for a in 1..3 {
            let spread = hi[a] - lo[a];
            if spread > best {
                best = spread;
                axis = a;
            }
        }
        let mid = n / 2;
        // Median partition: O(n) selection, permuting order[] in tandem.
        Self::select_nth(pts, order, mid, axis);
        let split = pts[mid][axis];

        let node_idx = nodes.len();
        nodes.push(Node::Internal {
            axis: axis as u8,
            split,
            right: 0, // patched after the left subtree is emitted
        });
        let (pl, pr) = pts.split_at_mut(mid);
        let (ol, or) = order.split_at_mut(mid);
        Self::build_recursive(pl, ol, base, nodes, level + 1, max_depth);
        let right_idx = nodes.len() as u32;
        if let Node::Internal { right, .. } = &mut nodes[node_idx] {
            *right = right_idx;
        }
        Self::build_recursive(pr, or, base + mid as u32, nodes, level + 1, max_depth);
    }

    /// Quickselect on `pts[..][axis]`, permuting `order` identically.
    fn select_nth(pts: &mut [[R; 3]], order: &mut [u32], nth: usize, axis: usize) {
        let mut lo = 0usize;
        let mut hi = pts.len();
        // Hoare-style partition loop; terminates because the range strictly
        // shrinks around the pivot slot every iteration.
        while hi - lo > 1 {
            let pivot = pts[lo + (hi - lo) / 2][axis];
            let mut i = lo;
            let mut j = hi - 1;
            loop {
                while pts[i][axis] < pivot {
                    i += 1;
                }
                while pts[j][axis] > pivot {
                    j -= 1;
                }
                if i >= j {
                    break;
                }
                pts.swap(i, j);
                order.swap(i, j);
                i += 1;
                // `j` may underflow for j == 0 only if the pivot were
                // smaller than every element, impossible by construction.
                j -= 1;
            }
            let cut = j + 1;
            if nth < cut {
                hi = cut;
            } else {
                lo = cut.max(lo + 1);
            }
            if cut == hi || cut == lo {
                // Degenerate partitions (many equal keys) — fall back to a
                // full sort of the remaining slice; rare, keeps worst cases
                // correct rather than fast.
                let sub = &mut pts[lo..hi];
                let subo = &mut order[lo..hi];
                let mut perm: Vec<usize> = (0..sub.len()).collect();
                perm.sort_by(|&a, &b| {
                    sub[a][axis]
                        .partial_cmp(&sub[b][axis])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let sp: Vec<[R; 3]> = perm.iter().map(|&k| sub[k]).collect();
                let so: Vec<u32> = perm.iter().map(|&k| subo[k]).collect();
                sub.copy_from_slice(&sp);
                subo.copy_from_slice(&so);
                return;
            }
        }
    }

    /// Build statistics (fed to the CPU timing model).
    pub fn stats(&self) -> BuildStats {
        self.stats
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Visit every point within `radius` of `q` (excluding `exclude`,
    /// normally the querying agent itself). The visitor receives the point
    /// id. Returns work counters for the timing model.
    pub fn for_each_within<F: FnMut(u32)>(
        &self,
        q: Vec3<R>,
        radius: R,
        exclude: Option<u32>,
        mut visit: F,
    ) -> QueryCounters {
        let mut counters = QueryCounters::default();
        if self.nodes.is_empty() {
            return counters;
        }
        let r2 = radius * radius;
        let qa = [q.x, q.y, q.z];
        // Explicit stack of node indices; depth ≤ ~64 for any realistic n.
        let mut stack: Vec<u32> = Vec::with_capacity(64);
        stack.push(0);
        while let Some(ni) = stack.pop() {
            counters.nodes_visited += 1;
            match &self.nodes[ni as usize] {
                Node::Leaf { start, len } => {
                    let s = *start as usize;
                    let e = s + *len as usize;
                    for k in s..e {
                        let id = self.indices[k];
                        if Some(id) == exclude {
                            continue;
                        }
                        counters.points_tested += 1;
                        let p = self.points[k];
                        let dx = p[0] - qa[0];
                        let dy = p[1] - qa[1];
                        let dz = p[2] - qa[2];
                        if dx * dx + dy * dy + dz * dz <= r2 {
                            counters.neighbors_found += 1;
                            visit(id);
                        }
                    }
                }
                Node::Internal { axis, split, right } => {
                    let a = *axis as usize;
                    let d = qa[a] - *split;
                    let (near, far) = if d < R::ZERO {
                        (ni + 1, *right)
                    } else {
                        (*right, ni + 1)
                    };
                    // Far side only when the slab distance allows it.
                    if d * d <= r2 {
                        stack.push(far);
                    }
                    stack.push(near);
                }
            }
        }
        counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdm_math::SplitMix64;

    fn cloud(n: usize, seed: u64, extent: f64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let xs = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let ys = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        let zs = (0..n).map(|_| rng.uniform(0.0, extent)).collect();
        (xs, ys, zs)
    }

    fn brute_force(
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        q: Vec3<f64>,
        r: f64,
        exclude: Option<u32>,
    ) -> Vec<u32> {
        let r2 = r * r;
        (0..xs.len() as u32)
            .filter(|&i| {
                if Some(i) == exclude {
                    return false;
                }
                let d = Vec3::new(xs[i as usize], ys[i as usize], zs[i as usize]) - q;
                d.norm_squared() <= r2
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t = KdTree::<f64>::build(&[], &[], &[]);
        assert!(t.is_empty());
        let mut out = Vec::new();
        let c = t.for_each_within(Vec3::zero(), 1.0, None, |id| out.push(id));
        assert!(out.is_empty());
        assert_eq!(c.nodes_visited, 0);
    }

    #[test]
    fn single_point() {
        let t = KdTree::build(&[1.0], &[2.0], &[3.0]);
        let mut out = Vec::new();
        t.for_each_within(Vec3::new(1.0, 2.0, 3.0), 0.5, None, |id| out.push(id));
        assert_eq!(out, vec![0]);
        out.clear();
        t.for_each_within(Vec3::new(9.0, 9.0, 9.0), 0.5, None, |id| out.push(id));
        assert!(out.is_empty());
    }

    #[test]
    fn matches_brute_force_random() {
        let (xs, ys, zs) = cloud(600, 7, 20.0);
        let t = KdTree::build(&xs, &ys, &zs);
        let mut rng = SplitMix64::new(11);
        for _ in 0..50 {
            let q = Vec3::new(
                rng.uniform(0.0, 20.0),
                rng.uniform(0.0, 20.0),
                rng.uniform(0.0, 20.0),
            );
            let r = rng.uniform(0.5, 5.0);
            let mut got = Vec::new();
            t.for_each_within(q, r, None, |id| got.push(id));
            got.sort_unstable();
            let expected = brute_force(&xs, &ys, &zs, q, r, None);
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn exclude_self() {
        let (xs, ys, zs) = cloud(100, 3, 5.0);
        let t = KdTree::build(&xs, &ys, &zs);
        let q = Vec3::new(xs[10], ys[10], zs[10]);
        let mut got = Vec::new();
        t.for_each_within(q, 2.0, Some(10), |id| got.push(id));
        assert!(!got.contains(&10));
        got.sort_unstable();
        assert_eq!(got, brute_force(&xs, &ys, &zs, q, 2.0, Some(10)));
    }

    #[test]
    fn duplicate_points_are_handled() {
        // Degenerate input: all points identical. The selection fallback
        // must terminate and the query must return everything.
        let n = 100;
        let xs = vec![1.0; n];
        let ys = vec![2.0; n];
        let zs = vec![3.0; n];
        let t = KdTree::build(&xs, &ys, &zs);
        let mut out = Vec::new();
        t.for_each_within(Vec3::new(1.0, 2.0, 3.0), 0.1, None, |id| out.push(id));
        assert_eq!(out.len(), n);
    }

    #[test]
    fn counters_reflect_work() {
        let (xs, ys, zs) = cloud(2000, 5, 30.0);
        let t = KdTree::build(&xs, &ys, &zs);
        let mut out = Vec::new();
        let c = t.for_each_within(Vec3::splat(15.0), 3.0, None, |id| out.push(id));
        assert!(c.nodes_visited > 0);
        assert!(c.points_tested >= out.len() as u64);
        assert_eq!(c.neighbors_found, out.len() as u64);
        // Pruning must be effective: a small-radius query tests far fewer
        // points than the whole cloud.
        assert!(c.points_tested < 2000);
    }

    #[test]
    fn build_stats_sane() {
        let (xs, ys, zs) = cloud(1000, 9, 10.0);
        let t = KdTree::build(&xs, &ys, &zs);
        let s = t.stats();
        assert_eq!(s.points, 1000);
        assert!(s.nodes >= 1000 / LEAF_SIZE);
        assert!(s.depth >= 6, "depth {} too shallow", s.depth); // ≈ log2(1000/16) + 1
        assert!(s.depth <= 40, "depth {} too deep", s.depth);
    }

    #[test]
    fn query_on_boundary_radius_inclusive() {
        let t = KdTree::build(&[0.0, 3.0], &[0.0, 0.0], &[0.0, 0.0]);
        let mut out = Vec::new();
        t.for_each_within(Vec3::zero(), 3.0, None, |id| out.push(id));
        out.sort_unstable();
        assert_eq!(out, vec![0, 1]); // distance exactly 3.0 is included
    }

    #[test]
    fn collinear_points_build_and_query() {
        // Pathological input: all points on a line (zero spread on two
        // axes) — the widest-axis heuristic must still terminate and
        // queries must stay exact.
        let n = 500;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.1).collect();
        let ys = vec![1.0; n];
        let zs = vec![-2.0; n];
        let t = KdTree::build(&xs, &ys, &zs);
        let mut out = Vec::new();
        t.for_each_within(Vec3::new(25.0, 1.0, -2.0), 0.55, None, |id| out.push(id));
        out.sort_unstable();
        // Points at x ∈ [24.45, 25.55]: indices 245..=255.
        assert_eq!(out, (245u32..=255).collect::<Vec<_>>());
    }

    #[test]
    fn two_clusters_prune_each_other() {
        // Two distant blobs: a query in one must not test the other.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut zs = Vec::new();
        let mut rng = SplitMix64::new(44);
        for c in [0.0, 1000.0] {
            for _ in 0..300 {
                xs.push(c + rng.uniform(0.0, 5.0));
                ys.push(rng.uniform(0.0, 5.0));
                zs.push(rng.uniform(0.0, 5.0));
            }
        }
        let t = KdTree::build(&xs, &ys, &zs);
        let mut out = Vec::new();
        let c = t.for_each_within(Vec3::new(2.5, 2.5, 2.5), 2.0, None, |id| out.push(id));
        assert!(c.points_tested <= 300, "tested {} points", c.points_tested);
        assert!(out.iter().all(|&i| i < 300));
    }

    #[test]
    fn f32_instantiation_matches_f64_on_coarse_data() {
        let (xs, ys, zs) = cloud(300, 13, 10.0);
        let xs32: Vec<f32> = xs.iter().map(|&v| v as f32).collect();
        let ys32: Vec<f32> = ys.iter().map(|&v| v as f32).collect();
        let zs32: Vec<f32> = zs.iter().map(|&v| v as f32).collect();
        let t64 = KdTree::build(&xs, &ys, &zs);
        let t32 = KdTree::build(&xs32, &ys32, &zs32);
        let q = Vec3::new(5.0f64, 5.0, 5.0);
        let mut o64 = Vec::new();
        let mut o32 = Vec::new();
        t64.for_each_within(q, 2.5, None, |id| o64.push(id));
        t32.for_each_within(q.cast::<f32>(), 2.5, None, |id| o32.push(id));
        o64.sort_unstable();
        o32.sort_unstable();
        // With random (non-pathological) data the boundary set is empty,
        // so the neighbor sets agree exactly.
        assert_eq!(o64, o32);
    }
}
