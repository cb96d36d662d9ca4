//! Uniform-grid neighborhood environment (paper §IV-A, Figs. 4 and 5).
//!
//! "The uniform grid method imposes a regularly-spaced 3D grid within the
//! simulation space. Each voxel of the grid contains only the agents that
//! are confined within its subspace. Finding the neighboring agents of a
//! particular agent can be done by only taking into account the voxels
//! surrounding that particular agent" — 27 voxels in 3-D.
//!
//! Two storage layouts share one voxel geometry ([`GridGeometry`]):
//!
//! * [`UniformGrid`] — the paper-faithful linked list mirroring the UML of
//!   Fig. 5: [`GridBox`] (the paper's `Box`) stores `start` — the last
//!   agent added to the voxel — and `length`; `successors_` links each
//!   agent to the one added before it. Walking
//!   `start → successors_[start] → …` enumerates a voxel's agents, one
//!   dependent random access per step.
//! * [`CsrGrid`] — the post-paper CSR counting-sort layout: agent ids of
//!   each voxel stored contiguously, indexed by exclusive prefix sums, so
//!   queries stream 27 slices instead of chasing 27 lists. See the
//!   `csr` module docs for the layout and its determinism guarantee.
//!
//! The grid is rebuilt every timestep "to take into account the addition,
//! deletion, and movement of agents". Construction comes in two flavors
//! for either layout: serial (the apples-to-apples comparison against the
//! serial kd-tree build) and rayon-parallel — for [`UniformGrid`] the
//! lock-free atomic head-insertion the paper credits for the 4.3×
//! multithreaded advantage over the kd-tree (followed by a pass that
//! puts each voxel's list back into the serial build's order), for
//! [`CsrGrid`] a chunked counting sort that is deterministic by
//! construction. Either parallel build equals its serial one bit for
//! bit at every worker count.

mod csr;
mod geometry;

pub use csr::{CsrBuildScratch, CsrGrid};
pub use geometry::{GridGeometry, NeighborBoxes};

/// The worker pool under the parallel builds (the vendored fork-join
/// `rayon`), re-exported for the crates that fork on the same pool
/// without a dependency of their own: `bdm-gpu`'s engine runs the blocks
/// of a launch on it.
pub use rayon;

use bdm_math::{Aabb, Scalar, Vec3};
use bdm_soa::AgentId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Voxels per task of the parallel build's conversion pass.
const CONVERT_CHUNK: usize = 4 * 1024;

/// One voxel of the grid — the paper's `Box` class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridBox {
    /// Head of the voxel's agent linked list ([`AgentId::NULL`] when empty).
    pub start: AgentId,
    /// Number of agents in the voxel.
    pub length: u32,
}

impl GridBox {
    /// An empty voxel.
    pub const EMPTY: GridBox = GridBox {
        start: AgentId::NULL,
        length: 0,
    };
}

/// Work counters for a neighborhood query; consumed by the CPU/GPU timing
/// models.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Voxels scanned (≤ 27 per query).
    pub boxes_scanned: u64,
    /// Candidate agents distance-tested.
    pub points_tested: u64,
    /// Agents accepted as neighbors.
    pub neighbors_found: u64,
}

impl QueryCounters {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Self) {
        self.boxes_scanned += other.boxes_scanned;
        self.points_tested += other.points_tested;
        self.neighbors_found += other.neighbors_found;
    }
}

/// The uniform grid — the paper's `Grid` class (Fig. 5), linked-list
/// layout.
///
/// ```
/// use bdm_grid::UniformGrid;
/// use bdm_math::{Aabb, Vec3};
/// use bdm_soa::AgentId;
///
/// // Three agents on a line, voxel edge 1.0.
/// let xs = [0.2, 0.8, 3.5];
/// let ys = [0.5, 0.5, 0.5];
/// let zs = [0.5, 0.5, 0.5];
/// let space = Aabb::new(Vec3::zero(), Vec3::splat(4.0));
/// let grid = UniformGrid::build_serial(&xs, &ys, &zs, space, 1.0);
///
/// let mut hits = Vec::new();
/// grid.radius_search(&xs, &ys, &zs, Vec3::new(0.5, 0.5, 0.5), 1.0, None, &mut hits);
/// let mut ids: Vec<u32> = hits.iter().map(|a| a.0).collect();
/// ids.sort();
/// assert_eq!(ids, vec![0, 1]); // agent 2 is out of range
/// ```
#[derive(Debug, Clone)]
pub struct UniformGrid<R> {
    /// Voxel partitioning shared with the CSR layout.
    geom: GridGeometry<R>,
    /// `boxes_` in the paper: one [`GridBox`] per voxel, x-major layout.
    boxes: Vec<GridBox>,
    /// `successors_` in the paper: per-agent link to the previous head.
    successors: Vec<AgentId>,
    /// Number of agents indexed.
    num_agents: usize,
}

impl<R: Scalar> UniformGrid<R> {
    /// Serial construction (one pass of head-insertions).
    pub fn build_serial(xs: &[R], ys: &[R], zs: &[R], space: Aabb<R>, box_length: R) -> Self {
        let geom = GridGeometry::new(space, box_length);
        let num_boxes = geom.num_boxes();
        let mut grid = Self {
            geom,
            boxes: vec![GridBox::EMPTY; num_boxes],
            successors: vec![AgentId::NULL; xs.len()],
            num_agents: xs.len(),
        };
        for i in 0..xs.len() {
            let b = grid.geom.box_index(Vec3::new(xs[i], ys[i], zs[i]));
            let id = AgentId::from_index(i);
            grid.successors[i] = grid.boxes[b].start;
            grid.boxes[b].start = id;
            grid.boxes[b].length += 1;
        }
        grid
    }

    /// Parallel construction: lock-free atomic head-insertion, then a
    /// conversion pass back to plain boxes. This is the "parallel
    /// construction of the uniform grid as opposed to the serial
    /// construction of the kd-tree" (paper §VI).
    ///
    /// The insertions race, so the order they leave a voxel's list in
    /// depends on the schedule. The conversion pass therefore relinks
    /// every list that is not in descending id order — the order
    /// [`Self::build_serial`]'s ascending head-insertions produce — and
    /// the result is the serial build's grid bit for bit, whatever the
    /// worker count: force accumulation over a voxel sums in one order.
    pub fn build_parallel(xs: &[R], ys: &[R], zs: &[R], space: Aabb<R>, box_length: R) -> Self {
        let geom = GridGeometry::new(space, box_length);
        let num_boxes = geom.num_boxes();
        let n = xs.len();

        let heads: Vec<AtomicU32> = (0..num_boxes)
            .map(|_| AtomicU32::new(AgentId::NULL.0))
            .collect();
        let successors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(AgentId::NULL.0)).collect();

        (0..n).into_par_iter().for_each(|i| {
            let b = geom.box_index(Vec3::new(xs[i], ys[i], zs[i]));
            // Lock-free push-front: swap ourselves in as the head, then
            // publish the old head as our successor. The head swap is
            // AcqRel so readers of `start` see the successor write (the
            // fork-join barrier before the conversion below publishes
            // everything anyway, but keep the intent explicit).
            let old = heads[b].swap(i as u32, Ordering::AcqRel);
            successors[i].store(old, Ordering::Release);
        });

        // Conversion (parallel over voxel blocks): plain boxes, lists
        // relinked into descending id order where the race left another.
        let mut boxes = vec![GridBox::EMPTY; num_boxes];
        boxes
            .par_chunks_mut(CONVERT_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| {
                let mut ids: Vec<u32> = Vec::new();
                for (k, slot) in chunk.iter_mut().enumerate() {
                    ids.clear();
                    let mut id = heads[c * CONVERT_CHUNK + k].load(Ordering::Acquire);
                    while id != AgentId::NULL.0 {
                        ids.push(id);
                        id = successors[id as usize].load(Ordering::Acquire);
                    }
                    if ids.is_empty() {
                        continue;
                    }
                    if !ids.is_sorted_by(|a, b| a > b) {
                        ids.sort_unstable_by(|a, b| b.cmp(a));
                        // Each agent is in exactly one voxel, so no two
                        // tasks touch the same successor slot; Relaxed,
                        // the join at the end of the pass publishes them.
                        for w in ids.windows(2) {
                            successors[w[0] as usize].store(w[1], Ordering::Relaxed);
                        }
                        let last = ids[ids.len() - 1];
                        successors[last as usize].store(AgentId::NULL.0, Ordering::Relaxed);
                    }
                    *slot = GridBox {
                        start: AgentId::from_raw(ids[0]),
                        length: ids.len() as u32,
                    };
                }
            });
        let successors: Vec<AgentId> = successors
            .into_iter()
            .map(|a| AgentId::from_raw(a.into_inner()))
            .collect();

        Self {
            geom,
            boxes,
            successors,
            num_agents: n,
        }
    }

    /// The shared voxel geometry.
    pub fn geometry(&self) -> &GridGeometry<R> {
        &self.geom
    }

    /// Voxel edge length.
    pub fn box_length(&self) -> R {
        self.geom.box_length()
    }

    /// Voxels per axis.
    pub fn dims(&self) -> [u32; 3] {
        self.geom.dims()
    }

    /// Total number of voxels.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Number of indexed agents.
    pub fn num_agents(&self) -> usize {
        self.num_agents
    }

    /// The covered space.
    pub fn space(&self) -> &Aabb<R> {
        self.geom.space()
    }

    /// All voxels (the GPU environment uploads these as flat buffers).
    pub fn boxes(&self) -> &[GridBox] {
        &self.boxes
    }

    /// The successor links (uploaded alongside [`Self::boxes`]).
    pub fn successors(&self) -> &[AgentId] {
        &self.successors
    }

    /// Integer voxel coordinates of a position (see
    /// [`GridGeometry::box_coords`] for the clamp semantics).
    #[inline]
    pub fn box_coords(&self, p: Vec3<R>) -> [u32; 3] {
        self.geom.box_coords(p)
    }

    /// Flat voxel index of a position (x-major).
    #[inline]
    pub fn box_index(&self, p: Vec3<R>) -> usize {
        self.geom.box_index(p)
    }

    /// Flat index of voxel coordinates.
    #[inline]
    pub fn flat_index(&self, cx: u32, cy: u32, cz: u32) -> usize {
        self.geom.flat_index(cx, cy, cz)
    }

    /// Walk the agents of one voxel (via the successor list).
    pub fn for_each_in_box<F: FnMut(AgentId)>(&self, flat: usize, mut visit: F) {
        let mut cur = self.boxes[flat].start;
        while !cur.is_null() {
            visit(cur);
            cur = self.successors[cur.index()];
        }
    }

    /// Enumerate the flat indices of the ≤ 27 voxels around `p` (clamped
    /// at the grid boundary, deduplicated).
    pub fn neighbor_boxes(&self, p: Vec3<R>) -> NeighborBoxes {
        self.geom.neighbor_boxes(p)
    }

    /// Visit every agent within `radius` of `q`, excluding `exclude`.
    ///
    /// Correctness requires `radius ≤ box_length` (asserted in debug
    /// builds): the 27-voxel stencil only covers one voxel of margin.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_within<F: FnMut(AgentId)>(
        &self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        q: Vec3<R>,
        radius: R,
        exclude: Option<AgentId>,
        mut visit: F,
    ) -> QueryCounters {
        debug_assert!(
            radius <= self.geom.box_length(),
            "query radius exceeds the voxel edge; the 27-box stencil would miss neighbors"
        );
        let mut counters = QueryCounters::default();
        let r2 = radius * radius;
        for flat in self.geom.neighbor_boxes(q) {
            counters.boxes_scanned += 1;
            let mut cur = self.boxes[flat].start;
            while !cur.is_null() {
                if Some(cur) != exclude {
                    counters.points_tested += 1;
                    let i = cur.index();
                    let d = Vec3::new(xs[i], ys[i], zs[i]) - q;
                    if d.norm_squared() <= r2 {
                        counters.neighbors_found += 1;
                        visit(cur);
                    }
                }
                cur = self.successors[cur.index()];
            }
        }
        counters
    }

    /// Collect neighbor ids into `out` (cleared first).
    #[allow(clippy::too_many_arguments)]
    pub fn radius_search(
        &self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        q: Vec3<R>,
        radius: R,
        exclude: Option<AgentId>,
        out: &mut Vec<AgentId>,
    ) -> QueryCounters {
        out.clear();
        self.for_each_within(xs, ys, zs, q, radius, exclude, |id| out.push(id))
    }

    /// Histogram of agents per voxel — used by tests and by the density
    /// benchmark to report the realized neighborhood density.
    pub fn occupancy_histogram(&self) -> Vec<(u32, usize)> {
        let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
        for b in &self.boxes {
            *counts.entry(b.length).or_default() += 1;
        }
        counts.into_iter().collect()
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

    fn space(extent: f64) -> Aabb<f64> {
        Aabb::new(Vec3::zero(), Vec3::splat(extent))
    }

    #[test]
    fn layout_counts_voxels() {
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 2.0);
        assert_eq!(g.dims(), [5, 5, 5]);
        assert_eq!(g.num_boxes(), 125);
        // Non-divisible extents round up.
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 3.0);
        assert_eq!(g.dims(), [4, 4, 4]);
    }

    #[test]
    fn box_membership_lengths_sum_to_n() {
        let (xs, ys, zs) = cloud(500, 1, 20.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(20.0), 2.5);
        let total: u32 = g.boxes().iter().map(|b| b.length).sum();
        assert_eq!(total as usize, 500);
    }

    #[test]
    fn linked_list_walk_matches_length() {
        let (xs, ys, zs) = cloud(300, 2, 10.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.0);
        for flat in 0..g.num_boxes() {
            let mut walked = 0;
            g.for_each_in_box(flat, |_| walked += 1);
            assert_eq!(walked, g.boxes()[flat].length);
        }
    }

    #[test]
    fn every_agent_is_in_its_own_box() {
        let (xs, ys, zs) = cloud(200, 3, 10.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(10.0), 1.5);
        for i in 0..200 {
            let flat = g.box_index(Vec3::new(xs[i], ys[i], zs[i]));
            let mut found = false;
            g.for_each_in_box(flat, |id| found |= id.index() == i);
            assert!(found, "agent {i} missing from its voxel");
        }
    }

    #[test]
    fn parallel_build_is_the_serial_build_at_every_worker_count() {
        // Dense: ~40 agents per voxel, so racing insertions interleave.
        let (xs, ys, zs) = cloud(20_000, 4, 24.0);
        let s = UniformGrid::build_serial(&xs, &ys, &zs, space(24.0), 3.0);
        for workers in [1, 2, 4] {
            let p = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .expect("pool")
                .install(|| UniformGrid::build_parallel(&xs, &ys, &zs, space(24.0), 3.0));
            assert_eq!(s.boxes(), p.boxes(), "{workers} workers");
            assert_eq!(s.successors(), p.successors(), "{workers} workers");
        }
        // Blocks of insertions in a shuffled order: lists that are
        // certainly not descending before the conversion pass.
        let p = rayon::with_shuffled_schedule(9, || {
            UniformGrid::build_parallel(&xs, &ys, &zs, space(24.0), 3.0)
        });
        assert_eq!(s.boxes(), p.boxes());
        assert_eq!(s.successors(), p.successors());
    }

    #[test]
    fn radius_search_matches_brute_force() {
        let (xs, ys, zs) = cloud(600, 5, 15.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(15.0), 2.0);
        let mut rng = SplitMix64::new(6);
        for _ in 0..40 {
            let q = Vec3::new(
                rng.uniform(0.0, 15.0),
                rng.uniform(0.0, 15.0),
                rng.uniform(0.0, 15.0),
            );
            let r = rng.uniform(0.2, 2.0);
            let mut got = Vec::new();
            g.radius_search(&xs, &ys, &zs, q, r, None, &mut got);
            let mut got: Vec<u32> = got.iter().map(|a| a.0).collect();
            got.sort_unstable();
            let r2 = r * r;
            let expected: Vec<u32> = (0..600u32)
                .filter(|&i| {
                    let d = Vec3::new(xs[i as usize], ys[i as usize], zs[i as usize]) - q;
                    d.norm_squared() <= r2
                })
                .collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn exclude_is_respected() {
        let (xs, ys, zs) = cloud(100, 8, 5.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(5.0), 2.0);
        let q = Vec3::new(xs[7], ys[7], zs[7]);
        let mut got = Vec::new();
        g.radius_search(&xs, &ys, &zs, q, 2.0, Some(AgentId(7)), &mut got);
        assert!(!got.contains(&AgentId(7)));
    }

    #[test]
    fn neighbor_boxes_interior_is_27() {
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 1.0);
        let nb = g.neighbor_boxes(Vec3::splat(5.5));
        assert_eq!(nb.count(), 27);
    }

    #[test]
    fn neighbor_boxes_corner_is_8() {
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 1.0);
        let nb = g.neighbor_boxes(Vec3::splat(0.1));
        assert_eq!(nb.count(), 8);
    }

    #[test]
    fn neighbor_boxes_face_is_18() {
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 1.0);
        // Interior in x and y, on the low z face.
        let nb = g.neighbor_boxes(Vec3::new(5.5, 5.5, 0.1));
        assert_eq!(nb.count(), 18);
    }

    #[test]
    fn single_voxel_grid_queries_work() {
        let xs = vec![0.5, 0.6];
        let ys = vec![0.5, 0.6];
        let zs = vec![0.5, 0.6];
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(1.0), 2.0);
        assert_eq!(g.num_boxes(), 1);
        let mut got = Vec::new();
        g.radius_search(&xs, &ys, &zs, Vec3::splat(0.5), 1.0, None, &mut got);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn counters_reflect_work() {
        let (xs, ys, zs) = cloud(500, 10, 10.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.0);
        let mut out = Vec::new();
        let c = g.radius_search(&xs, &ys, &zs, Vec3::splat(5.0), 2.0, None, &mut out);
        assert_eq!(c.boxes_scanned, 27);
        assert_eq!(c.neighbors_found as usize, out.len());
        assert!(c.points_tested >= c.neighbors_found);
        // Only a fraction of the cloud lives in the 27-voxel stencil.
        assert!(c.points_tested < 500);
    }

    #[test]
    fn agents_outside_space_are_clamped_into_grid() {
        let xs = vec![-5.0, 15.0];
        let ys = vec![0.5, 9.5];
        let zs = vec![0.5, 9.5];
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.0);
        let total: u32 = g.boxes().iter().map(|b| b.length).sum();
        assert_eq!(total, 2); // nothing lost
    }

    #[test]
    fn neighbor_boxes_exact_size_iterator() {
        let g = UniformGrid::build_serial(&[], &[], &[], space(10.0), 1.0);
        let mut nb = g.neighbor_boxes(Vec3::splat(5.5));
        assert_eq!(nb.len(), 27);
        nb.next();
        nb.next();
        assert_eq!(nb.len(), 25);
        assert_eq!(nb.count(), 25);
    }

    #[test]
    fn degenerate_flat_cloud() {
        // All agents in one plane: grid must still be correct when one
        // dimension collapses to a single voxel.
        let n = 200;
        let mut rng = SplitMix64::new(31);
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 20.0)).collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 20.0)).collect();
        let zs = vec![3.0; n];
        let flat_space = Aabb::new(Vec3::new(0.0, 0.0, 3.0), Vec3::new(20.0, 20.0, 3.0));
        let g = UniformGrid::build_serial(&xs, &ys, &zs, flat_space, 2.0);
        assert_eq!(g.dims()[2], 1);
        let q = Vec3::new(xs[0], ys[0], 3.0);
        let mut got = Vec::new();
        g.radius_search(&xs, &ys, &zs, q, 2.0, Some(AgentId(0)), &mut got);
        let r2 = 4.0;
        let expected: Vec<u32> = (1..n as u32)
            .filter(|&i| {
                let d = Vec3::new(xs[i as usize], ys[i as usize], zs[i as usize]) - q;
                d.norm_squared() <= r2
            })
            .collect();
        let mut ids: Vec<u32> = got.iter().map(|a| a.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, expected);
    }

    #[test]
    fn occupancy_histogram_sums() {
        let (xs, ys, zs) = cloud(200, 12, 8.0);
        let g = UniformGrid::build_serial(&xs, &ys, &zs, space(8.0), 2.0);
        let hist = g.occupancy_histogram();
        let boxes: usize = hist.iter().map(|&(_, c)| c).sum();
        let agents: usize = hist.iter().map(|&(len, c)| len as usize * c).sum();
        assert_eq!(boxes, g.num_boxes());
        assert_eq!(agents, 200);
    }
}
