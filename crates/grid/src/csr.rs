//! CSR (compressed-sparse-row) counting-sort grid layout — the
//! post-paper optimization that removes pointer-chasing from the
//! neighbor hot path.
//!
//! The paper's Fig. 5 structure stores voxel membership as a linked list
//! (`start → successors[start] → …`), so every candidate visit is a
//! dependent random access. Follow-up BioDynaMo work (Breitwieser et al.
//! 2023) showed that contiguous sorted agent storage — not the query
//! algorithm — unlocks the next order of magnitude. [`CsrGrid`] stores
//! the same voxel→agents relation the way a sparse matrix stores rows:
//!
//! * `cell_starts[v] .. cell_starts[v + 1]` — the half-open range of
//!   voxel `v`'s agents, with `cell_starts.len() == num_boxes + 1`;
//! * `cell_agents` — one contiguous `Vec<AgentId>` holding every voxel's
//!   agents back to back, ascending by agent id within a voxel.
//!
//! A 27-voxel query iterates 27 contiguous slices: streaming loads on
//! the CPU, coalesced loads on the (simulated) GPU. The build is a
//! two-pass counting sort — count per voxel, exclusive prefix sum,
//! scatter — which is *stable*, so the parallel build produces output
//! bitwise identical to the serial build with no fix-up (the
//! linked-list `build_parallel` gets there by relinking the lists its
//! racing insertions leave out of order).
//!
//! # Incremental maintenance
//!
//! The grid remembers the geometry signature of its last full build. A
//! rebuild first recomputes every agent's clamped voxel key — the cheap
//! pass — and, when the population and the geometry are unchanged and
//! every slot of every voxel still holds an agent of that voxel, *skips*
//! the counting sort and scatter entirely. Each agent sits in exactly one
//! slot, so that is "no agent changed voxel", and the stored CSR arrays
//! are a pure function of the keys: skipping is bitwise-invisible (pinned
//! by tests), and the check needs no second copy of the keys. This
//! mirrors the GPU pipeline's resident grid skip and turns the common
//! no-crossing timestep into a single read-only sweep.

use crate::{GridGeometry, NeighborBoxes, QueryCounters};
use bdm_math::{Aabb, Scalar, Vec3};
use bdm_soa::AgentId;
use rayon::prelude::*;
use std::ops::Range;

/// Agents-per-chunk granule of the parallel build. The chunk count is a
/// function of `n` alone — never of the worker-thread count — so the
/// scatter offsets, and therefore the output, are identical no matter
/// how the chunks are scheduled.
const BUILD_CHUNK: usize = 32 * 1024;

/// Upper bound on parallel-build chunks; bounds the per-chunk histogram
/// memory at `MAX_CHUNKS × num_boxes × 4` bytes.
const MAX_CHUNKS: usize = 8;

/// Raw-pointer wrapper so disjoint-by-construction parallel scatters can
/// write through a shared base pointer.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Identity of the geometry a key set was computed against. Keys are a
/// pure function of (position, geometry); equal signature + equal keys
/// ⇒ the stored CSR arrays are still exact. Scalar fields are compared
/// by bit pattern, so an FP32 grid and an FP64 grid of the "same"
/// space can never falsely alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BuildSig {
    dims: [u32; 3],
    min_bits: [u64; 3],
    box_len_bits: u64,
}

impl BuildSig {
    fn of<R: Scalar>(geom: &GridGeometry<R>) -> Self {
        let mn = geom.space().min;
        Self {
            dims: geom.dims(),
            min_bits: [
                mn.x.to_f64().to_bits(),
                mn.y.to_f64().to_bits(),
                mn.z.to_f64().to_bits(),
            ],
            box_len_bits: geom.box_length().to_f64().to_bits(),
        }
    }
}

/// Reusable working memory for CSR builds: the per-agent voxel-id array
/// and the per-chunk histograms. Hold one of these across timesteps and
/// every [`CsrGrid::rebuild_serial`] / [`CsrGrid::rebuild_parallel`]
/// after the first is allocation-free in steady state.
#[derive(Debug, Default)]
pub struct CsrBuildScratch {
    /// Voxel id of each agent (filled by pass 1, consumed by pass 2).
    voxel_of: Vec<u32>,
    /// Per-chunk voxel histograms, rewritten in place into scatter
    /// cursors by the prefix scan. The serial build uses `hists[0]` as
    /// its single cursor array.
    hists: Vec<Vec<u32>>,
}

/// The uniform grid in CSR counting-sort layout.
///
/// ```
/// use bdm_grid::CsrGrid;
/// use bdm_math::{Aabb, Vec3};
///
/// let xs = [0.2, 0.8, 3.5];
/// let ys = [0.5, 0.5, 0.5];
/// let zs = [0.5, 0.5, 0.5];
/// let space = Aabb::new(Vec3::zero(), Vec3::splat(4.0));
/// let grid = CsrGrid::build_serial(&xs, &ys, &zs, space, 1.0);
///
/// // Agents 0 and 1 share voxel (0,0,0); the range is contiguous and
/// // sorted by id.
/// let voxel = grid.box_index(Vec3::new(0.5, 0.5, 0.5));
/// let ids: Vec<u32> = grid.cell_range(voxel).iter().map(|a| a.0).collect();
/// assert_eq!(ids, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CsrGrid<R> {
    geom: GridGeometry<R>,
    /// Exclusive prefix sums: voxel `v` owns
    /// `cell_agents[cell_starts[v] as usize .. cell_starts[v+1] as usize]`.
    cell_starts: Vec<u32>,
    /// All agent ids, grouped by voxel, ascending id within a voxel.
    cell_agents: Vec<AgentId>,
    /// The geometry of the last full build (the incremental check).
    /// `None` after a member-subset build — those arrays are not a pure
    /// function of full-column keys.
    built_sig: Option<BuildSig>,
}

impl<R: Scalar> CsrGrid<R> {
    fn empty(space: Aabb<R>, box_length: R) -> Self {
        Self {
            geom: GridGeometry::new(space, box_length),
            cell_starts: Vec::new(),
            cell_agents: Vec::new(),
            built_sig: None,
        }
    }

    /// Serial two-pass counting-sort build.
    pub fn build_serial(xs: &[R], ys: &[R], zs: &[R], space: Aabb<R>, box_length: R) -> Self {
        let mut grid = Self::empty(space, box_length);
        grid.rebuild_serial(
            xs,
            ys,
            zs,
            space,
            box_length,
            &mut CsrBuildScratch::default(),
        );
        grid
    }

    /// Parallel two-pass counting-sort build.
    ///
    /// Deterministic by construction: agents are split into chunks whose
    /// count depends only on `n`, each chunk histograms its voxels
    /// independently, a sequential scan turns the per-chunk histograms
    /// into disjoint scatter offsets, and each chunk then writes its
    /// agents — in index order — into its own slots. The output is
    /// **bitwise identical** to [`CsrGrid::build_serial`] (asserted by
    /// tests), which in turn makes parallel FP64 force accumulation over
    /// CSR ranges bit-identical to serial accumulation.
    pub fn build_parallel(xs: &[R], ys: &[R], zs: &[R], space: Aabb<R>, box_length: R) -> Self {
        let mut grid = Self::empty(space, box_length);
        grid.rebuild_parallel(
            xs,
            ys,
            zs,
            space,
            box_length,
            &mut CsrBuildScratch::default(),
        );
        grid
    }

    /// [`Self::build_serial`], but reusing this grid's arrays and
    /// `scratch`: the per-timestep rebuild allocates nothing once the
    /// buffers have grown to steady-state size.
    ///
    /// Incremental: when no agent's clamped voxel key changed since the
    /// last full build of this grid (same geometry, same keys), the
    /// counting sort is skipped — the stored arrays are already exact —
    /// and the call returns `true`. Returns `false` when it rebuilt.
    pub fn rebuild_serial(
        &mut self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        space: Aabb<R>,
        box_length: R,
        scratch: &mut CsrBuildScratch,
    ) -> bool {
        let geom = GridGeometry::new(space, box_length);
        let num_boxes = geom.num_boxes();
        let n = xs.len();
        assert!(n < u32::MAX as usize, "agent count overflows CSR offsets");

        // Pass 1: voxel of every agent.
        scratch.voxel_of.clear();
        scratch.voxel_of.resize(n, 0);
        for i in 0..n {
            scratch.voxel_of[i] = geom.box_index(Vec3::new(xs[i], ys[i], zs[i])) as u32;
        }

        // Incremental check: same geometry + same keys ⇒ the stored
        // CSR arrays are a pure function of both ⇒ skip the sort.
        let sig = BuildSig::of(&geom);
        self.geom = geom;
        if self.built_sig == Some(sig) && self.holds(&scratch.voxel_of, 0..n) {
            return true;
        }

        // Counts accumulate into the shifted cell_starts slots
        // (`cell_starts[v + 1] = count(v)`).
        self.cell_starts.clear();
        self.cell_starts.resize(num_boxes + 1, 0);
        for &v in &scratch.voxel_of {
            self.cell_starts[v as usize + 1] += 1;
        }

        // In-place inclusive scan over the shifted counts ⇒ exclusive
        // prefix sums with the grand total in the last slot.
        for v in 1..=num_boxes {
            self.cell_starts[v] += self.cell_starts[v - 1];
        }

        // Pass 2: stable scatter (ascending i ⇒ ascending id per voxel).
        scratch
            .hists
            .resize_with(1.max(scratch.hists.len()), Vec::new);
        let cursor = &mut scratch.hists[0];
        cursor.clear();
        cursor.extend_from_slice(&self.cell_starts[..num_boxes]);
        self.cell_agents.clear();
        self.cell_agents.resize(n, AgentId::NULL);
        for (i, &v) in scratch.voxel_of.iter().enumerate() {
            let pos = cursor[v as usize];
            cursor[v as usize] += 1;
            self.cell_agents[pos as usize] = AgentId::from_index(i);
        }

        self.built_sig = Some(sig);
        false
    }

    /// `true` when this grid indexes `voxel_of.len()` agents and every
    /// slot of `slots` lies in the range of its agent's voxel
    /// `voxel_of[agent]`. The ranges are disjoint, so over all slots, with
    /// an unchanged geometry, that is exactly "every voxel's slots hold
    /// its agents": a rebuild would reproduce the arrays. O(slots) reads,
    /// whatever the voxel count.
    fn holds(&self, voxel_of: &[u32], slots: Range<usize>) -> bool {
        let starts = &self.cell_starts;
        self.cell_agents.len() == voxel_of.len()
            && slots.into_iter().all(|s| {
                let v = voxel_of[self.cell_agents[s].index()] as usize;
                (starts[v] as usize..starts[v + 1] as usize).contains(&s)
            })
    }

    /// [`Self::build_parallel`], but reusing this grid's arrays and
    /// `scratch` (see [`Self::rebuild_serial`]). Output is bitwise
    /// identical to the serial rebuild — including the incremental
    /// fast path: unchanged keys skip the sort and return `true`.
    pub fn rebuild_parallel(
        &mut self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        space: Aabb<R>,
        box_length: R,
        scratch: &mut CsrBuildScratch,
    ) -> bool {
        let geom = GridGeometry::new(space, box_length);
        let num_boxes = geom.num_boxes();
        let n = xs.len();
        assert!(n < u32::MAX as usize, "agent count overflows CSR offsets");

        let num_chunks = n.div_ceil(BUILD_CHUNK).clamp(1, MAX_CHUNKS);
        let chunk_len = n.div_ceil(num_chunks).max(1);

        // Pass 1 (parallel over chunks): voxel ids. Histograms wait
        // until the incremental check has decided a rebuild is needed.
        scratch.voxel_of.clear();
        scratch.voxel_of.resize(n, 0);
        let vout = SendPtr(scratch.voxel_of.as_mut_ptr());
        (0..num_chunks).into_par_iter().for_each(|c| {
            let vout = &vout;
            let base = c * chunk_len;
            let end = (base + chunk_len).min(n);
            for i in base..end {
                let v = geom.box_index(Vec3::new(xs[i], ys[i], zs[i])) as u32;
                // SAFETY: chunk index ranges [base, end) are disjoint.
                unsafe { *vout.0.add(i) = v };
            }
        });

        let sig = BuildSig::of(&geom);
        self.geom = geom;
        if self.built_sig == Some(sig) {
            let mut held = [true; MAX_CHUNKS];
            held[..num_chunks]
                .par_iter_mut()
                .enumerate()
                .for_each(|(c, held)| {
                    let slots = (c * chunk_len).min(n)..((c + 1) * chunk_len).min(n);
                    *held = self.holds(&scratch.voxel_of, slots);
                });
            if held.iter().all(|&h| h) {
                return true;
            }
        }

        // Per-chunk histograms over the precomputed keys.
        scratch.hists.resize_with(num_chunks, Vec::new);
        let voxel_of = &scratch.voxel_of;
        scratch
            .hists
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, hist)| {
                hist.clear();
                hist.resize(num_boxes, 0);
                let base = c * chunk_len;
                for &v in &voxel_of[base..(base + chunk_len).min(n)] {
                    hist[v as usize] += 1;
                }
            });

        // Sequential scan: per-voxel totals → cell_starts, then rewrite
        // each chunk's histogram entry into that chunk's scatter base for
        // the voxel. O(num_chunks × num_boxes), trivially cheap next to
        // the passes over agents.
        self.cell_starts.clear();
        self.cell_starts.resize(num_boxes + 1, 0);
        let mut running = 0u32;
        for v in 0..num_boxes {
            self.cell_starts[v] = running;
            for hist in scratch.hists.iter_mut() {
                let cnt = hist[v];
                hist[v] = running;
                running += cnt;
            }
        }
        self.cell_starts[num_boxes] = running;

        // Pass 2 (parallel over chunks): disjoint stable scatter.
        self.cell_agents.clear();
        self.cell_agents.resize(n, AgentId::NULL);
        let out = SendPtr(self.cell_agents.as_mut_ptr());
        let voxel_of = &scratch.voxel_of;
        scratch
            .hists
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, cursor)| {
                let out = &out;
                let base = c * chunk_len;
                let chunk = &voxel_of[base..(base + chunk_len).min(n)];
                for (k, &v) in chunk.iter().enumerate() {
                    let pos = cursor[v as usize];
                    cursor[v as usize] += 1;
                    // SAFETY: the scan above hands every chunk disjoint
                    // slot ranges per voxel ([hist[c][v], hist[c+1][v])),
                    // so no two chunks write the same index and every
                    // index < n is written exactly once.
                    unsafe { *out.0.add(pos as usize) = AgentId::from_index(base + k) };
                }
            });

        self.built_sig = Some(sig);
        false
    }

    /// Rebuild the grid over an explicit **subset** of agents: only
    /// `members` are indexed, and `cell_agents` stores the given ids
    /// verbatim (they index the full `xs`/`ys`/`zs` columns). This is
    /// the shard-local build: a shard indexes its own agents plus the
    /// ghost-halo agents of neighboring shards, all identified by their
    /// *global* ids.
    ///
    /// The counting sort is stable in member order, so a voxel's agents
    /// appear in the order they occur in `members`. When every voxel's
    /// agents arrive from a single ascending-id run of `members` — the
    /// case for Hilbert-sorted storage, where one voxel is one
    /// contiguous key run — each per-voxel slice is bitwise identical
    /// to the corresponding slice of a full [`Self::rebuild_serial`]
    /// over the same columns, which is what keeps sharded force
    /// accumulation bit-identical to the unsharded pass.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_from_members(
        &mut self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        members: &[AgentId],
        space: Aabb<R>,
        box_length: R,
        scratch: &mut CsrBuildScratch,
    ) {
        let geom = GridGeometry::new(space, box_length);
        let num_boxes = geom.num_boxes();
        let n = members.len();
        assert!(n < u32::MAX as usize, "agent count overflows CSR offsets");
        self.geom = geom;
        // A subset build is not a pure function of full-column keys:
        // drop the incremental signature so the next full rebuild can
        // never falsely skip over shard-local contents.
        self.built_sig = None;

        // Pass 1: voxel of every member; counts into shifted cell_starts.
        scratch.voxel_of.clear();
        scratch.voxel_of.resize(n, 0);
        self.cell_starts.clear();
        self.cell_starts.resize(num_boxes + 1, 0);
        for (k, id) in members.iter().enumerate() {
            let i = id.index();
            let v = geom.box_index(Vec3::new(xs[i], ys[i], zs[i])) as u32;
            scratch.voxel_of[k] = v;
            self.cell_starts[v as usize + 1] += 1;
        }

        // In-place scan ⇒ exclusive prefix sums.
        for v in 1..=num_boxes {
            self.cell_starts[v] += self.cell_starts[v - 1];
        }

        // Pass 2: stable scatter of the member ids themselves.
        scratch
            .hists
            .resize_with(1.max(scratch.hists.len()), Vec::new);
        let cursor = &mut scratch.hists[0];
        cursor.clear();
        cursor.extend_from_slice(&self.cell_starts[..num_boxes]);
        self.cell_agents.clear();
        self.cell_agents.resize(n, AgentId::NULL);
        for (k, &v) in scratch.voxel_of.iter().enumerate() {
            let pos = cursor[v as usize];
            cursor[v as usize] += 1;
            self.cell_agents[pos as usize] = members[k];
        }
    }

    /// The shared voxel geometry.
    #[inline]
    pub fn geometry(&self) -> &GridGeometry<R> {
        &self.geom
    }

    /// Voxel edge length.
    #[inline]
    pub fn box_length(&self) -> R {
        self.geom.box_length()
    }

    /// Voxels per axis.
    #[inline]
    pub fn dims(&self) -> [u32; 3] {
        self.geom.dims()
    }

    /// Total number of voxels.
    #[inline]
    pub fn num_boxes(&self) -> usize {
        self.geom.num_boxes()
    }

    /// Number of indexed agents.
    #[inline]
    pub fn num_agents(&self) -> usize {
        self.cell_agents.len()
    }

    /// The covered space.
    #[inline]
    pub fn space(&self) -> &Aabb<R> {
        self.geom.space()
    }

    /// The exclusive prefix sums (`num_boxes + 1` entries) — uploaded as
    /// a flat buffer by the GPU environment.
    #[inline]
    pub fn cell_starts(&self) -> &[u32] {
        &self.cell_starts
    }

    /// The contiguous agent-id array (uploaded alongside
    /// [`Self::cell_starts`]).
    #[inline]
    pub fn cell_agents(&self) -> &[AgentId] {
        &self.cell_agents
    }

    /// The agents of voxel `flat`, as one contiguous slice (ascending id).
    #[inline]
    pub fn cell_range(&self, flat: usize) -> &[AgentId] {
        let lo = self.cell_starts[flat] as usize;
        let hi = self.cell_starts[flat + 1] as usize;
        &self.cell_agents[lo..hi]
    }

    /// The agents of `count` x-adjacent voxels starting at `first_flat`,
    /// as one contiguous slice — x-neighbors concatenate in the x-major
    /// CSR order, so a whole [`GridGeometry::x_runs`] run costs two
    /// offset lookups instead of one per voxel.
    #[inline]
    pub fn run_range(&self, first_flat: usize, count: u32) -> &[AgentId] {
        let lo = self.cell_starts[first_flat] as usize;
        let hi = self.cell_starts[first_flat + count as usize] as usize;
        &self.cell_agents[lo..hi]
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

    /// Enumerate the flat indices of the ≤ 27 voxels around `p`.
    pub fn neighbor_boxes(&self, p: Vec3<R>) -> NeighborBoxes {
        self.geom.neighbor_boxes(p)
    }

    /// Visit every agent within `radius` of `q`, excluding `exclude`.
    ///
    /// Same contract as `UniformGrid::for_each_within` (correctness
    /// requires `radius ≤ box_length`), but candidate enumeration is ≤ 9
    /// contiguous slice scans ([`GridGeometry::x_runs`]) instead of 27
    /// linked-list walks. `boxes_scanned` still counts voxels, so the
    /// counters stay comparable across layouts.
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
        for (first, count) in self.geom.x_runs(q) {
            counters.boxes_scanned += count as u64;
            for &id in self.run_range(first, count) {
                if Some(id) != exclude {
                    counters.points_tested += 1;
                    let i = id.index();
                    let d = Vec3::new(xs[i], ys[i], zs[i]) - q;
                    if d.norm_squared() <= r2 {
                        counters.neighbors_found += 1;
                        visit(id);
                    }
                }
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

    /// Histogram of agents per voxel (CSR twin of
    /// `UniformGrid::occupancy_histogram`).
    pub fn occupancy_histogram(&self) -> Vec<(u32, usize)> {
        let mut counts: std::collections::BTreeMap<u32, usize> = Default::default();
        for v in 0..self.num_boxes() {
            let len = self.cell_starts[v + 1] - self.cell_starts[v];
            *counts.entry(len).or_default() += 1;
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
    fn ranges_partition_all_agents() {
        let (xs, ys, zs) = cloud(500, 1, 20.0);
        let g = CsrGrid::build_serial(&xs, &ys, &zs, space(20.0), 2.5);
        assert_eq!(g.cell_starts().len(), g.num_boxes() + 1);
        assert_eq!(*g.cell_starts().last().unwrap() as usize, 500);
        let mut seen = vec![false; 500];
        for v in 0..g.num_boxes() {
            for &id in g.cell_range(v) {
                assert!(!seen[id.index()], "agent {} appears twice", id.0);
                seen[id.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some agent missing from CSR");
    }

    #[test]
    fn every_agent_is_in_its_own_cell_sorted_by_id() {
        let (xs, ys, zs) = cloud(300, 2, 10.0);
        let g = CsrGrid::build_serial(&xs, &ys, &zs, space(10.0), 1.5);
        for i in 0..300 {
            let v = g.box_index(Vec3::new(xs[i], ys[i], zs[i]));
            let cell = g.cell_range(v);
            assert!(cell.iter().any(|id| id.index() == i));
            assert!(
                cell.windows(2).all(|w| w[0] < w[1]),
                "cell {v} not strictly ascending"
            );
        }
    }

    #[test]
    fn parallel_build_is_bitwise_identical_to_serial() {
        // Cross the BUILD_CHUNK threshold so multiple chunks engage.
        let n = 3 * BUILD_CHUNK + 1234;
        let (xs, ys, zs) = cloud(n, 3, 60.0);
        let s = CsrGrid::build_serial(&xs, &ys, &zs, space(60.0), 3.0);
        let build = || CsrGrid::build_parallel(&xs, &ys, &zs, space(60.0), 3.0);
        // The four chunks' disjoint scatters on 1, 2 and 4 (oversubscribed)
        // workers, several times each, then in shuffled chunk orders.
        for round in 0..12 {
            let workers = [1, 2, 4][round % 3];
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers);
            let p = pool.build().expect("pool").install(build);
            assert_eq!(s.cell_starts, p.cell_starts, "{workers} workers");
            assert_eq!(s.cell_agents, p.cell_agents, "{workers} workers");
        }
        for seed in 0..4 {
            let p = rayon::with_shuffled_schedule(seed, build);
            assert_eq!(s.cell_starts, p.cell_starts, "shuffle {seed}");
            assert_eq!(s.cell_agents, p.cell_agents, "shuffle {seed}");
        }
    }

    #[test]
    fn parallel_build_small_input_is_bitwise_identical() {
        let (xs, ys, zs) = cloud(777, 4, 12.0);
        let s = CsrGrid::build_serial(&xs, &ys, &zs, space(12.0), 2.0);
        let p = CsrGrid::build_parallel(&xs, &ys, &zs, space(12.0), 2.0);
        assert_eq!(s.cell_starts, p.cell_starts);
        assert_eq!(s.cell_agents, p.cell_agents);
    }

    #[test]
    fn rebuild_reuses_buffers_across_changing_scenes() {
        // Agent count and voxel edge both change between rebuilds; the
        // reused-buffer result must match a fresh build every time.
        let mut scratch = CsrBuildScratch::default();
        let mut g = CsrGrid::build_serial(&[], &[], &[], space(10.0), 2.0);
        for (n, seed, edge) in [(500usize, 1u64, 2.0f64), (200, 2, 1.5), (800, 3, 2.5)] {
            let (xs, ys, zs) = cloud(n, seed, 10.0);
            g.rebuild_parallel(&xs, &ys, &zs, space(10.0), edge, &mut scratch);
            let fresh = CsrGrid::build_serial(&xs, &ys, &zs, space(10.0), edge);
            assert_eq!(g.cell_starts, fresh.cell_starts);
            assert_eq!(g.cell_agents, fresh.cell_agents);
            g.rebuild_serial(&xs, &ys, &zs, space(10.0), edge, &mut scratch);
            assert_eq!(g.cell_agents, fresh.cell_agents);
        }
    }

    #[test]
    fn member_subset_build_matches_filtered_full_build() {
        let (xs, ys, zs) = cloud(400, 9, 16.0);
        let full = CsrGrid::build_serial(&xs, &ys, &zs, space(16.0), 2.0);
        // Subset = two contiguous ascending-id ranges (the shard shape:
        // an owned range plus a halo range).
        let members: Vec<AgentId> = (50..200).chain(300..370).map(AgentId::from_index).collect();
        let in_subset =
            |id: &AgentId| (50..200).contains(&id.index()) || (300..370).contains(&id.index());
        let mut sub = CsrGrid::build_serial(&[], &[], &[], space(16.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        sub.rebuild_from_members(&xs, &ys, &zs, &members, space(16.0), 2.0, &mut scratch);
        assert_eq!(sub.num_agents(), members.len());
        for v in 0..full.num_boxes() {
            let expected: Vec<AgentId> = full
                .cell_range(v)
                .iter()
                .filter(|id| in_subset(id))
                .copied()
                .collect();
            assert_eq!(sub.cell_range(v), expected.as_slice(), "voxel {v}");
        }
    }

    #[test]
    fn member_build_with_everyone_is_bitwise_identical_to_full_build() {
        let (xs, ys, zs) = cloud(600, 10, 12.0);
        let full = CsrGrid::build_serial(&xs, &ys, &zs, space(12.0), 1.5);
        let members: Vec<AgentId> = (0..600).map(AgentId::from_index).collect();
        let mut sub = CsrGrid::build_serial(&[], &[], &[], space(12.0), 1.5);
        sub.rebuild_from_members(
            &xs,
            &ys,
            &zs,
            &members,
            space(12.0),
            1.5,
            &mut CsrBuildScratch::default(),
        );
        assert_eq!(sub.cell_starts, full.cell_starts);
        assert_eq!(sub.cell_agents, full.cell_agents);
    }

    /// Property test over random churn sequences: whatever mix of
    /// within-voxel jiggle, cross-voxel moves, births, and deaths a
    /// step applies, the incremental rebuild (serial and parallel, with
    /// persistent scratch) is bitwise identical to a fresh full build —
    /// and both the skip path and the rebuild path are exercised.
    #[test]
    fn incremental_rebuild_matches_fresh_build_across_random_churn() {
        let extent = 12.0;
        let edge = 2.0;
        for seed in [70u64, 71, 72] {
            let mut rng = SplitMix64::new(seed);
            let (mut xs, mut ys, mut zs) = cloud(400, seed ^ 0xABCD, extent);
            let mut gs = CsrGrid::build_serial(&[], &[], &[], space(extent), edge);
            let mut gp = CsrGrid::build_serial(&[], &[], &[], space(extent), edge);
            let mut ss = CsrBuildScratch::default();
            let mut sp = CsrBuildScratch::default();
            let mut skipped = 0u32;
            let mut rebuilt = 0u32;
            for round in 0..30 {
                match round % 5 {
                    0 => {} // untouched scene: the skip case
                    1 => {
                        // Jiggle well below the voxel edge (may still
                        // cross a boundary for agents sitting on one —
                        // the keys decide, not the magnitude).
                        for x in xs.iter_mut() {
                            *x += rng.uniform(-1e-9, 1e-9);
                        }
                    }
                    2 => {
                        // Teleport a few agents across voxels.
                        for _ in 0..4 {
                            let i = (rng.uniform(0.0, xs.len() as f64) as usize).min(xs.len() - 1);
                            xs[i] = rng.uniform(0.0, extent);
                            ys[i] = rng.uniform(0.0, extent);
                        }
                    }
                    3 => {
                        // Births.
                        for _ in 0..7 {
                            xs.push(rng.uniform(0.0, extent));
                            ys.push(rng.uniform(0.0, extent));
                            zs.push(rng.uniform(0.0, extent));
                        }
                    }
                    _ => {
                        // Deaths (swap-remove, like the resource manager).
                        for _ in 0..5 {
                            let i = (rng.uniform(0.0, xs.len() as f64) as usize).min(xs.len() - 1);
                            xs.swap_remove(i);
                            ys.swap_remove(i);
                            zs.swap_remove(i);
                        }
                    }
                }
                let a = gs.rebuild_serial(&xs, &ys, &zs, space(extent), edge, &mut ss);
                let b = gp.rebuild_parallel(&xs, &ys, &zs, space(extent), edge, &mut sp);
                assert_eq!(a, b, "serial and parallel must agree on skipping");
                if a {
                    skipped += 1;
                } else {
                    rebuilt += 1;
                }
                let fresh = CsrGrid::build_serial(&xs, &ys, &zs, space(extent), edge);
                assert_eq!(gs.cell_starts, fresh.cell_starts, "round {round}");
                assert_eq!(gs.cell_agents, fresh.cell_agents, "round {round}");
                assert_eq!(gp.cell_starts, fresh.cell_starts, "round {round}");
                assert_eq!(gp.cell_agents, fresh.cell_agents, "round {round}");
            }
            assert!(skipped > 0, "no round exercised the skip path");
            assert!(rebuilt > 0, "no round exercised the rebuild path");
        }
    }

    /// The skip triggers exactly on key equality: within-voxel motion
    /// skips, a single boundary crossing rebuilds, and a geometry
    /// change (same positions, different edge) rebuilds.
    #[test]
    fn rebuild_skips_only_when_no_agent_crosses_a_voxel() {
        let (mut xs, ys, zs) = cloud(200, 8, 10.0);
        let mut g = CsrGrid::build_serial(&[], &[], &[], space(10.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        assert!(!g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        assert!(
            g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch),
            "unchanged scene must skip"
        );
        // Within-voxel motion changes positions but not keys: skipped.
        let old = xs[0];
        xs[0] = (old / 2.0).floor() * 2.0 + 1.0; // voxel center
        assert!(g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        xs[0] += 0.5; // stays inside the 2.0-wide voxel
        assert!(g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        // Boundary crossing: rebuild.
        xs[0] += 2.0;
        assert!(!g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        // Two agents of different voxels trade places: same count, same
        // occupancy per voxel, but each slot now names the wrong agent.
        let other = (1..xs.len())
            .find(|&i| {
                g.box_index(Vec3::new(xs[i], ys[i], zs[i]))
                    != g.box_index(Vec3::new(xs[0], ys[0], zs[0]))
            })
            .expect("a second voxel");
        let (mut ys, mut zs) = (ys, zs);
        for col in [&mut xs, &mut ys, &mut zs] {
            col.swap(0, other);
        }
        for build in [CsrGrid::rebuild_serial, CsrGrid::rebuild_parallel] {
            let mut g = g.clone();
            assert!(!build(
                &mut g,
                &xs,
                &ys,
                &zs,
                space(10.0),
                2.0,
                &mut scratch
            ));
            let fresh = CsrGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.0);
            assert_eq!(g.cell_agents, fresh.cell_agents);
        }
        assert!(!g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        // Geometry change with identical positions: rebuild.
        assert!(!g.rebuild_serial(&xs, &ys, &zs, space(10.0), 2.5, &mut scratch));
        let fresh = CsrGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.5);
        assert_eq!(g.cell_agents, fresh.cell_agents);
    }

    /// A member-subset (shard) build rewrites the arrays outside the
    /// full-column key space; the next full rebuild must not skip.
    #[test]
    fn member_rebuild_invalidates_the_incremental_signature() {
        let (xs, ys, zs) = cloud(300, 11, 12.0);
        let mut g = CsrGrid::build_serial(&[], &[], &[], space(12.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        assert!(!g.rebuild_serial(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch));
        assert!(g.rebuild_serial(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch));
        let members: Vec<AgentId> = (0..100).map(AgentId::from_index).collect();
        g.rebuild_from_members(&xs, &ys, &zs, &members, space(12.0), 2.0, &mut scratch);
        assert_eq!(g.num_agents(), 100);
        assert!(
            !g.rebuild_serial(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch),
            "a shard recut must clear the skip signature"
        );
        let fresh = CsrGrid::build_serial(&xs, &ys, &zs, space(12.0), 2.0);
        assert_eq!(g.cell_starts, fresh.cell_starts);
        assert_eq!(g.cell_agents, fresh.cell_agents);
    }

    #[test]
    fn radius_search_matches_brute_force() {
        let (xs, ys, zs) = cloud(600, 5, 15.0);
        let g = CsrGrid::build_serial(&xs, &ys, &zs, space(15.0), 2.0);
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
    fn counters_match_linked_list_layout() {
        let (xs, ys, zs) = cloud(400, 7, 12.0);
        let csr = CsrGrid::build_serial(&xs, &ys, &zs, space(12.0), 2.0);
        let ll = crate::UniformGrid::build_serial(&xs, &ys, &zs, space(12.0), 2.0);
        let q = Vec3::splat(6.0);
        let mut sink = Vec::new();
        let a = csr.radius_search(&xs, &ys, &zs, q, 2.0, None, &mut sink);
        let b = ll.radius_search(&xs, &ys, &zs, q, 2.0, None, &mut sink);
        // Same stencil, same candidates, same acceptances — only the
        // storage layout differs.
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_agent_grids() {
        let g = CsrGrid::<f64>::build_serial(&[], &[], &[], space(10.0), 2.0);
        assert_eq!(g.num_agents(), 0);
        assert!(g.cell_range(0).is_empty());
        let g = CsrGrid::build_parallel(&[1.0], &[1.0], &[1.0], space(10.0), 2.0);
        assert_eq!(g.num_agents(), 1);
        assert_eq!(g.cell_range(g.box_index(Vec3::splat(1.0))).len(), 1);
    }

    #[test]
    fn finite_out_of_space_agents_are_clamped_not_lost() {
        let xs = vec![-5.0, 15.0];
        let ys = vec![0.5, 9.5];
        let zs = vec![0.5, 9.5];
        let g = CsrGrid::build_serial(&xs, &ys, &zs, space(10.0), 2.0);
        assert_eq!(*g.cell_starts().last().unwrap(), 2);
    }

    #[test]
    fn occupancy_histogram_sums() {
        let (xs, ys, zs) = cloud(200, 12, 8.0);
        let g = CsrGrid::build_serial(&xs, &ys, &zs, space(8.0), 2.0);
        let hist = g.occupancy_histogram();
        let boxes: usize = hist.iter().map(|&(_, c)| c).sum();
        let agents: usize = hist.iter().map(|&(len, c)| len as usize * c).sum();
        assert_eq!(boxes, g.num_boxes());
        assert_eq!(agents, 200);
    }
}
