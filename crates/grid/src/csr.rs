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
//! scatter — which is *stable*, and the arrays are a pure function of
//! the voxel keys. There is one build: it computes the keys (and the
//! incremental check below) in the parallel parts of `bdm_soa::parts`
//! and then runs one serial sort, so its output is the same on any
//! worker count with no fix-up (the linked-list `build_parallel` gets
//! there by relinking the lists its racing insertions leave out of
//! order). Under a one-worker pool it is the serial build.
//!
//! # Incremental maintenance
//!
//! The grid remembers whether its arrays are a full build of its
//! geometry ([`GridGeometry::same_as`] says whether a rebuild's geometry
//! is that one). A rebuild first recomputes every agent's clamped voxel
//! key — the cheap pass — and, when the population and the geometry are unchanged and
//! every slot of every voxel still holds an agent of that voxel, *skips*
//! the counting sort and scatter entirely. Each agent sits in exactly one
//! slot, so that is "no agent changed voxel", and the stored CSR arrays
//! are a pure function of the keys: skipping is bitwise-invisible (pinned
//! by tests), and the check needs no second copy of the keys. This
//! mirrors the GPU pipeline's resident grid skip and turns the common
//! no-crossing timestep into a single read-only sweep.
//!
//! That sweep is still O(n). A caller that can prove the columns did not
//! change at all since the last full build skips the call instead:
//! [`CsrGrid::is_full_build_of`] says whether the arrays are a full build
//! of a given geometry, and the host step pairs it with the resource
//! manager's position stamp.
//!
//! # Memory
//!
//! The grid holds its offsets and one id per agent. A build's working
//! memory — one voxel id per agent, whatever the voxel count (the sort
//! scatters through the grid's own offsets) — comes from a
//! [`BuildMemory`]: a `bdm_soa::StepBuffer` the caller holds for other
//! phases anyway (the host step's sweep writes its displacements there
//! next), or a [`CsrBuildScratch`], the memory the grid owns for
//! callers that lend none. Both run the same build bodies.

use crate::{gate, GridGeometry, QueryCounters};
use bdm_math::{Aabb, Scalar, Vec3};
use bdm_soa::{AgentId, StepBuffer, MAX_PARTS};
use rayon::prelude::*;
use std::mem::size_of;
use std::ops::Range;

/// Working memory a CSR build owns for callers that lend it none: one
/// `u32` per agent (its voxel id, filled by pass 1 and consumed by pass
/// 2). Hold one across timesteps and every
/// [`CsrGrid::rebuild_parallel`] after the first is allocation-free in
/// steady state. A caller that holds a [`StepBuffer`] lends it instead.
#[derive(Debug, Default)]
pub struct CsrBuildScratch {
    indices: Vec<u32>,
}

impl CsrBuildScratch {
    /// Heap bytes the scratch holds.
    pub fn resident_bytes(&self) -> usize {
        self.indices.capacity() * size_of::<u32>()
    }
}

/// Where a build takes its voxel ids from: a [`CsrBuildScratch`], or a
/// [`StepBuffer`] lent for the call (whose contents the build leaves
/// unspecified).
pub trait BuildMemory {
    /// One `u32` per agent.
    fn indices(&mut self, agents: usize) -> &mut [u32];
}

impl BuildMemory for CsrBuildScratch {
    fn indices(&mut self, agents: usize) -> &mut [u32] {
        if self.indices.len() < agents {
            self.indices.resize(agents, 0);
        }
        &mut self.indices[..agents]
    }
}

impl BuildMemory for StepBuffer {
    fn indices(&mut self, agents: usize) -> &mut [u32] {
        StepBuffer::indices(self, agents)
    }
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
/// let grid = CsrGrid::build_parallel(&xs, &ys, &zs, space, 1.0);
///
/// // Agents 0 and 1 share voxel (0,0,0); the range is contiguous and
/// // sorted by id.
/// let voxel = grid.geometry().box_index(Vec3::new(0.5, 0.5, 0.5));
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
    /// `true` when the arrays are a full build over `geom` (the
    /// incremental check). `false` after a member-subset build — those
    /// arrays are not a pure function of full-column keys.
    full: bool,
}

impl<R: Scalar> CsrGrid<R> {
    fn empty(space: Aabb<R>, box_length: R) -> Self {
        Self {
            geom: GridGeometry::new(space, box_length),
            cell_starts: Vec::new(),
            cell_agents: Vec::new(),
            full: false,
        }
    }

    /// Two-pass counting-sort build whose voxel keys are computed in the
    /// parallel parts of `bdm_soa::parts` (a function of `n` alone),
    /// followed by one stable counting sort. The arrays are a pure
    /// function of the keys — every voxel's agents in ascending id, on
    /// any worker count (asserted by tests) — which makes parallel FP64
    /// force accumulation over CSR ranges bit-identical to serial
    /// accumulation. Under a one-worker pool it is the serial build.
    pub fn build_parallel(xs: &[R], ys: &[R], zs: &[R], space: Aabb<R>, box_length: R) -> Self {
        let mut grid = Self::empty(space, box_length);
        let memory = &mut CsrBuildScratch::default();
        grid.rebuild_parallel(xs, ys, zs, space, box_length, memory);
        grid
    }

    /// [`Self::build_parallel`], but reusing this grid's arrays and
    /// `memory`: the per-timestep rebuild allocates nothing once the
    /// buffers have grown to steady-state size.
    ///
    /// Incremental: when no agent's clamped voxel key changed since the
    /// last full build of this grid (same geometry, same keys), the
    /// counting sort is skipped — the stored arrays are already exact —
    /// and the call returns `true`. Returns `false` when it rebuilt. The
    /// check runs in the key pass's parts; changed keys then go through
    /// `Self::counting_sort`, which borrows nothing besides the keys.
    pub fn rebuild_parallel(
        &mut self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        space: Aabb<R>,
        box_length: R,
        memory: &mut impl BuildMemory,
    ) -> bool {
        let geom = GridGeometry::new(space, box_length);
        let n = xs.len();
        assert!(n < u32::MAX as usize, "agent count overflows CSR offsets");
        let (count, len) = bdm_soa::parts(n);

        // Pass 1 (parallel over parts): voxel ids.
        let voxel_of = memory.indices(n);
        voxel_of
            .par_chunks_mut(len)
            .enumerate()
            .for_each(|(p, part)| {
                for (k, v) in part.iter_mut().enumerate() {
                    let i = p * len + k;
                    *v = geom.box_index(Vec3::new(xs[i], ys[i], zs[i])) as u32;
                }
            });
        let voxel_of = &*voxel_of;

        // Incremental check: same geometry + same keys ⇒ the stored
        // CSR arrays are a pure function of both ⇒ skip the sort.
        let same = self.full && self.geom.same_as(&geom);
        self.geom = geom;
        if same {
            let mut held = [true; MAX_PARTS];
            held[..count]
                .par_iter_mut()
                .enumerate()
                .for_each(|(p, held)| {
                    let slots = (p * len).min(n)..((p + 1) * len).min(n);
                    *held = self.holds(voxel_of, slots);
                });
            if held.iter().all(|&h| h) {
                return true;
            }
        }
        self.full = true;
        self.counting_sort(voxel_of, AgentId::from_index);
        false
    }

    /// The serial counting sort: entry `k` goes to voxel `voxel_of[k]` as
    /// `id(k)`, stable in `k`. `cell_starts` is its own scatter cursor:
    /// the counts go into the shifted slots (`cell_starts[v + 1] =
    /// count(v)`), an inclusive scan turns slot `v` into voxel `v`'s first
    /// index, the scatter advances it to voxel `v`'s end — voxel `v + 1`'s
    /// start — and one shift puts every start back in its own slot.
    fn counting_sort(&mut self, voxel_of: &[u32], id: impl Fn(usize) -> AgentId) {
        let num_boxes = self.geom.num_boxes();
        let starts = &mut self.cell_starts;
        starts.clear();
        starts.resize(num_boxes + 1, 0);
        for &v in voxel_of {
            starts[v as usize + 1] += 1;
        }
        for v in 1..=num_boxes {
            starts[v] += starts[v - 1];
        }
        self.cell_agents.clear();
        self.cell_agents.resize(voxel_of.len(), AgentId::NULL);
        for (k, &v) in voxel_of.iter().enumerate() {
            let cursor = &mut starts[v as usize];
            self.cell_agents[*cursor as usize] = id(k);
            *cursor += 1;
        }
        starts.copy_within(..num_boxes, 1);
        starts[0] = 0;
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
    /// to the corresponding slice of a full [`Self::rebuild_parallel`]
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
        let n = members.len();
        assert!(n < u32::MAX as usize, "agent count overflows CSR offsets");
        self.geom = GridGeometry::new(space, box_length);
        // A subset build is not a pure function of full-column keys:
        // the next full rebuild must never skip over shard-local contents.
        self.full = false;
        let voxel_of = scratch.indices(n);
        for (v, id) in voxel_of.iter_mut().zip(members) {
            let i = id.index();
            *v = self.geom.box_index(Vec3::new(xs[i], ys[i], zs[i])) as u32;
        }
        self.counting_sort(voxel_of, |k| members[k]);
    }

    /// `true` when the arrays are those of a full build
    /// ([`Self::rebuild_parallel`], skipped or not) over the geometry of
    /// `space` and `box_length` ([`GridGeometry::same_as`]). A
    /// member-subset build never matches. Together with a caller's proof
    /// that the columns are the ones that build read (the host step keys
    /// it on the resource manager's position stamp), this is what a
    /// rebuild would conclude without pass 1 or the slot check.
    pub fn is_full_build_of(&self, space: Aabb<R>, box_length: R) -> bool {
        self.full && self.geom.same_as(&GridGeometry::new(space, box_length))
    }

    /// The shared voxel geometry.
    #[inline]
    pub fn geometry(&self) -> &GridGeometry<R> {
        &self.geom
    }

    /// Number of indexed agents.
    #[inline]
    pub fn num_agents(&self) -> usize {
        self.cell_agents.len()
    }

    /// Heap bytes the grid holds: its offsets and its agent ids.
    pub fn resident_bytes(&self) -> usize {
        (self.cell_starts.capacity() + self.cell_agents.capacity()) * size_of::<u32>()
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

    /// The voxel whose range holds slot `slot` of [`Self::cell_agents`]
    /// (of the empty voxels that share a boundary with it, the last): the
    /// one search from a slot back to its voxel.
    pub fn voxel_of_slot(&self, slot: usize) -> usize {
        self.cell_starts.partition_point(|&s| s as usize <= slot) - 1
    }

    /// Visit every agent of the ≤ 27 voxels around `p`, as ≤ 9 contiguous
    /// slices ([`GridGeometry::x_runs`]) in stencil order, and return the
    /// voxels scanned. The one candidate walk of this layout.
    #[inline]
    pub fn for_each_in_stencil(&self, p: Vec3<R>, mut visit: impl FnMut(AgentId)) -> u64 {
        let mut scanned = 0u64;
        for (first, count) in self.geom.x_runs(p) {
            scanned += count as u64;
            for &id in self.run_range(first, count) {
                visit(id);
            }
        }
        scanned
    }

    /// Visit every agent within `radius` of `q`, excluding `exclude`.
    ///
    /// Same contract and counters as `UniformGrid::for_each_within`
    /// (correctness requires `radius ≤ box_length`), but candidate
    /// enumeration is [`Self::for_each_in_stencil`]: ≤ 9 contiguous slice
    /// scans instead of 27 linked-list walks.
    #[allow(clippy::too_many_arguments)]
    pub fn for_each_within<F: FnMut(AgentId)>(
        &self,
        xs: &[R],
        ys: &[R],
        zs: &[R],
        q: Vec3<R>,
        radius: R,
        exclude: Option<AgentId>,
        visit: F,
    ) -> QueryCounters {
        let mut counters = QueryCounters::default();
        let gate = gate(
            &self.geom,
            (xs, ys, zs),
            q,
            radius,
            exclude,
            &mut counters,
            visit,
        );
        counters.boxes_scanned = self.for_each_in_stencil(q, gate);
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

    fn space(extent: f64) -> Aabb<f64> {
        Aabb::new(Vec3::zero(), Vec3::splat(extent))
    }

    /// A population past 32 Ki agents: eight key parts.
    const PAST_32_KI: usize = 32 * 1024 + 900;

    /// `f` on a one-worker pool: the serial run of a build.
    fn one_worker<T>(f: impl FnOnce() -> T) -> T {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(1);
        pool.build().expect("pool").install(f)
    }

    #[test]
    fn ranges_partition_all_agents() {
        let (xs, ys, zs) = cloud(500, 1, 20.0);
        let g = CsrGrid::build_parallel(&xs, &ys, &zs, space(20.0), 2.5);
        assert_eq!(g.cell_starts().len(), g.geometry().num_boxes() + 1);
        assert_eq!(*g.cell_starts().last().unwrap() as usize, 500);
        let mut seen = vec![false; 500];
        for v in 0..g.geometry().num_boxes() {
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
        let g = CsrGrid::build_parallel(&xs, &ys, &zs, space(10.0), 1.5);
        for i in 0..300 {
            let v = g.geometry().box_index(Vec3::new(xs[i], ys[i], zs[i]));
            let cell = g.cell_range(v);
            assert!(cell.iter().any(|id| id.index() == i));
            assert!(
                cell.windows(2).all(|w| w[0] < w[1]),
                "cell {v} not strictly ascending"
            );
        }
    }

    /// The build of `n` agents is the stable sort of the ids by voxel —
    /// checked against a comparison sort of `(voxel, id)` and against
    /// the serial build (the one-worker run) — on 1, 2 and 4
    /// (oversubscribed) workers, several times each, and under shuffled
    /// part orders.
    fn assert_build_is_the_voxel_then_id_sort(n: usize, seed: u64, extent: f64, edge: f64) {
        let (xs, ys, zs) = cloud(n, seed, extent);
        let geom = GridGeometry::new(space(extent), edge);
        let voxel = |i: usize| geom.box_index(Vec3::new(xs[i], ys[i], zs[i]));
        let mut ids: Vec<usize> = (0..n).collect();
        ids.sort_by_key(|&i| (voxel(i), i));
        let agents: Vec<AgentId> = ids.into_iter().map(AgentId::from_index).collect();
        let mut starts = vec![0u32; geom.num_boxes() + 1];
        for i in 0..n {
            starts[voxel(i) + 1] += 1;
        }
        for v in 1..starts.len() {
            starts[v] += starts[v - 1];
        }
        let build = || CsrGrid::build_parallel(&xs, &ys, &zs, space(extent), edge);
        let serial = one_worker(build);
        let check = |g: CsrGrid<f64>, run: String| {
            assert_eq!(g.cell_starts, starts, "{n} agents, {run}");
            assert_eq!(g.cell_agents, agents, "{n} agents, {run}");
            assert_eq!(g.cell_starts, serial.cell_starts, "{n} agents, {run}");
            assert_eq!(g.cell_agents, serial.cell_agents, "{n} agents, {run}");
        };
        for round in 0..12 {
            let workers = [1, 2, 4][round % 3];
            let pool = rayon::ThreadPoolBuilder::new().num_threads(workers);
            check(
                pool.build().expect("pool").install(build),
                format!("{workers} workers"),
            );
        }
        for seed in 0..4 {
            check(
                rayon::with_shuffled_schedule(seed, build),
                format!("shuffle {seed}"),
            );
        }
    }

    /// Eight key parts.
    #[test]
    fn parallel_build_is_bitwise_identical_to_serial() {
        assert_build_is_the_voxel_then_id_sort(3 * PAST_32_KI, 3, 60.0, 3.0);
    }

    /// One key part.
    #[test]
    fn parallel_build_small_input_is_bitwise_identical() {
        assert_build_is_the_voxel_then_id_sort(777, 4, 12.0, 2.0);
    }

    #[test]
    fn rebuild_reuses_buffers_across_changing_scenes() {
        // Agent count and voxel edge both change between rebuilds; the
        // reused-buffer result must match a fresh build every time.
        let mut scratch = CsrBuildScratch::default();
        let mut g = CsrGrid::build_parallel(&[], &[], &[], space(10.0), 2.0);
        for (n, seed, edge) in [(500usize, 1u64, 2.0f64), (200, 2, 1.5), (800, 3, 2.5)] {
            let (xs, ys, zs) = cloud(n, seed, 10.0);
            g.rebuild_parallel(&xs, &ys, &zs, space(10.0), edge, &mut scratch);
            let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(10.0), edge);
            assert_eq!(g.cell_starts, fresh.cell_starts);
            assert_eq!(g.cell_agents, fresh.cell_agents);
            one_worker(|| g.rebuild_parallel(&xs, &ys, &zs, space(10.0), edge, &mut scratch));
            assert_eq!(g.cell_agents, fresh.cell_agents);
        }
    }

    #[test]
    fn a_lent_buffer_builds_what_the_owned_scratch_builds() {
        // A step buffer a previous borrower left dirty, lent to builds
        // over changing scenes — past 32 Ki agents, the last in 512,000
        // voxels, 80³ at edge 0.25 — and to the incremental check.
        let mut buffer = StepBuffer::default();
        buffer.vec3s(64).fill(Vec3::splat(f64::NAN));
        let mut g = CsrGrid::build_parallel(&[], &[], &[], space(20.0), 2.0);
        let scenes = [
            (500, 1, 2.0),
            (PAST_32_KI, 2, 3.0),
            (200, 3, 2.5),
            (40_000, 4, 0.25),
        ];
        for (n, seed, edge) in scenes {
            let (xs, ys, zs) = cloud(n, seed, 20.0);
            let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(20.0), edge);
            // An owned scratch holds one voxel id per agent, however
            // many voxels there are.
            let mut scratch = CsrBuildScratch::default();
            let mut owned = CsrGrid::build_parallel(&[], &[], &[], space(20.0), edge);
            owned.rebuild_parallel(&xs, &ys, &zs, space(20.0), edge, &mut scratch);
            assert_eq!(owned.cell_agents, fresh.cell_agents, "{n} agents");
            assert_eq!(scratch.resident_bytes(), 4 * n, "{n} agents");
            // A new scene rebuilds; the same one again skips, on one
            // worker or on the ambient pool.
            for (serial, skips) in [(false, false), (true, true), (false, true)] {
                let mut rebuild =
                    || g.rebuild_parallel(&xs, &ys, &zs, space(20.0), edge, &mut buffer);
                let skipped = if serial {
                    one_worker(rebuild)
                } else {
                    rebuild()
                };
                assert_eq!(skipped, skips, "{n} agents");
                assert_eq!(g.cell_starts, fresh.cell_starts, "{n} agents");
                assert_eq!(g.cell_agents, fresh.cell_agents, "{n} agents");
            }
        }
        // The ids fit the reorder's 16 bytes per agent, on the sparse
        // scene too.
        assert_eq!(buffer.resident_bytes(), 16 * 40_000);
    }

    #[test]
    fn member_subset_build_matches_filtered_full_build() {
        let (xs, ys, zs) = cloud(400, 9, 16.0);
        let full = CsrGrid::build_parallel(&xs, &ys, &zs, space(16.0), 2.0);
        // Subset = two contiguous ascending-id ranges (the shard shape:
        // an owned range plus a halo range).
        let members: Vec<AgentId> = (50..200).chain(300..370).map(AgentId::from_index).collect();
        let in_subset =
            |id: &AgentId| (50..200).contains(&id.index()) || (300..370).contains(&id.index());
        let mut sub = CsrGrid::build_parallel(&[], &[], &[], space(16.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        sub.rebuild_from_members(&xs, &ys, &zs, &members, space(16.0), 2.0, &mut scratch);
        assert_eq!(sub.num_agents(), members.len());
        for v in 0..full.geometry().num_boxes() {
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
        let full = CsrGrid::build_parallel(&xs, &ys, &zs, space(12.0), 1.5);
        let members: Vec<AgentId> = (0..600).map(AgentId::from_index).collect();
        let mut sub = CsrGrid::build_parallel(&[], &[], &[], space(12.0), 1.5);
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
    /// step applies, the incremental rebuild (on one worker and on the
    /// ambient pool, with persistent scratch) is bitwise identical to a fresh full build —
    /// and both the skip path and the rebuild path are exercised.
    #[test]
    fn incremental_rebuild_matches_fresh_build_across_random_churn() {
        let extent = 12.0;
        let edge = 2.0;
        for seed in [70u64, 71, 72] {
            let mut rng = SplitMix64::new(seed);
            let (mut xs, mut ys, mut zs) = cloud(400, seed ^ 0xABCD, extent);
            let mut gs = CsrGrid::build_parallel(&[], &[], &[], space(extent), edge);
            let mut gp = CsrGrid::build_parallel(&[], &[], &[], space(extent), edge);
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
                let a =
                    one_worker(|| gs.rebuild_parallel(&xs, &ys, &zs, space(extent), edge, &mut ss));
                let b = gp.rebuild_parallel(&xs, &ys, &zs, space(extent), edge, &mut sp);
                assert_eq!(a, b, "one worker and the pool must agree on skipping");
                if a {
                    skipped += 1;
                } else {
                    rebuilt += 1;
                }
                let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(extent), edge);
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
        let mut g = CsrGrid::build_parallel(&[], &[], &[], space(10.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        assert!(!g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        assert!(
            g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch),
            "unchanged scene must skip"
        );
        // Within-voxel motion changes positions but not keys: skipped.
        let old = xs[0];
        xs[0] = (old / 2.0).floor() * 2.0 + 1.0; // voxel center
        assert!(g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        xs[0] += 0.5; // stays inside the 2.0-wide voxel
        assert!(g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        // Boundary crossing: rebuild.
        xs[0] += 2.0;
        assert!(!g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        // Two agents of different voxels trade places: same count, same
        // occupancy per voxel, but each slot now names the wrong agent.
        let other = (1..xs.len())
            .find(|&i| {
                g.geometry().box_index(Vec3::new(xs[i], ys[i], zs[i]))
                    != g.geometry().box_index(Vec3::new(xs[0], ys[0], zs[0]))
            })
            .expect("a second voxel");
        let (mut ys, mut zs) = (ys, zs);
        for col in [&mut xs, &mut ys, &mut zs] {
            col.swap(0, other);
        }
        assert!(!g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.0, &mut scratch));
        let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(10.0), 2.0);
        assert_eq!(g.cell_agents, fresh.cell_agents);
        // Geometry change with identical positions: rebuild.
        assert!(!g.rebuild_parallel(&xs, &ys, &zs, space(10.0), 2.5, &mut scratch));
        let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(10.0), 2.5);
        assert_eq!(g.cell_agents, fresh.cell_agents);
    }

    /// A member-subset (shard) build rewrites the arrays outside the
    /// full-column key space; the next full rebuild must not skip.
    #[test]
    fn member_rebuild_invalidates_the_incremental_signature() {
        let (xs, ys, zs) = cloud(300, 11, 12.0);
        let mut g = CsrGrid::build_parallel(&[], &[], &[], space(12.0), 2.0);
        let mut scratch = CsrBuildScratch::default();
        assert!(!g.rebuild_parallel(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch));
        assert!(g.rebuild_parallel(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch));
        let members: Vec<AgentId> = (0..100).map(AgentId::from_index).collect();
        g.rebuild_from_members(&xs, &ys, &zs, &members, space(12.0), 2.0, &mut scratch);
        assert_eq!(g.num_agents(), 100);
        assert!(
            !g.rebuild_parallel(&xs, &ys, &zs, space(12.0), 2.0, &mut scratch),
            "a shard recut must clear the skip signature"
        );
        let fresh = CsrGrid::build_parallel(&xs, &ys, &zs, space(12.0), 2.0);
        assert_eq!(g.cell_starts, fresh.cell_starts);
        assert_eq!(g.cell_agents, fresh.cell_agents);
    }

    /// The skip and [`CsrGrid::is_full_build_of`] ask one question: a
    /// geometry that differs by one bit of the edge or of a corner — the
    /// voxel counts unchanged, or a `-0.0` for a `0.0` — is never skipped
    /// onto, and once built it is.
    #[test]
    fn a_geometry_is_full_build_of_rejects_is_rebuilt() {
        let (xs, ys, zs) = cloud(300, 12, 12.0);
        let bump = |v: f64| f64::from_bits(v.to_bits() ^ 1);
        let base = space(12.0);
        let others = [
            (base, bump(2.0)),
            (Aabb::new(base.min, Vec3::new(bump(12.0), 12.0, 12.0)), 2.0),
            (Aabb::new(Vec3::new(-0.0, 0.0, 0.0), base.max), 2.0),
        ];
        let mut scratch = CsrBuildScratch::default();
        for (other, edge) in others {
            let mut g = CsrGrid::build_parallel(&xs, &ys, &zs, base, 2.0);
            assert!(g.is_full_build_of(base, 2.0));
            assert!(!g.is_full_build_of(other, edge), "{other:?} at {edge}");
            assert!(!g.rebuild_parallel(&xs, &ys, &zs, other, edge, &mut scratch));
            assert!(g.is_full_build_of(other, edge));
            assert!(g.rebuild_parallel(&xs, &ys, &zs, other, edge, &mut scratch));
        }
    }

    #[test]
    fn radius_search_matches_brute_force() {
        let (xs, ys, zs) = cloud(600, 5, 15.0);
        let g = CsrGrid::build_parallel(&xs, &ys, &zs, space(15.0), 2.0);
        let mut rng = SplitMix64::new(6);
        for _ in 0..40 {
            let q = Vec3::new(
                rng.uniform(0.0, 15.0),
                rng.uniform(0.0, 15.0),
                rng.uniform(0.0, 15.0),
            );
            let r = rng.uniform(0.2, 2.0);
            let mut got = Vec::new();
            g.for_each_within(&xs, &ys, &zs, q, r, None, |id| got.push(id));
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
        let csr = CsrGrid::build_parallel(&xs, &ys, &zs, space(12.0), 2.0);
        let ll = crate::UniformGrid::build_serial(&xs, &ys, &zs, space(12.0), 2.0);
        let q = Vec3::splat(6.0);
        let mut sink = Vec::new();
        let a = csr.for_each_within(&xs, &ys, &zs, q, 2.0, None, |id| sink.push(id));
        let b = ll.for_each_within(&xs, &ys, &zs, q, 2.0, None, |id| sink.push(id));
        // Same stencil, same candidates, same acceptances — only the
        // storage layout differs.
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_single_agent_grids() {
        let g = CsrGrid::<f64>::build_parallel(&[], &[], &[], space(10.0), 2.0);
        assert_eq!(g.num_agents(), 0);
        assert!(g.cell_range(0).is_empty());
        let g = CsrGrid::build_parallel(&[1.0], &[1.0], &[1.0], space(10.0), 2.0);
        assert_eq!(g.num_agents(), 1);
        assert_eq!(
            g.cell_range(g.geometry().box_index(Vec3::splat(1.0))).len(),
            1
        );
    }

    #[test]
    fn finite_out_of_space_agents_are_clamped_not_lost() {
        let xs = vec![-5.0, 15.0];
        let ys = vec![0.5, 9.5];
        let zs = vec![0.5, 9.5];
        let g = CsrGrid::build_parallel(&xs, &ys, &zs, space(10.0), 2.0);
        assert_eq!(*g.cell_starts().last().unwrap(), 2);
    }
}
