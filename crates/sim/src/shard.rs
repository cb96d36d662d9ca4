//! Hilbert-sharded domain decomposition.
//!
//! The simulation space is partitioned into contiguous spans of the
//! Hilbert curve ([`ShardMap`]): every grid voxel hashes to a curve key,
//! and shard `s` owns the keys in `[bounds[s], bounds[s+1])`. Because
//! the mechanical pass keeps agent storage sorted by `(voxel key, uid)`,
//! each shard's population is one contiguous slice of every SoA column —
//! no gather, no copy — and each shard builds its own CSR grid over its
//! agents plus a read-only **ghost halo** of boundary agents from
//! neighboring shards. The force pass itself is not this module's: the
//! driver hands its shard ranges (as cut points) and shard-local grids
//! to [`crate::mech::csr_sweep`] — the same sweep, at the same two
//! precisions, the global CSR pass runs — and each shard becomes one
//! part on its own rayon task.
//!
//! # Bitwise determinism (serial == sharded, any shard count)
//!
//! The sharded pass reproduces the unsharded CSR pass *bit for bit*:
//!
//! 1. **Halo completeness.** An owned agent's 27-voxel stencil only
//!    touches voxels that are owned or explicitly imported as halo, so
//!    every candidate the global grid would test is present.
//! 2. **Per-voxel list equality.** Same-key ⇔ same-voxel (the curve keys
//!    quantize exactly like [`bdm_grid::GridGeometry::box_coords`]), so
//!    a voxel's agents form one contiguous ascending run of the sorted
//!    storage; the stable member build
//!    ([`CsrGrid::rebuild_from_members`]) therefore reproduces every
//!    per-voxel id slice of the full build exactly.
//! 3. **Geometric enumeration order.** The stencil is walked through the
//!    shared [`bdm_grid::GridGeometry`] x-runs, a pure function of the
//!    agent's position — never of the shard partition.
//!
//! Together these make each agent's candidate sequence — and hence its
//! f64 force accumulation order, or its f32 lane packing — identical for
//! 1, 2, 4, 8, … shards and for the unsharded pass, which is what the
//! `shard_determinism` proptests pin at both precisions.

use crate::mech::{self, CsrParts, MechScratch, MechWork};
use crate::param::SimParams;
use crate::rm::{sort_phase, ReorderScratch, ResourceManager};
use bdm_grid::{CsrBuildScratch, CsrGrid, GridGeometry};
use bdm_math::Aabb;
use bdm_morton::{cell_keys, hilbert_decode3, hilbert_encode3, Curve, ShardMap};
use bdm_soa::AgentId;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Per-shard reusable state: the shard-local CSR grid (owned + halo
/// members, global agent ids), its build scratch, and the member /
/// halo-key staging buffers. Everything persists across steps so a
/// steady-state step allocates nothing.
#[derive(Default)]
struct ShardState {
    grid: Option<CsrGrid<f64>>,
    build: CsrBuildScratch,
    members: Vec<AgentId>,
    halo_keys: Vec<u64>,
}

/// The sharded step driver: shard map, sorted-key cache, per-shard CSR
/// grids, and the telemetry the `shard.*` metrics publish.
///
/// Owned by [`crate::Simulation`] when `SimParams::shards.count > 0`;
/// the mechanical operation routes the CSR environments (either
/// precision) through [`ShardedEnvironment::step`] and the scheduled
/// rebalance op calls [`ShardedEnvironment::rebalance`].
pub struct ShardedEnvironment {
    map: ShardMap,
    /// Hilbert voxel key of every agent, in (sorted) storage order —
    /// refreshed by [`Self::step`] after the sort.
    keys: Vec<u64>,
    sort_scratch: ReorderScratch,
    shards: Vec<ShardState>,
    /// Flat voxel index → Hilbert key, rebuilt when the grid dims
    /// change; turns halo discovery into table lookups.
    key_of_voxel: Vec<u64>,
    key_table_dims: [u32; 3],
    /// Current shard ranges over sorted storage (tile `0..n`).
    ranges: Vec<Range<usize>>,
    /// `(uid, shard)` snapshot of the last rebalance run, sorted by uid
    /// — the base the migration diff counts against.
    prev_assignment: Vec<(u64, u32)>,
    // ---- telemetry (read by Simulation::metrics) ----
    agents_per_shard: Vec<u64>,
    halo_per_shard: Vec<u64>,
    imbalance: f64,
    migrations: u64,
    rebalances: u64,
}

impl ShardedEnvironment {
    /// New driver with an even key-space split across `count` shards.
    pub fn new(count: usize) -> Self {
        Self {
            map: ShardMap::even(count),
            keys: Vec::new(),
            sort_scratch: ReorderScratch::default(),
            shards: Vec::new(),
            key_of_voxel: Vec::new(),
            key_table_dims: [0; 3],
            ranges: Vec::new(),
            prev_assignment: Vec::new(),
            agents_per_shard: Vec::new(),
            halo_per_shard: Vec::new(),
            imbalance: 1.0,
            migrations: 0,
            rebalances: 0,
        }
    }

    /// The current shard map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shards()
    }

    /// Agents owned per shard, as of the last sharded mechanical step.
    pub fn agents_per_shard(&self) -> &[u64] {
        &self.agents_per_shard
    }

    /// Halo agents imported per shard, as of the last sharded step.
    pub fn halo_per_shard(&self) -> &[u64] {
        &self.halo_per_shard
    }

    /// Max/mean shard population of the last sharded step.
    pub fn imbalance(&self) -> f64 {
        self.imbalance
    }

    /// Cumulative agents whose key crossed a shard boundary between
    /// rebalance checks.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// How many times the span boundaries were re-split.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Total halo agents of the last sharded step.
    pub fn halo_agents(&self) -> u64 {
        self.halo_per_shard.iter().sum()
    }

    /// `(uid, shard)` snapshot of the last rebalance run, sorted by uid
    /// (checkpoint export — the base the migration diff counts against).
    pub(crate) fn assignment_snapshot(&self) -> &[(u64, u32)] {
        &self.prev_assignment
    }

    /// Restore the trajectory-relevant rebalancer state from a
    /// checkpoint: the span map, the migration-diff base snapshot, and
    /// the cumulative counters. Everything else in this driver is
    /// per-step scratch that the next sharded step rebuilds from the
    /// agent columns; the map and snapshot, however, anchor when the
    /// *next* rebalance fires and what it counts, so a resumed run's
    /// `shard.migrations` / `shard.rebalances` metrics stay identical to
    /// an uninterrupted run's.
    pub(crate) fn restore_state(
        &mut self,
        map: ShardMap,
        prev_assignment: Vec<(u64, u32)>,
        migrations: u64,
        rebalances: u64,
    ) {
        self.map = map;
        self.prev_assignment = prev_assignment;
        self.migrations = migrations;
        self.rebalances = rebalances;
    }

    /// The sweep parts of the last sharded step: each shard's agent range
    /// and its shard-local grid.
    #[cfg(test)]
    pub(crate) fn parts(&self) -> impl Iterator<Item = (Range<usize>, &CsrGrid<f64>)> {
        let grids = self.shards.iter().map(|s| s.grid.as_ref().expect("built"));
        self.ranges.iter().cloned().zip(grids)
    }

    /// Shard-then-chunk cut points for the behavior/bound-space agent
    /// loops: every shard range, subdivided at `chunk`. `None` when the
    /// cached ranges don't tile the current population (population
    /// changed since the last sharded mechanical step, or none ran yet)
    /// — callers fall back to plain fixed-size chunking. Both
    /// partitions are ascending tilings of `0..n`, so the chunk-ordered
    /// context merge produces bitwise-identical outcomes either way;
    /// the shard cuts just keep each execution context shard-local.
    pub(crate) fn behavior_cuts(&self, n: usize, chunk: usize) -> Option<Vec<usize>> {
        let last = self.ranges.last()?;
        if last.end != n {
            return None;
        }
        let mut cuts = Vec::with_capacity(self.ranges.len() + n / chunk + 1);
        cuts.push(0);
        for r in &self.ranges {
            let mut c = r.start;
            while c < r.end {
                c = (c + chunk).min(r.end);
                cuts.push(c);
            }
        }
        debug_assert_eq!(cuts.last(), Some(&n));
        Some(cuts)
    }

    /// Rebuild the voxel→key table when the grid dimensions change
    /// (growth can enlarge the interaction radius and shrink the dims).
    fn refresh_key_table(&mut self, space: Aabb<f64>, radius: f64) -> GridGeometry<f64> {
        let geom = GridGeometry::new(space, radius);
        let dims = geom.dims();
        if self.key_table_dims != dims || self.key_of_voxel.is_empty() {
            self.key_table_dims = dims;
            self.key_of_voxel.clear();
            self.key_of_voxel.reserve(geom.num_boxes());
            // x-major, matching `GridGeometry::flat_index`.
            for cz in 0..dims[2] {
                for cy in 0..dims[1] {
                    for cx in 0..dims[0] {
                        self.key_of_voxel.push(hilbert_encode3(cx, cy, cz));
                    }
                }
            }
        }
        geom
    }

    /// One sharded CSR mechanical step on a non-empty population. Drop-in
    /// replacement for the global CSR pass — bitwise-identical
    /// displacements, identical work counters, at either precision —
    /// with the build + force phases running per shard: sort storage,
    /// rebuild each shard's grid, then hand the shard ranges and the
    /// shard-local grids to the same sweep the global pass runs
    /// ([`mech::csr_sweep`]), writing into the caller's scratch.
    /// `parallel` is the environment's build flag: it only labels the
    /// modeled phases — the shards always run as `par_*` tasks, on
    /// however many workers the step executes under.
    pub(crate) fn step(
        &mut self,
        rm: &mut ResourceManager,
        params: &SimParams,
        parallel: bool,
        scratch: &mut MechScratch,
    ) -> MechWork {
        let n = rm.len();
        let radius = mech::interaction_radius(rm, params);
        let space = params.space;

        // Phase 1: keep storage sorted by (Hilbert voxel key, uid) so
        // shard populations are contiguous slices. The (key, uid) pair
        // is a strict total order, so the layout is a pure function of
        // agent state — and within a voxel the order is ascending uid,
        // exactly the order a never-reordered run stores (insertion
        // order); this is what makes the sharded pass bitwise-equal to
        // the unsharded baseline rather than merely equivalent.
        let t0 = Instant::now();
        let moved = rm.sort_storage(
            &space,
            radius,
            Curve::Hilbert,
            &mut self.sort_scratch,
            Some(&mut self.keys),
        );
        let wall_sort = t0.elapsed().as_secs_f64();

        // Phase 2: shard ranges, then per-shard grids with ghost halos.
        let t1 = Instant::now();
        self.ranges = self.map.ranges(&self.keys);
        let geom = self.refresh_key_table(space, radius);
        if self.shards.len() != self.map.shards() {
            self.shards = (0..self.map.shards())
                .map(|_| ShardState::default())
                .collect();
        }
        let (xs, ys, zs) = rm.position_columns();
        let keys = &self.keys;
        let ranges = &self.ranges;
        let map = &self.map;
        let key_of_voxel = &self.key_of_voxel;
        let dims = geom.dims();
        let build_shard = |s: usize, st: &mut ShardState| -> u64 {
            let own = ranges[s].clone();
            st.halo_keys.clear();
            // Owned occupied voxels → off-shard stencil voxels (halo).
            let mut i = own.start;
            while i < own.end {
                let k = keys[i];
                while i < own.end && keys[i] == k {
                    i += 1;
                }
                let (cx, cy, cz) = hilbert_decode3(k);
                debug_assert_eq!(
                    key_of_voxel[geom.flat_index(cx, cy, cz)],
                    k,
                    "agent key must match its voxel's table entry"
                );
                let lo = |c: u32| c.saturating_sub(1);
                let hi = |c: u32, d: u32| (c + 1).min(d - 1);
                for nz in lo(cz)..=hi(cz, dims[2]) {
                    for ny in lo(cy)..=hi(cy, dims[1]) {
                        for nx in lo(cx)..=hi(cx, dims[0]) {
                            let nk = key_of_voxel[geom.flat_index(nx, ny, nz)];
                            if map.shard_of(nk) != s {
                                st.halo_keys.push(nk);
                            }
                        }
                    }
                }
            }
            st.halo_keys.sort_unstable();
            st.halo_keys.dedup();
            // Members: the owned slice plus each halo voxel's agent run
            // (binary search over the globally sorted key column). Every
            // voxel's agents enter as one ascending-id run, which is the
            // stable member build's bitwise-equality precondition.
            st.members.clear();
            st.members.extend(own.clone().map(AgentId::from_index));
            for &hk in &st.halo_keys {
                let lo = keys.partition_point(|&k| k < hk);
                let hi = lo + keys[lo..].partition_point(|&k| k == hk);
                st.members.extend((lo..hi).map(AgentId::from_index));
            }
            let halo = (st.members.len() - own.len()) as u64;
            let grid = st
                .grid
                .get_or_insert_with(|| mech::empty_csr(space, radius));
            grid.rebuild_from_members(xs, ys, zs, &st.members, space, radius, &mut st.build);
            halo
        };
        let halo_per_shard: Vec<u64> = self
            .shards
            .par_iter_mut()
            .enumerate()
            .map(|(s, st)| build_shard(s, st))
            .collect();
        let wall_build = t1.elapsed().as_secs_f64();

        // Telemetry for the `shard.*` gauges.
        self.agents_per_shard.clear();
        self.agents_per_shard
            .extend(self.ranges.iter().map(|r| r.len() as u64));
        self.halo_per_shard = halo_per_shard;
        self.imbalance = ShardMap::imbalance(&self.ranges);
        let members_total = n + self.halo_agents() as usize;

        // Build and force phases parallelize across *shards* (each shard
        // is one serial task), so a single-shard run is honestly serial
        // in the machine model; the sort is a global rayon argsort.
        let shard_parallel = parallel && self.map.shards() > 1;
        let timed = vec![
            (sort_phase("shard sort", n, moved, parallel), wall_sort),
            // The counting-sort build streams owned + halo members.
            (
                mech::csr_build_phase(members_total, false, shard_parallel),
                wall_build,
            ),
        ];

        // Phase 3: the force sweep, cut at the shard ranges. The shard
        // is the unit of parallelism — each shard's agents are one part,
        // swept serially on its own rayon task against the shard-local
        // grid (the chunked global pass already covers intra-grid
        // parallelism; the sharded pass exists to make the
        // *decomposition* the parallel grain).
        let cuts: Vec<usize> = std::iter::once(0)
            .chain(self.ranges.iter().map(|r| r.end))
            .collect();
        let grids: Vec<&CsrGrid<f64>> = self
            .shards
            .iter()
            .map(|st| st.grid.as_ref().expect("shard grid built this step"))
            .collect();
        let parts = CsrParts::Shards {
            cuts: &cuts,
            grids: &grids,
        };
        mech::csr_sweep(rm, params, scratch, timed, parts, shard_parallel)
    }

    /// Curve-order load rebalancing, run at the scheduled cadence:
    /// count boundary crossings since the last check (the
    /// `shard.migrations` counter), then re-split the span boundaries
    /// with [`ShardMap::balanced`] when the population imbalance has
    /// drifted past `params.shards.imbalance_threshold`.
    ///
    /// Returns `(migrations counted this run, whether a re-split
    /// happened)`. Purely observational with respect to the trajectory:
    /// the map only decides *where* work runs, never what it computes.
    pub(crate) fn rebalance(&mut self, rm: &ResourceManager, params: &SimParams) -> (u64, bool) {
        let n = rm.len();
        if n == 0 {
            self.prev_assignment.clear();
            return (0, false);
        }
        let (xs, ys, zs) = rm.position_columns();
        let radius = mech::interaction_radius(rm, params);
        let cells = cell_keys(xs, ys, zs, &params.space, radius, Curve::Hilbert);

        // Migration diff under the map both snapshots were taken with:
        // an agent migrated iff its uid appears in both snapshots with
        // different shards. Uids absent from the old snapshot are
        // births, absent from the new are deaths — neither migrates.
        let mut cur: Vec<(u64, u32)> = cells
            .iter()
            .zip(rm.uid_column())
            .map(|(&k, &uid)| (uid, self.map.shard_of(k) as u32))
            .collect();
        cur.sort_unstable_by_key(|&(uid, _)| uid);
        let mut moved = 0u64;
        let (mut a, mut b) = (0, 0);
        while a < self.prev_assignment.len() && b < cur.len() {
            let (pu, ps) = self.prev_assignment[a];
            let (cu, cs) = cur[b];
            match pu.cmp(&cu) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    if ps != cs {
                        moved += 1;
                    }
                    a += 1;
                    b += 1;
                }
            }
        }
        self.migrations += moved;

        // Re-split when the split of the *current* population drifted.
        let mut sorted = cells.clone();
        sorted.sort_unstable();
        let ranges = self.map.ranges(&sorted);
        let imbalance = ShardMap::imbalance(&ranges);
        let mut resplit = false;
        if imbalance > params.shards.imbalance_threshold {
            self.map = ShardMap::balanced(&sorted, self.map.shards());
            self.rebalances += 1;
            resplit = true;
            // Re-snapshot under the new map so the boundary move itself
            // is not counted as agent migration at the next check.
            cur = cells
                .iter()
                .zip(rm.uid_column())
                .map(|(&k, &uid)| (uid, self.map.shard_of(k) as u32))
                .collect();
            cur.sort_unstable_by_key(|&(uid, _)| uid);
        }
        self.prev_assignment = cur;
        (moved, resplit)
    }
}
