//! The resource manager: SoA storage of all agents.
//!
//! Mirrors BioDynaMo v0.0.9's structs-of-arrays engine (the property the
//! paper exploits for cheap device transfers, §IV): every attribute of
//! every agent lives in its own contiguous column, and every column is
//! plain `Copy` data (`bdm_soa::Column<T: Copy>`) — a reorder gather, a
//! swap-remove, a `clone()` and the checkpoint walk are copies of `len`
//! elements and never touch the heap per agent.
//!
//! The one attribute that is not a scalar — an agent's behavior *list* —
//! is interned: the manager owns a [`BehaviorTable`] of the distinct
//! lists and the per-agent column holds a `u32` id into it. A population
//! has a handful of lists (one per cell type) however many agents carry
//! them, so a daughter inherits her mother's id instead of a fresh copy
//! of the list.
//!
//! * **Lookup is by raw bits** ([`Behavior::to_bits`]), not by `==`:
//!   `-0.0 == 0.0` and `NaN != NaN`, so equality would merge two lists
//!   whose checkpoint bytes differ and never find a list holding a NaN
//!   again. By bits, every parameter round-trips exactly.
//! * **Ids are not observable.** They are a pure function of the `add`
//!   sequence (first seen, first numbered; id 0 is the empty list; the
//!   hash index is looked up, never iterated), but a restored manager
//!   re-interns in storage order and numbers the same lists differently.
//!   So no id ever leaves the manager's own columns and the records
//!   buffered from them within one step ([`AgentRow`]): accessors hand
//!   out the list, the checkpoint stores each agent's list, and nothing a
//!   run reports — digest, checkpoint bytes, any metric but the table's
//!   size — may depend on an id's value.

use crate::behavior::Behavior;
use crate::cell::CellBuilder;
use bdm_device::cpu::Phase;
use bdm_math::{Aabb, Vec3};
use bdm_morton::{CellCurve, Curve, RadixArgsort};
use bdm_soa::{gather_words, Column, Permutation, SoaVec3, Vec3ChunkMut};
use std::collections::HashMap;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable scratch of [`ResourceManager::sort_storage`] and
/// [`ResourceManager::apply_permutation`]: one word per agent — the cell
/// keys while the argsort runs, then every column's gathered values in
/// turn — and the argsort's two index buffers and histograms. 16 bytes
/// per agent and 64 KiB in all; held across steps, a reorder of a
/// population no larger than the last allocates nothing.
#[derive(Debug, Default)]
pub struct ReorderScratch {
    words: Vec<u64>,
    argsort: RadixArgsort,
}

impl ReorderScratch {
    /// Heap bytes the scratch holds: capacity times element size.
    pub fn resident_bytes(&self) -> usize {
        self.words.capacity() * size_of::<u64>() + self.argsort.resident_bytes()
    }
}

/// The modeled cost of one [`ResourceManager::sort_storage`] over `n`
/// agents of which `moved` were gathered: key computation + argsort +
/// (amortized) column gathers.
pub(crate) fn sort_phase(name: &'static str, n: usize, moved: u64, parallel: bool) -> Phase {
    Phase {
        parallel,
        ..Phase::parallel_fp64(
            name,
            30.0 * n as f64,
            32.0 * n as f64 + 136.0 * moved as f64,
            moved as f64,
        )
    }
}

/// The distinct behavior lists of a population (see the module docs).
#[derive(Debug, Clone)]
pub struct BehaviorTable {
    /// Every list back to back: list `id` is
    /// `flat[starts[id]..starts[id + 1]]`.
    flat: Vec<Behavior>,
    starts: Vec<usize>,
    /// Raw-bit key (three words per behavior) → id.
    index: HashMap<Vec<u64>, u32>,
    /// The key being looked up — kept, so a hit allocates nothing.
    key: Vec<u64>,
    /// The id [`Self::intern`] returned last: consecutive adds mostly
    /// share a list, and comparing against it skips the hash.
    last: u32,
}

impl Default for BehaviorTable {
    /// A table holding only the empty list (id 0).
    fn default() -> Self {
        Self {
            flat: Vec::new(),
            starts: vec![0, 0],
            index: HashMap::new(),
            key: Vec::new(),
            last: 0,
        }
    }
}

/// `list` as the words it is interned by.
fn bits(list: &[Behavior]) -> impl Iterator<Item = [u64; 3]> + '_ {
    list.iter().map(Behavior::to_bits)
}

impl BehaviorTable {
    /// Number of distinct lists, the empty one included.
    pub fn lists(&self) -> usize {
        self.starts.len() - 1
    }

    /// The list behind `id`.
    ///
    /// # Panics
    /// When `id` is not one this table handed out.
    #[inline(always)]
    pub fn list(&self, id: u32) -> &[Behavior] {
        let id = id as usize;
        &self.flat[self.starts[id]..self.starts[id + 1]]
    }

    /// The id of `list`, added to the table when no list with the same
    /// bits is in it yet.
    pub fn intern(&mut self, list: &[Behavior]) -> u32 {
        // In this order: the empty list (most benchmark clouds carry
        // nothing else) costs one branch, a repeat of the previous list
        // a few word compares, and only a change of list the hash.
        if list.is_empty() {
            return 0;
        }
        if bits(self.list(self.last)).eq(bits(list)) {
            return self.last;
        }
        self.key.clear();
        self.key.extend(bits(list).flatten());
        self.last = match self.index.get(self.key.as_slice()) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.lists()).expect("more than u32::MAX behavior lists");
                self.flat.extend_from_slice(list);
                self.starts.push(self.flat.len());
                self.index.insert(self.key.clone(), id);
                id
            }
        };
        self.last
    }

    /// Heap bytes the table holds: the lists, their offsets, and the
    /// index's keys and slots.
    pub fn resident_bytes(&self) -> usize {
        self.flat.capacity() * size_of::<Behavior>()
            + self.starts.capacity() * size_of::<usize>()
            + self.index.capacity() * size_of::<(Vec<u64>, u32)>()
            + (3 * self.flat.len() + self.key.capacity()) * size_of::<u64>()
    }
}

/// One agent's column values as plain data — what [`ResourceManager::add`]
/// appends and what a division buffers for its daughter (56 bytes with
/// the mother's uid beside it, no heap).
#[derive(Debug, Clone, Copy)]
pub struct AgentRow {
    /// Position.
    pub position: Vec3<f64>,
    /// Diameter.
    pub diameter: f64,
    /// Adherence threshold.
    pub adherence: f64,
    /// Behavior-list id in the table of the manager the row is appended
    /// to — for a daughter, her mother's ([`AgentShared::behavior_id`]).
    pub behaviors: u32,
}

/// Cached population maximum diameter, with a holder count.
///
/// The uniform-grid box-length policy reads [`ResourceManager::largest_diameter`]
/// on *every* grid build; re-scanning all agents each step is pure waste
/// whenever no diameter changed (benchmark B never grows a cell). The
/// value is an `AtomicU64` holding the `f64` bit pattern so the read
/// path works through `&self` (the resource manager is shared across
/// rayon workers during the mechanical pass); `u64::MAX` — a NaN bit
/// pattern no finite diameter produces — marks it invalid.
///
/// `holders` counts how many agents currently carry the maximum. Without
/// it, removing *any* maximum-diameter agent had to pessimistically
/// invalidate — and in a uniform-diameter population (every benchmark
/// cloud) every death is a "maximum" death, so each step's
/// `interaction_radius` lookup degenerated into a full column scan.
/// With the count, removals and shrinks only invalidate when the *last*
/// holder goes away. `scans` counts the full-column rescans actually
/// performed, so tests and benches can pin cache effectiveness.
#[derive(Debug)]
struct MaxDiameterCache {
    bits: AtomicU64,
    holders: AtomicU64,
    scans: AtomicU64,
}

impl MaxDiameterCache {
    const INVALID: u64 = u64::MAX;

    fn get(&self) -> Option<f64> {
        let bits = self.bits.load(Ordering::Relaxed);
        (bits != Self::INVALID).then(|| f64::from_bits(bits))
    }

    fn set(&self, v: f64, holders: u64) {
        debug_assert!(v.to_bits() != Self::INVALID);
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.holders.store(holders, Ordering::Relaxed);
    }

    /// One more agent now carries the cached maximum.
    fn add_holder(&self) {
        self.holders.fetch_add(1, Ordering::Relaxed);
    }

    /// One agent carrying the cached maximum went away (removed or
    /// shrunk); only the last holder's departure invalidates.
    fn drop_holder(&self) {
        if self.holders.fetch_sub(1, Ordering::Relaxed) <= 1 {
            self.invalidate();
        }
    }

    fn invalidate(&self) {
        self.bits.store(Self::INVALID, Ordering::Relaxed);
        self.holders.store(0, Ordering::Relaxed);
    }

    fn note_scan(&self) {
        self.scans.fetch_add(1, Ordering::Relaxed);
    }

    fn scans(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }
}

impl Default for MaxDiameterCache {
    fn default() -> Self {
        Self {
            bits: AtomicU64::new(Self::INVALID),
            holders: AtomicU64::new(0),
            scans: AtomicU64::new(0),
        }
    }
}

impl Clone for MaxDiameterCache {
    fn clone(&self) -> Self {
        Self {
            bits: AtomicU64::new(self.bits.load(Ordering::Relaxed)),
            holders: AtomicU64::new(self.holders.load(Ordering::Relaxed)),
            scans: AtomicU64::new(self.scans.load(Ordering::Relaxed)),
        }
    }
}

/// SoA storage of the whole agent population (precision: `f64`,
/// BioDynaMo's storage default; GPU versions narrow on upload).
#[derive(Debug, Clone, Default)]
pub struct ResourceManager {
    positions: SoaVec3<f64>,
    diameters: Column<f64>,
    adherences: Column<f64>,
    /// Per-agent behavior-list ids into `table`.
    behavior_ids: Column<u32>,
    table: BehaviorTable,
    /// Stable unique ids (survive reordering; seed per-agent RNG streams).
    uids: Column<u64>,
    next_uid: u64,
    largest: MaxDiameterCache,
    /// Dirty epoch of the position columns: bumped by every mutation that
    /// can change any stored coordinate (or the column length/order).
    /// Consumers holding derived copies — the mechanical pass's `f32`
    /// mirrors — compare epochs instead of data to decide whether to
    /// re-convert (see `bdm_soa::F32Mirror`).
    pos_epoch: u64,
    /// Dirty epoch of the per-agent attribute columns (diameters,
    /// adherences), same contract as `pos_epoch`.
    attr_epoch: u64,
}

impl ResourceManager {
    /// Empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.diameters.len()
    }

    /// `true` when no agents exist.
    pub fn is_empty(&self) -> bool {
        self.diameters.is_empty()
    }

    /// Add a cell; returns its index.
    pub fn add(&mut self, cell: CellBuilder) -> usize {
        let behaviors = self.table.intern(&cell.behaviors);
        self.append(std::iter::once(AgentRow {
            position: cell.position,
            diameter: cell.diameter,
            adherence: cell.adherence,
            behaviors,
        }));
        self.len() - 1
    }

    /// Append `rows` in order — the only way agents enter the columns.
    /// Every column grows once for the whole batch (a division wave
    /// doubles the population), and each row then does what one
    /// [`Self::add`] does: the next uid, one tick of both dirty epochs,
    /// the largest-diameter holder count kept.
    ///
    /// # Panics
    /// On a behavior-list id this manager's table never handed out.
    pub fn append(&mut self, rows: impl ExactSizeIterator<Item = AgentRow>) {
        let n = rows.len();
        self.positions.reserve(n);
        self.diameters.reserve(n);
        self.adherences.reserve(n);
        self.behavior_ids.reserve(n);
        self.uids.reserve(n);
        self.pos_epoch += n as u64;
        self.attr_epoch += n as u64;
        let lists = self.table.lists();
        for row in rows {
            let id = row.behaviors;
            assert!((id as usize) < lists, "behavior list {id} of {lists}");
            if let Some(cur) = self.largest.get() {
                if row.diameter > cur {
                    self.largest.set(row.diameter, 1);
                } else if row.diameter == cur {
                    self.largest.add_holder();
                }
            }
            self.positions.push(row.position);
            self.diameters.push(row.diameter);
            self.adherences.push(row.adherence);
            self.behavior_ids.push(id);
            self.uids.push(self.next_uid);
            self.next_uid += 1;
        }
    }

    /// Remove agent `i` (swap-remove across every column).
    ///
    /// Contract: the **last** agent is moved into slot `i`, so any index
    /// `> i` a caller still holds is invalidated — specifically, a held
    /// index equal to the old last slot now refers to agent `i`'s former
    /// contents' replacement. Returns `Some(old_last_index)` when such a
    /// move happened (the agent previously at that index now lives at
    /// `i`), or `None` when `i` was the last agent and nothing moved.
    /// Callers holding multiple indices must either remove in descending
    /// index order (the death sweep in `exec::merge_in_order` does) or
    /// remap through the returned index.
    pub fn remove(&mut self, i: usize) -> Option<usize> {
        let last = self.len() - 1;
        self.pos_epoch += 1;
        self.attr_epoch += 1;
        self.positions.swap_remove(i);
        let d = self.diameters.swap_remove(i);
        // The removed agent may have been a maximum holder; only the last
        // holder's departure forces a rescan (uniform-diameter populations
        // lose "a maximum" on every death).
        if self.largest.get() == Some(d) {
            self.largest.drop_holder();
        }
        self.adherences.swap_remove(i);
        self.behavior_ids.swap_remove(i);
        self.uids.swap_remove(i);
        (i < last).then_some(last)
    }

    /// Reorder every column with one gather permutation (`new[k] =
    /// old[perm[k]]`), the storage half of the paper's Improvement II:
    /// after sorting `perm` along a space-filling curve, agents that are
    /// close in space are close in every SoA column. Identity stable:
    /// `uids` travel with their agents, so per-uid identity (and the
    /// uid-seeded RNG streams) survive any number of reorders. The
    /// largest-diameter cache is untouched — a permutation cannot change
    /// the population maximum.
    ///
    /// Every column goes through the scratch's one word buffer
    /// (`bdm_soa::gather_words`).
    pub fn apply_permutation(&mut self, perm: &Permutation, scratch: &mut ReorderScratch) {
        assert_eq!(perm.len(), self.len(), "permutation/population mismatch");
        self.gather(perm.gather_indices(), &mut scratch.words);
    }

    /// [`Self::apply_permutation`] by raw gather indices (a bijection of
    /// `0..len`) through `words`.
    fn gather(&mut self, order: &[u32], words: &mut Vec<u64>) {
        // Index-addressed consumers (the f32 mirrors) see a different
        // column even though the multiset of agents is unchanged.
        self.pos_epoch += 1;
        self.attr_epoch += 1;
        let (xs, ys, zs) = self.positions.as_mut_slices();
        for col in [xs, ys, zs] {
            gather_words(order, col, words);
        }
        gather_words(order, self.diameters.as_mut_slice(), words);
        gather_words(order, self.adherences.as_mut_slice(), words);
        gather_words(order, self.uids.as_mut_slice(), words);
        gather_words(order, self.behavior_ids.as_mut_slice(), words);
    }

    /// Sort storage by the pair `(curve key of the agent's voxel in a
    /// grid of `space` cut at edge `cell_len`, uid)` — a strict total
    /// order, so the layout is a pure function of per-agent state, and
    /// within a voxel ascending uid, the order a never-sorted run stores.
    /// Returns how many agents were gathered: a parallel sortedness scan
    /// that writes nothing skips the argsort *and* every column gather
    /// when nothing drifted. Otherwise the keys go into the scratch's
    /// word buffer, [`RadixArgsort`] orders them (each voxel's run by
    /// uid), and every column gathers through the same buffer.
    /// `sorted_keys`, when asked for, receives every agent's voxel key
    /// in the storage order the call leaves.
    pub fn sort_storage(
        &mut self,
        space: &Aabb<f64>,
        cell_len: f64,
        curve: Curve,
        scratch: &mut ReorderScratch,
        sorted_keys: Option<&mut Vec<u64>>,
    ) -> u64 {
        let cells = CellCurve::new(space, cell_len, curve);
        let (xs, ys, zs) = self.position_columns();
        let uids = self.uid_column();
        let moved = if cells.is_sorted_with(xs, ys, zs, uids) {
            0
        } else {
            let ReorderScratch { words, argsort } = scratch;
            cells.keys_into(xs, ys, zs, words);
            let order = argsort.sort(words, Some(uids));
            self.gather(order, words);
            self.len() as u64
        };
        if let Some(keys) = sorted_keys {
            let (xs, ys, zs) = self.position_columns();
            cells.keys_into(xs, ys, zs, keys);
        }
        moved
    }

    /// Position of agent `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Vec3<f64> {
        self.positions.get(i)
    }

    /// Overwrite agent `i`'s position.
    #[inline]
    pub fn set_position(&mut self, i: usize, p: Vec3<f64>) {
        self.pos_epoch += 1;
        self.positions.set(i, p);
    }

    /// Translate agent `i`.
    #[inline]
    pub fn translate(&mut self, i: usize, delta: Vec3<f64>) {
        self.pos_epoch += 1;
        self.positions.add_assign(i, delta);
    }

    /// Diameter of agent `i`.
    #[inline]
    pub fn diameter(&self, i: usize) -> f64 {
        *self.diameters.get(i)
    }

    /// Overwrite agent `i`'s diameter.
    #[inline]
    pub fn set_diameter(&mut self, i: usize, d: f64) {
        self.attr_epoch += 1;
        if let Some(cur) = self.largest.get() {
            let old = *self.diameters.get(i);
            if d > cur {
                self.largest.set(d, 1);
            } else if d == cur {
                if old != cur {
                    // Grew into a tie with the maximum.
                    self.largest.add_holder();
                }
            } else if old == cur {
                // Shrunk a maximum holder; rescans only when it was the
                // last one.
                self.largest.drop_holder();
            }
        }
        self.diameters.set(i, d);
    }

    /// Adherence of agent `i`.
    #[inline]
    pub fn adherence(&self, i: usize) -> f64 {
        *self.adherences.get(i)
    }

    /// Stable unique id of agent `i`.
    #[inline]
    pub fn uid(&self, i: usize) -> u64 {
        *self.uids.get(i)
    }

    /// Behaviors of agent `i`.
    #[inline]
    pub fn behaviors(&self, i: usize) -> &[Behavior] {
        self.table.list(*self.behavior_ids.get(i))
    }

    /// Largest diameter in the population — BioDynaMo's uniform-grid box
    /// length policy ("each voxel … determined by the largest agent").
    ///
    /// O(1) when the cache is valid; otherwise one counted rescan whose
    /// result (maximum *and* how many agents hold it) is memoized until
    /// the last holder is removed/shrunk or a raw write invalidates it.
    pub fn largest_diameter(&self) -> f64 {
        if let Some(v) = self.largest.get() {
            return v;
        }
        self.largest.note_scan();
        let mut v = 0.0f64;
        let mut holders = 0u64;
        for &d in self.diameters.iter() {
            if d > v {
                v = d;
                holders = 1;
            } else if d == v {
                holders += 1;
            }
        }
        // An empty population scans to (0.0, 0 holders); the count only
        // matters while agents exist, and the first `add` re-seeds it.
        self.largest.set(v, holders);
        v
    }

    /// Number of full diameter-column scans [`ResourceManager::largest_diameter`]
    /// has performed over this manager's lifetime. Steady-state stepping
    /// must not grow this — the cache (plus its maximum-holder count) is
    /// what keeps the per-step `interaction_radius` lookup O(1).
    pub fn diameter_scan_count(&self) -> u64 {
        self.largest.scans()
    }

    /// Drop the cached largest diameter. Must be called by anything that
    /// writes diameters *around* [`ResourceManager::set_diameter`] — i.e.
    /// through the raw chunk views of [`ResourceManager::behavior_chunks`].
    pub fn invalidate_largest_diameter(&mut self) {
        self.attr_epoch += 1;
        self.largest.invalidate();
    }

    /// The position columns `(x, y, z)` — what the environments index and
    /// the GPU pipeline uploads.
    pub fn position_columns(&self) -> (&[f64], &[f64], &[f64]) {
        self.positions.as_slices()
    }

    /// Dirty epoch of the position columns: changes whenever any stored
    /// coordinate (or the column length/order) may have changed. Pass to
    /// `bdm_soa::F32Mirror::refresh` to keep a cast copy current without
    /// re-converting unchanged data.
    pub fn positions_epoch(&self) -> u64 {
        self.pos_epoch
    }

    /// Dirty epoch of the attribute columns (diameters, adherences);
    /// same contract as [`ResourceManager::positions_epoch`].
    pub fn attributes_epoch(&self) -> u64 {
        self.attr_epoch
    }

    /// Split the per-agent *mutable* state (position, diameter) into
    /// disjoint fixed-size chunk views, alongside one shared view of the
    /// read-only columns (behaviors, uids, adherences).
    ///
    /// This is the substrate of the parallel agent operations: each rayon
    /// task owns one [`AgentChunkMut`] (no aliasing, no locks), while the
    /// [`AgentShared`] columns are read from every task. The fixed chunk
    /// size keeps the partition identical no matter how many threads run,
    /// which is what makes chunk-ordered merges bitwise deterministic.
    ///
    /// Writing diameters through the raw views bypasses the
    /// [`ResourceManager::largest_diameter`] cache maintenance; callers
    /// that do so must call
    /// [`ResourceManager::invalidate_largest_diameter`] afterwards (the
    /// behaviors operation does this in its merge phase).
    pub fn behavior_chunks(&mut self, chunk: usize) -> (Vec<AgentChunkMut<'_>>, AgentShared<'_>) {
        assert!(chunk > 0, "chunk size must be positive");
        // Conservative: handing out raw mutable position views may dirty
        // any coordinate (the bound-space clamp runs every step), so the
        // position epoch advances up front. Raw *diameter* writes are
        // covered by the caller's mandatory
        // `invalidate_largest_diameter`, which bumps the attribute epoch.
        self.pos_epoch += 1;
        let views = self
            .positions
            .chunks_mut(chunk)
            .zip(self.diameters.chunks_mut(chunk))
            .enumerate()
            .map(|(c, (pos, diam))| AgentChunkMut {
                start: c * chunk,
                pos,
                diam,
            })
            .collect();
        let shared = AgentShared {
            behavior_ids: self.behavior_ids.as_slice(),
            table: &self.table,
            uids: self.uids.as_slice(),
            adherences: self.adherences.as_slice(),
        };
        (views, shared)
    }

    /// [`Self::behavior_chunks`], but partitioned at explicit `cuts`
    /// instead of a uniform chunk size: window `w` covers agents
    /// `cuts[w]..cuts[w + 1]`. This is the sharded partition — each
    /// shard's contiguous agent range subdivided into work chunks, so
    /// chunk boundaries never straddle a shard boundary and per-shard
    /// contexts merge in shard-then-chunk order. Same cache contract as
    /// [`Self::behavior_chunks`] (raw diameter writes require
    /// [`Self::invalidate_largest_diameter`] afterwards).
    pub fn behavior_chunks_at(
        &mut self,
        cuts: &[usize],
    ) -> (Vec<AgentChunkMut<'_>>, AgentShared<'_>) {
        self.pos_epoch += 1;
        let views = self
            .positions
            .chunks_mut_at(cuts)
            .into_iter()
            .zip(bdm_soa::split_mut_at(self.diameters.as_mut_slice(), cuts))
            .zip(cuts.iter())
            .map(|((pos, diam), &start)| AgentChunkMut { start, pos, diam })
            .collect();
        let shared = AgentShared {
            behavior_ids: self.behavior_ids.as_slice(),
            table: &self.table,
            uids: self.uids.as_slice(),
            adherences: self.adherences.as_slice(),
        };
        (views, shared)
    }

    /// Diameter column.
    pub fn diameter_column(&self) -> &[f64] {
        self.diameters.as_slice()
    }

    /// Stable unique-id column.
    pub fn uid_column(&self) -> &[u64] {
        self.uids.as_slice()
    }

    /// Adherence column.
    pub fn adherence_column(&self) -> &[f64] {
        self.adherences.as_slice()
    }

    /// Per-agent behavior lists, storage order — materialised from the
    /// id column, for export and tests (stepping reads
    /// [`Self::behaviors`]).
    pub fn behaviors_column(&self) -> Vec<&[Behavior]> {
        let ids = self.behavior_ids.iter();
        ids.map(|&id| self.table.list(id)).collect()
    }

    /// Number of distinct behavior lists the population has carried, the
    /// empty one included.
    pub fn behavior_lists(&self) -> usize {
        self.table.lists()
    }

    /// Heap bytes the agent state holds: every column's capacity times
    /// its element size (52 bytes per slot), plus the behavior table.
    pub fn resident_bytes(&self) -> usize {
        self.positions.allocated_bytes()
            + (self.diameters.capacity() + self.adherences.capacity()) * size_of::<f64>()
            + self.uids.capacity() * size_of::<u64>()
            + self.behavior_ids.capacity() * size_of::<u32>()
            + self.table.resident_bytes()
    }

    /// The next uid [`ResourceManager::add`] would assign — strictly
    /// greater than every live uid. Checkpointed so restored runs keep
    /// minting fresh, never-recycled uids (the uid-seeded RNG streams
    /// and the uid-keyed merges both depend on that).
    pub fn next_uid(&self) -> u64 {
        self.next_uid
    }

    /// Rebuild a manager from exported column state — the checkpoint
    /// import path. Validates what silent acceptance would corrupt:
    /// column lengths must agree, every behavior-list id must be one
    /// `table` holds, uids must be unique, and `next_uid` must exceed
    /// every live uid. The largest-diameter cache starts invalid (it is
    /// derived state; the first lookup rescans), and the dirty epochs
    /// are restored verbatim so a re-checkpoint of the restored state is
    /// byte-identical.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        positions: SoaVec3<f64>,
        diameters: Vec<f64>,
        adherences: Vec<f64>,
        behavior_ids: Vec<u32>,
        table: BehaviorTable,
        uids: Vec<u64>,
        next_uid: u64,
        pos_epoch: u64,
        attr_epoch: u64,
    ) -> Result<Self, String> {
        let n = positions.len();
        let lens = [
            diameters.len(),
            adherences.len(),
            behavior_ids.len(),
            uids.len(),
        ];
        if lens != [n; 4] {
            return Err(format!(
                "column lengths disagree: positions {n}, diameters / adherences / \
                 behaviors / uids {lens:?}"
            ));
        }
        let lists = table.lists();
        if let Some(id) = behavior_ids.iter().find(|&&id| id as usize >= lists) {
            return Err(format!("behavior list id {id} of a table of {lists}"));
        }
        let mut sorted = uids.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate agent uid {}", w[0]));
        }
        if let Some(&max) = sorted.last() {
            if next_uid <= max {
                return Err(format!(
                    "next_uid {next_uid} must exceed the largest live uid {max}"
                ));
            }
        }
        Ok(Self {
            positions,
            diameters: Column::from_vec(diameters),
            adherences: Column::from_vec(adherences),
            behavior_ids: Column::from_vec(behavior_ids),
            table,
            uids: Column::from_vec(uids),
            next_uid,
            largest: MaxDiameterCache::default(),
            pos_epoch,
            attr_epoch,
        })
    }

    /// Sum of all agent volumes (conservation diagnostics in tests).
    pub fn total_volume(&self) -> f64 {
        self.diameters
            .iter()
            .map(|&d| crate::behavior::volume_of(d))
            .sum()
    }

    /// Centroid of the population.
    pub fn centroid(&self) -> Vec3<f64> {
        let n = self.len().max(1) as f64;
        let mut sum = Vec3::zero();
        for i in 0..self.len() {
            sum += self.position(i);
        }
        sum / n
    }
}

/// Disjoint mutable window over one chunk of agents' writable state
/// (position + diameter). Indices are chunk-local; [`AgentChunkMut::start`]
/// maps them back to global agent indices.
pub struct AgentChunkMut<'a> {
    start: usize,
    pos: Vec3ChunkMut<'a, f64>,
    diam: &'a mut [f64],
}

impl AgentChunkMut<'_> {
    /// Global index of this chunk's first agent.
    #[inline(always)]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Agents in this chunk.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.diam.len()
    }

    /// `true` when the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.diam.is_empty()
    }

    /// Position of local agent `k`.
    #[inline(always)]
    pub fn position(&self, k: usize) -> Vec3<f64> {
        self.pos.get(k)
    }

    /// Overwrite local agent `k`'s position.
    #[inline(always)]
    pub fn set_position(&mut self, k: usize, p: Vec3<f64>) {
        self.pos.set(k, p);
    }

    /// Translate local agent `k`.
    #[inline(always)]
    pub fn translate(&mut self, k: usize, delta: Vec3<f64>) {
        self.pos.add_assign(k, delta);
    }

    /// Diameter of local agent `k`.
    #[inline(always)]
    pub fn diameter(&self, k: usize) -> f64 {
        self.diam[k]
    }

    /// Overwrite local agent `k`'s diameter (raw write — the owning
    /// operation invalidates the largest-diameter cache at merge time).
    #[inline(always)]
    pub fn set_diameter(&mut self, k: usize, d: f64) {
        self.diam[k] = d;
    }
}

/// Shared (read-only) view of the agent columns a behavior pass never
/// writes: behavior lists (id column + table), uids, adherences. One
/// instance is borrowed by every parallel chunk task, indexed by *global*
/// agent index.
pub struct AgentShared<'a> {
    behavior_ids: &'a [u32],
    table: &'a BehaviorTable,
    uids: &'a [u64],
    adherences: &'a [f64],
}

impl AgentShared<'_> {
    /// Behaviors of agent `i` — borrowed from the table.
    #[inline(always)]
    pub fn behaviors(&self, i: usize) -> &[Behavior] {
        self.table.list(self.behavior_ids[i])
    }

    /// Agent `i`'s behavior-list id: what a daughter's [`AgentRow`]
    /// inherits instead of a copy of the list.
    #[inline(always)]
    pub fn behavior_id(&self, i: usize) -> u32 {
        self.behavior_ids[i]
    }

    /// Stable unique id of agent `i`.
    #[inline(always)]
    pub fn uid(&self, i: usize) -> u64 {
        self.uids[i]
    }

    /// Adherence of agent `i`.
    #[inline(always)]
    pub fn adherence(&self, i: usize) -> f64 {
        self.adherences[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_at(x: f64) -> CellBuilder {
        CellBuilder::new(Vec3::new(x, 0.0, 0.0))
    }

    #[test]
    fn add_assigns_monotonic_uids() {
        let mut rm = ResourceManager::new();
        let a = rm.add(cell_at(0.0));
        let b = rm.add(cell_at(1.0));
        assert_eq!(rm.uid(a), 0);
        assert_eq!(rm.uid(b), 1);
        assert_eq!(rm.len(), 2);
    }

    #[test]
    fn remove_keeps_columns_aligned() {
        let mut rm = ResourceManager::new();
        rm.add(cell_at(0.0).diameter(1.0));
        rm.add(cell_at(1.0).diameter(2.0));
        rm.add(cell_at(2.0).diameter(3.0));
        assert_eq!(rm.remove(0), Some(2), "agent 2 was moved into slot 0");
        assert_eq!(rm.len(), 2);
        // Swap-remove moved the last agent into slot 0.
        assert_eq!(rm.position(0).x, 2.0);
        assert_eq!(rm.diameter(0), 3.0);
        assert_eq!(rm.uid(0), 2);
        // Removing the last agent moves nothing.
        assert_eq!(rm.remove(1), None);
        assert_eq!(rm.uid(0), 2);
    }

    #[test]
    fn remove_reports_the_moved_from_index() {
        // The swap-remove contract: callers holding an index into the
        // tail can remap it through the returned old-last index.
        let mut rm = ResourceManager::new();
        for i in 0..5 {
            rm.add(cell_at(i as f64));
        }
        let mut held = 4; // track agent uid 4 by index
        let moved_from = rm.remove(1).expect("tail moved");
        if held == moved_from {
            held = 1;
        }
        assert_eq!(rm.uid(held), 4, "remapped index follows the agent");
    }

    #[test]
    fn apply_permutation_reorders_every_column_and_keeps_uids_stable() {
        let mut rm = ResourceManager::new();
        for i in 0..4 {
            rm.add(
                cell_at(i as f64)
                    .diameter(1.0 + i as f64)
                    .behavior(Behavior::Apoptosis {
                        probability: 0.1 * i as f64,
                    }),
            );
        }
        let max_before = rm.largest_diameter();
        let perm = Permutation::new(vec![3, 1, 0, 2]);
        let mut scratch = ReorderScratch::default();
        rm.apply_permutation(&perm, &mut scratch);
        // Every column gathered through the same permutation; uid still
        // identifies the same agent state after the move.
        for (new_i, &old_i) in [3usize, 1, 0, 2].iter().enumerate() {
            assert_eq!(rm.uid(new_i), old_i as u64);
            assert_eq!(rm.position(new_i).x, old_i as f64);
            assert_eq!(rm.diameter(new_i), 1.0 + old_i as f64);
            assert_eq!(
                rm.behaviors(new_i),
                &[Behavior::Apoptosis {
                    probability: 0.1 * old_i as f64
                }]
            );
        }
        // A permutation cannot change the population maximum.
        assert_eq!(rm.largest_diameter(), max_before);
        // Scratch is reused across calls.
        rm.apply_permutation(&Permutation::identity(4), &mut scratch);
        assert_eq!(rm.uid(0), 3);
    }

    #[test]
    fn largest_diameter_tracks_population() {
        let mut rm = ResourceManager::new();
        assert_eq!(rm.largest_diameter(), 0.0);
        rm.add(cell_at(0.0).diameter(4.0));
        rm.add(cell_at(1.0).diameter(9.0));
        assert_eq!(rm.largest_diameter(), 9.0);
    }

    #[test]
    fn largest_diameter_cache_survives_mutation_sequences() {
        // Every mutation path (add / grow / shrink / remove / raw chunk
        // write + invalidate) must leave the cache agreeing with a rescan.
        let oracle =
            |rm: &ResourceManager| (0..rm.len()).map(|i| rm.diameter(i)).fold(0.0, f64::max);
        let mut rm = ResourceManager::new();
        for d in [3.0, 8.0, 5.0] {
            rm.add(cell_at(d).diameter(d));
            assert_eq!(rm.largest_diameter(), oracle(&rm));
        }
        // Grow a non-max agent past the max.
        rm.set_diameter(0, 9.5);
        assert_eq!(rm.largest_diameter(), 9.5);
        // Shrink the max holder: forces the lazy rescan.
        rm.set_diameter(0, 1.0);
        assert_eq!(rm.largest_diameter(), 8.0);
        // Remove the max holder.
        rm.remove(1);
        assert_eq!(rm.largest_diameter(), oracle(&rm));
        // Raw chunk write + explicit invalidation.
        let (mut chunks, _shared) = rm.behavior_chunks(16);
        chunks[0].set_diameter(0, 20.0);
        drop(chunks);
        rm.invalidate_largest_diameter();
        assert_eq!(rm.largest_diameter(), 20.0);
        // Ties: two max holders, removing one keeps the other.
        let mut rm = ResourceManager::new();
        rm.add(cell_at(0.0).diameter(7.0));
        rm.add(cell_at(1.0).diameter(7.0));
        assert_eq!(rm.largest_diameter(), 7.0);
        rm.remove(0);
        assert_eq!(rm.largest_diameter(), 7.0);
    }

    #[test]
    fn largest_diameter_holder_count_avoids_rescans() {
        // The satellite fix: a uniform-diameter population (every
        // benchmark cloud) removes "a maximum holder" on every death.
        // The holder count must keep the cache valid until the *last*
        // holder goes, so steady churn costs zero column scans.
        let mut rm = ResourceManager::new();
        for i in 0..100 {
            rm.add(cell_at(i as f64).diameter(4.0));
        }
        assert_eq!(rm.diameter_scan_count(), 0, "adds never scan");
        assert_eq!(rm.largest_diameter(), 4.0);
        assert_eq!(rm.diameter_scan_count(), 1, "first lookup scans once");
        for _ in 0..50 {
            rm.remove(0);
            assert_eq!(rm.largest_diameter(), 4.0);
        }
        assert_eq!(
            rm.diameter_scan_count(),
            1,
            "tie-removals must reuse the cache, not rescan per step"
        );
        // Growing one agent re-seeds a single holder; shrinking it back
        // below the rest is the only event that forces a second scan.
        rm.set_diameter(0, 9.0);
        assert_eq!(rm.largest_diameter(), 9.0);
        assert_eq!(rm.diameter_scan_count(), 1);
        rm.set_diameter(0, 1.0);
        assert_eq!(rm.largest_diameter(), 4.0);
        assert_eq!(rm.diameter_scan_count(), 2);
        // Growing an agent into a tie, then removing the original holder:
        // still no scan.
        rm.set_diameter(1, 4.0); // already 4.0 → still a holder either way
        rm.set_diameter(0, 4.0); // 1.0 → joins the tie
        rm.remove(0);
        assert_eq!(rm.largest_diameter(), 4.0);
        assert_eq!(rm.diameter_scan_count(), 2);
    }

    #[test]
    fn epochs_track_mutation_families() {
        let mut rm = ResourceManager::new();
        let (p0, a0) = (rm.positions_epoch(), rm.attributes_epoch());
        rm.add(cell_at(0.0).diameter(2.0));
        assert!(rm.positions_epoch() > p0, "add dirties positions");
        assert!(rm.attributes_epoch() > a0, "add dirties attributes");

        let (p1, a1) = (rm.positions_epoch(), rm.attributes_epoch());
        rm.translate(0, Vec3::new(1.0, 0.0, 0.0));
        rm.set_position(0, Vec3::zero());
        assert!(rm.positions_epoch() > p1);
        assert_eq!(rm.attributes_epoch(), a1, "moves leave attributes clean");

        let (p2, a2) = (rm.positions_epoch(), rm.attributes_epoch());
        rm.set_diameter(0, 3.0);
        assert_eq!(rm.positions_epoch(), p2, "growth leaves positions clean");
        assert!(rm.attributes_epoch() > a2);

        let p3 = rm.positions_epoch();
        let (chunks, _shared) = rm.behavior_chunks(8);
        drop(chunks);
        assert!(
            rm.positions_epoch() > p3,
            "raw chunk views conservatively dirty positions"
        );
        let a3 = rm.attributes_epoch();
        rm.invalidate_largest_diameter();
        assert!(
            rm.attributes_epoch() > a3,
            "raw diameter writes dirty attrs"
        );

        rm.add(cell_at(1.0));
        let (p4, a4) = (rm.positions_epoch(), rm.attributes_epoch());
        rm.apply_permutation(
            &Permutation::new(vec![1, 0]),
            &mut ReorderScratch::default(),
        );
        assert!(rm.positions_epoch() > p4, "reorder dirties positions");
        assert!(rm.attributes_epoch() > a4, "reorder dirties attributes");

        let (p5, a5) = (rm.positions_epoch(), rm.attributes_epoch());
        rm.remove(0);
        assert!(rm.positions_epoch() > p5);
        assert!(rm.attributes_epoch() > a5);
    }

    #[test]
    fn behavior_chunks_split_writable_from_shared_state() {
        let mut rm = ResourceManager::new();
        for i in 0..10 {
            rm.add(
                cell_at(i as f64)
                    .diameter(1.0 + i as f64)
                    .behavior(Behavior::Apoptosis { probability: 0.0 }),
            );
        }
        let (chunks, shared) = rm.behavior_chunks(4);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[1].start(), 4);
        assert_eq!(chunks[2].len(), 2);
        for mut chunk in chunks {
            for k in 0..chunk.len() {
                let i = chunk.start() + k;
                assert_eq!(shared.behaviors(i).len(), 1);
                assert_eq!(shared.uid(i), i as u64);
                assert_eq!(shared.adherence(i), 0.4);
                assert_eq!(chunk.diameter(k), 1.0 + i as f64);
                chunk.translate(k, Vec3::new(0.0, 1.0, 0.0));
                chunk.set_position(k, chunk.position(k) + Vec3::new(0.0, 0.0, 2.0));
            }
        }
        rm.invalidate_largest_diameter();
        for i in 0..10 {
            assert_eq!(rm.position(i), Vec3::new(i as f64, 1.0, 2.0));
        }
    }

    #[test]
    fn behavior_chunks_at_partitions_at_explicit_cuts() {
        let mut rm = ResourceManager::new();
        for i in 0..10 {
            rm.add(cell_at(i as f64).diameter(1.0 + i as f64));
        }
        let cuts = [0usize, 3, 3, 8, 10];
        let (chunks, shared) = rm.behavior_chunks_at(&cuts);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len(), 3);
        assert!(chunks[1].is_empty());
        assert_eq!(chunks[2].start(), 3);
        assert_eq!(chunks[2].len(), 5);
        assert_eq!(chunks[3].start(), 8);
        for mut chunk in chunks {
            for k in 0..chunk.len() {
                let i = chunk.start() + k;
                assert_eq!(shared.uid(i), i as u64);
                assert_eq!(chunk.diameter(k), 1.0 + i as f64);
                chunk.translate(k, Vec3::new(0.0, 1.0, 0.0));
            }
        }
        for i in 0..10 {
            assert_eq!(rm.position(i), Vec3::new(i as f64, 1.0, 0.0));
        }
    }

    #[test]
    fn position_columns_are_soa() {
        let mut rm = ResourceManager::new();
        rm.add(CellBuilder::new(Vec3::new(1.0, 2.0, 3.0)));
        rm.add(CellBuilder::new(Vec3::new(4.0, 5.0, 6.0)));
        let (x, y, z) = rm.position_columns();
        assert_eq!(x, &[1.0, 4.0]);
        assert_eq!(y, &[2.0, 5.0]);
        assert_eq!(z, &[3.0, 6.0]);
    }

    #[test]
    fn translate_moves_agent() {
        let mut rm = ResourceManager::new();
        rm.add(cell_at(1.0));
        rm.translate(0, Vec3::new(0.5, -1.0, 2.0));
        assert_eq!(rm.position(0), Vec3::new(1.5, -1.0, 2.0));
    }

    #[test]
    fn from_raw_parts_roundtrips_and_validates() {
        let mut rm = ResourceManager::new();
        rm.add(
            cell_at(1.0)
                .diameter(2.0)
                .behavior(Behavior::Apoptosis { probability: 0.5 }),
        );
        rm.add(cell_at(3.0).diameter(4.0));
        rm.remove(0); // uid 1 survives, next_uid stays 2
        let (x, y, z) = rm.position_columns();
        let rebuilt = ResourceManager::from_raw_parts(
            SoaVec3::from_columns(x.to_vec(), y.to_vec(), z.to_vec()),
            rm.diameter_column().to_vec(),
            rm.adherence_column().to_vec(),
            rm.behavior_ids.as_slice().to_vec(),
            rm.table.clone(),
            rm.uid_column().to_vec(),
            rm.next_uid(),
            rm.positions_epoch(),
            rm.attributes_epoch(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt.uid(0), 1);
        assert_eq!(rebuilt.next_uid(), 2);
        assert_eq!(rebuilt.position(0), rm.position(0));
        assert_eq!(rebuilt.behaviors_column(), rm.behaviors_column());
        assert_eq!(rebuilt.largest_diameter(), 4.0, "cache lazily rebuilt");
        assert_eq!(rebuilt.positions_epoch(), rm.positions_epoch());
        assert_eq!(rebuilt.attributes_epoch(), rm.attributes_epoch());

        // One agent at the origin with the given ids / uids / next uid.
        let one = |diameters: Vec<f64>, ids: Vec<u32>, uids: Vec<u64>, next_uid| {
            let n = uids.len();
            ResourceManager::from_raw_parts(
                SoaVec3::from_columns(vec![0.0; n], vec![0.0; n], vec![0.0; n]),
                diameters,
                vec![0.4; n],
                ids,
                BehaviorTable::default(),
                uids,
                next_uid,
                0,
                0,
            )
        };
        assert!(one(vec![1.0], vec![0], vec![0], 1).is_ok());
        // Length mismatch.
        assert!(one(vec![1.0, 2.0], vec![0], vec![0], 1).is_err());
        assert!(one(vec![1.0], vec![0, 0], vec![0], 1).is_err());
        // Duplicate uids.
        assert!(one(vec![1.0; 2], vec![0; 2], vec![7, 7], 8).is_err());
        // next_uid not past the maximum live uid.
        assert!(one(vec![1.0], vec![0], vec![5], 5).is_err());
        // An id the table never handed out is an error, not an index.
        let err = one(vec![1.0], vec![1], vec![0], 1).unwrap_err();
        assert!(err.contains("behavior list id 1"), "{err}");
    }

    #[test]
    fn lists_are_interned_by_bits_in_first_seen_order() {
        let apoptosis = |probability| Behavior::Apoptosis { probability };
        let grow = Behavior::GrowthDivision {
            growth_rate: 1.0,
            division_threshold: 2.0,
        };
        let mut t = BehaviorTable::default();
        assert_eq!((t.lists(), t.list(0)), (1, &[][..]));
        assert_eq!(t.intern(&[]), 0, "the empty list is id 0");
        // `0.0 == -0.0` and `NaN != NaN`, yet these are three lists —
        // and each is found again, the NaN one included.
        assert_eq!(t.intern(&[apoptosis(0.0)]), 1);
        assert_eq!(t.intern(&[apoptosis(-0.0)]), 2);
        assert_eq!(t.intern(&[apoptosis(f64::NAN)]), 3);
        assert_eq!(t.intern(&[apoptosis(f64::NAN)]), 3, "last-hit path");
        assert_eq!(t.intern(&[apoptosis(0.0)]), 1, "index path");
        assert_eq!(t.intern(&[apoptosis(f64::NAN)]), 3, "index path, NaN");
        // A prefix, an extension and a permutation are lists of their own.
        assert_eq!(t.intern(&[grow, apoptosis(0.0)]), 4);
        assert_eq!(t.intern(&[grow]), 5);
        assert_eq!(t.intern(&[apoptosis(0.0), grow]), 6);
        assert_eq!(t.intern(&[]), 0);
        assert_eq!(t.intern(&[grow, apoptosis(0.0)]), 4);
        assert_eq!(t.lists(), 7);
        assert_eq!(t.list(2)[0].to_bits(), apoptosis(-0.0).to_bits());
        assert!(matches!(t.list(3), [Behavior::Apoptosis { probability }] if probability.is_nan()));
        assert_eq!(t.list(6), &[apoptosis(0.0), grow]);
        // Same sequence, same ids: a clone continues where this one is.
        assert_eq!(t.clone().intern(&[grow, grow]), t.intern(&[grow, grow]));
    }

    #[test]
    fn append_is_that_many_adds() {
        let grow = Behavior::GrowthDivision {
            growth_rate: 1.0,
            division_threshold: 2.0,
        };
        let seed = || {
            let mut rm = ResourceManager::new();
            rm.add(cell_at(0.0).diameter(3.0).behavior(grow));
            rm.add(cell_at(1.0).diameter(5.0));
            assert_eq!(rm.largest_diameter(), 5.0); // cache valid, one holder
            rm
        };
        // Diameters below, at and above the cached maximum, and a NaN.
        let wave = [(2.0, 1u32), (5.0, 0), (7.0, 1), (f64::NAN, 0), (7.0, 1)];
        let mut one_by_one = seed();
        for (k, &(d, list)) in wave.iter().enumerate() {
            let mut cell = cell_at(10.0 + k as f64).adherence(0.1 * k as f64);
            cell.diameter = d;
            one_by_one.add(if list == 1 { cell.behavior(grow) } else { cell });
        }
        let mut batched = seed();
        batched.append(wave.iter().enumerate().map(|(k, &(d, list))| AgentRow {
            position: Vec3::new(10.0 + k as f64, 0.0, 0.0),
            diameter: d,
            adherence: 0.1 * k as f64,
            behaviors: list,
        }));
        assert_eq!(batched.len(), 7);
        assert_eq!(batched.uid_column(), one_by_one.uid_column());
        assert_eq!(batched.next_uid(), one_by_one.next_uid());
        assert_eq!(batched.position_columns(), one_by_one.position_columns());
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(batched.diameter_column()),
            bits(one_by_one.diameter_column())
        );
        assert_eq!(batched.adherence_column(), one_by_one.adherence_column());
        assert_eq!(batched.behaviors_column(), one_by_one.behaviors_column());
        assert_eq!(batched.positions_epoch(), one_by_one.positions_epoch());
        assert_eq!(batched.attributes_epoch(), one_by_one.attributes_epoch());
        // The holder count came along: dropping one of the two 7.0s keeps
        // the cache, dropping the other rescans — on both.
        for rm in [&mut batched, &mut one_by_one] {
            assert_eq!(rm.largest_diameter(), 7.0);
            rm.remove(6);
            assert_eq!((rm.largest_diameter(), rm.diameter_scan_count()), (7.0, 1));
            rm.remove(4);
            assert_eq!((rm.largest_diameter(), rm.diameter_scan_count()), (5.0, 2));
        }
    }

    #[test]
    #[should_panic(expected = "behavior list 3 of 1")]
    fn append_rejects_a_foreign_list_id() {
        ResourceManager::new().append(std::iter::once(AgentRow {
            position: Vec3::zero(),
            diameter: 1.0,
            adherence: 0.4,
            behaviors: 3,
        }));
    }

    #[test]
    fn resident_bytes_are_the_column_capacities_plus_the_table() {
        let scene = |list: &[Behavior]| {
            let mut rm = ResourceManager::new();
            for i in 0..12 * 12 * 12 {
                let cell = cell_at(i as f64);
                rm.add(list.iter().fold(cell, |c, &b| c.behavior(b)));
            }
            rm
        };
        let bare = scene(&[]);
        let slots = bare.positions.allocated_bytes() / 8
            + bare.diameters.capacity()
            + bare.adherences.capacity()
            + bare.uids.capacity();
        assert!(slots >= 6 * 1728 && bare.behavior_ids.capacity() >= 1728);
        assert_eq!(
            bare.resident_bytes(),
            slots * 8 + bare.behavior_ids.capacity() * 4 + bare.table.resident_bytes()
        );
        // Three behaviors on every agent: one more table entry — 72 bytes
        // of list, as many of key, an offset and an index slot — where a
        // list per agent would be n of them.
        let b = Behavior::Apoptosis { probability: 0.0 };
        let busy = scene(&[b, b, b]);
        assert_eq!((bare.behavior_lists(), busy.behavior_lists()), (1, 2));
        let grown = busy.resident_bytes() - bare.resident_bytes();
        assert_eq!(
            grown,
            busy.table.resident_bytes() - bare.table.resident_bytes()
        );
        assert!((2 * 72..1024).contains(&grown), "{grown} bytes");
    }

    #[test]
    fn centroid_and_volume() {
        let mut rm = ResourceManager::new();
        rm.add(cell_at(0.0).diameter(2.0));
        rm.add(cell_at(2.0).diameter(2.0));
        assert_eq!(rm.centroid(), Vec3::new(1.0, 0.0, 0.0));
        assert!((rm.total_volume() - 2.0 * crate::behavior::volume_of(2.0)).abs() < 1e-12);
    }
}
