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
//!
//! Agents enter the columns two ways. [`ResourceManager::append`] (and
//! `add`, an append of one) pushes rows. A division wave writes in place:
//! [`ResourceManager::divisions`] reserves room in every column for as
//! many daughters as the agents' lists allow (the table caches each
//! list's `GrowthDivision` count), each chunk of the behaviors pass writes
//! its daughters into its own window of that room
//! ([`AgentChunkMut::add_daughter`]), and [`Divisions::commit`] gathers
//! them into place in mother-uid order through the step buffer — the
//! daughters exist nowhere but in the columns.
//!
//! One kind of change counter sits beside the columns: the *stamps*
//! ([`ResourceManager::position_stamp`], [`ResourceManager::attribute_stamp`]).
//! They move only on real writes and are drawn from one process-wide
//! counter, so a stamp that did not move proves the columns did not
//! change: the reorder's sortedness scan, the CSR rebuild, the `f32`
//! mirrors and the largest diameter skip on it. They are derived state,
//! never checkpointed.

use crate::behavior::Behavior;
use crate::cell::{valid_adherence, valid_diameter, CellBuilder};
use bdm_math::{Aabb, Vec3};
use bdm_morton::{radix_argsort, CellCurve, Curve};
use bdm_soa::{
    gather_words, split_mut_at, AgentId, Column, Permutation, SoaVec3, StepBuffer, Vec3ChunkMut,
};
use rayon::prelude::*;
use std::collections::HashMap;
use std::mem::{size_of, MaybeUninit};
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Per list, its [`Behavior::GrowthDivision`] entries: how many
    /// daughters an agent carrying it may have in one step.
    divisions: Vec<u32>,
    /// One past the largest substance index any list names (0 when none
    /// does): how many diffusion grids a step over these lists needs.
    substances: usize,
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
            divisions: vec![0],
            substances: 0,
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
                let divides = |b: &&Behavior| matches!(b, Behavior::GrowthDivision { .. });
                self.divisions
                    .push(list.iter().filter(divides).count() as u32);
                for b in list {
                    if let Behavior::Chemotaxis { substance, .. }
                    | Behavior::Secretion { substance, .. } = *b
                    {
                        self.substances = self.substances.max(substance + 1);
                    }
                }
                self.index.insert(self.key.clone(), id);
                id
            }
        };
        self.last
    }

    /// `true` when some list holds a [`Behavior::GrowthDivision`].
    fn divides(&self) -> bool {
        self.divisions.iter().any(|&d| d > 0)
    }

    /// Heap bytes the table holds: the lists, their offsets and division
    /// counts, and the index's keys and slots.
    pub fn resident_bytes(&self) -> usize {
        self.flat.capacity() * size_of::<Behavior>()
            + self.starts.capacity() * size_of::<usize>()
            + self.divisions.capacity() * size_of::<u32>()
            + self.index.capacity() * size_of::<(Vec<u64>, u32)>()
            + (3 * self.flat.len() + self.key.capacity()) * size_of::<u64>()
    }
}

/// One agent's column values as plain data — what [`ResourceManager::add`]
/// appends and what a division writes for its daughter
/// ([`AgentChunkMut::add_daughter`]).
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

/// The largest diameter, memoized on the attribute stamp it was scanned
/// at: [`ResourceManager::largest_diameter`] returns `bits` while the
/// stamp still reads `stamp`, and rescans the column otherwise. Sweep
/// parts read it concurrently through `&self`, so a scan stores the value
/// before its stamp (Release) and a lookup reads the stamp first
/// (Acquire). `stamp` 0 is no stamp (none is ever drawn as 0); a clone
/// starts there. `scans` counts the rescans.
#[derive(Debug, Default)]
struct DiameterMemo {
    stamp: AtomicU64,
    bits: AtomicU64,
    scans: AtomicU64,
}

impl Clone for DiameterMemo {
    fn clone(&self) -> Self {
        let scans = AtomicU64::new(self.scans.load(Ordering::Relaxed));
        Self {
            scans,
            ..Self::default()
        }
    }
}

/// Where every [`Stamp`] value comes from: one process-wide counter, so
/// no two managers — a clone and its original, a restored manager and
/// the one it was saved from — ever hand out the same value.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// A process-unique key of one column family's current contents: two
/// reads return the same value exactly when no write reached the family
/// in between, so a derived copy (a grid, a mirror, a sortedness
/// verdict) keyed on it is current when the key matches — whichever
/// manager it was built from. It is not serialized, and it moves only on
/// real writes, not on every hand-out of raw views.
///
/// Stored as one word: [`Self::CHANGED`] after a write, otherwise the
/// value the last read drew. A write is a plain store (through `&mut`,
/// or from a chunk view through `&`), and the next read draws a fresh
/// value; a new or cloned stamp starts changed.
#[derive(Debug)]
struct Stamp(AtomicU64);

impl Stamp {
    /// "Written since the last read": no value is ever drawn as 0.
    const CHANGED: u64 = 0;

    /// The family changed.
    fn touch(&mut self) {
        *self.0.get_mut() = Self::CHANGED;
    }

    /// The family changed through a chunk view, which holds `&self`.
    fn mark(&self) {
        self.0.store(Self::CHANGED, Ordering::Relaxed);
    }

    /// The current value: the last one drawn, or a fresh one after a
    /// write (two racing readers agree on whichever draw lands first).
    fn get(&self) -> u64 {
        let v = self.0.load(Ordering::Relaxed);
        if v != Self::CHANGED {
            return v;
        }
        let fresh = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
        let (changed, relaxed) = (Self::CHANGED, Ordering::Relaxed);
        match self.0.compare_exchange(changed, fresh, relaxed, relaxed) {
            Ok(_) => fresh,
            Err(drawn) => drawn,
        }
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Self(AtomicU64::new(Self::CHANGED))
    }
}

impl Clone for Stamp {
    /// A copy is a different manager: it draws its own value.
    fn clone(&self) -> Self {
        Self::default()
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
    largest: DiameterMemo,
    /// Position stamp: moves exactly when a stored coordinate, the
    /// population or its storage order changes (see
    /// [`Self::position_stamp`]).
    pos_stamp: Stamp,
    /// Attribute stamp: moves when a diameter or adherence, the
    /// population or its storage order changes (see
    /// [`Self::attribute_stamp`]).
    attr_stamp: Stamp,
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
    /// doubles the population), and each row then takes the next uid, as
    /// one [`Self::add`] does. Both stamps move when there is at least
    /// one row.
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
        if n > 0 {
            self.pos_stamp.touch();
            self.attr_stamp.touch();
        }
        let lists = self.table.lists();
        for row in rows {
            let id = row.behaviors;
            assert!((id as usize) < lists, "behavior list {id} of {lists}");
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
        self.pos_stamp.touch();
        self.attr_stamp.touch();
        self.positions.swap_remove(i);
        self.diameters.swap_remove(i);
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
    /// uid-seeded RNG streams) survive any number of reorders. Both
    /// stamps move: index-addressed consumers see different columns.
    ///
    /// Every column goes through one word per agent borrowed from
    /// `buffer` (`bdm_soa::gather_words`).
    pub fn apply_permutation(&mut self, perm: &Permutation, buffer: &mut StepBuffer) {
        assert_eq!(perm.len(), self.len(), "permutation/population mismatch");
        let (words, _, _) = buffer.words_and_indices(self.len());
        self.gather(perm.gather_indices(), words);
    }

    /// [`Self::apply_permutation`] by raw gather indices (a bijection of
    /// `0..len`) through `words`, one per agent.
    fn gather(&mut self, order: &[u32], words: &mut [u64]) {
        // Index-addressed consumers (the f32 mirrors) see a different
        // column even though the multiset of agents is unchanged.
        self.pos_stamp.touch();
        self.attr_stamp.touch();
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
    /// when nothing drifted. Otherwise the keys go into a word per agent
    /// borrowed from `buffer`, [`radix_argsort`] orders them (each
    /// voxel's run by uid) into two index arrays borrowed beside it, and
    /// every column gathers through the same words. `sorted_keys`, when
    /// asked for, receives every agent's voxel key in the storage order
    /// the call leaves.
    pub fn sort_storage(
        &mut self,
        space: &Aabb<f64>,
        cell_len: f64,
        curve: Curve,
        buffer: &mut StepBuffer,
        sorted_keys: Option<&mut Vec<u64>>,
    ) -> u64 {
        let n = self.len();
        let cells = CellCurve::new(space, cell_len, curve);
        let (xs, ys, zs) = self.position_columns();
        let uids = self.uid_column();
        let moved = if cells.is_sorted_with(xs, ys, zs, uids) {
            0
        } else {
            let (words, order, spare) = buffer.words_and_indices(n);
            cells.keys_into(xs, ys, zs, words);
            radix_argsort(words, Some(uids), order, spare);
            self.gather(order, words);
            n as u64
        };
        if let Some(keys) = sorted_keys {
            keys.resize(n, 0);
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
        self.pos_stamp.touch();
        self.positions.set(i, p);
    }

    /// Translate agent `i`.
    #[inline]
    pub fn translate(&mut self, i: usize, delta: Vec3<f64>) {
        self.pos_stamp.touch();
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
        self.attr_stamp.touch();
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
    /// Memoized on the attribute stamp: O(1) while the stamp has not
    /// moved since the last scan, otherwise one counted scan of the
    /// column. Every diameter write moves the stamp, whether through
    /// [`Self::set_diameter`] or a chunk view's
    /// [`AgentChunkMut::set_diameter`], so no write can leave it stale.
    pub fn largest_diameter(&self) -> f64 {
        let (stamp, memo) = (self.attr_stamp.get(), &self.largest);
        if memo.stamp.load(Ordering::Acquire) == stamp {
            return f64::from_bits(memo.bits.load(Ordering::Relaxed));
        }
        memo.scans.fetch_add(1, Ordering::Relaxed);
        let mut v = 0.0f64;
        for &d in self.diameters.iter() {
            if d > v {
                v = d;
            }
        }
        memo.bits.store(v.to_bits(), Ordering::Relaxed);
        memo.stamp.store(stamp, Ordering::Release);
        v
    }

    /// Number of full diameter-column scans [`ResourceManager::largest_diameter`]
    /// has performed over this manager's lifetime: one per attribute
    /// stamp it was asked at, so a step that writes no diameter and
    /// moves no agent between columns adds none.
    pub fn diameter_scan_count(&self) -> u64 {
        self.largest.scans.load(Ordering::Relaxed)
    }

    /// The position columns `(x, y, z)` — what the environments index and
    /// the GPU pipeline uploads.
    pub fn position_columns(&self) -> (&[f64], &[f64], &[f64]) {
        self.positions.as_slices()
    }

    /// The position stamp: a process-unique value that moves exactly when
    /// a stored coordinate, the population or its storage order changes —
    /// `append` / `add` of at least one row, `remove`, every gather
    /// (`apply_permutation`, a `sort_storage` that gathers), `set_position`,
    /// `translate`, a `translate_each` with a non-zero displacement, a
    /// `Divisions::commit` with births, and a chunk view that called
    /// `set_position` or `translate`. Handing out views that write nothing
    /// leaves it alone. A new, cloned or restored manager draws its own,
    /// so equal stamps mean the same manager with bit-identical positions,
    /// uids and length: what the reorder's sortedness verdict, the CSR
    /// grid and the `f32` position mirror are keyed on. Not checkpointed.
    pub fn position_stamp(&self) -> u64 {
        self.pos_stamp.get()
    }

    /// The attribute stamp: [`Self::position_stamp`]'s contract for the
    /// diameter and adherence columns. It moves on `append` / `add` of at
    /// least one row, `remove`, every gather, `set_diameter`, a
    /// `Divisions::commit` with births, and a chunk view that called
    /// [`AgentChunkMut::set_diameter`]. A write of positions alone does
    /// not move it. What [`Self::largest_diameter`] and the `f32` mirrors
    /// of the diameters and adherences are keyed on.
    pub fn attribute_stamp(&self) -> u64 {
        self.attr_stamp.get()
    }

    /// Split the per-agent *mutable* state (position, diameter) into
    /// disjoint chunk views at `cuts` — window `w` covers agents
    /// `cuts[w]..cuts[w + 1]` — alongside one shared view of the
    /// read-only columns (behaviors, uids, adherences).
    ///
    /// This is the substrate of the parallel agent operations: each rayon
    /// task owns one [`AgentChunkMut`] (no aliasing, no locks), while the
    /// [`AgentShared`] columns are read from every task. Cuts that do not
    /// depend on the worker count ([`bdm_soa::chunk_cuts`], or each
    /// shard's range cut by it so no chunk straddles a shard boundary)
    /// keep the partition identical however many threads run, which is
    /// what makes chunk-ordered merges bitwise deterministic.
    ///
    /// A view marks the position stamp on its first
    /// [`AgentChunkMut::set_position`] or [`AgentChunkMut::translate`],
    /// and the attribute stamp on its first
    /// [`AgentChunkMut::set_diameter`]; views that write nothing move
    /// neither.
    pub fn behavior_chunks_at(
        &mut self,
        cuts: &[usize],
    ) -> (Vec<AgentChunkMut<'_>>, AgentShared<'_>) {
        let stamps = (&self.pos_stamp, &self.attr_stamp);
        let views = self
            .positions
            .chunks_mut_at(cuts)
            .into_iter()
            .zip(bdm_soa::split_mut_at(self.diameters.as_mut_slice(), cuts))
            .zip(cuts.iter())
            .map(|((pos, diam), &start)| {
                AgentChunkMut::new(start, pos, diam, stamps, Daughters::default())
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

    /// Start a behaviors pass over the chunks between `cuts` (same
    /// contract as [`Self::behavior_chunks_at`]) whose agents may divide:
    /// every column reserves room for as many daughters as the agents'
    /// lists allow — per chunk, the sum over its agents of their list's
    /// [`Behavior::GrowthDivision`] entries — and each chunk gets a window
    /// of that room, in chunk order, when [`Divisions::chunks`] hands out
    /// the views. When no list divides, nothing is reserved. The mothers'
    /// uids go into `buffer`, one word per slot.
    pub fn divisions<'a>(
        &'a mut self,
        cuts: &'a [usize],
        buffer: &'a mut StepBuffer,
    ) -> Divisions<'a> {
        let chunks = cuts.len().saturating_sub(1);
        let mut starts = vec![0; chunks + 1];
        if self.table.divides() {
            let (ids, divisions) = (self.behavior_ids.as_slice(), &self.table.divisions);
            let room: Vec<usize> = (0..chunks)
                .into_par_iter()
                .map(|c| {
                    let ids = &ids[cuts[c]..cuts[c + 1]];
                    ids.iter().map(|&id| divisions[id as usize] as usize).sum()
                })
                .collect();
            for (c, room) in room.into_iter().enumerate() {
                starts[c + 1] = starts[c] + room;
            }
        }
        let room = starts[chunks];
        assert!(room < u32::MAX as usize, "room for {room} daughters");
        Divisions {
            rm: self,
            buffer,
            cuts,
            starts,
            born: vec![0; chunks],
        }
    }

    /// Move the agents at `slots` by `disp`: entry `k` moves agent
    /// `agent_of[slots.start + k]` (agent `slots.start + k` when `None`).
    /// The position stamp moves when a displacement was non-zero.
    ///
    /// Without an index map the columns' range and the displacements
    /// split into the same parallel parts ([`bdm_soa::parts`]), zipped;
    /// through one (a full CSR build's `cell_agents()`, slot → agent) the
    /// scatter runs serially, each write bounds-checked.
    ///
    /// # Panics
    /// When `disp` is not one entry per slot, `slots` runs past the
    /// population, or `agent_of` is not one agent per slot of the
    /// population or names one past it.
    pub(crate) fn translate_each(
        &mut self,
        disp: &[Vec3<f64>],
        slots: std::ops::Range<usize>,
        agent_of: Option<&[AgentId]>,
    ) {
        let n = self.len();
        assert_eq!(disp.len(), slots.len(), "one displacement per slot");
        assert!(slots.end <= n, "slots {slots:?} of {n} agents");
        let (xs, ys, zs) = self.positions.as_mut_slices();
        let moved = match agent_of {
            Some(agents) => {
                assert_eq!(agents.len(), n, "one agent per slot");
                let mut moved = false;
                for (&d, a) in disp.iter().zip(&agents[slots]) {
                    if d != Vec3::zero() {
                        let i = a.index();
                        xs[i] += d.x;
                        ys[i] += d.y;
                        zs[i] += d.z;
                        moved = true;
                    }
                }
                moved
            }
            None => {
                let (_, len) = bdm_soa::parts(slots.len());
                let [xs, ys, zs] = [xs, ys, zs].map(|col| &mut col[slots.clone()]);
                let parts = xs.par_chunks_mut(len).zip(ys.par_chunks_mut(len));
                let parts = parts.zip(zs.par_chunks_mut(len)).zip(disp.par_chunks(len));
                parts
                    .map(|(((xs, ys), zs), disp)| {
                        let mut moved = false;
                        for (k, &d) in disp.iter().enumerate() {
                            if d != Vec3::zero() {
                                xs[k] += d.x;
                                ys[k] += d.y;
                                zs[k] += d.z;
                                moved = true;
                            }
                        }
                        moved
                    })
                    .reduce(|| false, |a, b| a || b)
            }
        };
        if moved {
            self.pos_stamp.touch();
        }
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

    /// How many diffusion grids the behavior lists the population has
    /// carried need: one past the largest substance index they name.
    pub fn substances_named(&self) -> usize {
        self.table.substances
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
    /// column lengths must agree, every diameter and adherence must pass
    /// the rule [`CellBuilder`] applies (a diameter is positive and
    /// finite, an adherence non-negative and finite), every behavior-list
    /// id must be one `table` holds, uids must be unique, and `next_uid`
    /// must exceed every live uid. The stamps are the new manager's own,
    /// so the first [`Self::largest_diameter`] scans.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        positions: SoaVec3<f64>,
        diameters: Vec<f64>,
        adherences: Vec<f64>,
        behavior_ids: Vec<u32>,
        table: BehaviorTable,
        uids: Vec<u64>,
        next_uid: u64,
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
        if let Some(i) = diameters.iter().position(|&d| !valid_diameter(d)) {
            return Err(format!("agent {i}: diameter {} out of range", diameters[i]));
        }
        if let Some(i) = adherences.iter().position(|&a| !valid_adherence(a)) {
            return Err(format!(
                "agent {i}: adherence {} out of range",
                adherences[i]
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
            largest: DiameterMemo::default(),
            pos_stamp: Stamp::default(),
            attr_stamp: Stamp::default(),
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

/// A behaviors pass whose chunks may divide, from
/// [`ResourceManager::divisions`]: [`Self::chunks`] hands out the chunk
/// views with their daughters' windows, and [`Self::commit`] appends what
/// they wrote.
#[must_use = "daughters reach the columns only through `commit`"]
pub struct Divisions<'a> {
    rm: &'a mut ResourceManager,
    buffer: &'a mut StepBuffer,
    cuts: &'a [usize],
    /// Chunk `c`'s daughters go to spare slots `starts[c]..starts[c + 1]`.
    starts: Vec<usize>,
    /// How many of its slots chunk `c` filled (a prefix of its window).
    born: Vec<usize>,
}

/// `starts` has one window per chunk of `cuts`.
const WINDOW: &str = "one window per chunk";

impl Divisions<'_> {
    /// [`ResourceManager::behavior_chunks_at`] of the pass's cuts, each
    /// chunk with its window for [`AgentChunkMut::add_daughter`]; the
    /// first call reserves the room. A second call hands out the same
    /// windows, filled as far as the first left them.
    pub fn chunks(&mut self) -> (Vec<AgentChunkMut<'_>>, AgentShared<'_>) {
        let (rm, cuts, starts) = (&mut *self.rm, self.cuts, &self.starts);
        let stamps = (&rm.pos_stamp, &rm.attr_stamp);
        let room = starts[starts.len() - 1];
        let (pos, [x, y, z]) = rm.positions.split_spare(room);
        let (diam, diameter) = rm.diameters.split_spare(room);
        let (adherences, adherence) = rm.adherences.split_spare(room);
        let (behavior_ids, behaviors) = rm.behavior_ids.split_spare(room);
        let (mothers, _, _) = self.buffer.words_and_indices(room);
        let mut f64s =
            [x, y, z, diameter, adherence].map(|col| split_mut_at(col, starts).into_iter());
        let mut behaviors = split_mut_at(behaviors, starts).into_iter();
        let mut mothers = split_mut_at(&mut mothers[..room], starts).into_iter();
        let views = bdm_soa::chunks_at(pos, cuts)
            .into_iter()
            .zip(split_mut_at(diam, cuts))
            .zip(cuts.iter().zip(&mut self.born))
            .map(|((pos, diam), (&start, born))| {
                let daughters = Daughters {
                    f64s: f64s.each_mut().map(|w| w.next().expect(WINDOW)),
                    behaviors: behaviors.next().expect(WINDOW),
                    mothers: mothers.next().expect(WINDOW),
                    born: Some(born),
                };
                AgentChunkMut::new(start, pos, diam, stamps, daughters)
            })
            .collect();
        let shared = AgentShared {
            behavior_ids,
            table: &rm.table,
            uids: rm.uids.as_slice(),
            adherences,
        };
        (views, shared)
    }

    /// Append every daughter the chunks wrote as agents `n..n + births`,
    /// in `(mother uid, chunk, order within the chunk)` order, and return
    /// `births`. Each window's mother uids move down into one run in
    /// chunk order, [`radix_argsort`] orders the run by uid (stable, so
    /// slot order breaks ties), and every column gathers its daughters
    /// through the same words (`Column::append_from_spare`), which also
    /// closes the gaps of agents that could divide but did not. The
    /// daughters then take the uids `next_uid..` in that order, and the
    /// stamps move as an [`ResourceManager::append`] of them moves them.
    pub fn commit(self) -> usize {
        let Self {
            rm,
            buffer,
            starts,
            mut born,
            ..
        } = self;
        let births: usize = born.iter().sum();
        if births == 0 {
            return 0;
        }
        let (words, order, spare) = buffer.words_and_indices(starts[starts.len() - 1]);
        // `born` becomes each chunk's first index in the run.
        let mut run = 0;
        for (c, first) in born.iter_mut().enumerate() {
            words.copy_within(starts[c]..starts[c] + *first, run);
            (*first, run) = (run, run + *first);
        }
        let (words, order) = (&mut words[..births], &mut order[..births]);
        radix_argsort(words, None, order, &mut spare[..births]);
        let (_, len) = bdm_soa::parts(births);
        order.par_chunks_mut(len).for_each(|part| {
            for k in part {
                let c = born.partition_point(|&first| first <= *k as usize) - 1;
                *k = (*k as usize - born[c] + starts[c]) as u32;
            }
        });
        // SAFETY: `order` names slot `starts[c] + j` for each `j <
        // born[c]` of each chunk `c` — the ones `add_daughter` wrote, in
        // every one of these columns — and the columns have not changed
        // length or grown since: `self` held the only borrow of `rm`.
        unsafe {
            rm.positions.append_from_spare(order, words);
            rm.diameters.append_from_spare(order, words);
            rm.adherences.append_from_spare(order, words);
            rm.behavior_ids.append_from_spare(order, words);
        }
        rm.uids.reserve(births);
        for uid in rm.next_uid..rm.next_uid + births as u64 {
            rm.uids.push(uid);
        }
        rm.next_uid += births as u64;
        rm.pos_stamp.touch();
        rm.attr_stamp.touch();
        births
    }
}

/// One chunk's window of the spare slots its daughters go to: empty for
/// a chunk whose agents cannot divide, and in every view that is not
/// [`Divisions::chunks`]'s.
#[derive(Default)]
struct Daughters<'a> {
    /// x, y, z, diameter, adherence.
    f64s: [&'a mut [MaybeUninit<f64>]; 5],
    behaviors: &'a mut [MaybeUninit<u32>],
    /// Each slot's mother uid: the key the commit orders them by.
    mothers: &'a mut [u64],
    /// Slots written so far, the pass's count for this chunk.
    born: Option<&'a mut usize>,
}

/// Disjoint mutable window over one chunk of agents' writable state
/// (position + diameter), and over the room its daughters go to.
/// Indices are chunk-local; [`AgentChunkMut::start`] maps them back to
/// global agent indices.
pub struct AgentChunkMut<'a> {
    start: usize,
    pos: Vec3ChunkMut<'a, f64>,
    diam: &'a mut [f64],
    daughters: Daughters<'a>,
    /// The manager's position and attribute stamps, each marked on the
    /// view's first write to its columns (once, so parallel views do not
    /// share a hot cache line).
    stamps: (&'a Stamp, &'a Stamp),
    moved: bool,
    resized: bool,
}

impl<'a> AgentChunkMut<'a> {
    fn new(
        start: usize,
        pos: Vec3ChunkMut<'a, f64>,
        diam: &'a mut [f64],
        stamps: (&'a Stamp, &'a Stamp),
        daughters: Daughters<'a>,
    ) -> Self {
        Self {
            start,
            pos,
            diam,
            daughters,
            stamps,
            moved: false,
            resized: false,
        }
    }

    /// A stored position is about to change.
    #[inline(always)]
    fn mark_moved(&mut self) {
        if !self.moved {
            self.moved = true;
            self.stamps.0.mark();
        }
    }

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
        self.mark_moved();
        self.pos.set(k, p);
    }

    /// Translate local agent `k`.
    #[inline(always)]
    pub fn translate(&mut self, k: usize, delta: Vec3<f64>) {
        self.mark_moved();
        self.pos.add_assign(k, delta);
    }

    /// Diameter of local agent `k`.
    #[inline(always)]
    pub fn diameter(&self, k: usize) -> f64 {
        self.diam[k]
    }

    /// Overwrite local agent `k`'s diameter.
    #[inline(always)]
    pub fn set_diameter(&mut self, k: usize, d: f64) {
        if !self.resized {
            self.resized = true;
            self.stamps.1.mark();
        }
        self.diam[k] = d;
    }

    /// Write a daughter of the agent with uid `mother` into the chunk's
    /// next free slot; [`Divisions::commit`] appends her.
    ///
    /// # Panics
    /// When the window is full: a chunk of [`Divisions::chunks`] has room
    /// for one daughter per [`Behavior::GrowthDivision`] entry of its
    /// agents' lists, any other view for none.
    pub fn add_daughter(&mut self, mother: u64, row: AgentRow) {
        let d = &mut self.daughters;
        let j = d.born.as_deref().map_or(0, |&born| born);
        assert!(j < d.mothers.len(), "no room for a daughter of {mother}");
        let p = row.position;
        for (col, v) in d
            .f64s
            .iter_mut()
            .zip([p.x, p.y, p.z, row.diameter, row.adherence])
        {
            col[j].write(v);
        }
        d.behaviors[j].write(row.behaviors);
        d.mothers[j] = mother;
        if let Some(born) = d.born.as_deref_mut() {
            *born += 1;
        }
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
        let mut scratch = StepBuffer::default();
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
        // Every mutation path (add / grow / shrink / remove / chunk view
        // write) must leave the memo agreeing with a rescan.
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
        // A chunk view's write, and nothing else.
        let (mut chunks, _shared) = rm.behavior_chunks_at(&[0, rm.len()]);
        chunks[0].set_diameter(0, 20.0);
        drop(chunks);
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
    fn largest_diameter_scans_once_per_change() {
        // A uniform-diameter population (every benchmark cloud) read on
        // every grid build: one scan, however many lookups.
        let mut rm = ResourceManager::new();
        for i in 0..100 {
            rm.add(cell_at(i as f64).diameter(4.0));
        }
        assert_eq!(rm.diameter_scan_count(), 0, "adds never scan");
        for _ in 0..100 {
            assert_eq!(rm.largest_diameter(), 4.0);
        }
        assert_eq!(rm.diameter_scan_count(), 1, "100 lookups, one scan");
        // Then every mutation family: the next two lookups read what a
        // scan reads, for one scan when the family writes diameters or
        // moves agents between slots, and none when it does not.
        let oracle = |rm: &ResourceManager| {
            let column = rm.diameter_column().iter();
            column.fold(0.0, |v: f64, &d| if d > v { d } else { v })
        };
        // (scans the next lookups may take, the change)
        type Change<'a> = (u64, &'a dyn Fn(&mut ResourceManager));
        let changes: [Change; 9] = [
            (1, &|rm| rm.set_diameter(0, 9.0)),
            (1, &|rm| rm.set_diameter(0, 1.0)),
            (1, &|rm| {
                rm.remove(3);
            }),
            (1, &|rm| {
                rm.add(cell_at(-1.0).diameter(6.5));
            }),
            (0, &|rm| rm.set_position(2, Vec3::splat(1.0))),
            (1, &|rm| {
                let order = (0..rm.len() as u32).rev().collect();
                rm.apply_permutation(&Permutation::new(order), &mut StepBuffer::default())
            }),
            (1, &|rm| {
                let (mut chunks, _) = rm.behavior_chunks_at(&[0, 10, rm.len()]);
                chunks[1].set_diameter(4, 11.0);
            }),
            (1, &|rm| {
                let (mut chunks, _) = rm.behavior_chunks_at(&[0, rm.len()]);
                let k = (0..chunks[0].len()).find(|&k| chunks[0].diameter(k) == 11.0);
                chunks[0].set_diameter(k.expect("the grown agent"), 2.0);
            }),
            (0, &|rm| {
                let (chunks, _) = rm.behavior_chunks_at(&[0, 50, rm.len()]);
                drop(chunks);
            }),
        ];
        for (k, (want, change)) in changes.iter().enumerate() {
            let before = rm.diameter_scan_count();
            change(&mut rm);
            assert_eq!(rm.largest_diameter(), oracle(&rm), "change {k}");
            assert_eq!(rm.largest_diameter(), oracle(&rm), "change {k}");
            assert_eq!(rm.diameter_scan_count() - before, *want, "change {k}");
        }
    }

    #[test]
    fn stamps_move_only_on_real_writes() {
        let mut rm = ResourceManager::new();
        for i in 0..10 {
            rm.add(cell_at(i as f64));
        }
        let stamps = |rm: &ResourceManager| (rm.position_stamp(), rm.attribute_stamp());
        let (s0, a0) = stamps(&rm);
        assert_eq!(rm.position_stamp(), s0, "reading draws once");
        let (chunks, _) = rm.behavior_chunks_at(&[0, 4, 8, 10]);
        drop(chunks);
        let (chunks, _) = rm.behavior_chunks_at(&[0, 5, 10]);
        drop(chunks);
        rm.translate_each(&[Vec3::zero(); 10], 0..10, None);
        rm.append(std::iter::empty());
        assert_eq!(
            stamps(&rm),
            (s0, a0),
            "views and appends that write nothing"
        );
        let (mut chunks, _) = rm.behavior_chunks_at(&[0, 4, 8, 10]);
        chunks[1].translate(0, Vec3::zero());
        drop(chunks);
        let s1 = rm.position_stamp();
        assert_ne!(s1, s0, "a view that wrote");
        assert_eq!(rm.attribute_stamp(), a0, "positions only");
        let copy = rm.clone();
        let (c, r) = (copy.position_stamp(), rm.position_stamp());
        assert!(c != s1 && r == s1, "a clone draws its own");
        rm.set_diameter(0, 2.0);
        assert_ne!(rm.attribute_stamp(), a0);
        assert_eq!(rm.position_stamp(), s1);
    }

    #[test]
    fn stamps_track_mutation_families() {
        let mut rm = ResourceManager::new();
        for i in 0..10 {
            rm.add(cell_at(i as f64));
        }
        let stamps = |rm: &ResourceManager| (rm.position_stamp(), rm.attribute_stamp());
        // One step per mutation family: which of the two stamps it moves.
        let moves = |rm: &mut ResourceManager, what: &str, f: &dyn Fn(&mut ResourceManager)| {
            let before = stamps(rm);
            f(rm);
            let after = stamps(rm);
            let moved = (after.0 != before.0, after.1 != before.1);
            assert_eq!(after, stamps(rm), "{what}: reading draws once");
            (what.to_string(), moved)
        };
        let grow = Behavior::GrowthDivision {
            growth_rate: 1.0,
            division_threshold: 2.0,
        };
        let divide = |rm: &mut ResourceManager, daughters: bool| {
            let n = rm.len();
            let cuts = [0, n / 2, n];
            let mut buffer = StepBuffer::default();
            let mut pass = rm.divisions(&cuts, &mut buffer);
            let (mut chunks, shared) = pass.chunks();
            for chunk in chunks.iter_mut().filter(|_| daughters) {
                let g = chunk.start();
                if shared.behaviors(g).contains(&grow) {
                    let row = AgentRow {
                        position: chunk.position(0) + Vec3::new(0.5, 0.0, 0.0),
                        diameter: chunk.diameter(0),
                        adherence: shared.adherence(g),
                        behaviors: shared.behavior_id(g),
                    };
                    chunk.add_daughter(shared.uid(g), row);
                }
            }
            drop(chunks);
            pass.commit()
        };
        let families = [
            moves(&mut rm, "add", &|rm| {
                rm.add(cell_at(20.0).behavior(grow));
            }),
            moves(&mut rm, "translate", &|rm| {
                rm.translate(0, Vec3::new(1.0, 0.0, 0.0))
            }),
            moves(&mut rm, "set_position", &|rm| {
                rm.set_position(0, Vec3::zero())
            }),
            moves(&mut rm, "set_diameter", &|rm| rm.set_diameter(0, 3.0)),
            moves(&mut rm, "view set_diameter", &|rm| {
                let (mut chunks, _) = rm.behavior_chunks_at(&[0, 4, rm.len()]);
                chunks[1].set_diameter(0, 3.0);
            }),
            moves(&mut rm, "apply_permutation", &|rm| {
                let order = (0..rm.len() as u32).rev().collect();
                rm.apply_permutation(&Permutation::new(order), &mut StepBuffer::default())
            }),
            moves(&mut rm, "remove", &|rm| {
                rm.remove(3);
            }),
            moves(&mut rm, "commit without births", &|rm| {
                assert_eq!(divide(rm, false), 0);
            }),
            moves(&mut rm, "commit with births", &|rm| {
                assert_eq!(divide(rm, true), 1);
            }),
        ];
        let both = (true, true);
        let want = [
            ("add", both),
            ("translate", (true, false)),
            ("set_position", (true, false)),
            ("set_diameter", (false, true)),
            ("view set_diameter", (false, true)),
            ("apply_permutation", both),
            ("remove", both),
            ("commit without births", (false, false)),
            ("commit with births", both),
        ];
        assert_eq!(families, want.map(|(w, m)| (w.to_string(), m)));
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
        let (chunks, shared) = rm.behavior_chunks_at(&[0, 4, 8, 10]);
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
        )
        .unwrap();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt.uid(0), 1);
        assert_eq!(rebuilt.next_uid(), 2);
        assert_eq!(rebuilt.position(0), rm.position(0));
        assert_eq!(rebuilt.behaviors_column(), rm.behaviors_column());
        assert_eq!(rebuilt.largest_diameter(), 4.0, "cache lazily rebuilt");

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
        // A diameter the builder would reject.
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = one(vec![d], vec![0], vec![0], 1).unwrap_err();
            assert!(err.contains("diameter"), "{err}");
        }
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
            assert_eq!(rm.largest_diameter(), 5.0);
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
        // Dropping one of the two 7.0s keeps the maximum, dropping the
        // other finds the 5.0 — on both.
        for rm in [&mut batched, &mut one_by_one] {
            assert_eq!(rm.largest_diameter(), 7.0);
            rm.remove(6);
            assert_eq!(rm.largest_diameter(), 7.0);
            rm.remove(4);
            assert_eq!(rm.largest_diameter(), 5.0);
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
