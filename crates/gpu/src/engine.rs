//! The SIMT execution engine.
//!
//! A launch executes `grid_dim` blocks of `block_dim` threads. Threads run
//! in warps of 32 lanes; within a warp the timing model is lockstep: the
//! warp's compute cost is the *slowest lane's* cost (that max **is** the
//! SIMT divergence model — when one lane's neighbor loop runs long, its 31
//! siblings wait, which is exactly the serial-neighbor-loop bottleneck the
//! paper observes at high densities, Fig. 11).
//!
//! Memory modeling happens at warp granularity on a sampled subset of
//! warps (deterministic stride sampling; the default full-trace is used by
//! tests, benchmarks sample to bound simulation time):
//!
//! * Lane accesses are aligned by *slot* (the i-th access of each lane —
//!   the SIMT analogue of "the same static instruction").
//! * Per slot, the distinct 128-byte segments touched by the warp become
//!   **coalesced transactions**; each transaction probes the simulated L2
//!   (`bdm_device::ShardedCache`), misses become DRAM traffic.
//! * Atomic operations to the same address within a slot serialize and
//!   are charged extra warp cycles.
//!
//! Fully deterministic: identical inputs give identical counters, at any
//! host worker count, which the tests rely on.
//!
//! # Blocks fork, the L2 drain does not
//!
//! A kernel whose blocks commute ([`Kernel::blocks_commute`]: no global
//! atomic, no block reading what another block of the launch writes) is
//! cut into contiguous chunks of blocks, `CHUNKS_PER_WORKER` per worker
//! of the vendored `rayon` (one chunk when there is one worker), and the
//! workers claim the chunks from its cursor: `par_iter_mut` over the
//! chunks' arenas, so `RAYON_NUM_THREADS`, `ThreadPool::install` and the
//! shuffled test schedule govern it like every other `par_*` loop. Any
//! other kernel runs the same loop as one chunk of all its blocks, in
//! order, on the calling thread. Either way each chunk runs its threads
//! and logs its traced warps into its own arena; after the join, one pass
//! on the calling thread streams the logged transactions through the L2
//! model, which must see one ordered stream (an LRU cache's hit count
//! depends on the sequence of lines it is shown). Every counter comes out
//! bit for bit as if one thread had run the blocks in order, whatever the
//! worker count and claim order — by construction:
//!
//! * **Batch boundaries.** Traced warps drain in batches of a fixed width
//!   (see `launch`), counted in launch order: block-major, then phase,
//!   then warp. Which warps are traced depends on the warp id alone, so
//!   the number of traced warp runs before a chunk's first block is a
//!   closed form of `grid_dim`, `block_dim`, the phase count and the trace
//!   stride, and a chunk cuts its bucket set at each boundary it contains.
//! * **Drain order.** The drain walks batches in order, keys ascending
//!   within a batch and, for each key, the chunks in block order — the
//!   stream one table filled warp by warp would hold.
//! * **Counts.** Threads, warps, FLOPs (sums of `u32` counts), shared
//!   accesses, atomics, serialization cycles, barriers and child launches
//!   are integers: summed per chunk, they add up exactly in any order.
//! * **Cycle sums.** A lane's cycles are not integers (an FP64 op costs
//!   `fp64_ratio()`, not a power of two), so their sums depend on the
//!   order of the additions. Each chunk logs one value per active lane
//!   and one maximum per warp, and the merge adds the logs up chunk by
//!   chunk: the additions of an in-order launch, in its order.
//!
//! # Coalescing happens where the access is logged
//!
//! Everything a chunk needs lives in its own `ChunkArena`, pooled in the
//! device, locked once per launch and grown on first use, so the trace
//! path allocates nothing in steady state. Its core is a table of
//! **per-key buckets**: one list of segment ids per slot key, holding that
//! key's transactions of every batch the chunk overlaps.
//!
//! * **An access is written at most once: filter, else table.** Lanes of
//!   a warp run one after the other, and on sorted input a lane mostly
//!   repeats its predecessor — the same neighbors, so the same slot keys
//!   and the same segments. `TraceTable` therefore keeps the previous
//!   lane's stream (`prev`: one `key << 32 | segment` record per access,
//!   in log order) beside the running lane's (`cur`), and an access whose
//!   record is the previous lane's record of that key goes no further:
//!   the segment is already in this warp's part of that key's bucket.
//!   Finding "that key" costs no search per access: `begin_slot` moves a
//!   cursor to where the previous lane's records of the new slot begin,
//!   and intra-slot indices count from 0, so the record to compare with is
//!   the `sub`-th from there. Exact by construction, not by assumption: a
//!   hit needs a record the previous lane of the *same warp generation*
//!   logged (the streams are emptied wherever the generation is bumped), a
//!   miss takes the table path below, so the buckets end up holding what
//!   they would hold without the filter. What it saves is the walk `rows
//!   [slot][sub]` → bucket header → tail of `words`, two dependent loads
//!   that miss L1 (a lane visits hundreds of other buckets between two
//!   visits to one key). [`TraceAccesses`] reports the share it absorbed:
//!   five in six accesses on sorted input, next to none on unsorted.
//! * **The table path.** `TraceTable::log` finds the key's bucket and
//!   appends the access's segment unless the part of the bucket this warp
//!   has written (`Bucket::start..`, found by a per-warp generation stamp)
//!   already holds it. Lanes execute in lane order, so
//!   a slot's segments land in *first appearance, lane-major* order; warps
//!   retire in order, so a bucket is *warp-major*. No per-lane access
//!   list outlives the next lane, no merge, no copy into a batch.
//! * **Ids are held as steps.** A bucket keeps a segment id as one `u16`
//!   code word, its step from the id before it in the bucket: on sorted
//!   input consecutive ids of a key are neighbors, so every id but a
//!   part's first fits, and that one (or any longer step) is a `FULL`
//!   word and the id's two halves. The header keeps what the table path
//!   needs in full — the last id, and the one the running warp's part
//!   follows — so nothing is decoded to append, and the warp's part only
//!   to look for an id that is not the newest. Until the drain a bucket
//!   holds its batches' transactions, two bytes each: a launch that is
//!   one L2 batch (a scene of fewer warps than the device holds resident)
//!   keeps every one of them.
//! * **Batch cuts.** A chunk that crosses a batch boundary sorts the keys
//!   the closing batch touched and ends that batch's part of each of
//!   their buckets with a `CUT` word; the next batch's warps append
//!   behind it, their first id in full. The buckets keep every batch of
//!   the chunk until the drain.
//! * **The buckets are the drain order.** The drain merges the chunks'
//!   sorted key lists and streams each bucket part through the L2,
//!   decoding it as it goes: all warps' slot-0 transactions, then slot-1,
//!   … — ties broken by warp. Nothing per transaction is sorted or
//!   gathered.
//! * **Atomics** also go to a per-warp `(key, address)` list — before the
//!   filter looks at them: a repeated segment is one transaction, but a
//!   repeated address still serializes; sorted at retire, the list's
//!   duplicate runs are the serialized operations.
//!
//! Both orders are the L2 model's *input* and must not change: the table
//! is a different way of producing the stream the `BTreeMap`-per-warp
//! coalescer in the tests produces, not a different stream.

use crate::counters::KernelCounters;
use crate::mem::{DeviceBuffer, DeviceWord};
use crate::timing::KernelTiming;
use bdm_device::cache::ShardedCache;
use bdm_device::specs::GpuSpec;
use bdm_grid::rayon;
use bdm_grid::rayon::prelude::*;
use bdm_math::Scalar;
use bdm_soa::Word;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Extra warp cycles when two atomics in the same slot hit one address.
const ATOMIC_SERIAL_CYCLES: f64 = 32.0;
/// Base issue cost of a shared-memory access (cycles, per lane).
const SHARED_ACCESS_CYCLES: f64 = 1.0;
/// Base issue cost of a shared-memory atomic (cycles, per lane).
const SHARED_ATOMIC_CYCLES: f64 = 10.0;
/// Per-lane issue cost of a global access (cycles); the transaction-level
/// cost is added at the warp level by the coalescer.
const GLOBAL_ACCESS_LANE_CYCLES: f64 = 0.25;
/// Issue-cycle multiplier for `sqrt`/division (SFU/iterative ops).
const SPECIAL_OP_CYCLES: f64 = 8.0;

/// Block chunks per host worker in a launch whose blocks commute: enough
/// that workers claiming from one cursor even out blocks of unequal cost
/// (dense regions' force threads walk longer lists), few enough that the
/// chunks' tables and the drain's merge over them stay small.
const CHUNKS_PER_WORKER: usize = 4;

/// Chunks a launch is cut into: one for a kernel whose blocks must run in
/// order or a single worker, else [`CHUNKS_PER_WORKER`] per worker (never
/// more than there are blocks). A function of these two numbers only.
fn chunk_count(grid_dim: u32, commute: bool, workers: usize) -> usize {
    if !commute || workers <= 1 {
        return 1;
    }
    (workers * CHUNKS_PER_WORKER).min(grid_dim as usize)
}

/// Launch geometry.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Number of blocks (CUDA grid dimension / OpenCL work-group count).
    pub grid_dim: u32,
    /// Threads per block (CUDA block dimension / OpenCL work-group size).
    pub block_dim: u32,
    /// Shared-memory words (8 bytes each) per block.
    pub shared_words: usize,
}

impl LaunchConfig {
    /// One thread per work item in blocks of `block_dim`, rounded up to
    /// whole blocks, no shared memory: the one launch shape of both APIs
    /// (CUDA's `⌈items / blockDim⌉` blocks, OpenCL's global size rounded
    /// up to whole work-groups). An empty launch still runs one block.
    pub fn for_items(items: usize, block_dim: u32) -> Self {
        let items = items.max(1) as u64;
        let grid_dim = items.div_ceil(block_dim as u64) as u32;
        Self {
            grid_dim,
            block_dim,
            shared_words: 0,
        }
    }

    /// Total threads launched.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }
}

/// Identity of the executing thread.
#[derive(Debug, Clone, Copy)]
pub struct ThreadId {
    /// Block index within the grid.
    pub block: u32,
    /// Thread index within the block.
    pub thread: u32,
    /// Block size (for global-id computation).
    pub block_dim: u32,
    /// Grid size in blocks.
    pub grid_dim: u32,
}

impl ThreadId {
    /// Flat global thread id (`blockIdx.x * blockDim.x + threadIdx.x`).
    #[inline(always)]
    pub fn global(&self) -> u64 {
        self.block as u64 * self.block_dim as u64 + self.thread as u64
    }
}

/// A device kernel. Block-wide barriers are expressed as *phases*: the
/// engine runs every thread of a block through phase 0, then phase 1, …
/// — semantically `__syncthreads()` between consecutive phases.
///
/// `Sync` because blocks that commute run on several host threads at once.
pub trait Kernel: Sync {
    /// Number of barrier-separated phases (default 1 = no barrier).
    fn phases(&self) -> usize {
        1
    }
    /// Whether the launch's blocks commute: no thread issues a global
    /// atomic (its return value would depend on which block got there
    /// first) and no block reads a device word another block of the same
    /// launch writes. Such a launch forks its blocks across host workers
    /// (module docs); the device words and every counter come out as if
    /// the blocks ran in order. Default `false`: the blocks run in order on
    /// the calling thread. A global atomic in a launch that declares it
    /// panics, at every worker count, so a wrong declaration fails loudly
    /// instead of changing bits.
    fn blocks_commute(&self) -> bool {
        false
    }
    /// Execute one thread's work for one phase.
    fn thread(&self, phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>);
}

/// Per-block shared memory: 8-byte words, atomically accessed.
#[derive(Default)]
pub struct BlockShared {
    words: Vec<AtomicU64>,
}

impl BlockShared {
    /// Hand the next block `words` zeroed words. The storage is reused
    /// (it only ever allocates when a launch asks for more than any
    /// launch before it), and the length is exact so an out-of-range
    /// shared index still panics.
    fn rezero(&mut self, words: usize) {
        self.words.clear();
        self.words.resize_with(words, || AtomicU64::new(0));
    }

    #[inline(always)]
    fn load(&self, i: usize) -> u64 {
        self.words[i].load(Ordering::Relaxed)
    }

    #[inline(always)]
    fn store(&self, i: usize, v: u64) {
        self.words[i].store(v, Ordering::Relaxed)
    }

    #[inline(always)]
    fn fetch_add_u32(&self, i: usize, v: u32) -> u32 {
        self.words[i].fetch_add(v as u64, Ordering::AcqRel) as u32
    }
}

/// Highest slot a thread may open: a slot key is `slot << 8 | sub` in 32
/// bits, so the 2²⁴-th `begin_slot` would drop high bits.
const MAX_SLOT: u32 = (1 << 24) - 1;

/// What a thread counts as it runs. The running thread's copy lives *by
/// value* in its [`ThreadCtx`] (see there); `launch` files it in the
/// lane's record when the thread returns.
#[derive(Debug, Clone, Copy, Default)]
struct LaneTotals {
    cycles: f64,
    flops32: f64,
    flops64: f64,
    shared_accesses: u64,
}

/// Per-lane execution record, reused across lanes: what `retire_warp`
/// reads across the lanes of a warp.
#[derive(Debug, Default)]
struct LaneRecord {
    active: bool,
    totals: LaneTotals,
    /// The lane's raw global accesses, for the reference coalescer.
    #[cfg(test)]
    accesses: Vec<tests::Access>,
    shared_atomics: Vec<u64>,
}

impl LaneRecord {
    fn reset(&mut self) {
        self.active = false;
        self.totals = LaneTotals::default();
        #[cfg(test)]
        self.accesses.clear();
        self.shared_atomics.clear();
    }
}

/// The code word that ends a batch's part of a bucket in a chunk that
/// crosses a batch boundary: the next batch's segments follow it.
const CUT: u16 = i16::MIN as u16;
/// The code word that a segment id's low and high halves follow: a part's
/// first id, and one further than [`WORD_STEPS`] from the id before it.
const FULL: u16 = CUT + 1;
/// The steps from the id before it that a segment id's code word holds:
/// the `i16` range but for [`CUT`] and [`FULL`].
const WORD_STEPS: std::ops::RangeInclusive<i32> = FULL as i16 as i32 + 1..=i16::MAX as i32;
/// `Bucket::last` where there is no id before the next: an empty bucket,
/// and after a [`CUT`]. Segment ids are checked below `u32::MAX` where they
/// are logged, so none equals it.
const NO_SEG: u32 = u32::MAX;

/// The id the code at `words[*at..]` stands for after the id `last`; moves
/// `at` past the code.
#[inline(always)]
fn read_seg(words: &[u16], at: &mut usize, last: u32) -> u32 {
    let word = words[*at];
    *at += 1;
    if word != FULL {
        // Sign-extended: the difference is taken modulo 2^32.
        return last.wrapping_add(word as i16 as u32);
    }
    *at += 2;
    u32::from(words[*at - 2]) | u32::from(words[*at - 1]) << 16
}

/// One slot key's coalesced transactions in one chunk: the 128-byte
/// segment ids of every traced warp of the chunk that touched the key,
/// warps in retire order, each warp's distinct segments in
/// first-appearance, lane-major order, and a [`CUT`] after each batch
/// that ended at a boundary inside the chunk. The ids are held as code
/// words, two bytes an id: its step from the id before it in the
/// bucket, modulo 2³², or [`FULL`] and the id. On
/// sorted input consecutive ids of a key are neighbors, so every id but a
/// part's first is one word.
#[derive(Debug)]
struct Bucket {
    words: Vec<u16>,
    /// Generation of the last warp that touched this key …
    stamp: u64,
    /// … `words.len()` at that warp's first touch: `words[start..]` is
    /// the slot the warp is coalescing …
    start: u32,
    /// … and the id its first code follows (`last` at that touch).
    base: u32,
    /// The id the next code follows: the last one appended, or [`NO_SEG`].
    last: u32,
    /// Where the drain resumes: the first code of the next batch's part.
    drained: u32,
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket {
            words: Vec::new(),
            stamp: 0,
            start: 0,
            base: NO_SEG,
            last: NO_SEG,
            drained: 0,
        }
    }
}

impl Bucket {
    /// Append `seg`: its step from the last id, or in full. The words
    /// grow by a quarter (at least 4) where `Vec::push` would double them:
    /// the buckets hold a launch's transactions until the drain, and
    /// doubling leaves up to half of that capacity unused. Still geometric,
    /// so the appends stay amortized O(1), and the capacity is kept across
    /// drains, so a repeated launch does not allocate.
    #[inline(always)]
    fn push_seg(&mut self, seg: u32) {
        self.reserve();
        let delta = seg.wrapping_sub(self.last) as i32;
        if self.last != NO_SEG && WORD_STEPS.contains(&delta) {
            self.words.push(delta as u16);
        } else {
            self.words
                .extend_from_slice(&[FULL, seg as u16, (seg >> 16) as u16]);
        }
        self.last = seg;
    }

    /// End the open batch's part: the next id is coded in full.
    fn push_cut(&mut self) {
        self.reserve();
        self.words.push(CUT);
        self.last = NO_SEG;
    }

    /// Room for the longest code: [`FULL`] and two halves.
    #[inline(always)]
    fn reserve(&mut self) {
        let words = &mut self.words;
        if words.capacity() - words.len() < 3 {
            words.reserve_exact((words.len() / 4).max(4));
        }
    }

    /// Whether the part the running warp has written holds `seg`: the
    /// newest id first — neighboring lanes mostly share a segment —, then
    /// the part decoded from `base` on.
    #[inline(always)]
    fn warp_part_holds(&self, seg: u32) -> bool {
        if self.last == seg {
            return true;
        }
        let part = &self.words[self.start as usize..];
        let (mut at, mut id) = (0, self.base);
        while at < part.len() {
            id = read_seg(part, &mut at, id);
            if id == seg {
                return true;
            }
        }
        false
    }

    /// Empty the bucket, keeping its capacity.
    fn clear(&mut self) {
        self.words.clear();
        self.last = NO_SEG;
        self.drained = 0;
    }
}

/// A batch whose keys a chunk has cut: its index in the launch and where
/// its keys end in [`TraceTable::touched`].
#[derive(Debug, Clone, Copy)]
struct Piece {
    batch: u64,
    end: usize,
}

/// The traced warps' accesses, coalesced as they are logged (module docs).
///
/// An access is tagged with its *slot key*: (loop iteration << 8) |
/// intra-iteration index. Lanes of a warp executing the same static load
/// in the same loop iteration share a slot key — exactly those accesses
/// merge, like real SIMT hardware merges the lanes of one memory
/// instruction. Within one lane the keys never decrease: `slot` only grows
/// and `sub` restarts only when it does. They are strictly increasing
/// except at the saturation point: the intra-slot index is clamped to 255,
/// so the 256th and every later access of one slot share key
/// `slot << 8 | 255` and coalesce as if they were one instruction.
///
/// A lane's intra-slot indices are consecutive from 0, so a row as long
/// as the largest index seen holds only keys that were touched: the table
/// grows with the keys a device has seen, never with `max slot × 256`.
#[derive(Debug, Default)]
struct TraceTable {
    /// `rows[slot][sub]` is the bucket of key `slot << 8 | sub`.
    rows: Vec<Vec<Bucket>>,
    /// The keys each batch touched, batch after batch: the cut ones
    /// ascending (their drain order), then the open batch's in
    /// first-touch order.
    touched: Vec<u32>,
    /// The cut batches, in launch order.
    pieces: Vec<Piece>,
    /// The drain's position: the next key in `touched` …
    next_key: usize,
    /// … and the piece it belongs to.
    next_piece: usize,
    /// `(key, address)` of the current warp's global atomics.
    atomics: Vec<(u32, u64)>,
    /// Generation of the warp being logged: bumped before the warp's
    /// first lane runs (so ≥ 1, unlike a new bucket's stamp) and never
    /// reused, so a stale `Bucket::stamp` — an earlier warp's, a panicked
    /// launch's — never matches.
    warp: u64,
    /// `log2` of the transaction segment size.
    seg_shift: u32,
    /// The lane filter (module docs): what the previous lane of this
    /// warp logged, one `key << 32 | segment` record per access in log
    /// order, closed by a `u64::MAX` sentinel that no record equals and
    /// no key exceeds (`seek_slot` needs no bound), …
    prev: Vec<u64>,
    /// … and the same of the running lane.
    cur: Vec<u64>,
    /// Accesses logged by the lanes that ended since the launch began …
    logged: u64,
    /// … and the accesses the filter let through to the buckets.
    reached_table: u64,
}

impl TraceTable {
    /// Where the previous lane's records of `slot` begin in `prev` (or, if
    /// it logged none, those of the first slot after it), searching on
    /// from `from`, where an earlier slot's began.
    #[inline(always)]
    fn seek_slot(&self, slot: u32, from: usize) -> usize {
        let first = (slot as u64) << 40;
        let mut at = from;
        while self.prev[at] < first {
            at += 1;
        }
        at
    }

    /// Log one access of the current warp. It is written at most once:
    /// into its key's bucket, unless the previous lane logged the same
    /// key and segment. `prev_slot` is `seek_slot` of the key's slot: a
    /// lane's intra-slot indices are consecutive from 0, so the previous
    /// lane's record of this key, if it has one, is the `sub`-th from
    /// there — and whatever else is found there is not equal.
    #[inline(always)]
    fn log(&mut self, key: u32, addr: u64, atomic: bool, prev_slot: usize) {
        // Device addresses are never recycled, so they only grow: checked
        // (strictly, so that no record equals the sentinel and no segment
        // id `NO_SEG`).
        let seg = addr >> self.seg_shift;
        assert!(
            seg < u32::MAX as u64,
            "device address beyond the 32-bit segment ids of the trace"
        );
        if atomic {
            self.atomics.push((key, addr));
        }
        let record = (key as u64) << 32 | seg;
        self.cur.push(record);
        if self.prev.get(prev_slot + (key & 255) as usize) == Some(&record) {
            // The previous lane put this segment into the part of the
            // bucket this warp is writing, or found it there: the bucket
            // is stamped, `touched` and holds it.
            return;
        }
        self.reached_table += 1;
        let (slot, sub) = ((key >> 8) as usize, (key & 255) as usize);
        if self.rows.get(slot).is_none_or(|row| sub >= row.len()) {
            self.grow_row(slot, sub);
        }
        let bucket = &mut self.rows[slot][sub];
        let seg = seg as u32;
        if bucket.stamp != self.warp {
            bucket.stamp = self.warp;
            bucket.start = bucket.words.len() as u32;
            bucket.base = bucket.last;
            // The batch's first touch of the key: nothing before it in
            // this chunk, or an earlier batch's part, cut.
            if bucket.last == NO_SEG {
                self.touched.push(key);
            }
        } else if bucket.warp_part_holds(seg) {
            return;
        }
        bucket.push_seg(seg);
    }

    /// Start a warp: a generation no bucket carries, and no previous lane
    /// to compare against — neither the last lane of the warp before nor
    /// a lane of a launch that died.
    fn begin_warp(&mut self) {
        self.warp += 1;
        self.cur.clear();
        self.prev.clear();
        self.prev.push(u64::MAX);
    }

    /// The running lane's stream becomes the one the next lane compares
    /// against.
    fn end_lane(&mut self) {
        self.logged += self.cur.len() as u64;
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.prev.push(u64::MAX);
        self.cur.clear();
        // Lanes alternate between the two lists: each is kept as large as
        // the longest lane either has seen, so a repeated launch does not
        // allocate whichever way round it meets them.
        self.cur.reserve(self.prev.len());
    }

    /// Make `rows[slot]` exactly `sub + 1` long (`resize_with` alone
    /// would round a one-bucket row up to four).
    #[cold]
    #[inline(never)]
    fn grow_row(&mut self, slot: usize, sub: usize) {
        if slot >= self.rows.len() {
            self.rows.resize_with(slot + 1, Vec::new);
        }
        let row = &mut self.rows[slot];
        row.reserve_exact(sub + 1 - row.len());
        row.resize_with(sub + 1, Bucket::default);
    }

    fn bucket(&mut self, key: u32) -> &mut Bucket {
        &mut self.rows[(key >> 8) as usize][(key & 255) as usize]
    }

    /// Close batch `batch` — every key it touched since the last cut —
    /// in drain order: its keys ascending. With `more` warps of the chunk
    /// to come, a [`CUT`] ends its part of each of their buckets.
    fn cut(&mut self, batch: u64, more: bool) {
        let from = self.pieces.last().map_or(0, |p| p.end);
        if from == self.touched.len() {
            return;
        }
        self.touched[from..].sort_unstable();
        if more {
            for i in from..self.touched.len() {
                let key = self.touched[i];
                self.bucket(key).push_cut();
            }
        }
        let end = self.touched.len();
        self.pieces.push(Piece { batch, end });
    }

    /// The drain's next key, as `batch << 32 | key` — the chunks' common
    /// drain order — or `None` once every batch has been streamed.
    fn head(&mut self) -> Option<u64> {
        let key = *self.touched.get(self.next_key)?;
        while self.pieces[self.next_piece].end <= self.next_key {
            self.next_piece += 1;
        }
        Some(self.pieces[self.next_piece].batch << 32 | key as u64)
    }

    /// Hand the next key's part of its batch to `transaction`, front to
    /// back, decoding as it goes: up to its `CUT`, or to the end of the
    /// bucket. A bucket is emptied (its capacity kept) with its last part.
    fn drain_head(&mut self, transaction: &mut impl FnMut(u64)) {
        let key = self.touched[self.next_key];
        self.next_key += 1;
        let seg_shift = self.seg_shift;
        let bucket = self.bucket(key);
        let words = &bucket.words;
        let (mut at, mut seg) = (bucket.drained as usize, NO_SEG);
        while at < words.len() && words[at] != CUT {
            seg = read_seg(words, &mut at, seg);
            transaction((seg as u64) << seg_shift);
        }
        if at + 1 >= words.len() {
            bucket.clear();
        } else {
            bucket.drained = at as u32 + 1;
        }
    }

    /// Empty the table for a new launch. A drained launch left only its
    /// key lists; a launch that panicked left staged buckets from
    /// `next_key` on, and a warp's atomics.
    fn clear(&mut self) {
        for i in self.next_key..self.touched.len() {
            let key = self.touched[i];
            self.bucket(key).clear();
        }
        self.touched.clear();
        self.pieces.clear();
        (self.next_key, self.next_piece) = (0, 0);
        self.atomics.clear();
        (self.logged, self.reached_table) = (0, 0);
    }

    /// Heap bytes the table holds: its rows, their bucket headers and
    /// code words, its key, piece and atomics lists and the filter's streams,
    /// by capacity.
    fn held_bytes(&self) -> usize {
        use std::mem::size_of;
        let row_bytes = |row: &Vec<Bucket>| {
            let words: usize = row.iter().map(|b| b.words.capacity() * 2).sum();
            row.capacity() * size_of::<Bucket>() + words
        };
        self.rows.capacity() * size_of::<Vec<Bucket>>()
            + self.rows.iter().map(row_bytes).sum::<usize>()
            + self.touched.capacity() * size_of::<u32>()
            + self.pieces.capacity() * size_of::<Piece>()
            + self.atomics.capacity() * size_of::<(u32, u64)>()
            + (self.prev.capacity() + self.cur.capacity()) * size_of::<u64>()
    }
}

/// The per-thread execution context handed to kernels. All device-visible
/// work must go through it so the performance model sees it.
///
/// The running lane's totals are fields of the context itself, not of the
/// lane's record behind a pointer: every `ld` / `flops` / `iops` adds to
/// `cycles`, eight times per force candidate, and through a pointer each
/// addition is a load–add–store round trip through memory that the next
/// one waits for — a serial chain about as long as the candidate's own
/// work. A field of the context the kernel holds by `&mut` can stay in a
/// register.
pub struct ThreadCtx<'a> {
    shared: &'a BlockShared,
    totals: LaneTotals,
    /// Shared-memory atomic words of this lane, in issue order.
    shared_atomics: &'a mut Vec<u64>,
    /// The lane's raw global accesses, for the reference coalescer.
    #[cfg(test)]
    accesses: &'a mut Vec<tests::Access>,
    /// Where a traced warp's accesses go; `None` on an untraced warp.
    trace: Option<&'a mut TraceTable>,
    fp64_cost: f64,
    /// The launch declared that its blocks commute: no global atomics.
    commute: bool,
    /// Current slot (loop iteration) of this lane.
    slot: u32,
    /// Access index within the current slot, saturating at 256.
    sub: u32,
    /// Slot key of this lane's latest traced access.
    last_key: u32,
    /// Where the previous lane's accesses of the current slot begin in
    /// `TraceTable::prev` (traced lanes only).
    prev_slot: usize,
    /// Child launches requested via dynamic parallelism in this thread.
    pub(crate) child_launches: u64,
}

impl<'a> ThreadCtx<'a> {
    /// Count `n` fused-multiply-add-class FLOPs at precision `R`
    /// (1 FLOP = half an issue cycle at FP32; FP64 pays the device ratio).
    #[inline(always)]
    pub fn flops<R: Scalar>(&mut self, n: u32) {
        let n = n as f64;
        if R::IS_F64 {
            self.totals.flops64 += n;
            self.totals.cycles += 0.5 * n * self.fp64_cost;
        } else {
            self.totals.flops32 += n;
            self.totals.cycles += 0.5 * n;
        }
    }

    /// Count `n` special-function ops (`sqrt`, division): 1 FLOP each for
    /// roofline purposes, several issue cycles each for timing.
    #[inline(always)]
    pub fn special<R: Scalar>(&mut self, n: u32) {
        let n = n as f64;
        if R::IS_F64 {
            self.totals.flops64 += n;
            self.totals.cycles += SPECIAL_OP_CYCLES * n * self.fp64_cost;
        } else {
            self.totals.flops32 += n;
            self.totals.cycles += SPECIAL_OP_CYCLES * n;
        }
    }

    /// Count `n` integer/address ops (1 issue cycle per 2, like FP32; not
    /// part of the FLOP totals).
    #[inline(always)]
    pub fn iops(&mut self, n: u32) {
        self.totals.cycles += 0.5 * n as f64;
    }

    /// Global load.
    #[inline(always)]
    pub fn ld<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.log_access(buf.addr(i), false);
        buf.read(i)
    }

    /// Global store.
    #[inline(always)]
    pub fn st<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.log_access(buf.addr(i), false);
        buf.write(i, v);
    }

    /// Global atomic exchange.
    ///
    /// # Panics
    /// In a launch whose kernel declares [`Kernel::blocks_commute`].
    #[inline(always)]
    pub fn atomic_exchange<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.check_atomic();
        self.log_access(buf.addr(i), true);
        buf.atomic_exchange(i, v)
    }

    /// Global atomic add.
    ///
    /// # Panics
    /// In a launch whose kernel declares [`Kernel::blocks_commute`].
    #[inline(always)]
    pub fn atomic_add<T: DeviceWord>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.check_atomic();
        self.log_access(buf.addr(i), true);
        buf.atomic_add(i, v)
    }

    #[inline(always)]
    fn check_atomic(&self) {
        assert!(
            !self.commute,
            "global atomic in a kernel that declares commuting blocks"
        );
    }

    /// Mark the start of a data-dependent loop iteration. Calling this at
    /// the top of a per-candidate loop keeps lanes' accesses *slot
    /// aligned* even when lanes skip work (e.g. the self-exclusion test):
    /// real warps re-converge at the loop head the same way.
    ///
    /// # Panics
    /// On a thread's 2²⁴-th iteration: its slot keys would wrap.
    #[inline(always)]
    pub fn begin_slot(&mut self) {
        assert!(self.slot < MAX_SLOT, "slot overflow: 2^24 slots per thread");
        self.slot += 1;
        self.sub = 0;
        if let Some(trace) = self.trace.as_deref() {
            self.prev_slot = trace.seek_slot(self.slot, self.prev_slot);
        }
    }

    #[inline(always)]
    fn log_access(&mut self, addr: u64, atomic: bool) {
        self.totals.cycles += GLOBAL_ACCESS_LANE_CYCLES;
        if let Some(trace) = self.trace.as_deref_mut() {
            let sub = self.sub.min(255);
            self.sub = sub + 1;
            let key = self.slot << 8 | sub;
            debug_assert!(self.last_key <= key, "a lane's slot keys never decrease");
            self.last_key = key;
            trace.log(key, addr, atomic, self.prev_slot);
            #[cfg(test)]
            self.accesses.push(tests::Access { key, addr, atomic });
        }
    }

    /// Shared-memory load of word `i` reinterpreted as `T`.
    #[inline(always)]
    pub fn sh_ld<T: DeviceWord + Word>(&mut self, i: usize) -> T {
        self.totals.cycles += SHARED_ACCESS_CYCLES;
        self.totals.shared_accesses += 1;
        T::from_word(self.shared.load(i))
    }

    /// Shared-memory store of word `i`.
    #[inline(always)]
    pub fn sh_st<T: DeviceWord + Word>(&mut self, i: usize, v: T) {
        self.totals.cycles += SHARED_ACCESS_CYCLES;
        self.totals.shared_accesses += 1;
        self.shared.store(i, v.to_word());
    }

    /// Shared-memory atomic add on a `u32` counter word (the tile-append
    /// cursor of the paper's shared-memory kernel). Returns the old value.
    #[inline(always)]
    pub fn sh_atomic_add_u32(&mut self, i: usize, v: u32) -> u32 {
        self.totals.cycles += SHARED_ATOMIC_CYCLES;
        self.totals.shared_accesses += 1;
        if self.trace.is_some() {
            self.shared_atomics.push(i as u64);
        }
        self.shared.fetch_add_u32(i, v)
    }

    /// Dynamic parallelism: record a child launch (the engine charges its
    /// overhead; the caller runs the child work inline).
    #[inline(always)]
    pub fn launch_child(&mut self) {
        self.child_launches += 1;
    }
}

/// Host wall clock the simulator itself spent on a launch, by phase.
/// Kept outside [`KernelCounters`]: it is the only thing here that is not
/// a deterministic function of the inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCost {
    /// Running the kernel's threads, chunks forked across the host
    /// workers or not: the functional work, the lane totals, and — on
    /// traced warps — logging every access: past the lane filter or
    /// coalesced into its bucket.
    pub exec_s: f64,
    /// The part of `exec_s` spent in launches whose blocks commute.
    pub forked_s: f64,
    /// Merging the chunks' counters and streaming their buckets through
    /// the L2 model.
    pub drain_s: f64,
}

impl HostCost {
    /// Element-wise accumulation (pipeline totals).
    pub fn merge(&mut self, other: &Self) {
        self.exec_s += other.exec_s;
        self.forked_s += other.forked_s;
        self.drain_s += other.drain_s;
    }
}

/// How the traced warps' global accesses were logged — why the trace path
/// cost what it cost. Deterministic, but a property of the simulator, not
/// of the simulated device: kept beside [`HostCost`], outside
/// [`KernelCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceAccesses {
    /// Global accesses of traced warps.
    pub total: u64,
    /// Those that repeated, key and segment, what the previous lane of
    /// their warp logged and never reached the bucket table. High where
    /// neighboring lanes walk the same neighbors (sorted input), near
    /// zero where they do not.
    pub filtered: u64,
}

impl TraceAccesses {
    /// Element-wise accumulation (pipeline totals).
    pub fn merge(&mut self, other: &Self) {
        self.total += other.total;
        self.filtered += other.filtered;
    }
}

/// How launches ran their blocks — why their exec time reads what it
/// reads. A property of the kernel and of the host's worker count, not of
/// the simulated device: kept beside [`HostCost`], outside
/// [`KernelCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Launches {
    /// Launches of kernels whose blocks commute, cut into chunks that the
    /// host workers claim.
    pub forked: u32,
    /// Launches that ran their blocks in order, as one chunk.
    pub ordered: u32,
    /// Block chunks over all of them.
    pub chunks: u64,
}

impl Launches {
    /// Element-wise accumulation (pipeline totals).
    pub fn merge(&mut self, other: &Self) {
        self.forked += other.forked;
        self.ordered += other.ordered;
        self.chunks += other.chunks;
    }
}

/// Result of a kernel launch: counters plus modeled timing.
#[derive(Debug, Clone)]
pub struct LaunchResult {
    /// Performance counters (the `nvprof` stand-in).
    pub counters: KernelCounters,
    /// Modeled execution time on the device.
    pub timing: KernelTiming,
    /// Measured host cost of simulating the launch.
    pub host: HostCost,
    /// Whether its blocks forked, and into how many chunks.
    pub launches: Launches,
    /// How many traced accesses the lane filter absorbed.
    pub accesses: TraceAccesses,
}

/// One block chunk's launch scratch, owned by the device and reused by
/// every launch: the warp's lane records, the block's shared memory, the
/// table of coalesced transactions awaiting the L2 (layout: module doc),
/// and what the chunk's warps add to the counters. Starts empty and grows
/// on first use.
#[derive(Default)]
struct ChunkArena {
    lanes: Vec<LaneRecord>,
    shared: BlockShared,
    /// Shared-memory atomic words of the slot being checked for conflicts.
    shared_slot: Vec<u64>,
    table: TraceTable,
    /// The chunk's integer-valued counters (its cycle sums stay 0) …
    counters: KernelCounters,
    /// … its active lanes' cycles in execution order …
    lane_cycles: Vec<f64>,
    /// … and its warps' slowest-lane cycles.
    warp_cycles: Vec<f64>,
}

impl ChunkArena {
    /// Ready the arena for a launch on warps of `warp_size` lanes.
    fn begin(&mut self, warp_size: usize) {
        // A kernel that panicked mid-launch leaves a half-staged table.
        self.table.clear();
        self.lanes.resize_with(warp_size, LaneRecord::default);
        self.counters = KernelCounters::default();
        self.lane_cycles.clear();
        self.warp_cycles.clear();
    }

    /// Aggregate a warp's lane records into the chunk's counters and
    /// logs and, for traced warps, charge the serialization of the atomics
    /// they logged (their transactions are already in the table).
    fn retire_warp(&mut self, traced: bool, count_threads: bool) {
        let Self {
            lanes,
            shared_slot,
            table,
            counters,
            lane_cycles,
            warp_cycles,
            ..
        } = self;
        // Lane 0 of every warp is a thread of the block: there is no warp
        // without an active lane.
        let mut max_cycles = 0.0f64;
        for lane in lanes.iter().filter(|l| l.active) {
            if count_threads {
                counters.threads_run += 1;
            }
            counters.flops_fp32 += lane.totals.flops32;
            counters.flops_fp64 += lane.totals.flops64;
            counters.shared_accesses += lane.totals.shared_accesses as f64;
            lane_cycles.push(lane.totals.cycles);
            max_cycles = max_cycles.max(lane.totals.cycles);
        }
        if count_threads {
            counters.warps_run += 1;
        }
        warp_cycles.push(max_cycles);

        if !traced {
            return;
        }
        if count_threads {
            counters.warps_traced += 1;
        }

        // Global atomics to one address within one slot serialize: sorted by
        // (key, address), those are the duplicate runs.
        counters.atomic_ops += table.atomics.len() as f64;
        counters.atomic_serial_cycles += serialization_cycles(&mut table.atomics);
        table.atomics.clear();

        // Shared-memory atomic conflicts, slot-aligned by per-lane order.
        let max_sh = lanes
            .iter()
            .map(|l| l.shared_atomics.len())
            .max()
            .unwrap_or(0);
        for slot in 0..max_sh {
            shared_slot.clear();
            shared_slot.extend(lanes.iter().filter_map(|l| l.shared_atomics.get(slot)));
            counters.atomic_serial_cycles += serialization_cycles(shared_slot);
        }
    }
}

/// What every chunk of one launch runs and needs to know.
struct LaunchPlan<'k, K> {
    kernel: &'k K,
    cfg: LaunchConfig,
    phases: usize,
    warps_per_block: u64,
    warp_size: u32,
    /// Every `trace_sample`-th warp id is traced.
    trace_sample: u64,
    /// Traced warp runs per L2 batch (see `launch`).
    batch_width: u64,
    fp64_cost: f64,
    /// [`Kernel::blocks_commute`]: its global atomics panic.
    commute: bool,
    chunks: usize,
}

impl<K: Kernel> LaunchPlan<'_, K> {
    /// Blocks of chunk `c`: the grid cut into `chunks` contiguous ranges,
    /// as even as integer division makes them.
    fn blocks(&self, c: usize) -> Range<u32> {
        let at = |c: usize| (c as u64 * self.cfg.grid_dim as u64 / self.chunks as u64) as u32;
        at(c)..at(c + 1)
    }

    /// Run chunk `c`'s blocks, every phase and warp of each in order, into
    /// `arena`, cutting its table wherever a batch of the whole launch
    /// ends.
    fn run_chunk(&self, c: usize, arena: &mut ChunkArena) {
        let blocks = self.blocks(c);
        // Traced warp runs before the chunk's first: every block runs all
        // phases of its warps, and a warp is traced by its id alone.
        let traced_ids = (blocks.start as u64 * self.warps_per_block).div_ceil(self.trace_sample);
        let mut traced_runs = self.phases as u64 * traced_ids;
        for block in blocks {
            arena.shared.rezero(self.cfg.shared_words);
            for phase in 0..self.phases {
                if phase > 0 {
                    arena.counters.barriers += 1;
                }
                for warp in 0..self.warps_per_block {
                    let warp_id = block as u64 * self.warps_per_block + warp;
                    let traced = warp_id.is_multiple_of(self.trace_sample);
                    self.run_warp(arena, block, phase, warp as u32, traced);
                    arena.retire_warp(traced, phase == 0);
                    if traced {
                        traced_runs += 1;
                        if traced_runs.is_multiple_of(self.batch_width) {
                            arena.table.cut(traced_runs / self.batch_width - 1, true);
                        }
                    }
                }
            }
        }
        // The open batch: the one of the chunk's last traced warp.
        let last_batch = traced_runs.saturating_sub(1) / self.batch_width;
        arena.table.cut(last_batch, false);
    }

    /// Run the lanes of one warp, one after the other.
    fn run_warp(&self, arena: &mut ChunkArena, block: u32, phase: usize, warp: u32, traced: bool) {
        let ChunkArena {
            lanes,
            shared,
            table,
            counters,
            ..
        } = arena;
        // Before the first lane logs: a warp that dies half way must not
        // share its generation with the next.
        table.begin_warp();
        let warp_base = warp * self.warp_size;
        for (l, lane) in lanes.iter_mut().enumerate() {
            lane.reset();
            let thread = warp_base + l as u32;
            if thread >= self.cfg.block_dim {
                continue;
            }
            lane.active = true;
            let tid = ThreadId {
                block,
                thread,
                block_dim: self.cfg.block_dim,
                grid_dim: self.cfg.grid_dim,
            };
            let mut ctx = ThreadCtx {
                shared,
                totals: LaneTotals::default(),
                shared_atomics: &mut lane.shared_atomics,
                #[cfg(test)]
                accesses: &mut lane.accesses,
                trace: traced.then_some(&mut *table),
                fp64_cost: self.fp64_cost,
                commute: self.commute,
                slot: 0,
                sub: 0,
                last_key: 0,
                prev_slot: 0,
                child_launches: 0,
            };
            self.kernel.thread(phase, tid, &mut ctx);
            counters.child_launches += ctx.child_launches;
            lane.totals = ctx.totals;
            if traced {
                table.end_lane();
            }
        }
    }
}

/// The simulated device: a spec, a live L2 model, and trace configuration.
pub struct GpuDevice {
    spec: GpuSpec,
    /// Trace every `trace_sample`-th warp (1 = all warps).
    trace_sample: u64,
    /// The chunks' launch scratch and the L2 model, under the one lock a
    /// launch takes: the drain reaches the cache through `&mut`.
    chunks: Mutex<(Vec<ChunkArena>, ShardedCache)>,
}

impl GpuDevice {
    /// Device with full warp tracing (tests, small launches).
    pub fn new(spec: GpuSpec) -> Self {
        Self::with_trace_sampling(spec, 1)
    }

    /// Device tracing every `sample`-th warp (large benchmark launches;
    /// the traced subset is scaled up, see [`KernelCounters`]).
    ///
    /// Cache **set sampling**: tracing 1/k of the warps sends 1/k of the
    /// traffic through the L2 model, which would compress reuse
    /// distances k-fold and inflate hit rates. Scaling the simulated
    /// capacity by 1/k restores the capacity-to-traffic ratio — the
    /// standard set-sampling argument from trace-driven cache
    /// simulation.
    pub fn with_trace_sampling(spec: GpuSpec, sample: u64) -> Self {
        let sample = sample.max(1);
        let capacity =
            (spec.l2_bytes / sample).max(spec.l2_line_bytes as u64 * spec.l2_ways as u64 * 16);
        let l2 = ShardedCache::new(capacity, spec.l2_ways, spec.l2_line_bytes, 16);
        Self {
            spec,
            trace_sample: sample,
            chunks: Mutex::new((Vec::new(), l2)),
        }
    }

    /// The device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current warp trace stride.
    pub fn trace_sample(&self) -> u64 {
        self.trace_sample
    }

    /// Invalidate the simulated L2 (e.g. between independent experiments).
    /// Waits for a launch in flight: the L2 lives under the launch lock.
    pub fn reset_l2(&self) {
        self.chunks.lock().1.reset();
    }

    /// Heap bytes the chunks' trace tables hold, by capacity. They are
    /// kept across launches, so this is what the largest launch the device
    /// has run needed. Waits for a launch in flight.
    pub fn trace_bytes(&self) -> u64 {
        let pool = &self.chunks.lock().0;
        pool.iter().map(|a| a.table.held_bytes() as u64).sum()
    }

    /// Execute a kernel launch and return counters + modeled timing.
    /// Launches on one device serialize on its scratch arenas; the blocks
    /// of one launch fork across the host workers when they commute
    /// (module docs).
    pub fn launch<K: Kernel>(&self, kernel: &K, cfg: LaunchConfig) -> LaunchResult {
        assert!(cfg.block_dim > 0 && cfg.grid_dim > 0, "empty launch");
        assert!(
            cfg.shared_words * 8 <= self.spec.shared_mem_per_sm as usize,
            "shared memory request exceeds the device's {} bytes per SM",
            self.spec.shared_mem_per_sm
        );
        let warps_per_block = cfg.block_dim.div_ceil(self.spec.warp_size) as u64;

        // Occupancy: how many blocks fit one SM, limited by the thread
        // budget and by shared memory. Drives both the latency-hiding
        // penalty (timing) and the width of the L2 interleaving batch.
        let resident_blocks = {
            let by_threads = (self.spec.max_threads_per_sm / cfg.block_dim).max(1);
            let by_shared = if cfg.shared_words > 0 {
                (self.spec.shared_mem_per_sm as usize / (cfg.shared_words * 8)).max(1) as u32
            } else {
                u32::MAX
            };
            by_threads.min(by_shared).min(32)
        };

        // The device runs `sm_count × resident_blocks × warps_per_block`
        // warps concurrently; their memory streams interleave at the L2.
        // A sequential warp-by-warp simulation would see artificially
        // perfect temporal locality, so traced warps are buffered and
        // their transactions drained round-robin per slot across a batch
        // of this width (scaled down by the trace sampling stride).
        let resident_warps = self.spec.sm_count as u64 * resident_blocks as u64 * warps_per_block;
        let commute = kernel.blocks_commute();
        let plan = LaunchPlan {
            kernel,
            cfg,
            phases: kernel.phases(),
            warps_per_block,
            warp_size: self.spec.warp_size,
            trace_sample: self.trace_sample,
            batch_width: (resident_warps / self.trace_sample).max(1),
            fp64_cost: self.spec.fp64_ratio(),
            commute,
            chunks: chunk_count(cfg.grid_dim, commute, rayon::current_num_threads()),
        };

        let (pool, l2) = &mut *self.chunks.lock();
        if pool.len() < plan.chunks {
            let seg_shift = self.spec.l2_line_bytes.trailing_zeros();
            pool.resize_with(plan.chunks, || {
                let mut arena = ChunkArena::default();
                arena.table.seg_shift = seg_shift;
                arena
            });
        }
        let arenas = &mut pool[..plan.chunks];
        for arena in arenas.iter_mut() {
            arena.begin(self.spec.warp_size as usize);
        }

        let clock = Instant::now();
        arenas
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, arena)| plan.run_chunk(c, arena));
        let exec_s = clock.elapsed().as_secs_f64();

        let clock = Instant::now();
        let mut counters = KernelCounters {
            occupancy_warps_per_sm: (resident_blocks as u64 * warps_per_block) as f64,
            ..Default::default()
        };
        let mut accesses = TraceAccesses::default();
        for arena in arenas.iter() {
            counters.merge(&arena.counters);
            let table = &arena.table;
            accesses.merge(&TraceAccesses {
                total: table.logged,
                filtered: table.logged - table.reached_table,
            });
        }
        // The in-order launch's additions, in its order.
        for arena in arenas.iter() {
            for &cycles in &arena.lane_cycles {
                counters.lane_cycles_total += cycles;
            }
            for &cycles in &arena.warp_cycles {
                counters.compute_warp_cycles += cycles;
            }
        }
        Self::drain(arenas, l2, &mut counters);
        let drain_s = clock.elapsed().as_secs_f64();

        counters.finalize_scaling();
        let timing = KernelTiming::model(&counters, &self.spec);
        LaunchResult {
            counters,
            timing,
            host: HostCost {
                exec_s,
                forked_s: if commute { exec_s } else { 0.0 },
                drain_s,
            },
            launches: Launches {
                forked: commute as u32,
                ordered: !commute as u32,
                chunks: plan.chunks as u64,
            },
            accesses,
        }
    }

    /// Stream the chunks' transactions through the L2 model: batch after
    /// batch, keys ascending within a batch — all warps' slot-0
    /// transactions, then slot-1, … — and each key's chunks in block
    /// order, ties broken by warp: the interleaving that models concurrent
    /// residency. Each chunk's table already lists its keys in that order,
    /// so this merges the lists. Leaves every bucket empty.
    fn drain(arenas: &mut [ChunkArena], l2: &mut ShardedCache, counters: &mut KernelCounters) {
        let mut transaction = |addr| {
            counters.global_transactions += 1.0;
            match l2.access(addr) {
                bdm_device::AccessOutcome::Hit => counters.l2_hits += 1.0,
                bdm_device::AccessOutcome::Miss => counters.l2_misses += 1.0,
            }
        };
        while let Some(next) = arenas.iter_mut().filter_map(|a| a.table.head()).min() {
            for arena in arenas.iter_mut() {
                if arena.table.head() == Some(next) {
                    arena.table.drain_head(&mut transaction);
                }
            }
        }
    }
}

/// Extra warp cycles of a list of atomics: equal entries serialize.
/// Sorts `atomics` in place.
fn serialization_cycles<T: Ord>(atomics: &mut [T]) -> f64 {
    atomics.sort_unstable();
    conflict_cycles(atomics) * ATOMIC_SERIAL_CYCLES
}

/// Serialization count of a sorted list: Σ over duplicate runs of
/// (run length − 1).
fn conflict_cycles<T: PartialEq>(sorted: &[T]) -> f64 {
    let mut extra = 0u64;
    let mut run = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
        } else {
            extra += run - 1;
            run = 1;
        }
    }
    extra += run - 1;
    extra as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::DeviceAllocator;
    use bdm_device::specs::SYSTEM_A;

    /// One global-memory access of a lane as the reference coalescer
    /// wants it: raw, per lane, tagged with its slot key. Only test
    /// builds log these; the engine itself keeps no such list.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Access {
        pub(super) key: u32,
        pub(super) addr: u64,
        pub(super) atomic: bool,
    }

    /// y[i] = a*x[i] + y[i] — the classic saxpy, exercising loads, stores
    /// and FLOPs.
    struct Saxpy {
        n: usize,
        a: f32,
        x: DeviceBuffer<f32>,
        y: DeviceBuffer<f32>,
    }

    impl Kernel for Saxpy {
        fn blocks_commute(&self) -> bool {
            true
        }
        fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            let i = tid.global() as usize;
            if i >= self.n {
                return;
            }
            let x = ctx.ld(&self.x, i);
            let y = ctx.ld(&self.y, i);
            ctx.flops::<f32>(2);
            ctx.st(&self.y, i, self.a * x + y);
        }
    }

    fn saxpy_setup(n: usize) -> Saxpy {
        let mut alloc = DeviceAllocator::new();
        let x = alloc.alloc::<f32>(n);
        let y = alloc.alloc::<f32>(n);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        x.upload(&xs);
        y.upload(&ys);
        Saxpy { n, a: 3.0, x, y }
    }

    #[test]
    fn saxpy_functional_result() {
        let k = saxpy_setup(1000);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        dev.launch(&k, LaunchConfig::for_items(1000, 256));
        let mut out = vec![0.0f32; 1000];
        k.y.download(&mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, 3.0 * i as f32 + 2.0 * i as f32);
        }
    }

    #[test]
    fn saxpy_counters() {
        let n = 1024;
        let k = saxpy_setup(n);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(&k, LaunchConfig::for_items(n, 256));
        let c = &r.counters;
        assert_eq!(c.threads_run, n as u64);
        assert_eq!(c.warps_run, (n / 32) as u64);
        assert_eq!(c.flops_fp32, 2.0 * n as f64);
        assert_eq!(c.flops_fp64, 0.0);
        // Perfectly coalesced: 32 consecutive f32 = 128 B = 1 transaction
        // per access slot (3 slots: ld x, ld y, st y).
        assert_eq!(c.global_transactions, 3.0 * (n / 32) as f64);
        // Streaming data: virtually everything misses... except y is
        // loaded then stored — the store hits the line the load filled.
        assert_eq!(c.l2_misses, 2.0 * (n / 32) as f64);
        assert_eq!(c.l2_hits, (n / 32) as f64);
    }

    #[test]
    fn inactive_tail_threads_do_not_count() {
        let k = saxpy_setup(100); // 100 of 128 threads active in the guard
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(&k, LaunchConfig::for_items(100, 128));
        // All 128 execute (the guard returns early) but they all count as
        // run threads; FLOPs only from the 100 that passed the guard.
        assert_eq!(r.counters.threads_run, 128);
        assert_eq!(r.counters.flops_fp32, 200.0);
    }

    /// Strided access: lane l reads element l*stride — breaks coalescing.
    struct Strided {
        n: usize,
        stride: usize,
        x: DeviceBuffer<f32>,
    }

    impl Kernel for Strided {
        fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            let i = tid.global() as usize * self.stride;
            if i < self.n {
                ctx.ld(&self.x, i);
            }
        }
    }

    #[test]
    fn stride_destroys_coalescing() {
        let n = 32 * 64; // one warp with stride 64 spans 64 segments
        let mut alloc = DeviceAllocator::new();
        let x = alloc.alloc::<f32>(n);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let contiguous = dev.launch(
            &Strided { n, stride: 1, x },
            LaunchConfig {
                grid_dim: 1,
                block_dim: 32,
                shared_words: 0,
            },
        );
        let mut alloc = DeviceAllocator::new();
        let x = alloc.alloc::<f32>(n);
        let strided = dev.launch(
            &Strided { n, stride: 64, x },
            LaunchConfig {
                grid_dim: 1,
                block_dim: 32,
                shared_words: 0,
            },
        );
        assert_eq!(contiguous.counters.global_transactions, 1.0);
        assert_eq!(strided.counters.global_transactions, 32.0);
    }

    /// All lanes atomically add to one counter: worst-case serialization.
    struct AtomicHammer {
        c: DeviceBuffer<u32>,
    }

    impl Kernel for AtomicHammer {
        fn thread(&self, _phase: usize, _tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            ctx.atomic_add(&self.c, 0, 1);
        }
    }

    #[test]
    fn atomic_conflicts_serialize_and_count() {
        let mut alloc = DeviceAllocator::new();
        let c = alloc.alloc::<u32>(1);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(
            &AtomicHammer { c },
            LaunchConfig {
                grid_dim: 2,
                block_dim: 32,
                shared_words: 0,
            },
        );
        // Functional: 64 increments landed.
        assert_eq!(r.counters.atomic_ops, 64.0);
        // 31 conflicts per warp × 2 warps × 32 cycles.
        assert_eq!(
            r.counters.atomic_serial_cycles,
            2.0 * 31.0 * ATOMIC_SERIAL_CYCLES
        );
    }

    /// Two phases with shared memory: phase 0 stores, phase 1 reads after
    /// the implicit barrier.
    struct SharedRoundtrip {
        out: DeviceBuffer<f32>,
    }

    impl Kernel for SharedRoundtrip {
        fn phases(&self) -> usize {
            2
        }
        fn thread(&self, phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            let t = tid.thread as usize;
            if phase == 0 {
                // Thread t writes word t.
                ctx.sh_st::<f32>(t, t as f32 * 2.0);
            } else {
                // Thread t reads the word its *neighbor* wrote — only
                // correct because of the barrier between phases.
                let n = (t + 1) % tid.block_dim as usize;
                let v = ctx.sh_ld::<f32>(n);
                ctx.st(&self.out, t, v);
            }
        }
    }

    #[test]
    fn phase_barrier_makes_shared_writes_visible() {
        let mut alloc = DeviceAllocator::new();
        let k = SharedRoundtrip {
            out: alloc.alloc::<f32>(64),
        };
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(
            &k,
            LaunchConfig {
                grid_dim: 1,
                block_dim: 64,
                shared_words: 64,
            },
        );
        assert_eq!(r.counters.barriers, 1);
        assert_eq!(r.counters.shared_accesses, 128.0);
        let mut host = vec![0.0f32; 64];
        k.out.download(&mut host);
        for (t, &v) in host.iter().enumerate() {
            assert_eq!(v, ((t + 1) % 64) as f32 * 2.0);
        }
    }

    #[test]
    fn shared_atomic_conflicts_detected() {
        struct TileAppend {
            vals: DeviceBuffer<f32>,
        }
        impl Kernel for TileAppend {
            fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
                // Every lane bumps the same shared cursor — full conflict.
                let slot = ctx.sh_atomic_add_u32(0, 1);
                let v = ctx.ld(&self.vals, tid.global() as usize);
                ctx.sh_st::<f32>(1 + slot as usize, v);
            }
        }
        let mut alloc = DeviceAllocator::new();
        let vals = alloc.alloc::<f32>(32);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let r = dev.launch(
            &TileAppend { vals },
            LaunchConfig {
                grid_dim: 1,
                block_dim: 32,
                shared_words: 64,
            },
        );
        assert_eq!(r.counters.atomic_serial_cycles, 31.0 * ATOMIC_SERIAL_CYCLES);
    }

    #[test]
    fn trace_sampling_scales_counters() {
        let n = 32 * 128;
        let k = saxpy_setup(n);
        let full_dev = GpuDevice::new(SYSTEM_A.gpu);
        let full = full_dev.launch(&k, LaunchConfig::for_items(n, 32));
        let k2 = saxpy_setup(n);
        let sampled_dev = GpuDevice::with_trace_sampling(SYSTEM_A.gpu, 4);
        let sampled = sampled_dev.launch(&k2, LaunchConfig::for_items(n, 32));
        // Exact quantities match.
        assert_eq!(full.counters.flops_fp32, sampled.counters.flops_fp32);
        assert_eq!(full.counters.warps_run, sampled.counters.warps_run);
        assert_eq!(
            sampled.counters.warps_traced,
            sampled.counters.warps_run / 4
        );
        // Scaled transaction estimate lands on the exact value for this
        // homogeneous workload.
        assert!(
            (sampled.counters.global_transactions - full.counters.global_transactions).abs()
                / full.counters.global_transactions
                < 0.01
        );
    }

    #[test]
    fn sampled_tracing_counts_every_warps_shared_accesses_once() {
        // Every warp adds its lanes' shared accesses, traced or not, so
        // the count is exact and must not be scaled up with the traced
        // quantities.
        let cfg = LaunchConfig {
            grid_dim: 8,
            block_dim: 64,
            shared_words: 64,
        };
        let run = |sample| {
            let k = SharedRoundtrip {
                out: DeviceAllocator::new().alloc::<f32>(64),
            };
            GpuDevice::with_trace_sampling(SYSTEM_A.gpu, sample)
                .launch(&k, cfg)
                .counters
        };
        let (full, sampled) = (run(1), run(4));
        assert_eq!(sampled.warps_traced * 4, sampled.warps_run);
        assert_eq!(full.shared_accesses, 8.0 * 128.0);
        assert_eq!(sampled.shared_accesses, full.shared_accesses);
    }

    #[test]
    fn determinism_across_runs() {
        let n = 4096;
        let k = saxpy_setup(n);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let a = dev.launch(&k, LaunchConfig::for_items(n, 256));
        dev.reset_l2();
        let b = dev.launch(&k, LaunchConfig::for_items(n, 256));
        assert_eq!(a.counters, b.counters);
    }

    /// Runs `f` with every `par_*` call it makes forking onto `workers`
    /// host threads.
    fn on_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("pool")
            .install(f)
    }

    #[test]
    fn a_kernel_panic_does_not_leak_its_batch_into_the_next_launch() {
        /// Two loads of one word per lane, in eight blocks that commute.
        /// Lane 16 of the last block faults between its two, on a worker
        /// other than the one running block 0, which holds its first lane
        /// until then: a later chunk dies mid-warp while the first one is
        /// mid-block. In the dying chunk, lanes 0..16 have logged (their
        /// keys carry the dying warp's generation), lane 15's stream is
        /// the one the filter compares against and lane 16's is half
        /// written; the other chunks staged batches that never drain.
        struct DiesOnAnotherWorker {
            buf: DeviceBuffer<f32>,
            block_zero: std::sync::Mutex<Option<std::thread::ThreadId>>,
            died: std::sync::atomic::AtomicBool,
        }
        impl Kernel for DiesOnAnotherWorker {
            fn blocks_commute(&self) -> bool {
                true
            }
            fn thread(&self, _: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
                ctx.ld(&self.buf, 0);
                let me = std::thread::current().id();
                if tid.block == 0 && tid.thread == 0 {
                    *self.block_zero.lock().unwrap() = Some(me);
                    let until = Instant::now() + std::time::Duration::from_secs(30);
                    while !self.died.load(Ordering::Acquire) && Instant::now() < until {
                        std::thread::yield_now();
                    }
                }
                let elsewhere = *self.block_zero.lock().unwrap() != Some(me);
                if tid.block == tid.grid_dim - 1 && tid.thread >= 16 && elsewhere {
                    self.died.store(true, Ordering::Release);
                    panic!("device-side fault");
                }
                ctx.ld(&self.buf, 0);
            }
        }
        let n = 4096;
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let faulty = DiesOnAnotherWorker {
            buf: DeviceAllocator::new().alloc::<f32>(64),
            block_zero: Default::default(),
            died: Default::default(),
        };
        let cfg = LaunchConfig::for_items(512, 64);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            on_workers(2, || dev.launch(&faulty, cfg));
        }));
        assert!(unwound.is_err());
        {
            let pool = &dev.chunks.lock().0;
            assert_eq!(pool.len(), 8, "two workers cut eight chunks");
            let dying = &pool[7].table;
            assert!(
                !dying.touched.is_empty() && dying.prev.len() > 1 && !dying.cur.is_empty(),
                "the fault left nothing behind to leak"
            );
            assert!(
                !pool[0].table.pieces.is_empty(),
                "the first chunk was not cut"
            );
        }
        // The next launch's first lane repeats the dead lanes' accesses
        // exactly and still compares against nothing: both reach the table.
        let one_thread = LaunchConfig::for_items(1, 1);
        let probe = dev.launch(&faulty, one_thread);
        let reached_the_table = TraceAccesses {
            total: 2,
            filtered: 0,
        };
        assert_eq!(probe.accesses, reached_the_table);
        assert_eq!(probe.counters.global_transactions, 2.0);
        // Neither the staged segments nor the half-logged warp's stamps
        // (the next launch's warps touch the same keys) survive in any
        // chunk: the dead batches never drained, so the L2 holds the
        // probe's one line and nothing else.
        let saxpy = || dev.launch(&saxpy_setup(n), LaunchConfig::for_items(n, 256));
        let after = on_workers(2, saxpy);
        assert_eq!(after.launches.chunks, 8);
        let fresh_dev = GpuDevice::new(SYSTEM_A.gpu);
        fresh_dev.launch(&faulty, one_thread);
        let fresh = fresh_dev.launch(&saxpy_setup(n), LaunchConfig::for_items(n, 256));
        assert_eq!(after.counters, fresh.counters);
        assert_eq!(after.accesses, fresh.accesses);
    }

    /// One access per loop iteration, `trips` iterations, every lane.
    struct OneAccessSlots {
        trips: u32,
        x: DeviceBuffer<f32>,
    }

    impl Kernel for OneAccessSlots {
        fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            for _ in 0..self.trips {
                ctx.begin_slot();
                ctx.ld(&self.x, tid.thread as usize);
            }
        }
    }

    #[test]
    fn the_trace_table_grows_with_the_keys_touched_not_with_the_slot_count() {
        let trips = 10_000;
        let k = OneAccessSlots {
            trips,
            x: DeviceAllocator::new().alloc::<f32>(32),
        };
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let cfg = LaunchConfig {
            grid_dim: 1,
            block_dim: 32,
            shared_words: 0,
        };
        let c = dev.launch(&k, cfg).counters;
        assert_eq!(c.global_transactions, trips as f64);
        // A row, a bucket header, a few segment ids and a record in each
        // of the filter's two streams per key — where a table indexed by
        // `slot << 8 | sub` spends 256 headers per slot.
        let bytes = dev.chunks.lock().0[0].table.held_bytes();
        let per_key = bytes / trips as usize;
        assert!(per_key < 128, "{per_key} table bytes per touched key");
    }

    /// Log `batches` of warps into one key of `table`, one lane per id,
    /// and `cut` after each batch; more warps follow all but the last.
    fn log_one_key(table: &mut TraceTable, key: u32, batches: &[&[&[u32]]]) {
        for (batch, warps) in batches.iter().enumerate() {
            for lanes in *warps {
                table.begin_warp();
                for &seg in *lanes {
                    let prev_slot = table.seek_slot(key >> 8, 0);
                    table.log(key, (seg as u64) << table.seg_shift, false, prev_slot);
                    table.end_lane();
                }
            }
            table.cut(batch as u64, batch + 1 < batches.len());
        }
    }

    /// The drained parts of a table, in drain order.
    fn drain_parts(table: &mut TraceTable) -> Vec<Vec<u32>> {
        let mut parts = Vec::new();
        while table.head().is_some() {
            let mut part = Vec::new();
            let shift = table.seg_shift;
            table.drain_head(&mut |addr| part.push((addr >> shift) as u32));
            parts.push(part);
        }
        parts
    }

    /// Words of the code of each id after the one before it in a part:
    /// one for a step in −32,766 … 32,767 (modulo 2³²), three for a
    /// part's first id and for a longer step.
    fn code_words(part: &[u32]) -> usize {
        let step = |w: &[u32]| w[1].wrapping_sub(w[0]) as i32;
        3 + part
            .windows(2)
            .map(|w| {
                if (-32_766..=32_767).contains(&step(w)) {
                    1
                } else {
                    3
                }
            })
            .sum::<usize>()
    }

    #[test]
    fn a_bucket_codes_every_step_exactly_and_resumes_after_a_cut() {
        let mut table = TraceTable {
            seg_shift: 7,
            ..Default::default()
        };
        let key = 3 << 8;
        // One id a warp: steps at both ends of a code word and just past
        // them, on both signs (the two words below the range are `FULL`
        // and `CUT`), a repeat across warps, and id 0 next to the largest
        // id, which is a step of 2 modulo 2³² either way.
        let mut ids = vec![1 << 20];
        for step in [
            0i64, 1, -1, 32_767, -32_766, 32_768, -32_767, -32_768, 65_536,
        ] {
            ids.push((*ids.last().unwrap() as i64 + step) as u32);
        }
        let top = u32::MAX - 1;
        ids.extend([0, top, 0, top, 1 << 31]);
        let one_a_warp: Vec<&[u32]> = ids.chunks(1).collect();
        // A second batch, after the cut, whose first id is coded in full
        // again; one warp's lanes revisit ids of its own part across long
        // codes, which the table finds by decoding it from its base and
        // drops.
        let (a, b, c) = (5, top, 1 << 31);
        let second: [&[u32]; 2] = [&[top, 0, 1 << 20], &[a, b, a, c, b, a]];
        log_one_key(&mut table, key, &[&one_a_warp, &second]);

        let bucket = &table.rows[3][0];
        let want = [ids.clone(), vec![top, 0, 1 << 20, a, b, c]];
        assert_eq!(
            bucket.words.len(),
            code_words(&want[0]) + 1 + code_words(&want[1])
        );
        assert_eq!(bucket.words[code_words(&want[0])], CUT);
        assert_eq!(drain_parts(&mut table), want);
        let bucket = &table.rows[3][0];
        assert!(bucket.words.is_empty() && bucket.words.capacity() > 0);
        assert_eq!((bucket.last, bucket.drained), (NO_SEG, 0));
    }

    /// A launch of four blocks in one chunk, on the cut down device whose
    /// batches are a block wide: its buckets are drained across a cut
    /// after every block, and each lane steps between the two buffers of
    /// a script, so long codes sit on both sides of each cut. The stream the L2 sees is the
    /// oracle's, bit for bit.
    #[test]
    fn a_bucket_drained_across_cuts_streams_what_the_reference_does() {
        // Lane `l` of warp `w`: a near and a far word of one key each,
        // ordered by the parity of `l + w`, then the near word again.
        let near = |l: usize, w: usize| ((l + 7 * w) % 2048) * 32;
        let far = |l: usize, w: usize| SCRIPT_WORDS + ((3 * l + w) % 2048) * 32;
        let lanes = (0..4 * 64)
            .map(|t| {
                let (l, w) = (t % 32, t / 32);
                let [x, y] = match (l + w) % 2 {
                    0 => [near(l, w), far(l, w)],
                    _ => [far(l, w), near(l, w)],
                };
                vec![Op::Ld(x), Op::Ld(y), Op::BeginSlot, Op::Ld(near(l, w))]
            })
            .collect();
        let k = Scripted::new(vec![lanes], false);
        let cfg = LaunchConfig {
            grid_dim: 4,
            block_dim: 64,
            shared_words: SCRIPT_SHARED_WORDS,
        };
        let spec = small_device(64);
        let dev = GpuDevice::new(spec);
        let got = dev.launch(&k, cfg);
        assert_eq!(
            got.counters,
            launch_reference(&GpuDevice::new(spec), &k, cfg)
        );
        let pool = &dev.chunks.lock().0;
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].table.pieces.len(), 4, "one batch per block");
    }

    /// On sorted input consecutive ids of a key are neighbors, so a bucket
    /// holds about a code word per transaction, not a `u32`: a sorted
    /// Benchmark B force launch (≈ 27 neighbors per agent, one L2 batch,
    /// so every id waits in its bucket until the drain), forked into eight
    /// chunks as on two workers, holds at most 2.5 bytes of segment codes
    /// per transaction it drains. (`u32` ids grown by a quarter held 4.5.)
    #[test]
    fn a_sorted_force_launch_holds_at_most_two_and_a_half_bytes_a_transaction() {
        use crate::kernels::layout::testing::DeviceScene;
        use crate::kernels::mech::ForceKernel;
        use bdm_grid::GridGeometry;
        use bdm_math::interaction::MechParams;
        use bdm_math::{Aabb, SplitMix64, Vec3};

        // Benchmark B's density with unit diameters: n · (4/3)π / side³ = 27.
        let n = 12_000;
        let side = (n as f64 * 4.0 / 3.0 * std::f64::consts::PI / 27.0).cbrt();
        let mut rng = SplitMix64::new(7);
        let mut agents: Vec<[f64; 3]> = (0..n)
            .map(|_| std::array::from_fn(|_| rng.uniform(0.0, side)))
            .collect();
        agents.sort_by_key(|p| [p[2] as u32, p[1] as u32, p[0] as u32]);
        let column = |d: usize| -> Vec<f64> { agents.iter().map(|p| p[d]).collect() };
        let space = Aabb::new(Vec3::zero(), Vec3::splat(side as f32));
        let geom = GridGeometry::new(space, 1.0f32);
        let scene = DeviceScene::upload(geom, [&column(0), &column(1), &column(2)], 1.0, 0.4);
        let force = ForceKernel {
            n,
            geom,
            agents: scene.agents(),
            source: scene.chains(),
            out: scene.out(),
            params: MechParams::<f32>::default_params(),
        };
        let r = on_workers(2, || {
            scene.build_chains(128);
            scene.dev.launch(&force, LaunchConfig::for_items(n, 128))
        });
        assert_eq!(r.launches.chunks, 8);
        let pool = &scene.dev.chunks.lock().0;
        let words: usize = (pool.iter())
            .flat_map(|arena| arena.table.rows.iter().flatten())
            .map(|bucket| bucket.words.capacity())
            .sum();
        let per_transaction = 2.0 * words as f64 / r.counters.global_transactions;
        assert!(
            per_transaction <= 2.5,
            "{per_transaction:.2} bytes a transaction"
        );
    }

    #[test]
    #[should_panic(expected = "slot overflow")]
    fn a_thread_that_would_wrap_its_slot_keys_panics() {
        struct Spins;
        impl Kernel for Spins {
            fn thread(&self, _: usize, _: ThreadId, ctx: &mut ThreadCtx<'_>) {
                for _ in 0..=MAX_SLOT {
                    ctx.begin_slot();
                }
            }
        }
        GpuDevice::new(SYSTEM_A.gpu).launch(
            &Spins,
            LaunchConfig {
                grid_dim: 1,
                block_dim: 1,
                shared_words: 0,
            },
        );
    }

    #[test]
    fn occupancy_reflects_shared_memory_pressure() {
        struct Nop;
        impl Kernel for Nop {
            fn thread(&self, _: usize, _: ThreadId, _: &mut ThreadCtx<'_>) {}
        }
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        // No shared memory, 256-thread blocks: thread-budget limited
        // (2048 / 256 = 8 blocks × 8 warps = 64 warps/SM).
        let free = dev.launch(
            &Nop,
            LaunchConfig {
                grid_dim: 4,
                block_dim: 256,
                shared_words: 0,
            },
        );
        assert_eq!(free.counters.occupancy_warps_per_sm, 64.0);
        // Near-max shared request: one block resident.
        let words = SYSTEM_A.gpu.shared_mem_per_sm as usize / 8 - 8;
        let tight = dev.launch(
            &Nop,
            LaunchConfig {
                grid_dim: 4,
                block_dim: 256,
                shared_words: words,
            },
        );
        assert_eq!(tight.counters.occupancy_warps_per_sm, 8.0);
    }

    #[test]
    fn low_occupancy_stretches_runtime() {
        // Identical work, but the low-occupancy launch must be modeled
        // slower (latency exposure).
        let n = 1 << 14;
        let k = saxpy_setup(n);
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let high = dev.launch(&k, LaunchConfig::for_items(n, 256));
        dev.reset_l2();
        let k2 = saxpy_setup(n);
        let words = SYSTEM_A.gpu.shared_mem_per_sm as usize / 8 - 8;
        let low = dev.launch(
            &k2,
            LaunchConfig {
                grid_dim: (n as u32).div_ceil(64),
                block_dim: 64,
                shared_words: words, // 1 resident block of 2 warps
            },
        );
        assert!(
            low.timing.total_s > high.timing.total_s,
            "low occupancy {} should exceed high occupancy {}",
            low.timing.total_s,
            high.timing.total_s
        );
    }

    /// Saturation of the intra-slot index: 300 loads without a
    /// `begin_slot` give keys 0..=254 one access per lane each, and loads
    /// 255..300 all alias key 255, so they coalesce as *one* slot.
    struct LongSlot {
        x: DeviceBuffer<f32>,
    }

    impl Kernel for LongSlot {
        fn thread(&self, _phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            for j in 0..300 {
                // Row j of 32 floats = one segment per load index, except
                // that rows 255.. alternate between just two segments.
                let row = if j < 255 { j } else { 255 + j % 2 };
                ctx.ld(&self.x, row * 32 + tid.thread as usize);
            }
        }
    }

    #[test]
    fn saturated_sub_slot_aliases_into_one_slot() {
        let mut alloc = DeviceAllocator::new();
        let k = LongSlot {
            x: alloc.alloc::<f32>(32 * 257),
        };
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        let cfg = LaunchConfig {
            grid_dim: 1,
            block_dim: 32,
            shared_words: 0,
        };
        let c = dev.launch(&k, cfg).counters;
        // 255 perfectly coalesced slots + the alias slot's two distinct
        // segments (45 loads per lane folded into it) — not 300.
        assert_eq!(c.global_transactions, 257.0);
        assert_eq!(c.l2_misses, 257.0);
        let reference = launch_reference(&GpuDevice::new(SYSTEM_A.gpu), &k, cfg);
        assert_eq!(c, reference);
    }

    /// The trace path this engine had before the flat arenas, kept
    /// verbatim as the oracle: a `BTreeMap` of per-slot `Vec`s per warp, a
    /// `Vec` of those per batch, and a `(key, warp, slot)` tuple sort to
    /// drain. Same execution loop, its own lanes and shared memory; it
    /// coalesces the lanes' raw `accesses` (which only test builds log)
    /// and throws away what its threads log into the `unused` table.
    fn launch_reference<K: Kernel>(
        dev: &GpuDevice,
        kernel: &K,
        cfg: LaunchConfig,
    ) -> KernelCounters {
        use std::collections::BTreeMap;
        type Batch = Vec<Vec<(u32, Vec<u64>)>>;
        let line = dev.spec.l2_line_bytes as u64;

        let drain = |batch: &mut Batch, counters: &mut KernelCounters| {
            let mut order: Vec<(u32, usize, usize)> = Vec::new();
            for (w, warp) in batch.iter().enumerate() {
                for (k, (key, _)) in warp.iter().enumerate() {
                    order.push((*key, w, k));
                }
            }
            order.sort_unstable();
            for (_, w, k) in order {
                for &seg in &batch[w][k].1 {
                    counters.global_transactions += 1.0;
                    match dev.chunks.lock().1.access(seg * line) {
                        bdm_device::AccessOutcome::Hit => counters.l2_hits += 1.0,
                        bdm_device::AccessOutcome::Miss => counters.l2_misses += 1.0,
                    }
                }
            }
            batch.clear();
        };

        let retire = |lanes: &[LaneRecord],
                      traced: bool,
                      count_threads: bool,
                      counters: &mut KernelCounters,
                      batch: &mut Batch| {
            let mut max_cycles = 0.0f64;
            let mut any_active = false;
            for lane in lanes.iter().filter(|l| l.active) {
                any_active = true;
                if count_threads {
                    counters.threads_run += 1;
                }
                counters.flops_fp32 += lane.totals.flops32;
                counters.flops_fp64 += lane.totals.flops64;
                counters.shared_accesses += lane.totals.shared_accesses as f64;
                counters.lane_cycles_total += lane.totals.cycles;
                max_cycles = max_cycles.max(lane.totals.cycles);
            }
            if !any_active {
                return;
            }
            if count_threads {
                counters.warps_run += 1;
            }
            counters.compute_warp_cycles += max_cycles;
            if !traced {
                return;
            }
            if count_threads {
                counters.warps_traced += 1;
            }
            let mut slots: BTreeMap<u32, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
            for lane in lanes {
                for a in &lane.accesses {
                    let entry = slots.entry(a.key).or_default();
                    let seg = a.addr / line;
                    if !entry.0.contains(&seg) {
                        entry.0.push(seg);
                    }
                    if a.atomic {
                        counters.atomic_ops += 1.0;
                        entry.1.push(a.addr);
                    }
                }
            }
            let mut warp_txns: Vec<(u32, Vec<u64>)> = Vec::with_capacity(slots.len());
            for (key, (segs, mut atomic_addrs)) in slots {
                if atomic_addrs.len() > 1 {
                    atomic_addrs.sort_unstable();
                    counters.atomic_serial_cycles +=
                        conflict_cycles(&atomic_addrs) * ATOMIC_SERIAL_CYCLES;
                }
                warp_txns.push((key, segs));
            }
            batch.push(warp_txns);
            let max_sh = lanes
                .iter()
                .map(|l| l.shared_atomics.len())
                .max()
                .unwrap_or(0);
            for slot in 0..max_sh {
                let mut sh_addrs: Vec<u64> = lanes
                    .iter()
                    .filter_map(|l| l.shared_atomics.get(slot).copied())
                    .collect();
                if sh_addrs.len() > 1 {
                    sh_addrs.sort_unstable();
                    counters.atomic_serial_cycles +=
                        conflict_cycles(&sh_addrs) * ATOMIC_SERIAL_CYCLES;
                }
            }
        };

        let mut counters = KernelCounters::default();
        let warps_per_block = cfg.block_dim.div_ceil(dev.spec.warp_size) as u64;
        let resident_blocks = {
            let by_threads = (dev.spec.max_threads_per_sm / cfg.block_dim).max(1);
            let by_shared = if cfg.shared_words > 0 {
                (dev.spec.shared_mem_per_sm as usize / (cfg.shared_words * 8)).max(1) as u32
            } else {
                u32::MAX
            };
            by_threads.min(by_shared).min(32)
        };
        counters.occupancy_warps_per_sm = (resident_blocks as u64 * warps_per_block) as f64;
        let resident_warps = dev.spec.sm_count as u64 * resident_blocks as u64 * warps_per_block;
        let batch_width = (resident_warps / dev.trace_sample).max(1) as usize;
        let mut batch: Batch = Vec::new();
        let mut lanes: Vec<LaneRecord> = (0..dev.spec.warp_size)
            .map(|_| LaneRecord::default())
            .collect();
        let mut unused = TraceTable::default();
        for block in 0..cfg.grid_dim {
            let shared = BlockShared {
                words: (0..cfg.shared_words).map(|_| AtomicU64::new(0)).collect(),
            };
            for phase in 0..kernel.phases() {
                if phase > 0 {
                    counters.barriers += 1;
                }
                for warp in 0..warps_per_block {
                    let warp_id = block as u64 * warps_per_block + warp;
                    let traced = warp_id.is_multiple_of(dev.trace_sample);
                    unused.clear();
                    unused.begin_warp();
                    for (l, lane) in lanes.iter_mut().enumerate() {
                        lane.reset();
                        let thread = warp as u32 * dev.spec.warp_size + l as u32;
                        if thread >= cfg.block_dim {
                            continue;
                        }
                        lane.active = true;
                        let tid = ThreadId {
                            block,
                            thread,
                            block_dim: cfg.block_dim,
                            grid_dim: cfg.grid_dim,
                        };
                        let mut ctx = ThreadCtx {
                            shared: &shared,
                            totals: LaneTotals::default(),
                            shared_atomics: &mut lane.shared_atomics,
                            accesses: &mut lane.accesses,
                            trace: traced.then_some(&mut unused),
                            fp64_cost: dev.spec.fp64_ratio(),
                            commute: false,
                            slot: 0,
                            sub: 0,
                            last_key: 0,
                            prev_slot: 0,
                            child_launches: 0,
                        };
                        kernel.thread(phase, tid, &mut ctx);
                        counters.child_launches += ctx.child_launches;
                        lane.totals = ctx.totals;
                    }
                    retire(&lanes, traced, phase == 0, &mut counters, &mut batch);
                    if batch.len() >= batch_width {
                        drain(&mut batch, &mut counters);
                    }
                }
            }
        }
        drain(&mut batch, &mut counters);
        counters.finalize_scaling();
        counters
    }

    /// One scripted device operation of the table-driven test kernel.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        BeginSlot,
        Ld(usize),
        St(usize),
        AtomicAdd(usize),
        AtomicExchange(usize),
        SharedAtomic(usize),
        Flops(u32),
    }

    /// Runs `script[phase][global thread]`, whatever it says, declaring
    /// `commute`. (The loads and stores race across blocks, but nothing a
    /// script does depends on a loaded value: the counters see addresses.)
    /// A word index below [`SCRIPT_WORDS`] is one of `buf`, the rest are
    /// `far`'s.
    struct Scripted {
        script: Vec<Vec<Vec<Op>>>,
        buf: DeviceBuffer<u32>,
        far: DeviceBuffer<u32>,
        commute: bool,
    }

    impl Scripted {
        fn new(script: Vec<Vec<Vec<Op>>>, commute: bool) -> Self {
            Scripted {
                script,
                buf: DeviceAllocator::new().alloc::<u32>(SCRIPT_WORDS),
                far: DeviceBuffer::with_base(FAR_SEGMENT << 7, SCRIPT_WORDS),
                commute,
            }
        }

        /// The buffer word `i` lies in, and its index there.
        fn word(&self, i: usize) -> (&DeviceBuffer<u32>, usize) {
            match i.checked_sub(SCRIPT_WORDS) {
                Some(j) => (&self.far, j),
                None => (&self.buf, i),
            }
        }
    }

    impl Kernel for Scripted {
        fn phases(&self) -> usize {
            self.script.len()
        }
        fn blocks_commute(&self) -> bool {
            self.commute
        }
        fn thread(&self, phase: usize, tid: ThreadId, ctx: &mut ThreadCtx<'_>) {
            for &op in &self.script[phase][tid.global() as usize] {
                match op {
                    Op::BeginSlot => ctx.begin_slot(),
                    Op::Ld(i) => {
                        let (buf, i) = self.word(i);
                        ctx.ld(buf, i);
                    }
                    Op::St(i) => {
                        let (buf, i) = self.word(i);
                        ctx.st(buf, i, 1);
                    }
                    Op::AtomicAdd(i) => {
                        let (buf, i) = self.word(i);
                        ctx.atomic_add(buf, i, 1);
                    }
                    Op::AtomicExchange(i) => {
                        let (buf, i) = self.word(i);
                        ctx.atomic_exchange(buf, i, 1);
                    }
                    Op::SharedAtomic(w) => {
                        ctx.sh_atomic_add_u32(w, 1);
                    }
                    Op::Flops(n) => ctx.flops::<f64>(n),
                }
            }
        }
    }

    /// Words of each of a script's two buffers: 2048 segments.
    const SCRIPT_WORDS: usize = 32 * 2048;
    /// The far buffer's first segment. The near one's are 1 … 2048, so a
    /// step between the two is 29,696 to 33,791 segments long, either
    /// way: across both ends of the range a bucket's code word holds.
    const FAR_SEGMENT: u64 = (1 << 15) - 1024;
    const SCRIPT_SHARED_WORDS: usize = 4;

    /// A random per-lane access list: uneven trip counts (including
    /// lanes that return at once), empty and lopsided slots, addresses
    /// anywhere in two 2048-segment buffers far apart or packed into a few
    /// hot words,
    /// atomics that collide, now and then a slot long enough to
    /// saturate the sub-slot index, and — what the force kernel's
    /// neighbor loop looks like — lanes that end in hundreds of
    /// iterations of one to five accesses, each with its own trip count.
    fn random_lane_script(rng: &mut bdm_math::SplitMix64) -> Vec<Op> {
        let mut ops = Vec::new();
        if rng.below(8) == 0 {
            return ops;
        }
        for _ in 0..rng.below(7) {
            if rng.below(4) != 0 {
                ops.push(Op::BeginSlot);
            }
            let burst = if rng.below(40) == 0 {
                250 + rng.below(60)
            } else {
                rng.below(5)
            };
            random_burst(rng, burst as usize, &mut ops);
        }
        if rng.below(6) == 0 {
            for _ in 0..rng.below(400) {
                ops.push(Op::BeginSlot);
                let burst = 1 + rng.below(5);
                random_burst(rng, burst as usize, &mut ops);
            }
        }
        ops
    }

    /// `burst` random operations of one slot.
    fn random_burst(rng: &mut bdm_math::SplitMix64, burst: usize, ops: &mut Vec<Op>) {
        // A per-slot stride walks one lane across many segments.
        let stride = [1, 7, 32, 33, 1024][rng.below(5) as usize];
        let base = rng.below(2 * SCRIPT_WORDS as u64) as usize;
        for j in 0..burst {
            let anywhere = (base + j * stride) % (2 * SCRIPT_WORDS);
            let hot = rng.below(6) as usize * 16;
            ops.push(match rng.below(10) {
                0..=3 => Op::Ld(anywhere),
                4 => Op::Ld(hot),
                5 => Op::St(anywhere),
                6 => Op::AtomicAdd(hot),
                7 => Op::AtomicExchange(if rng.below(2) == 0 { hot } else { anywhere }),
                8 => Op::SharedAtomic(rng.below(SCRIPT_SHARED_WORDS as u64) as usize),
                _ => Op::Flops(1 + rng.below(9) as u32),
            });
        }
    }

    /// System A cut down to one SM of `max_threads_per_sm` and an 8 KB
    /// two-way L2: batches drain several times per launch and the L2
    /// evicts constantly, so a reordered transaction stream shows up in
    /// the hit counts.
    fn small_device(max_threads_per_sm: u32) -> GpuSpec {
        GpuSpec {
            sm_count: 1,
            max_threads_per_sm,
            l2_bytes: 8 * 1024,
            l2_ways: 2,
            ..SYSTEM_A.gpu
        }
    }

    /// `script[phase][thread]` on that device, checked against the
    /// oracle; returns how its accesses were logged.
    fn filtered_run(script: Vec<Vec<Vec<Op>>>, cfg: LaunchConfig) -> TraceAccesses {
        let spec = small_device(64);
        let k = Scripted::new(script, false);
        let got = GpuDevice::new(spec).launch(&k, cfg);
        let want = launch_reference(&GpuDevice::new(spec), &k, cfg);
        assert_eq!(got.counters, want);
        got.accesses
    }

    /// Row `r` of the script buffer: one 128-byte segment per row.
    fn row(r: usize) -> usize {
        r * 32
    }

    #[test]
    fn the_lane_filter_absorbs_what_the_previous_lane_logged_and_nothing_else() {
        let one_warp = LaunchConfig {
            grid_dim: 1,
            block_dim: 32,
            shared_words: SCRIPT_SHARED_WORDS,
        };
        // Two slots, five accesses, two of them atomics on one word.
        let s = vec![
            Op::Ld(row(1)),
            Op::AtomicAdd(row(2)),
            Op::BeginSlot,
            Op::Ld(row(3)),
            Op::St(row(4)),
            Op::AtomicExchange(row(2)),
        ];
        // The same keys, other segments.
        let t = vec![
            Op::Ld(row(11)),
            Op::AtomicAdd(row(12)),
            Op::BeginSlot,
            Op::Ld(row(13)),
            Op::St(row(14)),
            Op::AtomicExchange(row(12)),
        ];

        // A run of one script: every lane but the first is absorbed —
        // its atomics too, which `filtered_run` saw counted and
        // serialized as the oracle does (31 conflicts per slot).
        let run = filtered_run(vec![vec![s.clone(); 32]], one_warp);
        let (total, filtered) = (32 * 5, 31 * 5);
        assert_eq!(run, TraceAccesses { total, filtered });

        // A lane equal to the lane two back but not to the previous one
        // goes to the table every time, which still coalesces it (the
        // oracle's 2 segments per key, not 32).
        let alternating = (0..32).map(|l| [&s, &t][l % 2].clone()).collect();
        let run = filtered_run(vec![alternating], one_warp);
        let (total, filtered) = (32 * 5, 0);
        assert_eq!(run, TraceAccesses { total, filtered });

        // A lane that falls out of step inside a slot is back in step at
        // the next `begin_slot`: lane 1 skips slot 0's second access, lane
        // 2 repeats lane 1, lane 3 repeats lane 0.
        let mut short = s.clone();
        short.remove(1);
        let lanes = vec![s.clone(), short.clone(), short, s.clone()];
        let run = filtered_run(
            vec![lanes],
            LaunchConfig {
                block_dim: 4,
                ..one_warp
            },
        );
        // Lane 1: its 4 accesses all repeat lane 0. Lane 2: all 4. Lane
        // 3: all but the access lane 2 did not make.
        let (total, filtered) = (5 + 4 + 4 + 5, 4 + 4 + 4);
        assert_eq!(run, TraceAccesses { total, filtered });

        // Past 255 accesses in a slot every access has the slot's last
        // key and `prev` holds that key many times; the filter compares
        // with the first of them only, the table dedupes the rest.
        let long: Vec<Op> = (0..300)
            .map(|j| Op::Ld(row(if j < 255 { j } else { 255 + j % 2 })))
            .collect();
        let run = filtered_run(vec![vec![long; 32]], one_warp);
        // Per repeating lane: 255 unsaturated accesses, and of the 45
        // saturated ones the 23 to the segment of the first (row 256).
        let (total, filtered) = (32 * 300, 31 * (255 + 23));
        assert_eq!(run, TraceAccesses { total, filtered });

        // Nothing is matched across a warp generation: blocks of a full
        // and an 8-lane warp, two phases, every thread the same script —
        // lane 0 of each warp repeats the last lane of the warp before
        // (a partial one, another block's, the phase before's) and goes
        // to the table all the same.
        let ragged = LaunchConfig {
            grid_dim: 2,
            block_dim: 40,
            shared_words: SCRIPT_SHARED_WORDS,
        };
        let run = filtered_run(vec![vec![s.clone(); 80]; 2], ragged);
        let (total, filtered) = (2 * 80 * 5, 2 * 2 * (31 + 7) * 5);
        assert_eq!(run, TraceAccesses { total, filtered });
    }

    /// One phase's scripts, thread by thread, as sorted input looks to
    /// the lane filter: runs of consecutive lanes sharing one script
    /// (atomics and saturated slots included) that cross warp and block
    /// boundaries — so lane 0 of a warp repeats the last lane of the warp
    /// before, a partial one when `block_dim` is ragged —, lanes equal to
    /// the lane two back but not to the previous one, and near repeats
    /// that drop, swap or add an access and fall out of step. `carry` is
    /// the last thread's script of the phase before: thread 0 may repeat
    /// it across the barrier.
    fn random_phase_script(
        rng: &mut bdm_math::SplitMix64,
        threads: usize,
        carry: Option<&Vec<Op>>,
    ) -> Vec<Vec<Op>> {
        let mut lanes: Vec<Vec<Op>> = Vec::with_capacity(threads);
        for t in 0..threads {
            let previous = lanes.last().or(carry);
            let two_back = t.checked_sub(2).map(|i| &lanes[i]);
            let script = match (rng.below(8), previous, two_back) {
                (0..=2, Some(previous), _) => previous.clone(),
                (3, _, Some(two_back)) => two_back.clone(),
                (4, Some(previous), _) => {
                    let mut near = Vec::with_capacity(previous.len() + 1);
                    for &op in previous {
                        match rng.below(16) {
                            0 => {}
                            1 => near.push(Op::Ld(rng.below(2 * SCRIPT_WORDS as u64) as usize)),
                            2 => near.extend([op, Op::Ld(rng.below(6) as usize * 16)]),
                            _ => near.push(op),
                        }
                    }
                    near
                }
                _ => random_lane_script(rng),
            };
            lanes.push(script);
        }
        lanes
    }

    /// The same scripts with every global atomic turned into a load: a
    /// kernel that may declare commuting blocks.
    fn without_global_atomics(script: &mut [Vec<Vec<Op>>]) {
        for op in script.iter_mut().flatten().flatten() {
            if let Op::AtomicAdd(i) | Op::AtomicExchange(i) = *op {
                *op = Op::Ld(i);
            }
        }
    }

    /// The ways a launch can run its chunks: in order on 1–4 workers, and
    /// in a shuffled order on one thread, cut for four.
    fn under_each_schedule(seed: u64, mut launch: impl FnMut(&str)) {
        for workers in 1..=4 {
            on_workers(workers, || launch(&format!("{workers} workers")));
        }
        rayon::with_shuffled_schedule(seed, || on_workers(4, || launch("a shuffled schedule")));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The arena engine and the retained `BTreeMap` oracle agree on
        /// every counter, bit for bit, for arbitrary lane scripts — lanes
        /// that repeat their neighbors, which the lane filter absorbs, and
        /// lanes that share nothing; addresses in two buffers so far apart
        /// that a bucket's ids step across both ends of a code word — on a
        /// device small enough that
        /// batches drain several times per launch and the L2 evicts
        /// constantly (so any reordering of the transaction stream shows
        /// up in the hit counts). A batch is `resident × warps per block
        /// ÷ sample` traced warps wide: from one warp, as sampled figure
        /// runs drain, to several blocks, so boundaries fall mid-block and
        /// between the phases of a block. Scripts without global atomics
        /// declare commuting blocks and fork into chunks — more chunks
        /// than blocks, or several blocks each — on 1–4 workers and in a
        /// shuffled claim order; the FP64 op counts make the cycle sums
        /// order-sensitive.
        #[test]
        fn arena_engine_matches_the_reference_bit_for_bit(
            seed in proptest::prelude::any::<u64>(),
            grid_dim in 1u32..=12,
            block_dim in 1u32..=96,
            phases in 1usize..=3,
            sample in 1u64..=5,
            resident in 1u32..=6,
            commute in proptest::prelude::any::<bool>(),
        ) {
            let spec = small_device(resident * block_dim);
            let mut rng = bdm_math::SplitMix64::new(seed);
            let threads = (grid_dim * block_dim) as usize;
            let mut script: Vec<Vec<Vec<Op>>> = Vec::with_capacity(phases);
            for _ in 0..phases {
                let carry = script.last().and_then(|phase| phase.last());
                let phase = random_phase_script(&mut rng, threads, carry);
                script.push(phase);
            }
            if commute {
                without_global_atomics(&mut script);
            }
            let k = Scripted::new(script, commute);
            let cfg = LaunchConfig { grid_dim, block_dim, shared_words: SCRIPT_SHARED_WORDS };
            // Twice, so the second launch runs on warm arenas and a warm L2.
            let oracle = GpuDevice::with_trace_sampling(spec, sample);
            let want: Vec<KernelCounters> =
                (0..2).map(|_| launch_reference(&oracle, &k, cfg)).collect();
            let mut diverged = None;
            under_each_schedule(seed, |schedule| {
                let dev = GpuDevice::with_trace_sampling(spec, sample);
                for (round, want) in want.iter().enumerate() {
                    let got = dev.launch(&k, cfg).counters;
                    let fields = got.field_bits().into_iter().zip(want.field_bits());
                    for ((field, g), (_, w)) in fields {
                        if g != w && diverged.is_none() {
                            diverged = Some(format!("{field} differs in round {round} on {schedule}"));
                        }
                    }
                }
            });
            proptest::prop_assert!(diverged.is_none(), "{}", diverged.unwrap_or_default());
        }
    }

    #[test]
    fn a_global_atomic_in_a_kernel_that_declares_commuting_blocks_panics() {
        // The atomic sits in an untraced warp: the guard does not depend
        // on tracing, nor on the launch forking.
        let mut lanes = vec![vec![Op::Ld(0)]; 128];
        lanes[100] = vec![Op::Ld(0), Op::AtomicAdd(7)];
        let k = Scripted::new(vec![lanes], true);
        let cfg = LaunchConfig::for_items(128, 32);
        for workers in 1..=4 {
            let dev = GpuDevice::with_trace_sampling(SYSTEM_A.gpu, 2);
            let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on_workers(workers, || dev.launch(&k, cfg))
            }))
            .expect_err("the atomic went through");
            let message = fault.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(
                message.contains("commuting blocks"),
                "{workers} workers: {message}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn oversized_shared_request_panics() {
        let dev = GpuDevice::new(SYSTEM_A.gpu);
        struct Nop;
        impl Kernel for Nop {
            fn thread(&self, _: usize, _: ThreadId, _: &mut ThreadCtx<'_>) {}
        }
        dev.launch(
            &Nop,
            LaunchConfig {
                grid_dim: 1,
                block_dim: 32,
                shared_words: 1 << 20,
            },
        );
    }
}
