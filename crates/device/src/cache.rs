//! Trace-driven set-associative cache simulation.
//!
//! The GPU simulator routes every coalesced memory transaction through a
//! model of the device's L2 cache; hits are served at L2 latency, misses
//! count as HBM traffic. This is the machinery that makes the paper's
//! Improvement II *emergent*: Morton-sorted agents touch fewer distinct
//! lines with more reuse, so the simulated hit rate rises — exactly the
//! L2-read-share effect the authors report via `nvprof` (39.4 % → 41.3 %
//! across densities, §VI).
//!
//! Real GPU L2s are physically partitioned into slices addressed by a hash
//! of the line address; [`ShardedCache`] mirrors that partitioning with
//! one [`CacheSim`] per slice and nothing else: it is plain data behind
//! `&mut`. The SIMT engine keeps it under the one lock a launch already
//! takes, so a transaction costs no lock of its own, and line, set and
//! slice come out of shifts and masks fixed in `new` (line size, set count
//! and slice count are powers of two), never a runtime division.
//!
//! The cache must see *one ordered stream* — an LRU cache's hit count
//! depends on the sequence of lines it sees — so what forks is the
//! per-block execution in front of the drain, never the accesses to this
//! cache: the engine's drain walks the forked chunks' transactions in the
//! in-order launch's sequence, on one thread. (Forking the drain by
//! slice was measured and lost: each worker has to walk the whole stream
//! to find its slice's lines.) (`bdm-device`'s `parking_lot` edge in
//! `Cargo.toml` is idle since the per-slice mutexes went; it stays listed
//! only because the lock files record it — ROADMAP item 1 (d).)

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Line present.
    Hit,
    /// Line absent; it was filled (and possibly evicted a victim).
    Miss,
}

/// Aggregate counters of a cache (or cache slice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]` (0 when no accesses).
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Self) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// Tags are stored per set with an LRU stamp; the structure is sized for
/// simulation speed, not realism of replacement metadata.
#[derive(Debug)]
pub struct CacheSim {
    /// `log2` of the line size: `addr >> line_shift` is the line address.
    line_shift: u32,
    /// `sets - 1`; the set count is a power of two.
    set_mask: usize,
    ways: usize,
    /// `tags[set * ways + way]` = line address or `u64::MAX` when invalid.
    tags: Vec<u64>,
    /// Monotonic use stamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
}

impl CacheSim {
    /// Build a cache of `capacity_bytes` with `ways` associativity and
    /// `line_bytes` lines. Set count is rounded down to a power of two so
    /// the index is a mask.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(ways >= 1 && line_bytes.is_power_of_two());
        let ways = ways as usize;
        let lines = (capacity_bytes / line_bytes as u64).max(ways as u64) as usize;
        let raw_sets = (lines / ways).max(1);
        // Round down to a power of two so the set index is a mask.
        let sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        Self {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.set_mask + 1
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Access the line containing `addr`.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let line = addr >> self.line_shift;
        let base = (line as usize & self.set_mask) * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let stamps = &mut self.stamps[base..base + self.ways];
        // A line sits in at most one way, so the scan needs no early exit
        // (an unpredictable branch): the compiler vectorises it.
        let hit = (0..tags.len()).fold(usize::MAX, |hit, w| if tags[w] == line { w } else { hit });
        if hit != usize::MAX {
            stamps[hit] = self.clock;
            self.stats.hits += 1;
            return AccessOutcome::Hit;
        }
        // Miss: fill the first invalid way, else the least recently used
        // (an invalid way's stamp is 0 and every valid way's is ≥ 1, and
        // `min_by_key` returns the first minimum).
        let victim = (0..tags.len())
            .min_by_key(|&w| stamps[w])
            .expect("a cache has at least one way");
        tags[victim] = line;
        stamps[victim] = self.clock;
        self.stats.misses += 1;
        AccessOutcome::Miss
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidate everything and zero the counters.
    pub fn reset(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

/// An L2 cache partitioned into address-hashed slices — the partitioning
/// of a real GPU L2. The SIMT engine feeds it one ordered stream (see the
/// module docs).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<CacheSim>,
    line_shift: u32,
    /// `shards.len() - 1`; the slice count is a power of two.
    shard_mask: usize,
}

impl ShardedCache {
    /// Split `capacity_bytes` across `shards` slices (a power of two).
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32, shards: usize) -> Self {
        assert!(
            shards.is_power_of_two(),
            "the slice index is a mask: {shards} slices is not a power of two"
        );
        let per_shard = (capacity_bytes / shards as u64).max(line_bytes as u64 * ways as u64);
        Self {
            shards: (0..shards)
                .map(|_| CacheSim::new(per_shard, ways, line_bytes))
                .collect(),
            line_shift: line_bytes.trailing_zeros(),
            shard_mask: shards - 1,
        }
    }

    /// Access the line containing `addr` through its slice.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        let line = addr >> self.line_shift;
        // Simple multiplicative hash → slice id; keeps neighboring lines in
        // different slices the way real partition hashes do.
        let shard = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize & self.shard_mask;
        self.shards[shard].access(addr)
    }

    /// Aggregate counters across slices.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.stats());
        }
        total
    }

    /// Invalidate all slices and zero all counters.
    pub fn reset(&mut self) {
        self.shards.iter_mut().for_each(CacheSim::reset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = CacheSim::new(64 * 1024, 8, 128);
        assert_eq!(c.access(0), AccessOutcome::Miss);
        assert_eq!(c.access(0), AccessOutcome::Hit);
        assert_eq!(c.access(64), AccessOutcome::Hit); // same 128B line
        assert_eq!(c.access(128), AccessOutcome::Miss); // next line
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn capacity_eviction() {
        // 4 lines total (2 sets × 2 ways, 128B lines).
        let mut c = CacheSim::new(512, 2, 128);
        assert_eq!(c.sets(), 2);
        // Fill set 0 (even lines) beyond its 2 ways.
        assert_eq!(c.access(0), AccessOutcome::Miss); // line 0 → set 0
        assert_eq!(c.access(256), AccessOutcome::Miss); // line 2 → set 0
        assert_eq!(c.access(512), AccessOutcome::Miss); // line 4 → set 0, evicts line 0 (LRU)
        assert_eq!(c.access(0), AccessOutcome::Miss); // line 0 gone
    }

    #[test]
    fn lru_keeps_recently_used() {
        let mut c = CacheSim::new(512, 2, 128);
        c.access(0); // line 0
        c.access(256); // line 2
        c.access(0); // touch line 0 → line 2 is now LRU
        c.access(512); // evicts line 2
        assert_eq!(c.access(0), AccessOutcome::Hit);
        assert_eq!(c.access(256), AccessOutcome::Miss);
    }

    #[test]
    fn streaming_never_hits_sequential_lines() {
        let mut c = CacheSim::new(16 * 1024, 16, 128);
        for i in 0..1000u64 {
            c.access(i * 128);
        }
        // Pure streaming with distinct lines: all misses.
        assert_eq!(c.stats().misses, 1000);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn working_set_within_capacity_hits_on_second_pass() {
        let mut c = CacheSim::new(128 * 1024, 16, 128);
        let lines = 512u64; // 64 KiB working set, fits in 128 KiB
        for i in 0..lines {
            c.access(i * 128);
        }
        let misses_first = c.stats().misses;
        for i in 0..lines {
            c.access(i * 128);
        }
        let s = c.stats();
        assert_eq!(misses_first, lines);
        assert_eq!(s.hits, lines, "second pass must fully hit");
    }

    #[test]
    fn reset_clears_state() {
        let mut c = CacheSim::new(4096, 4, 128);
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0), AccessOutcome::Miss);
    }

    #[test]
    fn sharded_aggregates_stats() {
        let mut c = ShardedCache::new(64 * 1024, 8, 128, 8);
        for i in 0..100u64 {
            c.access(i * 128);
        }
        for i in 0..100u64 {
            c.access(i * 128);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 200);
        assert_eq!(s.misses, 100);
        assert_eq!(s.hits, 100);
    }

    /// The cache is plain data: threads share it the way `GpuDevice`
    /// does, behind one lock around the whole thing.
    #[test]
    fn sharded_is_usable_from_threads() {
        let c = std::sync::Mutex::new(ShardedCache::new(64 * 1024, 8, 128, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.lock()
                            .expect("no thread panics holding the lock")
                            .access((t * 1_000_000 + i) * 128);
                    }
                });
            }
        });
        assert_eq!(c.into_inner().unwrap().stats().accesses(), 4000);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_slice_count_that_is_not_a_power_of_two_is_refused() {
        ShardedCache::new(64 * 1024, 8, 128, 12);
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        let c = CacheSim::new(4096, 4, 128);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}
