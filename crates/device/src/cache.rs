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
//! of the line address; [`ShardedCache`] mirrors that with one
//! `parking_lot::Mutex` per slice. Nothing is parallel today: the engine
//! executes kernel threads, coalesces warps and drains transactions into
//! this cache on the one calling thread (no `par_*` call exists in
//! `bdm-gpu` or this crate), and concurrent launches on one `GpuDevice`
//! serialize on its scratch arena, so these locks are never contended.
//! The drain must also *stay* one ordered stream — an LRU cache's hit
//! count depends on the sequence of lines it sees — so what could fork
//! later is the per-block execute + coalesce phase in front of it, not
//! the accesses to this cache. The slices model the hardware's
//! partitioning (and keep `ShardedCache: Sync` for callers that share a
//! device); they are not a parallel-simulation mechanism.

use parking_lot::Mutex;

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
    line_bytes: u64,
    sets: usize,
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
            line_bytes: line_bytes as u64,
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Access the line containing `addr`.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.clock += 1;
        let line = addr / self.line_bytes;
        let set = (line as usize) & (self.sets - 1);
        let base = set * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        // Hit?
        for (w, tag) in ways.iter().enumerate() {
            if *tag == line {
                self.stamps[base + w] = self.clock;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
        }
        // Miss: fill LRU way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            let s = self.stamps[base + w];
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if s < oldest {
                oldest = s;
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
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

/// An L2 cache partitioned into address-hashed slices, each behind its own
/// mutex — the partitioning of a real GPU L2. The SIMT engine feeds it
/// one ordered stream from one thread (see the module docs).
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Mutex<CacheSim>>,
    line_bytes: u64,
}

impl ShardedCache {
    /// Split `capacity_bytes` across `shards` slices.
    pub fn new(capacity_bytes: u64, ways: u32, line_bytes: u32, shards: usize) -> Self {
        assert!(shards >= 1);
        let per_shard = (capacity_bytes / shards as u64).max(line_bytes as u64 * ways as u64);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(CacheSim::new(per_shard, ways, line_bytes)))
                .collect(),
            line_bytes: line_bytes as u64,
        }
    }

    /// Access the line containing `addr` through its slice.
    pub fn access(&self, addr: u64) -> AccessOutcome {
        let line = addr / self.line_bytes;
        // Simple multiplicative hash → slice id; keeps neighboring lines in
        // different slices the way real partition hashes do.
        let shard = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.shards.len();
        self.shards[shard].lock().access(addr)
    }

    /// Aggregate counters across slices.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total.merge(&s.lock().stats());
        }
        total
    }

    /// Invalidate all slices and zero all counters.
    pub fn reset(&self) {
        for s in &self.shards {
            s.lock().reset();
        }
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
        let c = ShardedCache::new(64 * 1024, 8, 128, 8);
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

    #[test]
    fn sharded_is_usable_from_threads() {
        let c = std::sync::Arc::new(ShardedCache::new(64 * 1024, 8, 128, 4));
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        c.access((t * 1_000_000 + i) * 128);
                    }
                });
            }
        });
        assert_eq!(c.stats().accesses(), 4000);
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        let c = CacheSim::new(4096, 4, 128);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}
