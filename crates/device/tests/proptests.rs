//! Property-based tests of the machine models.

use bdm_device::cpu::{CpuModel, Phase};
use bdm_device::specs::{SYSTEM_A, SYSTEM_B};
use bdm_device::{AccessOutcome, CacheSim, ShardedCache};
use proptest::prelude::*;

/// The sliced L2 as it was before its index arithmetic became shifts and
/// masks, kept verbatim as the oracle: line by division, slice by
/// hash-and-modulo, an explicit first-invalid-else-LRU victim scan.
struct ParentL2 {
    line_bytes: u64,
    sets: usize,
    ways: usize,
    /// Per slice: (`tags`, `stamps`, `clock`).
    slices: Vec<(Vec<u64>, Vec<u64>, u64)>,
}

impl ParentL2 {
    fn new(capacity_bytes: u64, ways: u32, line_bytes: u32, slices: usize) -> Self {
        let per_slice = (capacity_bytes / slices as u64).max(line_bytes as u64 * ways as u64);
        let ways = ways as usize;
        let lines = (per_slice / line_bytes as u64).max(ways as u64) as usize;
        let raw_sets = (lines / ways).max(1);
        let sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        Self {
            line_bytes: line_bytes as u64,
            sets,
            ways,
            slices: vec![(vec![u64::MAX; sets * ways], vec![0; sets * ways], 0); slices],
        }
    }

    fn access(&mut self, addr: u64) -> AccessOutcome {
        let line = addr / self.line_bytes;
        let slice = (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.slices.len();
        let (tags, stamps, clock) = &mut self.slices[slice];
        *clock += 1;
        let base = (line as usize & (self.sets - 1)) * self.ways;
        for w in 0..self.ways {
            if tags[base + w] == line {
                stamps[base + w] = *clock;
                return AccessOutcome::Hit;
            }
        }
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for w in 0..self.ways {
            if tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if stamps[base + w] < oldest {
                oldest = stamps[base + w];
                victim = w;
            }
        }
        tags[base + victim] = line;
        stamps[base + victim] = *clock;
        AccessOutcome::Miss
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Shift-and-mask indexing picks the line, slice, set and victim the
    /// divisions and the modulo picked: every access of a random stream
    /// (a hot window that evicts constantly, and addresses anywhere) has
    /// the parent's outcome, across a reset.
    #[test]
    fn sharded_cache_matches_the_parent_slice_choice(
        hot in proptest::collection::vec(0u64..64 * 1024, 1..600),
        wide in proptest::collection::vec(any::<u64>(), 0..100),
        ways in 1u32..=16,
        line_log in 5u32..=8,
        slices_log in 0u32..=4,
        capacity_kb in 1u64..64,
    ) {
        let (line_bytes, slices) = (1u32 << line_log, 1usize << slices_log);
        let mut cache = ShardedCache::new(capacity_kb * 1024, ways, line_bytes, slices);
        let mut parent = ParentL2::new(capacity_kb * 1024, ways, line_bytes, slices);
        for round in 0..2 {
            for &addr in hot.iter().chain(&wide).chain(&hot) {
                prop_assert_eq!(cache.access(addr), parent.access(addr), "addr {}", addr);
            }
            prop_assert_eq!(cache.stats().accesses(), (2 * hot.len() + wide.len()) as u64);
            if round == 0 {
                cache.reset();
                parent = ParentL2::new(capacity_kb * 1024, ways, line_bytes, slices);
            }
        }
    }

    /// For any access stream: hits + misses = accesses, and re-running
    /// the identical stream on a warmed cache can only improve hits.
    #[test]
    fn cache_conservation_and_warmup(
        addrs in proptest::collection::vec(0u64..1_000_000, 1..500),
        ways in 1u32..8,
    ) {
        let mut c = CacheSim::new(16 * 1024, ways, 128);
        for &a in &addrs {
            c.access(a);
        }
        let first = c.stats();
        prop_assert_eq!(first.accesses(), addrs.len() as u64);
        for &a in &addrs {
            c.access(a);
        }
        let second = c.stats();
        // Second pass hits at least as much per access as the first
        // (the warmed cache contains a suffix of the stream).
        prop_assert!(second.hits - first.hits >= first.hits || addrs.len() < 2 ||
            (second.hits - first.hits) as f64 / addrs.len() as f64
                >= first.hit_rate() - 1e-9);
    }

    /// The number of misses is at least the number of distinct lines
    /// (compulsory misses) for any stream on a cold cache.
    #[test]
    fn compulsory_miss_lower_bound(
        addrs in proptest::collection::vec(0u64..100_000, 1..400),
    ) {
        let mut c = CacheSim::new(1 << 20, 16, 128);
        for &a in &addrs {
            c.access(a);
        }
        let distinct: std::collections::HashSet<u64> =
            addrs.iter().map(|a| a / 128).collect();
        prop_assert!(c.stats().misses >= distinct.len() as u64);
    }

    /// A cache large enough for the whole working set has *exactly*
    /// the compulsory misses.
    #[test]
    fn big_cache_only_compulsory_misses(
        lines in proptest::collection::vec(0u64..64, 1..300),
    ) {
        // 64 possible lines, 8 KiB cache = 64 lines: everything fits.
        let mut c = CacheSim::new(8 * 1024, 8, 128);
        for &l in &lines {
            c.access(l * 128);
        }
        let distinct: std::collections::HashSet<u64> = lines.iter().copied().collect();
        prop_assert_eq!(c.stats().misses, distinct.len() as u64);
    }

    /// Repeating one address always hits after the first access,
    /// regardless of interleaved accesses to one other line.
    #[test]
    fn pinned_line_survives_one_competitor(reps in 1usize..50) {
        let mut c = CacheSim::new(4096, 2, 128); // ≥ 2 ways: both lines fit a set
        c.access(0);
        for _ in 0..reps {
            c.access(128 * 1024); // a different set or a second way
            prop_assert_eq!(c.access(0), AccessOutcome::Hit);
        }
    }

    /// CPU model: time never increases with more threads, and the
    /// serial flag pins a phase's time.
    #[test]
    fn cpu_time_monotone_in_threads(
        flops in 1e6f64..1e12,
        bytes in 0f64..1e10,
        random in 0f64..1e8,
    ) {
        let m = CpuModel::new(SYSTEM_B.cpu);
        let p = Phase::parallel_fp64("p", flops, bytes, random);
        let mut last = f64::INFINITY;
        for t in [1u32, 2, 4, 8, 16, 32, 64] {
            let now = m.phase_time(&p, t).seconds;
            prop_assert!(now <= last * 1.001, "slower with more threads at {t}");
            last = now;
        }
        let s = Phase::serial_fp64("s", flops, bytes, random);
        prop_assert_eq!(
            m.phase_time(&s, 1).seconds,
            m.phase_time(&s, 64).seconds
        );
    }

    /// CPU model: time is (weakly) monotone in every work component.
    #[test]
    fn cpu_time_monotone_in_work(
        flops in 1e6f64..1e11,
        bytes in 1e3f64..1e9,
        random in 0f64..1e7,
        threads in 1u32..64,
    ) {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let base = m
            .phase_time(&Phase::parallel_fp64("b", flops, bytes, random), threads)
            .seconds;
        for grown in [
            Phase::parallel_fp64("f", flops * 2.0, bytes, random),
            Phase::parallel_fp64("y", flops, bytes * 2.0, random),
            Phase::parallel_fp64("r", flops, bytes, random * 2.0 + 1.0),
        ] {
            prop_assert!(m.phase_time(&grown, threads).seconds >= base - 1e-15);
        }
    }

    /// FP32 phases are never slower than FP64 phases of the same shape.
    #[test]
    fn fp32_never_slower(
        flops in 1e6f64..1e11,
        bytes in 0f64..1e9,
        threads in 1u32..64,
    ) {
        let m = CpuModel::new(SYSTEM_A.cpu);
        let p64 = Phase::parallel_fp64("a", flops, bytes, 0.0);
        let p32 = Phase { fp64: false, ..p64 };
        prop_assert!(
            m.phase_time(&p32, threads).seconds <= m.phase_time(&p64, threads).seconds + 1e-15
        );
    }
}
