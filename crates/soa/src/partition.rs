//! How a host pass over the agents is cut — the one partition policy.
//!
//! Every cut here is a function of the population size alone, never of
//! the worker count, so whatever a pass computes per part or per chunk
//! is the same on one worker, on sixty-four, and under any schedule.
//! Two rules:
//!
//! * [`parts`] cuts a pass into a few equal parts whose results, if
//!   any, fit a fixed array of [`MAX_PARTS`] (a key pass, a gather, a
//!   sortedness verdict, a radix histogram): one part per `MIN_PART`
//!   (1,024) agents begun, at most [`MAX_PARTS`], so a small population
//!   runs as one part on the calling thread.
//! * [`chunk_cuts`] cuts a pass whose chunks each hold working state
//!   (a behaviors chunk's execution context, a force sweep part's lane
//!   scratch and staged stencils, a kd chunk's neighbor lists, a grid
//!   conversion block's id buffer) into fixed [`CHUNK`]-sized chunks,
//!   as many as the population needs.
//!
//! A pass that finishes its chunks in order may also group them into
//! bands of at least [`BAND_CHUNKS`] (the global CSR force sweep: it
//! integrates one band's displacements while holding the next band's,
//! so it needs two bands' buffer, not one entry per agent).

/// Most parts a pass cut by [`parts`] has.
pub const MAX_PARTS: usize = 8;

/// Agents per part begun: a population of up to this many is one part
/// (and one thread).
const MIN_PART: usize = 1024;

/// Items per chunk of a pass cut by [`chunk_cuts`].
pub const CHUNK: usize = 4 * 1024;

/// Chunks a band holds at least when a pass cut by [`chunk_cuts`] works
/// through its chunks band by band. The global CSR force sweep deals its
/// chunks evenly into as many bands as hold this many, then merges a
/// band with the next until it spans the force stencil's reach. Two
/// bands of 8–9 chunks hold 1.6–1.8 MB of displacements, about what the
/// CSR grid's ids touch at the paper's Benchmark A peak (442,368
/// agents). 16-chunk bands held that peak 1.1 MB higher and
/// `frozen_dense`'s above the one-band sweep's, and ran no faster.
pub const BAND_CHUNKS: usize = 8;

/// `(parts, part_len)` of a parallel pass over `n` agents (the
/// reorder's gathers, the CSR build's key pass and skip check, the radix
/// argsort): part `p` covers
/// `p * part_len .. min((p + 1) * part_len, n)`. One part means the
/// pass runs on the calling thread.
pub fn parts(n: usize) -> (usize, usize) {
    let parts = n.div_ceil(MIN_PART).clamp(1, MAX_PARTS);
    (parts, n.div_ceil(parts).max(1))
}

/// Cut points of a pass over `n` items whose chunks hold working state:
/// `0, CHUNK, 2 * CHUNK, …, n` — chunk `c` covers `cuts[c]..cuts[c + 1]`.
/// `[0]` when `n == 0`.
pub fn chunk_cuts(n: usize) -> Vec<usize> {
    (0..n).step_by(CHUNK).chain([n]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parts of `n` as ranges, checked to tile `0..n` in order.
    fn tiling(n: usize) -> Vec<std::ops::Range<usize>> {
        let (count, len) = parts(n);
        let ranges: Vec<_> = (0..count)
            .map(|p| (p * len).min(n)..((p + 1) * len).min(n))
            .collect();
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges[count - 1].end, n, "{n} agents");
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        ranges
    }

    #[test]
    fn parts_begin_one_per_min_part_up_to_max_parts() {
        let lens = |n| tiling(n).iter().map(|r| r.len()).collect::<Vec<_>>();
        assert_eq!(parts(0), (1, 1));
        assert_eq!(lens(0), [0]);
        assert_eq!(lens(MIN_PART), [MIN_PART]);
        // One agent past a part begins a second, and the two share.
        assert_eq!(lens(MIN_PART + 1), [513, 512]);
        // Past eight parts' worth the count caps and the parts grow.
        let n = 8 * MIN_PART + 1;
        assert_eq!(parts(n), (MAX_PARTS, 1025));
        assert_eq!(lens(n), [1025, 1025, 1025, 1025, 1025, 1025, 1025, 1018]);
    }

    #[test]
    fn chunk_cuts_tile_every_chunk() {
        assert_eq!(chunk_cuts(0), [0]);
        assert_eq!(chunk_cuts(CHUNK), [0, CHUNK]);
        assert_eq!(
            chunk_cuts(2 * CHUNK + 5),
            [0, CHUNK, 2 * CHUNK, 2 * CHUNK + 5]
        );
    }
}
