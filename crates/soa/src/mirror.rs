//! Lazily refreshed `f64 → f32` column mirrors.
//!
//! No library code uses these any more: the mixed-precision force pass
//! (paper Improvement I on the CPU) narrows the `f64` columns itself
//! while it stages a voxel's candidate tile (`bdm_sim::mech`), so it
//! keeps no full-length `f32` copy. The types stay for the benchmark
//! harness's `soa.mirror_refresh_ms` probe, which times a full refresh.
//!
//! An [`F32Mirror`] is a cast copy of an `f64` column that is refreshed
//! only when the source column's *key* changes, so consecutive refreshes
//! over an unchanged column pay zero conversion traffic.
//!
//! The key is owned by the source container; the mirror just remembers
//! the key it last copied at. That makes the refresh decision
//! deterministic — a pure function of the mutation history, never of
//! timing — so the "copies performed" count is a gateable benchmark
//! metric. A value that two containers could share would let a mirror
//! reused against the other one wrongly skip the copy, so the sim crate
//! passes its resource manager's process-unique *stamps*, which no other
//! container (a clone, a restored copy) ever hands out.

/// An `f32` shadow of an `f64` column, refreshed when its key changes.
#[derive(Debug, Clone, Default)]
pub struct F32Mirror {
    data: Vec<f32>,
    /// Key of the last refresh; `None` until the first one.
    key: Option<u64>,
}

impl F32Mirror {
    /// Empty, never-refreshed mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring the mirror up to date with `src` if `key` differs from the
    /// last refreshed key (or the length drifted — a cheap belt-and-
    /// braces check). Returns the number of elements converted: `src.len()`
    /// on a refresh, `0` when the mirror was already clean.
    pub fn refresh(&mut self, key: u64, src: &[f64]) -> u64 {
        if self.key == Some(key) && self.data.len() == src.len() {
            return 0;
        }
        self.data.clear();
        self.data.extend(src.iter().map(|&v| v as f32));
        self.key = Some(key);
        src.len() as u64
    }

    /// The mirrored lanes. Empty until the first [`F32Mirror::refresh`].
    #[inline(always)]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Elements currently mirrored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when nothing is mirrored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A packed `[x, y, z, w]` `f32` record mirror over four `f64` columns —
/// the CPU analogue of the GPU kernels' `float4` loads.
///
/// A gather that touches four separate column mirrors keeps eight
/// zero-extended lane indices live across four address streams, which
/// costs a cache line per column *and* spills the index registers in the
/// hot loop. Packing the four hot components into one 16-byte record
/// makes a lane gather a single address computation and a single
/// aligned-within-line load.
///
/// The four source columns may be keyed to two different keys (here:
/// the position and the attribute stamp); the packed record re-converts
/// whole when *either* key moves, trading a few redundant component
/// conversions for the packed layout. Same determinism contract as
/// [`F32Mirror`]: the refresh decision is a pure function of the key
/// pair.
#[derive(Debug, Clone, Default)]
pub struct F32x4Mirror {
    data: Vec<[f32; 4]>,
    /// Key pair of the last refresh; `None` until the first one.
    keys: Option<(u64, u64)>,
}

impl F32x4Mirror {
    /// Empty, never-refreshed mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refresh from the four equal-length source columns if either key
    /// differs from the last refresh (or the length drifted). Returns the
    /// number of component conversions performed: `4 * len` on a refresh,
    /// `0` when clean.
    pub fn refresh(
        &mut self,
        key_a: u64,
        key_b: u64,
        xs: &[f64],
        ys: &[f64],
        zs: &[f64],
        ws: &[f64],
    ) -> u64 {
        assert!(
            xs.len() == ys.len() && ys.len() == zs.len() && zs.len() == ws.len(),
            "packed mirror sources must be equal length"
        );
        if self.keys == Some((key_a, key_b)) && self.data.len() == xs.len() {
            return 0;
        }
        self.data.clear();
        self.data.extend(
            xs.iter()
                .zip(ys)
                .zip(zs)
                .zip(ws)
                .map(|(((&x, &y), &z), &w)| [x as f32, y as f32, z as f32, w as f32]),
        );
        self.keys = Some((key_a, key_b));
        4 * xs.len() as u64
    }

    /// The mirrored records. Empty until the first [`F32x4Mirror::refresh`].
    #[inline(always)]
    pub fn as_slice(&self) -> &[[f32; 4]] {
        &self.data
    }

    /// Records currently mirrored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when nothing is mirrored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refresh_is_lazy_on_epoch() {
        let src = [1.0f64, 2.5, -3.25];
        let mut m = F32Mirror::new();
        assert!(m.is_empty());
        assert_eq!(m.refresh(7, &src), 3, "first refresh always copies");
        assert_eq!(m.as_slice(), &[1.0f32, 2.5, -3.25]);
        assert_eq!(m.refresh(7, &src), 0, "same key: clean");
        assert_eq!(m.refresh(8, &src), 3, "new key: recopy");
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn length_drift_forces_a_copy() {
        // Defensive: even with a stale key, a length mismatch can
        // never serve wrong-sized data.
        let mut m = F32Mirror::new();
        m.refresh(1, &[1.0, 2.0]);
        assert_eq!(m.refresh(1, &[1.0, 2.0, 3.0]), 3);
        assert_eq!(m.as_slice(), &[1.0f32, 2.0, 3.0]);
    }

    #[test]
    fn casts_narrow_with_round_to_nearest() {
        let mut m = F32Mirror::new();
        let third = 1.0f64 / 3.0;
        m.refresh(0, &[third, f64::MAX, 1e-300]);
        assert_eq!(m.as_slice()[0], third as f32);
        assert!(m.as_slice()[1].is_infinite(), "overflow saturates to inf");
        assert_eq!(m.as_slice()[2], 0.0, "underflow flushes to zero");
    }

    #[test]
    fn packed_mirror_refreshes_on_either_epoch() {
        let xs = [1.0f64, 2.0];
        let ys = [3.0f64, 4.0];
        let zs = [5.0f64, 6.0];
        let ws = [7.0f64, 8.0];
        let mut m = F32x4Mirror::new();
        assert!(m.is_empty());
        assert_eq!(m.refresh(1, 1, &xs, &ys, &zs, &ws), 8);
        assert_eq!(
            m.as_slice(),
            &[[1.0f32, 3.0, 5.0, 7.0], [2.0f32, 4.0, 6.0, 8.0]]
        );
        assert_eq!(m.refresh(1, 1, &xs, &ys, &zs, &ws), 0, "both keys clean");
        assert_eq!(m.refresh(2, 1, &xs, &ys, &zs, &ws), 8, "first key moved");
        assert_eq!(m.refresh(2, 2, &xs, &ys, &zs, &ws), 8, "second key moved");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn packed_mirror_length_drift_forces_a_copy() {
        let mut m = F32x4Mirror::new();
        m.refresh(1, 1, &[1.0], &[2.0], &[3.0], &[4.0]);
        let two = [9.0f64, 10.0];
        assert_eq!(m.refresh(1, 1, &two, &two, &two, &two), 8);
        assert_eq!(m.as_slice()[1], [10.0f32; 4]);
    }
}
