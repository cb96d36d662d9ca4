//! Streaming statistics for the benchmark harness.
//!
//! Every figure regenerator reports mean runtimes over repetitions; the
//! neighborhood-density benchmark additionally needs the mean and spread of
//! the neighbors-per-agent distribution to label its x-axis (the paper's
//! `n` in Figs. 10–12). [`OnlineStats`] implements Welford's numerically
//! stable single-pass algorithm.

/// Single-pass mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulate one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Accumulate many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.push(x);
        }
    }

    /// Merge another accumulator into this one (parallel reduction).
    /// Uses the Chan et al. pairwise update, so the result matches a
    /// single-stream accumulation up to rounding.
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn known_sequence() {
        let mut s = OnlineStats::new();
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        whole.extend(data.iter().copied());

        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        left.extend(data[..400].iter().copied());
        right.extend(data[400..].iter().copied());
        left.merge(&right);

        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = OnlineStats::new();
        s.extend([1.0, 2.0, 3.0]);
        let before = (s.count(), s.mean(), s.variance());
        s.merge(&OnlineStats::new());
        assert_eq!(before, (s.count(), s.mean(), s.variance()));

        let mut empty = OnlineStats::new();
        let mut other = OnlineStats::new();
        other.extend([1.0, 2.0, 3.0]);
        empty.merge(&other);
        assert_eq!(empty.count(), 3);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_is_stable_for_large_offsets() {
        // Naive sum-of-squares catastrophically cancels here.
        let mut s = OnlineStats::new();
        let offset = 1e9;
        s.extend([offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]);
        assert!((s.mean() - (offset + 10.0)).abs() < 1e-3);
        assert!((s.variance() - 22.5).abs() < 1e-6);
    }
}
