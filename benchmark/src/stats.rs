//! The estimators the benchmark's numbers are made of.
//!
//! The host this benchmark was written on is a shared 2-vCPU box whose
//! noise is one-sided: contention only ever adds time, and a fixed
//! compute kernel shows a sharp floor (see README.md, "The host is
//! noisy"). The program under test is deterministic, so for a fixed input
//! the floor *is* the program's cost. Wall-clock metrics therefore use
//! the **step-composite floor** — per step index the minimum over rounds,
//! summed — and the median / inter-quartile range ride along as context.

/// Per step index `k`, the minimum over rounds of step `k`'s wall time.
///
/// Rounds that ended early (a failed step) contribute the steps they
/// have; the result is as long as the longest round.
pub fn step_floors(rounds: &[Vec<f64>]) -> Vec<f64> {
    let steps = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..steps)
        .map(|k| {
            rounds
                .iter()
                .filter_map(|r| r.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `Σ_k min_r t[r][k]`: the step-composite floor of a timed step loop.
pub fn composite_floor(rounds: &[Vec<f64>]) -> f64 {
    step_floors(rounds).iter().sum()
}

/// Smallest sample (`NaN` for an empty series, so a missing measurement
/// can never read as a fast one).
pub fn floor(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method), so the
/// spreads printed here are the ones the acceptance procedure computes.
/// Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        // May fall outside [0, 4] at the clamped ends; Python then
        // extrapolates, and so does this.
        let delta = (q * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    Some((q3 - q1) / median(samples))
}

/// The highest of the usual percentiles that `n` samples support: a
/// percentile is reported only when at least ten samples lie beyond it,
/// so a "p99" is never one outlier's value.
pub fn supported_percentile(n: usize) -> Option<f64> {
    // (percentile, per-mille of samples beyond it): integer arithmetic, so
    // exactly ten samples beyond counts as ten.
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// The `p`-th percentile by nearest rank.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composite_floor_takes_the_minimum_per_step_index() {
        let rounds = vec![
            vec![1.0, 5.0, 2.0],
            vec![3.0, 1.0, 2.5],
            vec![2.0, 4.0, 0.5],
        ];
        assert_eq!(step_floors(&rounds), vec![1.0, 1.0, 0.5]);
        assert_eq!(composite_floor(&rounds), 2.5);
        // No single round was that fast: the composite is below every
        // round's own total.
        assert!(rounds.iter().all(|r| r.iter().sum::<f64>() > 2.5));
    }

    #[test]
    fn short_rounds_contribute_the_steps_they_have() {
        let rounds = vec![vec![2.0, 2.0, 2.0], vec![1.0]];
        assert_eq!(step_floors(&rounds), vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn one_sided_noise_moves_the_median_but_not_the_floor() {
        // A 4 ms kernel on a host that only ever adds time: the quiet
        // floor is hit in a minority of rounds, as on the real box.
        let noisy = |extra: &[f64]| extra.iter().map(|e| 4.0 + e).collect::<Vec<_>>();
        let calm = noisy(&[0.0, 0.1, 0.0, 0.2, 0.1, 0.0, 0.3, 0.1, 0.2]);
        let busy = noisy(&[1.9, 2.2, 0.0, 2.4, 1.7, 2.0, 0.1, 2.3, 2.1]);
        assert_eq!(floor(&calm), floor(&busy));
        assert!(median(&busy) / median(&calm) > 1.4);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(iqr_share(&v), Some(1.0));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(39), None);
        assert_eq!(supported_percentile(40), Some(75.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn empty_series_read_as_nan_not_zero() {
        assert!(floor(&[]).is_nan());
        assert!(median(&[]).is_nan());
        assert_eq!(composite_floor(&[]), 0.0);
    }
}
