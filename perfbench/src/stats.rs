//! Order statistics over timing samples.

/// Percentiles a tail figure may use, highest first. A tail is reported
/// at the highest of these that leaves at least [`TAIL_BEYOND`] samples
/// above it, so a p99 is only claimed with a thousand samples or more.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// `values` in ascending order (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    s[rank(s.len(), p)]
}

/// The median (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail figure of `values`: the highest percentile in
/// [`TAIL_PERCENTILES`] with at least [`TAIL_BEYOND`] samples beyond it,
/// as `(percentile, value)`. `None` when there are too few samples for
/// any of them.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let r = if n == 0 { return None } else { rank(n, p) };
        (n - 1 - r >= TAIL_BEYOND).then(|| (p, s[r]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_claims_p99_only_with_ten_samples_beyond() {
        // 1,000 samples: p99 is rank 990, with exactly 10 above it.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(1010)), Some((99.0, 1000.0)));
        // 999 samples leave only 9 beyond p99, so p95 is reported.
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
    }

    #[test]
    fn tail_falls_back_through_lower_percentiles() {
        // 40 samples: p75 is rank 30 with 10 above it.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 20 samples: only the median has ten beyond it.
        assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
        // Fewer than 20: no percentile qualifies.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
