//! Order statistics over timing samples.

/// Samples a reported tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Highest percentile a tail reports. On a shared host a few seconds of
/// contention in a run are common and would set a p99; moving a p95
/// takes a stretch five times as long.
const TAIL_CAP: f64 = 95.0;

/// Median of `xs` (nearest rank, so never above [`tail`]); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The highest percentile, up to [`TAIL_CAP`], with at least ten
/// samples beyond it, and its value. Below twenty samples that
/// percentile would be under the median, so the median is reported.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let n = xs.len().max(1);
    let p = (100.0 * n.saturating_sub(TAIL_BEYOND) as f64 / n as f64).clamp(50.0, TAIL_CAP);
    (p, percentile(xs, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 950.0));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (75.0, 30.0));
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&xs), (50.0, 6.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }
}
