//! Order statistics over samples sorted ascending.

/// `v` sorted ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(s: &[f64]) -> f64 {
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 1]; 0 when empty.
pub fn percentile(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p)]
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The highest of p99, p90 and p75 with at least ten samples beyond it,
/// as `(p, value)`; the median when no such percentile exists.
pub fn tail(s: &[f64]) -> (f64, f64) {
    for p in [0.99, 0.90, 0.75] {
        if !s.is_empty() && s.len() - rank(s.len(), p) > 10 {
            return (p, percentile(s, p));
        }
    }
    (0.5, median(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), (0.99, 990.0));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), (0.90, 90.0));
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), (0.5, 10.5));
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
