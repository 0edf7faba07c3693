//! Order statistics over per-op samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples above it, returned as `(percentile, value)`.
///
/// For `n` samples that is the `n − 10`-th smallest value (exactly ten lie
/// beyond it), i.e. the `100 · (n − 10) / n`-th percentile. With fewer than
/// eleven samples no percentile qualifies and the result is `None`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let idx = n - TAIL_BEYOND - 1;
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    Some((pct, s[idx]))
}

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        // Value 1 has exactly the ten values 2..=11 beyond it.
        let (pct, v) = tail(&eleven).unwrap();
        assert_eq!(v, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_exactly_ten_beyond() {
        // Shuffled 1..=100: the tail is the 90th value, the 90th percentile.
        let xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100 + 1)).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        // 1000 samples: the 99th percentile.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
    }
}
