//! Percentiles and per-request latency arithmetic.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks (the "exclusive of nothing" R-7 definition that
/// NumPy uses by default). Empty input gives `NaN`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Time per output token of one request: the decode time after the
/// first token spread over the tokens that followed it. `None` when the
/// request produced fewer than two tokens.
pub fn tpot_ms(total_ms: f64, ttft_ms: f64, generated: usize) -> Option<f64> {
    (generated >= 2).then(|| (total_ms - ttft_ms) / (generated - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!((percentile(&xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_of_ten_values_matches_numpy() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&xs, 0.5) - 5.5).abs() < 1e-12);
        assert!((percentile(&xs, 0.9) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn tpot_spreads_decode_time_over_later_tokens() {
        // 10 tokens: the first at 40 ms, the last at 130 ms
        assert_eq!(tpot_ms(130.0, 40.0, 10), Some(10.0));
        assert_eq!(tpot_ms(50.0, 50.0, 1), None);
        assert_eq!(tpot_ms(50.0, 50.0, 0), None);
    }
}
