//! Quantile estimators: linear interpolation between order statistics (R
//! type 7, NumPy's default), used for every quantile the benchmark reports —
//! the lower quartile of set-up times, the median of peak RSS, the p10 of
//! probe timings and the pooled p10 / p50 / p90 of op times.

/// A sorted copy of `values` (total order, NaN last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, interpolating
/// linearly between the two nearest order statistics. `NaN` for an empty
/// slice; the only element for a single-element one. With fewer than ten
/// samples the p10 lies between the minimum and the second smallest value,
/// so it degrades gracefully toward the minimum instead of failing.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// [`quantile`] of an unsorted slice.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    quantile(&sorted(values), q)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_p10_interpolates_between_order_statistics() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        // h = 10 * 0.1 = 1 → exactly the second order statistic
        assert_eq!(quantile(&v, 0.10), 2.0);
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.10), 3.0);
        // h = 3 * 0.1 = 0.3 → 30% of the way from 10 to 20
        assert!((quantile(&[10.0, 20.0, 30.0, 40.0], 0.10) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn lower_quartile_of_eight_rounds() {
        let v = sorted(&[8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 4.0]);
        // h = 7 * 0.25 = 1.75 → 2 + 0.75
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.5) - 4.5).abs() < 1e-12);
    }

    #[test]
    fn ties_do_not_move_the_estimate() {
        let v = [5.0; 9];
        assert_eq!(quantile(&v, 0.10), 5.0);
        assert_eq!(quantile(&v, 0.25), 5.0);
        let v = sorted(&[1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0]);
        assert_eq!(quantile(&v, 0.10), 1.0);
    }

    #[test]
    fn fewer_than_ten_samples_degrade_toward_the_minimum() {
        assert!(quantile(&[], 0.10).is_nan());
        assert_eq!(quantile(&[3.0], 0.10), 3.0);
        let p10 = quantile(&[2.0, 4.0, 6.0], 0.10);
        assert!(p10 > 2.0 && p10 < 4.0, "between min and second: {p10}");
        assert_eq!(quantile(&[2.0, 4.0, 6.0], 0.0), 2.0);
        assert_eq!(quantile(&[2.0, 4.0, 6.0], 1.0), 6.0);
    }
}
