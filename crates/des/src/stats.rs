//! Statistics helpers shared by the evaluation harness: means, percentiles
//! (linear interpolation, matching NumPy's default used by the paper's
//! plotting scripts) and five-number boxplot summaries.

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let ss: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    (ss / (xs.len() - 1) as f64).sqrt()
}

/// Percentile in `[0, 100]` with linear interpolation between order
/// statistics. `NaN` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    percentile_sorted(&v, p)
}

/// Percentile over already-sorted data.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Five-number summary plus Tukey whiskers, as drawn in the paper's
/// Fig. 12 boxplots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Boxplot {
    pub min: f64,
    pub whisker_lo: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub whisker_hi: f64,
    pub max: f64,
}

impl Boxplot {
    /// Compute a boxplot summary. Whiskers extend to the most extreme data
    /// point within 1.5×IQR of the quartiles (Tukey convention).
    pub fn from(xs: &[f64]) -> Option<Boxplot> {
        if xs.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in boxplot input"));
        let q1 = percentile_sorted(&v, 25.0);
        let q3 = percentile_sorted(&v, 75.0);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let whisker_lo = *v.iter().find(|&&x| x >= lo_fence).unwrap_or(&v[0]);
        let whisker_hi = *v.iter().rev().find(|&&x| x <= hi_fence).unwrap_or(&v[v.len() - 1]);
        Some(Boxplot {
            min: v[0],
            whisker_lo,
            q1,
            median: percentile_sorted(&v, 50.0),
            q3,
            whisker_hi,
            max: v[v.len() - 1],
        })
    }
}

/// Relative overhead of `measured` versus `baseline`, in percent —
/// the quantity plotted in the paper's Figs. 6, 8 and quoted in §IV-B.
pub fn overhead_pct(baseline: f64, measured: f64) -> f64 {
    if baseline == 0.0 {
        return f64::NAN;
    }
    (measured - baseline) / baseline * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_stddev_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample (n-1) stddev of this classic dataset.
        assert!((stddev(&xs) - 2.13808993529939).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_nan_or_zero() {
        assert!(mean(&[]).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(stddev(&[1.0]), 0.0);
        assert!(Boxplot::from(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates_linearly() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 100.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
        // NumPy: np.percentile([1,2,3,4], 10) == 1.3
        assert!((percentile(&xs, 10.0) - 1.3).abs() < 1e-12);
        assert!((percentile(&xs, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_invariant() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
        }
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn boxplot_on_uniform_data() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let b = Boxplot::from(&xs).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 100.0);
        assert!((b.median - 50.5).abs() < 1e-12);
        assert!((b.q1 - 25.75).abs() < 1e-12);
        assert!((b.q3 - 75.25).abs() < 1e-12);
        // No outliers in uniform data: whiskers hit the extremes.
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 100.0);
    }

    #[test]
    fn boxplot_excludes_outliers_from_whiskers() {
        let mut xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        xs.push(1000.0); // far outlier
        let b = Boxplot::from(&xs).unwrap();
        assert_eq!(b.max, 1000.0);
        assert!(b.whisker_hi <= 20.0, "whisker {0} should exclude outlier", b.whisker_hi);
    }

    #[test]
    fn overhead_pct_signs() {
        assert!((overhead_pct(100.0, 103.5) - 3.5).abs() < 1e-12);
        assert!((overhead_pct(100.0, 99.0) + 1.0).abs() < 1e-12);
        assert!(overhead_pct(0.0, 1.0).is_nan());
    }
}
