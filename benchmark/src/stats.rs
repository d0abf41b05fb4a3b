//! Order statistics for timing samples.
//!
//! Every host timing the benchmark reports is a median; a tail is only
//! reported at a percentile that still has at least ten samples beyond
//! it, and the sample count travels with the number.

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the mean of the two middle samples for an even
/// count. Panics on an empty slice — a metric with no samples is a bug in
/// the caller, not a number.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of `values`: what the end-to-end host timings report.
///
/// The hosts this runs on are shared: a neighbour on the sibling hardware
/// thread slows a repetition by up to 1.7× for seconds at a time, so the
/// median of identical back-to-back runs moved by 40 % (IQR over median,
/// ten runs) where their minimum moved by 3 % — see README.md, "Host
/// timings". Contention only ever adds time, so the fastest repetition is
/// the one closest to what the code costs. The median, n, and the extremes
/// are still stated, on the detail line.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((v.len() - 1) as f64 * p).round() as usize;
    v[rank]
}

/// Whether `n` samples support reporting the `p`-quantile: at least ten
/// samples must lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    // the epsilon keeps 100 × (1 − 0.9) = 9.999… on the right side
    n as f64 * (1.0 - p) + 1e-9 >= 10.0
}

/// The highest of p50 / p90 / p99 / p99.9 that `n` samples support, or
/// `None` below twenty samples.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|p| supports(n, *p))
}

/// Count, extremes and median of one timing series — what the runner
/// states next to every host timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let v = sorted(values);
        Summary {
            n: v.len(),
            min: v[0],
            median: median(&v),
            max: v[v.len() - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn summary_states_n_min_median_max() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!(
            s,
            Summary {
                n: 3,
                min: 1.0,
                median: 3.0,
                max: 5.0
            }
        );
    }
}
