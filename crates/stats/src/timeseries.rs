//! Time-series utilities: binning, periodic folding, autocorrelation.
//!
//! These produce the temporal panels of the paper: Fig 4 / Fig 16 (counts
//! per 15-minute bin over the trace, folded mod-week and mod-day), Fig 8
//! (autocorrelation of the client count with daily peaks at lags that are
//! multiples of 1440 minutes) and Fig 18 (mean interarrival per bin).

use serde::{Deserialize, Serialize};

/// Counts events into fixed-width time bins over `[0, horizon)`.
///
/// Returns one count per bin; events outside the horizon are ignored.
pub fn bin_counts(times: &[f64], bin_width: f64, horizon: f64) -> Vec<u64> {
    assert!(bin_width > 0.0 && horizon > 0.0, "invalid binning");
    let nbins = (horizon / bin_width).ceil() as usize;
    let mut counts = vec![0u64; nbins];
    for &t in times {
        if t >= 0.0 && t < horizon {
            let idx = ((t / bin_width) as usize).min(nbins - 1);
            counts[idx] += 1;
        }
    }
    counts
}

/// Averages per-bin values of events into fixed-width time bins.
///
/// `events` are `(time, value)` pairs; returns `(mean value, count)` per
/// bin with `NaN` mean for empty bins. Used for Fig 18 (mean transfer
/// interarrival per 15-minute bin).
pub fn bin_means(events: &[(f64, f64)], bin_width: f64, horizon: f64) -> Vec<(f64, u64)> {
    assert!(bin_width > 0.0 && horizon > 0.0, "invalid binning");
    let nbins = (horizon / bin_width).ceil() as usize;
    let mut sums = vec![0.0f64; nbins];
    let mut counts = vec![0u64; nbins];
    for &(t, v) in events {
        if t >= 0.0 && t < horizon {
            let idx = ((t / bin_width) as usize).min(nbins - 1);
            sums[idx] += v;
            counts[idx] += 1;
        }
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| {
            if c > 0 {
                (s / c as f64, c)
            } else {
                (f64::NAN, 0)
            }
        })
        .collect()
}

/// Folds a binned series modulo a period, averaging across repetitions.
///
/// `series[i]` is the value of bin `i` (bin width `bin_width` seconds);
/// the result has `period / bin_width` bins, each the mean of all input
/// bins congruent to it mod the period. NaN entries are skipped. This is
/// exactly the paper's "time (modulo one week / 24 hours)" view.
pub fn fold_periodic(series: &[f64], bin_width: f64, period: f64) -> Vec<f64> {
    assert!(bin_width > 0.0 && period > 0.0, "invalid fold");
    let bins_per_period = (period / bin_width).round() as usize;
    assert!(bins_per_period >= 1, "period shorter than one bin");
    let mut sums = vec![0.0f64; bins_per_period];
    let mut counts = vec![0u64; bins_per_period];
    for (i, &v) in series.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        let idx = i % bins_per_period;
        sums[idx] += v;
        counts[idx] += 1;
    }
    sums.iter()
        .zip(&counts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { f64::NAN })
        .collect()
}

/// Sample autocorrelation function of a series at lags `0..=max_lag`.
///
/// Standard biased estimator: `r(l) = Σ (x_t − x̄)(x_{t+l} − x̄) / Σ (x_t − x̄)²`.
/// `r(0)` is always 1. NaN entries are not supported (fill or drop first).
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    assert!(n >= 2, "autocorrelation needs >= 2 points");
    let max_lag = max_lag.min(n - 1);
    let mean = series.iter().sum::<f64>() / n as f64;
    let c: Vec<f64> = series.iter().map(|&x| x - mean).collect();
    let denom: f64 = c.iter().map(|&x| x.powi(2)).sum();
    if denom == 0.0 {
        // Constant series: define ACF as 1 at lag 0 and 0 beyond, which is
        // the convention least surprising to downstream peak-finders.
        let mut out = vec![0.0; max_lag + 1];
        out[0] = 1.0;
        return out;
    }
    // Four lags per pass over `t`, each with its own accumulator, so the
    // adds of different lags overlap. Each lag still sums its products in
    // increasing `t` from 0.0: every value has the bits of the one-lag loop.
    let mut out = Vec::with_capacity(max_lag + 1);
    let mut lag = 0;
    while lag + 3 <= max_lag {
        // `t < common` is in range for all four lags.
        let common = n - lag - 3;
        let (x, y0, y1, y2, y3) = (
            &c[..common],
            &c[lag..lag + common],
            &c[lag + 1..lag + 1 + common],
            &c[lag + 2..lag + 2 + common],
            &c[lag + 3..lag + 3 + common],
        );
        let mut acc = [0.0f64; 4];
        for t in 0..common {
            acc[0] += x[t] * y0[t];
            acc[1] += x[t] * y1[t];
            acc[2] += x[t] * y2[t];
            acc[3] += x[t] * y3[t];
        }
        for (j, mut num) in acc.into_iter().enumerate() {
            for t in common..n - lag - j {
                num += c[t] * c[t + lag + j];
            }
            out.push(num / denom);
        }
        lag += 4;
    }
    for lag in lag..=max_lag {
        let mut num = 0.0;
        for t in 0..n - lag {
            num += c[t] * c[t + lag];
        }
        out.push(num / denom);
    }
    out
}

/// Finds local maxima of a series (e.g. ACF daily peaks) above `threshold`.
///
/// A point is a peak when it exceeds both neighbors. Returns indices.
pub fn find_peaks(series: &[f64], threshold: f64) -> Vec<usize> {
    let mut peaks = Vec::new();
    for i in 1..series.len().saturating_sub(1) {
        if series[i] > threshold && series[i] > series[i - 1] && series[i] > series[i + 1] {
            peaks.push(i);
        }
    }
    peaks
}

/// Simple centered moving average with window `2k + 1` (edges truncated).
pub fn moving_average(series: &[f64], k: usize) -> Vec<f64> {
    let n = series.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(k);
        let hi = (i + k + 1).min(n);
        let window = &series[lo..hi];
        out.push(window.iter().sum::<f64>() / window.len() as f64);
    }
    out
}

/// A binned time series with its bin width, ready for folding/plotting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BinnedSeries {
    /// Value per bin.
    pub values: Vec<f64>,
    /// Bin width in seconds.
    pub bin_width: f64,
}

impl BinnedSeries {
    /// Wraps values with their bin width.
    pub fn new(values: Vec<f64>, bin_width: f64) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        Self { values, bin_width }
    }

    /// `(bin start time, value)` pairs.
    pub fn points(&self) -> Vec<(f64, f64)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as f64 * self.bin_width, v))
            .collect()
    }

    /// Folds modulo `period` seconds (mean across repetitions).
    pub fn fold(&self, period: f64) -> BinnedSeries {
        BinnedSeries::new(
            fold_periodic(&self.values, self.bin_width, period),
            self.bin_width,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_counts_basic() {
        let counts = bin_counts(&[0.0, 0.5, 1.5, 2.5, 9.99, 10.0, -1.0], 1.0, 10.0);
        assert_eq!(counts.len(), 10);
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 1);
        assert_eq!(counts[9], 1);
        // 10.0 and -1.0 are outside the horizon.
        assert_eq!(counts.iter().sum::<u64>(), 5);
    }

    #[test]
    fn bin_means_basic() {
        let means = bin_means(&[(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)], 1.0, 3.0);
        assert_eq!(means.len(), 3);
        assert_eq!(means[0], (3.0, 2));
        assert_eq!(means[1], (10.0, 1));
        assert!(means[2].0.is_nan());
        assert_eq!(means[2].1, 0);
    }

    #[test]
    fn fold_periodic_averages_repetitions() {
        // Two periods of [1, 2, 3] and [3, 4, 5] → fold = [2, 3, 4].
        let folded = fold_periodic(&[1.0, 2.0, 3.0, 3.0, 4.0, 5.0], 1.0, 3.0);
        assert_eq!(folded, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn fold_skips_nan() {
        let folded = fold_periodic(&[1.0, f64::NAN, 3.0, 5.0], 1.0, 2.0);
        assert_eq!(folded, vec![2.0, 5.0]);
    }

    #[test]
    fn autocorrelation_of_periodic_signal_peaks_at_period() {
        // Period-24 sinusoid, 10 cycles.
        let series: Vec<f64> = (0..240)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 24.0).sin())
            .collect();
        let acf = autocorrelation(&series, 60);
        assert!((acf[0] - 1.0).abs() < 1e-12);
        // Strong positive correlation at the period, negative at half-period.
        assert!(acf[24] > 0.8, "acf[24] = {}", acf[24]);
        assert!(acf[12] < -0.8, "acf[12] = {}", acf[12]);
        let peaks = find_peaks(&acf, 0.5);
        assert!(peaks.contains(&24), "peaks {peaks:?}");
        assert!(peaks.contains(&48), "peaks {peaks:?}");
    }

    #[test]
    fn autocorrelation_constant_series() {
        let acf = autocorrelation(&[5.0; 10], 3);
        assert_eq!(acf, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn autocorrelation_white_noise_is_small() {
        // Deterministic pseudo-noise via a simple LCG.
        let mut x = 12345u64;
        let series: Vec<f64> = (0..2_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect();
        let acf = autocorrelation(&series, 10);
        for (lag, &a) in acf.iter().enumerate().skip(1) {
            assert!(a.abs() < 0.1, "acf[{lag}] = {a}");
        }
    }

    #[test]
    fn moving_average_smooths() {
        let ma = moving_average(&[0.0, 10.0, 0.0, 10.0, 0.0], 1);
        assert_eq!(ma[0], 5.0); // truncated window [0, 10]
        assert!((ma[2] - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn binned_series_fold_round_trip() {
        let s = BinnedSeries::new((0..96).map(|i| (i % 4) as f64).collect(), 900.0);
        let folded = s.fold(3_600.0);
        assert_eq!(folded.values.len(), 4);
        assert_eq!(folded.values, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(folded.points()[1].0, 900.0);
    }
}
