//! Hypothesis tests: Kolmogorov–Smirnov and chi-square goodness of fit.
//!
//! §3.4 of the paper argues that client arrivals are Poisson *within short
//! stationary windows*. The chi-square Poisson dispersion test and the KS
//! exponential-interarrival test make that argument executable.

use crate::fit::FitError;
use crate::special::{gamma_q, ks_q};
use serde::{Deserialize, Serialize};

/// Result of a hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// The test statistic.
    pub statistic: f64,
    /// Asymptotic p-value.
    pub p_value: f64,
}

impl TestResult {
    /// True when the null hypothesis survives at significance `alpha`.
    pub fn accepts(&self, alpha: f64) -> bool {
        self.p_value > alpha
    }
}

/// KS distance between a *sorted* sample and a theoretical CDF.
///
/// `D = sup_x |F_n(x) − F(x)|`, evaluated at the jump points. The CDF is
/// called once per run `[i, k)` of bit-equal values: over the run,
/// `|F − m/n|` for `m ∈ [i, k]` peaks at an endpoint, so only `m = i` and
/// `m = k` are compared, and `D` has the bits of the per-point form.
pub fn ks_distance(sorted: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let x = sorted[i];
        let k = i + sorted[i..]
            .iter()
            .take_while(|y| y.to_bits() == x.to_bits())
            .count();
        let f = cdf(x);
        let lo = i as f64 / n; // F_n just before the jump
        let hi = k as f64 / n; // F_n just after
        d = d.max((f - lo).abs()).max((hi - f).abs());
        i = k;
    }
    d
}

/// One-sample Kolmogorov–Smirnov test against a theoretical CDF.
///
/// Sorts internally. Uses the asymptotic p-value with the Stephens
/// small-sample correction `(√n + 0.12 + 0.11/√n)·D`.
///
/// Degenerate input (an empty sample) is an error, not a panic.
pub fn ks_test(data: &[f64], cdf: impl Fn(f64) -> f64) -> Result<TestResult, FitError> {
    if data.is_empty() {
        return Err(FitError::new("KS test on empty sample"));
    }
    let mut sorted = data.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let d = ks_distance(&sorted, cdf);
    let sn = (sorted.len() as f64).sqrt();
    let lambda = (sn + 0.12 + 0.11 / sn) * d;
    Ok(TestResult {
        statistic: d,
        p_value: ks_q(lambda),
    })
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// Tests whether `a` and `b` come from the same distribution. This is what
/// the paper's Fig 5-vs-Fig 6 "surprisingly similar" comparison amounts to.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<TestResult, FitError> {
    if a.is_empty() || b.is_empty() {
        return Err(FitError::new("KS two-sample on empty input"));
    }
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_unstable_by(f64::total_cmp);
    sb.sort_unstable_by(f64::total_cmp);
    let (na, nb) = (sa.len(), sb.len());
    let mut i = 0;
    let mut j = 0;
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let xa = sa[i];
        let xb = sb[j];
        let x = xa.min(xb);
        while i < na && sa[i] <= x {
            i += 1;
        }
        while j < nb && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na as f64 - j as f64 / nb as f64).abs());
    }
    let ne = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let sn = ne.sqrt();
    let lambda = (sn + 0.12 + 0.11 / sn) * d;
    Ok(TestResult {
        statistic: d,
        p_value: ks_q(lambda),
    })
}

/// Chi-square goodness-of-fit test from observed and expected bin counts.
///
/// Bins with expected count below `min_expected` (conventionally 5) are
/// pooled into their neighbor. `ddof` is the number of parameters estimated
/// from the data (subtracted from the degrees of freedom along with 1).
///
/// Errors on mismatched bin vectors or when pooling leaves too few bins
/// for the requested degrees of freedom.
pub fn chi_square_test(
    observed: &[f64],
    expected: &[f64],
    ddof: usize,
) -> Result<TestResult, FitError> {
    if observed.len() != expected.len() {
        return Err(FitError::new(format!(
            "bin count mismatch: {} observed vs {} expected",
            observed.len(),
            expected.len()
        )));
    }
    const MIN_EXPECTED: f64 = 5.0;
    // Pool small-expectation bins left to right.
    let mut obs_pooled = Vec::new();
    let mut exp_pooled = Vec::new();
    let mut o_acc = 0.0;
    let mut e_acc = 0.0;
    for (&o, &e) in observed.iter().zip(expected) {
        o_acc += o;
        e_acc += e;
        if e_acc >= MIN_EXPECTED {
            obs_pooled.push(o_acc);
            exp_pooled.push(e_acc);
            o_acc = 0.0;
            e_acc = 0.0;
        }
    }
    if e_acc > 0.0 {
        // Fold the remainder into the last pooled bin.
        if let (Some(lo), Some(le)) = (obs_pooled.last_mut(), exp_pooled.last_mut()) {
            *lo += o_acc;
            *le += e_acc;
        } else {
            return Err(FitError::new("all expected counts pooled to zero"));
        }
    }
    let k = obs_pooled.len();
    if k <= 1 + ddof {
        return Err(FitError::new(format!(
            "only {k} bins after pooling with ddof {ddof}"
        )));
    }
    let stat: f64 = obs_pooled
        .iter()
        .zip(&exp_pooled)
        .map(|(&o, &e)| (o - e) * (o - e) / e)
        .sum();
    let dof = (k - 1 - ddof) as f64;
    // p-value = Q(dof/2, stat/2).
    Ok(TestResult {
        statistic: stat,
        p_value: gamma_q(dof / 2.0, stat / 2.0),
    })
}

/// Poisson dispersion test on a set of counts.
///
/// Under H₀ (iid Poisson), the index of dispersion
/// `D = (n−1)·s² / x̄` is asymptotically chi-square with `n−1` dof.
/// This is the classic test for "are these per-window arrival counts
/// Poisson?" used to validate §3.4's piecewise-stationarity claim.
///
/// Errors on degenerate input: fewer than two counts, or all zeros.
pub fn poisson_dispersion_test(counts: &[u64]) -> Result<TestResult, FitError> {
    if counts.len() < 2 {
        return Err(FitError::new("dispersion test needs >= 2 counts"));
    }
    let n = counts.len() as f64;
    let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
    if mean == 0.0 {
        return Err(FitError::new("dispersion test on all-zero counts"));
    }
    let ss: f64 = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum();
    let stat = ss / mean; // = (n-1) s² / x̄ with s² the unbiased variance
    let dof = n - 1.0;
    // Two-sided: both over- and under-dispersion refute Poisson.
    let upper = gamma_q(dof / 2.0, stat / 2.0);
    let lower = 1.0 - upper;
    Ok(TestResult {
        statistic: stat,
        p_value: 2.0 * upper.min(lower),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Continuous, Discrete, Exponential, LogNormal, Poisson, Sample};
    use crate::rng::SeedStream;

    #[test]
    fn ks_accepts_true_model() {
        let d = Exponential::new(0.5).unwrap();
        let mut rng = SeedStream::new(601).rng("ks1");
        let xs = d.sample_n(&mut rng, 5_000);
        let r = ks_test(&xs, |x| d.cdf(x)).unwrap();
        assert!(r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn ks_rejects_wrong_model() {
        let d = LogNormal::new(4.0, 1.4).unwrap();
        let wrong = Exponential::with_mean(100.0).unwrap();
        let mut rng = SeedStream::new(602).rng("ks2");
        let xs = d.sample_n(&mut rng, 5_000);
        let r = ks_test(&xs, |x| wrong.cdf(x)).unwrap();
        assert!(!r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn ks_two_sample_same_distribution() {
        let d = LogNormal::new(5.0, 1.5).unwrap();
        let mut rng = SeedStream::new(603).rng("ks3");
        let a = d.sample_n(&mut rng, 4_000);
        let b = d.sample_n(&mut rng, 4_000);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn ks_two_sample_different_distributions() {
        let d1 = LogNormal::new(5.0, 1.5).unwrap();
        let d2 = LogNormal::new(5.5, 1.5).unwrap();
        let mut rng = SeedStream::new(604).rng("ks4");
        let a = d1.sample_n(&mut rng, 4_000);
        let b = d2.sample_n(&mut rng, 4_000);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(!r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn chi_square_uniform_counts() {
        // 6 fair-die faces, near-uniform observations.
        let obs = [98.0, 105.0, 102.0, 95.0, 101.0, 99.0];
        let exp = [100.0; 6];
        let r = chi_square_test(&obs, &exp, 0).unwrap();
        assert!(r.accepts(0.05), "p = {}", r.p_value);
        // Grossly skewed observations must be rejected.
        let bad = [300.0, 20.0, 20.0, 100.0, 100.0, 60.0];
        let r2 = chi_square_test(&bad, &exp, 0).unwrap();
        assert!(!r2.accepts(0.01), "p = {}", r2.p_value);
    }

    #[test]
    fn chi_square_pools_small_bins() {
        let obs = [50.0, 1.0, 1.0, 48.0];
        let exp = [49.0, 2.0, 2.0, 47.0];
        // Expected counts 2 and 2 get pooled; the test still runs.
        assert!(chi_square_test(&obs, &exp, 0).is_ok());
    }

    #[test]
    fn dispersion_accepts_poisson_counts() {
        let d = Poisson::new(40.0).unwrap();
        let mut rng = SeedStream::new(605).rng("disp");
        let counts: Vec<u64> = (0..500).map(|_| d.sample_k(&mut rng)).collect();
        let r = poisson_dispersion_test(&counts).unwrap();
        assert!(r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn dispersion_rejects_overdispersed_counts() {
        // Mixture of two rates = overdispersed relative to Poisson.
        let lo = Poisson::new(5.0).unwrap();
        let hi = Poisson::new(100.0).unwrap();
        let mut rng = SeedStream::new(606).rng("disp2");
        let counts: Vec<u64> = (0..500)
            .map(|i| {
                if i % 2 == 0 {
                    lo.sample_k(&mut rng)
                } else {
                    hi.sample_k(&mut rng)
                }
            })
            .collect();
        let r = poisson_dispersion_test(&counts).unwrap();
        assert!(!r.accepts(0.01), "p = {}", r.p_value);
    }

    #[test]
    fn dispersion_degenerate_inputs() {
        assert!(poisson_dispersion_test(&[]).is_err());
        assert!(poisson_dispersion_test(&[3]).is_err());
        assert!(poisson_dispersion_test(&[0, 0, 0]).is_err());
    }

    #[test]
    fn ks_degenerate_inputs_error_instead_of_panicking() {
        assert!(ks_test(&[], |x| x).is_err());
        assert!(ks_two_sample(&[], &[1.0]).is_err());
        assert!(ks_two_sample(&[1.0], &[]).is_err());
    }

    #[test]
    fn chi_square_degenerate_inputs_error_instead_of_panicking() {
        // Mismatched bin vectors used to assert; now they report.
        assert!(chi_square_test(&[1.0, 2.0], &[1.0], 0).is_err());
        // All-zero expectations cannot be pooled.
        assert!(chi_square_test(&[0.0, 0.0], &[0.0, 0.0], 0).is_err());
        // Too many estimated parameters for the pooled bin count.
        assert!(chi_square_test(&[50.0, 50.0], &[50.0, 50.0], 5).is_err());
    }
}
