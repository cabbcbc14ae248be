//! Maximum-likelihood fits for the continuous families the paper uses.

use super::FitError;
use serde::{Deserialize, Serialize};

/// Fitted lognormal parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormalFit {
    /// Log-location (mean of `ln x`).
    pub mu: f64,
    /// Log-scale (std dev of `ln x`).
    pub sigma: f64,
    /// Observations used.
    pub n: usize,
}

/// MLE lognormal fit: `mu, sigma` are the moments of `ln x`.
///
/// All observations must be strictly positive (the paper's `⌊t⌋+1`
/// transform guarantees this for second-resolution durations).
pub fn fit_lognormal(data: &[f64]) -> Result<LogNormalFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::new("lognormal fit needs >= 2 observations"));
    }
    let mut sum = 0.0;
    for &x in data {
        if !(x > 0.0) {
            return Err(FitError::new(format!(
                "lognormal fit requires positive data, found {x}"
            )));
        }
        sum += x.ln();
    }
    let n = data.len() as f64;
    let mu = sum / n;
    let var = data.iter().map(|&x| (x.ln() - mu).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        return Err(FitError::new("lognormal fit: zero variance in log-space"));
    }
    Ok(LogNormalFit {
        mu,
        sigma: var.sqrt(),
        n: data.len(),
    })
}

/// Fitted exponential parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialFit {
    /// Rate (1 / mean).
    pub lambda: f64,
    /// Mean (the paper quotes the Fig 12 fit by its mean, 203,150 s).
    pub mean: f64,
    /// Observations used.
    pub n: usize,
}

/// MLE exponential fit: `lambda = 1 / mean(x)`.
pub fn fit_exponential(data: &[f64]) -> Result<ExponentialFit, FitError> {
    if data.is_empty() {
        return Err(FitError::new("exponential fit needs >= 1 observation"));
    }
    if data.iter().any(|&x| x < 0.0) {
        return Err(FitError::new("exponential fit requires non-negative data"));
    }
    let mean = data.iter().sum::<f64>() / data.len() as f64;
    if !(mean > 0.0) {
        return Err(FitError::new("exponential fit: zero mean"));
    }
    Ok(ExponentialFit {
        lambda: 1.0 / mean,
        mean,
        n: data.len(),
    })
}

/// Fitted normal parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalFit {
    /// Mean.
    pub mu: f64,
    /// Standard deviation.
    pub sigma: f64,
    /// Observations used.
    pub n: usize,
}

/// MLE normal fit (sample mean / population std dev).
pub fn fit_normal(data: &[f64]) -> Result<NormalFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::new("normal fit needs >= 2 observations"));
    }
    let n = data.len() as f64;
    let mu = data.iter().sum::<f64>() / n;
    let var = data.iter().map(|&x| (x - mu).powi(2)).sum::<f64>() / n;
    if var <= 0.0 {
        return Err(FitError::new("normal fit: zero variance"));
    }
    Ok(NormalFit {
        mu,
        sigma: var.sqrt(),
        n: data.len(),
    })
}

/// Fitted Pareto parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParetoFit {
    /// Scale (fitted as the sample minimum).
    pub xm: f64,
    /// Shape (tail index).
    pub alpha: f64,
    /// Observations used.
    pub n: usize,
}

/// MLE Pareto fit: `xm = min(x)`, `alpha = n / Σ ln(x / xm)`.
pub fn fit_pareto(data: &[f64]) -> Result<ParetoFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::new("Pareto fit needs >= 2 observations"));
    }
    let xm = data.iter().cloned().fold(f64::INFINITY, f64::min);
    if !(xm > 0.0) {
        return Err(FitError::new("Pareto fit requires positive data"));
    }
    let s: f64 = data.iter().map(|&x| (x / xm).ln()).sum();
    if s <= 0.0 {
        return Err(FitError::new("Pareto fit: degenerate data (all equal)"));
    }
    Ok(ParetoFit {
        xm,
        alpha: data.len() as f64 / s,
        n: data.len(),
    })
}

/// Fitted Weibull parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeibullFit {
    /// Scale.
    pub lambda: f64,
    /// Shape.
    pub k: f64,
    /// Observations used.
    pub n: usize,
}

/// MLE Weibull fit via the standard fixed-point iteration on the shape.
///
/// Iterates `k ← [Σ xᵏ ln x / Σ xᵏ − mean(ln x)]⁻¹` to convergence, then
/// sets `λ = (Σ xᵏ / n)^{1/k}`.
pub fn fit_weibull(data: &[f64]) -> Result<WeibullFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::new("Weibull fit needs >= 2 observations"));
    }
    if data.iter().any(|&x| !(x > 0.0)) {
        return Err(FitError::new("Weibull fit requires positive data"));
    }
    let n = data.len() as f64;
    let ln_x: Vec<f64> = data.iter().map(|&x| x.ln()).collect();
    let mean_ln: f64 = ln_x.iter().sum::<f64>() / n;
    let mut k = 1.0_f64;
    for _ in 0..200 {
        let mut s_xk = 0.0;
        let mut s_xk_lnx = 0.0;
        for (&x, &lnx) in data.iter().zip(&ln_x) {
            let xk = x.powf(k);
            s_xk += xk;
            s_xk_lnx += xk * lnx;
        }
        let denom = s_xk_lnx / s_xk - mean_ln;
        if !(denom > 0.0) {
            return Err(FitError::new("Weibull fit: iteration diverged"));
        }
        let k_new = 1.0 / denom;
        if (k_new - k).abs() < 1e-10 * k {
            k = k_new;
            break;
        }
        // Damping keeps the iteration stable for very skewed data.
        k = 0.5 * (k + k_new);
    }
    let lambda = (data.iter().map(|&x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    if !(lambda > 0.0) || !lambda.is_finite() || !k.is_finite() {
        return Err(FitError::new("Weibull fit: non-finite result"));
    }
    Ok(WeibullFit {
        lambda,
        k,
        n: data.len(),
    })
}

/// Fitted gamma parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaFit {
    /// Shape.
    pub k: f64,
    /// Scale.
    pub theta: f64,
    /// Observations used.
    pub n: usize,
}

/// Approximate-MLE gamma fit via the Minka/generalized-Newton closed
/// start `k ≈ (3 − s + sqrt((s−3)² + 24s)) / (12s)` with
/// `s = ln(mean) − mean(ln x)`, refined by two Newton steps on the
/// digamma-free surrogate; `theta = mean / k`.
pub fn fit_gamma(data: &[f64]) -> Result<GammaFit, FitError> {
    if data.len() < 2 {
        return Err(FitError::new("gamma fit needs >= 2 observations"));
    }
    if data.iter().any(|&x| !(x > 0.0)) {
        return Err(FitError::new("gamma fit requires positive data"));
    }
    let n = data.len() as f64;
    let mean = data.iter().sum::<f64>() / n;
    let mean_ln = data.iter().map(|&x| x.ln()).sum::<f64>() / n;
    let s = mean.ln() - mean_ln;
    if !(s > 0.0) {
        return Err(FitError::new(
            "gamma fit: degenerate data (zero log-spread)",
        ));
    }
    let k = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
    if !(k > 0.0) || !k.is_finite() {
        return Err(FitError::new("gamma fit: non-finite shape"));
    }
    Ok(GammaFit {
        k,
        theta: mean / k,
        n: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, LogNormal, Pareto, Sample, Weibull};
    use crate::rng::SeedStream;

    #[test]
    fn lognormal_recovers_paper_params() {
        // Table 2 intra-session interarrival parameters.
        let d = LogNormal::new(4.89991, 1.32074).unwrap();
        let mut rng = SeedStream::new(301).rng("fit-ln");
        let xs = d.sample_n(&mut rng, 50_000);
        let f = fit_lognormal(&xs).unwrap();
        assert!((f.mu - 4.89991).abs() < 0.02, "mu {}", f.mu);
        assert!((f.sigma - 1.32074).abs() < 0.02, "sigma {}", f.sigma);
    }

    #[test]
    fn lognormal_rejects_nonpositive() {
        assert!(fit_lognormal(&[1.0, 0.0, 2.0]).is_err());
        assert!(fit_lognormal(&[1.0]).is_err());
        assert!(fit_lognormal(&[2.0, 2.0, 2.0]).is_err());
    }

    #[test]
    fn exponential_recovers_paper_mean() {
        let d = Exponential::with_mean(203_150.0).unwrap();
        let mut rng = SeedStream::new(302).rng("fit-exp");
        let xs = d.sample_n(&mut rng, 100_000);
        let f = fit_exponential(&xs).unwrap();
        assert!((f.mean / 203_150.0 - 1.0).abs() < 0.02, "mean {}", f.mean);
    }

    #[test]
    fn exponential_rejects_negative() {
        assert!(fit_exponential(&[-1.0, 2.0]).is_err());
        assert!(fit_exponential(&[]).is_err());
    }

    #[test]
    fn pareto_recovers_params() {
        let d = Pareto::new(10.0, 1.8).unwrap();
        let mut rng = SeedStream::new(303).rng("fit-par");
        let xs = d.sample_n(&mut rng, 100_000);
        let f = fit_pareto(&xs).unwrap();
        assert!((f.xm - 10.0).abs() < 0.05, "xm {}", f.xm);
        assert!((f.alpha - 1.8).abs() < 0.03, "alpha {}", f.alpha);
    }

    #[test]
    fn weibull_recovers_params() {
        let d = Weibull::new(250.0, 0.8).unwrap();
        let mut rng = SeedStream::new(304).rng("fit-wei");
        let xs = d.sample_n(&mut rng, 50_000);
        let f = fit_weibull(&xs).unwrap();
        assert!((f.k - 0.8).abs() < 0.02, "k {}", f.k);
        assert!((f.lambda / 250.0 - 1.0).abs() < 0.03, "lambda {}", f.lambda);
    }

    #[test]
    fn gamma_recovers_params() {
        let d = crate::dist::Gamma::new(2.5, 40.0).unwrap();
        let mut rng = SeedStream::new(306).rng("fit-gamma");
        let xs = d.sample_n(&mut rng, 50_000);
        let f = fit_gamma(&xs).unwrap();
        assert!((f.k - 2.5).abs() < 0.1, "k {}", f.k);
        assert!((f.theta - 40.0).abs() < 2.0, "theta {}", f.theta);
    }

    #[test]
    fn gamma_rejects_bad_input() {
        assert!(fit_gamma(&[1.0]).is_err());
        assert!(fit_gamma(&[1.0, -2.0]).is_err());
        assert!(fit_gamma(&[3.0, 3.0, 3.0]).is_err());
    }

    #[test]
    fn normal_recovers_params() {
        let d = crate::dist::Normal::new(-3.0, 2.5).unwrap();
        let mut rng = SeedStream::new(305).rng("fit-norm");
        let xs = d.sample_n(&mut rng, 100_000);
        let f = fit_normal(&xs).unwrap();
        assert!((f.mu + 3.0).abs() < 0.03);
        assert!((f.sigma - 2.5).abs() < 0.03);
    }
}
