//! Power-law regression for complexity-shape checks.
//!
//! The experiments verify claims like "`A_G` stabilises in `Θ(n²)`" or
//! "the tree protocol runs in `O(n log n)`" by fitting
//! `T(n) ≈ c · n^α` on log–log axes and comparing the estimated exponent
//! `α` with the theory. A polylog-corrected variant fits
//! `T(n) ≈ c · n^α · log^β n` for bounds that carry explicit log factors.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::regression::fit_power_law;
//!
//! let ns = [32.0, 64.0, 128.0, 256.0];
//! let ts: Vec<f64> = ns.iter().map(|n| 3.0 * n * n).collect();
//! let fit = fit_power_law(&ns, &ts);
//! assert!((fit.exponent - 2.0).abs() < 1e-9);
//! assert!(fit.r_squared > 0.999);
//! ```

/// Result of a least-squares fit `y = c · x^α` on log–log axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent `α`.
    pub exponent: f64,
    /// Estimated constant `c`.
    pub constant: f64,
    /// Coefficient of determination of the log–log fit.
    pub r_squared: f64,
}

impl PowerLawFit {
    /// Predicted value at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.constant * x.powf(self.exponent)
    }
}

/// Fit `y = c·x^α` by ordinary least squares on `(ln x, ln y)`.
///
/// # Panics
///
/// Panics if fewer than two points are given, lengths differ, or any value
/// is non-positive (logarithms must exist).
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> PowerLawFit {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    assert!(xs.len() >= 2, "need at least two points to fit");
    assert!(
        xs.iter().chain(ys.iter()).all(|&v| v > 0.0),
        "power-law fit requires positive data"
    );
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let (slope, intercept, r2) = linear_fit(&lx, &ly);
    PowerLawFit {
        exponent: slope,
        constant: intercept.exp(),
        r_squared: r2,
    }
}

/// Fit `y = c · x^α · (ln x)^β` with `β` fixed, by fitting a power law to
/// `y / (ln x)^β`. Useful to check, e.g., `O(n^{7/4} log² n)` shapes with
/// `β = 2`.
///
/// # Panics
///
/// As [`fit_power_law`]; additionally every `x` must exceed 1 so that
/// `ln x > 0`.
pub fn fit_power_law_with_polylog(xs: &[f64], ys: &[f64], beta: f64) -> PowerLawFit {
    assert!(
        xs.iter().all(|&x| x > 1.0),
        "polylog correction needs x > 1"
    );
    let adjusted: Vec<f64> = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| y / x.ln().powf(beta))
        .collect();
    fit_power_law(xs, &adjusted)
}

/// Ordinary least squares `y = a·x + b`; returns `(a, b, R²)`.
fn linear_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let intercept = my - slope * mx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        let ss_res: f64 = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| {
                let e = y - (slope * x + intercept);
                e * e
            })
            .sum();
        1.0 - ss_res / syy
    };
    (slope, intercept, r2)
}

/// Ratio table helper: successive `y[i+1]/y[i]` vs the ratio implied by a
/// target exponent — a quick "does doubling `n` quadruple `T`?" check.
pub fn doubling_ratios(xs: &[f64], ys: &[f64]) -> Vec<f64> {
    xs.windows(2)
        .zip(ys.windows(2))
        .map(|(xw, yw)| (yw[1] / yw[0]) / (xw[1] / xw[0]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        let xs: [f64; 4] = [10.0, 20.0, 40.0, 80.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x.powf(1.75)).collect();
        let fit = fit_power_law(&xs, &ys);
        assert!((fit.exponent - 1.75).abs() < 1e-9);
        assert!((fit.constant - 0.5).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.predict(100.0) - 0.5 * 100f64.powf(1.75)).abs() < 1e-6);
    }

    #[test]
    fn noisy_fit_reasonable() {
        let xs: Vec<f64> = (1..=8).map(|i| (i * 50) as f64).collect();
        let noise = [1.05, 0.93, 1.02, 0.97, 1.08, 0.95, 1.01, 0.99];
        let ys: Vec<f64> = xs.iter().zip(noise).map(|(x, w)| 2.0 * x * x * w).collect();
        let fit = fit_power_law(&xs, &ys);
        assert!((fit.exponent - 2.0).abs() < 0.1, "{}", fit.exponent);
        assert!(fit.r_squared > 0.99);
    }

    #[test]
    fn polylog_correction_removes_log_factor() {
        let xs: [f64; 5] = [64.0, 128.0, 256.0, 512.0, 1024.0];
        let ys: Vec<f64> = xs.iter().map(|&x| x * x.ln() * x.ln() * 7.0).collect();
        let plain = fit_power_law(&xs, &ys);
        let corrected = fit_power_law_with_polylog(&xs, &ys, 2.0);
        assert!(plain.exponent > 1.1, "log factors inflate the raw exponent");
        assert!((corrected.exponent - 1.0).abs() < 1e-9);
    }

    #[test]
    fn doubling_ratio_flat_for_matching_exponent() {
        let xs = [16.0, 32.0, 64.0];
        let ys: Vec<f64> = xs.iter().map(|x| x * x).collect();
        let r = doubling_ratios(&xs, &ys);
        assert_eq!(r.len(), 2);
        // y ratio 4 per x ratio 2 → normalised 2 (one factor of x left).
        assert!(r.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "positive data")]
    fn non_positive_rejected() {
        fit_power_law(&[1.0, 2.0], &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_rejected() {
        fit_power_law(&[1.0], &[1.0]);
    }
}
