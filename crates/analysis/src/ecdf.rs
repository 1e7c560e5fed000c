//! Empirical distribution functions and histograms.
//!
//! The paper's "whp" statements are statements about the *upper tail* of
//! the stabilisation-time distribution, not about its mean. [`Ecdf`] keeps
//! the whole empirical distribution of a trial batch so tails, quantiles
//! and exceedance probabilities can be read off directly, and
//! [`Histogram`] renders a compact fixed-width ASCII view for the
//! experiment binaries' convergence sections.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::ecdf::Ecdf;
//!
//! let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
//! assert_eq!(e.eval(2.5), 0.5);      // half the sample is ≤ 2.5
//! assert_eq!(e.exceedance(3.5), 0.25);
//! assert_eq!(e.quantile(0.0), 1.0);
//! ```

/// An empirical cumulative distribution function over a finite sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build the ECDF of a sample (sorted internally).
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(
            !sample.is_empty(),
            "cannot build an ECDF of an empty sample"
        );
        assert!(sample.iter().all(|x| !x.is_nan()), "sample contains NaN");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: sample }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true by construction; provided
    /// for `len`/`is_empty` symmetry).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample values.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// `F̂(x)` — the fraction of the sample that is `≤ x`.
    pub fn eval(&self, x: f64) -> f64 {
        let k = self.sorted.partition_point(|&v| v <= x);
        k as f64 / self.sorted.len() as f64
    }

    /// `P̂(X > x)` — the empirical exceedance (tail) probability, the
    /// quantity a "whp" bound caps.
    pub fn exceedance(&self, x: f64) -> f64 {
        1.0 - self.eval(x)
    }

    /// The empirical `q`-quantile (inverse CDF, lower interpolation):
    /// the smallest sample value `v` with `F̂(v) ≥ q`; `q = 0` returns the
    /// minimum.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if q == 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let k = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// Maximum absolute difference to another ECDF evaluated over the
    /// union of sample points (the two-sample Kolmogorov–Smirnov
    /// statistic; see [`crate::ks`] for the significance test).
    pub fn ks_distance(&self, other: &Ecdf) -> f64 {
        let mut d: f64 = 0.0;
        for &x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(x) - other.eval(x)).abs());
        }
        d
    }
}

/// A fixed-width histogram with an ASCII rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Histogram of `sample` over `bins` equal-width bins spanning the
    /// sample range (degenerate samples get a single-point bin).
    ///
    /// # Panics
    ///
    /// Panics if `sample` is empty, contains NaN, or `bins == 0`.
    pub fn of(sample: &[f64], bins: usize) -> Self {
        assert!(!sample.is_empty(), "cannot bin an empty sample");
        assert!(bins > 0, "need at least one bin");
        assert!(sample.iter().all(|x| !x.is_nan()), "sample contains NaN");
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let width = if hi > lo {
            (hi - lo) / bins as f64
        } else {
            1.0
        };
        let mut counts = vec![0u64; bins];
        for &x in sample {
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        Histogram {
            lo,
            width,
            bins: counts,
            total: sample.len() as u64,
        }
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// The `[lo, hi)` range of bin `i` (the last bin is closed).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin index out of range");
        let lo = self.lo + self.width * i as f64;
        (lo, lo + self.width)
    }

    /// Render as fixed-width ASCII rows `lo..hi | ####### count`.
    pub fn render(&self, bar_width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(1).max(1);
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let bar = "#".repeat(((c as f64 / max as f64) * bar_width as f64).round() as usize);
            out.push_str(&format!(
                "{lo:>12.1} .. {hi:>12.1} | {bar:<bar_width$} {c}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_step_values() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn exceedance_complements_cdf() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        for x in [0.0, 1.5, 2.0, 9.0] {
            assert!((e.eval(x) + e.exceedance(x) - 1.0).abs() < 1e-15);
        }
    }

    #[test]
    fn quantiles_hit_order_statistics() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.5), 20.0);
        assert_eq!(e.quantile(0.75), 30.0);
        assert_eq!(e.quantile(1.0), 40.0);
    }

    #[test]
    fn ks_distance_zero_on_self_one_on_disjoint() {
        let a = Ecdf::new(vec![1.0, 2.0, 3.0]);
        let b = Ecdf::new(vec![100.0, 200.0]);
        assert_eq!(a.ks_distance(&a), 0.0);
        assert_eq!(a.ks_distance(&b), 1.0);
        assert_eq!(b.ks_distance(&a), 1.0);
    }

    #[test]
    fn histogram_counts_sum_to_sample_size() {
        let sample: Vec<f64> = (0..97).map(|i| i as f64).collect();
        let h = Histogram::of(&sample, 10);
        assert_eq!(h.counts().iter().sum::<u64>(), 97);
        assert_eq!(h.counts().len(), 10);
    }

    #[test]
    fn histogram_degenerate_sample() {
        let h = Histogram::of(&[5.0, 5.0, 5.0], 4);
        assert_eq!(h.counts()[0], 3);
        let (lo, hi) = h.bin_range(0);
        assert!(lo <= 5.0 && hi > 5.0);
    }

    #[test]
    fn histogram_renders_all_bins() {
        let h = Histogram::of(&[1.0, 2.0, 3.0, 3.0], 3);
        let s = h.render(20);
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn ecdf_rejects_empty() {
        Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        Histogram::of(&[1.0, f64::NAN], 2);
    }
}
