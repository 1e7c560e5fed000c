//! Pluggable interaction schedulers (robustness extension).
//!
//! The paper's model fixes the *uniform* random scheduler: every ordered
//! pair of distinct agents is equally likely in every step. The
//! correctness of the protocols, however, only relies on the scheduler
//! being "fair enough" — every pair keeps a positive probability — while
//! the *time bounds* are proved for the uniform case. This module makes
//! the scheduler a first-class, swappable component so that robustness to
//! scheduler skew can be measured (experiment ES in `exp_schedulers`):
//!
//! * [`UniformScheduler`] — the paper's model (identical in distribution
//!   to the built-in [`crate::sim::Simulation`] loop);
//! * [`ZipfScheduler`] — agents are picked with Zipf-like weights
//!   `w_i ∝ 1/(i+1)^θ`, modelling heterogeneous contact rates (some
//!   agents meet others far more often);
//! * [`ClusteredScheduler`] — the population is split into two blocks and
//!   cross-block pairs fire with probability `ε`, modelling a weakly
//!   connected two-community contact graph.
//!
//! Every scheduler must return **ordered pairs of distinct agents** and
//! give every pair positive probability; [`validate_scheduler`] spot-checks
//! both requirements empirically. Non-uniform schedulers preserve
//! stabilisation (silence is a property of the configuration alone) but
//! stretch time — by how much is exactly what the experiment measures.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::schedule::{Scheduler, ZipfScheduler};
//! use ssr_engine::rng::Xoshiro256;
//!
//! let mut sched = ZipfScheduler::new(10, 1.0);
//! let mut rng = Xoshiro256::seed_from_u64(1);
//! let (i, r) = sched.next_pair(&mut rng);
//! assert_ne!(i, r);
//! ```

use crate::rng::Xoshiro256;

/// A source of ordered (initiator, responder) agent pairs.
///
/// Implementations must return pairs of **distinct** indices in
/// `0..population` and should give every ordered pair positive
/// probability, otherwise stabilisation from some configurations can be
/// lost entirely (cf. the self-loop routing ablation in EXPERIMENTS.md).
pub trait Scheduler {
    /// Population size this scheduler draws from.
    fn population(&self) -> usize;

    /// Draw the next ordered pair using the provided RNG.
    fn next_pair(&mut self, rng: &mut Xoshiro256) -> (usize, usize);

    /// Short human-readable description for reports.
    fn describe(&self) -> String;
}

/// The paper's uniform random scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformScheduler {
    n: usize,
}

impl UniformScheduler {
    /// Uniform scheduler over `n ≥ 2` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "need at least two agents");
        UniformScheduler { n }
    }
}

impl Scheduler for UniformScheduler {
    fn population(&self) -> usize {
        self.n
    }

    fn next_pair(&mut self, rng: &mut Xoshiro256) -> (usize, usize) {
        rng.ordered_pair(self.n)
    }

    fn describe(&self) -> String {
        "uniform".into()
    }
}

/// Zipf-weighted scheduler: agent `i` is drawn with probability
/// proportional to `1/(i+1)^θ`, independently for the initiator and the
/// responder (rejecting equal picks). `θ = 0` recovers the uniform
/// scheduler; larger `θ` concentrates interactions on low-index agents.
///
/// Draws use a Walker/Vose **alias table**: O(n) construction, O(1) per
/// draw — the scheduler sits in the inner loop of every scheduled
/// interaction, where the previous CDF binary search cost O(log n).
#[derive(Debug, Clone)]
pub struct ZipfScheduler {
    /// Per-slot acceptance probability (Vose `prob` array).
    prob: Vec<f64>,
    /// Per-slot alias target when the acceptance test fails.
    alias: Vec<u32>,
    theta: f64,
}

impl ZipfScheduler {
    /// Zipf scheduler over `n ≥ 2` agents with skew exponent `θ ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `θ` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 2, "need at least two agents");
        assert!(theta >= 0.0 && theta.is_finite(), "invalid skew exponent");
        assert!(
            n <= u32::MAX as usize,
            "population too large for alias table"
        );
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        // Vose's method: scale to mean 1, then pair each under-full slot
        // with an over-full donor.
        let scale = n as f64 / total;
        let mut prob: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::with_capacity(n);
        let mut large: Vec<u32> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s as usize] = l;
            // The donor gives away (1 − prob[s]) of its mass.
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Numerical leftovers are full slots.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        ZipfScheduler { prob, alias, theta }
    }

    #[inline]
    fn draw(&self, rng: &mut Xoshiro256) -> usize {
        let i = rng.below_usize(self.prob.len());
        if rng.unit_f64() < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

impl Scheduler for ZipfScheduler {
    fn population(&self) -> usize {
        self.prob.len()
    }

    fn next_pair(&mut self, rng: &mut Xoshiro256) -> (usize, usize) {
        let i = self.draw(rng);
        loop {
            let r = self.draw(rng);
            if r != i {
                return (i, r);
            }
        }
    }

    fn describe(&self) -> String {
        format!("zipf(θ = {})", self.theta)
    }
}

/// Two-community scheduler: agents `0..split` form block A, the rest
/// block B; with probability `ε` the pair crosses blocks (one endpoint
/// uniform in each block, order random), otherwise it is uniform within a
/// block chosen proportionally to the number of ordered pairs it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredScheduler {
    n: usize,
    split: usize,
    epsilon: f64,
}

impl ClusteredScheduler {
    /// Clustered scheduler with blocks `0..split` and `split..n` and
    /// cross-block probability `ε ∈ (0, 1]`.
    ///
    /// `ε` must be strictly positive: with `ε = 0` the blocks never talk
    /// and ranking (which needs global coordination) becomes unsolvable.
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ split ≤ n − 2` and `0 < ε ≤ 1`.
    pub fn new(n: usize, split: usize, epsilon: f64) -> Self {
        assert!(split >= 2 && n >= split + 2, "each block needs ≥ 2 agents");
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "cross-block probability must be in (0, 1]"
        );
        ClusteredScheduler { n, split, epsilon }
    }
}

impl Scheduler for ClusteredScheduler {
    fn population(&self) -> usize {
        self.n
    }

    fn next_pair(&mut self, rng: &mut Xoshiro256) -> (usize, usize) {
        if rng.unit_f64() < self.epsilon {
            let a = rng.below_usize(self.split);
            let b = self.split + rng.below_usize(self.n - self.split);
            if rng.next_u64() & 1 == 0 {
                (a, b)
            } else {
                (b, a)
            }
        } else {
            let a_pairs = (self.split * (self.split - 1)) as u64;
            let rest = self.n - self.split;
            let b_pairs = (rest * (rest - 1)) as u64;
            if rng.below(a_pairs + b_pairs) < a_pairs {
                let (i, r) = rng.ordered_pair(self.split);
                (i, r)
            } else {
                let (i, r) = rng.ordered_pair(rest);
                (self.split + i, self.split + r)
            }
        }
    }

    fn describe(&self) -> String {
        format!("clustered(split = {}, ε = {})", self.split, self.epsilon)
    }
}

/// Empirically validate a scheduler: draws `samples` pairs and checks that
/// (a) all pairs are ordered pairs of distinct in-range agents, and
/// (b) every **agent** appears at least once as initiator and as responder
/// (a cheap positive-probability proxy; full pair coverage would need
/// `Ω(n²)` samples).
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_scheduler<S: Scheduler>(
    sched: &mut S,
    rng: &mut Xoshiro256,
    samples: u64,
) -> Result<(), String> {
    let n = sched.population();
    let mut seen_i = vec![false; n];
    let mut seen_r = vec![false; n];
    for _ in 0..samples {
        let (i, r) = sched.next_pair(rng);
        if i >= n || r >= n {
            return Err(format!("pair ({i},{r}) out of range for n = {n}"));
        }
        if i == r {
            return Err(format!("self-pair ({i},{i}) drawn"));
        }
        seen_i[i] = true;
        seen_r[r] = true;
    }
    if let Some(a) = (0..n).find(|&a| !seen_i[a]) {
        return Err(format!("agent {a} never drawn as initiator"));
    }
    if let Some(a) = (0..n).find(|&a| !seen_r[a]) {
        return Err(format!("agent {a} never drawn as responder"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(42)
    }

    #[test]
    fn uniform_matches_builtin_distribution() {
        // Chi-square-style sanity: all n(n−1) ordered pairs roughly equal.
        let n = 6;
        let mut sched = UniformScheduler::new(n);
        let mut r = rng();
        let mut counts = vec![0u32; n * n];
        let samples = 300_000;
        for _ in 0..samples {
            let (i, j) = sched.next_pair(&mut r);
            counts[i * n + j] += 1;
        }
        let expected = samples as f64 / (n * (n - 1)) as f64;
        for i in 0..n {
            for j in 0..n {
                let c = counts[i * n + j] as f64;
                if i == j {
                    assert_eq!(c, 0.0);
                } else {
                    assert!(
                        (c - expected).abs() < 0.05 * expected,
                        "pair ({i},{j}): {c} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let n = 5;
        let mut sched = ZipfScheduler::new(n, 0.0);
        let mut r = rng();
        let mut init_counts = vec![0u32; n];
        for _ in 0..100_000 {
            let (i, _) = sched.next_pair(&mut r);
            init_counts[i] += 1;
        }
        let expected = 100_000.0 / n as f64;
        for (a, &c) in init_counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected,
                "agent {a}: {c}"
            );
        }
    }

    #[test]
    fn zipf_alias_table_matches_exact_distribution() {
        // The alias table must reproduce the w_i ∝ 1/(i+1)^θ marginals
        // exactly (up to sampling noise), not just the ordering.
        let n = 12;
        let theta = 1.3;
        let sched = ZipfScheduler::new(n, theta);
        let mut r = rng();
        let samples = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..samples {
            counts[sched.draw(&mut r)] += 1;
        }
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expected = samples as f64 * weights[i] / total;
            assert!(
                (c as f64 - expected).abs() < 0.05 * expected + 50.0,
                "agent {i}: {c} vs ~{expected:.0}"
            );
        }
    }

    #[test]
    fn zipf_skews_toward_low_indices() {
        let n = 20;
        let mut sched = ZipfScheduler::new(n, 1.5);
        let mut r = rng();
        let mut init_counts = vec![0u64; n];
        for _ in 0..200_000 {
            let (i, _) = sched.next_pair(&mut r);
            init_counts[i] += 1;
        }
        assert!(init_counts[0] > 10 * init_counts[n - 1]);
    }

    #[test]
    fn clustered_cross_rate_matches_epsilon() {
        let n = 20;
        let split = 10;
        let eps = 0.05;
        let mut sched = ClusteredScheduler::new(n, split, eps);
        let mut r = rng();
        let mut cross = 0u64;
        let samples = 400_000;
        for _ in 0..samples {
            let (i, j) = sched.next_pair(&mut r);
            if (i < split) != (j < split) {
                cross += 1;
            }
        }
        let rate = cross as f64 / samples as f64;
        assert!((rate - eps).abs() < 0.01, "cross rate {rate}");
    }

    #[test]
    fn clustered_cross_pairs_cover_both_orders() {
        let mut sched = ClusteredScheduler::new(6, 3, 1.0);
        let mut r = rng();
        let (mut ab, mut ba) = (false, false);
        for _ in 0..1_000 {
            let (i, j) = sched.next_pair(&mut r);
            if i < 3 && j >= 3 {
                ab = true;
            }
            if i >= 3 && j < 3 {
                ba = true;
            }
        }
        assert!(ab && ba, "both orders of cross pairs must occur");
    }

    #[test]
    fn all_schedulers_pass_validation() {
        let mut r = rng();
        validate_scheduler(&mut UniformScheduler::new(8), &mut r, 20_000).unwrap();
        validate_scheduler(&mut ZipfScheduler::new(8, 1.0), &mut r, 60_000).unwrap();
        validate_scheduler(&mut ClusteredScheduler::new(8, 4, 0.2), &mut r, 20_000).unwrap();
    }

    #[test]
    fn validation_catches_self_pairs() {
        struct Selfish;
        impl Scheduler for Selfish {
            fn population(&self) -> usize {
                4
            }
            fn next_pair(&mut self, _rng: &mut Xoshiro256) -> (usize, usize) {
                (2, 2)
            }
            fn describe(&self) -> String {
                "selfish".into()
            }
        }
        let err = validate_scheduler(&mut Selfish, &mut rng(), 10).unwrap_err();
        assert!(err.contains("self-pair"));
    }

    #[test]
    fn validation_catches_starved_agents() {
        struct FirstTwo;
        impl Scheduler for FirstTwo {
            fn population(&self) -> usize {
                5
            }
            fn next_pair(&mut self, rng: &mut Xoshiro256) -> (usize, usize) {
                let (i, r) = rng.ordered_pair(2);
                (i, r)
            }
            fn describe(&self) -> String {
                "first-two".into()
            }
        }
        let err = validate_scheduler(&mut FirstTwo, &mut rng(), 1_000).unwrap_err();
        assert!(err.contains("never drawn"));
    }

    #[test]
    #[should_panic(expected = "cross-block probability")]
    fn clustered_rejects_zero_epsilon() {
        ClusteredScheduler::new(8, 4, 0.0);
    }

    #[test]
    fn descriptions_are_informative() {
        assert_eq!(UniformScheduler::new(4).describe(), "uniform");
        assert!(ZipfScheduler::new(4, 1.0).describe().contains("zipf"));
        assert!(ClusteredScheduler::new(8, 4, 0.5)
            .describe()
            .contains("clustered"));
    }
}
