//! Deterministic, dependency-free random number generation for the hot
//! simulation loop.
//!
//! The simulators draw billions of scheduler choices; we use a local
//! [Xoshiro256++][xo] generator seeded through SplitMix64 so that every
//! experiment is exactly reproducible from a single `u64` seed, independent
//! of external crate versions.
//!
//! [xo]: https://prng.di.unimi.it/
//!
//! # Examples
//!
//! ```
//! use ssr_engine::rng::Xoshiro256;
//!
//! let mut rng = Xoshiro256::seed_from_u64(42);
//! let a = rng.next_u64();
//! let b = rng.below(10);
//! assert!(b < 10);
//! let mut rng2 = Xoshiro256::seed_from_u64(42);
//! assert_eq!(rng2.next_u64(), a);
//! ```

/// SplitMix64 step: used to expand a single `u64` seed into generator state
/// and to derive independent per-trial seeds.
///
/// # Examples
///
/// ```
/// let s = ssr_engine::rng::split_mix64(&mut 1);
/// assert_ne!(s, 0);
/// ```
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed for trial `index` from a base experiment seed.
///
/// Distinct `(base, index)` pairs yield statistically independent streams,
/// so parallel trials never share randomness.
///
/// # Examples
///
/// ```
/// let a = ssr_engine::rng::derive_seed(7, 0);
/// let b = ssr_engine::rng::derive_seed(7, 1);
/// assert_ne!(a, b);
/// ```
#[inline]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ 0xA076_1D64_78BD_642F;
    let _ = split_mix64(&mut s);
    let mut s2 = s ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    split_mix64(&mut s2)
}

/// Largest trial count at which [`Xoshiro256::binomial`] is exact: at or
/// below it a binomial counts `n` Bernoulli trials, one uniform each. The
/// count engine's multinomial splitter (`classes::split::chain_split`)
/// switches at the same bound: at or below it, `k` draws cost `k`
/// uniforms by placing each draw directly, so the two regimes stay
/// aligned.
pub(crate) const BERNOULLI_MAX_N: u64 = 64;

/// Xoshiro256++ pseudo-random generator.
///
/// Fast (sub-nanosecond per draw), 256 bits of state, passes BigCrush.
/// Not cryptographically secure — this is a simulation RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator from a 64-bit seed via SplitMix64 expansion.
    ///
    /// # Examples
    ///
    /// ```
    /// use ssr_engine::rng::Xoshiro256;
    /// let mut rng = Xoshiro256::seed_from_u64(0);
    /// assert_ne!(rng.next_u64(), rng.next_u64());
    /// ```
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = split_mix64(&mut sm);
        }
        // An all-zero state is a fixed point of the transition; the SplitMix
        // expansion cannot produce it, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// The raw 256-bit generator state, for snapshot wire serialisation
    /// ([`crate::wire`]). Restoring via [`from_state`](Self::from_state)
    /// continues the stream exactly.
    pub(crate) fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a previously captured
    /// [`state`](Self::state). The all-zero state is a fixed point of the
    /// transition and cannot be produced by a live generator; map it to
    /// the seed-0 guard state rather than propagating a stuck stream.
    pub(crate) fn from_state(s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            return Xoshiro256 {
                s: [0x9E37_79B9_7F4A_7C15, 0, 0, 0],
            };
        }
        Xoshiro256 { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)` as `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// An ordered pair of distinct indices `(initiator, responder)`,
    /// uniform over all `n(n-1)` ordered pairs.
    ///
    /// This is exactly the paper's random scheduler draw.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[inline]
    pub fn ordered_pair(&mut self, n: usize) -> (usize, usize) {
        debug_assert!(n >= 2, "ordered_pair requires n >= 2");
        let i = self.below(n as u64) as usize;
        let mut r = self.below((n - 1) as u64) as usize;
        if r >= i {
            r += 1;
        }
        (i, r)
    }

    /// Number of consecutive failures before the first success of a
    /// Bernoulli(`p`) process (a geometric variate with support `{0,1,...}`).
    ///
    /// Used by the fault executor to draw the gaps between background
    /// fault and churn events. `p` is clamped to `(0, 1]`; `p >= 1` always
    /// returns 0.
    /// Saturates at `u64::MAX`; callers whose mean `(1-p)/p` can approach
    /// that (the count engine near silence at `n ≥ 2³¹`) must use
    /// [`geometric_wide`](Self::geometric_wide) instead.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        let k = self.geometric_wide(p);
        if k >= u64::MAX as u128 {
            u64::MAX
        } else {
            k as u64
        }
    }

    /// Full-width [`geometric`](Self::geometric) variate. Identical RNG
    /// consumption (one uniform), but returned at `u128` width so draws
    /// beyond `u64::MAX` stay exact instead of saturating.
    #[inline]
    pub fn geometric_wide(&mut self, p: f64) -> u128 {
        if p >= 1.0 {
            return 0;
        }
        debug_assert!(p > 0.0, "geometric_wide() requires p > 0");
        // floor(ln(1-U) / ln(1-p)); ln_1p keeps precision for small p.
        let u = self.unit_f64();
        let num = (-u).ln_1p(); // ln(1-u) <= 0
        let den = (-p).ln_1p(); // ln(1-p) <  0
        let k = num / den;
        // Below 2⁶³ the hardware `f64 → u64` conversion truncates exactly
        // as `f64 → u128` does, without the latter's soft-float call; this
        // is the count engine's clock draw, almost always small.
        if k < (1u64 << 63) as f64 {
            k as u64 as u128
        } else if k >= u128::MAX as f64 {
            u128::MAX
        } else {
            k as u128
        }
    }

    /// Standard normal variate (Marsaglia polar method).
    ///
    /// Used by the count-batched simulator's large-count approximations;
    /// two uniforms are consumed per accepted pair and the spare deviate is
    /// **not** cached, so the draw count stays a deterministic function of
    /// the acceptance sequence.
    #[inline]
    pub fn gaussian(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.unit_f64() - 1.0;
            let v = 2.0 * self.unit_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Poisson(λ) variate.
    ///
    /// Knuth's product method below λ = 30 (exact), a continuity-corrected
    /// normal approximation above (relative error `O(1/√λ)`, negligible for
    /// the batched simulator's gap accounting).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        debug_assert!(lambda >= 0.0 && lambda.is_finite());
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let mut k = 0u64;
            let mut product = self.unit_f64();
            while product > limit {
                k += 1;
                product *= self.unit_f64();
            }
            k
        } else {
            let x = lambda + lambda.sqrt() * self.gaussian() + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }

    /// Binomial(n, p) variate.
    ///
    /// Exact Bernoulli counting for small `n`, Poisson approximation in the
    /// rare-event tails, and a clamped normal approximation in the central
    /// regime. The result is always in `[0, n]`, so splitting a batch of
    /// `n` events between two classes conserves the batch exactly.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        debug_assert!((0.0..=1.0).contains(&p), "binomial p out of range");
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        // Symmetry: sample the rarer outcome for accuracy.
        if p > 0.5 {
            return n - self.binomial(n, 1.0 - p);
        }
        let nf = n as f64;
        let mean = nf * p;
        if n <= BERNOULLI_MAX_N {
            return (0..n).filter(|_| self.unit_f64() < p).count() as u64;
        }
        if mean < 20.0 {
            // Rare events: Binomial(n, p) ≈ Poisson(np).
            return self.poisson(mean).min(n);
        }
        let sd = (mean * (1.0 - p)).sqrt();
        let x = mean + sd * self.gaussian() + 0.5;
        if x < 0.0 {
            0
        } else {
            (x as u64).min(n)
        }
    }

    /// Negative binomial: total number of failures accumulated before the
    /// `k`-th success of a Bernoulli(`p`) process — i.e. the sum of `k`
    /// independent [`geometric`](Self::geometric) variates.
    ///
    /// Exact geometric summation for small `k`, clamped normal
    /// approximation (mean `k(1−p)/p`, variance `k(1−p)/p²`) for large `k`.
    /// The batched simulator uses this to account for all null interactions
    /// across a whole batch of productive steps in O(1). Saturates at
    /// `u64::MAX`; use [`neg_binomial_wide`](Self::neg_binomial_wide) when
    /// the mean can approach that.
    pub fn neg_binomial(&mut self, k: u64, p: f64) -> u64 {
        let x = self.neg_binomial_wide(k, p);
        if x >= u64::MAX as u128 {
            u64::MAX
        } else {
            x as u64
        }
    }

    /// Full-width [`neg_binomial`](Self::neg_binomial) variate. Identical
    /// RNG consumption, but summed and returned at `u128` width so neither
    /// the per-geometric draws nor their sum saturate below `u128::MAX`.
    pub fn neg_binomial_wide(&mut self, k: u64, p: f64) -> u128 {
        if k == 0 || p >= 1.0 {
            return 0;
        }
        debug_assert!(p > 0.0, "neg_binomial_wide requires p > 0");
        if k <= 16 {
            return (0..k).fold(0u128, |acc, _| acc.saturating_add(self.geometric_wide(p)));
        }
        let kf = k as f64;
        let mean = kf * (1.0 - p) / p;
        let sd = (kf * (1.0 - p)).sqrt() / p;
        let x = mean + sd * self.gaussian() + 0.5;
        if x < 0.0 {
            0
        } else if x >= u128::MAX as f64 {
            u128::MAX
        } else {
            x as u128
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below((i + 1) as u64) as usize;
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct values from `0..n` (order unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        if k * 4 >= n {
            // Dense regime: partial Fisher–Yates.
            let mut all: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.below((n - i) as u64) as usize;
                all.swap(i, j);
            }
            all.truncate(k);
            all
        } else {
            // Sparse regime: rejection with a hash set.
            // lint:allow(D002): membership-only — `seen` gates inserts
            // and is never iterated; output order comes from the RNG.
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let v = self.below(n as u64) as usize;
                if seen.insert(v) {
                    out.push(v);
                }
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seed_from_u64(123);
        let mut b = Xoshiro256::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            buckets[v as usize] += 1;
        }
        for &b in &buckets {
            // Expected 10_000 per bucket; allow 10% slack.
            assert!((9_000..=11_000).contains(&b), "bucket count {b}");
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ordered_pair_distinct_and_uniform() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let n = 5;
        let mut counts = vec![0u32; n * n];
        for _ in 0..200_000 {
            let (i, r) = rng.ordered_pair(n);
            assert_ne!(i, r);
            counts[i * n + r] += 1;
        }
        let expected = 200_000 / (n * n - n);
        for i in 0..n {
            for r in 0..n {
                if i == r {
                    assert_eq!(counts[i * n + r], 0);
                } else {
                    let c = counts[i * n + r] as i64;
                    assert!(
                        (c - expected as i64).abs() < expected as i64 / 5,
                        "pair ({i},{r}) count {c}, expected ~{expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        let p = 0.01;
        let trials = 50_000;
        let total: u64 = (0..trials).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / trials as f64;
        let expected = (1.0 - p) / p; // 99
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean}, expected {expected}"
        );
    }

    #[test]
    fn geometric_wide_exceeds_u64_without_wrapping() {
        // With p this small the mean (1-p)/p ≈ 1e30 dwarfs u64::MAX, so
        // essentially every draw lands beyond the narrow sampler's range.
        let p = 1e-30;
        let mut wide_rng = Xoshiro256::seed_from_u64(7);
        let mut saw_beyond_u64 = false;
        for _ in 0..64 {
            let k = wide_rng.geometric_wide(p);
            assert!(k < u128::MAX, "draw saturated the wide sampler");
            if k > u64::MAX as u128 {
                saw_beyond_u64 = true;
            }
        }
        assert!(saw_beyond_u64, "no draw exceeded u64::MAX at p = 1e-30");
        // The narrow sampler consumes the same stream and saturates
        // instead of wrapping.
        let mut wide_rng = Xoshiro256::seed_from_u64(7);
        let mut narrow_rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..64 {
            let k = wide_rng.geometric_wide(p);
            let expect = if k >= u64::MAX as u128 {
                u64::MAX
            } else {
                k as u64
            };
            assert_eq!(narrow_rng.geometric(p), expect);
        }
    }

    #[test]
    fn neg_binomial_wide_sums_past_u64() {
        // Small-k branch: 16 geometric draws each ≈ 1e30 sum well past
        // u64::MAX but nowhere near u128::MAX.
        let p = 1e-30;
        let mut rng = Xoshiro256::seed_from_u64(31);
        let x = rng.neg_binomial_wide(16, p);
        assert!(x > u64::MAX as u128);
        assert!(x < u128::MAX);
        let mut check = Xoshiro256::seed_from_u64(31);
        let sum = (0..16).fold(0u128, |acc, _| acc + check.geometric_wide(p));
        assert_eq!(x, sum);
        // The narrow variant saturates on the same stream.
        let mut narrow = Xoshiro256::seed_from_u64(31);
        assert_eq!(narrow.neg_binomial(16, p), u64::MAX);
    }

    #[test]
    fn geometric_certain_success_is_zero() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        assert_eq!(rng.geometric(1.0), 0);
        assert_eq!(rng.geometric(2.0), 0);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let n = 100_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.gaussian();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn poisson_mean_small_and_large_lambda() {
        let mut rng = Xoshiro256::seed_from_u64(22);
        for &lambda in &[0.5, 4.0, 25.0, 200.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.05 + 0.05,
                "λ={lambda}: mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn binomial_mean_all_regimes() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        // (n, p) covering exact, Poisson-tail, normal and symmetry paths.
        for &(n, p) in &[(10u64, 0.3), (1000, 0.001), (1000, 0.4), (1000, 0.9)] {
            let trials = 20_000;
            let mut total = 0u64;
            for _ in 0..trials {
                let k = rng.binomial(n, p);
                assert!(k <= n);
                total += k;
            }
            let mean = total as f64 / trials as f64;
            let expected = n as f64 * p;
            assert!(
                (mean - expected).abs() < (expected.max(1.0)) * 0.05 + 0.1,
                "n={n} p={p}: mean {mean} vs {expected}"
            );
        }
        assert_eq!(rng.binomial(100, 0.0), 0);
        assert_eq!(rng.binomial(100, 1.0), 100);
    }

    #[test]
    fn neg_binomial_mean_matches_geometric_sum() {
        let mut rng = Xoshiro256::seed_from_u64(24);
        for &(k, p) in &[(4u64, 0.2), (100, 0.05), (1000, 0.5)] {
            let trials = 5_000;
            let mean: f64 = (0..trials)
                .map(|_| rng.neg_binomial(k, p) as f64)
                .sum::<f64>()
                / trials as f64;
            let expected = k as f64 * (1.0 - p) / p;
            assert!(
                (mean - expected).abs() < expected * 0.08 + 0.5,
                "k={k} p={p}: mean {mean} vs {expected}"
            );
        }
        assert_eq!(rng.neg_binomial(0, 0.3), 0);
        assert_eq!(rng.neg_binomial(5, 1.0), 0);
    }

    #[test]
    fn sample_distinct_both_regimes() {
        let mut rng = Xoshiro256::seed_from_u64(19);
        for &(n, k) in &[(10usize, 10usize), (10, 3), (1000, 5), (1000, 900)] {
            let s = rng.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "values must be distinct");
            assert!(s.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn derive_seed_spreads() {
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|i| derive_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
