//! Property tests for the engine primitives: the count engine's weight
//! tree against a naive reference, RNG range invariants, geometric sampling, and the
//! configuration generators.

use proptest::prelude::*;
use ssr_engine::count::WeightTree;
use ssr_engine::init;
use ssr_engine::rng::{derive_seed, Xoshiro256};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The weight tree behaves exactly like a plain weight vector under
    /// an arbitrary sequence of set operations.
    #[test]
    fn weight_tree_matches_reference(
        len in 1usize..200,
        ops in prop::collection::vec((0usize..200, 0u64..1000), 1..100),
    ) {
        let mut f = WeightTree::new(len);
        let mut reference = vec![0u64; len];
        for (idx, w) in ops {
            let idx = idx % len;
            f.set(idx, w);
            reference[idx] = w;
        }
        prop_assert_eq!(f.total(), reference.iter().sum::<u64>());
        for (i, &w) in reference.iter().enumerate() {
            prop_assert_eq!(f.weight(i), w, "weight at {}", i);
        }
        // Every weighted slot is hit by sampling its range boundaries.
        let mut offset = 0u64;
        for (i, &w) in reference.iter().enumerate() {
            if w > 0 {
                prop_assert_eq!(f.sample(offset), i);
                prop_assert_eq!(f.sample(offset + w - 1), i);
                offset += w;
            }
        }
    }

    /// `below` stays in range for arbitrary bounds and seeds.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Derived seeds are collision-free over small index windows.
    #[test]
    fn derived_seeds_distinct(base in any::<u64>()) {
        let seeds: std::collections::HashSet<u64> =
            (0..64).map(|i| derive_seed(base, i)).collect();
        prop_assert_eq!(seeds.len(), 64);
    }

    /// Geometric samples are finite and their mean tracks (1-p)/p within
    /// loose statistical tolerance.
    #[test]
    fn geometric_mean_tracks(seed in any::<u64>(), pk in 1u32..50) {
        let p = pk as f64 / 100.0;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let trials = 4000;
        let mean = (0..trials).map(|_| rng.geometric(p) as f64).sum::<f64>()
            / trials as f64;
        let expected = (1.0 - p) / p;
        // 5 sigma of the geometric std over 4000 trials.
        let sigma = ((1.0 - p).sqrt() / p) / (trials as f64).sqrt();
        prop_assert!(
            (mean - expected).abs() < 5.0 * sigma + 0.05,
            "p={} mean={} expected={}", p, mean, expected
        );
    }

    /// Configuration helpers agree: counts/from_counts round-trip and the
    /// distance function counts exactly the unoccupied ranks.
    #[test]
    fn config_roundtrip(n in 1usize..300, s in 1usize..50, seed in any::<u64>()) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cfg = init::uniform_random(n, s, &mut rng);
        let counts = init::counts(&cfg, s);
        prop_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), n);
        let mut back = init::from_counts(&counts);
        let mut sorted = cfg.clone();
        sorted.sort_unstable();
        back.sort_unstable();
        prop_assert_eq!(back, sorted);
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(init::distance(&cfg, s), s - occupied);
    }
}
