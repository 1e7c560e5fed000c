//! Property-based tests for the extension layers: fault injection,
//! schedulers, the loose protocol's transition table, and the ECDF /
//! bootstrap analysis tools — invariants under arbitrary inputs.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;
use ssr::analysis::bootstrap::{bootstrap_ci, BootstrapOptions};
use ssr::analysis::ecdf::{Ecdf, Histogram};
use ssr::engine::faults::rank_distance;
use ssr::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault injection conserves the number of agents, never exceeds the
    /// requested damage, and records the `k`-distance it leaves, for
    /// arbitrary configurations.
    #[test]
    fn perturbation_conserves_population(
        config in prop::collection::vec(0u32..40, 2..40),
        faults in 0u32..30,
        seed in any::<u64>(),
    ) {
        let n = config.len();
        let config: Vec<State> = config.into_iter().map(|s| s % n as State).collect();
        let p = GenericRanking::new(n);
        let before = init::counts(&config, n);
        let make = move |_| config.clone();
        let mut e = Scenario::new(&p).init(Init::Custom(&make)).build_engine(0).unwrap();
        // A zero horizon fires the time-zero burst and nothing else.
        let out = run_with_plan(e.as_mut(), &FaultPlan::once(faults), seed, 0);
        let after = e.counts();
        prop_assert_eq!(after.iter().sum::<u32>(), n as u32);
        let moved: u32 = before.iter().zip(after).map(|(&b, &a)| b.abs_diff(a)).sum();
        prop_assert!(moved / 2 <= faults);
        prop_assert_eq!(out.faults_injected, u64::from(faults));
        let k = out.bursts.first().map_or(0, |b| b.k_after);
        prop_assert_eq!(k, rank_distance(after, n));
    }

    /// From a perfect ranking, `f` faults leave at most `f` rank states
    /// empty.
    #[test]
    fn fault_distance_bounded_by_faults(
        n in 2usize..60,
        faults in 0u32..20,
        seed in any::<u64>(),
    ) {
        let p = GenericRanking::new(n);
        let out = Scenario::new(&p)
            .init(Init::Perfect)
            .faults(faults)
            .max_interactions(0)
            .base_seed(seed)
            .run_outcome(0);
        let k = out.bursts.first().map_or(0, |b| b.k_after);
        prop_assert!(k <= (faults as usize).min(n));
    }

    /// Every scheduler yields ordered pairs of distinct in-range agents
    /// for arbitrary parameters.
    #[test]
    fn schedulers_yield_valid_pairs(
        n in 4usize..120,
        theta in 0.0f64..2.5,
        eps_pct in 1u32..100,
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let split = n / 2;
        let eps = f64::from(eps_pct) / 100.0;
        let mut uniform = UniformScheduler::new(n);
        let mut zipf = ZipfScheduler::new(n, theta);
        let mut clustered = ClusteredScheduler::new(n, split, eps);
        for _ in 0..200 {
            for (i, r) in [
                uniform.next_pair(&mut rng),
                zipf.next_pair(&mut rng),
                clustered.next_pair(&mut rng),
            ] {
                prop_assert!(i < n && r < n);
                prop_assert_ne!(i, r);
            }
        }
    }

    /// The loose protocol's transition table never returns identity
    /// rewrites and never leaves the state space, for any timer ceiling.
    #[test]
    fn loose_transitions_are_well_formed(n in 2usize..50, tau in 1u32..40) {
        let p = LooseLeaderElection::with_timer(n, tau);
        let s_total = p.num_states() as State;
        for a in 0..s_total {
            for b in 0..s_total {
                if let Some((a2, b2)) = p.transition(a, b) {
                    prop_assert!(a2 < s_total && b2 < s_total);
                    prop_assert!(a2 != a || b2 != b, "identity at ({}, {})", a, b);
                }
            }
        }
    }

    /// ECDF axioms: monotone, 0 below the minimum, 1 at the maximum,
    /// exceedance is the exact complement.
    #[test]
    fn ecdf_axioms(sample in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let e = Ecdf::new(sample.clone());
        let lo = e.values()[0];
        let hi = *e.values().last().unwrap();
        prop_assert_eq!(e.eval(lo - 1.0), 0.0);
        prop_assert_eq!(e.eval(hi), 1.0);
        let mut prev = 0.0;
        for &x in e.values() {
            let f = e.eval(x);
            prop_assert!(f >= prev);
            prop_assert!((f + e.exceedance(x) - 1.0).abs() < 1e-12);
            prev = f;
        }
    }

    /// The empirical quantile is a sample value and consistent with the
    /// CDF: `F(quantile(q)) ≥ q`.
    #[test]
    fn ecdf_quantile_consistency(
        sample in prop::collection::vec(-1e3f64..1e3, 1..50),
        q in 0.0f64..1.0,
    ) {
        let e = Ecdf::new(sample.clone());
        let v = e.quantile(q);
        prop_assert!(sample.contains(&v));
        prop_assert!(e.eval(v) >= q - 1e-12);
    }

    /// Histogram bins partition the sample: counts sum to the sample size
    /// and every value falls inside its bin's range.
    #[test]
    fn histogram_partitions_sample(
        sample in prop::collection::vec(-500.0f64..500.0, 1..80),
        bins in 1usize..12,
    ) {
        let h = Histogram::of(&sample, bins);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), sample.len() as u64);
        let (first_lo, _) = h.bin_range(0);
        let (_, last_hi) = h.bin_range(bins - 1);
        for &x in &sample {
            prop_assert!(x >= first_lo - 1e-9 && x <= last_hi + 1e-9);
        }
    }

    /// Bootstrap percentile intervals bracket both the point estimate and
    /// (for the mean statistic) stay inside the sample range.
    #[test]
    fn bootstrap_interval_brackets_point(
        sample in prop::collection::vec(-100.0f64..100.0, 2..40),
        seed in any::<u64>(),
    ) {
        let opts = BootstrapOptions { resamples: 200, seed, ..Default::default() };
        let ci = bootstrap_ci(&sample, |xs| xs.iter().sum::<f64>() / xs.len() as f64, &opts);
        prop_assert!(ci.lower <= ci.point + 1e-9);
        prop_assert!(ci.point <= ci.upper + 1e-9);
        let lo = sample.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = sample.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(ci.lower >= lo - 1e-9 && ci.upper <= hi + 1e-9);
    }
}

proptest! {
    // Simulation-backed properties get fewer cases to stay fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever faults are injected into a silent generic population, the
    /// jump simulator returns it to the unique silent configuration.
    #[test]
    fn recovery_always_restores_perfect_ranking(
        n in 4usize..40,
        faults in 1u32..12,
        seed in any::<u64>(),
    ) {
        let p = GenericRanking::new(n);
        let out = Scenario::new(&p)
            .init(Init::Perfect)
            .faults(faults)
            .base_seed(seed)
            .run_outcome(0);
        prop_assert!(out.silent);
        prop_assert!(out.bursts[0].k_after <= (faults as usize).min(n));
    }

    /// The generic protocol stabilises under arbitrary Zipf skew (time
    /// may inflate, correctness may not).
    #[test]
    fn generic_stabilises_under_any_zipf_skew(
        theta in 0.0f64..1.5,
        seed in any::<u64>(),
    ) {
        let n = 16;
        let p = GenericRanking::new(n);
        let mut sched = ZipfScheduler::new(n, theta);
        let mut sim = Simulation::new(&p, vec![0; n], seed).unwrap();
        sim.run_until_silent_scheduled(u64::MAX, &mut sched).unwrap();
        prop_assert!(init::is_perfect_ranking(sim.agents(), n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary mixed fault plan, Byzantine agents never
    /// update: pinned into state 0 by a stacked start, their mass stays
    /// in state 0 for any seed and horizon — background corruption and
    /// churn select victims from the non-Byzantine complement only —
    /// and churn replaces agents rather than removing them, so the
    /// population total is conserved exactly.
    #[test]
    fn byzantine_mass_is_invariant_and_churn_conserves_population(
        n in 8usize..40,
        byz in 1u32..5,
        horizon_pt in 10u64..120,
        seed in any::<u64>(),
    ) {
        let p = GenericRanking::new(n);
        let plan = FaultPlan::new()
            .byzantine(byz)
            .churn(0.002)
            .rate(0.002);
        let mut e = make_engine(EngineKind::Jump, &p, vec![0; n], seed, 1).unwrap();
        let out = run_with_plan(e.as_mut(), &plan, seed ^ 0xAD17, horizon_pt * n as u64);
        prop_assert!(e.counts()[0] >= byz);
        prop_assert_eq!(e.counts().iter().map(|&c| u64::from(c)).sum::<u64>(), n as u64);
        prop_assert!((0.0..=1.0).contains(&out.availability));
        prop_assert!(out.mean_k <= out.max_k as f64);
    }
}
