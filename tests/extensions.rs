//! Integration tests for the extension layers: exhaustive model checking,
//! fault-recovery reporting, non-uniform schedulers, loose stabilisation,
//! and the distributional analysis toolkit — exercised together through
//! the umbrella `ssr` crate, the way a downstream user would.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::analysis::bootstrap::{median_ci, BootstrapOptions};
use ssr::analysis::modelcheck::ModelCheckError;
use ssr::engine::faults::rank_distance;
use ssr::prelude::*;

// ---------------------------------------------------------------------
// Model checking across the whole protocol family.
// ---------------------------------------------------------------------

#[test]
fn every_protocol_family_member_is_certified_stable() {
    let limit = 3_000_000;
    let gen = GenericRanking::new(6);
    let ring = RingOfTraps::new(6);
    let line = LineOfTraps::new(6);
    let tree = TreeRanking::with_buffer(5, 2);

    for (name, cert) in [
        ("generic", verify_stability(&gen, limit).unwrap()),
        ("ring", verify_stability(&ring, limit).unwrap()),
        ("line", verify_stability(&line, limit).unwrap()),
        ("tree", verify_stability(&tree, limit).unwrap()),
    ] {
        assert_eq!(
            cert.silent_configurations, 1,
            "{name}: the perfect ranking must be the unique silent config"
        );
        assert!(cert.configurations > 1, "{name}");
    }
}

#[test]
fn model_checker_counts_the_full_multiset_space() {
    // C(n + S - 1, n) for A_G with n = S = 6: C(11, 6) = 462.
    let cert = verify_stability(&GenericRanking::new(6), 10_000).unwrap();
    assert_eq!(cert.configurations, 462);
}

#[test]
fn loose_protocol_fails_silence_checks_as_documented() {
    // The loose protocol is *not* a ranking protocol: the model checker
    // must reject it (its "perfect ranking" — all states distinct — is
    // not silent because timers keep churning).
    let p = LooseLeaderElection::with_timer(4, 2);
    let err = verify_stability(&p, 100_000).unwrap_err();
    assert!(matches!(
        err,
        ModelCheckError::PerfectRankingNotSilent | ModelCheckError::SilentNotRanked { .. }
    ));
}

// ---------------------------------------------------------------------
// Fault recovery across protocols.
// ---------------------------------------------------------------------

#[test]
fn all_protocols_recover_from_fault_bursts() {
    let n = 36;
    let gen = GenericRanking::new(n);
    let ring = RingOfTraps::new(n);
    let tree = TreeRanking::new(n);
    for f in [1u32, 5, 18] {
        for (name, outcome) in [
            ("generic", recover(&gen, f, 7)),
            ("ring", recover(&ring, f, 7)),
            ("tree", recover(&tree, f, 7)),
        ] {
            assert!(outcome.silent, "{name}");
            assert_eq!(outcome.faults_injected, u64::from(f), "{name}");
            assert!(outcome.bursts[0].k_after <= f as usize, "{name}");
        }
    }
}

/// Corrupt a silent ranking with `faults` faults at time zero and run
/// trial 0 to silence.
fn recover<P: InteractionSchema + Sync>(p: &P, faults: u32, seed: u64) -> RunOutcome {
    Scenario::new(p)
        .init(Init::Perfect)
        .faults(faults)
        .base_seed(seed)
        .run_outcome(0)
}

#[test]
fn fault_distance_matches_paper_k_distance_definition() {
    // Build an explicitly k-distant configuration and cross-check the
    // faults module's distance against init::distance.
    let n = 24;
    let mut rng = Xoshiro256::seed_from_u64(3);
    for k in [0usize, 1, 5, 12] {
        let cfg = init::k_distant(
            n,
            k,
            ssr::engine::init::DuplicatePlacement::Random,
            &mut rng,
        );
        let counts = init::counts(&cfg, n);
        assert_eq!(rank_distance(&counts, n), k);
        assert_eq!(init::distance(&cfg, n), k);
    }
}

// ---------------------------------------------------------------------
// Scheduler robustness: correctness is scheduler-independent.
// ---------------------------------------------------------------------

fn stabilises_under<S: Scheduler>(p: &dyn Protocol, mut sched: S, seed: u64) {
    let n = p.population_size();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let start = init::uniform_random(n, p.num_states(), &mut rng);
    let mut sim = Simulation::new(p, start, seed).unwrap();
    sim.run_until_silent_scheduled(u64::MAX, &mut sched)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", p.name(), sched.describe()));
    assert!(init::is_perfect_ranking(sim.agents(), n));
}

#[test]
fn generic_stabilises_under_skewed_schedulers() {
    let p = GenericRanking::new(24);
    stabilises_under(&p, ZipfScheduler::new(24, 1.0), 11);
    stabilises_under(&p, ClusteredScheduler::new(24, 12, 0.05), 12);
}

#[test]
fn ring_stabilises_under_skewed_schedulers() {
    let p = RingOfTraps::new(24);
    stabilises_under(&p, ZipfScheduler::new(24, 0.8), 13);
    stabilises_under(&p, ClusteredScheduler::new(24, 8, 0.1), 14);
}

#[test]
fn tree_stabilises_under_skewed_schedulers() {
    let p = TreeRanking::new(48);
    stabilises_under(&p, ZipfScheduler::new(48, 1.0), 15);
    stabilises_under(&p, ClusteredScheduler::new(48, 24, 0.05), 16);
}

#[test]
fn uniform_scheduler_trait_matches_builtin_loop() {
    // `UniformScheduler::next_pair` is `rng.ordered_pair(n)`, the draw
    // `Simulation::step` makes, so the scheduler-driven loop and the
    // engine's own run loop walk the identical trajectory per seed.
    let p = GenericRanking::new(12);
    for seed in 500..520 {
        let mut builtin = Simulation::new(&p, vec![0; 12], seed).unwrap();
        let mut scheduled = Simulation::new(&p, vec![0; 12], seed).unwrap();
        let a = builtin.run_until_silent(u64::MAX).unwrap();
        let b = scheduled
            .run_until_silent_scheduled(u64::MAX, &mut UniformScheduler::new(12))
            .unwrap();
        assert_eq!(a, b, "seed {seed}");
        assert_eq!(builtin.agents(), scheduled.agents(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Loose stabilisation composed with the other extensions.
// ---------------------------------------------------------------------

#[test]
fn loose_election_converges_under_clustered_scheduler() {
    let n = 40;
    let p = LooseLeaderElection::new(n);
    let mut sched = ClusteredScheduler::new(n, n / 2, 0.1);
    let mut sim = Simulation::new(&p, vec![p.leader_state(); n], 21).unwrap();
    let cap = 5_000_000u64;
    while p.leader_count(sim.counts()) != 1 {
        assert!(sim.interactions() < cap, "no convergence under clustering");
        for _ in 0..64 {
            sim.step_scheduled(&mut sched);
        }
    }
}

#[test]
fn loose_election_survives_fault_bursts() {
    let n = 40;
    let p = LooseLeaderElection::new(n);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut sim = Simulation::new(&p, vec![p.timer_max(); n], 23).unwrap();
    for _ in 0..3 {
        sim.run_for(2_000 * n as u64);
        for _ in 0..n / 4 {
            let victim = rng.below_usize(n);
            let garbage = rng.below(p.num_states() as u64) as State;
            sim.inject_fault(victim, garbage);
        }
    }
    // After the last burst the protocol must re-converge to one leader.
    let cap = sim.interactions() + 50_000_000;
    while p.leader_count(sim.counts()) != 1 {
        assert!(sim.interactions() < cap, "no re-convergence after faults");
        sim.run_for(64);
    }
}

// ---------------------------------------------------------------------
// Distributional toolkit on real trial data.
// ---------------------------------------------------------------------

#[test]
fn ecdf_and_bootstrap_summarise_real_stabilisation_times() {
    let p = TreeRanking::new(32);
    let times: Vec<f64> = (0..60u64)
        .map(|s| {
            let mut sim = CountSimulation::new(&p, vec![0; 32], 700 + s)
                .unwrap()
                .with_batching(false);
            sim.run_until_silent(u64::MAX).unwrap().parallel_time
        })
        .collect();

    let ecdf = Ecdf::new(times.clone());
    // The median must sit where half the mass is.
    let med = ecdf.quantile(0.5);
    assert!((ecdf.eval(med) - 0.5).abs() <= 0.5 / 60.0 + 1e-12);
    // whp reading: the p99 exceedance is at most 1 - 0.99.
    assert!(ecdf.exceedance(ecdf.quantile(0.99)) <= 0.011);

    let ci = median_ci(&times, &BootstrapOptions::default());
    assert!(
        ci.contains(med),
        "bootstrap CI must cover the sample median"
    );
    assert!(
        ci.half_width() < med,
        "CI should be informative at 60 trials"
    );
}

#[test]
fn jump_and_naive_recovery_times_agree_distributionally() {
    // Fault recovery through the jump engine must match the naive engine
    // in distribution (KS) under the same fault plan: both scenarios
    // derive the same per-trial fault seeds, so every trial starts its
    // recovery from the same k-distant landscape.
    let p = GenericRanking::new(24);
    let times = |kind| -> Vec<f64> {
        Scenario::new(&p)
            .engine(kind)
            .init(Init::Perfect)
            .faults(6)
            .base_seed(40_000)
            .trials(120)
            .run_outcomes()
            .iter()
            .map(|o| o.report.parallel_time)
            .collect()
    };
    let jump = times(EngineKind::Jump);
    let naive = times(EngineKind::Naive);
    let ks = ssr::analysis::ks_two_sample(&jump, &naive);
    assert!(
        ks.p_value > 0.01,
        "jump vs naive recovery distributions differ: D = {:.3}, p = {:.4}",
        ks.statistic,
        ks.p_value
    );
}
