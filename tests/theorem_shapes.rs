//! Cheap complexity-shape checks that run in the normal test suite
//! (the full-scale versions live in the `ssr-bench` experiment binaries).
//! These guard against regressions that would silently destroy the
//! paper's separations.

use ssr::prelude::*;

fn median_time<P: InteractionSchema + Sync>(p: &P, trials: usize, seed: u64) -> f64 {
    let res = Scenario::new(p)
        .init(Init::Uniform)
        .trials(trials)
        .base_seed(seed)
        .run();
    Summary::of(&res.parallel_times()).median
}

/// Theorem 3's separation: at moderate n the tree protocol must already
/// beat the Θ(n²) baseline by a wide margin.
#[test]
fn tree_beats_baseline_by_a_wide_margin() {
    let n = 512;
    let t_tree = median_time(&TreeRanking::new(n), 8, 1);
    let t_ag = median_time(&GenericRanking::new(n), 8, 2);
    assert!(
        t_ag > 10.0 * t_tree,
        "expected ≥10x separation at n={n}: A_G {t_ag:.0} vs tree {t_tree:.0}"
    );
}

/// Theorem 1's selling point: recovering from 1 fault is much cheaper
/// than ranking from an arbitrary configuration.
#[test]
fn small_k_recovery_beats_arbitrary_start() {
    let n = 506;
    let p = RingOfTraps::new(n);
    let kd = Scenario::new(&p)
        .init(Init::KDistant(1))
        .trials(8)
        .base_seed(3)
        .run();
    let t_k1 = Summary::of(&kd.parallel_times()).median;
    let t_arb = median_time(&p, 8, 4);
    assert!(
        t_arb > 2.0 * t_k1,
        "1-distant {t_k1:.0} should beat arbitrary {t_arb:.0} clearly"
    );
}

/// A_G doubling check: quadrupling work per doubled n (ratio in [2.8, 5.5]
/// leaves room for noise at these sizes).
#[test]
fn baseline_is_quadratic_shaped() {
    let t256 = median_time(&GenericRanking::new(256), 8, 5);
    let t512 = median_time(&GenericRanking::new(512), 8, 6);
    let ratio = t512 / t256;
    assert!(
        (2.8..5.5).contains(&ratio),
        "doubling n should ~4x the time, got {ratio:.2}"
    );
}

/// Tree doubling check: near-linear growth (ratio ≈ 2, well below 3).
#[test]
fn tree_is_near_linear_shaped() {
    let t1k = median_time(&TreeRanking::new(1024), 8, 7);
    let t2k = median_time(&TreeRanking::new(2048), 8, 8);
    let ratio = t2k / t1k;
    assert!(
        (1.5..3.0).contains(&ratio),
        "doubling n should ~2x the time, got {ratio:.2}"
    );
}

/// Theorem 2's direction: the line protocol beats A_G at n = 960.
#[test]
fn line_beats_baseline_at_moderate_n() {
    let n = 960;
    let t_line = median_time(&LineOfTraps::new(n), 6, 9);
    let t_ag = median_time(&GenericRanking::new(n), 6, 10);
    assert!(
        t_line < t_ag,
        "line {t_line:.0} should already beat A_G {t_ag:.0} at n={n}"
    );
}
