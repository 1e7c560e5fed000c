//! Validate the simulators against the exact Markov chain.
//!
//! For small populations the full configuration space fits in memory, so
//! the expected stabilisation time can be computed *exactly* by solving
//! the first-step linear system — no randomness involved. This example
//! cross-checks both simulators' trial means against the exact values for
//! all four protocols: the strongest end-to-end correctness evidence in
//! the repository.
//!
//! Run with: `cargo run --release --example exact_validation`

use ssr::analysis::exact::expected_interactions;
use ssr::prelude::*;

fn simulated_mean<P: InteractionSchema>(p: &P, start: &[State], trials: u64) -> (f64, f64) {
    let times: Vec<f64> = (0..trials)
        .map(|t| {
            let mut sim = CountSimulation::new(p, start.to_vec(), 80_000 + t)
                .expect("valid start configuration")
                .with_batching(false);
            sim.run_until_silent(u64::MAX).expect("stable").interactions as f64
        })
        .collect();
    let s = Summary::of(&times);
    (s.mean, s.ci95_half_width())
}

fn check<P: InteractionSchema>(p: &P, start: Vec<State>) {
    let exact = expected_interactions(p, &start, 500_000).expect("state space within limits");
    let (mean, ci) = simulated_mean(p, &start, 30_000);
    let rel = (exact - mean).abs() / exact;
    println!(
        "{:<28} exact {:>10.3}   simulated {:>10.3} ± {:>6.3}   gap {:>6.3}% {}",
        p.name(),
        exact,
        mean,
        ci,
        rel * 100.0,
        if rel < 0.02 { "✓" } else { "✗" }
    );
}

fn main() {
    println!(
        "expected interactions to silence, exact (linear system over the \
         reachable configuration space) vs simulated (30k jump-chain \
         trials):\n"
    );
    check(&GenericRanking::new(5), vec![0; 5]);
    check(&GenericRanking::new(6), vec![3; 6]);
    check(&RingOfTraps::new(6), vec![0; 6]);
    check(&RingOfTraps::new(8), vec![7; 8]);
    check(&LineOfTraps::new(6), vec![6; 6]); // start in X
    check(&TreeRanking::with_buffer(5, 1), vec![0; 5]);
    println!(
        "\nagreement within the confidence interval on every line means the \
         jump-chain simulator realises exactly the paper's Markov chain."
    );
}
