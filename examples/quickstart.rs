//! Quickstart: self-stabilising ranking with the tree protocol.
//!
//! Builds the `O(n log n)` tree-of-ranks protocol for 500 agents, starts
//! from the worst imaginable configuration (everyone stacked in one
//! state), runs to silence, and prints the outcome.
//!
//! Run with: `cargo run --release --example quickstart`

use ssr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 500;
    let protocol = TreeRanking::new(n);

    println!(
        "protocol: {} — {} rank states + {} extra states",
        protocol.name(),
        protocol.num_rank_states(),
        protocol.num_extra_states()
    );

    // Adversarial start: all agents in rank state 0.
    let start = vec![0; n];
    let mut sim = CountSimulation::new(&protocol, start, 42)?.with_batching(false);
    let report = sim.run_until_silent(u64::MAX)?;

    assert!(sim.is_silent());
    println!(
        "self-stabilised: {} interactions  |  parallel time {:.1}  |  {} productive",
        report.interactions, report.parallel_time, report.productive_interactions
    );

    // Every rank state now hosts exactly one agent.
    let perfectly_ranked = sim.counts()[..n].iter().all(|&c| c == 1);
    println!("perfect ranking: {perfectly_ranked}");

    // Parallel time should be near n·log n, far below the Θ(n²) baseline.
    let nlogn = n as f64 * (n as f64).log2();
    println!(
        "parallel time / (n log₂ n) = {:.2}   (n² would be {:.0}× larger)",
        report.parallel_time / nlogn,
        n as f64 / (n as f64).log2()
    );
    Ok(())
}
