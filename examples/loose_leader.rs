//! Loose vs silent leader election: the state/holding-time trade-off.
//!
//! The paper's silent protocols need at least `n` states but hold their
//! leader forever. The loose-stabilisation alternative (related work)
//! squeezes into `O(log n)` states by renting the leadership instead of
//! owning it: after convergence the unique leader survives only until a
//! follower's timer spuriously drains. This example runs both side by
//! side on the same population.
//!
//! Run: `cargo run --release --example loose_leader`

use ssr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    println!("== leader election with n = {n} agents ==\n");

    // Silent: the tree-of-ranks protocol (n ranks + O(log n) extras).
    let tree = TreeRanking::new(n);
    let mut rng = Xoshiro256::seed_from_u64(2);
    let start = init::uniform_random(n, tree.num_states(), &mut rng);
    let mut sim = Simulation::new(&tree, start, 3)?;
    let report = sim.run_until_silent(u64::MAX)?;
    println!(
        "tree protocol  : {} states, leader elected at parallel time {:.0}, \
         held FOREVER (silent configuration is absorbing)",
        tree.num_states(),
        report.parallel_time
    );

    // Loose convergence: O(log n) states total, from an arbitrary start,
    // with the default (comfortably logarithmic) timer ceiling.
    let loose = LooseLeaderElection::new(n);
    let start = init::uniform_random(n, loose.num_states(), &mut rng);
    let mut sim = Simulation::new(&loose, start, 5)?;
    while loose.leader_count(sim.counts()) != 1 {
        sim.run_for(64);
    }
    println!(
        "loose (τ = {:>2}) : {} states, leader elected at parallel time {:.0}, \
         held only until some follower's timer drains",
        loose.timer_max(),
        loose.num_states(),
        sim.parallel_time()
    );

    // The lease length: start each τ from the canonical converged
    // configuration (one leader, all timers full) and wait for the first
    // disturbance (a spurious second leader).
    println!("\nleadership lease vs timer ceiling τ (same n):");
    for tau in [4u32, 8, 16] {
        let loose = LooseLeaderElection::with_timer(n, tau);
        let mut start = vec![loose.timer_max(); n];
        start[0] = loose.leader_state();
        let mut sim = Simulation::new(&loose, start, 11)?;
        let budget = 20_000_000u64;
        let mut lost_at = None;
        while sim.interactions() < budget {
            sim.run_for(64);
            if loose.leader_count(sim.counts()) != 1 {
                lost_at = Some(sim.parallel_time());
                break;
            }
        }
        let hold = match lost_at {
            Some(t) => format!("lease lost after parallel time {t:.0}"),
            None => format!(
                "lease survived the whole budget (parallel time {:.0})",
                budget / n as u64
            ),
        };
        println!("  τ = {tau:>2} ({} states): {hold}", loose.num_states());
    }

    println!(
        "\nthe lease length explodes with τ — loose stabilisation trades the \
         paper's ≥ n-state requirement for finite (but tunable) leadership."
    );
    Ok(())
}
