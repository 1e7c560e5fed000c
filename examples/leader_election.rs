//! Self-stabilising leader election with transient-fault recovery.
//!
//! Ranking solves leader election: the agent that stabilises in rank 0 is
//! the leader. Because the protocols are *self-stabilising*, the system
//! re-elects after arbitrary state corruption — we demonstrate by zapping
//! a third of the population mid-run and watching it recover.
//!
//! Run with: `cargo run --release --example leader_election`

// Audited: example casts a tiny bounded f64 value to usize.
#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 120;
    let protocol = RingOfTraps::new(n);
    let mut rng = Xoshiro256::seed_from_u64(2025);

    // Phase 1: elect from an arbitrary k-distant configuration.
    let start = init::k_distant(n, 17, init::DuplicatePlacement::Random, &mut rng);
    let outcome = elect_leader(&protocol, start, 7, u64::MAX)?;
    println!(
        "elected agent #{} as leader after parallel time {:.0}",
        outcome.leader, outcome.report.parallel_time
    );

    // Phase 2: transient faults — corrupt 40 random agents, then watch the
    // protocol silently re-rank (and hence re-elect) without intervention.
    let mut sim = Simulation::new(&protocol, init::perfect_ranking(n), 99)?;
    assert!(sim.is_silent(), "perfect ranking is silent");

    for _ in 0..40 {
        let victim = rng.below_usize(n);
        let garbage = rng.below(n as u64) as State;
        sim.inject_fault(victim, garbage);
    }
    let distance = init::distance(sim.agents(), n);
    println!("injected faults: configuration is now {distance}-distant");

    let report = sim.run_until_silent(u64::MAX)?;
    let leader = sim
        .agents()
        .iter()
        .position(|&s| s == LEADER_RANK)
        .expect("silent ranking has a rank-0 agent");
    println!(
        "recovered in parallel time {:.0}; leader is agent #{leader}",
        report.parallel_time
    );
    assert!(init::is_perfect_ranking(sim.agents(), n));

    // Phase 3: safety — once silent, nothing ever changes again.
    let before = sim.agents().to_vec();
    sim.run_for(100_000);
    assert_eq!(before, sim.agents(), "silent configurations are stable");
    println!("stability check passed: 100k further interactions changed nothing");
    Ok(())
}
