//! Fault-tolerance campaign: transient corruption injected *mid-convergence*
//! (not just at silent configurations) never prevents eventual silent
//! ranking — the defining property of self-stabilisation.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;

fn campaign<P: Protocol>(p: &P, seed: u64, bursts: usize) {
    let n = p.population_size();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let start = init::uniform_random(n, p.num_states(), &mut rng);
    let mut sim = Simulation::new(p, start, seed ^ 0xF00D).unwrap();

    for burst in 0..bursts {
        // Let the protocol make partial progress (well short of silence).
        sim.run_for((n as u64) * 50);
        // Corrupt a random subset mid-flight, including into extra states.
        let faults = 1 + rng.below_usize(n / 3 + 1);
        for _ in 0..faults {
            let victim = rng.below_usize(n);
            let garbage = rng.below(p.num_states() as u64) as State;
            sim.inject_fault(victim, garbage);
        }
        let _ = burst;
    }
    sim.run_until_silent(u64::MAX)
        .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
    assert!(
        init::is_perfect_ranking(sim.agents(), n),
        "{}: final configuration is not a perfect ranking",
        p.name()
    );
    assert!(sim.verify_silent(), "{}", p.name());
}

#[test]
fn generic_survives_mid_convergence_faults() {
    campaign(&GenericRanking::new(40), 1, 5);
}

#[test]
fn ring_survives_mid_convergence_faults() {
    campaign(&RingOfTraps::new(40), 2, 5);
}

#[test]
fn line_survives_mid_convergence_faults() {
    campaign(&LineOfTraps::new(40), 3, 5);
}

#[test]
fn tree_survives_mid_convergence_faults() {
    campaign(&TreeRanking::new(40), 4, 5);
}

/// Corrupting *every* agent simultaneously (total state loss) is just
/// another arbitrary configuration: recovery must still happen.
#[test]
fn total_corruption_is_recoverable() {
    let n = 30;
    let protos: Vec<Box<dyn Protocol>> = vec![
        Box::new(GenericRanking::new(n)),
        Box::new(RingOfTraps::new(n)),
        Box::new(LineOfTraps::new(n)),
        Box::new(TreeRanking::new(n)),
    ];
    let mut rng = Xoshiro256::seed_from_u64(99);
    for p in &protos {
        let mut sim = Simulation::new(p.as_ref(), init::perfect_ranking(n), 7).unwrap();
        assert!(sim.is_silent());
        for agent in 0..n {
            let garbage = rng.below(p.num_states() as u64) as State;
            sim.inject_fault(agent, garbage);
        }
        sim.run_until_silent(u64::MAX)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert!(init::is_perfect_ranking(sim.agents(), n), "{}", p.name());
    }
}

/// Snapshot-branching: a trajectory interrupted by faults and one left
/// alone both stabilise; the unperturbed branch replays deterministically.
#[test]
fn snapshot_branching_with_faults() {
    let n = 24;
    let p = TreeRanking::new(n);
    let mut sim = Simulation::new(&p, vec![0; n], 11).unwrap();
    sim.run_for(500);
    let snap = sim.snapshot();

    // Branch 1: undisturbed.
    let rep1 = sim.run_until_silent(u64::MAX).unwrap();

    // Branch 2: restore, inject faults, still stabilises.
    sim.restore(&snap);
    sim.inject_fault(0, p.x(1));
    sim.inject_fault(1, p.x(p.buffer_half() * 2));
    sim.run_until_silent(u64::MAX).unwrap();
    assert!(init::is_perfect_ranking(sim.agents(), n));

    // Branch 3: restore again, replay branch 1 exactly.
    sim.restore(&snap);
    let rep3 = sim.run_until_silent(u64::MAX).unwrap();
    assert_eq!(rep1.interactions, rep3.interactions);
}
