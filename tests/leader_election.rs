//! Leader election built on ranking: liveness, uniqueness, and recovery
//! from transient faults — for every protocol.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::prelude::*;

#[test]
fn every_protocol_elects_exactly_one_leader() {
    let mut rng = Xoshiro256::seed_from_u64(3);
    let n = 36;
    let generic = GenericRanking::new(n);
    let ring = RingOfTraps::new(n);
    let line = LineOfTraps::new(n);
    let tree = TreeRanking::new(n);
    let protos: Vec<&dyn Protocol> = vec![&generic, &ring, &line, &tree];
    for p in protos {
        let cfg = init::uniform_random(n, p.num_states(), &mut rng);
        let out =
            elect_leader(p, cfg, 21, u64::MAX).unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        assert!(out.leader < n, "{}", p.name());
    }
}

#[test]
fn repeated_fault_injection_always_recovers() {
    let n = 40;
    let p = RingOfTraps::new(n);
    let mut rng = Xoshiro256::seed_from_u64(7);
    let mut sim = Simulation::new(&p, init::perfect_ranking(n), 5).unwrap();
    for round in 0..8 {
        // Corrupt a random subset.
        let faults = 1 + rng.below_usize(n / 2);
        for _ in 0..faults {
            let victim = rng.below_usize(n);
            let garbage = rng.below(n as u64) as State;
            sim.inject_fault(victim, garbage);
        }
        sim.run_until_silent(u64::MAX)
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(
            init::is_perfect_ranking(sim.agents(), n),
            "round {round}: bad ranking"
        );
        let leaders = sim.agents().iter().filter(|&&s| s == LEADER_RANK).count();
        assert_eq!(leaders, 1, "round {round}: {leaders} leaders");
    }
}

#[test]
fn leadership_is_stable_once_elected() {
    let n = 25;
    let p = TreeRanking::new(n);
    let out = elect_leader(&p, vec![0; n], 9, u64::MAX).unwrap();
    // Re-run the exact same seed: determinism pins the same leader.
    let out2 = elect_leader(&p, vec![0; n], 9, u64::MAX).unwrap();
    assert_eq!(out.leader, out2.leader);
    assert_eq!(out.report.interactions, out2.report.interactions);
}

#[test]
fn minimal_state_space_claim_holds() {
    // The paper's context: self-stabilising leader election needs ≥ n
    // states. Our state-optimal protocols use exactly n; the near-optimal
    // ones add 1 and O(log n).
    let n = 100;
    assert_eq!(Protocol::num_states(&GenericRanking::new(n)), n);
    assert_eq!(Protocol::num_states(&RingOfTraps::new(n)), n);
    assert_eq!(Protocol::num_states(&LineOfTraps::new(n)), n + 1);
    let tree = TreeRanking::new(n);
    let extras = Protocol::num_extra_states(&tree);
    assert!(extras >= 2 && extras <= 8 * ((n as f64).log2().ceil() as usize));
}
