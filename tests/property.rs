//! Property-based tests (proptest) over the whole stack: configuration
//! generators, layout bijections, conservation laws, and the Lemma 5/10
//! machinery under arbitrary inputs.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use proptest::prelude::*;
use ssr::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `k_distant` produces configurations at exactly distance `k`.
    #[test]
    fn k_distant_generator_is_exact(n in 2usize..200, seed in any::<u64>(), kf in 0.0f64..1.0) {
        let k = ((n - 1) as f64 * kf) as usize;
        let mut rng = Xoshiro256::seed_from_u64(seed);
        for placement in [
            init::DuplicatePlacement::Random,
            init::DuplicatePlacement::Stacked,
            init::DuplicatePlacement::SpreadLow,
        ] {
            let cfg = init::k_distant(n, k, placement, &mut rng);
            prop_assert_eq!(cfg.len(), n);
            prop_assert_eq!(init::distance(&cfg, n), k);
        }
    }

    /// Ring layout: every state id belongs to exactly one (trap, offset),
    /// and the transition function conserves agents and stays in range.
    #[test]
    fn ring_layout_and_rules_are_total(n in 2usize..300) {
        let p = RingOfTraps::new(n);
        let chain = p.chain();
        prop_assert_eq!(chain.num_states(), n);
        for s in 0..n as State {
            let (t, b) = chain.locate(s);
            prop_assert_eq!(chain.state(t, b), s);
            if let Some((a, b2)) = p.transition(s, s) {
                prop_assert!((a as usize) < n);
                prop_assert!((b2 as usize) < n);
            }
        }
    }

    /// Line layout: states partition into lines; transitions stay in range.
    #[test]
    fn line_layout_and_rules_are_total(n in 3usize..400) {
        let p = LineOfTraps::new(n);
        let mut seen = vec![false; n];
        for l in 0..p.num_lines() {
            let chain = p.line(l);
            for id in chain.base_id()..chain.end_id() {
                prop_assert!(!seen[id as usize], "state {} in two lines", id);
                seen[id as usize] = true;
                prop_assert_eq!(p.line_of(id), l);
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        let x = p.x_state();
        for s in 0..n as State {
            for pair in [(s, s), (s, x)] {
                if let Some((a, b)) = p.transition(pair.0, pair.1) {
                    prop_assert!((a as usize) <= n);
                    prop_assert!((b as usize) <= n);
                }
            }
        }
    }

    /// Lemma 10 identity on arbitrary configurations (rank + X mixed).
    #[test]
    fn lemma10_identity(n in 6usize..250, seed in any::<u64>()) {
        let p = LineOfTraps::new(n);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cfg = init::uniform_random(n, n + 1, &mut rng);
        let counts = init::counts(&cfg, n + 1);
        prop_assert_eq!(p.surplus(&counts), p.deficit(&counts));
        prop_assert!(p.surplus(&counts) <= p.tokens(&counts));
    }

    /// Tree of ranks: pre-order ids form a bijection and R1's arithmetic
    /// lands on real children; dispersal flow conserves agents.
    #[test]
    fn tree_flow_conserves_agents(n in 1usize..300, seed in any::<u64>()) {
        let p = TreeRanking::new(n);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cfg = init::uniform_random(n, Protocol::num_states(&p), &mut rng);
        let counts = init::counts(&cfg, Protocol::num_states(&p));
        let settled = p.dispersal_flow(&counts);
        prop_assert_eq!(settled.iter().sum::<u64>(), n as u64);
    }

    /// Agent conservation along real trajectories for every protocol.
    #[test]
    fn simulation_conserves_agents(n in 4usize..40, seed in any::<u64>()) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let p = TreeRanking::new(n);
        let cfg = init::uniform_random(n, Protocol::num_states(&p), &mut rng);
        let mut sim = Simulation::new(&p, cfg, seed).unwrap();
        for _ in 0..2_000 {
            sim.step();
        }
        let total: u32 = sim.counts().iter().sum();
        prop_assert_eq!(total as usize, n);
    }

    /// The jump simulator's interaction clock dominates its productive
    /// count and both simulators agree silence = perfect ranking.
    #[test]
    fn jump_clock_dominates(n in 4usize..40, seed in any::<u64>()) {
        let p = GenericRanking::new(n);
        let mut sim = CountSimulation::new(&p, vec![0; n], seed).unwrap().with_batching(false);
        let rep = sim.run_until_silent(u64::MAX).unwrap();
        prop_assert!(rep.interactions >= rep.productive_interactions);
        prop_assert!(sim.counts().iter().all(|&c| c == 1));
    }

    /// Balanced trees: kinds by parity, heights bounded, preorder bijective.
    #[test]
    fn balanced_tree_invariants(n in 1usize..2000) {
        let t = BalancedTree::new(n);
        prop_assert!(t.validate().is_ok());
        if n >= 2 {
            prop_assert!((t.height() as f64) <= 2.0 * (n as f64).log2() + 1e-9);
        }
    }

    /// Routing graphs: connected for all sizes, simple cubic for even ≥ 8.
    #[test]
    fn routing_graph_invariants(v in 1usize..600) {
        let g = CubicGraph::routing_graph(v);
        prop_assert!(g.is_connected());
        if v >= 8 && v % 2 == 0 {
            prop_assert!(g.is_three_regular());
        }
    }
}
