//! The generic state-optimal ranking protocol `A_G` (paper §1, §2).
//!
//! State space `{0, …, n−1}`, single rule family
//!
//! ```text
//! i + i → i + (i + 1 mod n)
//! ```
//!
//! — when two agents share state `i` the responder moves to the cyclic
//! successor. `A_G` is the only previously known state-optimal
//! self-stabilising ranking protocol; it stabilises silently in `Θ(n²)`
//! parallel time whp and serves as the baseline every new protocol in the
//! paper is measured against.
//!
//! # Examples
//!
//! ```
//! use ssr_core::generic::GenericRanking;
//! use ssr_engine::{CountSimulation, Engine, Protocol};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = GenericRanking::new(50);
//! assert_eq!(p.transition(7, 7), Some((7, 8)));
//! assert_eq!(p.transition(49, 49), Some((49, 0)));
//! let mut sim = CountSimulation::new(&p, vec![0; 50], 1)?.with_batching(false);
//! sim.run_until_silent(u64::MAX)?;
//! assert!(sim.counts().iter().all(|&c| c == 1));
//! # Ok(())
//! # }
//! ```

use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};

/// The baseline protocol `A_G` for a population of `n` agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenericRanking {
    n: usize,
}

impl GenericRanking {
    /// Build `A_G` for population size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        GenericRanking { n }
    }
}

impl Protocol for GenericRanking {
    fn name(&self) -> &str {
        "generic (A_G)"
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn num_states(&self) -> usize {
        self.n
    }

    fn num_rank_states(&self) -> usize {
        self.n
    }

    #[inline]
    fn transition(&self, initiator: State, responder: State) -> Option<(State, State)> {
        if initiator == responder && self.n > 1 {
            let next = if responder as usize + 1 == self.n {
                0
            } else {
                responder + 1
            };
            Some((initiator, next))
        } else {
            None
        }
    }
}

impl InteractionSchema for GenericRanking {
    /// One class: the single rule is an equal-rank rule at every state.
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        vec![ClassSpec::equal_rank()]
    }

    fn equal_rank_rule(&self, _s: State) -> bool {
        self.n > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::init;
    use ssr_engine::protocol::validate_ranking_contract;
    use ssr_engine::rng::Xoshiro256;
    use ssr_engine::{CountSimulation, Engine, Simulation};

    #[test]
    fn contract_holds() {
        for n in [1usize, 2, 3, 10, 31] {
            validate_ranking_contract(&GenericRanking::new(n))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn rule_wraps_modulo_n() {
        let p = GenericRanking::new(5);
        assert_eq!(p.transition(4, 4), Some((4, 0)));
        assert_eq!(p.transition(0, 0), Some((0, 1)));
        assert_eq!(p.transition(0, 1), None);
    }

    #[test]
    fn stabilises_from_random_starts() {
        let mut rng = Xoshiro256::seed_from_u64(4);
        for n in [2usize, 5, 16, 40] {
            let p = GenericRanking::new(n);
            for trial in 0..5 {
                let cfg = init::uniform_random(n, n, &mut rng);
                let mut sim = CountSimulation::new(&p, cfg, trial)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX).unwrap();
                assert!(sim.counts().iter().all(|&c| c == 1), "n={n}");
            }
        }
    }

    #[test]
    fn naive_simulation_agrees_on_silence() {
        let p = GenericRanking::new(12);
        let mut sim = Simulation::new(&p, vec![5; 12], 9).unwrap();
        sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.verify_silent());
        assert!(init::is_perfect_ranking(sim.agents(), 12));
    }

    #[test]
    fn quadratic_shape_sanity() {
        // Mean stabilisation time from the all-in-zero start should grow
        // roughly like n² (within a generous factor window at tiny sizes).
        let mean_time = |n: usize| -> f64 {
            let p = GenericRanking::new(n);
            let trials = 10;
            let total: f64 = (0..trials)
                .map(|t| {
                    let mut s = CountSimulation::new(&p, vec![0; n], 100 + t)
                        .unwrap()
                        .with_batching(false);
                    s.run_until_silent(u64::MAX).unwrap().parallel_time
                })
                .sum();
            total / trials as f64
        };
        let t32 = mean_time(32);
        let t64 = mean_time(64);
        let ratio = t64 / t32;
        assert!(
            (2.0..9.0).contains(&ratio),
            "doubling n should ~quadruple time, got ratio {ratio:.2}"
        );
    }

    #[test]
    fn single_agent_population_is_trivially_silent() {
        let p = GenericRanking::new(1);
        assert_eq!(p.transition(0, 0), None);
    }
}
