//! Loosely-stabilising leader election with `O(log n)` states (extension).
//!
//! The paper's protocols are *silent* self-stabilising: they require at
//! least `n` states [Cai–Izumi–Wada] but then hold a unique leader
//! forever. The related-work alternative (Sudo et al., *loose
//! stabilisation*) drops the "forever": with only `O(log n)` states the
//! population converges to a unique leader quickly and then *holds* that
//! leader for a long—but finite—time, after which the leader may be lost
//! and recomputed. This module implements a representative timer-based
//! loose protocol so the trade-off the paper's introduction appeals to can
//! be measured, not just cited (experiment EL in `exp_loose`).
//!
//! # The protocol
//!
//! Each agent is a *leader* or a *follower with a countdown timer*
//! `t ∈ {0, …, τ}` (so `τ + 2` states in total, `τ = Θ(log n)`):
//!
//! ```text
//! L + L        → L + F(τ)                 (duel: responder demoted)
//! L + F(t)     → L + F(τ)   for t < τ     (leader refreshes timers …)
//! F(t) + L     → F(τ) + L   for t < τ     (… in both orders)
//! F(a) + F(b)  → F(c) + F(c), c = max(a,b) − 1, unless a = b = 0
//! F(0) + F(0)  → L + F(τ)                 (timeout: a new leader rises)
//! ```
//!
//! The follower rule is the classic *max-propagate-and-decrement*: "I met
//! a leader recently" spreads epidemically while decaying, so with a
//! leader present timers rarely drain, and without one they hit zero in
//! `O(τ)` parallel time whp and a new leader is seeded.
//!
//! **This is not a ranking protocol.** Its configurations are never
//! silent (with `n > τ + 2` agents some state is always duplicated and
//! the timer churn never stops); run it with a step budget and observe the
//! leader count instead. That perpetual churn is precisely the cost the
//! paper's silent protocols eliminate.
//!
//! # Examples
//!
//! ```
//! use ssr_core::loose::LooseLeaderElection;
//! use ssr_engine::{Engine, Protocol, Simulation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 64;
//! let p = LooseLeaderElection::new(n);
//! // Adversarial start: everyone believes they are the leader.
//! let start = vec![p.leader_state(); n];
//! let mut sim = Simulation::new(&p, start, 7)?;
//! sim.run_for(200 * n as u64);
//! assert_eq!(p.leader_count(sim.counts()), 1);
//! # Ok(())
//! # }
//! ```

use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};

/// Timer-based loosely-stabilising leader election (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LooseLeaderElection {
    n: usize,
    timer_max: u32,
}

impl LooseLeaderElection {
    /// Build the protocol for `n` agents with the default timer ceiling
    /// `τ = 8⌈log₂ n⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Self {
        let log = usize::BITS - n.next_power_of_two().leading_zeros();
        Self::with_timer(n, 8 * log.max(1))
    }

    /// Build the protocol with an explicit timer ceiling `τ ≥ 1`.
    ///
    /// Larger `τ` lengthens the holding time (exponentially) at the cost
    /// of slower recovery after the leader is lost.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `timer_max == 0`.
    pub fn with_timer(n: usize, timer_max: u32) -> Self {
        assert!(n >= 2, "leader election needs at least two agents");
        assert!(timer_max >= 1, "timer ceiling must be positive");
        LooseLeaderElection { n, timer_max }
    }

    /// The timer ceiling `τ`.
    pub fn timer_max(&self) -> u32 {
        self.timer_max
    }

    /// The state id of the (single) leader state.
    pub fn leader_state(&self) -> State {
        self.timer_max + 1
    }

    /// The state id of a follower with countdown `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t > τ`.
    pub fn follower_state(&self, t: u32) -> State {
        assert!(t <= self.timer_max, "timer exceeds ceiling");
        t
    }

    /// Whether `s` encodes the leader.
    pub fn is_leader(&self, s: State) -> bool {
        s == self.leader_state()
    }

    /// Number of agents currently in the leader state, given per-state
    /// occupancy counts (e.g. [`ssr_engine::Engine::counts`]).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is shorter than the state space.
    pub fn leader_count(&self, counts: &[u32]) -> u64 {
        counts[self.leader_state() as usize] as u64
    }

    /// Smallest follower countdown currently present, or `None` if every
    /// agent is a leader. A population whose minimum timer stays high is
    /// "far" from spuriously electing a second leader.
    pub fn min_timer(&self, counts: &[u32]) -> Option<u32> {
        (0..=self.timer_max).find(|&t| counts[t as usize] > 0)
    }
}

impl Protocol for LooseLeaderElection {
    fn name(&self) -> &str {
        "loose leader election"
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn num_states(&self) -> usize {
        self.timer_max as usize + 2
    }

    /// Loose protocols have no rank states; the whole space is "extra".
    /// Declaring every state a rank state keeps the engine's silence test
    /// meaningful (it then means "all agents in distinct states", which
    /// for `n > τ + 2` never holds — loose protocols are never silent).
    fn num_rank_states(&self) -> usize {
        self.num_states()
    }

    #[inline]
    fn transition(&self, initiator: State, responder: State) -> Option<(State, State)> {
        let leader = self.leader_state();
        let tau = self.timer_max;
        match (initiator == leader, responder == leader) {
            (true, true) => Some((leader, tau)), // duel: demote responder
            (true, false) => (responder < tau).then_some((leader, tau)),
            (false, true) => (initiator < tau).then_some((tau, leader)),
            (false, false) => {
                let t = initiator.max(responder);
                if t == 0 {
                    Some((leader, tau)) // both timers expired: seed a leader
                } else {
                    let c = t - 1;
                    (initiator != c || responder != c).then_some((c, c))
                }
            }
        }
    }
}

impl InteractionSchema for LooseLeaderElection {
    /// The timer rules fit none of the structured ranking-protocol shapes
    /// (the whole space counts as "rank" states and distinct-state pairs
    /// interact), so beyond the diagonal — every same-state meeting is
    /// productive, an equal-rank class — the off-diagonal rules go through
    /// the sparse-pair escape hatch: `O(τ²)` enumerated pairs with
    /// `τ = O(log n)`. This is what lets the jump and count engines drive
    /// a protocol the three structured classes cannot express.
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        let mut classes = vec![ClassSpec::equal_rank()];
        let s_total = self.num_states() as State;
        for a in 0..s_total {
            for b in 0..s_total {
                if a != b && self.transition(a, b).is_some() {
                    classes.push(ClassSpec::pair(a, b));
                }
            }
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::rng::Xoshiro256;
    use ssr_engine::{Engine, Simulation};

    #[test]
    fn schema_is_exact() {
        for (n, tau) in [(8usize, 5u32), (20, 9), (40, 16)] {
            ssr_engine::validate_interaction_schema(&LooseLeaderElection::with_timer(n, tau))
                .unwrap_or_else(|e| panic!("n={n} tau={tau}: {e}"));
        }
    }

    #[test]
    fn jump_engine_drives_loose_protocol_to_a_unique_leader() {
        // The schema (equal-rank + sparse pairs) lets the null-skipping
        // engines run a never-silent protocol: advance a productive-step
        // budget and check convergence, as the naive tests do with raw
        // interactions.
        use ssr_engine::CountSimulation;
        let n = 50;
        let p = LooseLeaderElection::new(n);
        let mut sim = CountSimulation::new(&p, vec![p.leader_state(); n], 23)
            .unwrap()
            .with_batching(false);
        for _ in 0..200 * n {
            sim.advance();
        }
        assert_eq!(
            p.leader_count(sim.counts()),
            1,
            "duels must leave one leader"
        );
    }

    #[test]
    fn count_engine_agrees_with_naive_on_leader_convergence() {
        use ssr_engine::CountSimulation;
        let n = 60;
        let p = LooseLeaderElection::new(n);
        let mut sim = CountSimulation::new(&p, vec![p.timer_max(); n], 29).unwrap();
        let mut productive = 0u64;
        while productive < 4_000 * n as u64 {
            productive += sim.advance().expect("loose protocols never go silent");
        }
        assert_eq!(p.leader_count(sim.counts()), 1);
    }

    fn run_for(p: &LooseLeaderElection, start: Vec<State>, seed: u64, budget: u64) -> Vec<u32> {
        let mut sim = Simulation::new(p, start, seed).unwrap();
        sim.run_for(budget);
        sim.counts().to_vec()
    }

    #[test]
    fn no_identity_rewrites() {
        let p = LooseLeaderElection::with_timer(8, 5);
        let s = p.num_states() as State;
        for a in 0..s {
            for b in 0..s {
                if let Some((a2, b2)) = p.transition(a, b) {
                    assert!(a2 != a || b2 != b, "identity rewrite on ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn duel_demotes_responder_only() {
        let p = LooseLeaderElection::with_timer(4, 6);
        let l = p.leader_state();
        assert_eq!(p.transition(l, l), Some((l, 6)));
    }

    #[test]
    fn leader_refresh_is_symmetric_and_null_at_ceiling() {
        let p = LooseLeaderElection::with_timer(4, 6);
        let l = p.leader_state();
        assert_eq!(p.transition(l, 3), Some((l, 6)));
        assert_eq!(p.transition(3, l), Some((6, l)));
        assert_eq!(p.transition(l, 6), None, "already refreshed");
        assert_eq!(p.transition(6, l), None);
    }

    #[test]
    fn followers_max_propagate_and_decrement() {
        let p = LooseLeaderElection::with_timer(4, 6);
        assert_eq!(p.transition(5, 2), Some((4, 4)));
        assert_eq!(p.transition(2, 5), Some((4, 4)));
        assert_eq!(p.transition(6, 6), Some((5, 5)));
        // Identity case: (1, 0) → max = 1 → both 0; initiator changes.
        assert_eq!(p.transition(1, 0), Some((0, 0)));
        assert_eq!(p.transition(0, 1), Some((0, 0)));
    }

    #[test]
    fn expired_timers_seed_exactly_one_leader() {
        let p = LooseLeaderElection::with_timer(4, 6);
        let l = p.leader_state();
        assert_eq!(p.transition(0, 0), Some((l, 6)));
    }

    #[test]
    fn timer_ceiling_validation() {
        let p = LooseLeaderElection::with_timer(4, 3);
        assert_eq!(p.num_states(), 5);
        assert_eq!(p.leader_state(), 4);
        assert_eq!(p.follower_state(3), 3);
    }

    #[test]
    #[should_panic(expected = "timer exceeds ceiling")]
    fn follower_state_rejects_overflow() {
        LooseLeaderElection::with_timer(4, 3).follower_state(4);
    }

    #[test]
    fn converges_from_all_leaders() {
        let n = 50;
        let p = LooseLeaderElection::new(n);
        let counts = run_for(&p, vec![p.leader_state(); n], 11, 500 * n as u64);
        assert_eq!(p.leader_count(&counts), 1, "duels must leave one leader");
    }

    #[test]
    fn converges_from_no_leaders() {
        let n = 50;
        let p = LooseLeaderElection::new(n);
        // Worst case: every timer at the ceiling, so the whole countdown
        // must elapse before a leader can rise.
        let counts = run_for(&p, vec![p.timer_max(); n], 13, 3_000 * n as u64);
        assert_eq!(p.leader_count(&counts), 1);
    }

    #[test]
    fn converges_from_uniform_random_states() {
        let n = 64;
        let p = LooseLeaderElection::new(n);
        let mut rng = Xoshiro256::seed_from_u64(5);
        for trial in 0..4 {
            let start = ssr_engine::init::uniform_random(n, p.num_states(), &mut rng);
            let counts = run_for(&p, start, 100 + trial, 2_000 * n as u64);
            assert_eq!(p.leader_count(&counts), 1, "trial {trial}");
        }
    }

    #[test]
    fn leader_holds_across_a_long_window() {
        // With a unique leader and all timers refreshed, the leader should
        // survive a window far longer than the convergence time.
        let n = 40;
        let p = LooseLeaderElection::new(n);
        let mut start = vec![p.timer_max(); n];
        start[0] = p.leader_state();
        let mut sim = Simulation::new(&p, start, 17).unwrap();
        for _ in 0..200 {
            sim.run_for(50 * n as u64);
            assert_eq!(p.leader_count(sim.counts()), 1, "leader lost");
        }
    }

    #[test]
    fn never_silent() {
        let n = 30;
        let p = LooseLeaderElection::new(n);
        let mut sim = Simulation::new(&p, vec![0; n], 19).unwrap();
        sim.run_for(10_000);
        assert!(!sim.is_silent(), "loose protocols churn forever");
    }

    #[test]
    fn min_timer_reports_decay() {
        let p = LooseLeaderElection::with_timer(4, 6);
        let mut counts = vec![0u32; p.num_states()];
        counts[p.leader_state() as usize] = 4;
        assert_eq!(p.min_timer(&counts), None);
        counts[3] = 1;
        assert_eq!(p.min_timer(&counts), Some(3));
        counts[0] = 1;
        assert_eq!(p.min_timer(&counts), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least two agents")]
    fn rejects_tiny_population() {
        LooseLeaderElection::new(1);
    }
}
