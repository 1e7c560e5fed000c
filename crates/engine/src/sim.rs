//! The naive simulator: one uniformly random ordered pair per interaction.
//!
//! This is a literal implementation of the paper's probabilistic model. It
//! tracks per-state occupancy counts incrementally so that silence — by the
//! ranking contract, "all agents in pairwise-distinct rank states" — is an
//! O(1) test. Like every engine it steps through
//! [`Engine::advance_to`] and reports
//! productive interactions to a
//! [`CountObserver`]; its own surface adds
//! the agent vector and single [`step`](Simulation::step)s.
//!
//! For long runs dominated by null interactions prefer the count engine's
//! exact mode ([`CountSimulation`](crate::count::CountSimulation) with
//! batching off, the `jump` engine kind), which simulates the identical
//! Markov chain while skipping nulls exactly.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::engine::Engine;
//! use ssr_engine::protocol::{Protocol, State};
//! use ssr_engine::sim::Simulation;
//!
//! struct Ag { n: usize }
//! impl Protocol for Ag {
//!     fn name(&self) -> &str { "A_G" }
//!     fn population_size(&self) -> usize { self.n }
//!     fn num_states(&self) -> usize { self.n }
//!     fn num_rank_states(&self) -> usize { self.n }
//!     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
//!         (i == r).then(|| (i, (r + 1) % self.n as State))
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Ag { n: 8 };
//! let mut sim = Simulation::new(&p, vec![0; 8], 42)?;
//! let report = sim.run_until_silent(10_000_000)?;
//! assert!(sim.is_silent());
//! assert!(report.interactions > 0);
//! # Ok(())
//! # }
//! ```

use crate::engine::{CappedAdvance, CountObserver, Engine, EngineSnapshot};
use crate::error::ConfigError;
use crate::init;
use crate::protocol::{Protocol, State};
use crate::rng::Xoshiro256;

/// Outcome of a run that reached a silent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilisationReport {
    /// Interactions executed up to (and including) the last productive one,
    /// saturating at `u64::MAX` — the count engine's clock legitimately
    /// passes that at `n ≥ 2³¹`; see
    /// [`interactions_wide`](Self::interactions_wide).
    pub interactions: u64,
    /// Full-width interaction clock, exact past `u64::MAX`. Equals
    /// `interactions` for every engine except count at `n ≥ 2³¹`.
    pub interactions_wide: u128,
    /// Of those, how many actually changed the configuration.
    pub productive_interactions: u64,
    /// Parallel time: `interactions / n`.
    pub parallel_time: f64,
}

/// Naive step-by-step simulation of a protocol on a concrete agent vector.
pub struct Simulation<'a, P: Protocol + ?Sized> {
    protocol: &'a P,
    agents: Vec<State>,
    counts: Vec<u32>,
    /// Cached `protocol.num_rank_states()` — `update_count` sits on the
    /// hot path of every productive interaction and must not go through
    /// the protocol vtable.
    num_ranks: usize,
    /// Σ over rank states of max(c − 1, 0): agents beyond the first in a
    /// rank state.
    duplicate_rank_agents: u64,
    /// Agents currently in extra (non-rank) states.
    extra_agents: u64,
    interactions: u64,
    productive: u64,
    rng: Xoshiro256,
    /// Per-agent Byzantine/stuck-at flags; empty when no overlay is active.
    byz: Vec<bool>,
}

impl<'a, P: Protocol + ?Sized> Simulation<'a, P> {
    /// Start a simulation from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration length differs from the
    /// protocol's population or any state id is out of range.
    pub fn new(protocol: &'a P, config: Vec<State>, seed: u64) -> Result<Self, ConfigError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(ConfigError::WrongPopulation {
                expected: n,
                got: config.len(),
            });
        }
        init::validate(&config, protocol.num_states())?;
        let counts = init::counts(&config, protocol.num_states());
        let num_ranks = protocol.num_rank_states();
        let duplicate_rank_agents = counts[..num_ranks]
            .iter()
            .map(|&c| (c as u64).saturating_sub(1))
            .sum();
        let extra_agents = counts[num_ranks..].iter().map(|&c| c as u64).sum();
        Ok(Simulation {
            protocol,
            agents: config,
            counts,
            num_ranks,
            duplicate_rank_agents,
            extra_agents,
            interactions: 0,
            productive: 0,
            rng: Xoshiro256::seed_from_u64(seed),
            byz: Vec::new(),
        })
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// Current per-agent states.
    pub fn agents(&self) -> &[State] {
        &self.agents
    }

    /// Exhaustive silence verification: checks that **no** ordered pair of
    /// currently occupied states is productive. `O(occupied²)` — intended
    /// for tests; the hot path uses [`is_silent`].
    ///
    /// [`is_silent`]: crate::engine::Engine::is_silent
    pub fn verify_silent(&self) -> bool {
        let occupied: Vec<State> = (0..self.counts.len())
            .filter(|&s| self.counts[s] > 0)
            .map(|s| s as State)
            .collect();
        for &a in &occupied {
            for &b in &occupied {
                if a == b && self.counts[a as usize] < 2 {
                    continue;
                }
                if self.protocol.transition(a, b).is_some() {
                    return false;
                }
            }
        }
        true
    }

    #[inline]
    fn update_count(&mut self, s: State, delta: i64) {
        let su = s as usize;
        let num_ranks = self.num_ranks;
        let old = self.counts[su] as i64;
        let new = old + delta;
        debug_assert!(new >= 0);
        self.counts[su] = new as u32;
        if su < num_ranks {
            let old_dup = (old - 1).max(0) as u64;
            let new_dup = (new - 1).max(0) as u64;
            self.duplicate_rank_agents = self.duplicate_rank_agents + new_dup - old_dup;
        } else {
            self.extra_agents = (self.extra_agents as i64 + delta) as u64;
        }
    }

    /// Execute one scheduler step. Returns the rewritten ordered state
    /// pair, `((initiator, responder) before, (initiator, responder)
    /// after)`, if it was productive.
    #[inline]
    pub fn step(&mut self) -> Option<((State, State), (State, State))> {
        let n = self.protocol.population_size();
        debug_assert!(n >= 2, "population protocols need at least two agents");
        let (i, r) = self.rng.ordered_pair(n);
        // Saturate like the count clock: a bare `+= 1` wraps in
        // release at u64::MAX (reachable near silence at extreme n).
        self.interactions = self.interactions.saturating_add(1);
        let si = self.agents[i];
        let sr = self.agents[r];
        match self.protocol.transition(si, sr) {
            None => None,
            Some((mut si2, mut sr2)) => {
                if self.byz.is_empty() {
                    debug_assert!(
                        si2 != si || sr2 != sr,
                        "protocol returned an identity rewrite for ({si},{sr})"
                    );
                } else {
                    // Byzantine/stuck-at participants veto their own
                    // rewrite; the partner still updates. The scheduler
                    // draw counts as productive either way — it is a
                    // chain event, vetoed or not, which keeps the clock
                    // semantics aligned with the counts-based engines.
                    if self.byz[i] {
                        si2 = si;
                    }
                    if self.byz[r] {
                        sr2 = sr;
                    }
                }
                self.productive += 1;
                self.agents[i] = si2;
                self.agents[r] = sr2;
                if si != si2 {
                    self.update_count(si, -1);
                    self.update_count(si2, 1);
                }
                if sr != sr2 {
                    self.update_count(sr, -1);
                    self.update_count(sr2, 1);
                }
                Some(((si, sr), (si2, sr2)))
            }
        }
    }

    /// Execute exactly `budget` further interactions (silent or not).
    pub fn run_for(&mut self, budget: u64) {
        for _ in 0..budget {
            self.step();
        }
    }

    /// Overwrite one agent's state (transient-fault injection). Counters
    /// are kept consistent; the interaction clock is not advanced.
    ///
    /// # Panics
    ///
    /// Panics if `agent` or `state` is out of range.
    pub fn inject_fault(&mut self, agent: usize, state: State) {
        assert!(agent < self.agents.len(), "agent index out of range");
        assert!(
            (state as usize) < self.protocol.num_states(),
            "state out of range"
        );
        let old = self.agents[agent];
        if old == state {
            return;
        }
        self.agents[agent] = state;
        self.update_count(old, -1);
        self.update_count(state, 1);
    }

    /// Consume the simulation and return the final configuration.
    pub fn into_agents(self) -> Vec<State> {
        self.agents
    }
}

impl<P: Protocol + ?Sized> Engine for Simulation<'_, P> {
    fn engine_name(&self) -> &'static str {
        "naive"
    }

    fn population_size(&self) -> usize {
        self.protocol.population_size()
    }

    fn counts(&self) -> &[u32] {
        &self.counts
    }

    fn interactions(&self) -> u64 {
        self.interactions
    }

    fn productive_interactions(&self) -> u64 {
        self.productive
    }

    /// O(1) silence test via the ranking contract: silent iff every agent
    /// occupies its own rank state and no extra state is occupied.
    fn is_silent(&self) -> bool {
        self.duplicate_rank_agents == 0 && self.extra_agents == 0
    }

    /// One scheduler draw: `Applied(1)` if it was productive,
    /// `Applied(0)` for a null interaction. The naive clock moves one draw
    /// at a time, so it never passes `cap`.
    #[inline(always)]
    fn advance_to(&mut self, cap: u128, observer: &mut dyn CountObserver) -> CappedAdvance {
        if self.is_silent() {
            debug_assert!(self.verify_silent());
            return CappedAdvance::Silent;
        }
        if (self.interactions as u128) >= cap {
            return CappedAdvance::CapReached;
        }
        match self.step() {
            Some((before, after)) => {
                observer.on_productive(self.interactions as u128, before, after, 1, &self.counts);
                CappedAdvance::Applied(1)
            }
            None => CappedAdvance::Applied(0),
        }
    }

    fn set_byzantine(&mut self, byz: &[u32]) {
        assert_eq!(
            byz.len(),
            self.counts.len(),
            "byzantine spec length {} does not match the state space {}",
            byz.len(),
            self.counts.len()
        );
        if byz.iter().all(|&b| b == 0) {
            self.byz.clear();
            return;
        }
        // Mark, for each state s, the first byz[s] agents currently in s
        // (scan order over the agent vector — a deterministic selection;
        // agents are anonymous, so any selection rule yields the same
        // process).
        let mut quota = byz.to_vec();
        let mut flags = vec![false; self.agents.len()];
        for (i, &s) in self.agents.iter().enumerate() {
            if quota[s as usize] > 0 {
                quota[s as usize] -= 1;
                flags[i] = true;
            }
        }
        for (s, &q) in quota.iter().enumerate() {
            assert!(
                q == 0,
                "byzantine spec asks for {} stuck agents in state {s} but \
                 only {} are present",
                byz[s],
                self.counts[s]
            );
        }
        self.byz = flags;
    }

    fn num_rank_states(&self) -> usize {
        self.num_ranks
    }

    fn skip_nulls(&mut self, nulls: u128) {
        self.interactions = self
            .interactions
            // lint:allow(A001): saturating clamp at the u64 clock width.
            .saturating_add(nulls.min(u64::MAX as u128) as u64);
    }

    fn inject_state_fault(&mut self, from: State, to: State) {
        let byz = &self.byz;
        let agent = self
            .agents
            .iter()
            .enumerate()
            .position(|(i, &s)| s == from && !byz.get(i).copied().unwrap_or(false))
            .unwrap_or_else(|| panic!("state {from} has no non-Byzantine occupant"));
        Simulation::inject_fault(self, agent, to);
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            agents: Some(self.agents.clone()),
            counts: self.counts.clone(),
            interactions: self.interactions as u128,
            productive: self.productive,
            rng: self.rng.clone(),
            count_ctl: None,
        }
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) {
        // Count-only snapshots (from the count engine) reconstruct an
        // agent vector from counts; agents are anonymous, so the resulting
        // process is the same.
        let agents = snapshot
            .agents
            .clone()
            .unwrap_or_else(|| init::from_counts(&snapshot.counts));
        assert_eq!(
            agents.len(),
            self.protocol.population_size(),
            "snapshot population mismatch"
        );
        assert_eq!(
            snapshot.counts.len(),
            self.protocol.num_states(),
            "snapshot state-space mismatch"
        );
        let num_ranks = self.num_ranks;
        self.agents = agents;
        self.counts.clone_from(&snapshot.counts);
        self.duplicate_rank_agents = self.counts[..num_ranks]
            .iter()
            .map(|&c| (c as u64).saturating_sub(1))
            .sum();
        self.extra_agents = self.counts[num_ranks..].iter().map(|&c| c as u64).sum();
        // The naive engine's clock is u64; count-engine snapshots past
        // u64::MAX cannot be represented here and saturate.
        // lint:allow(A001): that documented saturation, deliberately.
        self.interactions = snapshot.interactions.min(u64::MAX as u128) as u64;
        self.productive = snapshot.productive;
        self.rng = snapshot.rng.clone();
    }
}

impl<P: Protocol + ?Sized> std::fmt::Debug for Simulation<'_, P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("protocol", &self.protocol.name())
            .field("n", &self.protocol.population_size())
            .field("interactions", &self.interactions)
            .field("silent", &self.is_silent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
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
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == r {
                Some((i, (r + 1) % self.n as State))
            } else {
                None
            }
        }
    }

    #[test]
    fn rejects_wrong_population() {
        let p = Ag { n: 4 };
        let err = Simulation::new(&p, vec![0; 3], 1).unwrap_err();
        assert!(matches!(err, ConfigError::WrongPopulation { .. }));
    }

    #[test]
    fn rejects_out_of_range_state() {
        let p = Ag { n: 4 };
        let err = Simulation::new(&p, vec![0, 1, 2, 9], 1).unwrap_err();
        assert!(matches!(err, ConfigError::StateOutOfRange { .. }));
    }

    #[test]
    fn perfect_ranking_is_silent_in_zero_interactions() {
        let p = Ag { n: 6 };
        let mut sim = Simulation::new(&p, (0..6).collect(), 3).unwrap();
        let rep = sim.run_until_silent(10).unwrap();
        assert_eq!(rep.interactions, 0);
        assert!(sim.verify_silent());
    }

    #[test]
    fn all_in_zero_stabilises() {
        let p = Ag { n: 8 };
        let mut sim = Simulation::new(&p, vec![0; 8], 7).unwrap();
        let rep = sim.run_until_silent(50_000_000).unwrap();
        assert!(sim.is_silent());
        assert!(sim.verify_silent());
        assert!(init::is_perfect_ranking(sim.agents(), 8));
        assert!(rep.productive_interactions >= 7, "at least n-1 moves");
    }

    #[test]
    fn timeout_is_reported() {
        let p = Ag { n: 8 };
        let mut sim = Simulation::new(&p, vec![0; 8], 7).unwrap();
        let err = sim.run_until_silent(5).unwrap_err();
        assert_eq!(err.interactions, 5);
    }

    #[test]
    fn counters_track_counts() {
        let p = Ag { n: 10 };
        let mut sim = Simulation::new(&p, vec![0; 10], 11).unwrap();
        for _ in 0..10_000 {
            sim.step();
            let dup: u64 = sim.counts()[..10]
                .iter()
                .map(|&c| (c as u64).saturating_sub(1))
                .sum();
            assert_eq!(dup, sim.duplicate_rank_agents);
            let total: u32 = sim.counts().iter().sum();
            assert_eq!(total, 10, "agents conserved");
            if sim.is_silent() {
                break;
            }
        }
    }

    #[test]
    fn fault_injection_updates_counters_and_recovers() {
        let p = Ag { n: 6 };
        let mut sim = Simulation::new(&p, (0..6).collect(), 17).unwrap();
        assert!(sim.is_silent());
        sim.inject_fault(0, 3); // duplicate rank 3, rank 0 now empty
        assert!(!sim.is_silent());
        sim.run_until_silent(10_000_000).unwrap();
        assert!(init::is_perfect_ranking(sim.agents(), 6));
    }

    #[test]
    fn run_for_executes_exact_budget() {
        let p = Ag { n: 5 };
        let mut sim = Simulation::new(&p, vec![1; 5], 19).unwrap();
        sim.run_for(123);
        assert_eq!(sim.interactions(), 123);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = Ag { n: 12 };
        let mut a = Simulation::new(&p, vec![0; 12], 23).unwrap();
        let mut b = Simulation::new(&p, vec![0; 12], 23).unwrap();
        let ra = a.run_until_silent(u64::MAX).unwrap();
        let rb = b.run_until_silent(u64::MAX).unwrap();
        assert_eq!(ra.interactions, rb.interactions);
        assert_eq!(a.agents(), b.agents());
    }

    #[test]
    fn snapshot_restore_replays_exactly() {
        let p = Ag { n: 10 };
        let mut sim = Simulation::new(&p, vec![0; 10], 31).unwrap();
        sim.run_for(500);
        let snap = sim.snapshot();
        assert_eq!(snap.interactions(), 500);
        assert_eq!(snap.agents(), Some(sim.agents()));

        // Branch A: run to silence.
        let rep_a = sim.run_until_silent(u64::MAX).unwrap();
        let final_a = sim.agents().to_vec();

        // Branch B: restore and rerun — identical trajectory.
        sim.restore(&snap);
        assert_eq!(sim.interactions(), 500);
        let rep_b = sim.run_until_silent(u64::MAX).unwrap();
        assert_eq!(rep_a.interactions, rep_b.interactions);
        assert_eq!(final_a, sim.agents());
    }

    #[test]
    fn parallel_time_is_interactions_over_n() {
        let p = Ag { n: 4 };
        let mut sim = Simulation::new(&p, vec![0; 4], 29).unwrap();
        sim.run_for(40);
        assert!((sim.parallel_time() - 10.0).abs() < 1e-12);
    }
}
