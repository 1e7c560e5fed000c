//! The state-optimal ring-of-traps ranking protocol (paper §3).
//!
//! An `(m, m+1)`-ring-of-traps consists of `m` traps of size `m + 1` whose
//! gate rules are chained cyclically:
//!
//! ```text
//! inner:  (a, b) + (a, b) → (a, b) + (a, b−1)            for b > 0
//! gate:   (a, 0) + (a, 0) → (a, m) + ((a+1) mod m, 0)
//! ```
//!
//! The protocol is **state-optimal** (`x = 0`) and stabilises silently in
//! `O(min(k·n^{3/2}, n² log² n))` whp from any `k`-distant configuration
//! (Theorem 1). The paper's potential argument uses the weight
//! `K = k₁ + 2k₂` (flat traps with empty gates + twice the gaps), which is
//! non-increasing along trajectories — see [`RingOfTraps::weight_k`] and the
//! invariant tests.
//!
//! For populations `n ≠ m(m+1)` the leftover states are scattered over the
//! traps (sizes differ by at most one), exactly as the paper prescribes.
//!
//! # Examples
//!
//! ```
//! use ssr_core::ring::RingOfTraps;
//! use ssr_engine::{init, CountSimulation, Engine};
//! use ssr_engine::rng::Xoshiro256;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = RingOfTraps::new(30);        // m = 5: 5 traps of size 6
//! let mut rng = Xoshiro256::seed_from_u64(3);
//! let cfg = init::k_distant(30, 4, init::DuplicatePlacement::Random, &mut rng);
//! let mut sim = CountSimulation::new(&p, cfg, 7)?.with_batching(false);
//! let report = sim.run_until_silent(u64::MAX)?;
//! assert!(sim.is_silent());
//! println!("4-distant start ranked in parallel time {:.0}", report.parallel_time);
//! # Ok(())
//! # }
//! ```

use crate::trap::{self, TrapView};
use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
use ssr_topology::TrapChain;

/// Ring-of-traps protocol instance for a population of `n` agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingOfTraps {
    n: usize,
    chain: TrapChain,
}

/// Largest `m ≥ 1` with `m(m+1) ≤ n`.
fn ring_m(n: usize) -> usize {
    let mut m = (((4.0 * n as f64 + 1.0).sqrt() - 1.0) / 2.0).floor() as usize;
    m = m.max(1);
    while m > 1 && m * (m + 1) > n {
        m -= 1;
    }
    while (m + 1) * (m + 2) <= n {
        m += 1;
    }
    m
}

impl RingOfTraps {
    /// Build the ring for population size `n`, choosing the largest `m`
    /// with `m(m+1) ≤ n` and scattering the `n − m(m+1)` leftover states.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        let m = if n >= 2 { ring_m(n) } else { 1 };
        RingOfTraps {
            n,
            chain: TrapChain::spread(m, n, 0),
        }
    }

    /// Build with an explicit number of traps (sizes spread equally).
    ///
    /// # Panics
    ///
    /// Panics if `traps == 0` or `n < traps`.
    pub fn with_traps(n: usize, traps: usize) -> Self {
        RingOfTraps {
            n,
            chain: TrapChain::spread(traps, n, 0),
        }
    }

    /// Number of traps `m`.
    pub fn num_traps(&self) -> usize {
        self.chain.num_traps()
    }

    /// The underlying state layout.
    pub fn chain(&self) -> &TrapChain {
        &self.chain
    }

    /// Per-trap snapshot of a configuration.
    pub fn trap_views(&self, counts: &[u32]) -> Vec<TrapView> {
        trap::views(&self.chain, counts)
    }

    /// Lemma 3's non-increasing weight `K = k₁ + 2k₂`.
    pub fn weight_k(&self, counts: &[u32]) -> u64 {
        trap::weight_k(&self.chain, counts)
    }

    /// Lemma 2's tidiness predicate over all traps.
    pub fn is_tidy(&self, counts: &[u32]) -> bool {
        trap::is_tidy(&self.chain, counts)
    }

    /// Paper-style name of a state: `(a, b)` with `b = 0` the gate.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn describe_state(&self, s: State) -> String {
        let (t, b) = self.chain.locate(s);
        if b == 0 {
            format!("trap {t} gate")
        } else {
            format!("trap {t} inner {b}")
        }
    }
}

impl Protocol for RingOfTraps {
    fn name(&self) -> &str {
        "ring-of-traps"
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
        if initiator != responder {
            return None;
        }
        let (t, b) = self.chain.locate(initiator);
        if b > 0 {
            // R_i: descend one inner step.
            Some((initiator, initiator - 1))
        } else {
            // R_g: refill own top, eject to the next gate on the ring.
            let m = self.chain.num_traps();
            let out = (self.chain.top(t), self.chain.gate((t + 1) % m));
            if out == (initiator, responder) {
                None // degenerate single-state ring (n = 1)
            } else {
                Some(out)
            }
        }
    }
}

impl InteractionSchema for RingOfTraps {
    /// One class: every trap rule fires on equal-rank pairs only.
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        vec![ClassSpec::equal_rank()]
    }

    fn equal_rank_rule(&self, s: State) -> bool {
        self.n > 1 || s != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::engine::{Engine, FnCountObserver};
    use ssr_engine::init::{self, DuplicatePlacement};
    use ssr_engine::protocol::validate_ranking_contract;
    use ssr_engine::rng::Xoshiro256;
    use ssr_engine::{CountSimulation, Simulation};

    #[test]
    fn ring_m_choices() {
        assert_eq!(ring_m(2), 1);
        assert_eq!(ring_m(5), 1);
        assert_eq!(ring_m(6), 2);
        assert_eq!(ring_m(11), 2);
        assert_eq!(ring_m(12), 3);
        assert_eq!(ring_m(30), 5);
        assert_eq!(ring_m(31), 5);
        assert_eq!(ring_m(42), 6);
    }

    #[test]
    fn exact_paper_sizes_use_uniform_traps() {
        let p = RingOfTraps::new(30); // 5 · 6
        assert_eq!(p.num_traps(), 5);
        for t in 0..5 {
            assert_eq!(p.chain().size(t), 6);
        }
    }

    #[test]
    fn leftover_states_scattered() {
        let p = RingOfTraps::new(33); // m = 5, leftover 3
        assert_eq!(p.num_traps(), 5);
        let sizes: Vec<u32> = (0..5).map(|t| p.chain().size(t)).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 33);
        assert!(sizes.iter().all(|&s| s == 6 || s == 7));
    }

    #[test]
    fn contract_holds_various_n() {
        for n in [1usize, 2, 3, 6, 7, 12, 20, 30, 31, 57] {
            validate_ranking_contract(&RingOfTraps::new(n))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn rules_match_paper() {
        let p = RingOfTraps::new(12); // m = 3, traps of size 4: gates 0,4,8
                                      // Inner rule: (a,b)+(a,b) → (a,b)+(a,b−1).
        assert_eq!(p.transition(3, 3), Some((3, 2)));
        assert_eq!(p.transition(1, 1), Some((1, 0)));
        // Gate rule: (a,0)+(a,0) → (a,m)+((a+1) mod m, 0).
        assert_eq!(p.transition(0, 0), Some((3, 4)));
        assert_eq!(p.transition(4, 4), Some((7, 8)));
        assert_eq!(p.transition(8, 8), Some((11, 0)), "ring wraps");
        // Distinct states never interact.
        assert_eq!(p.transition(0, 5), None);
    }

    #[test]
    fn stabilises_from_k_distant_starts() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        for n in [12usize, 20, 30] {
            let p = RingOfTraps::new(n);
            for k in [0usize, 1, 3, n / 2] {
                let cfg = init::k_distant(n, k, DuplicatePlacement::Random, &mut rng);
                let mut sim = CountSimulation::new(&p, cfg, (n + k) as u64)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX).unwrap();
                assert!(
                    sim.counts().iter().all(|&c| c == 1),
                    "n={n} k={k} did not rank"
                );
            }
        }
    }

    #[test]
    fn stabilises_from_stacked_start() {
        let p = RingOfTraps::new(20);
        let mut sim = CountSimulation::new(&p, vec![0; 20], 5)
            .unwrap()
            .with_batching(false);
        sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn weight_k_never_increases_once_tidy() {
        // Lemma 3's potential argument: K is monotone non-increasing.
        // We check it along a real trajectory from a tidy configuration
        // (the paper's argument covers tidy configurations; we start from
        // a k-distant start and begin checking once tidiness holds).
        let n = 20;
        let p = RingOfTraps::new(n);
        let mut rng = Xoshiro256::seed_from_u64(21);
        let cfg = init::k_distant(n, 6, DuplicatePlacement::Stacked, &mut rng);
        let mut sim = Simulation::new(&p, cfg, 77).unwrap();
        let mut last_k: Option<u64> = None;
        let mut tidy_seen = false;
        let mut violations = Vec::new();
        {
            let mut obs = FnCountObserver(|step, _before, _after, _mult, counts: &[u32]| {
                if !tidy_seen {
                    tidy_seen = p.is_tidy(counts);
                    if tidy_seen {
                        last_k = Some(p.weight_k(counts));
                    }
                    return;
                }
                let k = p.weight_k(counts);
                if let Some(prev) = last_k {
                    if k > prev {
                        violations.push((step, prev, k));
                    }
                }
                last_k = Some(k);
            });
            sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
        }
        assert!(violations.is_empty(), "K increased: {violations:?}");
        assert!(tidy_seen, "trajectory never became tidy");
    }

    #[test]
    fn tidy_is_absorbing() {
        // Lemma 2: once tidy, configurations stay tidy.
        let n = 20;
        let p = RingOfTraps::new(n);
        let mut sim = Simulation::new(&p, vec![3; n], 13).unwrap();
        let mut was_tidy = false;
        let mut broke = false;
        {
            let mut obs = FnCountObserver(|_clock, _before, _after, _mult, counts: &[u32]| {
                let tidy = p.is_tidy(counts);
                if was_tidy && !tidy {
                    broke = true;
                }
                was_tidy = tidy;
            });
            sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
        }
        assert!(!broke, "tidiness was lost after being reached");
    }

    #[test]
    fn fact1_occupied_inner_states_stay_occupied() {
        let n = 30;
        let p = RingOfTraps::new(n);
        let mut rng = Xoshiro256::seed_from_u64(31);
        let cfg = init::k_distant(n, 8, DuplicatePlacement::Random, &mut rng);
        let chain = p.chain().clone();
        let mut sim = Simulation::new(&p, cfg, 3).unwrap();
        let mut occupied: Vec<bool> = sim
            .counts()
            .iter()
            .enumerate()
            .map(|(s, &c)| {
                let (_, b) = chain.locate(s as u32);
                b > 0 && c > 0
            })
            .collect();
        let mut violated = false;
        {
            let mut obs = FnCountObserver(|_clock, _before, _after, _mult, counts: &[u32]| {
                for (s, &c) in counts.iter().enumerate() {
                    let (_, b) = chain.locate(s as u32);
                    if b == 0 {
                        continue;
                    }
                    if occupied[s] && c == 0 {
                        violated = true;
                    }
                    if c > 0 {
                        occupied[s] = true;
                    }
                }
            });
            sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
        }
        assert!(!violated, "Fact 1: an occupied inner state became empty");
    }

    #[test]
    fn fact3_full_traps_stay_full() {
        let n = 30;
        let p = RingOfTraps::new(n);
        let chain = p.chain().clone();
        let mut sim = Simulation::new(&p, vec![0; n], 41).unwrap();
        let m = chain.num_traps();
        let mut was_full = vec![false; m];
        let mut violated = false;
        {
            let mut obs = FnCountObserver(|_clock, _before, _after, _mult, counts: &[u32]| {
                for (t, was) in was_full.iter_mut().enumerate() {
                    let full = TrapView::read(&chain, t, counts).is_full();
                    if *was && !full {
                        violated = true;
                    }
                    *was |= full;
                }
            });
            sim.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
        }
        assert!(!violated, "Fact 3: a full trap became non-full");
    }

    #[test]
    fn final_configuration_fully_stabilises_every_trap() {
        let p = RingOfTraps::new(30);
        let mut sim = CountSimulation::new(&p, vec![7; 30], 2)
            .unwrap()
            .with_batching(false);
        sim.run_until_silent(u64::MAX).unwrap();
        for v in p.trap_views(sim.counts()) {
            assert!(v.is_fully_stabilised());
        }
    }

    #[test]
    fn zero_distant_start_is_silent_immediately() {
        let p = RingOfTraps::new(12);
        let mut sim = CountSimulation::new(&p, init::perfect_ranking(12), 1)
            .unwrap()
            .with_batching(false);
        let rep = sim.run_until_silent(10).unwrap();
        assert_eq!(rep.interactions, 0);
    }
}

#[cfg(test)]
mod describe_tests {
    use super::*;

    #[test]
    fn state_names_follow_layout() {
        let p = RingOfTraps::new(12);
        assert_eq!(p.describe_state(0), "trap 0 gate");
        assert_eq!(p.describe_state(3), "trap 0 inner 3");
        assert_eq!(p.describe_state(4), "trap 1 gate");
    }
}

#[cfg(test)]
mod degeneration_tests {
    use super::*;
    use crate::generic::GenericRanking;

    /// With n size-1 traps the ring's transition function is literally
    /// A_G's single rule — the degeneration the A1 ablation relies on.
    #[test]
    fn n_traps_of_size_one_is_exactly_ag() {
        let n = 17;
        let ring = RingOfTraps::with_traps(n, n);
        let ag = GenericRanking::new(n);
        for a in 0..n as State {
            for b in 0..n as State {
                assert_eq!(ring.transition(a, b), ag.transition(a, b), "pair ({a},{b})");
            }
        }
    }

    /// One trap of size n is the "single giant trap": gate rule refills
    /// the top state and self-loops the ejected agent back to its own gate.
    #[test]
    fn single_trap_ring_rules() {
        let n = 6;
        let p = RingOfTraps::with_traps(n, 1);
        assert_eq!(p.transition(0, 0), Some((5, 0)), "gate refills top");
        assert_eq!(p.transition(3, 3), Some((3, 2)));
    }
}
