//! The one-extra-state ranking protocol built on lines of traps (paper §4).
//!
//! The `n` rank states form `m²` **lines of traps**, each a chain of `3m`
//! traps of size `m + 1` (state `(l, a, b)`: line `l`, trap `a`, offset
//! `b`). One extra state `X` collects the agents released by each line's
//! exit gate. Agents in `X` re-enter the system at line entrance gates,
//! routed by the cubic graph `G` (§4.2): every trap points at one of its
//! line's three neighbours in `G`, and an `X`-agent interacting with an
//! agent in that trap is sent to the pointed-to line's entrance. Rules:
//!
//! ```text
//! inner:    (l,a,b) + (l,a,b) → (l,a,b) + (l,a,b−1)        b > 0
//! gate:     (l,a,0) + (l,a,0) → (l,a,m) + (l,a−1,0)        a > 1
//! exit:     (l,1,0) + (l,1,0) → (l,1,m) + X
//! route:    (l,a,b) + X       → (l,a,b) + (lᵢ, 3m, 0)      i = ⌈a/m⌉ − 1
//! seed:     X + X             → X + (1, 3m, 0)
//! ```
//!
//! With `x = 1` extra state the protocol self-stabilises silently in
//! `O(n^{7/4} log² n) = o(n²)` whp from **any** initial configuration
//! (Theorem 2). Internally traps are indexed `0..3m` from the exit
//! (internal `t` = paper's `a − 1`), and populations `n ≠ 3m³(m+1)` scatter
//! their leftover states over the traps as the paper prescribes.
//!
//! The module also implements the paper's analysis toolkit: the Lemma 5
//! settling recursion (final `ᾱ`, `δ̄` vectors and line surplus `s(C_l)`
//! computable from the configuration alone), the excess/token vectors `ρ`,
//! the global surplus `s(C)`, deficit `d(C)` and token count `r(C)`, and
//! the Lemma 10 identity `s(C) = d(C)`.
//!
//! # Examples
//!
//! ```
//! use ssr_core::line::LineOfTraps;
//! use ssr_engine::{CountSimulation, Engine, Protocol};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = LineOfTraps::new(72); // m = 1: one line of 3 traps, plus X
//! assert_eq!(p.num_states(), 73);
//! let mut sim = CountSimulation::new(&p, vec![p.x_state(); 72], 1)?.with_batching(false);
//! sim.run_until_silent(u64::MAX)?;
//! assert!(sim.is_silent());
//! # Ok(())
//! # }
//! ```

use ssr_engine::protocol::{ClassSpec, CrossDirection, InteractionSchema, Protocol, State};
use ssr_topology::{distribute, CubicGraph, TrapChain};

/// How `X`-agents are routed to line entrances (ablation knob; the paper
/// uses [`RoutingMode::CubicGraph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingMode {
    /// The paper's §4.2 design: traps point at the three neighbours of
    /// their line in the cubic graph `G` (diameter `O(log m)`).
    #[default]
    CubicGraph,
    /// Every trap routes `X`-agents back to its **own** line's entrance —
    /// no spreading at all. Lines that start empty can then only be fed
    /// through the `X + X` seeding rule into line 0 and whatever chains
    /// from there; stabilisation slows dramatically.
    SelfLoop,
    /// Every trap routes to the cyclically **next** line — spreading with
    /// a diameter-`Θ(m²)` topology instead of `O(log m)`.
    NextLine,
}

/// Line-of-traps protocol instance for a population of `n` agents.
#[derive(Debug, Clone)]
pub struct LineOfTraps {
    n: usize,
    /// Size parameter: `3m` traps of nominal size `m + 1` per line, `m²`
    /// lines.
    m: usize,
    lines: Vec<TrapChain>,
    graph: CubicGraph,
    routing: RoutingMode,
    /// State id of the extra state `X` (= `n`).
    x_id: State,
    /// Per rank state: index of its line.
    line_of: Vec<u32>,
}

/// Largest `m ≥ 1` with `3m³(m+1) ≤ n`.
fn line_m(n: usize) -> usize {
    let mut m = 1usize;
    while 3 * (m + 1).pow(3) * (m + 2) <= n {
        m += 1;
    }
    m
}

/// Settled state of one line under the Lemma 5 recursion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettledLine {
    /// Final inner occupancy `ᾱ_t` per trap (internal order, exit first).
    pub alpha: Vec<u32>,
    /// Final gate occupancy `δ̄_t ∈ {0, 1}` per trap.
    pub delta: Vec<u32>,
    /// Agents the line releases to `X` before settling: the surplus
    /// `s(C_l)`.
    pub released: u64,
}

impl LineOfTraps {
    /// Minimum population the construction supports (one line needs at
    /// least its three exit-side trap gates).
    pub const MIN_POPULATION: usize = 3;

    /// Build the protocol for population size `n`, choosing the largest
    /// `m` with `3m³(m+1) ≤ n` and scattering leftover states.
    ///
    /// # Panics
    ///
    /// Panics if `n < Self::MIN_POPULATION`.
    pub fn new(n: usize) -> Self {
        assert!(
            n >= Self::MIN_POPULATION,
            "line-of-traps needs n ≥ {} (got {n})",
            Self::MIN_POPULATION
        );
        Self::with_parameter(n, if n >= 6 { line_m(n) } else { 1 })
    }

    /// Build with an explicit size parameter `m` (`m²` lines of `3m`
    /// traps). Useful for controlled experiments.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n < 3m³` (not enough states for the gates).
    pub fn with_parameter(n: usize, m: usize) -> Self {
        assert!(m > 0, "parameter m must be positive");
        let num_lines = m * m;
        let traps_per_line = 3 * m;
        assert!(
            n >= num_lines * traps_per_line,
            "n = {n} cannot host {num_lines} lines of {traps_per_line} traps"
        );
        let per_line = distribute(n, num_lines);
        let mut lines = Vec::with_capacity(num_lines);
        let mut line_of = vec![0u32; n];
        let mut base = 0u32;
        for (l, &states) in per_line.iter().enumerate() {
            let chain = TrapChain::spread(traps_per_line, states as usize, base);
            for s in chain.base_id()..chain.end_id() {
                line_of[s as usize] = l as u32;
            }
            base = chain.end_id();
            lines.push(chain);
        }
        debug_assert_eq!(base as usize, n);
        LineOfTraps {
            n,
            m,
            lines,
            graph: CubicGraph::routing_graph(num_lines),
            routing: RoutingMode::CubicGraph,
            x_id: n as State,
            line_of,
        }
    }

    /// Replace the routing policy (ablation experiments). The paper's
    /// design is [`RoutingMode::CubicGraph`]; see [`RoutingMode`] for the
    /// degraded alternatives.
    pub fn with_routing(mut self, routing: RoutingMode) -> Self {
        self.routing = routing;
        self
    }

    /// The active routing policy.
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// Routing target line for an `X`-agent meeting an agent of line `l`,
    /// trap `t` (internal index).
    pub fn route_target(&self, l: usize, t: usize) -> usize {
        match self.routing {
            RoutingMode::CubicGraph => self.graph.neighbors(l)[self.pointer_group(t)],
            RoutingMode::SelfLoop => l,
            RoutingMode::NextLine => (l + 1) % self.num_lines(),
        }
    }

    /// Size parameter `m`.
    pub fn parameter_m(&self) -> usize {
        self.m
    }

    /// Number of lines (`m²`).
    pub fn num_lines(&self) -> usize {
        self.lines.len()
    }

    /// Traps per line (`3m`).
    pub fn traps_per_line(&self) -> usize {
        3 * self.m
    }

    /// State id of the extra state `X`.
    pub fn x_state(&self) -> State {
        self.x_id
    }

    /// The routing graph `G`.
    pub fn graph(&self) -> &CubicGraph {
        &self.graph
    }

    /// Layout of line `l`.
    pub fn line(&self, l: usize) -> &TrapChain {
        &self.lines[l]
    }

    /// Line index of a rank state.
    ///
    /// # Panics
    ///
    /// Panics if `s` is not a rank state.
    pub fn line_of(&self, s: State) -> usize {
        assert!((s as usize) < self.n, "state {s} is not a rank state");
        self.line_of[s as usize] as usize
    }

    /// Entrance gate (paper `(l, 3m, 0)`) of line `l`.
    pub fn entrance_gate(&self, l: usize) -> State {
        let chain = &self.lines[l];
        chain.gate(chain.num_traps() - 1)
    }

    /// Exit gate (paper `(l, 1, 0)`) of line `l`.
    pub fn exit_gate(&self, l: usize) -> State {
        self.lines[l].gate(0)
    }

    /// Which neighbour of its line a trap points to (`i ∈ {0,1,2}`,
    /// groups of `m` traps from the exit side).
    pub fn pointer_group(&self, t: usize) -> usize {
        (t / self.m).min(2)
    }

    /// Number of agents in line `l`.
    pub fn line_occupancy(&self, l: usize, counts: &[u32]) -> u64 {
        crate::trap::chain_occupancy(&self.lines[l], counts)
    }

    /// Per-trap `(β_t, γ_t)` vectors of line `l` (internal order, exit
    /// first): inner agents and gate agents.
    pub fn line_vectors(&self, l: usize, counts: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let chain = &self.lines[l];
        let mut beta = Vec::with_capacity(chain.num_traps());
        let mut gamma = Vec::with_capacity(chain.num_traps());
        for t in chain.traps() {
            gamma.push(counts[chain.gate(t) as usize]);
            let b: u32 = (1..chain.size(t))
                .map(|off| counts[chain.state(t, off) as usize])
                .sum();
            beta.push(b);
        }
        (beta, gamma)
    }

    /// Lemma 5: settle line `l` assuming no agents arrive at its entrance.
    /// The result depends only on the configuration, not on scheduling.
    pub fn settle_line(&self, l: usize, counts: &[u32]) -> SettledLine {
        let chain = &self.lines[l];
        let (beta, gamma) = self.line_vectors(l, counts);
        let traps = chain.num_traps();
        let mut alpha = vec![0u32; traps];
        let mut delta = vec![0u32; traps];
        let mut x: u64 = 0; // agents descending from the trap above
        for t in (0..traps).rev() {
            let cap = (chain.size(t) - 1) as u64;
            let b = beta[t] as u64;
            let y = x + gamma[t] as u64;
            if b + y / 2 <= cap {
                alpha[t] = (b + y / 2) as u32;
                delta[t] = (y % 2) as u32;
                x = y / 2;
            } else {
                alpha[t] = cap as u32;
                delta[t] = 1;
                x = b + y - cap - 1;
            }
        }
        SettledLine {
            alpha,
            delta,
            released: x,
        }
    }

    /// The paper's per-trap excess (token) vector `ρ` of line `l`.
    pub fn excess_vector(&self, l: usize, counts: &[u32]) -> Vec<u64> {
        let chain = &self.lines[l];
        let (beta, gamma) = self.line_vectors(l, counts);
        chain
            .traps()
            .map(|t| {
                let cap = (chain.size(t) - 1) as u64;
                let b = beta[t] as u64;
                let g = gamma[t] as u64;
                if b + g / 2 <= cap {
                    g / 2
                } else {
                    b + g - cap - 1
                }
            })
            .collect()
    }

    /// Line surplus `s(C_l)`: agents the line will release before settling.
    pub fn line_surplus(&self, l: usize, counts: &[u32]) -> u64 {
        self.settle_line(l, counts).released
    }

    /// Line token count `r(C_l) = Σ_t ρ_t`.
    pub fn line_tokens(&self, l: usize, counts: &[u32]) -> u64 {
        self.excess_vector(l, counts).iter().sum()
    }

    /// Global surplus `s(C) = |C_X| + Σ_l s(C_l)` — the paper's measure of
    /// global flow.
    pub fn surplus(&self, counts: &[u32]) -> u64 {
        counts[self.x_id as usize] as u64
            + (0..self.num_lines())
                .map(|l| self.line_surplus(l, counts))
                .sum::<u64>()
    }

    /// Global token count `r(C) = |C_X| + Σ_l r(C_l)`; satisfies
    /// `s(C) ≤ r(C)` and is non-increasing while no agents enter lines.
    pub fn tokens(&self, counts: &[u32]) -> u64 {
        counts[self.x_id as usize] as u64
            + (0..self.num_lines())
                .map(|l| self.line_tokens(l, counts))
                .sum::<u64>()
    }

    /// Global deficit `d(C) = Σ_l (states of line l − settled occupancy)`,
    /// the distance to the final configuration. Lemma 10: `d(C) = s(C)`.
    pub fn deficit(&self, counts: &[u32]) -> u64 {
        (0..self.num_lines())
            .map(|l| {
                let settled = self.settle_line(l, counts);
                let kept: u64 = settled
                    .alpha
                    .iter()
                    .zip(&settled.delta)
                    .map(|(&a, &d)| a as u64 + d as u64)
                    .sum();
                self.lines[l].num_states() as u64 - kept
            })
            .sum()
    }

    /// Lemma 2 tidiness over every trap of every line: within each trap,
    /// all overloaded inner states lie above all gaps. The paper's token
    /// and settling analysis (Lemmas 5–18) applies to tidy configurations.
    pub fn is_tidy(&self, counts: &[u32]) -> bool {
        self.lines
            .iter()
            .all(|chain| crate::trap::is_tidy(chain, counts))
    }

    /// Paper-style name of a state: `(l, a, b)` (1-based trap index from
    /// the exit as in the paper) or `X`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn describe_state(&self, s: State) -> String {
        if s == self.x_id {
            return "X".to_string();
        }
        let l = self.line_of(s);
        let (t, b) = self.lines[l].locate(s);
        if b == 0 {
            format!("line {l} trap {} gate", t + 1)
        } else {
            format!("line {l} trap {} inner {b}", t + 1)
        }
    }

    /// A line is *indicated* when more than `⅓` of the trap states
    /// pointing to it are occupied (paper: `> m(m+1)` of the `3m(m+1)`
    /// pointing states).
    pub fn indicated(&self, counts: &[u32]) -> Vec<bool> {
        let mut pointing_occupied = vec![0u64; self.num_lines()];
        let mut pointing_total = vec![0u64; self.num_lines()];
        for (l, chain) in self.lines.iter().enumerate() {
            for t in chain.traps() {
                let target = self.route_target(l, t);
                pointing_total[target] += chain.size(t) as u64;
                for b in 0..chain.size(t) {
                    if counts[chain.state(t, b) as usize] > 0 {
                        pointing_occupied[target] += 1;
                    }
                }
            }
        }
        pointing_occupied
            .iter()
            .zip(&pointing_total)
            .map(|(&occ, &tot)| 3 * occ > tot)
            .collect()
    }
}

impl Protocol for LineOfTraps {
    fn name(&self) -> &str {
        "line-of-traps (x = 1)"
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn num_states(&self) -> usize {
        self.n + 1
    }

    fn num_rank_states(&self) -> usize {
        self.n
    }

    #[inline]
    fn transition(&self, initiator: State, responder: State) -> Option<(State, State)> {
        if initiator == responder {
            if initiator == self.x_id {
                // X + X → X + (line 1 entrance).
                return Some((self.x_id, self.entrance_gate(0)));
            }
            let l = self.line_of[initiator as usize] as usize;
            let chain = &self.lines[l];
            let (t, b) = chain.locate(initiator);
            if b > 0 {
                // Inner descent.
                Some((initiator, initiator - 1))
            } else if t > 0 {
                // Gate: refill own top, pass one agent toward the exit.
                Some((chain.top(t), chain.gate(t - 1)))
            } else {
                // Exit gate releases to X.
                Some((chain.top(0), self.x_id))
            }
        } else if responder == self.x_id && initiator != self.x_id {
            // Routing: the rank initiator directs the X responder to the
            // entrance gate of the line its trap points at.
            let l = self.line_of[initiator as usize] as usize;
            let (t, _b) = self.lines[l].locate(initiator);
            let target = self.route_target(l, t);
            Some((initiator, self.entrance_gate(target)))
        } else {
            None
        }
    }
}

impl InteractionSchema for LineOfTraps {
    /// Three classes: trap descents on equal ranks, the `X + X` drift rule
    /// on every extra pair, and the routing rule `j + X` with the rank
    /// agent as initiator.
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        vec![
            ClassSpec::equal_rank(),
            ClassSpec::extra_extra(),
            ClassSpec::rank_extra(CrossDirection::RankInitiator),
        ]
    }

    fn equal_rank_rule(&self, _s: State) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::init::{self, DuplicatePlacement};
    use ssr_engine::protocol::validate_ranking_contract;
    use ssr_engine::rng::Xoshiro256;
    use ssr_engine::{CountSimulation, Engine};

    #[test]
    fn line_m_thresholds() {
        // 3m³(m+1): m=1 → 6, m=2 → 72, m=3 → 324.
        assert_eq!(line_m(6), 1);
        assert_eq!(line_m(71), 1);
        assert_eq!(line_m(72), 2);
    }

    #[test]
    fn parameter_choice_matches_formula() {
        // 3m³(m+1): m=1 → 6, m=2 → 72, m=3 → 324, m=4 → 960.
        assert_eq!(LineOfTraps::new(6).parameter_m(), 1);
        assert_eq!(LineOfTraps::new(71).parameter_m(), 1);
        assert_eq!(LineOfTraps::new(72).parameter_m(), 2);
        assert_eq!(LineOfTraps::new(323).parameter_m(), 2);
        assert_eq!(LineOfTraps::new(324).parameter_m(), 3);
        assert_eq!(LineOfTraps::new(960).parameter_m(), 4);
    }

    #[test]
    fn layout_counts() {
        let p = LineOfTraps::new(72);
        assert_eq!(p.num_lines(), 4);
        assert_eq!(p.traps_per_line(), 6);
        assert_eq!(p.num_states(), 73);
        assert_eq!(p.x_state(), 72);
        let total: usize = (0..4).map(|l| p.line(l).num_states()).sum();
        assert_eq!(total, 72);
    }

    #[test]
    fn contract_holds_various_n() {
        for n in [3usize, 4, 6, 10, 20, 72, 100, 150] {
            validate_ranking_contract(&LineOfTraps::new(n))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn rules_match_paper() {
        let p = LineOfTraps::new(6); // m=1: 1 line, 3 traps of size 2.
                                     // Line layout: trap 0 (exit) = states {0 gate, 1 top},
                                     // trap 1 = {2, 3}, trap 2 (entrance) = {4, 5}.
        assert_eq!(p.entrance_gate(0), 4);
        assert_eq!(p.exit_gate(0), 0);
        // Inner descent.
        assert_eq!(p.transition(1, 1), Some((1, 0)));
        // Gate of a middle trap: refill own top, pass down.
        assert_eq!(p.transition(2, 2), Some((3, 0)));
        // Exit gate releases to X.
        assert_eq!(p.transition(0, 0), Some((1, 6)));
        // X + X seeds line 0's entrance.
        assert_eq!(p.transition(6, 6), Some((6, 4)));
        // Rank + X routes to a neighbour's entrance (single line → itself).
        assert_eq!(p.transition(3, 6), Some((3, 4)));
        // X as initiator with a rank responder: no rule.
        assert_eq!(p.transition(6, 3), None);
    }

    #[test]
    fn pointer_groups_split_in_thirds() {
        let p = LineOfTraps::new(72); // m=2: 6 traps per line.
        let groups: Vec<usize> = (0..6).map(|t| p.pointer_group(t)).collect();
        assert_eq!(groups, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn stabilises_from_all_x_start() {
        for n in [6usize, 20, 72] {
            let p = LineOfTraps::new(n);
            let mut sim = CountSimulation::new(&p, vec![p.x_state(); n], n as u64)
                .unwrap()
                .with_batching(false);
            sim.run_until_silent(u64::MAX).unwrap();
            assert!(sim.counts()[..n].iter().all(|&c| c == 1), "n={n}");
            assert_eq!(sim.counts()[n], 0);
        }
    }

    #[test]
    fn stabilises_from_random_and_k_distant_starts() {
        let mut rng = Xoshiro256::seed_from_u64(55);
        for n in [6usize, 24, 72] {
            let p = LineOfTraps::new(n);
            for trial in 0..4 {
                let cfg = init::uniform_random(n, n + 1, &mut rng);
                let mut sim = CountSimulation::new(&p, cfg, trial)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX).unwrap();
                assert!(sim.is_silent(), "n={n} trial={trial}");
            }
            let cfg = init::k_distant(n, n / 3, DuplicatePlacement::Stacked, &mut rng);
            let mut sim = CountSimulation::new(&p, cfg, 99)
                .unwrap()
                .with_batching(false);
            sim.run_until_silent(u64::MAX).unwrap();
            assert!(sim.is_silent());
        }
    }

    #[test]
    fn settle_line_conserves_agents() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let p = LineOfTraps::new(72);
        for trial in 0..20 {
            let cfg = init::uniform_random(72, 73, &mut rng);
            let counts = init::counts(&cfg, 73);
            for l in 0..p.num_lines() {
                let settled = p.settle_line(l, &counts);
                let kept: u64 = settled
                    .alpha
                    .iter()
                    .zip(&settled.delta)
                    .map(|(&a, &d)| a as u64 + d as u64)
                    .sum();
                assert_eq!(
                    kept + settled.released,
                    p.line_occupancy(l, &counts),
                    "trial {trial} line {l}"
                );
                // δ̄ is 0/1 and ᾱ within capacity.
                for (t, (&a, &d)) in settled.alpha.iter().zip(&settled.delta).enumerate() {
                    assert!(d <= 1);
                    assert!(a < p.line(l).size(t));
                }
            }
        }
    }

    #[test]
    fn lemma_10_surplus_equals_deficit() {
        let mut rng = Xoshiro256::seed_from_u64(17);
        for n in [6usize, 30, 72, 100] {
            let p = LineOfTraps::new(n);
            for trial in 0..25 {
                let cfg = init::uniform_random(n, n + 1, &mut rng);
                let counts = init::counts(&cfg, n + 1);
                assert_eq!(
                    p.surplus(&counts),
                    p.deficit(&counts),
                    "n={n} trial={trial}"
                );
            }
        }
    }

    #[test]
    fn surplus_bounded_by_tokens() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let p = LineOfTraps::new(72);
        for trial in 0..25 {
            let cfg = init::uniform_random(72, 73, &mut rng);
            let counts = init::counts(&cfg, 73);
            assert!(
                p.surplus(&counts) <= p.tokens(&counts),
                "trial {trial}: s(C) > r(C)"
            );
        }
    }

    #[test]
    fn perfect_ranking_has_zero_surplus_tokens_deficit() {
        let p = LineOfTraps::new(72);
        let counts = init::counts(&init::perfect_ranking(72), 73);
        assert_eq!(p.surplus(&counts), 0);
        assert_eq!(p.tokens(&counts), 0);
        assert_eq!(p.deficit(&counts), 0);
        let indicated = p.indicated(&counts);
        assert!(indicated.iter().all(|&b| b), "full lines are indicated");
    }

    #[test]
    fn settled_silent_configuration_matches_simulation_of_closed_line() {
        // Run the closed single-line instance (m=1 has one line; its exit
        // feeds X, and X feeds back only via interactions we can reach).
        // We instead verify Lemma 5 on the full protocol: after global
        // stabilisation every line's settled vectors equal its actual
        // occupancy, with zero further release.
        let p = LineOfTraps::new(24);
        let mut sim = CountSimulation::new(&p, vec![p.x_state(); 24], 3)
            .unwrap()
            .with_batching(false);
        sim.run_until_silent(u64::MAX).unwrap();
        let counts = sim.counts();
        for l in 0..p.num_lines() {
            let settled = p.settle_line(l, counts);
            assert_eq!(settled.released, 0);
            let (beta, gamma) = p.line_vectors(l, counts);
            assert_eq!(settled.alpha, beta);
            assert_eq!(settled.delta, gamma);
        }
    }

    #[test]
    #[should_panic(expected = "n ≥ 3")]
    fn too_small_population_rejected() {
        LineOfTraps::new(2);
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;
    use ssr_engine::protocol::validate_ranking_contract;
    use ssr_engine::{CountSimulation, Engine};

    #[test]
    fn ablation_routings_satisfy_contract() {
        for mode in [
            RoutingMode::CubicGraph,
            RoutingMode::SelfLoop,
            RoutingMode::NextLine,
        ] {
            let p = LineOfTraps::new(72).with_routing(mode);
            validate_ranking_contract(&p).unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        }
    }

    #[test]
    fn route_targets_per_mode() {
        let p = LineOfTraps::new(72); // m = 2, 4 lines, 6 traps per line
        assert_eq!(p.route_target(1, 0), p.graph().neighbors(1)[0]);
        let p = p.with_routing(RoutingMode::SelfLoop);
        assert_eq!(p.route_target(1, 0), 1);
        assert_eq!(p.route_target(3, 5), 3);
        let p = p.with_routing(RoutingMode::NextLine);
        assert_eq!(p.route_target(3, 0), 0, "wraps around");
        assert_eq!(p.route_target(0, 4), 1);
    }

    #[test]
    fn degraded_routing_still_stabilises() {
        // Correctness (stability) is routing-independent; only speed
        // degrades. NextLine keeps full spreading, SelfLoop still seeds
        // line 0 through X + X and percolates from there.
        for mode in [RoutingMode::NextLine, RoutingMode::SelfLoop] {
            let p = LineOfTraps::new(24).with_routing(mode);
            let mut sim = CountSimulation::new(&p, vec![p.x_state(); 24], 3)
                .unwrap()
                .with_batching(false);
            sim.run_until_silent(u64::MAX)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(sim.is_silent(), "{mode:?}");
        }
    }
}

#[cfg(test)]
mod describe_tests {
    use super::*;

    #[test]
    fn state_names_follow_paper_coordinates() {
        let p = LineOfTraps::new(6); // 1 line, 3 traps of size 2
        assert_eq!(p.describe_state(0), "line 0 trap 1 gate");
        assert_eq!(p.describe_state(1), "line 0 trap 1 inner 1");
        assert_eq!(p.describe_state(4), "line 0 trap 3 gate");
        assert_eq!(p.describe_state(6), "X");
    }
}
