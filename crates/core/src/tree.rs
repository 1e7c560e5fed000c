//! The `O(n log n)` ranking protocol with `O(log n)` extra states
//! (paper §5).
//!
//! The `n` rank states are the pre-order nodes of a perfectly balanced
//! binary *tree of ranks*; the `2k = O(log n)` extra states form a buffer
//! line `X₁ … X₂ₖ`, split into a **red** half (`i ≤ k`, reset in progress)
//! and a **green** half (`i > k`, reset finished, re-enter the tree). The
//! rules:
//!
//! ```text
//! R1: p + p → p + (p+1)                 p non-branching
//!     p + p → (p+1) + (p+l+1)           p branching (half-size l)
//! R2: l + l → X₁ + X₁                   l a leaf (reset signal)
//! R3: Xᵢ + Xⱼ → Xᵢ₊₁ + Xᵢ₊₁             i ≤ j, i < 2k (buffer epidemic)
//! R4: Xᵢ + j → X₁ + X₁                  i ≤ k  (red: unload the tree)
//!     Xᵢ + j → 0 + j                    i > k  (green: re-enter at root)
//! R5: X₂ₖ + X₂ₖ → 0 + 0
//! ```
//!
//! `R1` disperses agents down the tree (each branching interaction sends
//! one agent to each child); if the initial configuration was *balanced*
//! this silently ranks everyone in `O(n log n)` (Lemmas 19–20). Otherwise
//! some leaf overloads, `R2` raises the reset signal, and an `O(log n)`
//! epidemic (`R3`/`R4`, Lemma 21) sweeps every agent into the buffer line
//! and back to the root, after which dispersal succeeds. Total:
//! `O(n log n)` whp with `x = O(log n)` extra states (Theorem 3).
//!
//! The buffer rules are symmetric in the pair (the paper states them on
//! unordered pairs); `R3` moves **both** agents to `X_{min(i,j)+1}`.
//!
//! # Examples
//!
//! ```
//! use ssr_core::tree::TreeRanking;
//! use ssr_engine::{CountSimulation, Engine, Protocol};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = TreeRanking::new(100);
//! assert_eq!(p.num_extra_states(), 2 * p.buffer_half());
//! let mut sim = CountSimulation::new(&p, vec![0; 100], 9)?.with_batching(false);
//! sim.run_until_silent(u64::MAX)?;
//! assert!(sim.is_silent());
//! # Ok(())
//! # }
//! ```

use ssr_engine::protocol::{ClassSpec, CrossDirection, InteractionSchema, Protocol, State};
use ssr_topology::{BalancedTree, NodeKind};

/// Tree-of-ranks protocol instance for a population of `n` agents.
#[derive(Debug, Clone)]
pub struct TreeRanking {
    n: usize,
    /// Half-length `k` of the buffer line (red states `X₁..X_k`, green
    /// `X_{k+1}..X_{2k}`).
    k: usize,
    /// §5's *modified protocol* analysis device: treat every buffer state
    /// as green (`R4` always re-enters at the root, `R2` still fires but
    /// its output is immediately green). The paper compares the real
    /// protocol against this variant in the proof of Theorem 3.
    modified: bool,
    tree: BalancedTree,
    /// For each block of [`ANCESTOR_BLOCK`] consecutive rank states, the
    /// deepest tree node whose subtree holds the whole block, as `(id,
    /// subtree size)` ([`BalancedTree::block_ancestors`]): `R1`/`R2` find a
    /// node's subtree size by descending from there instead of from the
    /// root. 8 bytes per block, `n/8` bytes in all.
    ancestors: Vec<(u32, u32)>,
}

/// Rank states per entry of [`TreeRanking`]'s ancestor table.
const ANCESTOR_BLOCK: usize = 64;

impl TreeRanking {
    /// Build the protocol for population `n` with the default buffer
    /// half-length `k = max(2, 2⌈log₂ n⌉)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let k = ((n.max(2) as f64).log2().ceil() as usize * 2).max(2);
        Self::with_buffer(n, k)
    }

    /// Build with an explicit buffer half-length `k ≥ 1` (`2k` extra
    /// states).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `k == 0`.
    pub fn with_buffer(n: usize, k: usize) -> Self {
        assert!(n > 0, "population must be non-empty");
        assert!(k > 0, "buffer half-length must be positive");
        let tree = BalancedTree::new(n);
        TreeRanking {
            n,
            k,
            modified: false,
            ancestors: tree.block_ancestors(ANCESTOR_BLOCK),
            tree,
        }
    }

    /// Switch to the §5 *modified protocol* in which every buffer state is
    /// treated as green: `R4` always relocates the buffered agent to the
    /// root instead of propagating a red reset. The paper's Theorem 3
    /// proof couples the real protocol to this variant; from a balanced
    /// configuration the two behave identically until the first red
    /// interaction.
    pub fn as_modified(mut self) -> Self {
        self.modified = true;
        self
    }

    /// True when this instance runs the modified (all-green) variant.
    pub fn is_modified(&self) -> bool {
        self.modified
    }

    /// The buffer half-length `k`.
    pub fn buffer_half(&self) -> usize {
        self.k
    }

    /// The tree of ranks.
    pub fn tree(&self) -> &BalancedTree {
        &self.tree
    }

    /// State id of `X_i` (`1 ≤ i ≤ 2k`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is outside `1..=2k`.
    pub fn x(&self, i: usize) -> State {
        assert!((1..=2 * self.k).contains(&i), "X index {i} out of range");
        (self.n + i - 1) as State
    }

    /// Buffer index `i` of an extra state (`1..=2k`).
    ///
    /// # Panics
    ///
    /// Panics if `s` is a rank state.
    pub fn x_index(&self, s: State) -> usize {
        assert!((s as usize) >= self.n, "state {s} is a rank state");
        s as usize - self.n + 1
    }

    /// True when `X_i` belongs to the red (reset-propagating) half.
    pub fn is_red(&self, i: usize) -> bool {
        i <= self.k
    }

    /// Deterministic outcome of running only the dispersal rule `R1` (with
    /// every buffered agent first moved to the root): the number of agents
    /// that settle at each rank state. The flow is scheduling-independent:
    /// a non-branching node keeps one agent and passes the rest down; a
    /// branching node keeps `arrivals mod 2` and sends `⌊arrivals/2⌋` to
    /// each child; leaves keep everything that reaches them.
    pub fn dispersal_flow(&self, counts: &[u32]) -> Vec<u64> {
        let mut arrive = vec![0u64; self.n];
        arrive[0] = counts[self.n..].iter().map(|&c| c as u64).sum();
        for (p, &c) in counts[..self.n].iter().enumerate() {
            arrive[p] += c as u64;
        }
        let mut settled = vec![0u64; self.n];
        // Walk nodes 0..n in pre-order (= id order), tracking each node's
        // subtree size with a stack of pending right-subtree sizes rather
        // than one O(log n) geometry descent per node: O(n) total, and no
        // per-node queries against the (implicit) tree.
        let mut size = self.n;
        let mut pending: Vec<usize> = Vec::with_capacity(self.tree.height() as usize + 1);
        for p in 0..self.n {
            let a = arrive[p];
            if size == 1 {
                // Leaf: keeps everything that reaches it.
                settled[p] = a;
                size = pending.pop().unwrap_or(0);
            } else if size.is_multiple_of(2) {
                // Non-branching: keep one, pass the rest down the chain.
                settled[p] = a.min(1);
                if a > 1 {
                    arrive[p + 1] += a - 1;
                }
                size -= 1;
            } else {
                // Branching: keep the parity bit, split the rest in half.
                settled[p] = a % 2;
                let l = (size - 1) / 2;
                let half = a / 2;
                if half > 0 {
                    arrive[p + 1] += half;
                    arrive[p + l + 1] += half;
                }
                pending.push(l);
                size = l;
            }
        }
        settled
    }

    /// A configuration is *balanced* when the dispersal flow settles
    /// exactly one agent at every rank state — i.e. rule `R1` alone will
    /// silently rank the population without triggering a reset.
    pub fn is_balanced(&self, counts: &[u32]) -> bool {
        self.dispersal_flow(counts).iter().all(|&c| c == 1)
    }

    /// Paper-style name of a state: tree node kind and depth, or the
    /// buffer state `Xᵢ` with its colour.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn describe_state(&self, s: State) -> String {
        if (s as usize) < self.n {
            let p = s as usize;
            let kind = match self.tree.kind(p) {
                NodeKind::Branching => "branching",
                NodeKind::NonBranching => "non-branching",
                NodeKind::Leaf => "leaf",
            };
            format!("node {p} ({kind}, depth {})", self.tree.depth(p))
        } else {
            let i = self.x_index(s);
            format!("X{} ({})", i, if self.is_red(i) { "red" } else { "green" })
        }
    }
}

impl Protocol for TreeRanking {
    fn name(&self) -> &str {
        "tree-of-ranks (x = O(log n))"
    }

    fn population_size(&self) -> usize {
        self.n
    }

    fn num_states(&self) -> usize {
        self.n + 2 * self.k
    }

    fn num_rank_states(&self) -> usize {
        self.n
    }

    #[inline]
    fn transition(&self, initiator: State, responder: State) -> Option<(State, State)> {
        let nr = self.n as State;
        match (initiator < nr, responder < nr) {
            (true, true) => {
                if initiator != responder || self.n == 1 {
                    return None;
                }
                let p = initiator as usize;
                // One descent from the deepest node above p's whole block:
                // the node kind and the branching half-size both derive
                // from the subtree size.
                let (q, size) = self.ancestors[p / ANCESTOR_BLOCK];
                let s = self.tree.subtree_size_from((q as usize, size as usize), p);
                if s == 1 {
                    // R2: leaf overload raises the reset signal.
                    Some((self.x(1), self.x(1)))
                } else if s.is_multiple_of(2) {
                    // R1 on a non-branching node.
                    Some((initiator, initiator + 1))
                } else {
                    // R1 on a branching node: both agents descend.
                    let l = ((s - 1) / 2) as State;
                    Some((initiator + 1, initiator + l + 1))
                }
            }
            (false, false) => {
                // R3 / R5 on the buffer line.
                let i = self.x_index(initiator);
                let j = self.x_index(responder);
                let low = i.min(j);
                if low == 2 * self.k {
                    Some((0, 0)) // R5
                } else {
                    let next = self.x(low + 1);
                    Some((next, next)) // R3
                }
            }
            (true, false) => {
                // R4 with the rank agent as initiator.
                let i = self.x_index(responder);
                if self.is_red(i) && !self.modified {
                    Some((self.x(1), self.x(1)))
                } else {
                    Some((initiator, 0))
                }
            }
            (false, true) => {
                // R4 with the buffered agent as initiator.
                let i = self.x_index(initiator);
                if self.is_red(i) && !self.modified {
                    Some((self.x(1), self.x(1)))
                } else {
                    Some((0, responder))
                }
            }
        }
    }
}

impl InteractionSchema for TreeRanking {
    /// Three classes: dispersal/reset on equal ranks (`R1`/`R2`), the
    /// buffer epidemic on every extra pair (`R3`/`R5`), and the symmetric
    /// unload/re-enter cross rule (`R4`).
    fn interaction_classes(&self) -> Vec<ClassSpec> {
        vec![
            ClassSpec::equal_rank(),
            ClassSpec::extra_extra(),
            ClassSpec::rank_extra(CrossDirection::Both),
        ]
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
    fn contract_holds_various_n_and_k() {
        for n in [2usize, 3, 9, 10, 16, 33, 100] {
            validate_ranking_contract(&TreeRanking::new(n))
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
        validate_ranking_contract(&TreeRanking::with_buffer(9, 1)).unwrap();
    }

    #[test]
    fn default_buffer_is_logarithmic() {
        assert_eq!(TreeRanking::new(1024).buffer_half(), 20);
        assert!(TreeRanking::new(2).buffer_half() >= 2);
    }

    #[test]
    fn rules_match_paper_for_figure_2_tree() {
        let p = TreeRanking::with_buffer(9, 2); // X₁..X₄ = states 9..13
                                                // R1 branching at the root (half 4): 0+0 → 1 + 5.
        assert_eq!(p.transition(0, 0), Some((1, 5)));
        // R1 non-branching: 1+1 → 1 + 2.
        assert_eq!(p.transition(1, 1), Some((1, 2)));
        // R2 at a leaf: 3+3 → X₁ + X₁.
        assert_eq!(p.transition(3, 3), Some((9, 9)));
        // R3: X₁ + X₂ → X₂ + X₂ (both to min+1).
        assert_eq!(p.transition(9, 10), Some((10, 10)));
        assert_eq!(p.transition(10, 9), Some((10, 10)));
        // R3 with i = j: X₂ + X₂ → X₃ + X₃.
        assert_eq!(p.transition(10, 10), Some((11, 11)));
        // R5: X₄ + X₄ → 0 + 0 (k = 2 ⇒ 2k = 4).
        assert_eq!(p.transition(12, 12), Some((0, 0)));
        // R4 red: X₁ + rank → X₁ + X₁ (rank agent reset).
        assert_eq!(p.transition(9, 4), Some((9, 9)));
        assert_eq!(p.transition(4, 9), Some((9, 9)));
        // R4 green: X₄ + rank → 0 + rank.
        assert_eq!(p.transition(12, 4), Some((0, 4)));
        assert_eq!(p.transition(4, 12), Some((4, 0)));
        // Distinct ranks never interact.
        assert_eq!(p.transition(3, 4), None);
    }

    /// `R1`/`R2` read a node's subtree size from its block's ancestor;
    /// it must be the size a descent from the root finds, at every node
    /// of trees with no full block, a one-leaf last block, whole blocks
    /// only and a partial last block.
    #[test]
    fn equal_rank_rule_reads_root_descent_sizes() {
        for n in [2usize, 63, 64, 65, 129, 4096, 5000] {
            let p = TreeRanking::with_buffer(n, 2);
            for s in 0..n {
                let size = p.tree().subtree_size(s);
                let s = s as State;
                let expect = if size == 1 {
                    (p.x(1), p.x(1))
                } else if size.is_multiple_of(2) {
                    (s, s + 1)
                } else {
                    (s + 1, s + (size as State - 1) / 2 + 1)
                };
                assert_eq!(p.transition(s, s), Some(expect), "n={n} s={s}");
            }
        }
    }

    #[test]
    fn dispersal_flow_from_root_is_perfect() {
        // Lemma 19: all agents at the root disperse to a perfect ranking.
        for n in [1usize, 2, 5, 9, 16, 33, 100, 127] {
            let p = TreeRanking::new(n);
            let mut counts = vec![0u32; p.num_states()];
            counts[0] = n as u32;
            let settled = p.dispersal_flow(&counts);
            assert!(settled.iter().all(|&c| c == 1), "n={n}: {settled:?}");
            assert!(p.is_balanced(&counts));
        }
    }

    #[test]
    fn perfect_ranking_is_balanced() {
        let p = TreeRanking::new(20);
        let counts = init::counts(&init::perfect_ranking(20), p.num_states());
        assert!(p.is_balanced(&counts));
    }

    #[test]
    fn leaf_stack_is_not_balanced() {
        let p = TreeRanking::new(9);
        let mut counts = vec![0u32; p.num_states()];
        counts[3] = 9; // all on a leaf
        assert!(!p.is_balanced(&counts));
    }

    #[test]
    fn buffered_agents_count_as_root_arrivals_in_flow() {
        let p = TreeRanking::with_buffer(9, 2);
        let mut counts = vec![0u32; p.num_states()];
        counts[p.x(1) as usize] = 4;
        counts[p.x(4) as usize] = 5;
        let settled = p.dispersal_flow(&counts);
        assert!(settled.iter().all(|&c| c == 1));
    }

    type StartGen = Box<dyn Fn(&TreeRanking) -> Vec<u32>>;

    #[test]
    fn stabilises_from_adversarial_starts() {
        let starts: Vec<(&str, StartGen)> = vec![
            (
                "all at root",
                Box::new(|p: &TreeRanking| vec![0; p.population_size()]),
            ),
            (
                "all on a leaf",
                Box::new(|p: &TreeRanking| {
                    let leaf = p.tree().leaves_iter().next().unwrap() as u32;
                    vec![leaf; p.population_size()]
                }),
            ),
            (
                "all red X₁",
                Box::new(|p: &TreeRanking| vec![p.x(1); p.population_size()]),
            ),
            (
                "all green X₂ₖ",
                Box::new(|p: &TreeRanking| vec![p.x(2 * p.buffer_half()); p.population_size()]),
            ),
        ];
        for n in [2usize, 9, 31, 64] {
            let p = TreeRanking::new(n);
            for (name, make) in &starts {
                let cfg = make(&p);
                let mut sim = CountSimulation::new(&p, cfg, n as u64)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX).unwrap();
                assert!(
                    sim.counts()[..n].iter().all(|&c| c == 1),
                    "n={n} start={name}"
                );
            }
        }
    }

    #[test]
    fn stabilises_from_uniform_random_starts() {
        let mut rng = Xoshiro256::seed_from_u64(71);
        for n in [5usize, 17, 50] {
            let p = TreeRanking::new(n);
            for trial in 0..5 {
                let cfg = init::uniform_random(n, p.num_states(), &mut rng);
                let mut sim = CountSimulation::new(&p, cfg, trial)
                    .unwrap()
                    .with_batching(false);
                sim.run_until_silent(u64::MAX).unwrap();
                assert!(sim.is_silent(), "n={n} trial={trial}");
            }
        }
    }

    #[test]
    fn naive_simulation_verifies_silence() {
        let p = TreeRanking::new(16);
        let mut sim = Simulation::new(&p, vec![p.x(1); 16], 5).unwrap();
        sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.verify_silent());
        assert!(init::is_perfect_ranking(sim.agents(), 16));
    }

    #[test]
    fn reset_epidemic_turns_population_red() {
        // Start balanced except one agent in X₁; the red epidemic must at
        // some point move every agent out of the tree (Lemma 21's first
        // phase) before re-ranking. We verify the end state is a perfect
        // ranking and that at least one R4-red interaction occurred.
        let p = TreeRanking::new(12);
        let mut cfg: Vec<u32> = (0..12).collect();
        cfg[11] = p.x(1);
        let mut sim = Simulation::new(&p, cfg, 31).unwrap();
        sim.run_until_silent(u64::MAX).unwrap();
        assert!(init::is_perfect_ranking(sim.agents(), 12));
    }

    #[test]
    fn x_index_roundtrip() {
        let p = TreeRanking::with_buffer(10, 3);
        for i in 1..=6 {
            assert_eq!(p.x_index(p.x(i)), i);
            assert_eq!(p.is_red(i), i <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn x_rejects_zero_index() {
        TreeRanking::with_buffer(5, 2).x(0);
    }
}

#[cfg(test)]
mod modified_tests {
    use super::*;
    use ssr_engine::init;
    use ssr_engine::protocol::validate_ranking_contract;
    use ssr_engine::rng::Xoshiro256;
    use ssr_engine::{CountSimulation, Engine};

    #[test]
    fn modified_variant_satisfies_contract() {
        for n in [2usize, 9, 33] {
            validate_ranking_contract(&TreeRanking::new(n).as_modified())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn modified_always_reenters_at_root() {
        let p = TreeRanking::with_buffer(9, 2).as_modified();
        assert!(p.is_modified());
        // Red X₁ meeting a rank agent relocates to the root instead of
        // resetting.
        assert_eq!(p.transition(4, p.x(1)), Some((4, 0)));
        assert_eq!(p.transition(p.x(1), 4), Some((0, 4)));
        // Buffer-line dynamics (R3/R5) are unchanged.
        assert_eq!(p.transition(p.x(1), p.x(2)), Some((p.x(2), p.x(2))));
        assert_eq!(p.transition(p.x(4), p.x(4)), Some((0, 0)));
    }

    /// The paper's exact claim for the modified protocol (proof of
    /// Theorem 3): from a balanced configuration it reaches the silent
    /// ranking in `O(n log n)` whp; from a non-balanced one it *overloads
    /// a leaf* in `O(n log n)` whp instead — it is an analysis device, not
    /// a self-stabilising protocol, and from unbalanced starts it cycles
    /// forever (the real protocol's red reset is what breaks the cycle).
    #[test]
    fn modified_reaches_silence_or_leaf_overload_quickly() {
        let mut rng = Xoshiro256::seed_from_u64(91);
        for n in [9usize, 25, 64] {
            let p = TreeRanking::new(n).as_modified();
            for trial in 0..4 {
                let cfg = init::uniform_random(n, Protocol::num_states(&p), &mut rng);
                let mut sim = CountSimulation::new(&p, cfg, trial)
                    .unwrap()
                    .with_batching(false);
                // Generous O(n log n)-parallel cap, in interactions.
                let cap = 200 * (n as u64) * (n as u64) * (n.ilog2() as u64 + 1);
                let mut outcome = None;
                while sim.interactions() < cap {
                    if sim.is_silent() {
                        outcome = Some("silent");
                        break;
                    }
                    if p.tree().leaves_iter().any(|l| sim.counts()[l] >= 2) {
                        outcome = Some("leaf overload");
                        break;
                    }
                    sim.advance();
                }
                assert!(
                    outcome.is_some(),
                    "n={n} trial={trial}: neither silence nor a leaf \
                     overload within the O(n log n) window"
                );
            }
        }
    }

    #[test]
    fn real_and_modified_agree_from_balanced_starts() {
        // From a balanced (all-at-root) start the real protocol never
        // touches the reset machinery, so its stabilisation-time
        // distribution matches the modified protocol's. Compare means.
        let n = 24;
        let real = TreeRanking::new(n);
        let modified = TreeRanking::new(n).as_modified();
        let mean = |p: &TreeRanking, seed0: u64| -> f64 {
            let trials = 200u64;
            let total: u64 = (0..trials)
                .map(|t| {
                    let mut s = CountSimulation::new(p, vec![0; n], seed0 + t)
                        .unwrap()
                        .with_batching(false);
                    s.run_until_silent(u64::MAX).unwrap().interactions
                })
                .sum();
            total as f64 / trials as f64
        };
        let a = mean(&real, 1000);
        let b = mean(&modified, 2000);
        let rel = (a - b).abs() / a;
        assert!(rel < 0.1, "real {a:.0} vs modified {b:.0}");
    }
}

#[cfg(test)]
mod describe_tests {
    use super::*;

    #[test]
    fn state_names_follow_tree_and_buffer() {
        let p = TreeRanking::with_buffer(9, 2);
        assert_eq!(p.describe_state(0), "node 0 (branching, depth 0)");
        assert_eq!(p.describe_state(1), "node 1 (non-branching, depth 1)");
        assert_eq!(p.describe_state(3), "node 3 (leaf, depth 3)");
        assert_eq!(p.describe_state(p.x(1)), "X1 (red)");
        assert_eq!(p.describe_state(p.x(4)), "X4 (green)");
    }
}
