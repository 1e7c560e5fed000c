//! Agent traps (paper §2.1) and configuration inspection shared by the
//! ring (§3) and line (§4) protocols.
//!
//! A trap of size `m + 1` spans states `0..=m` of a [`TrapChain`] slot:
//! state `0` is the **gate**, states `1..=m` the **inner** states. Inner
//! states carry the rules `R_i : i + i → i + (i − 1)` (excess agents
//! descend toward the gate); the gate carries `R_g : 0 + 0 → m + Y` (one
//! agent refills the top inner state, the other is ejected to `Y` — the
//! next trap's gate, or the extra state `X`).
//!
//! [`TrapView`] computes the per-trap quantities the paper's analysis is
//! phrased in: *gaps*, *saturated*, *full*, *flat*, *surplus*, *tidy*, plus
//! the ring protocol's weight `K = k₁ + 2k₂` (Lemma 3).
//!
//! # Examples
//!
//! ```
//! use ssr_core::trap::TrapView;
//! use ssr_topology::TrapChain;
//!
//! let chain = TrapChain::uniform(1, 4, 0); // one trap: gate 0, inner 1..=3
//! let counts = [1u32, 0, 1, 2];            // gate 1, a gap at inner 1
//! let v = TrapView::read(&chain, 0, &counts);
//! assert_eq!(v.gaps, 1);
//! assert_eq!(v.occupancy, 4);
//! assert!(!v.is_saturated());
//! assert!(v.is_tidy()); // the overloaded inner state 3 is above the gap 1
//! ```

use ssr_topology::TrapChain;

/// Snapshot of a single trap's occupancy-derived quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrapView {
    /// Trap size (gate + inner states), `m + 1` in the paper.
    pub size: u32,
    /// Total agents in the trap (gate + inner).
    pub occupancy: u32,
    /// Agents in the gate state.
    pub gate_count: u32,
    /// Unoccupied inner states ("gaps").
    pub gaps: u32,
    /// Inner states occupied by at least two agents.
    pub overloaded_inner: u32,
    /// Agents in inner states.
    pub inner_agents: u32,
    /// Highest inner offset that is a gap (0 if none).
    highest_gap: u32,
    /// Lowest inner offset that is overloaded (`u32::MAX` if none).
    lowest_overload: u32,
}

impl TrapView {
    /// Read trap `t` of `chain` from per-state occupancy `counts`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range or `counts` does not cover the chain.
    pub fn read(chain: &TrapChain, t: usize, counts: &[u32]) -> Self {
        let size = chain.size(t);
        let gate_count = counts[chain.gate(t) as usize];
        let mut gaps = 0;
        let mut overloaded_inner = 0;
        let mut inner_agents = 0;
        let mut highest_gap = 0;
        let mut lowest_overload = u32::MAX;
        for b in 1..size {
            let c = counts[chain.state(t, b) as usize];
            inner_agents += c;
            if c == 0 {
                gaps += 1;
                highest_gap = b;
            } else if c >= 2 {
                overloaded_inner += 1;
                if lowest_overload == u32::MAX {
                    lowest_overload = b;
                }
            }
        }
        TrapView {
            size,
            occupancy: gate_count + inner_agents,
            gate_count,
            gaps,
            overloaded_inner,
            inner_agents,
            highest_gap,
            lowest_overload,
        }
    }

    /// Inner capacity `m` of the trap.
    pub fn inner_capacity(&self) -> u32 {
        self.size - 1
    }

    /// Saturated: no gaps among the inner states.
    pub fn is_saturated(&self) -> bool {
        self.gaps == 0
    }

    /// Full: saturated and at least `m + 1` agents occupy the trap
    /// (Fact 3: once full, a trap stays full).
    pub fn is_full(&self) -> bool {
        self.is_saturated() && self.occupancy >= self.size
    }

    /// Flat: no inner state holds more than one agent (Lemma 3).
    pub fn is_flat(&self) -> bool {
        self.overloaded_inner == 0
    }

    /// Surplus `l ≥ 0`: agents beyond `m + 1`; zero when not full-plus.
    pub fn surplus(&self) -> u32 {
        self.occupancy.saturating_sub(self.size)
    }

    /// Almost stabilised: full with exactly `m + 1` agents and an empty
    /// gate (every inner state holds agents, none at the gate).
    pub fn is_almost_stabilised(&self) -> bool {
        self.occupancy == self.size && self.is_saturated() && self.gate_count == 0
    }

    /// Fully stabilised: every state of the trap (gate included) is
    /// occupied by exactly one agent.
    pub fn is_fully_stabilised(&self) -> bool {
        self.occupancy == self.size && self.is_saturated() && self.gate_count == 1 && self.is_flat()
    }

    /// Tidy (§2.2): every overloaded inner state has a higher offset than
    /// every gap in this trap.
    pub fn is_tidy(&self) -> bool {
        self.gaps == 0 || self.overloaded_inner == 0 || self.lowest_overload > self.highest_gap
    }
}

/// Read all traps of a chain.
pub fn views(chain: &TrapChain, counts: &[u32]) -> Vec<TrapView> {
    chain
        .traps()
        .map(|t| TrapView::read(chain, t, counts))
        .collect()
}

/// A configuration restricted to a chain is *tidy* when every trap is tidy
/// (Lemma 2: tidiness is reached in time `O(mn)` whp and is absorbing).
pub fn is_tidy(chain: &TrapChain, counts: &[u32]) -> bool {
    chain
        .traps()
        .all(|t| TrapView::read(chain, t, counts).is_tidy())
}

/// Lemma 3's weight of a chain configuration: `K = k₁ + 2k₂` where `k₁`
/// counts flat traps with unoccupied gates and `k₂` the total gaps.
/// `K` never increases along the ring protocol's trajectories.
pub fn weight_k(chain: &TrapChain, counts: &[u32]) -> u64 {
    let mut k1 = 0u64;
    let mut k2 = 0u64;
    for t in chain.traps() {
        let v = TrapView::read(chain, t, counts);
        if v.is_flat() && v.gate_count == 0 {
            k1 += 1;
        }
        k2 += v.gaps as u64;
    }
    k1 + 2 * k2
}

/// Total agents across a chain.
pub fn chain_occupancy(chain: &TrapChain, counts: &[u32]) -> u64 {
    (chain.base_id()..chain.end_id())
        .map(|s| counts[s as usize] as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> TrapChain {
        TrapChain::uniform(1, 5, 0) // gate 0, inner 1..=4
    }

    #[test]
    fn empty_trap() {
        let c = chain();
        let v = TrapView::read(&c, 0, &[0, 0, 0, 0, 0]);
        assert_eq!(v.gaps, 4);
        assert_eq!(v.occupancy, 0);
        assert!(v.is_flat());
        assert!(!v.is_saturated());
        assert!(!v.is_full());
        assert!(v.is_tidy(), "no overloads → tidy");
        assert_eq!(v.surplus(), 0);
    }

    #[test]
    fn fully_stabilised_trap() {
        let c = chain();
        let v = TrapView::read(&c, 0, &[1, 1, 1, 1, 1]);
        assert!(v.is_fully_stabilised());
        assert!(v.is_full());
        assert!(v.is_flat());
        assert_eq!(v.surplus(), 0);
        assert!(!v.is_almost_stabilised(), "gate occupied");
    }

    #[test]
    fn almost_stabilised_trap() {
        let c = chain();
        // 5 agents, gate empty, one inner doubly occupied.
        let v = TrapView::read(&c, 0, &[0, 2, 1, 1, 1]);
        assert!(v.is_almost_stabilised());
        assert!(!v.is_fully_stabilised());
    }

    #[test]
    fn surplus_counts_extra_agents() {
        let c = chain();
        let v = TrapView::read(&c, 0, &[3, 1, 1, 1, 2]);
        assert_eq!(v.occupancy, 8);
        assert_eq!(v.surplus(), 3);
        assert!(v.is_full());
    }

    #[test]
    fn tidy_detection() {
        let c = chain();
        // Overload at inner 1, gap at inner 3: untidy.
        let v = TrapView::read(&c, 0, &[1, 2, 1, 0, 1]);
        assert!(!v.is_tidy());
        // Overload at inner 4, gap at inner 1: tidy.
        let v = TrapView::read(&c, 0, &[1, 0, 1, 1, 2]);
        assert!(v.is_tidy());
        // Equal position impossible (a state is a gap xor overloaded).
    }

    #[test]
    fn flatness_ignores_gate() {
        let c = chain();
        let v = TrapView::read(&c, 0, &[7, 1, 1, 0, 1]);
        assert!(v.is_flat(), "gate stacking does not unflatten a trap");
    }

    #[test]
    fn weight_k_cases() {
        let c = TrapChain::uniform(2, 3, 0); // two traps: ids 0..3, 3..6
                                             // Trap 0: flat, gate empty → k1 += 1; one gap → k2 += 1.
                                             // Trap 1: gate occupied, saturated, flat → contributes 0.
        let counts = [0u32, 1, 0, 1, 1, 1];
        assert_eq!(weight_k(&c, &counts), 1 + 2);
    }

    #[test]
    fn views_reads_all_traps() {
        let c = TrapChain::new(vec![2, 3], 0);
        let vs = views(&c, &[1, 1, 0, 2, 0]);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].occupancy, 2);
        assert_eq!(vs[1].occupancy, 2);
        assert_eq!(vs[1].gaps, 1);
    }

    #[test]
    fn chain_occupancy_sums() {
        let c = TrapChain::uniform(2, 2, 1); // ids 1..5
        let counts = [9u32, 1, 2, 0, 3, 9];
        assert_eq!(chain_occupancy(&c, &counts), 6);
    }

    #[test]
    fn is_tidy_over_chain() {
        let c = TrapChain::uniform(2, 3, 0);
        assert!(is_tidy(&c, &[1, 0, 2, 1, 1, 1]));
        assert!(!is_tidy(&c, &[1, 2, 0, 1, 1, 1]));
    }

    #[test]
    fn degenerate_size_one_trap_views() {
        let c = TrapChain::new(vec![1], 0);
        let v = TrapView::read(&c, 0, &[3]);
        assert_eq!(v.inner_capacity(), 0);
        assert!(v.is_saturated(), "no inner states → no gaps");
        assert!(v.is_full());
        assert_eq!(v.surplus(), 2);
        assert!(v.is_flat());
    }
}
