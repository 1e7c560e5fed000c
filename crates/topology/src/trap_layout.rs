//! State-id layouts for chains of agent traps (paper §2.1, §3.1, §4.1).
//!
//! A *trap* of size `s` occupies `s` consecutive state ids: offset `0` is
//! the **gate** state, offsets `1..s` the **inner** states (offset `s − 1`
//! is the *top* inner state that the gate rule refills). A [`TrapChain`]
//! lays several traps of (possibly different) sizes out consecutively and
//! provides O(1) id ↔ (trap, offset) conversions via a precomputed reverse
//! map.
//!
//! The paper's constructions use uniform trap size `m + 1` and population
//! sizes of the special forms `n = m(m+1)` (ring) and `n = 3m³(m+1)`
//! (lines); to support **arbitrary** `n` it scatters the leftover states
//! over the traps. [`distribute`] implements that scattering: parts as
//! equal as possible, larger parts first, preserving the `Θ(m)` trap-size
//! asymptotics.
//!
//! # Examples
//!
//! ```
//! use ssr_topology::trap_layout::TrapChain;
//!
//! // A ring of 3 traps of size 4 (m = 3): states 0..12.
//! let chain = TrapChain::uniform(3, 4, 0);
//! assert_eq!(chain.gate(1), 4);
//! assert_eq!(chain.top(1), 7);
//! assert_eq!(chain.locate(6), (1, 2));
//! ```

/// Split `total` into `parts` non-negative integers that are as equal as
/// possible (differing by at most one, larger parts first).
///
/// # Panics
///
/// Panics if `parts == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(ssr_topology::trap_layout::distribute(10, 3), vec![4, 3, 3]);
/// ```
pub fn distribute(total: usize, parts: usize) -> Vec<u32> {
    assert!(parts > 0, "cannot distribute over zero parts");
    let base = (total / parts) as u32;
    let rem = total % parts;
    (0..parts).map(|i| base + u32::from(i < rem)).collect()
}

/// A consecutive layout of traps with per-trap sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapChain {
    base_id: u32,
    sizes: Vec<u32>,
    /// `starts[t]` = first (gate) state id of trap `t`; `starts[m]` = end.
    starts: Vec<u32>,
    /// Reverse map: for local id `i` (0-based from `base_id`),
    /// `trap_of[i]` is the trap index.
    trap_of: Vec<u32>,
}

impl TrapChain {
    /// Build a chain from explicit per-trap sizes, with global state ids
    /// starting at `base_id`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or any size is zero.
    pub fn new(sizes: Vec<u32>, base_id: u32) -> Self {
        assert!(!sizes.is_empty(), "a trap chain needs at least one trap");
        assert!(
            sizes.iter().all(|&s| s > 0),
            "every trap needs at least its gate state"
        );
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut acc = base_id;
        let mut trap_of = Vec::new();
        for (t, &s) in sizes.iter().enumerate() {
            starts.push(acc);
            trap_of.extend(std::iter::repeat_n(t as u32, s as usize));
            acc += s;
        }
        starts.push(acc);
        TrapChain {
            base_id,
            sizes,
            starts,
            trap_of,
        }
    }

    /// Chain of `traps` traps, all of the same `size`.
    ///
    /// # Panics
    ///
    /// Panics if `traps == 0` or `size == 0`.
    pub fn uniform(traps: usize, size: u32, base_id: u32) -> Self {
        Self::new(vec![size; traps], base_id)
    }

    /// Chain of `traps` traps sharing `total_states` states distributed as
    /// equally as possible (paper's leftover scattering).
    ///
    /// # Panics
    ///
    /// Panics if `traps == 0` or `total_states < traps`.
    pub fn spread(traps: usize, total_states: usize, base_id: u32) -> Self {
        assert!(
            total_states >= traps,
            "need at least one state per trap ({traps} traps, {total_states} states)"
        );
        Self::new(distribute(total_states, traps), base_id)
    }

    /// Number of traps.
    pub fn num_traps(&self) -> usize {
        self.sizes.len()
    }

    /// Number of states spanned by the chain.
    pub fn num_states(&self) -> usize {
        (self.starts[self.sizes.len()] - self.base_id) as usize
    }

    /// First state id of the chain.
    pub fn base_id(&self) -> u32 {
        self.base_id
    }

    /// One past the last state id of the chain.
    pub fn end_id(&self) -> u32 {
        self.starts[self.sizes.len()]
    }

    /// Size (gate + inner states) of trap `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn size(&self, t: usize) -> u32 {
        self.sizes[t]
    }

    /// Gate state id of trap `t`.
    pub fn gate(&self, t: usize) -> u32 {
        self.starts[t]
    }

    /// Top inner state id of trap `t` (the state the gate rule refills).
    /// Equals the gate itself for degenerate size-1 traps (the paper's
    /// `m = 0` case).
    pub fn top(&self, t: usize) -> u32 {
        self.starts[t] + self.sizes[t] - 1
    }

    /// State id of trap `t`, offset `b` (0 = gate).
    ///
    /// # Panics
    ///
    /// Panics (in debug) if `b >= size(t)`.
    pub fn state(&self, t: usize, b: u32) -> u32 {
        debug_assert!(b < self.sizes[t]);
        self.starts[t] + b
    }

    /// True if `id` lies within this chain.
    pub fn contains(&self, id: u32) -> bool {
        id >= self.base_id && id < self.end_id()
    }

    /// `(trap, offset)` of a state id in the chain.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the chain.
    #[inline]
    pub fn locate(&self, id: u32) -> (usize, u32) {
        assert!(self.contains(id), "state {id} outside chain");
        let local = (id - self.base_id) as usize;
        let t = self.trap_of[local] as usize;
        (t, id - self.starts[t])
    }

    /// True if `id` is a gate state of this chain.
    pub fn is_gate(&self, id: u32) -> bool {
        self.contains(id) && {
            let (t, b) = self.locate(id);
            let _ = t;
            b == 0
        }
    }

    /// Iterator over trap indices.
    pub fn traps(&self) -> std::ops::Range<usize> {
        0..self.num_traps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribute_equalises() {
        assert_eq!(distribute(12, 4), vec![3, 3, 3, 3]);
        assert_eq!(distribute(13, 4), vec![4, 3, 3, 3]);
        assert_eq!(distribute(15, 4), vec![4, 4, 4, 3]);
        assert_eq!(distribute(0, 3), vec![0, 0, 0]);
        let d = distribute(1_000_003, 997);
        assert_eq!(d.iter().map(|&x| x as usize).sum::<usize>(), 1_000_003);
        let (min, max) = (d.iter().min().unwrap(), d.iter().max().unwrap());
        assert!(max - min <= 1);
    }

    #[test]
    fn uniform_chain_ids() {
        let c = TrapChain::uniform(4, 3, 10);
        assert_eq!(c.num_states(), 12);
        assert_eq!(c.base_id(), 10);
        assert_eq!(c.end_id(), 22);
        assert_eq!(c.gate(0), 10);
        assert_eq!(c.top(0), 12);
        assert_eq!(c.gate(3), 19);
        assert_eq!(c.state(2, 1), 17);
    }

    #[test]
    fn locate_roundtrips_every_state() {
        let c = TrapChain::new(vec![1, 4, 2, 7], 5);
        for t in c.traps() {
            for b in 0..c.size(t) {
                let id = c.state(t, b);
                assert_eq!(c.locate(id), (t, b));
                assert_eq!(c.is_gate(id), b == 0);
            }
        }
    }

    #[test]
    fn degenerate_size_one_trap() {
        let c = TrapChain::new(vec![1], 0);
        assert_eq!(c.gate(0), 0);
        assert_eq!(c.top(0), 0, "top == gate for the m = 0 trap");
    }

    #[test]
    fn spread_covers_total() {
        let c = TrapChain::spread(7, 30, 100);
        assert_eq!(c.num_states(), 30);
        assert_eq!(c.num_traps(), 7);
        let sizes: Vec<u32> = c.traps().map(|t| c.size(t)).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 30);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    #[should_panic(expected = "at least one state per trap")]
    fn spread_rejects_too_few_states() {
        TrapChain::spread(5, 4, 0);
    }

    #[test]
    #[should_panic(expected = "outside chain")]
    fn locate_rejects_foreign_ids() {
        TrapChain::uniform(2, 2, 0).locate(4);
    }

    #[test]
    fn contains_boundaries() {
        let c = TrapChain::uniform(2, 3, 7);
        assert!(!c.contains(6));
        assert!(c.contains(7));
        assert!(c.contains(12));
        assert!(!c.contains(13));
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn chains_tile_disjointly() {
        // Consecutive chains with increasing base ids partition a range.
        let a = TrapChain::spread(3, 10, 0);
        let b = TrapChain::spread(4, 12, a.end_id());
        assert_eq!(a.end_id(), 10);
        assert_eq!(b.base_id(), 10);
        assert_eq!(b.end_id(), 22);
        for id in 0..22u32 {
            let in_a = a.contains(id);
            let in_b = b.contains(id);
            assert!(in_a ^ in_b, "id {id} must be in exactly one chain");
        }
    }

    #[test]
    fn distribute_single_part() {
        assert_eq!(distribute(7, 1), vec![7]);
    }

    #[test]
    #[should_panic(expected = "zero parts")]
    fn distribute_rejects_zero_parts() {
        distribute(5, 0);
    }

    #[test]
    fn traps_iterator_covers_all() {
        let c = TrapChain::uniform(5, 2, 0);
        assert_eq!(c.traps().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gate_top_relationship() {
        let c = TrapChain::new(vec![3, 1, 5], 0);
        for t in c.traps() {
            assert_eq!(c.top(t) - c.gate(t) + 1, c.size(t));
            assert!(c.is_gate(c.gate(t)));
            if c.size(t) > 1 {
                assert!(!c.is_gate(c.top(t)));
            }
        }
    }
}
