//! Sparse pairs: a two-level hierarchy.
//!
//! The enumerated sparse pairs are stored **grouped by initiator state**:
//! [`CompiledSchema::compile`] reorders `pairs` so each initiator's pairs
//! are contiguous (`group_off` delimits the groups, CSR-style), and
//! [`SparseState`] keeps one small [`WeightTree`] per group plus a
//! top-level tree over group totals. Because the groups tile the pair
//! index space contiguously in ascending order, descending the top tree
//! and then a group tree visits the identical prefix-sum order as one
//! flat tree over all pairs — sampling stays a single RNG draw and the
//! batch splitter can carve the sparse class into **per-group split
//! tasks** that run in parallel yet merge deterministically.
//!
//! Alongside the trees, `SparseState` maintains the per-pair drift
//! statistics the count engine's batch sizing needs, *incrementally* under
//! every count change: exact per-state partner sums
//! (`Σ_(pairs touching s) c_partner`) and two lazily-refreshed maxima —
//! the largest per-pair scale `max(c_a, c_b)` and the largest partner sum
//! — kept as *stale-high* bounds with the same eager-grow/lazy-shrink
//! discipline as `max_eq_bound` and its refresh. That replaces the old
//! per-batch `O(Σ deg)` full rescan (`sparse_partner_scale`) with an
//! `O(deg(s))` walk per count change and an occasional exact refresh.
//!
//! The walk goes over `s`'s **partner row**
//! ([`CompiledSchema::partner_row`], a CSR): one entry per distinct
//! off-diagonal partner `t`, carrying the
//! indices of `(s, t)` and `(t, s)` where declared, plus `s`'s diagonal
//! pair apart. A rule set declared in both directions (loose election's
//! ~19k pairs over 138 states, say) is visited once per partner, not once
//! per pair. The walk has two parts:
//!
//! - the *drift* part (partner sums, both bounds) runs on every count
//!   change, because the bounds must see every intermediate occupancy. A
//!   fall only lowers partner sums, and the pair-scale bound needs the row
//!   only when `s` was empty or its new count exceeds the bound;
//! - the *re-weighting* part (pair-tree leaves, group totals, the
//!   occupied-pair count) is the expensive one: one `c_s·c_t` per partner
//!   sets both directions' leaves.

use super::schema::{CompiledSchema, ABSENT};
use super::tree::{eq_weight_of, WeightTree};
use crate::protocol::State;
use crate::rng::Xoshiro256;

/// Weight of one enumerated ordered state pair under `counts`.
#[inline]
pub(super) fn pair_weight(counts: &[u32], a: State, b: State) -> u64 {
    let ca = counts[a as usize] as u64;
    if a == b {
        ca * ca.saturating_sub(1)
    } else {
        ca * counts[b as usize] as u64
    }
}

/// Relative drift scale of one enumerated pair: `w_p / min(c_a, c_b)`,
/// i.e. `max(c_a, c_b)` off the diagonal and `c − 1` on it. Capping the
/// expected batch draws of every pair at `min(c_a, c_b)/8` is exactly
/// `b ≤ W / (8·max_p pair_scale)`.
#[inline]
fn pair_scale(counts: &[u32], a: State, b: State) -> u64 {
    if a == b {
        (counts[a as usize] as u64).saturating_sub(1)
    } else {
        counts[a as usize].max(counts[b as usize]) as u64
    }
}

/// Two-level weight hierarchy over the enumerated sparse pairs, plus the
/// incrementally-maintained drift statistics that price a batch.
///
/// Pairs are laid out group-contiguously by [`CompiledSchema::compile`]
/// (one group per initiator state); `trees[g]` holds group `g`'s pair
/// weights under local indices and `groups` mirrors each `trees[g].total()`
/// as leaf `g`. Because groups tile the pair index space in order, the
/// concatenated prefix-sum order of the hierarchy equals that of one flat
/// [`WeightTree`] over all pairs — sampling is draw-for-draw identical to
/// the flat layout it replaces, and a batch can be split *per group* as
/// independent tasks.
///
/// The drift side replaces the count engine's former per-batch `O(Σ deg)`
/// rescan: `partner_sum` is exact after every count change, while the two
/// `max_*` bounds grow eagerly on every change and shrink only on
/// [`refresh_bounds`](Self::refresh_bounds) — the same stale-high
/// discipline as [`ClassState::max_eq_bound`](super::ClassState::max_eq_bound).
///
/// The weight side (the trees and `occupied`) is exact after
/// [`on_count_change`](Self::on_count_change), or after
/// [`flush`](Self::flush) once a run of
/// [`defer_count_change`](Self::defer_count_change)s has ended. Reading it
/// while a state is dirty is a bug, caught by a debug assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SparseState {
    /// Per-group pair-weight trees (local pair indices).
    trees: Vec<WeightTree>,
    /// Top-level tree over groups; leaf `g` is `trees[g].total()`.
    groups: WeightTree,
    /// `partner_sum[s]` = Σ over pairs touching `s` of the partner's
    /// occupancy (a diagonal pair at `s` contributes `2(c_s − 1)`; a
    /// partner declared in both directions counts twice): the
    /// per-interaction rate at which sparse draws consume agents of `s`,
    /// relative to `c_s/W`. Exact at all times.
    partner_sum: Vec<u64>,
    /// Upper bound on `max_s partner_sum[s]`; eager-grow (on rises only),
    /// lazy-shrink.
    pub max_partner_bound: u64,
    /// Upper bound on `max_p pair_scale(p)` over positive-weight pairs;
    /// eager-grow, lazy-shrink. The drift walk relies on it covering every
    /// positive pair, which holds from any refresh or restore on.
    pub max_pair_scale_bound: u64,
    /// Number of positive-weight pairs.
    occupied: u64,
    /// States whose pairs await re-weighting by [`flush`](Self::flush),
    /// one entry per deferred change (deduplicated at the flush).
    dirty: Vec<u32>,
}

/// The zero-pair state. Its drift bounds are 1, as after a refresh over
/// no pairs; they reach the count engine's snapshots.
impl Default for SparseState {
    fn default() -> Self {
        SparseState {
            trees: Vec::new(),
            groups: WeightTree::new(0),
            partner_sum: Vec::new(),
            max_partner_bound: 1,
            max_pair_scale_bound: 1,
            occupied: 0,
            dirty: Vec::new(),
        }
    }
}

impl SparseState {
    /// Build the hierarchy and drift statistics for `schema` under
    /// `counts`.
    pub fn new(schema: &CompiledSchema, counts: &[u32]) -> Self {
        if schema.pairs.is_empty() {
            return SparseState::default();
        }
        let ng = schema.num_groups();
        let mut trees = Vec::with_capacity(ng);
        let mut groups = WeightTree::new(ng);
        let mut occupied = 0u64;
        for g in 0..ng {
            let (start, end) = schema.group_range(g);
            let weights: Vec<u64> = schema.pairs[start..end]
                .iter()
                .map(|&(a, b)| pair_weight(counts, a, b))
                .collect();
            occupied += weights.iter().filter(|&&w| w > 0).count() as u64;
            let mut t = WeightTree::new(end - start);
            t.assign(&weights);
            groups.set(g, t.total());
            trees.push(t);
        }
        let mut partner_sum = vec![0u64; counts.len()];
        for &(a, b) in &schema.pairs {
            if a == b {
                partner_sum[a as usize] += 2 * (counts[a as usize] as u64).saturating_sub(1);
            } else {
                partner_sum[a as usize] += counts[b as usize] as u64;
                partner_sum[b as usize] += counts[a as usize] as u64;
            }
        }
        let mut state = SparseState {
            trees,
            groups,
            partner_sum,
            max_partner_bound: 1,
            max_pair_scale_bound: 1,
            occupied,
            dirty: Vec::new(),
        };
        state.refresh_bounds(schema, counts);
        state
    }

    /// Sum of all pair weights.
    #[inline]
    pub fn total(&self) -> u64 {
        self.debug_assert_flushed();
        self.groups.total()
    }

    /// Number of positive-weight pairs.
    #[inline]
    pub fn occupied_pairs(&self) -> u64 {
        self.debug_assert_flushed();
        self.occupied
    }

    #[inline]
    fn debug_assert_flushed(&self) {
        debug_assert!(
            self.dirty.is_empty(),
            "sparse weights read before flush ({} deferred changes)",
            self.dirty.len()
        );
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.trees.len()
    }

    /// Current weight of group `g`.
    #[inline]
    pub fn group_total(&self, g: usize) -> u64 {
        self.debug_assert_flushed();
        self.groups.weight(g)
    }

    /// Batch drift scale of the sparse class: `W / scale / 8` draws keep
    /// (a) every pair's expected draws under `min(c_a, c_b)/8` (the
    /// per-pair cap, via `max_pair_scale_bound`) and (b) every state's
    /// expected gross sparse consumption under `c_s/4` (the per-state
    /// floor, via `max_partner_bound / 2` — a draw of pair `p` consumes an
    /// agent of `s` at relative rate `c_s·partner_sum[s]/W`). The bounds
    /// are stale-high between refreshes, so the scale never under-prices
    /// drift.
    #[inline]
    pub fn drift_scale(&self) -> u64 {
        self.max_pair_scale_bound
            .max(self.max_partner_bound / 2)
            .max(1)
    }

    /// Global pair index containing offset `target` of the concatenated
    /// prefix-sum order — identical to a flat [`WeightTree::sample`] over
    /// all pair weights.
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()`, like [`WeightTree::sample`].
    #[inline]
    pub fn sample(&self, target: u64, schema: &CompiledSchema) -> usize {
        self.debug_assert_flushed();
        let (g, rem) = self.groups.sample_with_offset(target);
        schema.group_off[g] as usize + self.trees[g].sample(rem)
    }

    /// Multinomial split of `k` draws over group `g`'s pairs, appending
    /// `(local_index, draws)` pairs (add `group_off[g]` for global
    /// indices).
    pub fn split_group(&self, g: usize, k: u64, rng: &mut Xoshiro256, out: &mut Vec<(usize, u64)>) {
        self.debug_assert_flushed();
        self.trees[g].split(k, rng, out);
    }

    /// Account for state `s`'s occupancy changing `old → new`: the drift
    /// part (partner sums, eager-grow bounds), then the re-weighting part
    /// (pair leaves, group totals, occupied count). The immediate form,
    /// for exact steps and fault injection.
    #[inline]
    pub fn on_count_change(
        &mut self,
        schema: &CompiledSchema,
        counts: &[u32],
        s: usize,
        old: u64,
        new: u64,
    ) {
        self.drift(schema, counts, s, old, new);
        self.reweight(schema, counts, s);
    }

    /// The drift part of [`on_count_change`](Self::on_count_change) only;
    /// `s` is marked dirty and its pairs keep their weights until
    /// [`flush`](Self::flush). Both bounds still see this intermediate
    /// occupancy, so they grow exactly as under the immediate form.
    #[inline]
    pub fn defer_count_change(
        &mut self,
        schema: &CompiledSchema,
        counts: &[u32],
        s: usize,
        old: u64,
        new: u64,
    ) {
        self.drift(schema, counts, s, old, new);
        self.dirty.push(s as u32);
    }

    /// Re-weight the pairs of every dirty state under the current
    /// `counts` — once per state however many deferred changes hit it.
    /// A pair whose two states are both dirty is re-weighted by the first
    /// and found unchanged by the second.
    pub fn flush(&mut self, schema: &CompiledSchema, counts: &[u32]) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        for &s in &dirty {
            self.reweight(schema, counts, s as usize);
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// The drift part: `s`'s count moved `old → new` (`counts[s]` already
    /// reads `new`). One visit per partner row entry, however many
    /// directions it declares.
    #[inline(always)]
    fn drift(&mut self, schema: &CompiledSchema, counts: &[u32], s: usize, old: u64, new: u64) {
        let row = schema.partner_row(s);
        // `partner_sum[t]` holds `directions·c_s` for entry `t`, so the
        // wrapping sum is the exact, non-negative result.
        let delta = new.wrapping_sub(old);
        if new > old {
            let mut max = self.max_partner_bound;
            for p in row {
                let ps = &mut self.partner_sum[p.state as usize];
                *ps = ps.wrapping_add(p.directions().wrapping_mul(delta));
                max = max.max(*ps);
            }
            self.max_partner_bound = max;
        } else {
            // A fall cannot raise the bound: every partner sum is at most
            // `max_partner_bound` at all times.
            for p in row {
                let ps = &mut self.partner_sum[p.state as usize];
                *ps = ps.wrapping_add(p.directions().wrapping_mul(delta));
            }
        }
        if schema.diag[s] != ABSENT {
            // The diagonal pair at `s` is the only term of
            // `partner_sum[s]` that moves when `c_s` changes.
            let ps = &mut self.partner_sum[s];
            *ps = *ps + 2 * new.saturating_sub(1) - 2 * old.saturating_sub(1);
            if *ps > self.max_partner_bound {
                self.max_partner_bound = *ps;
            }
        }
        // `max_pair_scale_bound` covers every positive pair at all times.
        // When `old > 0`, an off-diagonal pair touching `s` that is
        // positive now was positive before (its partner's count did not
        // move), so its scale `max(new, c_t)` can exceed the bound only
        // through `new`; the diagonal's `new − 1` is below `new`. So with
        // `old > 0` and `new ≤ bound` no candidate exceeds the bound, and
        // the row walk is needed only when `old == 0` or `new > bound`.
        if old == 0 || new > self.max_pair_scale_bound {
            let mut max = self.max_pair_scale_bound;
            if new > 0 {
                for p in row {
                    let ct = counts[p.state as usize] as u64;
                    if ct > 0 {
                        max = max.max(new.max(ct));
                    }
                }
                if schema.diag[s] != ABSENT && new > 1 {
                    max = max.max(new - 1);
                }
            }
            self.max_pair_scale_bound = max;
        }
    }

    /// The re-weighting part under the current `counts`: one `c_s·c_t` per
    /// partner sets both directions' leaves. `s`'s own group total is
    /// written once at the end, each in-pair's group once.
    #[inline(always)]
    fn reweight(&mut self, schema: &CompiledSchema, counts: &[u32], s: usize) {
        let cs = counts[s] as u64;
        let own = schema.state_group[s] as usize;
        for p in schema.partner_row(s) {
            let w = cs * counts[p.state as usize] as u64;
            if p.out_pair != ABSENT {
                self.set_leaf(schema, own, p.out_pair, w);
            }
            if p.in_pair != ABSENT {
                let g = schema.state_group[p.state as usize] as usize;
                self.set_leaf(schema, g, p.in_pair, w);
                self.groups.set(g, self.trees[g].total());
            }
        }
        if schema.diag[s] != ABSENT {
            self.set_leaf(schema, own, schema.diag[s], eq_weight_of(cs));
        }
        if own != ABSENT as usize {
            self.groups.set(own, self.trees[own].total());
        }
    }

    /// Set pair `pi`'s leaf in its group `g` to `w`, keeping `occupied`.
    #[inline(always)]
    fn set_leaf(&mut self, schema: &CompiledSchema, g: usize, pi: u32, w: u64) {
        let local = (pi - schema.group_off[g]) as usize;
        let old_w = self.trees[g].weight(local);
        if w != old_w {
            self.trees[g].set(local, w);
            if old_w == 0 {
                self.occupied += 1;
            } else if w == 0 {
                self.occupied -= 1;
            }
        }
    }

    /// Re-derive both lazy bounds exactly (they only grow between calls).
    /// `O(num_states + num_pairs)`.
    pub fn refresh_bounds(&mut self, schema: &CompiledSchema, counts: &[u32]) {
        let mut max_partner = 1u64;
        for &ps in &self.partner_sum {
            max_partner = max_partner.max(ps);
        }
        self.max_partner_bound = max_partner;
        let mut max_scale = 1u64;
        for &(a, b) in &schema.pairs {
            if pair_weight(counts, a, b) > 0 {
                max_scale = max_scale.max(pair_scale(counts, a, b));
            }
        }
        self.max_pair_scale_bound = max_scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::tests::MultiGroup;
    use crate::classes::{Class, ClassState};
    use crate::protocol::{ClassSpec, InteractionSchema, Protocol};
    use proptest::prelude::*;

    /// Sparse-pair protocol: two rules on a 3-state space that fit no
    /// structured class.
    struct Sparse;
    impl Protocol for Sparse {
        fn name(&self) -> &str {
            "sparse"
        }
        fn population_size(&self) -> usize {
            4
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            match (i, r) {
                (0, 1) => Some((0, 2)),
                (2, 2) => Some((1, 2)),
                _ => None,
            }
        }
    }
    impl InteractionSchema for Sparse {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::pair(0, 1), ClassSpec::pair(2, 2)]
        }
    }

    #[test]
    fn sparse_pair_weights_and_sampling() {
        crate::protocol::validate_interaction_schema(&Sparse).unwrap();
        let mut st = ClassState::new(&Sparse, vec![2, 1, 1]).unwrap();
        // (0,1): 2·1 = 2; (2,2): 1·0 = 0.
        assert_eq!(st.weight(Class::Sparse), 2);
        assert_eq!(st.productive_pairs(), 2);
        let mut rng = Xoshiro256::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(st.sample_pair(&mut rng), (0, 1));
        }
        // Move the state-1 agent to state 2: (0,1) dies, (2,2) lights up.
        st.change_count::<false>(1, -1);
        st.change_count::<false>(2, 1);
        assert_eq!(st.weight(Class::Sparse), 2); // c_2(c_2−1) = 2·1
        for _ in 0..20 {
            assert_eq!(st.sample_pair(&mut rng), (2, 2));
        }
    }

    #[test]
    fn sparse_two_level_sampling_matches_flat_tree() {
        let counts = vec![3u32, 2, 4, 1, 2];
        let st = ClassState::new(&MultiGroup, counts.clone()).unwrap();
        let mut flat = WeightTree::new(st.schema.pairs.len());
        for (i, &(a, b)) in st.schema.pairs.iter().enumerate() {
            flat.set(i, pair_weight(&counts, a, b));
        }
        assert_eq!(st.sparse.total(), flat.total());
        for u in 0..flat.total() {
            assert_eq!(
                st.sparse.sample(u, &st.schema),
                flat.sample(u),
                "offset {u}"
            );
        }
        // Group totals mirror the per-group trees.
        for g in 0..st.schema.num_groups() {
            let (lo, hi) = st.schema.group_range(g);
            let expect: u64 = (lo..hi).map(|i| flat.weight(i)).sum();
            assert_eq!(st.sparse.group_total(g), expect, "group {g}");
        }
    }

    /// From-scratch oracle for the incremental sparse drift statistics.
    fn sparse_oracle(schema: &CompiledSchema, counts: &[u32]) -> (Vec<u64>, u64, u64, u64, u64) {
        let mut partner = vec![0u64; counts.len()];
        let mut occupied = 0u64;
        let mut total = 0u64;
        let mut max_scale = 1u64;
        for &(a, b) in &schema.pairs {
            if a == b {
                partner[a as usize] += 2 * (counts[a as usize] as u64).saturating_sub(1);
            } else {
                partner[a as usize] += counts[b as usize] as u64;
                partner[b as usize] += counts[a as usize] as u64;
            }
            let w = pair_weight(counts, a, b);
            total += w;
            if w > 0 {
                occupied += 1;
                max_scale = max_scale.max(pair_scale(counts, a, b));
            }
        }
        let max_partner = partner.iter().copied().max().unwrap_or(0).max(1);
        (partner, max_partner, max_scale, occupied, total)
    }

    /// Sparse test protocol over a runtime-chosen pair set (the proptest
    /// vehicle below). The transition is never consulted by `ClassState`;
    /// it exists to satisfy the trait.
    struct RandPairs {
        n: usize,
        states: usize,
        pairs: Vec<(State, State)>,
    }
    impl Protocol for RandPairs {
        fn name(&self) -> &str {
            "rand-pairs"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.states
        }
        fn num_rank_states(&self) -> usize {
            self.states
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            self.pairs
                .contains(&(i, r))
                .then(|| ((i + 1) % self.states as State, r))
        }
    }
    impl InteractionSchema for RandPairs {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            self.pairs
                .iter()
                .map(|&(a, b)| ClassSpec::pair(a, b))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After an arbitrary random walk of `change_count` calls, the
        /// incrementally-maintained sparse statistics agree with the
        /// from-scratch oracle: partner sums, occupied-pair count, and
        /// total weight exactly at all times; the two lazy maxima
        /// stale-high (never below the truth) until `refresh_bound`,
        /// exact after it. This is the invariant that lets `batch_params`
        /// drop the per-batch `O(Σ deg)` partner-scale rescan.
        #[test]
        fn incremental_drift_scales_match_from_scratch_oracle(
            seed in 0u64..5_000,
            states in 2usize..11,
            npairs in 1usize..22,
            ops in 1usize..70,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut pairs: Vec<(State, State)> = Vec::new();
            for _ in 0..npairs {
                let a = rng.below(states as u64) as State;
                let b = rng.below(states as u64) as State;
                if !pairs.contains(&(a, b)) {
                    pairs.push((a, b));
                }
            }
            let mut counts: Vec<u32> =
                (0..states).map(|_| rng.below(20) as u32).collect();
            counts[0] += 1; // keep the walk feasible
            let n: u64 = counts.iter().map(|&c| c as u64).sum();
            let p = RandPairs { n: n as usize, states, pairs };
            let mut st = ClassState::new(&p, counts).unwrap();
            for _ in 0..ops {
                let donor = loop {
                    let s = rng.below(states as u64) as usize;
                    if st.counts[s] > 0 {
                        break s;
                    }
                };
                let recv = rng.below(states as u64) as State;
                st.change_count::<false>(donor as State, -1);
                st.change_count::<false>(recv, 1);
            }
            let (partner, max_partner, max_scale, occupied, total) =
                sparse_oracle(&st.schema, &st.counts);
            prop_assert_eq!(&st.sparse.partner_sum, &partner);
            prop_assert_eq!(st.sparse.occupied_pairs(), occupied);
            prop_assert_eq!(st.sparse.total(), total);
            for g in 0..st.schema.num_groups() {
                let (lo, hi) = st.schema.group_range(g);
                let expect: u64 = st.schema.pairs[lo..hi]
                    .iter()
                    .map(|&(a, b)| pair_weight(&st.counts, a, b))
                    .sum();
                prop_assert_eq!(st.sparse.group_total(g), expect, "group {}", g);
            }
            // Stale-high between refreshes: bounds dominate the truth...
            prop_assert!(st.sparse.max_partner_bound >= max_partner);
            prop_assert!(st.sparse.max_pair_scale_bound >= max_scale);
            prop_assert!(st.sparse.drift_scale() >= max_scale.max(max_partner / 2));
            // ...and collapse to it exactly on refresh.
            st.refresh_bound(Class::Sparse);
            prop_assert_eq!(st.sparse.max_partner_bound, max_partner);
            prop_assert_eq!(st.sparse.max_pair_scale_bound, max_scale);
        }

        /// Deferred re-weighting is exact: a random sequence of (possibly
        /// multi-agent) count deltas, applied in runs through
        /// `update_count_deferred` with a `flush_deferred` after each run,
        /// leaves every `SparseState` field — leaf weights, group totals,
        /// partner sums, occupied count and both eager-grow bounds —
        /// equal to the same sequence through `change_count`.
        #[test]
        fn deferred_reweighting_matches_immediate_updates(
            seed in 0u64..5_000,
            states in 2usize..11,
            npairs in 1usize..22,
            runs in 1usize..8,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut pairs: Vec<(State, State)> = Vec::new();
            for _ in 0..npairs {
                let a = rng.below(states as u64) as State;
                let b = rng.below(states as u64) as State;
                if !pairs.contains(&(a, b)) {
                    pairs.push((a, b));
                }
            }
            let mut counts: Vec<u32> =
                (0..states).map(|_| rng.below(20) as u32).collect();
            counts[0] += 1; // keep the walk feasible
            let n: u64 = counts.iter().map(|&c| c as u64).sum();
            let p = RandPairs { n: n as usize, states, pairs };
            let mut deferred = ClassState::new(&p, counts).unwrap();
            let mut immediate = deferred.clone();
            for _ in 0..runs {
                for _ in 0..rng.below(12) {
                    let donor = loop {
                        let s = rng.below(states as u64) as usize;
                        if deferred.counts[s] > 0 {
                            break s;
                        }
                    };
                    let k = 1 + rng.below(deferred.counts[donor] as u64) as i64;
                    let recv = rng.below(states as u64) as State;
                    for (s, d) in [(donor as State, -k), (recv, k)] {
                        deferred.update_count_deferred(s, d);
                        immediate.change_count::<false>(s, d);
                    }
                }
                deferred.flush_deferred();
                prop_assert_eq!(&deferred.counts, &immediate.counts);
                prop_assert_eq!(&deferred.sparse, &immediate.sparse);
            }
        }
    }

    /// The per-pair walk the partner rows replaced, kept as their oracle:
    /// one visit per pair touching `s` in ascending pair order, doing the
    /// drift part when `DRIFT` and the re-weighting part when `REWEIGHT`.
    /// It finds its pairs and groups from `pairs` and `group_off` alone.
    fn visit_pairs<const DRIFT: bool, const REWEIGHT: bool>(
        st: &mut SparseState,
        schema: &CompiledSchema,
        counts: &[u32],
        s: usize,
        old: u64,
        new: u64,
    ) {
        let mut cur_group = usize::MAX;
        for (pi, &(a, b)) in schema.pairs.iter().enumerate() {
            if a as usize != s && b as usize != s {
                continue;
            }
            let w = pair_weight(counts, a, b);
            if REWEIGHT {
                let g = schema.group_off.partition_point(|&o| o as usize <= pi) - 1;
                if g != cur_group {
                    if cur_group != usize::MAX {
                        st.groups.set(cur_group, st.trees[cur_group].total());
                    }
                    cur_group = g;
                }
                let local = pi - schema.group_off[g] as usize;
                let old_w = st.trees[g].weight(local);
                if w != old_w {
                    st.trees[g].set(local, w);
                    if old_w == 0 {
                        st.occupied += 1;
                    } else if w == 0 {
                        st.occupied -= 1;
                    }
                }
            }
            if DRIFT {
                let t = if a == b {
                    s
                } else if a as usize == s {
                    b as usize
                } else {
                    a as usize
                };
                let ps = &mut st.partner_sum[t];
                if a == b {
                    *ps = *ps + 2 * new.saturating_sub(1) - 2 * old.saturating_sub(1);
                } else {
                    *ps = *ps + new - old;
                }
                st.max_partner_bound = st.max_partner_bound.max(*ps);
                if w > 0 {
                    st.max_pair_scale_bound = st.max_pair_scale_bound.max(pair_scale(counts, a, b));
                }
            }
        }
        if REWEIGHT && cur_group != usize::MAX {
            st.groups.set(cur_group, st.trees[cur_group].total());
        }
    }

    /// Counts and sparse state driven by the per-pair walk, mirroring
    /// `ClassState::change_count` and `SparseState::flush`.
    struct PerPairWalk {
        counts: Vec<u32>,
        sparse: SparseState,
    }
    impl PerPairWalk {
        fn update(&mut self, schema: &CompiledSchema, s: State, delta: i64, defer: bool) {
            let s = s as usize;
            let old = self.counts[s] as u64;
            let new = old.checked_add_signed(delta).unwrap();
            self.counts[s] = new as u32;
            if schema.pairs.is_empty() {
                return;
            }
            if defer {
                visit_pairs::<true, false>(&mut self.sparse, schema, &self.counts, s, old, new);
                self.sparse.dirty.push(s as u32);
            } else {
                visit_pairs::<true, true>(&mut self.sparse, schema, &self.counts, s, old, new);
            }
        }

        fn flush(&mut self, schema: &CompiledSchema) {
            let mut dirty = std::mem::take(&mut self.sparse.dirty);
            dirty.sort_unstable();
            dirty.dedup();
            for s in dirty {
                visit_pairs::<false, true>(
                    &mut self.sparse,
                    schema,
                    &self.counts,
                    s as usize,
                    0,
                    0,
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The partner-row walks leave `SparseState` equal, field for
        /// field, to the per-pair walk they replaced, after every count
        /// change and every flush. Schemas mix diagonal, one-way and
        /// two-way pairs and states with no pairs; changes go through
        /// `change_count`, or through `update_count_deferred` with a
        /// `flush_deferred` per run; the drift bounds start exact or
        /// stale-high, as a restore leaves them.
        #[test]
        fn partner_rows_match_per_pair_walk(
            seed in 0u64..1_000_000,
            states in 2usize..12,
            density in 0u64..4,
            stale in any::<bool>(),
            deferred in any::<bool>(),
            runs in 1usize..8,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut pairs: Vec<(State, State)> = Vec::new();
            for a in 0..states as State {
                if rng.below(4) < density {
                    pairs.push((a, a));
                }
                for b in a + 1..states as State {
                    // None, either one way, or both ways.
                    if rng.below(4) >= density {
                        continue;
                    }
                    match rng.below(3) {
                        0 => pairs.push((a, b)),
                        1 => pairs.push((b, a)),
                        _ => pairs.extend([(a, b), (b, a)]),
                    }
                }
            }
            rng.shuffle(&mut pairs);
            // Counts of 0, 1 and 2+ all common: the rescan and diagonal
            // cases turn on them.
            let mut counts: Vec<u32> =
                (0..states).map(|_| (rng.below(3) * rng.below(5)) as u32).collect();
            counts[0] += 1; // keep the walk feasible
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = RandPairs { n, states, pairs };
            let mut st = ClassState::new(&p, counts.clone()).unwrap();
            if stale {
                st.sparse.max_partner_bound += rng.below(12);
                st.sparse.max_pair_scale_bound += rng.below(12);
            }
            let mut oracle = PerPairWalk { counts, sparse: st.sparse.clone() };
            for _ in 0..runs {
                for _ in 0..rng.below(10) {
                    let donor = loop {
                        let s = rng.below(states as u64) as usize;
                        if st.counts[s] > 0 {
                            break s;
                        }
                    };
                    let k = 1 + rng.below(st.counts[donor] as u64) as i64;
                    let recv = rng.below(states as u64) as State;
                    for (s, d) in [(donor as State, -k), (recv, k)] {
                        if deferred {
                            st.update_count_deferred(s, d);
                        } else {
                            st.change_count::<false>(s, d);
                        }
                        oracle.update(&st.schema, s, d, deferred);
                        prop_assert_eq!(&st.counts, &oracle.counts);
                        prop_assert_eq!(&st.sparse, &oracle.sparse);
                    }
                }
                st.flush_deferred();
                oracle.flush(&st.schema);
                prop_assert_eq!(&st.sparse, &oracle.sparse);
            }
        }
    }

    /// Reading a sparse weight between a deferred change and its flush is
    /// a bug the debug build refuses.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sparse weights read before flush")]
    fn reading_sparse_weights_before_a_flush_panics() {
        let mut st = ClassState::new(&Sparse, vec![2, 1, 1]).unwrap();
        st.update_count_deferred(1, -1);
        st.update_count_deferred(2, 1);
        let _ = st.weight(Class::Sparse);
    }
}
