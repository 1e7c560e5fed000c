//! Compiled interaction schema and live weight state of the count engine.
//!
//! A protocol's declarative [`InteractionSchema`] is compiled once per
//! engine construction into a [`CompiledSchema`] (flags, the equal-rank
//! membership bitset, the sparse pairs' groups and partner rows), and the
//! engine keeps one [`ClassState`]: the occupancy counts plus every
//! per-class weight structure, updated incrementally on each count change.
//! Every exact step samples the next productive ordered state pair through
//! [`ClassState::sample_pair`] with a single-RNG-draw discipline.
//!
//! The weight structures live in the submodules: [`tree`] (the weight
//! trees and their block views), [`split`] (the split law), [`schema`]
//! (the compiled schema) and [`sparse`] (the sparse-pair hierarchy).
//!
//! # The four productive classes
//!
//! The productive weight `W` is the sum of four class weights, one per
//! [`Class`]. Each class has one home: one `match` arm in each of
//! [`ClassState::weight`], [`ClassState::drift`],
//! [`ClassState::refresh_bound`], [`ClassState::plan`],
//! [`ClassState::run_task`] and the exact sample
//! ([`ClassState::sample_pair`]); the count engine only loops over
//! [`Class::ALL`]. Over occupancy counts `c_s`, with `R`/`E` the agents in
//! rank/extra states, `dirs` ∈ {1, 2} the declared cross directions and
//! `occ_x` the occupied extra states:
//!
//! | class | weight | drift cap per batch (scale) | threshold | split tasks |
//! |---|---|---|---|---|
//! | `Eq` | `Σ_s c_s(c_s − 1)` over rank states with a rule | each state's draws ≤ `(c_s − 1)/8` (stale-high `max c_s`) | — | `eq` block-tree subtrees of ≤ 4096 draws |
//! | `Xx` | `E(E − 1)` if declared | `E/32` draws (`4(E − 1)`) | `occ_x²` | one: initiator, then responder extra state |
//! | `Cross` | `dirs·R·E` | `min(R, E)/16` draws (`2·dirs·max(R, E)`) | `2·occ_x` | per direction and extra state, `rank_occ` subtrees of ≤ 4096 draws |
//! | `Sparse` | `Σ_(a,b) c_a(c_b − [a = b])` | pair `(a, b)` ≤ `min(c_a, c_b)/8`, state `s` ≤ `c_s/4` (stale-high) | occupied pairs | one per initiator group |
//!
//! A batch of `b` draws is safe when `b ≤ W/(8·scale)` for the largest
//! scale of the positive classes, and worth its overhead when `b` also
//! reaches the largest threshold (and `MIN_BATCH` = 64). The caps are
//! hand-tuned: `Eq`'s keeps each weight's drift within a batch to ~25%;
//! `Xx` and `Cross` feed the line and tree protocols' exponential reset
//! epidemics, which amplify frozen-weight drift, hence the tighter rein.
//!
//! # Deferred weights in batch apply
//!
//! A batch changes many counts, the same state dozens of times, while
//! nothing reads a weight. Batch apply therefore goes through
//! [`ClassState::update_count_deferred`]:
//!
//! - the `eq` and `rank_occ` [`BlockTree`]s rewrite only the changed
//!   block's sum and mark the tree stale, instead of walking to the root
//!   on every change;
//! - the sparse pairs only mark the state dirty; their drift part still
//!   runs on every change.
//!
//! [`ClassState::flush_deferred`] then brings everything up to date once,
//! under the final counts, before the next weight read: each stale block
//! tree rebuilds all of its internal sums in one bottom-up pass, and each
//! dirty state's pairs are re-weighted once. Apply draws no randomness
//! and the sums are exact integers, so the flushed state equals the
//! immediate one field for field. Exact steps and fault injection use the
//! immediate [`ClassState::move_agents`].

mod schema;
mod sparse;
mod split;
mod tree;

use crate::error::ConfigError;
use crate::protocol::{CrossDirection, InteractionSchema, State};
use crate::rng::Xoshiro256;
use schema::CompiledSchema;
use sparse::SparseState;
use split::chain_split;
use tree::{eq_weight_of, BlockLeaves, BlockTree, EqLeaves, BLOCK};

pub(crate) use split::chain_binomials;
pub use tree::split_eq_block;

/// Occupancy counts of the rank states in [`BlockTree`] block `b`:
/// `counts[b·BLOCK .. min(b·BLOCK + BLOCK, num_ranks)]`.
#[inline]
fn block_counts(counts: &[u32], num_ranks: usize, b: usize) -> &[u32] {
    let start = b * BLOCK;
    &counts[start..(start + BLOCK).min(num_ranks)]
}

/// The count engine's four productive classes, in the order of
/// [`Class::ALL`]: the order of the class split, of the split tasks and
/// of the exact sample's prefix sums. Used as an index into per-class
/// arrays ([`ClassState::weights`], [`CompiledSchema::exchangeable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Equal-rank pairs (`InteractionClass::EqualRank`).
    Eq,
    /// Extra–extra pairs (`InteractionClass::ExtraExtra`).
    Xx,
    /// Rank–extra pairs (`InteractionClass::RankExtra`).
    Cross,
    /// Enumerated sparse pairs (`InteractionClass::Pair`).
    Sparse,
}

impl Class {
    /// Every class, in index order.
    pub const ALL: [Class; 4] = [Class::Eq, Class::Xx, Class::Cross, Class::Sparse];

    /// Whether the class's drift scale reads a bound that is tracked
    /// stale-high between refreshes ([`ClassState::refresh_bound`]).
    pub fn has_lazy_bound(self) -> bool {
        match self {
            Class::Eq | Class::Sparse => true,
            Class::Xx | Class::Cross => false,
        }
    }
}

/// Target draws per split task when pre-partitioning a class's weight
/// tree. Applied with *any* thread count (including one), so the
/// trajectory never depends on how many workers execute the tasks.
const PARTITION_TASK_DRAWS: u64 = 4096;

/// A coalesced rewrite key with its multiplicity — the output unit of the
/// split phase.
pub(crate) type KeyGroup = ((State, State), u64);

/// One independently executable unit of a batch's split work. Tasks are
/// planned deterministically from the frozen [`ClassState`] and a
/// coordinator RNG stream ([`ClassState::plan`]); each one is executed
/// against the same frozen state under its own derived RNG stream
/// ([`ClassState::run_task`]), on whichever worker thread picks it up.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SplitTask {
    /// Split `k` equal-rank draws below `node` of the eq block tree.
    Eq { node: usize, k: u64 },
    /// The whole extra–extra hierarchical split (extra spaces are small
    /// by design, so this is never worth subdividing).
    Xx { k: u64 },
    /// One (direction, extra-state) slice of the cross class: split its
    /// `k` draws across the rank population below `node` of the
    /// occupancy tree.
    Cross {
        node: usize,
        extra: State,
        extra_initiates: bool,
        k: u64,
    },
    /// Split `k` sparse draws within one initiator group's pair tree.
    Sparse { group: u32, k: u64 },
}

/// Live weight state for a compiled schema: occupancy counts plus every
/// per-class weight structure, kept consistent through
/// every count change. Every per-class decision of the
/// count engine is one method here with one `match` arm per [`Class`]
/// (see the module docs' table). The default is an empty placeholder
/// that the count engine's worker pool swaps in while a batch job holds
/// the real state; it is never sampled from.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassState {
    schema: CompiledSchema,
    pub counts: Vec<u32>,
    pub num_ranks: usize,
    /// Block sums of the per-rank-state weights `c(c−1)` where an
    /// equal-rank rule exists; leaves are derived from `counts` on demand
    /// (empty when the class is not declared).
    eq: BlockTree,
    /// Bitset over rank states: bit `s` set iff `s`'s equal-rank weight
    /// is positive, i.e. `s` has an equal-rank rule and `c_s ≥ 2` (empty
    /// when the class is not declared). Word `b` covers block `b`, and
    /// [`eq_block`](Self::eq_block) reads the block through it.
    eq_live: Vec<u64>,
    /// Block sums of the per-rank-state occupancy, for cross-pair sampling
    /// and splitting; leaves are the `counts` entries themselves (empty
    /// when no cross class is declared).
    rank_occ: BlockTree,
    /// Two-level sparse-pair hierarchy plus incremental drift statistics
    /// (empty without enumerated pairs).
    pub sparse: SparseState,
    rank_agents: u64,
    extra_agents: u64,
    /// Number of extra states with a positive count.
    occupied_extras: u64,
    /// Upper bound on the occupancy of any rank state with an equal-rank
    /// rule; grows eagerly on updates, shrinks only on
    /// [`refresh_bound`](Self::refresh_bound). Drives the count engine's
    /// equal-rank batch cap; harmless bookkeeping in exact mode.
    pub max_eq_bound: u64,
}

impl ClassState {
    /// Build the weight state for `protocol` from per-state occupancy
    /// counts.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::WrongPopulation`] if the counts vector
    /// length differs from the state-space size or the counts do not sum
    /// to the population.
    pub fn new<P: InteractionSchema + ?Sized>(
        protocol: &P,
        counts: Vec<u32>,
    ) -> Result<Self, ConfigError> {
        let n = protocol.population_size();
        if counts.len() != protocol.num_states() {
            return Err(ConfigError::WrongPopulation {
                expected: protocol.num_states(),
                got: counts.len(),
            });
        }
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        if total != n as u64 {
            return Err(ConfigError::WrongPopulation {
                expected: n,
                got: total as usize,
            });
        }
        let schema = CompiledSchema::compile(protocol);
        let num_ranks = protocol.num_rank_states();
        let sparse = SparseState::new(&schema, &counts);
        // One pass over the rank states, a block at a time: the agent
        // total, the largest equal-rank count, both trees' block sums and
        // the live bits. The loop body is branch-free (the rule bit
        // multiplies), which keeps it cheap at n = 2²⁰ and beyond.
        let blocks = num_ranks.div_ceil(BLOCK);
        let mut eq = BlockTree::new(if schema.eq { num_ranks } else { 0 });
        let mut rank_occ = BlockTree::new(if schema.cross.is_some() { num_ranks } else { 0 });
        let mut eq_live = Vec::with_capacity(if schema.eq { blocks } else { 0 });
        let (mut rank_agents, mut max_eq_bound) = (0u64, 1u64);
        for b in 0..blocks {
            let rules = if schema.eq { schema.has_eq[b] } else { 0 };
            let (mut occ, mut max, mut at_least_two, mut eq_sum) = (0u64, 0u64, 0u64, 0u64);
            for (j, &c) in block_counts(&counts, num_ranks, b).iter().enumerate() {
                let (c, rule) = (c as u64, (rules >> j) & 1);
                occ += c;
                max = max.max(c * rule);
                at_least_two |= ((c >= 2) as u64) << j;
                eq_sum += eq_weight_of(c) * rule;
            }
            rank_agents += occ;
            max_eq_bound = max_eq_bound.max(max);
            if schema.eq {
                eq_live.push(rules & at_least_two);
                eq.set_block_deferred(b, eq_sum);
            }
            if !rank_occ.is_empty() {
                rank_occ.set_block_deferred(b, occ);
            }
        }
        eq.flush();
        rank_occ.flush();
        let extra_agents = n as u64 - rank_agents;
        let occupied_extras = counts[num_ranks..].iter().filter(|&&c| c > 0).count() as u64;
        Ok(ClassState {
            schema,
            counts,
            num_ranks,
            eq,
            eq_live,
            rank_occ,
            sparse,
            rank_agents,
            extra_agents,
            occupied_extras,
            max_eq_bound,
        })
    }

    /// The live equal-rank leaves of block `b` (the `eq` tree's view):
    /// `c(c−1)` for each rank state whose bit is set in the single word
    /// `eq_live[b]`. Every other leaf of the block weighs 0 (no rule, or
    /// fewer than two agents). See [`EqLeaves`] for how they are read.
    #[inline]
    pub fn eq_block(&self, b: usize) -> EqLeaves<'_> {
        EqLeaves {
            live: self.eq_live[b],
            counts: block_counts(&self.counts, self.num_ranks, b),
        }
    }

    /// Both block trees and the live words, for tests outside this
    /// module.
    #[cfg(test)]
    pub fn trees(&self) -> (&BlockTree, &BlockTree, &[u64]) {
        (&self.eq, &self.rank_occ, &self.eq_live)
    }

    /// Occupancy leaf weights of block `b`, every leaf (the `rank_occ`
    /// tree's view: the cross class samples rank participants
    /// proportionally to occupancy).
    #[inline]
    pub fn rank_block(&self, b: usize) -> impl BlockLeaves + '_ {
        block_counts(&self.counts, self.num_ranks, b)
            .iter()
            .map(|&c| c as u64)
            .enumerate()
    }

    /// Add `delta` to the occupancy of state `s` for batch apply: the
    /// `eq` and `rank_occ` trees update only `s`'s block sum, and the
    /// sparse pairs touching `s` keep their weights, until
    /// [`flush_deferred`](Self::flush_deferred), which must run before the
    /// next weight read. The counts, the agent totals and the drift
    /// bounds (`max_eq_bound`, the sparse ones) are updated at once.
    ///
    /// # Panics
    ///
    /// Panics if the occupancy would leave `0..=u32::MAX` — a transiently
    /// negative intermediate must never be silently wrapped into a huge
    /// weight, so out-of-order delta sequences are a hard error.
    #[inline]
    pub fn update_count_deferred(&mut self, s: State, delta: i64) {
        self.change_count::<true>(s, delta);
    }

    /// Move `k` agents from state `from` to state `to ≠ from`, updating
    /// every weight structure the schema declares: field for field the
    /// same as the count changes `from −= k`, then `to += k`
    /// ([`change_count`](Self::change_count)). When both are rank states
    /// of one block and the schema has no sparse pairs, the move is one
    /// change: the `eq` block sum is rewritten once (one walk to the root)
    /// and the live word once, while the `rank_occ` block sum and
    /// `rank_agents`, which a move within a block leaves as they are, are
    /// not touched.
    ///
    /// # Panics
    ///
    /// As [`update_count_deferred`](Self::update_count_deferred).
    #[inline]
    pub fn move_agents(&mut self, from: State, to: State, k: u64) {
        self.shift::<false>(from, to, k);
    }

    /// [`move_agents`](Self::move_agents) for batch apply, deferred as
    /// [`update_count_deferred`](Self::update_count_deferred) is.
    ///
    /// # Panics
    ///
    /// As [`update_count_deferred`](Self::update_count_deferred).
    #[inline]
    pub fn move_agents_deferred(&mut self, from: State, to: State, k: u64) {
        self.shift::<true>(from, to, k);
    }

    #[inline(always)]
    fn shift<const DEFER: bool>(&mut self, from: State, to: State, k: u64) {
        debug_assert_ne!(from, to, "a move within one state");
        let (f, t) = (from as usize, to as usize);
        let one_block = f / BLOCK == t / BLOCK && f.max(t) < self.num_ranks;
        let (old_f, old_t) = (self.counts[f] as u64, self.counts[t] as u64);
        if !one_block || !self.schema.pairs.is_empty() || old_f < k || old_t + k > u32::MAX as u64 {
            // Across blocks, with sparse pairs, or out of range (which
            // panics there with the state named): two count changes.
            self.change_count::<DEFER>(from, -(k as i64));
            self.change_count::<DEFER>(to, k as i64);
            return;
        }
        let (new_f, new_t) = (old_f - k, old_t + k);
        self.counts[f] = new_f as u32;
        self.counts[t] = new_t as u32;
        if !self.schema.eq {
            return;
        }
        let (rule_f, rule_t) = (self.schema.eq_rule(f), self.schema.eq_rule(t));
        let weight = |c: u64, rule: bool| eq_weight_of(c) * rule as u64;
        let w_old = weight(old_f, rule_f) + weight(old_t, rule_t);
        let w_new = weight(new_f, rule_f) + weight(new_t, rule_t);
        let word = &mut self.eq_live[f / BLOCK];
        for (j, new, rule) in [(f % BLOCK, new_f, rule_f), (t % BLOCK, new_t, rule_t)] {
            if rule {
                *word = (*word & !(1 << j)) | (((new >= 2) as u64) << j);
                if new > self.max_eq_bound {
                    self.max_eq_bound = new;
                }
            }
        }
        if DEFER {
            self.eq.update_deferred(f, w_old, w_new);
        } else {
            self.eq.update(f, w_old, w_new);
        }
    }

    /// Bring every weight structure changed through
    /// [`update_count_deferred`](Self::update_count_deferred) since the
    /// last flush up to date: the internal sums of both block trees and
    /// the sparse pairs of every dirty state.
    pub fn flush_deferred(&mut self) {
        self.eq.flush();
        self.rank_occ.flush();
        self.sparse.flush(&self.schema, &self.counts);
    }

    /// Add `delta` to the occupancy of state `s`: at once, or deferred as
    /// [`update_count_deferred`](Self::update_count_deferred) is.
    #[inline(always)]
    fn change_count<const DEFER: bool>(&mut self, s: State, delta: i64) {
        let su = s as usize;
        let old = self.counts[su] as u64;
        let new = match old.checked_add_signed(delta) {
            Some(v) if v <= u32::MAX as u64 => v,
            _ => panic!(
                "occupancy of state {s} left 0..=u32::MAX: {old} {delta:+} \
                 (out-of-order delta application?)"
            ),
        };
        self.counts[su] = new as u32;
        if su < self.num_ranks {
            self.rank_agents = self
                .rank_agents
                .checked_add_signed(delta)
                .expect("rank population went negative");
            if !self.rank_occ.is_empty() {
                if DEFER {
                    self.rank_occ.update_deferred(su, old, new);
                } else {
                    self.rank_occ.update(su, old, new);
                }
            }
            if self.schema.eq_rule(su) {
                let (w_old, w_new) = (eq_weight_of(old), eq_weight_of(new));
                let (word, j) = (&mut self.eq_live[su / BLOCK], su % BLOCK);
                *word = (*word & !(1 << j)) | (((new >= 2) as u64) << j);
                if DEFER {
                    self.eq.update_deferred(su, w_old, w_new);
                } else {
                    self.eq.update(su, w_old, w_new);
                }
                if new > self.max_eq_bound {
                    self.max_eq_bound = new;
                }
            }
        } else {
            self.extra_agents = self
                .extra_agents
                .checked_add_signed(delta)
                .expect("extra population went negative");
            self.occupied_extras = self.occupied_extras + (new > 0) as u64 - (old > 0) as u64;
        }
        if !self.schema.pairs.is_empty() {
            if DEFER {
                self.sparse
                    .defer_count_change(&self.schema, &self.counts, su, old, new);
            } else {
                self.sparse
                    .on_count_change(&self.schema, &self.counts, su, old, new);
            }
        }
    }

    /// Weight of class `c`: its number of productive ordered agent pairs.
    #[inline]
    pub fn weight(&self, c: Class) -> u64 {
        match c {
            Class::Eq => self.eq.total(),
            Class::Xx if self.schema.xx => self.extra_agents * self.extra_agents.saturating_sub(1),
            Class::Xx => 0,
            Class::Cross => self
                .schema
                .cross
                .map_or(0, |d| d.multiplier() * self.rank_agents * self.extra_agents),
            Class::Sparse => self.sparse.total(),
        }
    }

    /// Every class's weight, indexed by [`Class`].
    #[inline]
    pub fn weights(&self) -> [u64; 4] {
        let mut weights = [0; 4];
        for c in Class::ALL {
            weights[c as usize] = self.weight(c);
        }
        weights
    }

    /// Total number of productive ordered pairs in the current
    /// configuration.
    #[inline]
    pub fn productive_pairs(&self) -> u64 {
        self.weights().iter().sum()
    }

    /// Whether every declaration of class `c` is exchangeable, so that
    /// its draws may be batched under frozen weights.
    #[inline]
    pub fn exchangeable(&self, c: Class) -> bool {
        self.schema.exchangeable[c as usize]
    }

    /// Drift scale and amortisation threshold of class `c`, which has
    /// positive weight. The count engine's safe batch size is
    /// `W / (8·scale)` for the largest scale over the positive classes,
    /// which keeps each class weight's drift within a batch to ~25%; it
    /// batches only when that size reaches the largest threshold, each
    /// class's split overhead beyond `O(occupied)`.
    pub fn drift(&self, c: Class) -> (u64, u64) {
        match c {
            // Per-state expected draws capped at (c_s − 1)/8.
            Class::Eq => (self.max_eq_bound, 0),
            // A draw's two participants are uniform over the extra
            // population, so every extra state's occupancy drifts at the
            // same *relative* rate regardless of its own size: capping
            // expected xx draws at E/32 (scale 4(E−1), since
            // W_xx = E(E−1)) bounds each level's drift at ~6%. The buffer
            // epidemic grows exponentially, which amplifies frozen-weight
            // drift — hence the tighter rein than the equal-rank class.
            Class::Xx => {
                let occ_x = self.occupied_extras();
                let scale = 4 * self.extra_agents.saturating_sub(1).max(1);
                (scale, occ_x * occ_x)
            }
            // W_cross = dirs·R·E: capping expected cross draws at
            // min(R, E)/16 means b ≤ W/(8·2·dirs·max(R, E)). Cross draws
            // feed the same exponential reset epidemic, so they get the
            // same tight rein as extra–extra.
            Class::Cross => {
                let dirs = self.schema.cross.map_or(1, CrossDirection::multiplier);
                let scale = 2 * dirs * self.rank_agents.max(self.extra_agents);
                (scale, 2 * self.occupied_extras())
            }
            // Per-pair relative caps with a per-state floor, both read off
            // the incrementally-maintained (stale-high) sparse drift
            // bounds: expected draws of pair (a,b) stay under
            // min(c_a, c_b)/8, and no state's expected gross sparse
            // consumption exceeds c_s/4 — see `SparseState::drift_scale`.
            // The amortisation threshold charges only the pairs the split
            // can actually visit, so large declared-but-dormant rule sets
            // (every timer pair of loose leader election, say) no longer
            // price batching out of reach.
            Class::Sparse => (self.sparse.drift_scale(), self.sparse.occupied_pairs()),
        }
    }

    /// Re-derive class `c`'s lazily tracked drift bound exactly: the
    /// bounds only grow between calls (see [`Class::has_lazy_bound`]).
    pub fn refresh_bound(&mut self, c: Class) {
        match c {
            // The maximum equal-rank occupancy, over the live states alone
            // (a state with a rule that is not live holds at most one
            // agent, which the floor of 1 covers), read a live word at a
            // time: a full word is a plain `max` over its 64 counts.
            Class::Eq => {
                let mut max = 1u32;
                for (w, &word) in self.eq_live.iter().enumerate() {
                    let base = w * 64;
                    if word == u64::MAX {
                        let full = &self.counts[base..base + 64];
                        max = max.max(full.iter().copied().max().unwrap_or(0));
                        continue;
                    }
                    let mut bits = word;
                    while bits != 0 {
                        max = max.max(self.counts[base + bits.trailing_zeros() as usize]);
                        bits &= bits - 1;
                    }
                }
                self.max_eq_bound = max as u64;
            }
            Class::Xx | Class::Cross => {}
            // Both sparse bounds, `O(num_states + num_pairs)`.
            Class::Sparse => self.sparse.refresh_bounds(&self.schema, &self.counts),
        }
    }

    /// Fan class `c`'s `k > 0` draws of one batch out into split tasks,
    /// appended to `tasks`, using the coordinator stream `coord`.
    pub fn plan(&self, c: Class, k: u64, coord: &mut Xoshiro256, tasks: &mut Vec<SplitTask>) {
        let mut parts: Vec<(usize, u64)> = Vec::new();
        match c {
            Class::Eq => {
                self.eq
                    .partition(k, PARTITION_TASK_DRAWS, coord, &mut parts);
                tasks.extend(parts.iter().map(|&(node, k)| SplitTask::Eq { node, k }));
            }
            Class::Xx => tasks.push(SplitTask::Xx { k }),
            // Direction, then extra state (ascending, rank-initiated
            // first), then subtrees of the occupancy tree.
            Class::Cross => {
                let dir = self.schema.cross.expect("cross weight without class");
                let (k_rank_init, k_extra_init) = match dir {
                    CrossDirection::RankInitiator => (k, 0),
                    CrossDirection::ExtraInitiator => (0, k),
                    CrossDirection::Both => {
                        let k_rank = coord.binomial(k, 0.5);
                        (k_rank, k - k_rank)
                    }
                };
                let mut extras: Vec<(State, u64)> = Vec::new();
                for (k_dir, extra_initiates) in [(k_rank_init, false), (k_extra_init, true)] {
                    if k_dir == 0 {
                        continue;
                    }
                    extras.clear();
                    chain_split(coord, k_dir, self.extra_agents, self.extras(), &mut extras);
                    for &(extra, k_e) in &extras {
                        parts.clear();
                        self.rank_occ
                            .partition(k_e, PARTITION_TASK_DRAWS, coord, &mut parts);
                        tasks.extend(parts.iter().map(|&(node, k)| SplitTask::Cross {
                            node,
                            extra,
                            extra_initiates,
                            k,
                        }));
                    }
                }
            }
            // One chain split across the initiator groups in ascending
            // order, one task per group that received draws — the
            // per-group pair trees are disjoint, so the tasks are
            // independent.
            Class::Sparse => {
                let sp = &self.sparse;
                let mut groups: Vec<(u32, u64)> = Vec::new();
                let items = (0..sp.num_groups()).map(|g| (g as u32, sp.group_total(g)));
                chain_split(coord, k, sp.total(), items, &mut groups);
                tasks.extend(
                    groups
                        .iter()
                        .map(|&(group, k)| SplitTask::Sparse { group, k }),
                );
            }
        }
    }

    /// Execute one split task against the frozen state, appending its
    /// coalesced rewrite keys to `out`. `split` is caller-provided scratch
    /// (cleared here) so the serial path and each worker reuse one
    /// allocation across tasks.
    pub fn run_task(
        &self,
        task: &SplitTask,
        rng: &mut Xoshiro256,
        split: &mut Vec<(usize, u64)>,
        out: &mut Vec<KeyGroup>,
    ) {
        split.clear();
        match *task {
            SplitTask::Eq { node, k } => {
                self.eq
                    .split_node(node, k, rng, &|b| self.eq_block(b), split);
                out.extend(split.iter().map(|&(s, k)| ((s as State, s as State), k)));
            }
            SplitTask::Xx { k } => {
                // Hierarchical split — initiator extra state (weight
                // c·(E−1), i.e. ∝ c), then responder extra state (weight c
                // minus one when sharing the initiator's state).
                let e_total = self.extra_agents;
                let mut initiators: Vec<(State, u64)> = Vec::new();
                chain_split(rng, k, e_total, self.extras(), &mut initiators);
                let mut responders: Vec<(State, u64)> = Vec::new();
                for &(e1, k1) in &initiators {
                    responders.clear();
                    let items = self.extras().map(|(s, c)| (s, c - (s == e1) as u64));
                    chain_split(rng, k1, e_total - 1, items, &mut responders);
                    out.extend(responders.iter().map(|&(e2, k2)| ((e1, e2), k2)));
                }
            }
            SplitTask::Cross {
                node,
                extra,
                extra_initiates,
                k,
            } => {
                self.rank_occ
                    .split_node(node, k, rng, &|b| self.rank_block(b), split);
                out.extend(split.iter().map(|&(r, k_re)| {
                    let r = r as State;
                    (
                        if extra_initiates {
                            (extra, r)
                        } else {
                            (r, extra)
                        },
                        k_re,
                    )
                }));
            }
            SplitTask::Sparse { group, k } => {
                let base = self.schema.group_off[group as usize] as usize;
                self.sparse.split_group(group as usize, k, rng, split);
                out.extend(
                    split
                        .iter()
                        .map(|&(pi, k)| (self.schema.pairs[base + pi], k)),
                );
            }
        }
    }

    /// Draw one productive ordered state pair with exactly one `below(W)`
    /// RNG draw, `W = ` [`productive_pairs`](Self::productive_pairs)
    /// (which the caller has verified to be positive), the classes laid
    /// end to end in [`Class::ALL`] order.
    #[inline]
    pub fn sample_pair(&self, rng: &mut Xoshiro256) -> (State, State) {
        // One comparison per class, written out rather than looped: each
        // `sample_in` call then folds to its own arm. (A loop over
        // `Class::ALL` measured ~8% slower per exact step on A_G at
        // n = 4096, on a 2-vCPU x86-64 VM.)
        let [c0, c1, c2, c3] = Class::ALL;
        let (w0, w1, w2) = (self.weight(c0), self.weight(c1), self.weight(c2));
        let mut u = rng.below(w0 + w1 + w2 + self.weight(c3));
        if u < w0 {
            return self.sample_in(c0, u);
        }
        u -= w0;
        if u < w1 {
            return self.sample_in(c1, u);
        }
        u -= w1;
        if u < w2 {
            return self.sample_in(c2, u);
        }
        self.sample_in(c3, u - w2)
    }

    /// The productive ordered state pair at offset `u < weight(c)` of
    /// class `c`.
    #[inline(always)]
    fn sample_in(&self, c: Class, u: u64) -> (State, State) {
        match c {
            Class::Eq => {
                let s = self.eq.sample(u, &|b| self.eq_block(b)) as State;
                (s, s)
            }
            Class::Xx => {
                let e = self.extra_agents;
                let s1 = self.extra_state_at(u / (e - 1), None);
                let s2 = self.extra_state_at(u % (e - 1), Some(s1));
                (s1, s2)
            }
            Class::Cross => {
                let re = self.rank_agents * self.extra_agents;
                let (extra_initiates, rem) = match self.schema.cross {
                    Some(CrossDirection::RankInitiator) => (false, u),
                    Some(CrossDirection::ExtraInitiator) => (true, u),
                    Some(CrossDirection::Both) => (u >= re, u % re),
                    None => unreachable!(),
                };
                let rank_idx = rem / self.extra_agents;
                let extra_idx = rem % self.extra_agents;
                let rank_state = self.rank_occ.sample(rank_idx, &|b| self.rank_block(b)) as State;
                let extra_state = self.extra_state_at(extra_idx, None);
                if extra_initiates {
                    (extra_state, rank_state)
                } else {
                    (rank_state, extra_state)
                }
            }
            Class::Sparse => self.schema.pairs[self.sparse.sample(u, &self.schema)],
        }
    }

    /// The extra states with their occupancy, in ascending state order.
    fn extras(&self) -> impl Iterator<Item = (State, u64)> + '_ {
        (self.num_ranks..self.counts.len()).map(|s| (s as State, self.counts[s] as u64))
    }

    /// Number of occupied extra states, kept by every count change.
    #[inline]
    pub fn occupied_extras(&self) -> u64 {
        self.occupied_extras
    }

    /// Sample the `idx`-th extra agent (0-based over all agents in extra
    /// states, grouped by state id) and return its state.
    pub fn extra_state_at(&self, mut idx: u64, skip_one_of: Option<State>) -> State {
        for s in self.num_ranks..self.counts.len() {
            let mut c = self.counts[s] as u64;
            if skip_one_of == Some(s as State) {
                c -= 1;
            }
            if idx < c {
                return s as State;
            }
            idx -= c;
        }
        unreachable!("extra agent index out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::sparse::pair_weight;
    use super::*;
    use crate::protocol::{ClassSpec, Protocol};
    use proptest::prelude::*;

    /// A protocol exercising every class shape at once: equal-rank rules,
    /// a cross class, extra–extra — declared exactly.
    struct AllClasses;
    impl Protocol for AllClasses {
        fn name(&self) -> &str {
            "all-classes"
        }
        fn population_size(&self) -> usize {
            6
        }
        fn num_states(&self) -> usize {
            8
        }
        fn num_rank_states(&self) -> usize {
            6
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            let rank = |s: State| (s as usize) < 6;
            match (rank(i), rank(r)) {
                (true, true) => (i == r).then_some((i, (r + 1) % 6)),
                // Extras always fall back to rank 5 (never identity).
                (false, false) => Some((5, 5)),
                (true, false) => Some((i, 5)),
                (false, true) => Some((5, r)),
            }
        }
    }
    impl InteractionSchema for AllClasses {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![
                ClassSpec::equal_rank(),
                ClassSpec::extra_extra(),
                ClassSpec::rank_extra(CrossDirection::Both),
            ]
        }
    }

    #[test]
    fn class_state_weights_match_brute_force() {
        crate::protocol::validate_interaction_schema(&AllClasses).unwrap();
        // counts: ranks [2, 1, 0, 1, 0, 0], extras [1, 1]
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let st = ClassState::new(&AllClasses, counts.clone()).unwrap();
        // Brute force: count productive ordered agent pairs.
        let mut expect = 0u64;
        for a in 0..8u32 {
            for b in 0..8u32 {
                if AllClasses.transition(a, b).is_some() {
                    expect += pair_weight(&counts, a, b);
                }
            }
        }
        assert_eq!(st.productive_pairs(), expect);
        assert_eq!(st.weight(Class::Eq), 2); // only state 0 has c(c−1) = 2
        assert_eq!(st.weight(Class::Xx), 2); // E = 2
        assert_eq!(st.weight(Class::Cross), 2 * 4 * 2); // both directions, R·E = 8
    }

    #[test]
    fn count_changes_keep_weights_consistent() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        st.change_count::<false>(0, -1);
        st.change_count::<false>(6, 1);
        let fresh = ClassState::new(&AllClasses, st.counts.clone()).unwrap();
        assert_eq!(st.productive_pairs(), fresh.productive_pairs());
        assert_eq!(st.weight(Class::Eq), fresh.weight(Class::Eq));
        assert_eq!(st.rank_agents, fresh.rank_agents);
        assert_eq!(st.extra_agents, fresh.extra_agents);
        assert_eq!(st.occupied_extras(), 2);
    }

    /// Regression for the silent-wrap bug: a delta sequence applied out of
    /// order (the decrement of a later rewrite arriving before the
    /// increment that funds it) drove `(u64 as i64 + delta) as u64`
    /// through a negative intermediate and wrapped to a huge weight.
    /// It must be a hard error instead.
    #[test]
    #[should_panic(expected = "out-of-order delta application")]
    fn count_change_rejects_transiently_negative_occupancy() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        // Out-of-order sequence: state 2 is empty, so the -1 that should
        // have followed a +1 arrives first.
        st.change_count::<false>(2, -1);
    }

    #[test]
    #[should_panic(expected = "out-of-order delta application")]
    fn count_change_rejects_grouped_underflow() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        // A coalesced group delta larger than the occupancy it drains.
        st.change_count::<false>(0, -3);
    }

    #[test]
    fn sample_pair_covers_every_class_in_proportion() {
        let counts = vec![1, 2, 0, 0, 0, 0, 2, 1];
        let st = ClassState::new(&AllClasses, counts.clone()).unwrap();
        let w = st.productive_pairs();
        let mut rng = Xoshiro256::seed_from_u64(17);
        let trials = 40_000u64;
        let mut per_pair = std::collections::HashMap::new();
        for _ in 0..trials {
            *per_pair.entry(st.sample_pair(&mut rng)).or_insert(0u64) += 1;
        }
        for (&(a, b), &hits) in &per_pair {
            assert!(
                AllClasses.transition(a, b).is_some(),
                "null pair ({a},{b}) sampled"
            );
            let expect = pair_weight(&counts, a, b) as f64 / w as f64;
            let got = hits as f64 / trials as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "pair ({a},{b}): {got:.4} vs {expect:.4}"
            );
        }
        let covered: u64 = per_pair
            .keys()
            .map(|&(a, b)| pair_weight(&counts, a, b))
            .sum();
        assert_eq!(covered, w, "every positive-weight pair must be reachable");
    }

    /// Five states, pairs across several initiator groups (including a
    /// diagonal), declared deliberately out of group order — compile must
    /// reorder them group-contiguously.
    pub(super) struct MultiGroup;
    impl Protocol for MultiGroup {
        fn name(&self) -> &str {
            "multi-group"
        }
        fn population_size(&self) -> usize {
            12
        }
        fn num_states(&self) -> usize {
            5
        }
        fn num_rank_states(&self) -> usize {
            5
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            match (i, r) {
                (3, 0) | (0, 2) | (2, 2) | (0, 4) | (2, 1) | (4, 0) => Some(((i + 1) % 5, r)),
                _ => None,
            }
        }
    }
    impl InteractionSchema for MultiGroup {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![
                ClassSpec::pair(3, 0),
                ClassSpec::pair(0, 2),
                ClassSpec::pair(2, 2),
                ClassSpec::pair(0, 4),
                ClassSpec::pair(2, 1),
                ClassSpec::pair(4, 0),
            ]
        }
    }

    /// The tree protocol's class shape — equal-rank dispersal, extra–extra
    /// and the two-way cross class — over `ranks` rank states and
    /// `extras` extra states, the vehicle for the block-tree proptest
    /// below. With `holes`, every fifth rank state has no equal-rank rule,
    /// so some equal-rank bitset words are only partly set. The transition
    /// is never consulted by `ClassState`; it exists to satisfy the trait.
    struct TreeShaped {
        n: usize,
        ranks: usize,
        extras: usize,
        holes: bool,
    }
    impl Protocol for TreeShaped {
        fn name(&self) -> &str {
            "tree-shaped"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.ranks + self.extras
        }
        fn num_rank_states(&self) -> usize {
            self.ranks
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            let rank = |s: State| (s as usize) < self.ranks;
            match (rank(i), rank(r)) {
                (true, true) => (i == r && self.equal_rank_rule(i)).then_some((i, r + 1)),
                _ => Some((0, 0)),
            }
        }
    }
    impl InteractionSchema for TreeShaped {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![
                ClassSpec::equal_rank(),
                ClassSpec::extra_extra(),
                ClassSpec::rank_extra(CrossDirection::Both),
            ]
        }
        fn equal_rank_rule(&self, s: State) -> bool {
            !self.holes || !s.is_multiple_of(5)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Deferred block sums are exact: random batches of (possibly
        /// multi-agent) count deltas over ≥ 16 blocks, applied through
        /// `update_count_deferred` with a `flush_deferred` after each
        /// batch, leave the `eq` and `rank_occ` trees and `max_eq_bound`
        /// equal to the same deltas through `change_count`. Batches range
        /// from one change (a single stale block) to over a hundred.
        #[test]
        fn deferred_block_sums_match_immediate_updates(
            seed in 0u64..5_000,
            blocks in 16usize..40,
            holes in any::<bool>(),
            batches in 4usize..10,
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let ranks = (blocks - 1) * BLOCK + 1 + rng.below(BLOCK as u64) as usize;
            let extras = 1 + rng.below(6) as usize;
            let counts: Vec<u32> =
                (0..ranks + extras).map(|_| rng.below(4) as u32).collect();
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = TreeShaped { n, ranks, extras, holes };
            let mut deferred = ClassState::new(&p, counts).unwrap();
            let mut immediate = deferred.clone();
            for _ in 0..batches {
                for _ in 0..1 + rng.below(120) {
                    let donor = loop {
                        let s = rng.below(deferred.counts.len() as u64) as usize;
                        if deferred.counts[s] > 0 {
                            break s;
                        }
                    };
                    let k = 1 + rng.below(deferred.counts[donor] as u64) as i64;
                    let recv = rng.below(deferred.counts.len() as u64) as State;
                    for (s, d) in [(donor as State, -k), (recv, k)] {
                        deferred.update_count_deferred(s, d);
                        immediate.change_count::<false>(s, d);
                    }
                }
                deferred.flush_deferred();
                prop_assert_eq!(&deferred.counts, &immediate.counts);
                prop_assert_eq!(&deferred.eq, &immediate.eq);
                prop_assert_eq!(&deferred.rank_occ, &immediate.rank_occ);
                prop_assert_eq!(deferred.max_eq_bound, immediate.max_eq_bound);
            }
            // The word-at-a-time refresh finds the per-state maximum.
            let expect = (0..ranks)
                .filter(|&s| deferred.schema.eq_rule(s))
                .map(|s| deferred.counts[s] as u64)
                .fold(1, u64::max);
            deferred.refresh_bound(Class::Eq);
            prop_assert_eq!(deferred.max_eq_bound, expect);
        }
    }

    /// Rank states with an arbitrary equal-rank rule mask and a two-way
    /// cross class, for the block-view oracle (`tree`) and the block
    /// placement test (`split`). The transition is never consulted by
    /// `ClassState`; it exists to satisfy the trait.
    pub(super) struct RuleMask {
        pub(super) n: usize,
        pub(super) rules: Vec<bool>,
        pub(super) extras: usize,
    }
    impl Protocol for RuleMask {
        fn name(&self) -> &str {
            "rule-mask"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.rules.len() + self.extras
        }
        fn num_rank_states(&self) -> usize {
            self.rules.len()
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            (i == r && self.equal_rank_rule(i)).then_some((i, r))
        }
    }
    impl InteractionSchema for RuleMask {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![
                ClassSpec::equal_rank(),
                ClassSpec::rank_extra(CrossDirection::Both),
            ]
        }
        fn equal_rank_rule(&self, s: State) -> bool {
            self.rules.get(s as usize).copied().unwrap_or(false)
        }
    }

    /// The live equal-rank bits are set exactly at the rank states with
    /// an equal-rank rule and at least two agents (none past the last
    /// rank state), and the occupied-extra counter equals a scan.
    pub(super) fn check_live_bits(st: &ClassState, rules: &[bool]) -> Result<(), TestCaseError> {
        prop_assert_eq!(st.eq_live.len(), rules.len().div_ceil(BLOCK));
        for (w, &word) in st.eq_live.iter().enumerate() {
            for j in 0..BLOCK {
                let s = w * BLOCK + j;
                let live = s < rules.len() && rules[s] && st.counts[s] >= 2;
                prop_assert_eq!((word >> j) & 1 == 1, live, "state {}", s);
            }
        }
        let occupied = st.counts[rules.len()..].iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(st.occupied_extras(), occupied as u64);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A move is the two count changes it stands for, and the `Eq`
        /// bound refresh over the live words is a scan over every state
        /// with a rule. Runs of random moves — within a block, across a
        /// block edge, and between rank and extra states — alternate
        /// between `move_agents` and `move_agents_deferred` (flushed after
        /// the run); the same moves go through `change_count(from, −k)`,
        /// `change_count(to, k)` on a copy. Counts, both block trees, the
        /// live words, the agent totals and `max_eq_bound` must agree after
        /// every immediate move and every flush, and after each run
        /// `refresh_bound(Class::Eq)` must give the largest count at a
        /// state with a rule (at least 1).
        #[test]
        fn moves_match_count_changes_and_refresh_scans(
            seed in 0u64..100_000,
            blocks in 1usize..5,
            holes in any::<bool>(),
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let ranks = (blocks - 1) * BLOCK + 1 + rng.below(BLOCK as u64) as usize;
            let extras = 1 + rng.below(3) as usize;
            let mut counts: Vec<u32> =
                (0..ranks + extras).map(|_| rng.below(5) as u32).collect();
            counts[0] += 1;
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = TreeShaped { n, ranks, extras, holes };
            let mut moved = ClassState::new(&p, counts).unwrap();
            let mut changed = moved.clone();
            let states = ranks + extras;
            for run in 0..6 {
                let defer = run % 2 == 1;
                for _ in 0..1 + rng.below(60) {
                    let from = loop {
                        let s = rng.below(states as u64) as usize;
                        if moved.counts[s] > 0 {
                            break s;
                        }
                    };
                    let to = match rng.below(3) {
                        0 => (from + 1) % states,
                        1 => (from / BLOCK * BLOCK + rng.below(BLOCK as u64) as usize).min(states - 1),
                        _ => rng.below(states as u64) as usize,
                    };
                    if to == from {
                        continue;
                    }
                    let k = 1 + rng.below(moved.counts[from] as u64);
                    let (f, t) = (from as State, to as State);
                    if defer {
                        moved.move_agents_deferred(f, t, k);
                        changed.update_count_deferred(f, -(k as i64));
                        changed.update_count_deferred(t, k as i64);
                    } else {
                        moved.move_agents(f, t, k);
                        changed.change_count::<false>(f, -(k as i64));
                        changed.change_count::<false>(t, k as i64);
                        prop_assert_eq!(&moved.eq, &changed.eq);
                        prop_assert_eq!(&moved.rank_occ, &changed.rank_occ);
                    }
                    prop_assert_eq!(&moved.counts, &changed.counts);
                    prop_assert_eq!(&moved.eq_live, &changed.eq_live);
                    prop_assert_eq!(moved.max_eq_bound, changed.max_eq_bound);
                }
                moved.flush_deferred();
                changed.flush_deferred();
                prop_assert_eq!(&moved.eq, &changed.eq);
                prop_assert_eq!(&moved.rank_occ, &changed.rank_occ);
                prop_assert_eq!(moved.rank_agents, changed.rank_agents);
                prop_assert_eq!(moved.extra_agents, changed.extra_agents);
                check_live_bits(&moved, &(0..ranks).map(|s| p.equal_rank_rule(s as State)).collect::<Vec<_>>())?;
                let want = (0..ranks)
                    .filter(|&s| p.equal_rank_rule(s as State))
                    .map(|s| moved.counts[s] as u64)
                    .fold(1, u64::max);
                moved.refresh_bound(Class::Eq);
                changed.refresh_bound(Class::Eq);
                prop_assert_eq!(moved.max_eq_bound, want);
                prop_assert_eq!(changed.max_eq_bound, want);
            }
        }
    }

    /// Reading a block-tree weight between a deferred change and its
    /// flush is a bug the debug build refuses.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "block sums read before flush")]
    fn reading_block_sums_before_a_flush_panics() {
        let mut st = ClassState::new(&AllClasses, vec![2, 1, 0, 1, 0, 0, 1, 1]).unwrap();
        st.update_count_deferred(0, -1);
        st.update_count_deferred(2, 1);
        let _ = st.weight(Class::Eq);
    }
}
