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
//! # The split law: one law, two placements
//!
//! A batch hands each item of a weighted list (a class, a tree node's
//! children, a block's leaves, the extra states, a sparse group's pairs)
//! its multinomial share of `k` draws. Above `BERNOULLI_MAX_N` draws the
//! shares are chained binomials ([`chain_binomials`]). At or below it,
//! each draw is one offset `below(total)`, and an item takes the offsets
//! inside its stretch `[end_{i−1}, end_i)` of the running weight sum.
//! Those offsets are placed in one of two ways, with the same RNG draws
//! and the same output:
//!
//! - an item list ([`chain_split`]: extra states, sparse groups) sorts the
//!   offsets and sweeps the items once;
//! - a [`BlockTree`] block ([`place_in_block`]) writes its ≤ [`BLOCK`]
//!   running sums to an array and finds each offset's leaf by a
//!   branch-free binary search, counting hits per leaf, then emits them
//!   in leaf order. A batch's block splits are small (a few to a few
//!   dozen draws), so dropping the sort is most of their cost.
//!
//! # Sparse pairs: a two-level hierarchy
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
//! [`ClassState::update_count`]: exact per-state partner sums
//! (`Σ_(pairs touching s) c_partner`) and two lazily-refreshed maxima —
//! the largest per-pair scale `max(c_a, c_b)` and the largest partner sum
//! — kept as *stale-high* bounds with the same eager-grow/lazy-shrink
//! discipline as `max_eq_bound` and its refresh. That replaces the old
//! per-batch `O(Σ deg)` full rescan (`sparse_partner_scale`) with an
//! `O(deg(s))` walk per count change and an occasional exact refresh.
//!
//! The walk goes over `s`'s **partner row** ([`CompiledSchema::partners`],
//! a CSR): one entry per distinct off-diagonal partner `t`, carrying the
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
//! immediate [`ClassState::update_count`].
//!
//! # The equal-rank view: live leaves only
//!
//! An equal-rank leaf weighs `c(c−1)`, so it is positive only at a rank
//! state with a rule and at least two agents: a *live* leaf.
//! [`ClassState`] keeps one live bit per rank state (`eq_live`, a bitset
//! whose word `b` covers block `b`), set in the pass that sums the blocks
//! and kept by every count change, immediate or deferred.
//! [`ClassState::eq_block`] reads a block through its live word
//! ([`EqLeaves`]): a block with at most half its leaves live yields only
//! those, so a scan or a block split reads a handful of leaves, not 64.
//! That is the tree protocol's dispersal tail, where nearly every rank
//! state holds one agent and a batch is millions of one-draw key groups
//! spread over all blocks. Leaving a zero-weight leaf out changes no
//! result: no split regime gives it a draw or spends an RNG draw on it.
//! [`ClassState::rank_block`] yields every leaf (an occupancy leaf is
//! positive wherever an agent is).
//!
//! # Memory
//!
//! The per-rank-state weight structures (`eq`, `rank_occ`) do **not** store
//! leaf weights: both are pure functions of the occupancy counts
//! (`c(c−1)` and `c`), so [`BlockTree`] keeps only one `u64` sum per block
//! of [`BLOCK`] leaves and derives the leaves on demand, a block at a
//! time: [`ClassState::eq_block`] and [`ClassState::rank_block`] read
//! block `b` from one slice of `counts` (and, for `eq`, the live word
//! `eq_live[b]`). For a protocol with `≈ n` rank states this is ~`n/4`
//! bytes per tree, plus `n/8` bytes of live bits, plus the `4n`-byte
//! counts vector — down from `2·8·2n = 32n` bytes for two materialised
//! `u64` weight trees — which is what lets a single tree-protocol run reach
//! `n = 2³⁰` within a few GB. Deferral adds one flag per tree.

use crate::error::ConfigError;
use crate::protocol::{ClassSpec, CrossDirection, InteractionClass, InteractionSchema, State};
use crate::rng::{Xoshiro256, BERNOULLI_MAX_N};

/// At or below this many remaining draws at an internal node,
/// [`WeightTree::split`] and [`BlockTree::split_node`] switch from
/// binomial splitting to one direct weighted descent per draw (cheaper in
/// RNG draws, identical in distribution). A share that reaches a
/// [`BlockTree`] block leaf goes to the block's split
/// ([`BlockLeaves::split`]) instead, whatever its size. (A sorted-offset
/// descent from every node with up to `BERNOULLI_MAX_N` draws, in place
/// of this threshold, was measured and not adopted: no faster on A_G,
/// slower per draw on the tree protocol.)
const SPLIT_DIRECT_THRESHOLD: u64 = 8;

/// Leaves per [`BlockTree`] block: the tree keeps one `u64` sum per block
/// and scans at most this many derived leaf weights at the bottom of a
/// descent.
const BLOCK: usize = 64;

// A block's equal-rank rule bits are exactly one `has_eq` word, and its
// live bits one `eq_live` word (`ClassState::eq_block`).
const _: () = assert!(BLOCK == u64::BITS as usize);

/// Complete binary weight tree over `u64` weights: `O(log n)` point
/// updates, `O(1)` totals, `O(log n)` weighted sampling, and recursive
/// multinomial **splitting** of a batch over all weighted slots in
/// `O(occupied)` binomial draws.
///
/// `sample` maps a target offset to the slot containing it in prefix-sum
/// order: slot `i` owns the offsets `[w₀ + … + wᵢ₋₁, w₀ + … + wᵢ)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightTree {
    /// Number of leaves (padded to a power of two).
    size: usize,
    /// Logical slot count.
    len: usize,
    /// 1-based heap layout; `tree[1]` is the root, leaves start at `size`.
    tree: Vec<u64>,
}

impl WeightTree {
    /// Tree of `len` zero weights.
    pub fn new(len: usize) -> Self {
        let size = len.next_power_of_two().max(1);
        WeightTree {
            size,
            len,
            tree: vec![0; 2 * size],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current weight at `index`.
    #[inline]
    pub fn weight(&self, index: usize) -> u64 {
        self.tree[self.size + index]
    }

    /// Sum of all weights.
    #[inline]
    pub fn total(&self) -> u64 {
        self.tree[1]
    }

    /// Set the weight at `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: u64) {
        assert!(index < self.len, "weight index out of range");
        let mut node = self.size + index;
        let old = self.tree[node];
        if old == value {
            return;
        }
        // Delta propagation: one read-modify-write per ancestor.
        if value >= old {
            let delta = value - old;
            while node >= 1 {
                self.tree[node] += delta;
                node >>= 1;
            }
        } else {
            let delta = old - value;
            while node >= 1 {
                self.tree[node] -= delta;
                node >>= 1;
            }
        }
    }

    /// Replace every weight at once and rebuild the internal sums in
    /// `O(len)` (vs `O(len log len)` for repeated [`set`](Self::set)) —
    /// the bulk constructor for population-sized trees.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != len()`.
    pub fn assign(&mut self, values: &[u64]) {
        assert_eq!(values.len(), self.len, "assign length mismatch");
        self.tree[self.size..self.size + self.len].copy_from_slice(values);
        for slot in &mut self.tree[self.size + self.len..] {
            *slot = 0;
        }
        self.resum();
    }

    /// Recompute every internal sum from the leaves, one level at a time
    /// (each level is a contiguous slice, so the pass streams through
    /// memory).
    fn resum(&mut self) {
        let mut width = self.size / 2;
        while width >= 1 {
            let (parents, children) = self.tree[width..4 * width].split_at_mut(width);
            for (p, pair) in parents.iter_mut().zip(children.chunks_exact(2)) {
                *p = pair[0] + pair[1];
            }
            width /= 2;
        }
    }

    /// Slot containing offset `target` when weights are laid end to end,
    /// together with the residual offset *within* that slot, or `None`
    /// when `target >= total()`.
    ///
    /// An in-range target can never land on a zero-weight slot (prefix
    /// sums are strict), so the descent needs no zero-leaf special case —
    /// the out-of-range guard is what makes it safe in release builds.
    #[inline]
    pub fn try_sample_with_offset(&self, target: u64) -> Option<(usize, u64)> {
        if target >= self.total() {
            return None;
        }
        Some(self.descend(1, target))
    }

    /// Leaf under `node` containing offset `target` of `node`'s subtree,
    /// with the residual offset within that leaf. Each level steps right
    /// iff `target >= w_left`, subtracting `w_left` only then — the slot a
    /// `w_left > target` branch would choose, computed without one, so a
    /// 50/50 choice per level costs no mispredicted branch.
    #[inline]
    fn descend(&self, mut node: usize, mut target: u64) -> (usize, u64) {
        while node < self.size {
            let left = 2 * node;
            let w_left = self.tree[left];
            let right = target >= w_left;
            target -= w_left * right as u64;
            node = left + right as usize;
        }
        (node - self.size, target)
    }

    /// Slot containing offset `target`, or `None` when
    /// `target >= total()` (the checked form of [`sample`](Self::sample)).
    #[inline]
    pub fn try_sample(&self, target: u64) -> Option<usize> {
        self.try_sample_with_offset(target).map(|(slot, _)| slot)
    }

    /// Slot containing offset `target` when weights are laid end to end.
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()` — in release builds too. An unchecked
    /// descent would silently walk to the last leaf (even a zero-weight
    /// one) and corrupt the caller's weighted choice; a hard error is the
    /// only safe answer. Use [`try_sample`](Self::try_sample) to handle
    /// the out-of-range case gracefully.
    #[inline]
    pub fn sample(&self, target: u64) -> usize {
        match self.try_sample(target) {
            Some(slot) => slot,
            None => panic!(
                "sample target {target} out of range (total weight {})",
                self.total()
            ),
        }
    }

    /// Split a batch of `b` weighted draws across all slots: appends
    /// `(slot, k_slot)` pairs with `Σ k_slot == b`, distributed
    /// multinomially with probabilities proportional to slot weights.
    ///
    /// Implemented by recursive binomial splitting at each tree node, so
    /// the cost is `O(occupied)` binomial draws rather than `O(b)` samples.
    ///
    /// # Panics
    ///
    /// Debug-panics if `b > 0` with zero total weight.
    pub fn split(&self, b: u64, rng: &mut Xoshiro256, out: &mut Vec<(usize, u64)>) {
        if b == 0 {
            return;
        }
        debug_assert!(self.total() > 0, "cannot split over zero weight");
        self.split_below(1, b, rng, out, &|leaf, _| leaf, &|leaf, k, _, out| {
            out.push((leaf, k))
        });
    }

    /// Split `k` draws below `node` with the multinomial law over its
    /// leaves: one [`chain_draw`] per level, until a subtree holds at most
    /// [`SPLIT_DIRECT_THRESHOLD`] draws, which then take one direct
    /// weighted descent each (`locate` maps the leaf and residual offset a
    /// descent ends at to the emitted slot). A share that reaches a leaf
    /// goes to `at_leaf`.
    fn split_below(
        &self,
        node: usize,
        k: u64,
        rng: &mut Xoshiro256,
        out: &mut Vec<(usize, u64)>,
        locate: &impl Fn(usize, u64) -> usize,
        at_leaf: &impl Fn(usize, u64, &mut Xoshiro256, &mut Vec<(usize, u64)>),
    ) {
        if k == 0 {
            return;
        }
        if node >= self.size {
            at_leaf(node - self.size, k, rng, out);
            return;
        }
        if k <= SPLIT_DIRECT_THRESHOLD {
            // Few draws left in this subtree: k direct weighted descents
            // (one RNG draw each) beat a binomial per level. Identical in
            // distribution — both are the multinomial over leaf weights.
            let total = self.tree[node];
            for _ in 0..k {
                let (leaf, rem) = self.descend(node, rng.below(total));
                let slot = locate(leaf, rem);
                // Runs of the same slot are coalesced opportunistically;
                // duplicates across runs are harmless to the caller.
                match out.last_mut() {
                    Some((last, c)) if *last == slot => *c += 1,
                    _ => out.push((slot, 1)),
                }
            }
            return;
        }
        let left = 2 * node;
        let kl = self.left_share(left, k, rng);
        self.split_below(left, kl, rng, out, locate, at_leaf);
        self.split_below(left + 1, k - kl, rng, out, locate, at_leaf);
    }

    /// How many of the `k` draws at `left`'s parent go to `left`: the
    /// chained law's [`chain_draw`] with the left child as the item.
    #[inline]
    fn left_share(&self, left: usize, k: u64, rng: &mut Xoshiro256) -> u64 {
        let wl = self.tree[left];
        chain_draw(rng, k, wl, wl + self.tree[left + 1])
    }
}

/// Weight tree over *derived* leaves: the structure stores one `u64` sum
/// per block of [`BLOCK`] leaves (in an internal [`WeightTree`]) and the
/// caller supplies the leaves through a **block view**, `view(b)`: block
/// `b`'s leaf weights in leaf order, as one iterator (for the engines a
/// pure function of one slice of the occupancy counts, so no per-leaf
/// array is ever materialised). Every read of derived leaves — a scan, a
/// block split, the block sums at construction — reads a block at a time
/// through the view.
///
/// Sampling descends the block tree without branching and then scans at
/// most [`BLOCK`] derived leaves, from the end of the block nearer to the
/// target offset; point updates touch one block sum; multinomial
/// splitting mirrors [`WeightTree::split`], finishing each block with
/// one split of its share over the derived leaves: for up to
/// `BERNOULLI_MAX_N` draws, one uniform per draw, each placed by a
/// binary search over the block's running sums ([`place_in_block`]).
///
/// [`partition`](Self::partition) additionally pre-splits a batch into
/// independent subtree tasks — the unit of work the count engine hands to
/// its thread pool. Each task carries the exact conditional binomial the
/// sequential split would have drawn at that node, so executing the tasks
/// with independent RNG streams reproduces the same multinomial law.
///
/// [`update_deferred`](Self::update_deferred) is the batch-apply form of
/// [`update`](Self::update): it rewrites only the block sum and marks the
/// tree stale, and [`flush`](Self::flush) rebuilds the internal sums
/// once before the next read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockTree {
    /// Number of leaves.
    len: usize,
    /// One `u64` sum per block of `BLOCK` leaves.
    blocks: WeightTree,
    /// True iff a block sum changed through
    /// [`update_deferred`](Self::update_deferred) since the last
    /// [`flush`](Self::flush), so the internal sums are out of date.
    stale: bool,
}

/// A tree without leaves, for a class the schema does not declare.
impl Default for BlockTree {
    fn default() -> Self {
        BlockTree::new(0)
    }
}

impl BlockTree {
    /// Tree over `len` derived leaves, every block sum 0: a constructor
    /// then sets each block's sum through
    /// [`set_block_deferred`](Self::set_block_deferred) and flushes once.
    pub fn new(len: usize) -> Self {
        BlockTree {
            len,
            blocks: WeightTree::new(len.div_ceil(BLOCK)),
            stale: false,
        }
    }

    /// Set block `b`'s sum outright, deferred like
    /// [`update_deferred`](Self::update_deferred): the tree is stale until
    /// [`flush`](Self::flush).
    #[inline]
    pub fn set_block_deferred(&mut self, b: usize, sum: u64) {
        self.blocks.tree[self.blocks.size + b] = sum;
        self.stale = true;
    }

    /// True if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all leaf weights.
    #[inline]
    pub fn total(&self) -> u64 {
        self.debug_assert_flushed();
        self.blocks.total()
    }

    #[inline]
    fn debug_assert_flushed(&self) {
        debug_assert!(!self.stale, "block sums read before flush");
    }

    /// Account for the leaf at `i` changing from weight `old` to `new`
    /// (leaves are derived, so the caller supplies both values).
    #[inline]
    pub fn update(&mut self, i: usize, old: u64, new: u64) {
        if old == new {
            return;
        }
        let b = i / BLOCK;
        let sum = self.blocks.weight(b);
        debug_assert!(sum >= old, "block sum below departing leaf weight");
        self.blocks.set(b, sum - old + new);
    }

    /// [`update`](Self::update) without the walk to the root: only the
    /// block sum changes, and the tree is marked stale until
    /// [`flush`](Self::flush), which must run before the next read.
    #[inline]
    pub fn update_deferred(&mut self, i: usize, old: u64, new: u64) {
        if old == new {
            return;
        }
        debug_assert!(i < self.len, "leaf index out of range");
        let leaf = &mut self.blocks.tree[self.blocks.size + i / BLOCK];
        debug_assert!(*leaf >= old, "block sum below departing leaf weight");
        *leaf = *leaf - old + new;
        self.stale = true;
    }

    /// Bring the internal sums up to date with every block changed
    /// through [`update_deferred`](Self::update_deferred), in one
    /// bottom-up pass over all of them.
    pub fn flush(&mut self) {
        if self.stale {
            self.blocks.resum();
            self.stale = false;
        }
    }

    /// Leaf containing offset `target` in prefix-sum order — the same
    /// mapping a materialised [`WeightTree::sample`] over the leaf weights
    /// would produce.
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()`.
    #[inline]
    pub fn sample<I: BlockLeaves>(&self, target: u64, view: &impl Fn(usize) -> I) -> usize {
        self.debug_assert_flushed();
        let (b, rem) = match self.blocks.try_sample_with_offset(target) {
            Some(hit) => hit,
            None => panic!(
                "sample target {target} out of range (total weight {})",
                self.total()
            ),
        };
        view(b).leaf_at(b, rem, self.blocks.weight(b))
    }

    /// Multinomial split of `k` draws over the leaves below `node` in the
    /// block-tree node space (`1` is the root), appending `(leaf, k)`
    /// pairs in ascending leaf order — the execution half of
    /// [`partition`](Self::partition). Equivalent in distribution to
    /// [`WeightTree::split`] over the materialised leaf weights; a block's
    /// share goes to [`BlockLeaves::split`] over its derived leaves.
    pub fn split_node<I: BlockLeaves>(
        &self,
        node: usize,
        k: u64,
        rng: &mut Xoshiro256,
        view: &impl Fn(usize) -> I,
        out: &mut Vec<(usize, u64)>,
    ) {
        self.debug_assert_flushed();
        let t = &self.blocks;
        t.split_below(
            node,
            k,
            rng,
            out,
            &|b, rem| view(b).leaf_at(b, rem, t.weight(b)),
            &|b, k, rng, out| view(b).split(b, k, t.weight(b), rng, out),
        );
    }

    /// Deterministically pre-split `k` draws into independent subtree
    /// tasks: descends while a side holds more than `task_draws` draws,
    /// drawing exactly the conditional binomials a full split from the
    /// root would draw at those nodes, and appends `(node, k)` pairs in
    /// left-to-right order. Completing each task with
    /// [`split_node`](Self::split_node) under an *independent* RNG stream
    /// yields the same multinomial law as one sequential split — and a
    /// result that does not depend on how tasks are scheduled over
    /// threads.
    pub fn partition(
        &self,
        k: u64,
        task_draws: u64,
        rng: &mut Xoshiro256,
        out: &mut Vec<(usize, u64)>,
    ) {
        self.debug_assert_flushed();
        if k == 0 {
            return;
        }
        self.partition_rec(1, k, task_draws, rng, out);
    }

    fn partition_rec(
        &self,
        node: usize,
        k: u64,
        task_draws: u64,
        rng: &mut Xoshiro256,
        out: &mut Vec<(usize, u64)>,
    ) {
        if k == 0 {
            return;
        }
        if k <= task_draws || node >= self.blocks.size {
            out.push((node, k));
            return;
        }
        let left = 2 * node;
        let kl = self.blocks.left_share(left, k, rng);
        self.partition_rec(left, kl, task_draws, rng, out);
        self.partition_rec(left + 1, k - kl, task_draws, rng, out);
    }
}

/// One [`BlockTree`] block as a block view gives it, read in one of two
/// ways: a scan for the leaf holding an offset, or a split of draws over
/// its leaves. Any iterator of `(offset in the block, weight)` in leaf
/// order, readable from either end, is one ([`scan_block`], and
/// [`place_in_block`] or [`chain_binomials`] over it). A view may leave
/// out zero-weight leaves: neither read gives such a leaf a draw or
/// spends an RNG draw on it, so skipping one changes no result.
pub(crate) trait BlockLeaves: Sized {
    /// Leaf index (in the whole tree) of the leaf of block `b`, its leaf
    /// weights summing to `sum`, that holds the residual offset `rem`.
    fn leaf_at(self, b: usize, rem: u64, sum: u64) -> usize;

    /// [`chain_split`]'s law for `k` draws over block `b`'s leaves, their
    /// weights summing to `sum`, appending `(leaf index, draws)`: the
    /// same output and the same RNG draws ([`place_in_block`] for
    /// `k ≤ BERNOULLI_MAX_N`).
    fn split(self, b: usize, k: u64, sum: u64, rng: &mut Xoshiro256, out: &mut Vec<(usize, u64)>);
}

impl<I: DoubleEndedIterator<Item = (usize, u64)>> BlockLeaves for I {
    #[inline]
    fn leaf_at(self, b: usize, rem: u64, sum: u64) -> usize {
        scan_block(b, rem, sum, self)
    }

    #[inline]
    fn split(self, b: usize, k: u64, sum: u64, rng: &mut Xoshiro256, out: &mut Vec<(usize, u64)>) {
        if k <= BERNOULLI_MAX_N {
            place_in_block(rng, k, sum, b, self, out);
        } else {
            chain_binomials(rng, k, sum, self.map(|(j, w)| (b * BLOCK + j, w)), out);
        }
    }
}

/// [`chain_split`]'s small-`k` regime within one block, without its sort:
/// the same `k ≤ BERNOULLI_MAX_N` offsets `below(sum)`, in the same
/// order, each located by a branch-free binary search over the block's
/// ≤ [`BLOCK`] running weight sums (padded with `u64::MAX`, which no
/// offset reaches). A leaf takes offset `o` iff its running sums bracket
/// it, `end_{i−1} ≤ o < end_i`, as in the sorted sweep, so a zero-weight
/// leaf takes none. Hits are counted per leaf and emitted in leaf order:
/// the sweep's output, draw for draw.
#[inline]
fn place_in_block(
    rng: &mut Xoshiro256,
    k: u64,
    sum: u64,
    b: usize,
    leaves: impl Iterator<Item = (usize, u64)>,
    out: &mut Vec<(usize, u64)>,
) {
    debug_assert!(
        k <= BERNOULLI_MAX_N,
        "block placement past the sweep regime"
    );
    let mut ends = [u64::MAX; BLOCK];
    let mut slot = [0u8; BLOCK];
    let mut acc = 0u64;
    for (i, (j, w)) in leaves.enumerate() {
        acc += w;
        ends[i] = acc;
        slot[i] = j as u8;
    }
    debug_assert_eq!(acc, sum, "block sum inconsistent with derived leaf weights");
    let mut hits = [0u8; BLOCK];
    let mut hit = 0u64;
    for _ in 0..k {
        let o = rng.below(sum);
        // The number of running sums `≤ o`, i.e. the first `i` with
        // `o < ends[i]`, found in six halvings without a branch.
        let mut i = 0;
        for half in [32, 16, 8, 4, 2, 1] {
            i += half * (ends[i + half - 1] <= o) as usize;
        }
        hits[i] += 1;
        hit |= 1 << i;
    }
    for i in Bits(hit) {
        out.push((b * BLOCK + slot[i] as usize, hits[i] as u64));
    }
}

/// `reps` equal-rank block splits of `k` draws each over one block of
/// counts (at most 64), as a batch split makes them, appended to `out`:
/// the block's live word and leaf sum are derived once, then each split
/// reads the block through the `eq` view (`EqLeaves`). For the layer
/// benches, which cannot reach the crate-private block types.
#[doc(hidden)]
pub fn split_eq_block(
    counts: &[u32],
    k: u64,
    reps: usize,
    rng: &mut Xoshiro256,
    out: &mut Vec<(usize, u64)>,
) {
    assert!(
        counts.len() <= BLOCK,
        "one block holds at most {BLOCK} leaves"
    );
    let live = counts
        .iter()
        .enumerate()
        .fold(0u64, |m, (j, &c)| m | (((c >= 2) as u64) << j));
    let sum = counts.iter().map(|&c| eq_weight_of(c as u64)).sum();
    for _ in 0..reps {
        BlockLeaves::split(EqLeaves { live, counts }, 0, k, sum, rng, out);
    }
}

/// The `eq` tree's view of one block ([`ClassState::eq_block`]): its
/// counts and its live word. A block with at most half its leaves live is
/// read through those alone, found bit by bit in the live word; that is
/// what makes the dispersal tail cheap, where a block holds a few live
/// leaves among ~60 settled ones. A block with more live leaves is read
/// leaf by leaf, a dead one weighing 0, because reading the counts in
/// order then costs less per leaf than finding the set bits one at a time
/// (A_G's blocks are mostly live mid-run). Both reads see the same
/// weighted leaves. The choice is made once per read: an iterator that
/// chose per leaf measured ~8% slower per exact A_G step.
pub(crate) struct EqLeaves<'a> {
    live: u64,
    counts: &'a [u32],
}

impl<'a> EqLeaves<'a> {
    /// Whether more than half the block is live.
    #[inline]
    fn dense(&self) -> bool {
        self.live.count_ones() > (BLOCK / 2) as u32
    }

    /// The live leaves alone.
    #[inline]
    fn live_leaves(&self) -> impl DoubleEndedIterator<Item = (usize, u64)> + 'a {
        let counts = self.counts;
        Bits(self.live).map(move |j| (j, eq_weight_of(counts[j] as u64)))
    }

    /// Every leaf, a dead one weighing 0.
    #[inline]
    fn all_leaves(&self) -> impl DoubleEndedIterator<Item = (usize, u64)> + 'a {
        let live = self.live;
        self.counts.iter().enumerate().map(move |(j, &c)| {
            (
                j,
                eq_weight_of(c as u64) & 0u64.wrapping_sub((live >> j) & 1),
            )
        })
    }
}

impl BlockLeaves for EqLeaves<'_> {
    #[inline]
    fn leaf_at(self, b: usize, rem: u64, sum: u64) -> usize {
        if self.dense() {
            scan_block(b, rem, sum, self.all_leaves())
        } else {
            scan_block(b, rem, sum, self.live_leaves())
        }
    }

    #[inline]
    fn split(self, b: usize, k: u64, sum: u64, rng: &mut Xoshiro256, out: &mut Vec<(usize, u64)>) {
        if self.dense() {
            BlockLeaves::split(self.all_leaves(), b, k, sum, rng, out);
        } else {
            BlockLeaves::split(self.live_leaves(), b, k, sum, rng, out);
        }
    }
}

/// The set bits of one word, as bit offsets, lowest first; from the back,
/// highest first.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let j = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(j)
    }
}

impl DoubleEndedIterator for Bits {
    #[inline]
    fn next_back(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let j = 63 - self.0.leading_zeros() as usize;
        self.0 &= !(1 << j);
        Some(j)
    }
}

/// Leaf of block `b` (leaf weights `leaves`, summing to `sum`) containing
/// the residual offset `rem`.
///
/// The scan starts at the end nearer to `rem`: the leaf holding offset
/// `rem` from the block's start is the one holding offset `sum − 1 − rem`
/// from its end, so both directions choose the same leaf, and fewer
/// leaves are read (on A_G at n = 4096, half-way to silence, 18 instead
/// of 32 per scan on average).
#[inline]
fn scan_block(
    b: usize,
    rem: u64,
    sum: u64,
    leaves: impl DoubleEndedIterator<Item = (usize, u64)>,
) -> usize {
    debug_assert!(rem < sum, "residual offset outside its block");
    if rem < sum / 2 {
        let mut rem = rem;
        for (j, w) in leaves {
            if rem < w {
                return b * BLOCK + j;
            }
            rem -= w;
        }
    } else {
        let mut rem = sum - 1 - rem;
        for (j, w) in leaves.rev() {
            if rem < w {
                return b * BLOCK + j;
            }
            rem -= w;
        }
    }
    panic!("block {b} sum inconsistent with derived leaf weights");
}

/// Split `k` draws across weighted `items` — a multinomial over the
/// weights, `total` being their sum. Appends `(slot, draws)` in item order
/// for every slot that received draws, so a zero-weight slot never
/// appears.
///
/// Two regimes, one law:
///
/// - `k ≤ BERNOULLI_MAX_N`: each draw is an offset `below(total)`; the
///   offsets are sorted and assigned in one pass, item `i` receiving those
///   in `[acc_{i−1}, acc_i)` of the running weight sum. Each offset lands
///   on item `i` with probability `w_i/total`, so this is the multinomial
///   exactly, for `k` uniforms and integer arithmetic only. (Chained
///   binomials here would spend up to `k` uniforms *per item*, since a
///   binomial of `n ≤ BERNOULLI_MAX_N` counts `n` Bernoulli trials.)
/// - larger `k`: [`chain_binomials`].
///
/// This is the one definition of the split law: the count engine's
/// extra-state, cross-extra and sparse-group splits delegate here;
/// [`BlockTree`]'s in-block splits place the same offsets without the
/// sort ([`place_in_block`]) or call [`chain_binomials`]; and the class
/// split and every tree node split draw through the same [`chain_draw`],
/// so a change to the law cannot leave them diverged unnoticed (the two
/// placements are pinned equal by a test).
pub(crate) fn chain_split<S: Copy>(
    rng: &mut Xoshiro256,
    k: u64,
    total: u64,
    items: impl Iterator<Item = (S, u64)>,
    out: &mut Vec<(S, u64)>,
) {
    if k == 0 {
        return;
    }
    if k <= BERNOULLI_MAX_N {
        let mut buf = [0u64; BERNOULLI_MAX_N as usize];
        let offs = &mut buf[..k as usize];
        for o in offs.iter_mut() {
            *o = rng.below(total);
        }
        offs.sort_unstable();
        let mut j = 0;
        let mut acc = 0u64;
        for (slot, w) in items {
            acc += w;
            let first = j;
            while j < offs.len() && offs[j] < acc {
                j += 1;
            }
            if j > first {
                out.push((slot, (j - first) as u64));
                if j == offs.len() {
                    break;
                }
            }
        }
        debug_assert_eq!(j, offs.len(), "chain split left draws unassigned");
        return;
    }
    chain_binomials(rng, k, total, items, out);
}

/// Split `k` draws across weighted `items` (weights summing to `total`)
/// by chained conditional binomials: each item in turn takes its
/// [`chain_draw`] of the draws left over the weight left. Exact only as
/// far as [`Xoshiro256::binomial`] is. Appends `(slot, draws)` in item
/// order for every slot that received draws.
pub(crate) fn chain_binomials<S: Copy>(
    rng: &mut Xoshiro256,
    mut k: u64,
    total: u64,
    items: impl Iterator<Item = (S, u64)>,
    out: &mut Vec<(S, u64)>,
) {
    let mut w_rem = total;
    for (slot, w) in items {
        if k == 0 {
            break;
        }
        let draws = chain_draw(rng, k, w, w_rem);
        if draws > 0 {
            out.push((slot, draws));
        }
        k -= draws;
        w_rem -= w;
    }
    debug_assert_eq!(k, 0, "chain split left draws unassigned");
}

/// How many of `k` draws go to an item of weight `w` when `w_rem ≥ w` is
/// the weight of it and every item after it: all of them when it holds
/// all of that weight, else `Binomial(k, w / w_rem)` (0, with no RNG draw,
/// when `w = 0`).
#[inline]
fn chain_draw(rng: &mut Xoshiro256, k: u64, w: u64, w_rem: u64) -> u64 {
    if w >= w_rem {
        k
    } else {
        rng.binomial(k, w as f64 / w_rem as f64)
    }
}

/// A protocol's [`InteractionSchema`] flattened into the form the engines
/// consume: flags per structured class, the equal-rank membership bitset,
/// and the enumerated sparse pairs with their groups and partner rows.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledSchema {
    /// Whether each class may batch, indexed by [`Class`]: every
    /// declaration of it is exchangeable (true for an undeclared class).
    pub exchangeable: [bool; 4],
    /// Whether the `EqualRank` class is declared.
    pub eq: bool,
    /// Bitset over rank states: bit `s` set iff an equal-rank rule exists
    /// at `s` (empty when `eq` is false). A bitset rather than
    /// `Vec<bool>` — at `n = 2³⁰` rank states that is 128 MB vs 1 GB.
    pub has_eq: Vec<u64>,
    /// Whether the `ExtraExtra` class is declared.
    pub xx: bool,
    /// Declared cross direction(s), if any (two single-direction
    /// declarations merge into `Both`).
    pub cross: Option<CrossDirection>,
    /// Enumerated sparse pairs, reordered group-contiguously: stably
    /// sorted by initiator state, so each initiator's pairs form one
    /// contiguous index range (a *group* — the unit of the two-level
    /// sparse weight hierarchy and of parallel sparse split tasks).
    pub pairs: Vec<(State, State)>,
    /// Group boundaries: group `g` owns pairs
    /// `group_off[g]..group_off[g + 1]` (length `num_groups + 1`; one
    /// group per distinct initiator state, in ascending state order).
    pub group_off: Vec<u32>,
    /// Group of the pairs state `s` initiates, or [`ABSENT`] when it
    /// initiates none (length `num_states`, empty when there are no
    /// pairs).
    pub state_group: Vec<u32>,
    /// CSR offsets into [`partners`](Self::partners): state `s`'s partner
    /// row is `partners[partner_off[s]..partner_off[s + 1]]` (length
    /// `num_states + 1`, empty when there are no pairs).
    pub partner_off: Vec<u32>,
    /// Partner rows: one entry per distinct off-diagonal partner of each
    /// state, so a pair declared in both directions is one entry per row.
    pub partners: Vec<Partner>,
    /// Index of the diagonal pair `(s, s)`, or [`ABSENT`] (length
    /// `num_states`, empty when there are no pairs).
    pub diag: Vec<u32>,
}

/// An absent index: an undeclared direction in a [`Partner`] entry, a
/// state without a diagonal pair in [`CompiledSchema::diag`], or a state
/// that initiates no pair in [`CompiledSchema::state_group`].
pub(crate) const ABSENT: u32 = u32::MAX;

/// One entry of state `s`'s partner row: a state `t ≠ s` that shares at
/// least one declared pair with `s`, and the indices of the pairs
/// `(s, t)` (in `s`'s group) and `(t, s)` (in `t`'s group), [`ABSENT`]
/// where that direction is undeclared. Both directions weigh
/// `c_s·c_t`, so one entry carries everything a count change of `s` does
/// to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Partner {
    pub state: u32,
    pub out_pair: u32,
    pub in_pair: u32,
}

impl Partner {
    /// Number of declared directions, 1 or 2: the weight of `c_s` in
    /// `partner_sum[t]` and of `c_t` in `partner_sum[s]`.
    #[inline]
    fn directions(&self) -> u64 {
        (self.out_pair != ABSENT) as u64 + (self.in_pair != ABSENT) as u64
    }
}

impl CompiledSchema {
    /// Whether rank state `s` has an equal-rank rule.
    #[inline]
    pub fn eq_rule(&self, s: usize) -> bool {
        self.eq && (self.has_eq[s >> 6] >> (s & 63)) & 1 != 0
    }

    /// State `s`'s partner row. Only for schemas with pairs.
    #[inline]
    pub fn partner_row(&self, s: usize) -> &[Partner] {
        let lo = self.partner_off[s] as usize;
        let hi = self.partner_off[s + 1] as usize;
        &self.partners[lo..hi]
    }

    /// Number of sparse groups (distinct initiator states).
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.group_off.len().saturating_sub(1)
    }

    /// Pair-index range owned by group `g`.
    #[inline]
    pub fn group_range(&self, g: usize) -> (usize, usize) {
        (self.group_off[g] as usize, self.group_off[g + 1] as usize)
    }

    /// Flatten `p`'s declared classes.
    ///
    /// # Panics
    ///
    /// Panics on declarations no engine can execute: duplicate structured
    /// classes, duplicate enumerated pairs (found while the partner rows
    /// are built), or pair states out of range.
    /// (Semantic agreement with the transition function is checked by
    /// [`crate::protocol::validate_interaction_schema`], not here.)
    pub fn compile<P: InteractionSchema + ?Sized>(p: &P) -> Self {
        let num_ranks = p.num_rank_states();
        let num_states = p.num_states();
        let mut schema = CompiledSchema {
            exchangeable: [true; 4],
            ..CompiledSchema::default()
        };
        for ClassSpec {
            class,
            exchangeable,
        } in p.interaction_classes()
        {
            let c = match class {
                InteractionClass::EqualRank => {
                    assert!(!schema.eq, "EqualRank class declared twice");
                    schema.eq = true;
                    Class::Eq
                }
                InteractionClass::ExtraExtra => {
                    assert!(!schema.xx, "ExtraExtra class declared twice");
                    schema.xx = true;
                    Class::Xx
                }
                InteractionClass::RankExtra(d) => {
                    schema.cross = Some(match (schema.cross, d) {
                        (None, d) => d,
                        (Some(CrossDirection::RankInitiator), CrossDirection::ExtraInitiator)
                        | (Some(CrossDirection::ExtraInitiator), CrossDirection::RankInitiator) => {
                            CrossDirection::Both
                        }
                        (Some(prev), d) => {
                            panic!("RankExtra directions {prev:?} and {d:?} overlap")
                        }
                    });
                    Class::Cross
                }
                InteractionClass::Pair {
                    initiator,
                    responder,
                } => {
                    assert!(
                        (initiator as usize) < num_states && (responder as usize) < num_states,
                        "sparse pair ({initiator},{responder}) out of state range"
                    );
                    schema.pairs.push((initiator, responder));
                    Class::Sparse
                }
            };
            schema.exchangeable[c as usize] &= exchangeable;
        }
        if schema.eq {
            schema.has_eq = vec![0u64; num_ranks.div_ceil(64)];
            for s in 0..num_ranks {
                if p.equal_rank_rule(s as State) {
                    schema.has_eq[s >> 6] |= 1 << (s & 63);
                }
            }
        }
        if !schema.pairs.is_empty() {
            // Group-contiguous reorder: one group per distinct initiator
            // state. Pair order is not semantically observable — schema
            // validation is set-based, and both engines sample pairs
            // weight-proportionally through the same structure — so the
            // stable sort is free to pick the layout the two-level
            // hierarchy wants: each group a contiguous pair-index range.
            schema.pairs.sort_by_key(|&(a, _)| a);
            schema.build_partner_rows(num_states);
        }
        schema
    }

    /// Build the groups and the partner rows over the initiator-sorted
    /// `pairs`, rejecting duplicates on the way: a repeated responder in a
    /// state's own group, a second diagonal, or a repeated initiator among
    /// a state's in-pairs is a pair declared twice. `O(num_states +
    /// num_pairs)`.
    fn build_partner_rows(&mut self, num_states: usize) {
        let pairs = &self.pairs;
        let np = pairs.len();
        let declared_twice = |pi: usize| -> ! {
            let (initiator, responder) = pairs[pi];
            panic!("sparse pair ({initiator},{responder}) declared twice")
        };
        let mut state_group = vec![ABSENT; num_states];
        let mut group_off: Vec<u32> = Vec::new();
        // In-pairs by responder (counting sort, ascending pair index):
        // after the fill, state `s`'s in-pairs are
        // `in_pairs[in_end[s - 1]..in_end[s]]` (from 0 for `s = 0`).
        let mut in_end = vec![0u32; num_states + 1];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if state_group[a as usize] == ABSENT {
                state_group[a as usize] = group_off.len() as u32;
                group_off.push(i as u32);
            }
            if a != b {
                in_end[b as usize + 1] += 1;
            }
        }
        group_off.push(np as u32);
        for s in 0..num_states {
            in_end[s + 1] += in_end[s];
        }
        let mut in_pairs = vec![0u32; in_end[num_states] as usize];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            if a != b {
                let e = &mut in_end[b as usize];
                in_pairs[*e as usize] = i as u32;
                *e += 1;
            }
        }
        // Each row: the state's own group in pair order, then the in-pairs
        // whose initiator is not already a partner. `slot[t]` is `t`'s
        // entry in the row being built if it is at or past `row_start`.
        let mut partners: Vec<Partner> = Vec::with_capacity(in_pairs.len());
        let mut partner_off = Vec::with_capacity(num_states + 1);
        let mut diag = vec![ABSENT; num_states];
        let mut slot = vec![ABSENT; num_states];
        partner_off.push(0u32);
        let mut in_start = 0usize;
        for s in 0..num_states {
            let row_start = partners.len();
            let in_row = |e: u32| e != ABSENT && e as usize >= row_start;
            let g = state_group[s];
            if g != ABSENT {
                let (lo, hi) = (group_off[g as usize], group_off[g as usize + 1]);
                for pi in lo..hi {
                    let t = pairs[pi as usize].1;
                    if t as usize == s {
                        if diag[s] != ABSENT {
                            declared_twice(pi as usize);
                        }
                        diag[s] = pi;
                        continue;
                    }
                    if in_row(slot[t as usize]) {
                        declared_twice(pi as usize);
                    }
                    slot[t as usize] = partners.len() as u32;
                    partners.push(Partner {
                        state: t,
                        out_pair: pi,
                        in_pair: ABSENT,
                    });
                }
            }
            let in_stop = in_end[s] as usize;
            for &pi in &in_pairs[in_start..in_stop] {
                let t = pairs[pi as usize].0;
                let e = slot[t as usize];
                if in_row(e) {
                    let entry = &mut partners[e as usize];
                    if entry.in_pair != ABSENT {
                        declared_twice(pi as usize);
                    }
                    entry.in_pair = pi;
                } else {
                    slot[t as usize] = partners.len() as u32;
                    partners.push(Partner {
                        state: t,
                        out_pair: ABSENT,
                        in_pair: pi,
                    });
                }
            }
            in_start = in_stop;
            partner_off.push(partners.len() as u32);
        }
        self.group_off = group_off;
        self.state_group = state_group;
        self.partner_off = partner_off;
        self.partners = partners;
        self.diag = diag;
    }
}

/// Weight of one enumerated ordered state pair under `counts`.
#[inline]
fn pair_weight(counts: &[u32], a: State, b: State) -> u64 {
    let ca = counts[a as usize] as u64;
    if a == b {
        ca * ca.saturating_sub(1)
    } else {
        ca * counts[b as usize] as u64
    }
}

/// Occupancy counts of the rank states in [`BlockTree`] block `b`:
/// `counts[b·BLOCK .. min(b·BLOCK + BLOCK, num_ranks)]`.
#[inline]
fn block_counts(counts: &[u32], num_ranks: usize, b: usize) -> &[u32] {
    let start = b * BLOCK;
    &counts[start..(start + BLOCK).min(num_ranks)]
}

/// Equal-rank leaf weight for occupancy `c`: `c(c−1)`, which is 0 at
/// `c = 0` too (the wrapped factor is multiplied by zero).
#[inline]
fn eq_weight_of(c: u64) -> u64 {
    c * c.wrapping_sub(1)
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
/// discipline as [`ClassState::max_eq_bound`].
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
        let (g, rem) = match self.groups.try_sample_with_offset(target) {
            Some(hit) => hit,
            None => panic!(
                "sample target {target} out of range (total weight {})",
                self.total()
            ),
        };
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
/// [`update_count`](Self::update_count). Every per-class decision of the
/// count engine is one method here with one `match` arm per [`Class`]
/// (see the module docs' table). The default is an empty placeholder
/// that the count engine's worker pool swaps in while a batch job holds
/// the real state; it is never sampled from.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassState {
    pub schema: CompiledSchema,
    pub counts: Vec<u32>,
    pub num_ranks: usize,
    /// Block sums of the per-rank-state weights `c(c−1)` where an
    /// equal-rank rule exists; leaves are derived from `counts` on demand
    /// (empty when the class is not declared).
    pub eq: BlockTree,
    /// Bitset over rank states: bit `s` set iff `s`'s equal-rank weight
    /// is positive, i.e. `s` has an equal-rank rule and `c_s ≥ 2` (empty
    /// when the class is not declared). Word `b` covers block `b`, and
    /// [`eq_block`](Self::eq_block) reads the block through it.
    eq_live: Vec<u64>,
    /// Block sums of the per-rank-state occupancy, for cross-pair sampling
    /// and splitting; leaves are the `counts` entries themselves (empty
    /// when no cross class is declared).
    pub rank_occ: BlockTree,
    /// Two-level sparse-pair hierarchy plus incremental drift statistics
    /// (empty without enumerated pairs).
    pub sparse: SparseState,
    pub rank_agents: u64,
    pub extra_agents: u64,
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

    /// The live words, for tests outside this module.
    #[cfg(test)]
    pub fn eq_live(&self) -> &[u64] {
        &self.eq_live
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

    /// Add `delta` to the occupancy of state `s`, updating every weight
    /// structure the schema declares.
    ///
    /// # Panics
    ///
    /// Panics if the occupancy would leave `0..=u32::MAX` — a transiently
    /// negative intermediate must never be silently wrapped into a huge
    /// weight, so out-of-order delta sequences are a hard error.
    #[inline]
    pub fn update_count(&mut self, s: State, delta: i64) {
        self.change_count::<false>(s, delta);
    }

    /// [`update_count`](Self::update_count) for batch apply: the `eq` and
    /// `rank_occ` trees update only `s`'s block sum, and the sparse pairs
    /// touching `s` keep their weights, until
    /// [`flush_deferred`](Self::flush_deferred), which must run before the
    /// next weight read. The counts, the agent totals and the drift
    /// bounds (`max_eq_bound`, the sparse ones) are updated at once.
    ///
    /// # Panics
    ///
    /// As [`update_count`](Self::update_count).
    #[inline]
    pub fn update_count_deferred(&mut self, s: State, delta: i64) {
        self.change_count::<true>(s, delta);
    }

    /// Move `k` agents from state `from` to state `to ≠ from`: field for
    /// field the same as `update_count(from, −k)` then
    /// `update_count(to, k)`. When both are rank states of one block and
    /// the schema has no sparse pairs, the move is one change: the `eq`
    /// block sum is rewritten once (one walk to the root) and the live
    /// word once, while the `rank_occ` block sum and `rank_agents`, which
    /// a move within a block leaves as they are, are not touched.
    ///
    /// # Panics
    ///
    /// As [`update_count`](Self::update_count).
    #[inline]
    pub fn move_agents(&mut self, from: State, to: State, k: u64) {
        self.shift::<false>(from, to, k);
    }

    /// [`move_agents`](Self::move_agents) for batch apply, deferred as
    /// [`update_count_deferred`](Self::update_count_deferred) is.
    ///
    /// # Panics
    ///
    /// As [`update_count`](Self::update_count).
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
    use super::*;
    use crate::protocol::Protocol;
    use proptest::prelude::*;

    #[test]
    fn weight_tree_matches_reference() {
        let weights = [3u64, 0, 5, 1, 0, 0, 9, 2, 4, 0, 1];
        let mut t = WeightTree::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            t.set(i, w);
        }
        assert_eq!(t.total(), weights.iter().sum::<u64>());
        assert_eq!(t.weight(6), 9);
        let mut offset = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0 {
                assert_eq!(t.sample(offset), i, "slot start {i}");
                assert_eq!(t.sample(offset + w - 1), i, "slot end {i}");
                offset += w;
            }
        }
    }

    #[test]
    fn weight_tree_assign_matches_pointwise_sets() {
        let weights: Vec<u64> = (0..37).map(|i| (i * 7 % 11) as u64).collect();
        let mut bulk = WeightTree::new(weights.len());
        bulk.assign(&weights);
        let mut point = WeightTree::new(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            point.set(i, w);
        }
        assert_eq!(bulk.total(), point.total());
        for target in 0..bulk.total() {
            assert_eq!(bulk.sample(target), point.sample(target), "target {target}");
        }
    }

    #[test]
    fn weight_tree_sample_agrees_with_a_prefix_sum_scan() {
        let mut t = WeightTree::new(37);
        let mut weights = [0u64; 37];
        let mut rng = Xoshiro256::seed_from_u64(3);
        for (i, w) in weights.iter_mut().enumerate() {
            *w = rng.below(9);
            t.set(i, *w);
        }
        assert_eq!(t.total(), weights.iter().sum::<u64>());
        for target in 0..t.total() {
            // The first slot whose prefix sum passes the target.
            let mut prefix = 0;
            let slot = weights
                .iter()
                .position(|&w| {
                    prefix += w;
                    prefix > target
                })
                .unwrap();
            assert_eq!(t.sample(target), slot, "target {target}");
        }
    }

    /// Regression: with trailing zero-weight slots, every in-range target
    /// must land on a positive-weight slot, and out-of-range targets are
    /// an error — never a silent descent into the zero tail.
    #[test]
    fn weight_tree_sample_safe_over_trailing_zeros() {
        let mut t = WeightTree::new(8);
        t.set(0, 2);
        t.set(3, 5);
        // Slots 4..8 stay zero; the last in-range target maps to slot 3.
        assert_eq!(t.total(), 7);
        assert_eq!(t.try_sample(0), Some(0));
        assert_eq!(t.try_sample(1), Some(0));
        assert_eq!(t.try_sample(2), Some(3));
        assert_eq!(t.try_sample(6), Some(3));
        assert_eq!(t.try_sample(7), None, "target == total is out of range");
        assert_eq!(t.try_sample(u64::MAX), None);
        assert_eq!(t.try_sample_with_offset(4), Some((3, 2)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn weight_tree_sample_out_of_range_is_a_hard_error() {
        let mut t = WeightTree::new(4);
        t.set(0, 3);
        t.set(1, 2);
        // Release builds used to descend to leaf 3 (weight zero) here.
        let _ = t.sample(5);
    }

    #[test]
    fn weight_tree_split_conserves_and_tracks_weights() {
        let mut t = WeightTree::new(16);
        for (i, w) in [(0usize, 100u64), (3, 300), (7, 500), (15, 100)] {
            t.set(i, w);
        }
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut totals = [0u64; 16];
        let b = 1000;
        let rounds = 200;
        for _ in 0..rounds {
            let mut out = Vec::new();
            t.split(b, &mut rng, &mut out);
            assert_eq!(out.iter().map(|&(_, k)| k).sum::<u64>(), b);
            for (i, k) in out {
                assert!(t.weight(i) > 0, "slot {i} drawn with zero weight");
                totals[i] += k;
            }
        }
        // Expected proportions 0.1 / 0.3 / 0.5 / 0.1 within a few percent.
        let grand = (b * rounds) as f64;
        for (i, expect) in [(0usize, 0.1), (3, 0.3), (7, 0.5), (15, 0.1)] {
            let got = totals[i] as f64 / grand;
            assert!(
                (got - expect).abs() < 0.02,
                "slot {i}: {got:.3} vs {expect}"
            );
        }
    }

    /// Block view over materialised leaf weights: block `b` is
    /// `weights[b·BLOCK .. min(b·BLOCK + BLOCK, len)]`, every leaf.
    fn slice_view<'a>(weights: &'a [u64]) -> impl Fn(usize) -> SliceLeaves<'a> + 'a {
        move |b| {
            weights[b * BLOCK..((b + 1) * BLOCK).min(weights.len())]
                .iter()
                .copied()
                .enumerate()
        }
    }

    type SliceLeaves<'a> = std::iter::Enumerate<std::iter::Copied<std::slice::Iter<'a, u64>>>;

    /// Block tree over materialised leaf weights, summed through the
    /// [`slice_view`] of `weights`.
    fn slice_tree(weights: &[u64]) -> BlockTree {
        let view = slice_view(weights);
        let mut bt = BlockTree::new(weights.len());
        for b in 0..weights.len().div_ceil(BLOCK) {
            bt.set_block_deferred(b, view(b).map(|(_, w)| w).sum());
        }
        bt.flush();
        bt
    }

    /// The derived-leaf block tree must reproduce the materialised
    /// weight tree's sampling map exactly and split with the same law.
    #[test]
    fn block_tree_matches_materialised_weight_tree() {
        // Spans three blocks, with zero runs inside and at the end.
        let weights: Vec<u64> = (0..150)
            .map(|i| match i % 7 {
                0 => (i as u64 % 13) + 1,
                3 => 2,
                _ => 0,
            })
            .collect();
        let view = slice_view(&weights);
        let mut bt = slice_tree(&weights);
        let mut wt = WeightTree::new(weights.len());
        wt.assign(&weights);
        assert_eq!(bt.total(), wt.total());
        for target in 0..wt.total() {
            assert_eq!(
                bt.sample(target, &view),
                wt.sample(target),
                "target {target}"
            );
        }
        // Point update keeps the map aligned.
        let mut weights2 = weights.clone();
        bt.update(70, weights2[70], 9);
        weights2[70] = 9;
        let view2 = slice_view(&weights2);
        wt.set(70, 9);
        assert_eq!(bt.total(), wt.total());
        for target in 0..wt.total() {
            assert_eq!(
                bt.sample(target, &view2),
                wt.sample(target),
                "target {target}"
            );
        }
        // Split conserves the batch and only touches positive leaves.
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut out = Vec::new();
        bt.split_node(1, 5000, &mut rng, &view2, &mut out);
        assert_eq!(out.iter().map(|&(_, k)| k).sum::<u64>(), 5000);
        for &(i, _) in &out {
            assert!(weights2[i] > 0, "leaf {i} drawn with zero weight");
        }
    }

    /// Pre-partitioned subtree tasks completed with independent RNG
    /// streams must realise the same multinomial as one sequential split.
    #[test]
    fn block_tree_partition_preserves_the_split_law() {
        let weights: Vec<u64> = (0..300).map(|i| (i as u64 * 31 % 17) + 1).collect();
        let view = slice_view(&weights);
        let bt = slice_tree(&weights);
        let b = 20_000u64;
        let rounds = 60;
        let mut totals = vec![0u64; weights.len()];
        let mut coord = Xoshiro256::seed_from_u64(21);
        for round in 0..rounds {
            let mut parts = Vec::new();
            bt.partition(b, 1024, &mut coord, &mut parts);
            assert!(parts.len() > 1, "large batch must partition");
            assert_eq!(parts.iter().map(|&(_, k)| k).sum::<u64>(), b);
            for (t, &(node, k)) in parts.iter().enumerate() {
                let seed = crate::rng::derive_seed(round * 100 + t as u64, 1);
                let mut rng = Xoshiro256::seed_from_u64(seed);
                let mut out = Vec::new();
                bt.split_node(node, k, &mut rng, &view, &mut out);
                assert_eq!(out.iter().map(|&(_, c)| c).sum::<u64>(), k);
                for (i, c) in out {
                    totals[i] += c;
                }
            }
        }
        let grand = (b * rounds) as f64;
        let wsum = bt.total() as f64;
        for (i, &w) in weights.iter().enumerate() {
            let got = totals[i] as f64 / grand;
            let expect = w as f64 / wsum;
            assert!(
                (got - expect).abs() < 0.002,
                "leaf {i}: {got:.5} vs {expect:.5}"
            );
        }
    }

    /// Key of a count vector for the split-law histograms.
    fn count_key(counts: &[u64], k: u64) -> u64 {
        counts.iter().fold(0, |key, &c| key * (k + 1) + c)
    }

    /// Exact multinomial pmf of `k` draws over `weights`, keyed by
    /// [`count_key`] (zero-weight items always count 0).
    fn multinomial_pmf(weights: &[u64], k: u64) -> std::collections::HashMap<u64, f64> {
        let total = weights.iter().sum::<u64>() as f64;
        let ln_fact = |n: u64| (2..=n).map(|i| (i as f64).ln()).sum::<f64>();
        let positive: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0).collect();
        let (&last, free) = positive.split_last().expect("some positive weight");
        let mut pmf = std::collections::HashMap::new();
        let mut counts = vec![0u64; weights.len()];
        // Odometer over the counts of every positive item but the last,
        // which takes the remainder.
        loop {
            let used: u64 = free.iter().map(|&i| counts[i]).sum();
            if used <= k {
                counts[last] = k - used;
                let ln = positive.iter().fold(ln_fact(k), |ln, &i| {
                    let c = counts[i];
                    ln + c as f64 * (weights[i] as f64 / total).ln() - ln_fact(c)
                });
                pmf.insert(count_key(&counts, k), ln.exp());
            }
            let mut d = 0;
            loop {
                let Some(&i) = free.get(d) else {
                    return pmf;
                };
                counts[i] += 1;
                if counts[i] <= k {
                    break;
                }
                counts[i] = 0;
                d += 1;
            }
        }
    }

    /// Run `split` (`k` draws over `weights`) `rounds` times and compare
    /// the joint counts with the exact multinomial in total variation.
    /// A correct sampler's empirical distance stays below the noise floor
    /// `½·Σ sd(outcome frequency)` (`E|X − Np| ≤ sd`), which the test
    /// design keeps at 0.003, so a law 0.01 away fails the
    /// `floor + 0.003` bound. Every round must conserve `k`, emit slots in
    /// ascending order, and never emit a zero-weight slot or a zero count.
    fn assert_split_law(
        weights: &[u64],
        k: u64,
        rounds: u64,
        mut split: impl FnMut(&mut Vec<(usize, u64)>),
    ) {
        let mut hist = std::collections::HashMap::<u64, u64>::new();
        let mut out = Vec::new();
        let mut counts = vec![0u64; weights.len()];
        for _ in 0..rounds {
            out.clear();
            split(&mut out);
            counts.fill(0);
            let mut prev = None;
            for &(slot, c) in &out {
                assert!(c > 0, "k = {k}: slot {slot} emitted with 0 draws");
                assert!(weights[slot] > 0, "k = {k}: zero-weight slot {slot} drawn");
                assert!(prev < Some(slot), "k = {k}: slots out of order: {out:?}");
                prev = Some(slot);
                counts[slot] = c;
            }
            assert_eq!(
                counts.iter().sum::<u64>(),
                k,
                "k = {k}: draws not conserved"
            );
            *hist.entry(count_key(&counts, k)).or_default() += 1;
        }
        let pmf = multinomial_pmf(weights, k);
        let n = rounds as f64;
        let floor: f64 = pmf.values().map(|p| 0.5 * (p * (1.0 - p) / n).sqrt()).sum();
        assert!(
            floor <= 0.003,
            "k = {k}: {rounds} rounds leave a noise floor of {floor:.4}"
        );
        let mut tv: f64 = pmf
            .iter()
            .map(|(key, p)| (hist.get(key).copied().unwrap_or(0) as f64 / n - p).abs())
            .sum();
        tv += hist
            .iter()
            .filter(|(key, _)| !pmf.contains_key(key))
            .map(|(_, &c)| c as f64 / n)
            .sum::<f64>();
        tv *= 0.5;
        assert!(
            tv <= floor + 0.003,
            "k = {k}: total variation {tv:.4} from the exact multinomial (floor {floor:.4})"
        );
    }

    /// `chain_split` realises the multinomial law exactly up to
    /// `BERNOULLI_MAX_N` draws (the sorted-offset sweep), called directly
    /// and through a block leaf of a [`BlockTree`]. Above it the chained
    /// binomials inherit `Xoshiro256::binomial`'s approximations, so only
    /// conservation and the marginal means are checked there.
    #[test]
    fn chain_split_matches_the_exact_multinomial() {
        // Zero weights at the start, in the middle and at the end, and one
        // dominant weight.
        let weights = [0u64, 2, 0, 57, 1, 0];
        let total: u64 = weights.iter().sum();
        let items = || weights.iter().copied().enumerate();
        // The same weights as block 1 of a block tree, after a full block 0.
        let leaves: Vec<u64> = (0..BLOCK as u64).map(|i| i % 5).chain(weights).collect();
        let view = slice_view(&leaves);
        let bt = slice_tree(&leaves);
        let block1 = bt.blocks.size + 1;
        for (k, seed) in [(1u64, 1u64), (2, 2), (5, 3), (BERNOULLI_MAX_N, 4)] {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            assert_split_law(&weights, k, 1_000_000, |out| {
                chain_split(&mut rng, k, total, items(), out)
            });
            let mut rng = Xoshiro256::seed_from_u64(seed + 100);
            let mut split = Vec::new();
            assert_split_law(&weights, k, 1_000_000, |out| {
                split.clear();
                bt.split_node(block1, k, &mut rng, &view, &mut split);
                out.extend(split.iter().map(|&(i, c)| (i - BLOCK, c)));
            });
        }
        for (k, seed) in [(BERNOULLI_MAX_N + 1, 5u64), (1000, 6)] {
            let rounds = 20_000u64;
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let mut sums = [0u64; 6];
            let mut out = Vec::new();
            for _ in 0..rounds {
                out.clear();
                chain_split(&mut rng, k, total, items(), &mut out);
                assert_eq!(out.iter().map(|&(_, c)| c).sum::<u64>(), k);
                for &(slot, c) in &out {
                    assert!(c > 0 && weights[slot] > 0, "k = {k}: ({slot}, {c}) emitted");
                    sums[slot] += c;
                }
            }
            for (slot, &w) in weights.iter().enumerate() {
                let p = w as f64 / total as f64;
                let mean = sums[slot] as f64 / rounds as f64;
                let se = (k as f64 * p * (1.0 - p) / rounds as f64).sqrt();
                assert!(
                    (mean - k as f64 * p).abs() <= 5.0 * se + 1e-9,
                    "k = {k}, slot {slot}: mean {mean:.3} vs {:.3}",
                    k as f64 * p
                );
            }
        }
    }

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
    fn update_count_keeps_weights_consistent() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        st.update_count(0, -1);
        st.update_count(6, 1);
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
    fn update_count_rejects_transiently_negative_occupancy() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        // Out-of-order sequence: state 2 is empty, so the -1 that should
        // have followed a +1 arrives first.
        st.update_count(2, -1);
    }

    #[test]
    #[should_panic(expected = "out-of-order delta application")]
    fn update_count_rejects_grouped_underflow() {
        let counts = vec![2, 1, 0, 1, 0, 0, 1, 1];
        let mut st = ClassState::new(&AllClasses, counts).unwrap();
        // A coalesced group delta larger than the occupancy it drains.
        st.update_count(0, -3);
    }

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
        st.update_count(1, -1);
        st.update_count(2, 1);
        assert_eq!(st.weight(Class::Sparse), 2); // c_2(c_2−1) = 2·1
        for _ in 0..20 {
            assert_eq!(st.sample_pair(&mut rng), (2, 2));
        }
    }

    #[test]
    fn compile_merges_single_direction_crosses() {
        struct TwoDir;
        impl Protocol for TwoDir {
            fn name(&self) -> &str {
                "two-dir"
            }
            fn population_size(&self) -> usize {
                2
            }
            fn num_states(&self) -> usize {
                3
            }
            fn num_rank_states(&self) -> usize {
                2
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                let rank = |s: State| s < 2;
                (rank(i) != rank(r)).then_some(if rank(i) { (i, 0) } else { (0, r) })
            }
        }
        impl InteractionSchema for TwoDir {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                vec![
                    ClassSpec::rank_extra(CrossDirection::RankInitiator),
                    ClassSpec::rank_extra(CrossDirection::ExtraInitiator),
                ]
            }
        }
        crate::protocol::validate_interaction_schema(&TwoDir).unwrap();
        let schema = CompiledSchema::compile(&TwoDir);
        assert_eq!(schema.cross, Some(CrossDirection::Both));
    }

    #[test]
    #[should_panic(expected = "sparse pair (2,2) declared twice")]
    fn compile_rejects_a_pair_declared_twice() {
        struct Twice;
        impl Protocol for Twice {
            fn name(&self) -> &str {
                "twice"
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
                Sparse.transition(i, r)
            }
        }
        impl InteractionSchema for Twice {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                // The repeat is not adjacent to its first declaration.
                vec![
                    ClassSpec::pair(2, 2),
                    ClassSpec::pair(0, 1),
                    ClassSpec::pair(2, 2),
                ]
            }
        }
        let _ = CompiledSchema::compile(&Twice);
    }

    #[test]
    fn compiled_eq_bitset_matches_protocol_rule() {
        // A rule set that straddles a 64-bit word boundary.
        struct Striped;
        impl Protocol for Striped {
            fn name(&self) -> &str {
                "striped"
            }
            fn population_size(&self) -> usize {
                100
            }
            fn num_states(&self) -> usize {
                100
            }
            fn num_rank_states(&self) -> usize {
                100
            }
            fn transition(&self, i: State, r: State) -> Option<(State, State)> {
                (i == r && i.is_multiple_of(3)).then(|| (i, (r + 1) % 100))
            }
        }
        impl InteractionSchema for Striped {
            fn interaction_classes(&self) -> Vec<ClassSpec> {
                vec![ClassSpec::equal_rank()]
            }
            fn equal_rank_rule(&self, s: State) -> bool {
                s.is_multiple_of(3)
            }
        }
        let schema = CompiledSchema::compile(&Striped);
        for s in 0..100u32 {
            assert_eq!(schema.eq_rule(s as usize), s.is_multiple_of(3), "state {s}");
        }
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
    struct MultiGroup;
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

    /// A partner row entry, for the compile tests.
    fn partner(state: u32, out_pair: u32, in_pair: u32) -> Partner {
        Partner {
            state,
            out_pair,
            in_pair,
        }
    }

    #[test]
    fn compile_builds_contiguous_groups_and_partner_rows() {
        crate::protocol::validate_interaction_schema(&MultiGroup).unwrap();
        let schema = CompiledSchema::compile(&MultiGroup);
        // Stable sort by initiator: groups 0, 2, 3, 4 in order, with
        // declaration order preserved within each group.
        assert_eq!(
            schema.pairs,
            vec![(0, 2), (0, 4), (2, 2), (2, 1), (3, 0), (4, 0)]
        );
        assert_eq!(schema.group_off, vec![0, 2, 4, 5, 6]);
        assert_eq!(schema.num_groups(), 4);
        assert_eq!(schema.state_group, vec![0, ABSENT, 1, 2, 3]);
        for (pi, &(a, _)) in schema.pairs.iter().enumerate() {
            let (lo, hi) = schema.group_range(schema.state_group[a as usize] as usize);
            assert!(lo <= pi && pi < hi, "pair {pi} outside its group range");
        }
        // Partner rows: the own group in pair order, then the in-only
        // partners; (0,4) and (4,0) share one entry in each row. The
        // diagonal (2,2) is kept apart.
        const NO: u32 = ABSENT;
        assert_eq!(schema.partner_off, vec![0, 3, 4, 6, 7, 8]);
        assert_eq!(
            schema.partners,
            vec![
                partner(2, 0, NO),
                partner(4, 1, 5),
                partner(3, NO, 4),
                partner(2, NO, 3),
                partner(1, 3, NO),
                partner(0, NO, 0),
                partner(0, 4, NO),
                partner(0, 5, 1),
            ]
        );
        assert_eq!(schema.diag, vec![NO, NO, 2, NO, NO]);
        // Every entry names its pairs correctly, and every off-diagonal
        // pair is reachable from both of its states.
        for s in 0..5usize {
            for p in schema.partner_row(s) {
                let t = p.state;
                assert_ne!(t as usize, s);
                if p.out_pair != NO {
                    assert_eq!(schema.pairs[p.out_pair as usize], (s as u32, t));
                }
                if p.in_pair != NO {
                    assert_eq!(schema.pairs[p.in_pair as usize], (t, s as u32));
                }
            }
        }
        let directions: u64 = schema.partners.iter().map(|p| p.directions()).sum();
        // 5 off-diagonal pairs, each seen from both of its states.
        assert_eq!(directions, 10);
    }

    /// Sparse test protocol whose declaration is a fixed pair list, for
    /// the compile tests. Its transition is never consulted.
    struct Declared(Vec<(State, State)>);
    impl Protocol for Declared {
        fn name(&self) -> &str {
            "declared"
        }
        fn population_size(&self) -> usize {
            4
        }
        fn num_states(&self) -> usize {
            4
        }
        fn num_rank_states(&self) -> usize {
            4
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            self.0.contains(&(i, r)).then_some((r, i))
        }
    }
    impl InteractionSchema for Declared {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            self.0.iter().map(|&(a, b)| ClassSpec::pair(a, b)).collect()
        }
    }

    #[test]
    #[should_panic(expected = "sparse pair (1,3) declared twice")]
    fn compile_rejects_an_off_diagonal_pair_declared_twice() {
        // The repeat is not adjacent to its first declaration.
        let _ = CompiledSchema::compile(&Declared(vec![(1, 3), (2, 2), (3, 1), (1, 3)]));
    }

    #[test]
    #[should_panic(expected = "sparse pair (3,1) declared twice")]
    fn compile_rejects_an_in_pair_declared_twice() {
        // State 1 sees (3,1) twice among its in-pairs before state 3's
        // own group is scanned.
        let _ = CompiledSchema::compile(&Declared(vec![(3, 1), (0, 2), (3, 1)]));
    }

    #[test]
    fn compile_accepts_both_directions_as_one_partner() {
        let schema = CompiledSchema::compile(&Declared(vec![(3, 1), (1, 3)]));
        assert_eq!(schema.pairs, vec![(1, 3), (3, 1)]);
        assert_eq!(schema.partner_row(1), &[partner(3, 0, 1)]);
        assert_eq!(schema.partner_row(3), &[partner(1, 1, 0)]);
        assert!(schema.partner_row(0).is_empty() && schema.partner_row(2).is_empty());
        assert_eq!(schema.diag, vec![ABSENT; 4]);
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

        /// After an arbitrary random walk of `update_count` calls, the
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
                st.update_count(donor as State, -1);
                st.update_count(recv, 1);
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
        /// equal to the same sequence through `update_count`.
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
                        immediate.update_count(s, d);
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
        /// `update_count`, or through `update_count_deferred` with a
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
                            st.update_count(s, d);
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
        /// equal to the same deltas through `update_count`. Batches range
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
                        immediate.update_count(s, d);
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
    /// cross class, for the block-view oracle below. The transition is
    /// never consulted by `ClassState`; it exists to satisfy the trait.
    struct RuleMask {
        n: usize,
        rules: Vec<bool>,
        extras: usize,
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

    /// [`BlockTree::split_node`] as it read leaves before block views: one
    /// closure call per leaf, and a descent that branches at every level.
    /// The view-based split must emit exactly what this emits, draw for
    /// draw.
    fn split_node_per_leaf(
        bt: &BlockTree,
        node: usize,
        k: u64,
        rng: &mut Xoshiro256,
        leaf: &dyn Fn(usize) -> u64,
        out: &mut Vec<(usize, u64)>,
    ) {
        if k == 0 {
            return;
        }
        let t = &bt.blocks;
        let leaves = |b: usize| b * BLOCK..(b * BLOCK + BLOCK).min(bt.len);
        if node >= t.size {
            let b = node - t.size;
            let items = leaves(b).map(|i| (i, leaf(i)));
            chain_split(rng, k, t.weight(b), items, out);
            return;
        }
        if k <= SPLIT_DIRECT_THRESHOLD {
            let total = t.tree[node];
            for _ in 0..k {
                let mut target = rng.below(total);
                let mut pos = node;
                while pos < t.size {
                    let left = 2 * pos;
                    if t.tree[left] > target {
                        pos = left;
                    } else {
                        target -= t.tree[left];
                        pos = left + 1;
                    }
                }
                let i = leaves(pos - t.size)
                    .find(|&i| {
                        let w = leaf(i);
                        let hit = target < w;
                        target -= if hit { 0 } else { w };
                        hit
                    })
                    .expect("residual offset inside its block");
                match out.last_mut() {
                    Some((last, c)) if *last == i => *c += 1,
                    _ => out.push((i, 1)),
                }
            }
            return;
        }
        let left = 2 * node;
        let wl = t.tree[left];
        let wr = t.tree[left + 1];
        let kl = if wr == 0 {
            k
        } else if wl == 0 {
            0
        } else {
            rng.binomial(k, wl as f64 / (wl + wr) as f64)
        };
        split_node_per_leaf(bt, left, kl, rng, leaf, out);
        split_node_per_leaf(bt, left + 1, k - kl, rng, leaf, out);
    }

    /// Check one block tree against its materialised leaf weights:
    /// every target offset samples the leaf a linear prefix-sum scan and
    /// a [`WeightTree`] find, and splits from the root, an internal node
    /// and a block leaf emit what the per-leaf reference emits under the
    /// same seed, leaving the RNG in the same state.
    fn check_block_view<I: BlockLeaves>(
        bt: &BlockTree,
        view: &impl Fn(usize) -> I,
        weights: &[u64],
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut wt = WeightTree::new(weights.len());
        wt.assign(weights);
        prop_assert_eq!(bt.total(), wt.total());
        let mut slot = 0;
        let mut end = weights.first().copied().unwrap_or(0);
        for target in 0..wt.total() {
            while target >= end {
                slot += 1;
                end += weights[slot];
            }
            let got = bt.sample(target, view);
            prop_assert_eq!(got, slot, "target {}", target);
            prop_assert_eq!(got, wt.sample(target), "target {}", target);
        }
        if bt.total() == 0 {
            return Ok(());
        }
        let size = bt.blocks.size;
        let nodes = [1, (size / 2).max(1), size + bt.blocks.len() - 1];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (t, &node) in nodes.iter().enumerate() {
            if bt.blocks.tree[node] == 0 {
                continue;
            }
            for k in [1, 3, 8, 9, 40, BERNOULLI_MAX_N, BERNOULLI_MAX_N + 1, 500] {
                let stream = crate::rng::derive_seed(seed, 10 * t as u64 + k);
                let mut rng_got = Xoshiro256::seed_from_u64(stream);
                let mut rng_want = rng_got.clone();
                got.clear();
                want.clear();
                bt.split_node(node, k, &mut rng_got, view, &mut got);
                split_node_per_leaf(bt, node, k, &mut rng_want, &|i| weights[i], &mut want);
                prop_assert_eq!(&got, &want, "node {} k {}", node, k);
                prop_assert_eq!(rng_got.next_u64(), rng_want.next_u64());
            }
        }
        Ok(())
    }

    /// The live equal-rank bits are set exactly at the rank states with
    /// an equal-rank rule and at least two agents (none past the last
    /// rank state), and the occupied-extra counter equals a scan.
    fn check_live_bits(st: &ClassState, rules: &[bool]) -> Result<(), TestCaseError> {
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

        /// Block views are the leaves they replace. Random counts (a third
        /// of them zero, or in dense cases nearly all of them ≥ 2, so the
        /// `eq` view reads blocks both ways), a random equal-rank rule
        /// mask with holes drawn more often at bitset-word edges, a final
        /// block that is full or partial, and zero to two extra states
        /// after the rank states: both trees of `ClassState` — the `eq`
        /// view (`c(c−1)` under the mask, at the live leaves) and the
        /// `rank_occ` view (`c`) — must
        /// match their weights materialised from the rule mask and the
        /// counts ([`check_block_view`]), and the live bits must be
        /// exactly rule ∧ `c ≥ 2` ([`check_live_bits`]): at construction,
        /// after a run of `update_count` calls, after a run of
        /// `update_count_deferred` calls and a flush, and after a restore
        /// (a rebuild from the counts, as the count engine restores).
        #[test]
        fn block_views_match_materialised_leaves(
            seed in 0u64..1_000_000,
            blocks in 1usize..6,
            partial in any::<bool>(),
            extras in 0usize..3,
            dense in any::<bool>(),
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let short = if partial { 1 + rng.below(BLOCK as u64 - 1) as usize } else { 0 };
            let ranks = blocks * BLOCK - short;
            // Rule holes: one in two at the first and last bit of a
            // bitset word, one in five elsewhere.
            let rules: Vec<bool> = (0..ranks)
                .map(|s| match s % BLOCK {
                    0 | 63 => rng.below(2) == 0,
                    _ => rng.below(5) != 0,
                })
                .collect();
            // Dense: ~3/4 of a block live, read leaf by leaf; else under
            // a third live, read through the live bits (`EqLeaves`).
            let mut counts: Vec<u32> = (0..ranks + extras)
                .map(|_| match (dense, rng.below(16)) {
                    (true, 0) => rng.below(2) as u32,
                    (true, _) => 2 + rng.below(4) as u32,
                    (false, x) if x < 5 => 0,
                    (false, _) => rng.below(6) as u32,
                })
                .collect();
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = RuleMask { n, rules, extras };
            let mut st = ClassState::new(&p, counts.clone()).unwrap();
            for round in 0..4 {
                check_live_bits(&st, &p.rules)?;
                let eq: Vec<u64> = (0..ranks)
                    .map(|s| match p.rules[s] {
                        true => eq_weight_of(counts[s] as u64),
                        false => 0,
                    })
                    .collect();
                let occ: Vec<u64> = counts[..ranks].iter().map(|&c| c as u64).collect();
                let (eq_seed, occ_seed) = (seed + round, seed + round + 7);
                check_block_view(&st.eq, &|b| st.eq_block(b), &eq, eq_seed)?;
                check_block_view(&st.rank_occ, &|b| st.rank_block(b), &occ, occ_seed)?;
                if round == 2 {
                    let restored = ClassState::new(&p, counts.clone()).unwrap();
                    prop_assert_eq!(&restored.eq_live, &st.eq_live);
                    prop_assert_eq!(restored.occupied_extras(), st.occupied_extras());
                    st = restored;
                    continue;
                }
                for _ in 0..40 {
                    let donor = rng.below(counts.len() as u64) as usize;
                    if counts[donor] == 0 {
                        continue;
                    }
                    let recv = rng.below(counts.len() as u64) as usize;
                    counts[donor] -= 1;
                    counts[recv] += 1;
                    for (s, d) in [(donor as State, -1), (recv as State, 1)] {
                        match round {
                            0 => st.update_count(s, d),
                            _ => st.update_count_deferred(s, d),
                        }
                    }
                }
                st.flush_deferred();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A block split of `k ≤ BERNOULLI_MAX_N` draws places them as
        /// `chain_split`'s sorted sweep does: the same `(leaf, draws)`
        /// list and the same RNG state after it, for every block of the
        /// `eq` view (dense blocks read leaf by leaf, sparse ones through
        /// the live word) and the `rank_occ` view (every leaf, zero-count
        /// ones included), with a full or a partial last block, at
        /// `k` ∈ {1, 8, 9, 63, 64}. Small counts put many offsets exactly
        /// on a leaf's running-sum edge.
        #[test]
        fn block_placement_is_the_sorted_sweep(
            seed in 0u64..1_000_000,
            blocks in 1usize..4,
            partial in any::<bool>(),
            dense in any::<bool>(),
        ) {
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let short = if partial { 1 + rng.below(BLOCK as u64 - 1) as usize } else { 0 };
            let ranks = blocks * BLOCK - short;
            let rules: Vec<bool> = (0..ranks).map(|_| rng.below(5) != 0).collect();
            let counts: Vec<u32> = (0..ranks)
                .map(|_| match (dense, rng.below(16)) {
                    (true, 0) => rng.below(2) as u32,
                    (true, _) => 2 + rng.below(4) as u32,
                    (false, x) if x < 5 => 0,
                    (false, _) => rng.below(4) as u32,
                })
                .collect();
            let n = counts.iter().map(|&c| c as usize).sum();
            let p = RuleMask { n, rules, extras: 0 };
            let st = ClassState::new(&p, counts.clone()).unwrap();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for b in 0..ranks.div_ceil(BLOCK) {
                let leaves = b * BLOCK..(b * BLOCK + BLOCK).min(ranks);
                let eq: Vec<(usize, u64)> = leaves
                    .clone()
                    .map(|s| (s, eq_weight_of(counts[s] as u64) * p.rules[s] as u64))
                    .collect();
                let occ: Vec<(usize, u64)> = leaves.map(|s| (s, counts[s] as u64)).collect();
                for (view, items) in [(0, &eq), (1, &occ)] {
                    let sum: u64 = items.iter().map(|&(_, w)| w).sum();
                    if sum == 0 {
                        continue;
                    }
                    for k in [1, 8, 9, 63, BERNOULLI_MAX_N] {
                        let stream = crate::rng::derive_seed(seed, (b * 2 + view) as u64 * 100 + k);
                        let mut rng_got = Xoshiro256::seed_from_u64(stream);
                        let mut rng_want = rng_got.clone();
                        got.clear();
                        want.clear();
                        match view {
                            0 => BlockLeaves::split(st.eq_block(b), b, k, sum, &mut rng_got, &mut got),
                            _ => BlockLeaves::split(st.rank_block(b), b, k, sum, &mut rng_got, &mut got),
                        }
                        chain_split(&mut rng_want, k, sum, items.iter().copied(), &mut want);
                        prop_assert_eq!(&got, &want, "block {} view {} k {}", b, view, k);
                        prop_assert_eq!(rng_got.next_u64(), rng_want.next_u64());
                    }
                }
            }
        }

        /// A move is the two count changes it stands for, and the `Eq`
        /// bound refresh over the live words is a scan over every state
        /// with a rule. Runs of random moves — within a block, across a
        /// block edge, and between rank and extra states — alternate
        /// between `move_agents` and `move_agents_deferred` (flushed after
        /// the run); the same moves go through `update_count(from, −k)`,
        /// `update_count(to, k)` on a copy. Counts, both block trees, the
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
                        changed.update_count(f, -(k as i64));
                        changed.update_count(t, k as i64);
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
