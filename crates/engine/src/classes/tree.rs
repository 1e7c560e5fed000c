//! Weight trees: [`WeightTree`] over stored leaves, [`BlockTree`] over
//! leaves derived a block at a time through a block view.
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
//!
//! [`ClassState`]: super::ClassState
//! [`ClassState::eq_block`]: super::ClassState::eq_block
//! [`ClassState::rank_block`]: super::ClassState::rank_block

use super::split::{chain_binomials, chain_draw, place_in_block};
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
pub(super) const BLOCK: usize = 64;

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
pub(crate) struct WeightTree {
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
    /// together with the residual offset *within* that slot.
    ///
    /// An in-range target can never land on a zero-weight slot (prefix
    /// sums are strict), so the descent needs no zero-leaf special case —
    /// the range check is what makes it safe in release builds.
    ///
    /// # Panics
    ///
    /// Panics if `target >= total()` — in release builds too. An unchecked
    /// descent would silently walk to the last leaf (even a zero-weight
    /// one) and corrupt the caller's weighted choice; a hard error is the
    /// only safe answer.
    #[inline]
    pub fn sample_with_offset(&self, target: u64) -> (usize, u64) {
        let total = self.total();
        assert!(
            target < total,
            "sample target {target} out of range (total weight {total})"
        );
        self.descend(1, target)
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

    /// Slot containing offset `target` when weights are laid end to end.
    ///
    /// # Panics
    ///
    /// As [`sample_with_offset`](Self::sample_with_offset).
    #[inline]
    pub fn sample(&self, target: u64) -> usize {
        self.sample_with_offset(target).0
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
        let (b, rem) = self.blocks.sample_with_offset(target);
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

    /// [`chain_split`](super::split::chain_split)'s law for `k` draws over
    /// block `b`'s leaves, their weights summing to `sum`, appending
    /// `(leaf index, draws)`: the same output and the same RNG draws
    /// ([`place_in_block`] for
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

/// The `eq` tree's view of one block
/// ([`ClassState::eq_block`](super::ClassState::eq_block)): its counts
/// and its live word. A block with at most half its leaves live is
/// read through those alone, found bit by bit in the live word; that is
/// what makes the dispersal tail cheap, where a block holds a few live
/// leaves among ~60 settled ones. A block with more live leaves is read
/// leaf by leaf, a dead one weighing 0, because reading the counts in
/// order then costs less per leaf than finding the set bits one at a time
/// (A_G's blocks are mostly live mid-run). Both reads see the same
/// weighted leaves. The choice is made once per read: an iterator that
/// chose per leaf measured ~8% slower per exact A_G step.
pub(crate) struct EqLeaves<'a> {
    pub(super) live: u64,
    pub(super) counts: &'a [u32],
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
pub(super) struct Bits(pub(super) u64);

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

/// Equal-rank leaf weight for occupancy `c`: `c(c−1)`, which is 0 at
/// `c = 0` too (the wrapped factor is multiplied by zero).
#[inline]
pub(super) fn eq_weight_of(c: u64) -> u64 {
    c * c.wrapping_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::split::chain_split;
    use crate::classes::tests::{check_live_bits, RuleMask};
    use crate::classes::ClassState;
    use crate::protocol::State;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The weight tree behaves exactly like a plain weight vector under
        /// an arbitrary sequence of set operations.
        #[test]
        fn weight_tree_matches_reference(
            len in 1usize..200,
            ops in prop::collection::vec((0usize..200, 0u64..1000), 1..100),
        ) {
            let mut f = WeightTree::new(len);
            let mut reference = vec![0u64; len];
            for (idx, w) in ops {
                let idx = idx % len;
                f.set(idx, w);
                reference[idx] = w;
            }
            prop_assert_eq!(f.total(), reference.iter().sum::<u64>());
            for (i, &w) in reference.iter().enumerate() {
                prop_assert_eq!(f.weight(i), w, "weight at {}", i);
            }
            // Every weighted slot is hit by sampling its range boundaries.
            let mut offset = 0u64;
            for (i, &w) in reference.iter().enumerate() {
                if w > 0 {
                    prop_assert_eq!(f.sample(offset), i);
                    prop_assert_eq!(f.sample(offset + w - 1), i);
                    offset += w;
                }
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
        assert_eq!(t.sample(0), 0);
        assert_eq!(t.sample(1), 0);
        assert_eq!(t.sample(2), 3);
        assert_eq!(t.sample(6), 3);
        assert_eq!(t.sample_with_offset(4), (3, 2));
        // `target == total` is out of range.
        for target in [7, u64::MAX] {
            let hit = std::panic::catch_unwind(|| t.sample(target));
            assert!(hit.is_err(), "target {target} sampled");
        }
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
        let nodes = [1, (size / 2).max(1), size + bt.blocks.len - 1];
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
        /// after a run of `change_count` calls, after a run of
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
                            0 => st.change_count::<false>(s, d),
                            _ => st.update_count_deferred(s, d),
                        }
                    }
                }
                st.flush_deferred();
            }
        }
    }
}
