//! Perfectly balanced binary trees (paper §5, Figure 2) with **implicit**,
//! allocation-free geometry.
//!
//! The tree of size `k` is defined recursively from its root:
//!
//! * `k` odd, `k = 2l + 1`: the root is a **branching node** with two
//!   children, each the root of an identical perfectly balanced subtree of
//!   size `l` (for `k = 1` both subtrees are empty, i.e. the root is a
//!   **leaf**);
//! * `k` even: the root is a **non-branching node** whose single child
//!   roots a subtree of size `k − 1`.
//!
//! Nodes carry the **pre-order numbers** `0..n`: the root is `0`; the lone
//! child of a non-branching node `p` is `p + 1`; the children of a
//! branching node `p` with subtree halves of size `l` are `p + 1` (left)
//! and `p + l + 1` (right). The paper uses these numbers directly as the
//! `n` rank states of the §5 protocol.
//!
//! # Arithmetic derivation
//!
//! Every geometric attribute of a node is a pure function of `(n, p)`, so
//! nothing needs to be materialised. The recursion gives a *descent rule*:
//! starting from the root `(q, s) = (0, n)`, the subtree containing a
//! target id `p > q` is found by
//!
//! * `s` even: the only child subtree is `(q + 1, s − 1)`;
//! * `s` odd, `l = (s − 1) / 2`: the left subtree is `(q + 1, l)` and
//!   covers ids `q + 1 ..= q + l`; otherwise `p` lies in the right subtree
//!   `(q + l + 1, l)`.
//!
//! Iterating until `q == p` yields the subtree size, depth, and parent of
//! `p` in at most `height` steps, i.e. `O(log n)` (the height satisfies
//! `h ≤ 2 log₂ n`: sizes alternate between at most one even step and a
//! halving odd step). The node kind falls out of the subtree size
//! (`1 → Leaf`, even → `NonBranching`, odd → `Branching`), and children
//! follow from the pre-order arithmetic above.
//!
//! Two consequences of the recursion used throughout:
//!
//! * **level uniformity** — all nodes at the same depth root subtrees of
//!   the same size (hence the same kind): the level sizes are the sequence
//!   `s₀ = n`, `s_{d+1} = s_d − 1` if `s_d` even else `(s_d − 1) / 2`;
//! * the struct therefore stores only `n` and the (precomputed) height —
//!   **O(1) memory regardless of `n`**, where previous revisions
//!   materialised seven per-node arrays (~21 bytes/node).
//!
//! The old materialised build survives in the crate's tests as the
//! oracle the property tests compare against.
//!
//! # Examples
//!
//! ```
//! use ssr_topology::balanced_tree::{BalancedTree, NodeKind};
//!
//! // Figure 2 of the paper: n = 9.
//! let t = BalancedTree::new(9);
//! assert_eq!(t.kind(0), NodeKind::Branching);
//! assert_eq!(t.children(0), (Some(1), Some(5)));
//! assert_eq!(t.children(2), (Some(3), Some(4)));
//! assert!(t.is_leaf(8));
//! // O(1) memory: no per-node arrays.
//! assert!(std::mem::size_of::<BalancedTree>() <= 16);
//! ```

/// Role of a node in a perfectly balanced binary tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Root of an odd-size subtree `> 1`: has two children.
    Branching,
    /// Root of an even-size subtree: has exactly one child.
    NonBranching,
    /// Size-1 subtree: no children.
    Leaf,
}

/// Result of a root descent: everything known about one node.
#[derive(Debug, Clone, Copy)]
struct Locus {
    /// Size of the subtree rooted at the node.
    size: usize,
    /// Distance from the root.
    depth: u32,
    /// Parent id, `usize::MAX` for the root.
    parent: usize,
}

/// A perfectly balanced binary tree over pre-order node ids `0..n`.
///
/// Geometry is implicit: the struct stores only the population size and the
/// precomputed height, and answers every query by arithmetic on pre-order
/// ids (an `O(log n)` descent from the root — see the module docs). It is
/// therefore `O(1)`-sized however large `n` grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancedTree {
    n: usize,
    height: u32,
}

/// Kind of the root of a subtree of size `s`.
#[inline]
fn kind_of_size(s: usize) -> NodeKind {
    if s == 1 {
        NodeKind::Leaf
    } else if s.is_multiple_of(2) {
        NodeKind::NonBranching
    } else {
        NodeKind::Branching
    }
}

/// The child of node `q` (subtree size `s > 1`) whose subtree holds the
/// id `p`, `q < p < q + s`, as `(id, subtree size)`.
///
/// A chain node (even `s`) has one child, `q + 1` with size `s − 1`; a
/// branching node (odd `s`) has halves of size `l = (s − 1)/2` at `q + 1`
/// and `q + l + 1`. Both cases in one step without a branch: with
/// `l_eff = l·[s odd]`, the child is `q + 1 + l_eff·[p > q + l_eff]` and
/// its size is `(s − 1) >> [s odd]`.
#[inline]
fn step_toward(q: usize, s: usize, p: usize) -> (usize, usize) {
    let odd = s & 1;
    let l_eff = ((s - 1) / 2) * odd;
    (q + 1 + l_eff * (p > q + l_eff) as usize, (s - 1) >> odd)
}

impl BalancedTree {
    /// Build the perfectly balanced binary tree of size `n`.
    ///
    /// Costs `O(log n)` time (to walk the level-size sequence once for the
    /// height) and allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a balanced tree needs at least one node");
        // The level sizes are the same for every node at a given depth, so
        // the height is the length of the size sequence down to 1.
        let mut s = n;
        let mut height = 0u32;
        while s > 1 {
            s = if s.is_multiple_of(2) {
                s - 1
            } else {
                (s - 1) / 2
            };
            height += 1;
        }
        BalancedTree { n, height }
    }

    /// Descend from the root to node `p`, returning its subtree size,
    /// depth, and parent in `O(log n)`.
    #[inline]
    fn locate(&self, p: usize) -> Locus {
        assert!(p < self.n, "node id {p} out of range for size {}", self.n);
        let mut q = 0usize;
        let mut s = self.n;
        let mut depth = 0u32;
        let mut parent = usize::MAX;
        while q != p {
            parent = q;
            depth += 1;
            (q, s) = step_toward(q, s, p);
        }
        Locus {
            size: s,
            depth,
            parent,
        }
    }

    /// Number of nodes (also the number of rank states it spans).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the impossible empty tree (kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Kind of node `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= len()`.
    pub fn kind(&self, p: usize) -> NodeKind {
        kind_of_size(self.locate(p).size)
    }

    /// True if `p` is a leaf.
    pub fn is_leaf(&self, p: usize) -> bool {
        self.locate(p).size == 1
    }

    /// True if `p` is a branching node.
    pub fn is_branching(&self, p: usize) -> bool {
        let s = self.locate(p).size;
        s > 1 && s % 2 == 1
    }

    /// Children `(left, right)` of node `p`; non-branching nodes have only
    /// a left child, leaves none.
    pub fn children(&self, p: usize) -> (Option<usize>, Option<usize>) {
        let s = self.locate(p).size;
        match kind_of_size(s) {
            NodeKind::Leaf => (None, None),
            NodeKind::NonBranching => (Some(p + 1), None),
            NodeKind::Branching => (Some(p + 1), Some(p + (s - 1) / 2 + 1)),
        }
    }

    /// Left (or only) child of `p`.
    pub fn left_child(&self, p: usize) -> Option<usize> {
        (self.locate(p).size > 1).then_some(p + 1)
    }

    /// Right child of `p` (branching nodes only).
    pub fn right_child(&self, p: usize) -> Option<usize> {
        let s = self.locate(p).size;
        (s > 1 && s % 2 == 1).then_some(p + (s - 1) / 2 + 1)
    }

    /// Parent of `p`, `None` for the root.
    pub fn parent(&self, p: usize) -> Option<usize> {
        let par = self.locate(p).parent;
        (par != usize::MAX).then_some(par)
    }

    /// Distance of `p` from the root.
    pub fn depth(&self, p: usize) -> u32 {
        self.locate(p).depth
    }

    /// Size of the subtree rooted at `p`.
    pub fn subtree_size(&self, p: usize) -> usize {
        self.locate(p).size
    }

    /// Size of the subtree rooted at `p`, descending from `ancestor`, a
    /// node given as `(id, subtree size)` whose subtree holds `p` (the
    /// root `(0, len())` holds every id). Costs one step per level between
    /// the two, so an entry of [`block_ancestors`](Self::block_ancestors)
    /// saves every step above it.
    ///
    /// # Panics
    ///
    /// Debug-panics if `ancestor`'s subtree does not hold `p`.
    #[inline]
    pub fn subtree_size_from(&self, ancestor: (usize, usize), p: usize) -> usize {
        let (mut q, mut s) = ancestor;
        debug_assert!(
            q <= p && p < q + s && q + s <= self.n,
            "node {p} is not below ({q}, {s})"
        );
        while q != p {
            (q, s) = step_toward(q, s, p);
        }
        s
    }

    /// For each block of `width` consecutive ids, block `b` being
    /// `b·width .. min((b + 1)·width, len())`, the deepest node whose
    /// subtree holds the whole block, as `(id, subtree size)`: the start
    /// point for [`subtree_size_from`](Self::subtree_size_from) at any id
    /// of the block.
    ///
    /// A subtree covers a contiguous pre-order range, so a full block's
    /// node is the one that holds the block while neither child does: the
    /// block either starts at the node's own id or straddles the boundary
    /// between its two children. One walk finds every such node, entering
    /// only subtrees of at least `width` ids, `O(len()/width)` of them. A
    /// partial last block may sit in a smaller subtree, so it takes one
    /// descent of its own.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `len() > u32::MAX`.
    pub fn block_ancestors(&self, width: usize) -> Vec<(u32, u32)> {
        assert!(width > 0, "block width must be positive");
        let n = self.n;
        assert!(
            u32::try_from(n).is_ok(),
            "{n} ids do not fit a u32 ancestor table"
        );
        let mut out = vec![(0u32, 0u32); n.div_ceil(width)];
        let mut set = |start: usize, q: usize, s: usize| {
            if start >= q && start + width <= q + s {
                out[start / width] = (q as u32, s as u32);
            }
        };
        // Subtrees of at least `width` ids, as (id, size).
        let mut pending: Vec<(usize, usize)> = Vec::with_capacity(2 * self.height as usize + 2);
        if n >= width {
            pending.push((0, n));
        }
        while let Some((q, s)) = pending.pop() {
            if q.is_multiple_of(width) {
                set(q, q, s);
            }
            if s.is_multiple_of(2) {
                if s > width {
                    pending.push((q + 1, s - 1));
                }
            } else {
                let l = (s - 1) / 2;
                let right = q + l + 1;
                if !right.is_multiple_of(width) {
                    set(right - right % width, q, s);
                }
                if l >= width {
                    pending.push((right, l));
                    pending.push((q + 1, l));
                }
            }
        }
        let lo = n - n % width;
        if lo < n {
            // The partial last block, `lo..n`: descend while the child
            // holding `lo` also holds `n − 1`.
            let (mut q, mut s) = (0, n);
            while q != lo {
                let (c, cs) = step_toward(q, s, lo);
                if c + cs < n {
                    break;
                }
                (q, s) = (c, cs);
            }
            out[lo / width] = (q as u32, s as u32);
        }
        out
    }

    /// Height of the tree (depth of the deepest node).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Half-size `l` at a branching node `p` — the size of each of its two
    /// identical subtrees, i.e. the offset such that the right child is
    /// `p + l + 1`. Used by the §5 rule `R1`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a branching node.
    pub fn branch_half(&self, p: usize) -> usize {
        let s = self.locate(p).size;
        assert!(s > 1 && s % 2 == 1, "node {p} is not branching");
        (s - 1) / 2
    }

    /// All leaf node ids, ascending.
    ///
    /// Prefer [`Self::leaves_iter`] in hot paths: it yields the same ids
    /// without collecting them into a `Vec`.
    pub fn leaves(&self) -> Vec<usize> {
        self.leaves_iter().collect()
    }

    /// Iterate over all leaf ids in ascending (pre-order) order without
    /// allocating: a pre-order walk with a fixed-size stack of pending
    /// right subtrees (at most one per branching level, ≤ 64 entries).
    pub fn leaves_iter(&self) -> Leaves {
        let mut it = Leaves {
            stack: [(0, 0); LEAF_STACK],
            top: 0,
        };
        it.stack[0] = (0, self.n as u64);
        it.top = 1;
        it
    }

    /// The root-to-leaf path ending at `leaf` (root first).
    ///
    /// Prefer [`Self::root_path_iter`] in hot paths: it yields the same
    /// ids without collecting them into a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf.
    pub fn root_path(&self, leaf: usize) -> Vec<usize> {
        self.root_path_iter(leaf).collect()
    }

    /// Iterate over the root-to-leaf path ending at `leaf`, root first,
    /// without allocating. With implicit geometry a parent walk and a root
    /// descent are the same `O(log n)` arithmetic; descending from the
    /// root yields the ids directly in the order [`Self::root_path`]
    /// returns them.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is not a leaf.
    pub fn root_path_iter(&self, leaf: usize) -> RootPath {
        assert!(self.locate(leaf).size == 1, "node {leaf} is not a leaf");
        RootPath {
            target: leaf,
            cur: 0,
            size: self.n,
            done: false,
        }
    }

    /// Verify the structural invariants: child arithmetic round-trips
    /// through `parent`, same-depth nodes have uniform kind and subtree
    /// size, and `height ≤ 2 log₂ n` (for `n ≥ 2`).
    ///
    /// Costs `O(n log n)`: intended for tests and debugging.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.parent(0).is_some() {
            return Err("root has a parent edge".into());
        }
        let mut level_kind: Vec<Option<(NodeKind, usize)>> = vec![None; self.height as usize + 1];
        for p in 0..self.n {
            let loc = self.locate(p);
            let kind = kind_of_size(loc.size);
            // Children must exist, be in range, and point back to p.
            let (l, r) = self.children(p);
            match kind {
                NodeKind::Leaf => {
                    if l.is_some() || r.is_some() {
                        return Err(format!("leaf {p} has children"));
                    }
                }
                NodeKind::NonBranching => {
                    if l != Some(p + 1) || r.is_some() {
                        return Err(format!("chain node {p} has children {l:?}/{r:?}"));
                    }
                }
                NodeKind::Branching => {
                    let half = (loc.size - 1) / 2;
                    if l != Some(p + 1) || r != Some(p + half + 1) {
                        return Err(format!("branching node {p} has children {l:?}/{r:?}"));
                    }
                }
            }
            for c in [l, r].into_iter().flatten() {
                if c >= self.n {
                    return Err(format!("node {p} has out-of-range child {c}"));
                }
                if self.parent(c) != Some(p) {
                    return Err(format!("child {c} does not point back to {p}"));
                }
                if self.depth(c) != loc.depth + 1 {
                    return Err(format!("child {c} is not one level below {p}"));
                }
            }
            // Level uniformity of both kind and subtree size.
            let d = loc.depth as usize;
            match level_kind[d] {
                None => level_kind[d] = Some((kind, loc.size)),
                Some(e) if e == (kind, loc.size) => {}
                Some((k, s)) => {
                    return Err(format!(
                        "level {d} mixes ({:?}, {}) and ({k:?}, {s})",
                        kind, loc.size
                    ))
                }
            }
        }
        // Height bound.
        if self.n >= 2 {
            let bound = 2.0 * (self.n as f64).log2();
            if (self.height as f64) > bound + 1e-9 {
                return Err(format!(
                    "height {} exceeds 2·log₂ n = {bound:.2}",
                    self.height
                ));
            }
        }
        Ok(())
    }
}

/// Stack capacity for [`Leaves`]: one pending right subtree per branching
/// level, and odd sizes halve, so ≤ 64 on 64-bit targets (+ slack).
const LEAF_STACK: usize = 66;

/// Allocation-free iterator over the leaf ids of a [`BalancedTree`],
/// ascending. Created by [`BalancedTree::leaves_iter`].
#[derive(Debug, Clone)]
pub struct Leaves {
    /// Pending `(preorder id, subtree size)` pairs, innermost last.
    stack: [(u64, u64); LEAF_STACK],
    top: usize,
}

impl Iterator for Leaves {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.top == 0 {
            return None;
        }
        self.top -= 1;
        let (mut p, mut s) = self.stack[self.top];
        loop {
            if s == 1 {
                return Some(p as usize);
            }
            if s.is_multiple_of(2) {
                p += 1;
                s -= 1;
            } else {
                let l = (s - 1) / 2;
                self.stack[self.top] = (p + l + 1, l);
                self.top += 1;
                p += 1;
                s = l;
            }
        }
    }
}

/// Allocation-free iterator over a root-to-leaf path, root first. Created
/// by [`BalancedTree::root_path_iter`].
#[derive(Debug, Clone)]
pub struct RootPath {
    target: usize,
    cur: usize,
    size: usize,
    done: bool,
}

impl Iterator for RootPath {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let out = self.cur;
        if self.cur == self.target {
            self.done = true;
        } else if self.size.is_multiple_of(2) {
            self.cur += 1;
            self.size -= 1;
        } else {
            let l = (self.size - 1) / 2;
            if self.target <= self.cur + l {
                self.cur += 1;
            } else {
                self.cur += l + 1;
            }
            self.size = l;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_2_layout_n9() {
        // Matches Figure 2 of the paper exactly.
        let t = BalancedTree::new(9);
        assert_eq!(t.kind(0), NodeKind::Branching);
        assert_eq!(t.children(0), (Some(1), Some(5)));
        assert_eq!(t.kind(1), NodeKind::NonBranching);
        assert_eq!(t.children(1), (Some(2), None));
        assert_eq!(t.kind(2), NodeKind::Branching);
        assert_eq!(t.children(2), (Some(3), Some(4)));
        assert!(t.is_leaf(3) && t.is_leaf(4));
        assert_eq!(t.kind(5), NodeKind::NonBranching);
        assert_eq!(t.children(5), (Some(6), None));
        assert_eq!(t.children(6), (Some(7), Some(8)));
        assert!(t.is_leaf(7) && t.is_leaf(8));
        t.validate().unwrap();
    }

    #[test]
    fn singleton_tree() {
        let t = BalancedTree::new(1);
        assert!(t.is_leaf(0));
        assert_eq!(t.height(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn even_root_is_non_branching_odd_is_branching() {
        for n in 2..200 {
            let t = BalancedTree::new(n);
            if n % 2 == 0 {
                assert_eq!(t.kind(0), NodeKind::NonBranching, "n={n}");
            } else {
                assert_eq!(t.kind(0), NodeKind::Branching, "n={n}");
            }
        }
    }

    #[test]
    fn validate_holds_for_many_sizes() {
        for n in 1..=512 {
            BalancedTree::new(n).validate().unwrap_or_else(|e| {
                panic!("n={n}: {e}");
            });
        }
        for n in [1000, 1023, 1024, 1025, 4096, 99_991] {
            BalancedTree::new(n).validate().unwrap();
        }
    }

    #[test]
    fn preorder_child_arithmetic() {
        let t = BalancedTree::new(37);
        for p in 0..37 {
            match t.kind(p) {
                NodeKind::NonBranching => {
                    assert_eq!(t.left_child(p), Some(p + 1));
                    assert_eq!(t.right_child(p), None);
                }
                NodeKind::Branching => {
                    let l = t.branch_half(p);
                    assert_eq!(t.left_child(p), Some(p + 1));
                    assert_eq!(t.right_child(p), Some(p + l + 1));
                    assert_eq!(t.subtree_size(p + 1), l);
                    assert_eq!(t.subtree_size(p + l + 1), l);
                }
                NodeKind::Leaf => {
                    assert_eq!(t.children(p), (None, None));
                }
            }
        }
    }

    #[test]
    fn subtree_sizes_sum_consistently() {
        let t = BalancedTree::new(100);
        for p in 0..100 {
            let expect = 1
                + t.children(p).0.map(|c| t.subtree_size(c)).unwrap_or(0)
                + t.children(p).1.map(|c| t.subtree_size(c)).unwrap_or(0);
            assert_eq!(t.subtree_size(p), expect, "node {p}");
        }
    }

    #[test]
    fn root_paths_descend_via_children() {
        let t = BalancedTree::new(57);
        for leaf in t.leaves() {
            let path = t.root_path(leaf);
            assert_eq!(path[0], 0);
            assert_eq!(*path.last().unwrap(), leaf);
            for w in path.windows(2) {
                let (l, r) = t.children(w[0]);
                assert!(l == Some(w[1]) || r == Some(w[1]));
            }
            // Path length = depth + 1 ≤ height + 1.
            assert_eq!(path.len() as u32, t.depth(leaf) + 1);
        }
    }

    #[test]
    fn height_bound_tight_cases() {
        // Powers of two minus one give perfect trees: height exactly log n.
        let t = BalancedTree::new(127);
        assert_eq!(t.height(), 6);
        // Even chains add non-branching levels but stay under 2 log n.
        for n in [6usize, 14, 62, 1022] {
            let t = BalancedTree::new(n);
            assert!((t.height() as f64) <= 2.0 * (n as f64).log2());
        }
    }

    #[test]
    fn leaves_count_matches_branching_structure() {
        // In any binary tree, #leaves = #branching + 1.
        for n in [9usize, 10, 33, 100, 255] {
            let t = BalancedTree::new(n);
            let leaves = t.leaves().len();
            let branching = (0..n).filter(|&p| t.is_branching(p)).count();
            assert_eq!(leaves, branching + 1, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_size_rejected() {
        BalancedTree::new(0);
    }

    #[test]
    fn struct_is_constant_size() {
        // The whole point of the implicit representation: no O(n) arrays.
        assert!(std::mem::size_of::<BalancedTree>() <= 16);
    }

    #[test]
    fn leaves_iter_matches_leaves_vec() {
        for n in [1usize, 2, 9, 37, 100, 255, 1022, 4096] {
            let t = BalancedTree::new(n);
            let collected: Vec<usize> = t.leaves_iter().collect();
            assert_eq!(collected, t.leaves(), "n={n}");
            // Ascending and all leaves.
            assert!(collected.windows(2).all(|w| w[0] < w[1]));
            assert!(collected.iter().all(|&p| t.is_leaf(p)));
        }
    }

    #[test]
    fn root_path_iter_matches_root_path() {
        let t = BalancedTree::new(99);
        for leaf in t.leaves_iter() {
            let path: Vec<usize> = t.root_path_iter(leaf).collect();
            assert_eq!(path, t.root_path(leaf));
        }
    }
}

#[cfg(test)]
mod extended_tests {
    use super::*;

    #[test]
    fn depths_increase_by_one_along_edges() {
        let t = BalancedTree::new(200);
        for p in 0..200 {
            for c in [t.children(p).0, t.children(p).1].into_iter().flatten() {
                assert_eq!(t.depth(c), t.depth(p) + 1);
            }
        }
    }

    #[test]
    fn branch_half_only_on_branching() {
        let t = BalancedTree::new(9);
        assert_eq!(t.branch_half(0), 4);
        assert_eq!(t.branch_half(2), 1);
    }

    #[test]
    #[should_panic(expected = "not branching")]
    fn branch_half_rejects_non_branching() {
        BalancedTree::new(9).branch_half(1);
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn root_path_rejects_internal_nodes() {
        BalancedTree::new(9).root_path(0);
    }

    #[test]
    fn perfect_tree_shape_for_power_of_two_minus_one() {
        // n = 2^h − 1 gives a perfect binary tree: every level branching
        // until the leaves, height h − 1.
        let t = BalancedTree::new(31);
        assert_eq!(t.height(), 4);
        assert_eq!(t.leaves().len(), 16);
        for p in 0..31 {
            if t.kind(p) == NodeKind::NonBranching {
                panic!("perfect tree has no chains")
            }
        }
    }

    #[test]
    fn chain_tree_for_small_even_sizes() {
        // n = 2: root (even) → child leaf.
        let t = BalancedTree::new(2);
        assert_eq!(t.kind(0), NodeKind::NonBranching);
        assert!(t.is_leaf(1));
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(0), None);
    }

    #[test]
    fn subtree_sizes_at_same_level_are_equal() {
        let t = BalancedTree::new(500);
        let mut by_depth: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for p in 0..500 {
            let d = t.depth(p);
            let s = t.subtree_size(p);
            let e = by_depth.entry(d).or_insert(s);
            assert_eq!(*e, s, "level {d} mixes subtree sizes");
        }
    }

    #[test]
    fn huge_tree_is_cheap_to_build_and_query() {
        // At n = 2^40 a materialised tree would need ~23 TiB; the implicit
        // tree is 16 bytes and answers queries by descent.
        let n = 1usize << 40;
        let t = BalancedTree::new(n);
        assert_eq!(t.kind(0), NodeKind::NonBranching);
        assert_eq!(t.subtree_size(0), n);
        assert_eq!(t.subtree_size(1), n - 1);
        let first_leaf = t.leaves_iter().next().unwrap();
        assert!(t.is_leaf(first_leaf));
        assert_eq!(t.depth(first_leaf), t.height());
        assert!(t.parent(first_leaf).is_some());
    }
}
