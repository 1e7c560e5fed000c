//! The materialised oracle: the pre-implicit build of the perfectly
//! balanced tree, seven per-node arrays filled by an explicit stack
//! recursion (`O(n)` memory).

// Audited: node ids and subtree sizes are below the test sizes (n < 2²¹).
#![allow(clippy::cast_possible_truncation)]

use ssr_topology::balanced_tree::NodeKind;

const NONE: u32 = u32::MAX;

/// The pre-implicit materialised build: seven per-node arrays filled by an
/// explicit stack recursion. Kept **only** as the oracle the property
/// tests compare `BalancedTree`'s arithmetic against — production code
/// uses `BalancedTree`, which answers the same queries in `O(1)` memory.
pub struct MaterialisedTree {
    n: usize,
    kind: Vec<NodeKind>,
    left: Vec<u32>,
    right: Vec<u32>,
    parent: Vec<u32>,
    depth: Vec<u32>,
    subtree: Vec<u32>,
    height: u32,
}

impl MaterialisedTree {
    /// Build the materialised oracle tree of size `n` (`O(n)` memory).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a balanced tree needs at least one node");
        let mut kind = vec![NodeKind::Leaf; n];
        let mut left = vec![NONE; n];
        let mut right = vec![NONE; n];
        let mut parent = vec![NONE; n];
        let mut depth = vec![0u32; n];
        let mut subtree = vec![0u32; n];
        let mut height = 0u32;

        // (preorder id, size, depth, parent)
        let mut stack: Vec<(usize, usize, u32, u32)> = vec![(0, n, 0, NONE)];
        while let Some((p, k, d, par)) = stack.pop() {
            subtree[p] = k as u32;
            depth[p] = d;
            parent[p] = par;
            height = height.max(d);
            if k == 1 {
                kind[p] = NodeKind::Leaf;
            } else if k % 2 == 0 {
                kind[p] = NodeKind::NonBranching;
                left[p] = (p + 1) as u32;
                stack.push((p + 1, k - 1, d + 1, p as u32));
            } else {
                kind[p] = NodeKind::Branching;
                let l = (k - 1) / 2;
                left[p] = (p + 1) as u32;
                right[p] = (p + l + 1) as u32;
                stack.push((p + 1, l, d + 1, p as u32));
                stack.push((p + l + 1, l, d + 1, p as u32));
            }
        }

        MaterialisedTree {
            n,
            kind,
            left,
            right,
            parent,
            depth,
            subtree,
            height,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Kind of node `p`.
    pub fn kind(&self, p: usize) -> NodeKind {
        self.kind[p]
    }

    /// Children `(left, right)` of node `p`.
    pub fn children(&self, p: usize) -> (Option<usize>, Option<usize>) {
        let conv = |v: u32| (v != NONE).then_some(v as usize);
        (conv(self.left[p]), conv(self.right[p]))
    }

    /// Parent of `p`, `None` for the root.
    pub fn parent(&self, p: usize) -> Option<usize> {
        (self.parent[p] != NONE).then_some(self.parent[p] as usize)
    }

    /// Distance of `p` from the root.
    pub fn depth(&self, p: usize) -> u32 {
        self.depth[p]
    }

    /// Size of the subtree rooted at `p`.
    pub fn subtree_size(&self, p: usize) -> usize {
        self.subtree[p] as usize
    }

    /// Height of the tree.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Half-size `l` at a branching node `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a branching node.
    pub fn branch_half(&self, p: usize) -> usize {
        assert!(
            self.kind[p] == NodeKind::Branching,
            "node {p} is not branching"
        );
        (self.subtree[p] as usize - 1) / 2
    }

    /// All leaf node ids, ascending.
    pub fn leaves(&self) -> Vec<usize> {
        (0..self.n)
            .filter(|&p| self.kind[p] == NodeKind::Leaf)
            .collect()
    }
}
