//! Property tests: the implicit `BalancedTree` arithmetic must agree with
//! the materialised oracle (`MaterialisedTree`, the pre-implicit seven-array
//! build) on every geometric query.

use proptest::prelude::*;
use ssr_topology::balanced_tree::{BalancedTree, MaterialisedTree, NodeKind};

/// Compare every query at node `p` between the implicit tree and the oracle.
fn assert_node_matches(t: &BalancedTree, o: &MaterialisedTree, n: usize, p: usize) {
    assert_eq!(t.kind(p), o.kind(p), "kind n={n} p={p}");
    assert_eq!(t.children(p), o.children(p), "children n={n} p={p}");
    assert_eq!(t.parent(p), o.parent(p), "parent n={n} p={p}");
    assert_eq!(t.depth(p), o.depth(p), "depth n={n} p={p}");
    assert_eq!(t.subtree_size(p), o.subtree_size(p), "subtree n={n} p={p}");
    if t.kind(p) == NodeKind::Branching {
        assert_eq!(
            t.branch_half(p),
            o.branch_half(p),
            "branch_half n={n} p={p}"
        );
    }
    let (l, r) = o.children(p);
    assert_eq!(t.left_child(p), l, "left_child n={n} p={p}");
    assert_eq!(t.right_child(p), r, "right_child n={n} p={p}");
    assert_eq!(
        t.is_leaf(p),
        o.kind(p) == NodeKind::Leaf,
        "is_leaf n={n} p={p}"
    );
    assert_eq!(
        t.is_branching(p),
        o.kind(p) == NodeKind::Branching,
        "is_branching n={n} p={p}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exhaustive node-by-node equivalence over random sizes in 1..4096.
    #[test]
    fn implicit_matches_oracle_all_nodes(n in 1usize..4096) {
        let t = BalancedTree::new(n);
        let o = MaterialisedTree::new(n);
        prop_assert_eq!(t.len(), o.len());
        prop_assert_eq!(t.height(), o.height());
        for p in 0..n {
            assert_node_matches(&t, &o, n, p);
        }
        prop_assert_eq!(t.leaves(), o.leaves());
    }

    /// Random probes into large trees: same equivalence at spot sizes the
    /// exhaustive sweep cannot afford.
    #[test]
    fn implicit_matches_oracle_large_spot_sizes(probe in 0usize..usize::MAX) {
        for n in [(1usize << 20) + 1, 99_991] {
            let t = BalancedTree::new(n);
            let o = MaterialisedTree::new(n);
            prop_assert_eq!(t.height(), o.height());
            assert_node_matches(&t, &o, n, probe % n);
            // Always probe the structurally interesting ids too.
            for p in [0, 1, n / 2, n - 2, n - 1] {
                assert_node_matches(&t, &o, n, p);
            }
        }
    }
}

/// Small sizes exhaustively (not sampled): every n in 1..=256, every node.
#[test]
fn implicit_matches_oracle_exhaustive_small() {
    for n in 1usize..=256 {
        let t = BalancedTree::new(n);
        let o = MaterialisedTree::new(n);
        assert_eq!(t.height(), o.height(), "n={n}");
        for p in 0..n {
            assert_node_matches(&t, &o, n, p);
        }
        assert_eq!(t.leaves(), o.leaves(), "n={n}");
    }
}

/// The leaf iterator agrees with the oracle's materialised leaf list.
#[test]
fn leaves_iter_matches_oracle() {
    for n in [1usize, 2, 9, 1024, 4095, 99_991] {
        let t = BalancedTree::new(n);
        let o = MaterialisedTree::new(n);
        let implicit: Vec<usize> = t.leaves_iter().collect();
        assert_eq!(implicit, o.leaves(), "n={n}");
    }
}
