//! Property tests: the implicit `BalancedTree` arithmetic must agree with
//! the materialised oracle (`MaterialisedTree` in `oracle/`, the
//! pre-implicit seven-array build) on every geometric query.

mod oracle;

use oracle::MaterialisedTree;
use proptest::prelude::*;
use ssr_topology::balanced_tree::{BalancedTree, NodeKind};

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

/// Small sizes exhaustively (not sampled): every n in 1..=256 and n =
/// 1000, every node.
#[test]
fn implicit_matches_oracle_exhaustive_small() {
    for n in (1usize..=256).chain([1000]) {
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

/// Check `t.block_ancestors(width)` against the oracle: each block's
/// entry is a node whose subtree holds the whole block while neither
/// child's does (the deepest such node), its stored size is the oracle's,
/// and `subtree_size_from` it reaches the oracle's size at every id of the
/// block.
fn check_block_ancestors(
    t: &BalancedTree,
    o: &MaterialisedTree,
    width: usize,
) -> Result<(), TestCaseError> {
    let n = t.len();
    let table = t.block_ancestors(width);
    prop_assert_eq!(table.len(), n.div_ceil(width));
    let holds = |q: usize, lo: usize, hi: usize| q <= lo && hi < q + o.subtree_size(q);
    for (b, &(q, s)) in table.iter().enumerate() {
        let (q, s) = (q as usize, s as usize);
        let (lo, hi) = (b * width, ((b + 1) * width).min(n) - 1);
        prop_assert!(q < n, "n={} width={} block {}: node {}", n, width, b, q);
        prop_assert_eq!(s, o.subtree_size(q), "n={} width={} block {}", n, width, b);
        prop_assert!(holds(q, lo, hi), "n={} width={} block {}", n, width, b);
        let (l, r) = o.children(q);
        for c in [l, r].into_iter().flatten() {
            prop_assert!(
                !holds(c, lo, hi),
                "n={} width={} block {}: child {} of {} holds it",
                n,
                width,
                b,
                c,
                q
            );
        }
        for p in lo..=hi {
            prop_assert_eq!(
                t.subtree_size_from((q, s), p),
                o.subtree_size(p),
                "n={} p={}",
                n,
                p
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Block ancestors over random sizes of four shapes: below one block
    /// (n < 64), one id past whole blocks (n ≡ 1 mod 64, a partial last
    /// block of one leaf), powers of two (whole blocks only) and any size
    /// up to 20k; at the engine's block width 64 and at a random width.
    #[test]
    fn block_ancestors_are_the_deepest_holding_nodes(
        shape in 0usize..4,
        x in 0usize..1_000_000,
        width in 1usize..200,
    ) {
        let n = match shape {
            0 => 1 + x % 63,
            1 => 64 * (1 + x % 300) + 1,
            2 => 1 << (x % 17),
            _ => 1 + x % 20_000,
        };
        let t = BalancedTree::new(n);
        let o = MaterialisedTree::new(n);
        check_block_ancestors(&t, &o, 64)?;
        check_block_ancestors(&t, &o, width)?;
    }
}
