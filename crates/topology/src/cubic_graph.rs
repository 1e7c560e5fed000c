//! The routing graph `G` of paper §4.2 (Figure 1).
//!
//! `G` spreads agents in the extra state `X` roughly evenly over the
//! entrance gates of the `m²` lines of traps: each trap of a line points to
//! one of the line's three neighbours in `G`, so an `X`-agent interacting
//! with a random agent performs one hop of a random walk on `G`, whose
//! diameter is `O(log m)`.
//!
//! Construction (paper, verbatim): start from `G′`, a balanced full binary
//! tree with `V + 1` vertices (`V/2 + 1` leaves, every internal node has two
//! children, the root has degree 2). Merge the root with one of the leaves
//! into a single vertex, then add a cycle through all remaining leaves. For
//! even `V ≥ 8` the result is a simple 3-regular (cubic) graph of diameter
//! `≤ 4⌈log₂ m⌉ + O(1)` where `V = m²`.
//!
//! For completeness the constructor also accepts odd or tiny `V` (the
//! padded neighbour table may then repeat an edge; routing only needs
//! *some* three outgoing labels per vertex, not simplicity). The paper uses
//! `V = m²` with even `m`, where the construction is exactly cubic.
//!
//! # Examples
//!
//! ```
//! use ssr_topology::cubic_graph::CubicGraph;
//!
//! // Figure 1 of the paper: m² = 16.
//! let g = CubicGraph::routing_graph(16);
//! assert_eq!(g.num_vertices(), 16);
//! assert!(g.is_three_regular());
//! assert!(g.is_connected());
//! assert!(g.diameter() <= 4 * 2 + 2); // 4⌈log₂ 4⌉ + O(1)
//! ```

/// An undirected graph where every vertex stores exactly three neighbour
/// labels (repeats allowed for degenerate sizes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubicGraph {
    nbr: Vec<[u32; 3]>,
}

impl CubicGraph {
    /// Build the paper's routing graph on `v` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`.
    pub fn routing_graph(v: usize) -> Self {
        assert!(v > 0, "routing graph needs at least one vertex");
        if v <= 6 {
            return Self::tiny(v);
        }
        if v % 2 == 1 {
            // Odd v: tree with (v+1)/2 leaves has exactly v vertices; keep
            // the root (degree 2, padded) and cycle through all leaves.
            return Self::tree_cycle(v, false);
        }
        Self::tree_cycle(v, true)
    }

    /// Degenerate graphs for `v ≤ 4`: ring plus chord, padded to 3 labels.
    fn tiny(v: usize) -> Self {
        let mut nbr = Vec::with_capacity(v);
        for i in 0..v {
            if v == 1 {
                nbr.push([0, 0, 0]);
            } else {
                let a = ((i + 1) % v) as u32;
                let b = ((i + v - 1) % v) as u32;
                let c = ((i + v / 2) % v) as u32;
                let c = if c as usize == i { a } else { c };
                nbr.push([a, b, c]);
            }
        }
        CubicGraph { nbr }
    }

    /// Balanced full binary tree with `leaves = v/2 + 1` (merge = true,
    /// even `v`) or `(v+1)/2` (merge = false, odd `v`) leaves, then the
    /// merge-and-cycle step.
    fn tree_cycle(v: usize, merge: bool) -> Self {
        let leaves_n = if merge { v / 2 + 1 } else { v.div_ceil(2) };
        // Recursive complete splitting: every internal node has exactly two
        // children; leaf depths differ by at most one, so the height is
        // ⌈log₂ leaves_n⌉ ≤ 2⌈log₂ m⌉ for leaves_n ≤ m²/2 + 1.
        struct Builder {
            adj: Vec<Vec<u32>>,
            leaves: Vec<usize>,
        }
        impl Builder {
            fn node(&mut self) -> usize {
                self.adj.push(Vec::new());
                self.adj.len() - 1
            }
            fn build(&mut self, leaves: usize) -> usize {
                let id = self.node();
                if leaves == 1 {
                    self.leaves.push(id);
                } else {
                    let l = self.build(leaves.div_ceil(2));
                    let r = self.build(leaves / 2);
                    self.adj[id].push(l as u32);
                    self.adj[l].push(id as u32);
                    self.adj[id].push(r as u32);
                    self.adj[r].push(id as u32);
                }
                id
            }
        }
        let mut b = Builder {
            adj: Vec::new(),
            leaves: Vec::new(),
        };
        let root = b.build(leaves_n);
        debug_assert_eq!(root, 0);
        let mut adj = b.adj;
        let mut leaves = b.leaves;

        if merge {
            // Merge the root with a leaf: reattach the leaf's parent edge
            // to the root, delete the leaf. To keep the graph simple the
            // leaf's parent must not already neighbour the root, so pick a
            // deepest such leaf (one exists whenever the tree has ≥ 3
            // levels, i.e. v ≥ 8; smaller sizes use the tiny fallback).
            let depth = {
                let mut d = vec![u32::MAX; adj.len()];
                d[root] = 0;
                let mut q = std::collections::VecDeque::from([root]);
                while let Some(u) = q.pop_front() {
                    for &w in &adj[u] {
                        if d[w as usize] == u32::MAX {
                            d[w as usize] = d[u] + 1;
                            q.push_back(w as usize);
                        }
                    }
                }
                d
            };
            let pos = leaves
                .iter()
                .rposition(|&l| {
                    let parent = adj[l][0] as usize;
                    parent != root && !adj[root].contains(&(parent as u32))
                })
                .map(|p| {
                    // Prefer a deepest qualifying leaf for the height bound.
                    let best = leaves
                        .iter()
                        .enumerate()
                        .filter(|&(_, &l)| {
                            let parent = adj[l][0] as usize;
                            parent != root && !adj[root].contains(&(parent as u32))
                        })
                        .max_by_key(|&(_, &l)| depth[l])
                        .map(|(i, _)| i)
                        .unwrap_or(p);
                    best
                })
                .unwrap_or(leaves.len() - 1);
            let doomed = leaves.remove(pos);
            let parent = adj[doomed][0] as usize;
            adj[doomed].clear();
            for e in adj[parent].iter_mut() {
                if *e as usize == doomed {
                    *e = root as u32;
                }
            }
            adj[root].push(parent as u32);
            // Compact ids: shift every id above `doomed` down by one.
            let remap = |x: u32| if x as usize > doomed { x - 1 } else { x };
            adj.remove(doomed);
            for lst in adj.iter_mut() {
                for e in lst.iter_mut() {
                    *e = remap(*e);
                }
            }
            for l in leaves.iter_mut() {
                if *l > doomed {
                    *l -= 1;
                }
            }
        }

        // Cycle through the remaining leaves (in tree left-to-right order).
        let c = leaves.len();
        if c >= 2 {
            for i in 0..c {
                let a = leaves[i];
                let b2 = leaves[(i + 1) % c];
                if c == 2 && i == 1 {
                    break; // avoid a doubled edge for the 2-leaf "cycle"
                }
                adj[a].push(b2 as u32);
                adj[b2].push(a as u32);
            }
        }

        debug_assert_eq!(adj.len(), v);
        // Pad every vertex to exactly three labels.
        let nbr = adj
            .into_iter()
            .enumerate()
            .map(|(i, lst)| {
                let mut out = [0u32; 3];
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = *lst
                        .get(k)
                        .or_else(|| lst.last())
                        .unwrap_or(&(((i + 1) % v) as u32));
                }
                out
            })
            .collect();
        CubicGraph { nbr }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.nbr.len()
    }

    /// The three neighbour labels of `vertex` (`l₀, l₁, l₂` of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is out of range.
    pub fn neighbors(&self, vertex: usize) -> [usize; 3] {
        let n = self.nbr[vertex];
        [n[0] as usize, n[1] as usize, n[2] as usize]
    }

    /// True when every vertex has three *distinct* neighbours, none equal
    /// to itself, and adjacency is symmetric — i.e. the graph is a simple
    /// cubic graph.
    pub fn is_three_regular(&self) -> bool {
        let v = self.num_vertices();
        for i in 0..v {
            let ns = self.neighbors(i);
            if ns[0] == ns[1] || ns[0] == ns[2] || ns[1] == ns[2] {
                return false;
            }
            for &j in &ns {
                if j == i || j >= v || !self.neighbors(j).contains(&i) {
                    return false;
                }
            }
        }
        true
    }

    /// True when all vertices are reachable from vertex 0.
    pub fn is_connected(&self) -> bool {
        self.bfs(0).iter().all(|&d| d != u32::MAX)
    }

    /// BFS distances from `src` (unreached = `u32::MAX`).
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_vertices()];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for w in self.neighbors(u) {
                if dist[w] == u32::MAX {
                    dist[w] = dist[u] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Exact diameter via all-pairs BFS (`O(v²)`; fine for the `m²`-sized
    /// routing graphs used here).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn diameter(&self) -> u32 {
        (0..self.num_vertices())
            .map(|s| *self.bfs(s).iter().max().expect("non-empty graph"))
            .max()
            .inspect(|&d| {
                assert_ne!(d, u32::MAX, "graph is disconnected");
            })
            .expect("non-empty graph")
    }

    /// Adjacency in `vertex: a b c` lines (1-based like Figure 1).
    pub fn render_adjacency(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for i in 0..self.num_vertices() {
            let ns = self.neighbors(i);
            let _ = writeln!(
                out,
                "{:>4}: {} {} {}",
                i + 1,
                ns[0] + 1,
                ns[1] + 1,
                ns[2] + 1
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_m2_16_is_cubic_connected_small_diameter() {
        let g = CubicGraph::routing_graph(16);
        assert_eq!(g.num_vertices(), 16);
        assert!(g.is_three_regular(), "{}", g.render_adjacency());
        assert!(g.is_connected());
        // m = 4 → bound 4⌈log₂ 4⌉ = 8 (+O(1) slack not needed here).
        assert!(g.diameter() <= 8, "diameter {}", g.diameter());
    }

    #[test]
    fn even_sizes_are_simple_cubic() {
        for v in [8usize, 10, 16, 36, 64, 100, 144, 256, 1024] {
            let g = CubicGraph::routing_graph(v);
            assert_eq!(g.num_vertices(), v);
            assert!(g.is_three_regular(), "v={v}\n{}", g.render_adjacency());
            assert!(g.is_connected(), "v={v}");
        }
    }

    #[test]
    fn odd_and_tiny_sizes_still_route() {
        for v in [1usize, 2, 3, 4, 5, 7, 9, 15, 49] {
            let g = CubicGraph::routing_graph(v);
            assert_eq!(g.num_vertices(), v);
            assert!(g.is_connected(), "v={v}");
            for i in 0..v {
                for w in g.neighbors(i) {
                    assert!(w < v);
                }
            }
        }
    }

    #[test]
    fn diameter_is_logarithmic() {
        for m in [4usize, 6, 8, 10, 16] {
            let v = m * m;
            let g = CubicGraph::routing_graph(v);
            let bound = 4 * (m as f64).log2().ceil() as u32 + 2;
            assert!(
                g.diameter() <= bound,
                "m={m}: diameter {} > {bound}",
                g.diameter()
            );
        }
    }

    #[test]
    fn edge_count_matches_cubic() {
        // 3-regular graph has 3v/2 undirected edges; count directed stubs.
        let g = CubicGraph::routing_graph(64);
        let mut edges = std::collections::HashSet::new();
        for i in 0..64 {
            for w in g.neighbors(i) {
                edges.insert((i.min(w), i.max(w)));
            }
        }
        assert_eq!(edges.len(), 3 * 64 / 2);
    }

    #[test]
    fn bfs_distances_sane() {
        let g = CubicGraph::routing_graph(16);
        let d = g.bfs(0);
        assert_eq!(d[0], 0);
        for w in g.neighbors(0) {
            assert_eq!(d[w], 1);
        }
    }

    #[test]
    fn render_adjacency_is_one_based() {
        let g = CubicGraph::routing_graph(8);
        let s = g.render_adjacency();
        assert!(s.lines().count() == 8);
        assert!(s.contains("   1:"));
    }
}
