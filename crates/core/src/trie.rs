//! The reverse-reachability tree (Algorithm 3's batching structure).
//!
//! All `nr` √c-walks from the query node share the root `u`; many share
//! longer prefixes too (the expected walk length is constant, so with
//! thousands of walks most prefixes repeat). [`WalkTrie`] stores the walks
//! as a weighted prefix tree: each node records a graph vertex and the
//! number of walks whose prefix ends there. The batch driver then probes
//! each *distinct* prefix once, scaling its scores by `weight / nr` —
//! identical in expectation to probing every walk separately, but with far
//! fewer probes.
//!
//! Two traversal APIs are exposed:
//!
//! * [`WalkTrie::for_each_prefix`] — depth-first prefix enumeration, the
//!   shape the legacy per-prefix batch driver consumes;
//! * [`WalkTrie::bfs_levels`] — a level-order (BFS) cursor that groups
//!   each level's nodes by parent, the shape the fused probe engine
//!   ([`crate::frontier`]) walks level-synchronously.

use probesim_graph::NodeId;

/// Arena index of a trie node.
pub type TrieIndex = u32;

#[derive(Debug, Clone)]
struct TrieNode {
    /// Graph vertex stored at this prefix position.
    vertex: NodeId,
    /// Number of walks sharing the prefix from the root to here.
    weight: u32,
    /// First child (linked-list arena layout).
    first_child: Option<TrieIndex>,
    /// Next sibling.
    next_sibling: Option<TrieIndex>,
    /// Most recently matched or created child — an O(1) shortcut past the
    /// sibling scan when consecutive walks repeat a popular step.
    last_child: Option<TrieIndex>,
}

/// Weighted prefix tree over √c-walks from a single query node.
#[derive(Debug, Clone)]
pub struct WalkTrie {
    nodes: Vec<TrieNode>,
    /// Trie indices of the most recently inserted walk's non-root path.
    /// Walks mostly share prefixes, so checking this chain first makes
    /// inserting `nr` similar walks amortized O(walk length) instead of
    /// O(walk length · branching).
    last_path: Vec<TrieIndex>,
}

impl WalkTrie {
    /// An empty trie rooted at the query node `u` (root weight counts the
    /// inserted walks; the paper fixes it to `nr` after inserting all).
    pub fn new(u: NodeId) -> Self {
        WalkTrie {
            nodes: vec![TrieNode {
                vertex: u,
                weight: 0,
                first_child: None,
                next_sibling: None,
                last_child: None,
            }],
            last_path: Vec::new(),
        }
    }

    /// Empties the trie and re-roots it at `u`, keeping its capacity: the
    /// result is indistinguishable from [`WalkTrie::new`]`(u)` (same
    /// node numbering for the same inserts), without the allocation.
    pub fn reset(&mut self, u: NodeId) {
        self.nodes.clear();
        self.nodes.push(TrieNode {
            vertex: u,
            weight: 0,
            first_child: None,
            next_sibling: None,
            last_child: None,
        });
        self.last_path.clear();
    }

    /// Number of trie nodes (== distinct walk prefixes, including the
    /// root).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Total number of walks inserted.
    pub fn total_walks(&self) -> u32 {
        self.nodes[0].weight
    }

    /// The graph vertex stored at trie node `idx`.
    #[inline]
    pub fn vertex(&self, idx: TrieIndex) -> NodeId {
        self.nodes[idx as usize].vertex
    }

    /// The number of walks sharing the prefix ending at trie node `idx`.
    #[inline]
    pub fn weight(&self, idx: TrieIndex) -> u32 {
        self.nodes[idx as usize].weight
    }

    /// Inserts one walk `(u1 = root, u2, …, uℓ)`; increments the weight of
    /// every prefix node on its path (Lines 5–10 of Algorithm 3).
    ///
    /// Lookup is accelerated by the last-path cache (consecutive walks
    /// usually share a prefix) and a per-node last-child cache; both only
    /// short-circuit the sibling scan, so the resulting structure and
    /// weights are identical to the plain linked-list insert.
    ///
    /// Panics if the walk does not start at the root vertex.
    pub fn insert(&mut self, walk: &[NodeId]) {
        assert!(!walk.is_empty(), "cannot insert an empty walk");
        assert_eq!(
            walk[0], self.nodes[0].vertex,
            "walk must start at the trie root"
        );
        self.nodes[0].weight += 1;
        let mut current: TrieIndex = 0;
        let mut on_last_path = true;
        for (depth, &vertex) in walk[1..].iter().enumerate() {
            let cached = if on_last_path {
                // Invariant: last_path[0..depth] matched this walk so far,
                // so last_path[depth] (if present) is a child of `current`.
                self.last_path.get(depth).copied()
            } else {
                None
            };
            match cached {
                Some(idx) if self.nodes[idx as usize].vertex == vertex => {
                    current = idx;
                }
                _ => {
                    current = self.child_or_insert(current, vertex);
                    if on_last_path {
                        on_last_path = false;
                        self.last_path.truncate(depth);
                    }
                    self.last_path.push(current);
                }
            }
            self.nodes[current as usize].weight += 1;
        }
    }

    /// Finds the child of `parent` holding `vertex`, creating it (weight 0)
    /// if missing.
    fn child_or_insert(&mut self, parent: TrieIndex, vertex: NodeId) -> TrieIndex {
        if let Some(idx) = self.nodes[parent as usize].last_child {
            if self.nodes[idx as usize].vertex == vertex {
                return idx;
            }
        }
        let mut link = self.nodes[parent as usize].first_child;
        let mut last: Option<TrieIndex> = None;
        while let Some(idx) = link {
            if self.nodes[idx as usize].vertex == vertex {
                self.nodes[parent as usize].last_child = Some(idx);
                return idx;
            }
            last = Some(idx);
            link = self.nodes[idx as usize].next_sibling;
        }
        let new_idx = self.nodes.len() as TrieIndex;
        self.nodes.push(TrieNode {
            vertex,
            weight: 0,
            first_child: None,
            next_sibling: None,
            last_child: None,
        });
        match last {
            Some(idx) => self.nodes[idx as usize].next_sibling = Some(new_idx),
            None => self.nodes[parent as usize].first_child = Some(new_idx),
        }
        self.nodes[parent as usize].last_child = Some(new_idx);
        new_idx
    }

    /// Visits every root-to-node path of length ≥ 2 (the probeable
    /// prefixes), calling `visit(path, weight)` with the path's graph
    /// vertices and the number of walks sharing it.
    ///
    /// Uses an explicit DFS stack; the `path` buffer is reused across
    /// calls, so callers must not retain it.
    pub fn for_each_prefix<F: FnMut(&[NodeId], u32)>(&self, mut visit: F) {
        let infallible: Result<(), std::convert::Infallible> =
            self.try_for_each_prefix(|path, weight| {
                visit(path, weight);
                Ok(())
            });
        infallible.expect("invariant: the infallible visitor returns Ok");
    }

    /// Fallible [`WalkTrie::for_each_prefix`]: stops the enumeration at
    /// the first `Err` and propagates it — the early-exit path the
    /// budgeted (cancellable) legacy probe driver needs.
    pub fn try_for_each_prefix<E, F: FnMut(&[NodeId], u32) -> Result<(), E>>(
        &self,
        mut visit: F,
    ) -> Result<(), E> {
        let mut path: Vec<NodeId> = vec![self.nodes[0].vertex];
        // Stack entries: (node index, depth in path when entered).
        let mut stack: Vec<(TrieIndex, usize)> = Vec::new();
        let mut link = self.nodes[0].first_child;
        while let Some(idx) = link {
            stack.push((idx, 1));
            link = self.nodes[idx as usize].next_sibling;
        }
        while let Some((idx, depth)) = stack.pop() {
            path.truncate(depth);
            let node = &self.nodes[idx as usize];
            path.push(node.vertex);
            visit(&path, node.weight)?;
            let mut child = node.first_child;
            while let Some(c) = child {
                stack.push((c, depth + 1));
                child = self.nodes[c as usize].next_sibling;
            }
        }
        Ok(())
    }

    /// The level-order (BFS) cursor: fills the parallel `order_nodes` /
    /// `order_parents` lanes with (node, parent) entries and
    /// `level_starts` with the boundaries of each depth, so depth
    /// `d ≥ 1` occupies lane index range
    /// `level_starts[d-1]..level_starts[d]` (the root, depth 0, is not
    /// listed — it is always index 0). The lanes are struct-of-arrays
    /// on purpose: the fused sweep's group loop scans only the parent
    /// lane, a dense `u32` stream.
    ///
    /// Two ordering guarantees the fused probe engine relies on:
    ///
    /// * levels are contiguous and emitted shallow-to-deep;
    /// * within a level, children of the same parent are **consecutive**,
    ///   so a level can be consumed as per-parent groups without sorting.
    ///
    /// All three buffers are cleared first; callers pool them across
    /// queries (see [`crate::workspace::FrontierArena`]).
    pub fn bfs_levels(
        &self,
        order_nodes: &mut Vec<TrieIndex>,
        order_parents: &mut Vec<TrieIndex>,
        level_starts: &mut Vec<usize>,
    ) {
        order_nodes.clear();
        order_parents.clear();
        level_starts.clear();
        level_starts.push(0);
        let mut link = self.nodes[0].first_child;
        while let Some(c) = link {
            order_nodes.push(c);
            order_parents.push(0);
            link = self.nodes[c as usize].next_sibling;
        }
        let mut begin = 0;
        while begin < order_nodes.len() {
            let end = order_nodes.len();
            level_starts.push(end);
            for i in begin..end {
                let parent = order_nodes[i];
                let mut link = self.nodes[parent as usize].first_child;
                while let Some(c) = link {
                    order_nodes.push(c);
                    order_parents.push(parent);
                    link = self.nodes[c as usize].next_sibling;
                }
            }
            begin = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Collects (path, weight) pairs for assertion convenience.
    fn collect(trie: &WalkTrie) -> HashMap<Vec<NodeId>, u32> {
        let mut out = HashMap::new();
        trie.for_each_prefix(|path, w| {
            out.insert(path.to_vec(), w);
        });
        out
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3(a): walks (a,b,c) and (a,c,a); then insert (a,b,a).
        // Encode a=0, b=1, c=2.
        let mut t = WalkTrie::new(0);
        t.insert(&[0, 1, 2]);
        t.insert(&[0, 2, 0]);
        // 3(a): root weight 2, children b=1 (w1), c=1 (w1), grandchildren.
        assert_eq!(t.total_walks(), 2);
        t.insert(&[0, 1, 0]);
        // 3(b): root w=3, b child w=2, new grandchild a under b with w=1.
        assert_eq!(t.total_walks(), 3);
        let paths = collect(&t);
        assert_eq!(paths[&vec![0, 1]], 2);
        assert_eq!(paths[&vec![0, 1, 2]], 1);
        assert_eq!(paths[&vec![0, 1, 0]], 1);
        assert_eq!(paths[&vec![0, 2]], 1);
        assert_eq!(paths[&vec![0, 2, 0]], 1);
        assert_eq!(paths.len(), 5);
        // 6 trie nodes total (root + 5), exactly as in Figure 3(b).
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn shared_prefixes_are_stored_once() {
        let mut t = WalkTrie::new(7);
        for _ in 0..100 {
            t.insert(&[7, 3, 5]);
        }
        assert_eq!(t.len(), 3);
        let paths = collect(&t);
        assert_eq!(paths[&vec![7, 3]], 100);
        assert_eq!(paths[&vec![7, 3, 5]], 100);
    }

    #[test]
    fn single_node_walks_add_weight_but_no_prefixes() {
        let mut t = WalkTrie::new(1);
        t.insert(&[1]);
        t.insert(&[1]);
        assert_eq!(t.total_walks(), 2);
        assert!(t.is_empty());
        assert_eq!(collect(&t).len(), 0);
    }

    #[test]
    fn weights_sum_consistency() {
        // At each depth, child weights sum to ≤ parent weight, and the sum
        // of depth-1 weights equals the number of walks of length ≥ 2.
        let mut t = WalkTrie::new(0);
        let walks: Vec<Vec<NodeId>> = vec![
            vec![0, 1],
            vec![0, 1, 2],
            vec![0, 2],
            vec![0],
            vec![0, 1, 2],
        ];
        for w in &walks {
            t.insert(w);
        }
        let paths = collect(&t);
        let depth1_sum: u32 = paths
            .iter()
            .filter(|(p, _)| p.len() == 2)
            .map(|(_, &w)| w)
            .sum();
        assert_eq!(depth1_sum, 4); // all walks except the bare [0]
        assert_eq!(paths[&vec![0, 1, 2]], 2);
    }

    #[test]
    #[should_panic(expected = "start at the trie root")]
    fn wrong_root_panics() {
        let mut t = WalkTrie::new(0);
        t.insert(&[1, 0]);
    }

    #[test]
    fn path_buffer_is_correct_across_branches() {
        // Regression: DFS must truncate the shared path buffer correctly
        // when jumping between branches of different depth.
        let mut t = WalkTrie::new(0);
        t.insert(&[0, 1, 2, 3]);
        t.insert(&[0, 4]);
        t.insert(&[0, 1, 5]);
        let paths = collect(&t);
        assert!(paths.contains_key(&vec![0, 4]));
        assert!(paths.contains_key(&vec![0, 1, 5]));
        assert!(paths.contains_key(&vec![0, 1, 2, 3]));
        for p in paths.keys() {
            assert_eq!(p[0], 0, "all paths start at the root: {p:?}");
        }
    }

    /// Reference insert without the last-path / last-child caches: the
    /// exact code shape the caches replaced.
    fn naive_insert(t: &mut WalkTrie, walk: &[NodeId]) {
        t.nodes[0].weight += 1;
        let mut current: TrieIndex = 0;
        for &vertex in &walk[1..] {
            let mut link = t.nodes[current as usize].first_child;
            let mut last: Option<TrieIndex> = None;
            let mut found = None;
            while let Some(idx) = link {
                if t.nodes[idx as usize].vertex == vertex {
                    found = Some(idx);
                    break;
                }
                last = Some(idx);
                link = t.nodes[idx as usize].next_sibling;
            }
            current = found.unwrap_or_else(|| {
                let new_idx = t.nodes.len() as TrieIndex;
                t.nodes.push(TrieNode {
                    vertex,
                    weight: 0,
                    first_child: None,
                    next_sibling: None,
                    last_child: None,
                });
                match last {
                    Some(idx) => t.nodes[idx as usize].next_sibling = Some(new_idx),
                    None => t.nodes[current as usize].first_child = Some(new_idx),
                }
                new_idx
            });
            t.nodes[current as usize].weight += 1;
        }
    }

    #[test]
    fn cached_insert_matches_naive_insert_exactly() {
        // Pseudo-random walk mix with heavy prefix sharing, inserted into
        // a cached trie and a cache-free reference: identical prefixes,
        // weights, and even node numbering (caches must not change where
        // nodes are created).
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut cached = WalkTrie::new(0);
        let mut naive = WalkTrie::new(0);
        for _ in 0..500 {
            let len = 1 + rand(6) as usize;
            let mut walk = vec![0u32];
            for _ in 1..len {
                walk.push(rand(5) as u32);
            }
            cached.insert(&walk);
            naive_insert(&mut naive, &walk);
        }
        assert_eq!(cached.len(), naive.len());
        assert_eq!(cached.total_walks(), naive.total_walks());
        assert_eq!(collect(&cached), collect(&naive));
        for idx in 0..cached.len() as TrieIndex {
            assert_eq!(cached.vertex(idx), naive.vertex(idx), "node {idx}");
            assert_eq!(cached.weight(idx), naive.weight(idx), "node {idx}");
        }
    }

    #[test]
    fn last_path_cache_survives_shorter_and_diverging_walks() {
        let mut t = WalkTrie::new(0);
        t.insert(&[0, 1, 2, 3]); // seeds the cache
        t.insert(&[0, 1]); // shorter, fully on the cached path
        t.insert(&[0, 1, 2, 4]); // diverges at depth 2
        t.insert(&[0, 5]); // diverges at depth 0
        t.insert(&[0, 5, 2]); // extends the new path
        let paths = collect(&t);
        assert_eq!(paths[&vec![0, 1]], 3);
        assert_eq!(paths[&vec![0, 1, 2]], 2);
        assert_eq!(paths[&vec![0, 1, 2, 3]], 1);
        assert_eq!(paths[&vec![0, 1, 2, 4]], 1);
        assert_eq!(paths[&vec![0, 5]], 2);
        assert_eq!(paths[&vec![0, 5, 2]], 1);
        assert_eq!(t.total_walks(), 5);
    }

    #[test]
    fn bfs_levels_visits_every_node_grouped_by_parent() {
        let mut t = WalkTrie::new(0);
        t.insert(&[0, 1, 2, 3]);
        t.insert(&[0, 4]);
        t.insert(&[0, 1, 5]);
        t.insert(&[0, 4, 2]);
        let mut order_nodes = Vec::new();
        let mut order_parents = Vec::new();
        let mut level_starts = Vec::new();
        t.bfs_levels(&mut order_nodes, &mut order_parents, &mut level_starts);
        // Lanes are parallel, and every non-root node appears exactly once.
        assert_eq!(order_nodes.len(), order_parents.len());
        assert_eq!(order_nodes.len(), t.len() - 1);
        let mut seen: Vec<TrieIndex> = order_nodes.clone();
        seen.sort_unstable();
        assert_eq!(seen, (1..t.len() as TrieIndex).collect::<Vec<_>>());
        // Levels are contiguous and shallow-to-deep: depth 1 = {1, 4},
        // depth 2 = {2, 5, 2'}, depth 3 = {3}.
        assert_eq!(level_starts.first(), Some(&0));
        assert_eq!(level_starts.last(), Some(&order_nodes.len()));
        assert_eq!(level_starts.len(), 4, "three levels: {level_starts:?}");
        let depth1 = &order_parents[level_starts[0]..level_starts[1]];
        assert_eq!(depth1.len(), 2);
        assert!(depth1.iter().all(|&p| p == 0));
        // Within a level, siblings are consecutive (grouped by parent).
        for level in level_starts.windows(2) {
            let slice = &order_parents[level[0]..level[1]];
            let mut seen_parents: Vec<TrieIndex> = Vec::new();
            for &parent in slice {
                match seen_parents.last() {
                    Some(&last) if last == parent => {}
                    _ => {
                        assert!(
                            !seen_parents.contains(&parent),
                            "parent {parent} split across the level"
                        );
                        seen_parents.push(parent);
                    }
                }
            }
        }
        // Parent links are consistent with the vertex chains.
        for (&node, &parent) in order_nodes.iter().zip(&order_parents) {
            assert!(parent < node, "BFS parents precede children");
            let _ = (t.vertex(node), t.weight(node), t.vertex(parent));
        }
    }

    #[test]
    fn reset_trie_rebuilds_exactly_like_a_fresh_one() {
        let walks: [&[NodeId]; 4] = [&[0, 1, 2, 3], &[0, 4], &[0, 1, 5], &[0, 4, 2]];
        let mut reused = WalkTrie::new(9);
        reused.insert(&[9, 8, 7]);
        reused.insert(&[9, 6]);
        reused.reset(0);
        assert!(reused.is_empty());
        assert_eq!(reused.total_walks(), 0);
        let mut fresh = WalkTrie::new(0);
        for walk in walks {
            reused.insert(walk);
            fresh.insert(walk);
        }
        assert_eq!(reused.len(), fresh.len());
        for idx in 0..fresh.len() as TrieIndex {
            assert_eq!(reused.vertex(idx), fresh.vertex(idx), "node {idx}");
            assert_eq!(reused.weight(idx), fresh.weight(idx), "node {idx}");
        }
        assert_eq!(collect(&reused), collect(&fresh));
    }

    #[test]
    fn bfs_levels_on_empty_trie() {
        let t = WalkTrie::new(9);
        let mut order_nodes = vec![7];
        let mut order_parents = vec![7];
        let mut level_starts = vec![42];
        t.bfs_levels(&mut order_nodes, &mut order_parents, &mut level_starts);
        assert!(order_nodes.is_empty());
        assert!(order_parents.is_empty());
        assert_eq!(level_starts, vec![0]);
    }
}
