//! Reusable dense scratch space for PROBE traversals.
//!
//! A probe touches a per-level frontier of (node, score) pairs. The paper's
//! pseudo-code uses hash sets; we use the classic dense-array-with-
//! version-stamps trick instead: O(1) insert/lookup with no hashing and no
//! O(n) clearing between levels (clearing bumps a version counter). One
//! [`ProbeWorkspace`] is allocated per query (O(n)) and reused across all
//! `nr · E\[ℓ\]` probes, which is where most of ProbeSim's practical speed
//! over a naive hash-map implementation comes from.

use probesim_graph::NodeId;

use crate::budget::ProbeBudget;
use crate::trie::WalkTrie;

/// One frontier level: a sparse set of nodes with f64 scores backed by
/// dense arrays.
#[derive(Debug, Clone)]
pub struct LevelBuf {
    score: Vec<f64>,
    stamp: Vec<u32>,
    version: u32,
    nodes: Vec<NodeId>,
}

impl LevelBuf {
    /// A buffer for node ids `0..n`.
    pub fn new(n: usize) -> Self {
        LevelBuf {
            score: vec![0.0; n],
            stamp: vec![0; n],
            version: 0,
            nodes: Vec::new(),
        }
    }

    /// Clears the buffer, first growing it to cover node ids `0..n` if it
    /// does not yet (the one allocation of a lazily sized buffer).
    pub fn clear_for(&mut self, n: usize) {
        if self.score.len() < n {
            *self = LevelBuf::new(n);
        }
        self.clear();
    }

    /// Removes all entries in O(1) amortized (version bump).
    pub fn clear(&mut self) {
        self.nodes.clear();
        // On wrap-around, fall back to a real reset so stale stamps can
        // never alias the new version.
        if self.version == u32::MAX {
            self.version = 0;
            self.stamp.fill(0);
        }
        self.version += 1;
    }

    /// Adds `delta` to `v`'s score, inserting it if absent.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) {
        let i = v as usize;
        if self.stamp[i] == self.version {
            self.score[i] += delta;
        } else {
            self.stamp[i] = self.version;
            self.score[i] = delta;
            self.nodes.push(v);
        }
    }

    /// Inserts `v` with an exact score, overwriting any previous value.
    #[inline]
    pub fn set(&mut self, v: NodeId, value: f64) {
        let i = v as usize;
        if self.stamp[i] != self.version {
            self.stamp[i] = self.version;
            self.nodes.push(v);
        }
        self.score[i] = value;
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.version
    }

    /// The score of `v`, or 0.0 when absent.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        let i = v as usize;
        if self.stamp[i] == self.version {
            self.score[i]
        } else {
            0.0
        }
    }

    /// The nodes currently in the set, in insertion order. May contain
    /// entries whose score was later zeroed with [`LevelBuf::set`]; PROBE
    /// filters by score where that matters.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no entries are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Drops entries that fail `keep`, compacting the node list.
    pub fn retain<F: FnMut(NodeId, f64) -> bool>(&mut self, mut keep: F) {
        let score = &self.score;
        let stamp = &mut self.stamp;
        let version = self.version;
        self.nodes.retain(|&v| {
            let ok = keep(v, score[v as usize]);
            if !ok {
                // Un-stamp so `contains`/`get` agree with the node list.
                stamp[v as usize] = version.wrapping_sub(1);
            }
            ok
        });
    }
}

/// Pooled storage for the fused probe engine's group inputs
/// ([`crate::frontier`]).
///
/// A fused sweep stores **one span per sibling group**: the merged,
/// already-pruned input frontier of the group of trie node `q`'s
/// children, keyed by `q`. The sweep writes it when it flushes `q`'s run
/// (the arrival mass of every grandchild group plus each child's own
/// start mass) and reads it once, when the next shallower level expands
/// that group. Only pruning survivors are stored, so the arena holds
/// what the sweep will actually expand — not every trie position's
/// unpruned arrival frontier.
///
/// Spans live in one flat arena indexed by `spans`, next to the
/// BFS-cursor scratch buffers ([`crate::trie::WalkTrie::bfs_levels`]
/// fills them). Storage is struct-of-arrays: node ids (`u32`) and
/// weights (`f64`) live in separate lanes, so the expansion loop streams
/// a dense 4-byte id lane and an aligned weight lane. Everything is
/// `clear()`-reused: after the first few queries warm the capacities up,
/// a query performs **zero heap allocation** here — the same pooling
/// contract as [`LevelBuf`] and the session's sparse accumulator.
#[derive(Debug, Clone, Default)]
pub struct FrontierArena {
    /// Node-id lane of the flat span storage; each group input is a
    /// contiguous span, parallel to `entry_weights`.
    entry_nodes: Vec<NodeId>,
    /// Weight lane, parallel to `entry_nodes`.
    entry_weights: Vec<f64>,
    /// Per trie node `q`: `(offset, len)` of the input span of the group
    /// of `q`'s children.
    spans: Vec<(usize, usize)>,
    /// BFS cursor scratch: trie nodes in level order (node lane,
    /// parallel to `order_parents`).
    pub order_nodes: Vec<u32>,
    /// BFS cursor scratch: parent of each entry in `order_nodes`.
    pub order_parents: Vec<u32>,
    /// BFS cursor scratch: level boundaries into the order lanes.
    pub level_starts: Vec<usize>,
}

impl FrontierArena {
    /// An empty arena; capacities grow on first use and are kept.
    pub fn new() -> Self {
        FrontierArena::default()
    }

    /// Resets the arena for a query over a trie with `trie_len` nodes.
    /// O(trie_len), no allocation once capacities are warm.
    pub fn begin_query(&mut self, trie_len: usize) {
        self.entry_nodes.clear();
        self.entry_weights.clear();
        self.spans.clear();
        self.spans.resize(trie_len, (0, 0));
    }

    /// The stored input of the group of trie node `parent`'s children as
    /// parallel node/weight lanes (both empty until stored).
    #[inline]
    pub fn span(&self, parent: u32) -> (&[NodeId], &[f64]) {
        let (offset, len) = self.spans[parent as usize];
        (
            &self.entry_nodes[offset..offset + len],
            &self.entry_weights[offset..offset + len],
        )
    }

    /// Stores the entries of `level` whose score passes `keep` (in
    /// insertion order) as the input of the group of trie node
    /// `parent`'s children, replacing any earlier span of `parent`.
    pub fn store<F: FnMut(f64) -> bool>(&mut self, parent: u32, level: &LevelBuf, mut keep: F) {
        let offset = self.entry_nodes.len();
        for &v in level.nodes() {
            let score = level.get(v);
            if keep(score) {
                self.entry_nodes.push(v);
                self.entry_weights.push(score);
            }
        }
        self.spans[parent as usize] = (offset, self.entry_nodes.len() - offset);
    }
}

/// How the fused sweep schedules each (level, group) expansion.
///
/// Sequential by default; [`crate::QuerySession`] arms the parallel
/// policy from [`crate::Optimizations::parallel_sweep`]. The policy
/// only decides *where* the work runs — never *what* it computes: the
/// deterministic parallel path replays per-chunk contributions in
/// fixed chunk order (bit-identical to sequential), and the randomized
/// path derives one RNG stream per fixed-width chunk, so output is
/// independent of `threads`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPolicy {
    /// Partition large frontiers across scoped worker threads.
    pub parallel: bool,
    /// Worker-thread count for parallel expansions (>= 1).
    pub threads: usize,
}

impl SweepPolicy {
    /// The default single-threaded policy.
    pub fn sequential() -> Self {
        SweepPolicy {
            parallel: false,
            threads: 1,
        }
    }
}

impl Default for SweepPolicy {
    fn default() -> Self {
        SweepPolicy::sequential()
    }
}

/// Double-buffered frontier pair for a probe traversal, plus the pooled
/// scratch of the batched and fused drivers.
#[derive(Debug, Clone)]
pub struct ProbeWorkspace {
    /// Current level `H_j`.
    pub current: LevelBuf,
    /// Next level `H_{j+1}`; the fused sweep's run accumulator.
    pub next: LevelBuf,
    /// A private, empty-between-uses output level for the fused sweep's
    /// randomized group expansions: they dedup candidates by membership,
    /// so they must not expand into the shared run accumulator. Sized on
    /// its first use, so workspaces that never expand a randomized group
    /// never allocate it.
    pub private: LevelBuf,
    /// Per-group input spans for the fused probe engine; empty (and
    /// allocation-free) while only the per-prefix paths run.
    pub frontier: FrontierArena,
    /// The batched driver's pooled walk trie, rebuilt in place per query
    /// ([`WalkTrie::reset`]); `None` until the first batched query.
    pub trie: Option<WalkTrie>,
    /// The walk drivers' pooled walk buffer (one allocation across all
    /// `nr` walks of every query).
    pub walk_buf: Vec<NodeId>,
    /// The active query's cancellation budget, checked by the probe
    /// engines between expansions. Unlimited unless the caller armed one
    /// (`QuerySession::run_with_budget`); carrying it here keeps the
    /// probe signatures free of an extra threading parameter.
    pub budget: ProbeBudget,
    /// Intra-query parallelism policy for the fused sweep; sequential
    /// unless the session armed [`crate::Optimizations::parallel_sweep`].
    pub sweep: SweepPolicy,
    /// The bound graph's node relabeling, when it carries one. The
    /// randomized probe's dense-candidate branch scans nodes through
    /// this map (external-ascending order) so relabeled graphs replay
    /// the exact RNG consumption sequence of the unrelabeled graph.
    pub remap: Option<std::sync::Arc<probesim_graph::NodeRemap>>,
}

impl ProbeWorkspace {
    /// Workspace for node ids `0..n`.
    pub fn new(n: usize) -> Self {
        ProbeWorkspace {
            current: LevelBuf::new(n),
            next: LevelBuf::new(n),
            private: LevelBuf::new(0),
            frontier: FrontierArena::new(),
            trie: None,
            walk_buf: Vec::new(),
            budget: ProbeBudget::unlimited(),
            sweep: SweepPolicy::sequential(),
            remap: None,
        }
    }

    /// Clears every level buffer (including the fused sweep's run
    /// accumulator and private level, which an aborted sweep can leave
    /// dirty).
    pub fn reset(&mut self) {
        self.current.clear();
        self.next.clear();
        self.private.clear();
    }

    /// Makes the freshly-built next level current and clears the old one.
    pub fn advance(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.next.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let mut b = LevelBuf::new(4);
        b.clear();
        b.add(2, 0.5);
        b.add(2, 0.25);
        b.add(0, 1.0);
        assert_eq!(b.get(2), 0.75);
        assert_eq!(b.get(0), 1.0);
        assert_eq!(b.get(1), 0.0);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn clear_is_logical_not_physical() {
        let mut b = LevelBuf::new(2);
        b.clear();
        b.add(1, 3.0);
        b.clear();
        assert!(!b.contains(1));
        assert_eq!(b.get(1), 0.0);
        assert!(b.is_empty());
        b.add(1, 1.0);
        assert_eq!(b.get(1), 1.0);
    }

    #[test]
    fn set_overwrites() {
        let mut b = LevelBuf::new(3);
        b.clear();
        b.add(1, 0.5);
        b.set(1, 0.1);
        assert_eq!(b.get(1), 0.1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn retain_filters_and_unstamps() {
        let mut b = LevelBuf::new(5);
        b.clear();
        for v in 0..5 {
            b.add(v, v as f64 / 10.0);
        }
        b.retain(|_, s| s >= 0.2);
        assert_eq!(b.len(), 3);
        assert!(!b.contains(0));
        assert!(!b.contains(1));
        assert!(b.contains(4));
        assert_eq!(b.get(1), 0.0);
    }

    #[test]
    fn clear_for_sizes_a_lazy_buffer_once() {
        let mut b = LevelBuf::new(0);
        b.clear_for(4);
        b.add(3, 0.5);
        b.clear_for(2); // already covers 0..2: a plain clear
        assert!(b.is_empty());
        assert_eq!(b.score.len(), 4);
        b.add(3, 1.0);
        assert_eq!(b.get(3), 1.0);
    }

    #[test]
    fn workspace_advance_swaps_levels() {
        let mut ws = ProbeWorkspace::new(3);
        ws.reset();
        ws.next.add(1, 0.5);
        ws.advance();
        assert!(ws.current.contains(1));
        assert!(ws.next.is_empty());
    }

    #[test]
    fn frontier_arena_stores_and_reuses_spans() {
        let mut arena = FrontierArena::new();
        arena.begin_query(3);
        assert!(arena.span(0).0.is_empty());
        let mut buf = LevelBuf::new(8);
        buf.clear();
        buf.add(5, 0.5);
        buf.add(2, 0.25);
        buf.set(7, 0.0); // entries failing `keep` are not stored
        arena.store(1, &buf, |s| s > 0.0);
        assert_eq!(arena.span(1), (&[5u32, 2][..], &[0.5f64, 0.25][..]));
        buf.clear();
        buf.add(3, 1.0);
        buf.add(4, 0.125);
        arena.store(2, &buf, |s| s > 0.5);
        assert_eq!(arena.span(2), (&[3u32][..], &[1.0f64][..]));
        assert_eq!(arena.span(1), (&[5u32, 2][..], &[0.5f64, 0.25][..]));
        // A new query resets every span.
        arena.begin_query(2);
        assert!(arena.span(1).0.is_empty());
    }

    #[test]
    fn version_wraparound_resets_cleanly() {
        let mut b = LevelBuf::new(2);
        b.version = u32::MAX - 1;
        b.clear(); // -> MAX
        b.add(0, 1.0);
        b.clear(); // wraps to 1 with full stamp reset
        assert!(!b.contains(0));
        b.add(1, 2.0);
        assert!(b.contains(1));
        assert_eq!(b.get(0), 0.0);
    }
}
