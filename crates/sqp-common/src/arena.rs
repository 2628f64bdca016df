//! Arena-backed suffix trie — the training/serving counting core.
//!
//! The naive way to count the windows of a session corpus is a hashmap keyed
//! by owned `Box<[QueryId]>` sequences: every one of the O(L²) windows of a
//! length-L session is allocated, hashed in full, and probed. At web-log
//! scale that is the dominant training cost. This module replaces it with a
//! flat-arena trie:
//!
//! * **counting** walks the trie with borrowed `&[QueryId]` slices. Each
//!   window extends the previous one by a single edge, so a session
//!   contributes O(L·D) *constant-time* steps (one u64-keyed probe each),
//!   zero per-window allocations, and no re-hashing of whole sequences;
//! * **freezing** lays the nodes out in a canonical breadth-first order with
//!   id-sorted CSR child arrays, so lookups on the serve path are
//!   allocation-free binary searches (O(log fan-out) per edge) and the
//!   layout depends only on the counts, never on insertion order;
//! * **loading** needs no builder: the canonical layout's
//!   `(parent, key, total, at_start)` rows, in id order, *are* the CSR
//!   arrays — edge `e` leads to node `e + 1` — so
//!   [`SuffixTrie::from_parts`] fills the frozen form in one pass and
//!   rejects any row sequence that is not canonical.
//!
//! Node payloads are the window statistics of the paper's Eq. (6): total
//! weighted occurrences and occurrences at a session start. Continuation
//! (next-query) distributions need no storage at all — the continuations of
//! window `w` are exactly the children of `w`'s node, because every
//! occurrence of `w` followed by `q` is an occurrence of the window `w·q`.

use crate::QueryId;
use std::ops::Range;

/// Open-addressing `u64 → u32` table for trie edges: flat storage, linear
/// probing, one multiply-shift hash per probe. This is the single hottest
/// structure in training — a SwissTable-style general map costs measurably
/// more per descent step than this specialized layout.
#[derive(Debug)]
struct EdgeMap {
    /// Interleaved `(key, value + 1)` slots; value 0 marks an empty slot.
    /// One cache line per probe.
    slots: Vec<(u64, u32)>,
    len: usize,
    shift: u32,
}

const EDGE_HASH_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl EdgeMap {
    /// Sized so `expected` entries fit without growing.
    fn with_capacity(expected: usize) -> Self {
        let cap = (expected * 2).next_power_of_two().max(1024);
        EdgeMap {
            slots: vec![(0, 0); cap],
            len: 0,
            shift: 64 - cap.trailing_zeros(),
        }
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key.wrapping_mul(EDGE_HASH_K) >> self.shift) as usize
    }

    /// Value for `key`, inserting `fresh` when absent. Returns `(value,
    /// inserted)`.
    #[inline]
    fn get_or_insert(&mut self, key: u64, fresh: u32) -> (u32, bool) {
        let mask = self.slots.len() - 1;
        let mut i = self.slot(key);
        loop {
            let (k, v) = self.slots[i];
            if v == 0 {
                self.slots[i] = (key, fresh + 1);
                self.len += 1;
                if self.len * 8 >= self.slots.len() * 5 {
                    self.grow();
                }
                return (fresh, true);
            }
            if k == key {
                return (v - 1, false);
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (k, v) in old {
            if v != 0 {
                let mut i = self.slot(k);
                while self.slots[i].1 != 0 {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (k, v);
            }
        }
    }

    /// Iterate `(key, value)` pairs in table order.
    fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.slots
            .iter()
            .filter(|(_, v)| *v != 0)
            .map(|&(k, v)| (k, v - 1))
    }
}

/// Growable trie used during counting. Nodes live in parallel flat vectors;
/// edges in one global `u64`-keyed map (`parent << 32 | query`), so a
/// descent step is a single integer hash probe.
#[derive(Debug)]
pub struct TrieBuilder {
    /// Per-node `(total, at_start)` — one cache line per touch.
    counts: Vec<(u64, u64)>,
    /// Depth-1 children indexed directly by query id (ids are dense from the
    /// interner): `node + 1`, 0 = absent. Every window starts with a root
    /// step, so this array removes the hottest hash probe entirely.
    root_children: Vec<u32>,
    /// Edges below depth 1.
    edges: EdgeMap,
}

impl Default for TrieBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TrieBuilder {
    /// A builder holding only the root.
    pub fn new() -> Self {
        Self::with_edge_capacity(0)
    }

    /// A builder sized for roughly `expected_edges` distinct windows —
    /// avoids rehashing mid-count when the caller can estimate the corpus.
    pub fn with_edge_capacity(expected_edges: usize) -> Self {
        let mut counts = Vec::with_capacity(expected_edges + 1);
        counts.push((0, 0));
        TrieBuilder {
            counts,
            root_children: Vec::new(),
            edges: EdgeMap::with_capacity(expected_edges),
        }
    }

    #[inline]
    fn edge_key(parent: u32, q: QueryId) -> u64 {
        (u64::from(parent) << 32) | u64::from(q.0)
    }

    /// Child of `parent` along `q`, created on first use.
    #[inline]
    pub fn child_or_insert(&mut self, parent: u32, q: QueryId) -> u32 {
        if parent == 0 {
            return self.root_child_or_insert(q);
        }
        let next_id = self.counts.len() as u32;
        let (id, inserted) = self.edges.get_or_insert(Self::edge_key(parent, q), next_id);
        if inserted {
            self.counts.push((0, 0));
        }
        id
    }

    #[inline]
    fn root_child_or_insert(&mut self, q: QueryId) -> u32 {
        let qi = q.0 as usize;
        if qi >= self.root_children.len() {
            self.root_children.resize(qi + 1, 0);
        }
        let v = self.root_children[qi];
        if v != 0 {
            return v - 1;
        }
        let id = self.counts.len() as u32;
        self.counts.push((0, 0));
        self.root_children[qi] = id + 1;
        id
    }

    /// Count the windows of `session` up to `depth_limit` queries whose
    /// first query's id lies in `first`, weighted by `weight`. Windows
    /// starting at position 0 also count as session-start occurrences.
    /// `0..u32::MAX` counts every window; disjoint ranges count disjoint
    /// subtrees of the root, which is what lets builders over a partition
    /// of the ids run apart and [`SuffixTrie::join`] put them together.
    pub fn count_session(
        &mut self,
        session: &[QueryId],
        weight: u64,
        depth_limit: usize,
        first: Range<u32>,
    ) {
        for (start, head) in session.iter().enumerate() {
            if !first.contains(&head.0) {
                continue;
            }
            let at_start = if start == 0 { weight } else { 0 };
            let limit = depth_limit.min(session.len() - start);
            let mut node = 0u32;
            for &q in &session[start..start + limit] {
                node = self.child_or_insert(node, q);
                let c = &mut self.counts[node as usize];
                c.0 += weight;
                c.1 += at_start;
            }
        }
    }

    /// Iterate root edges `(query, child)` in ascending query order.
    fn root_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.root_children
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(|(q, &v)| (q as u32, v - 1))
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.counts.len() <= 1
    }

    /// Canonicalize into the immutable serving layout. `window_len` is the
    /// deepest depth that counts as a *window*; deeper nodes (there is at
    /// most one extra level) exist only as continuation evidence of the
    /// level above.
    pub fn freeze(self, window_len: u32) -> SuffixTrie {
        // Group edges by parent with a counting sort (one pass for degrees,
        // one to scatter), then order each node's few children with a small
        // in-place sort — far cheaper than globally sorting all E edges.
        let n = self.counts.len();
        let n_edges = n - 1;
        let mut first_edge = vec![0u32; n + 1];
        first_edge[1] = self.root_edges().count() as u32;
        for (key, _) in self.edges.iter() {
            first_edge[(key >> 32) as usize + 1] += 1;
        }
        for i in 1..=n {
            first_edge[i] += first_edge[i - 1];
        }
        let mut edges: Vec<(u32, u32)> = vec![(0, 0); n_edges];
        {
            let mut cursor = first_edge.clone();
            for (q, child) in self.root_edges() {
                edges[cursor[0] as usize] = (q, child);
                cursor[0] += 1;
            }
            for (key, child) in self.edges.iter() {
                let p = (key >> 32) as usize;
                edges[cursor[p] as usize] = (key as u32, child);
                cursor[p] += 1;
            }
        }
        // Root edges arrive pre-sorted from the dense array; deeper nodes
        // have few children each.
        for p in 1..n {
            let lo = first_edge[p] as usize;
            let hi = first_edge[p + 1] as usize;
            edges[lo..hi].sort_unstable();
        }

        // Breadth-first renumbering with children visited in id order gives
        // a canonical layout: ids ascend by (depth, path) lexicographically,
        // so two tries with equal counts freeze identically no matter how
        // the counts were sharded. One pass fills everything: a child's
        // metadata is known when its parent is dequeued, and a node's child
        // range is closed in the same step.
        let mut queue_old: Vec<u32> = Vec::with_capacity(n);
        queue_old.push(0);
        let mut nodes = Vec::with_capacity(n);
        nodes.push(Node {
            total: self.counts[0].0,
            at_start: self.counts[0].1,
            cont_total: 0,
            first_child: 0,
            n_children: 0,
            parent: 0,
            key: QueryId(0),
            depth: 0,
        });
        let mut child_keys = Vec::with_capacity(n_edges);
        let mut child_ids = Vec::with_capacity(n_edges);
        let mut child_totals = Vec::with_capacity(n_edges);
        let mut head = 0usize;
        while head < queue_old.len() {
            let old = queue_old[head] as usize;
            let lo = first_edge[old] as usize;
            let hi = first_edge[old + 1] as usize;
            let first_child = child_keys.len() as u32;
            let depth = nodes[head].depth;
            let mut cont_total = 0u64;
            for &(q, child_old) in &edges[lo..hi] {
                let new_id = queue_old.len() as u32;
                queue_old.push(child_old);
                let (total, at_start) = self.counts[child_old as usize];
                nodes.push(Node {
                    total,
                    at_start,
                    cont_total: 0,
                    first_child: 0,
                    n_children: 0,
                    parent: head as u32,
                    key: QueryId(q),
                    depth: depth + 1,
                });
                child_keys.push(QueryId(q));
                child_ids.push(new_id);
                child_totals.push(total);
                cont_total += total;
            }
            nodes[head].first_child = first_child;
            nodes[head].n_children = (hi - lo) as u32;
            nodes[head].cont_total = cont_total;
            head += 1;
        }
        debug_assert_eq!(nodes.len(), n);

        SuffixTrie {
            nodes,
            child_keys,
            child_ids,
            child_totals,
            window_len,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Node {
    total: u64,
    at_start: u64,
    /// Sum of child totals = weighted occurrences with a continuation.
    cont_total: u64,
    first_child: u32,
    n_children: u32,
    parent: u32,
    key: QueryId,
    depth: u32,
}

/// Immutable arena suffix trie in canonical breadth-first layout.
///
/// Node `0` is the root (the empty window). Child edges are stored in one
/// CSR block per node, sorted by `QueryId`, so a path lookup is a cascade of
/// binary searches with no allocation and no hashing.
#[derive(Clone, Debug, PartialEq)]
pub struct SuffixTrie {
    nodes: Vec<Node>,
    child_keys: Vec<QueryId>,
    child_ids: Vec<u32>,
    child_totals: Vec<u64>,
    window_len: u32,
}

impl SuffixTrie {
    /// An empty trie (root only).
    pub fn empty() -> Self {
        TrieBuilder::new().freeze(0)
    }

    /// The root node id.
    pub const ROOT: u32 = 0;

    /// The trie of one count split by first query: `parts[p]` is what a
    /// builder froze after counting only the windows whose first query lies
    /// in the `p`-th of some contiguous, ascending ranges of ids.
    ///
    /// Canonical ids ascend by (depth, path) and a path starts with its
    /// first query, so at every depth part p's nodes come before part
    /// p + 1's, and each part's depth-d block keeps its own order. The join
    /// is therefore a relabelling: a block moves by one offset, a parent by
    /// the offset of its depth, and the child arrays follow node order
    /// because edge e leads to node e + 1. Nothing is merged or re-inserted.
    ///
    /// # Panics
    ///
    /// When the parts disagree on the window length, or a part's root keys
    /// do not all lie above the previous part's — a broken split, not data.
    pub fn join(parts: &[SuffixTrie]) -> SuffixTrie {
        let window_len = parts.first().map_or(0, |p| p.window_len);
        assert!(
            parts.iter().all(|p| p.window_len == window_len),
            "joined parts count windows of one length"
        );
        let mut roots = parts
            .iter()
            .flat_map(|p| p.continuations(Self::ROOT).0.iter());
        let mut previous = roots.next();
        for key in roots {
            assert!(previous < Some(key), "parts hold ascending first queries");
            previous = Some(key);
        }

        let deepest = parts
            .iter()
            .filter_map(|p| p.nodes.last())
            .map(|n| n.depth as usize)
            .max()
            .unwrap_or(0);
        // `starts[p][d]`: part p's first id at depth d, for d in 0..=deepest + 1.
        let starts: Vec<Vec<u32>> = parts
            .iter()
            .map(|p| {
                (0..=deepest + 1)
                    .map(|d| p.nodes.partition_point(|n| (n.depth as usize) < d) as u32)
                    .collect()
            })
            .collect();
        let n = 1 + parts.iter().map(|p| p.nodes.len() - 1).sum::<usize>();
        let mut nodes = Vec::with_capacity(n);
        let mut root = Node {
            total: 0,
            at_start: 0,
            cont_total: 0,
            first_child: 0,
            n_children: 0,
            parent: 0,
            key: QueryId(0),
            depth: 0,
        };
        for r in parts.iter().map(|p| &p.nodes[0]) {
            root.total += r.total;
            root.at_start += r.at_start;
            root.cont_total += r.cont_total;
            root.n_children += r.n_children;
        }
        nodes.push(root);
        // `joined[p][d]`: the id part p's depth-d block starts at once joined.
        let mut joined = vec![vec![0u32; deepest + 1]; parts.len()];
        for d in 1..=deepest {
            for (p, part) in parts.iter().enumerate() {
                joined[p][d] = nodes.len() as u32;
                let block = &part.nodes[starts[p][d] as usize..starts[p][d + 1] as usize];
                let parent_shift = joined[p][d - 1].wrapping_sub(starts[p][d - 1]);
                nodes.extend(block.iter().map(|node| Node {
                    parent: node.parent.wrapping_add(parent_shift),
                    ..*node
                }));
            }
        }
        debug_assert_eq!(nodes.len(), n);
        // A node's children start after every earlier node's, empty ranges
        // included — the layout `freeze` and `from_parts` leave.
        let mut next_edge = 0u32;
        for node in &mut nodes {
            node.first_child = next_edge;
            next_edge += node.n_children;
        }
        SuffixTrie {
            child_keys: nodes[1..].iter().map(|n| n.key).collect(),
            child_ids: (1..n as u32).collect(),
            child_totals: nodes[1..].iter().map(|n| n.total).collect(),
            nodes,
            window_len,
        }
    }

    /// Number of nodes including the root and continuation-only nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Deepest depth that counts as a window.
    pub fn window_len(&self) -> usize {
        self.window_len as usize
    }

    /// Number of nodes that are windows (depth ≤ [`SuffixTrie::window_len`],
    /// excluding the root). BFS layout orders ids by depth, so this is a
    /// partition point.
    pub fn window_count(&self) -> usize {
        self.nodes
            .partition_point(|n| n.depth <= self.window_len)
            .saturating_sub(1)
    }

    /// Child of `node` along `q`.
    #[inline]
    pub fn child(&self, node: u32, q: QueryId) -> Option<u32> {
        let nd = &self.nodes[node as usize];
        let lo = nd.first_child as usize;
        let hi = lo + nd.n_children as usize;
        let keys = &self.child_keys[lo..hi];
        keys.binary_search(&q).ok().map(|i| self.child_ids[lo + i])
    }

    /// Node reached by walking `path` from the root, at any depth.
    pub fn find(&self, path: &[QueryId]) -> Option<u32> {
        let mut node = Self::ROOT;
        for &q in path {
            node = self.child(node, q)?;
        }
        Some(node)
    }

    /// Node of a *window* (length bounded by [`SuffixTrie::window_len`]).
    #[inline]
    pub fn window(&self, w: &[QueryId]) -> Option<u32> {
        if w.len() > self.window_len as usize {
            return None;
        }
        self.find(w)
    }

    /// Weighted occurrences of the node's window anywhere in a session.
    #[inline]
    pub fn total(&self, node: u32) -> u64 {
        self.nodes[node as usize].total
    }

    /// Weighted occurrences at a session start.
    #[inline]
    pub fn at_start(&self, node: u32) -> u64 {
        self.nodes[node as usize].at_start
    }

    /// Weighted occurrences followed by some query (continuation support).
    #[inline]
    pub fn cont_total(&self, node: u32) -> u64 {
        self.nodes[node as usize].cont_total
    }

    /// Depth of the node (root = 0).
    #[inline]
    pub fn depth(&self, node: u32) -> usize {
        self.nodes[node as usize].depth as usize
    }

    /// Parent id (the root's parent is the root itself).
    #[inline]
    pub fn parent(&self, node: u32) -> u32 {
        self.nodes[node as usize].parent
    }

    /// Edge label leading into the node (meaningless for the root).
    #[inline]
    pub fn key(&self, node: u32) -> QueryId {
        self.nodes[node as usize].key
    }

    /// Continuation distribution of the node's window as parallel id-sorted
    /// slices `(queries, weighted counts)` — the merged-walk input for KL
    /// tests and distribution building. Borrowed straight from the arena:
    /// no allocation, no copy.
    #[inline]
    pub fn continuations(&self, node: u32) -> (&[QueryId], &[u64]) {
        let nd = &self.nodes[node as usize];
        let lo = nd.first_child as usize;
        let hi = lo + nd.n_children as usize;
        (&self.child_keys[lo..hi], &self.child_totals[lo..hi])
    }

    /// Child edges of the node as parallel id-sorted slices
    /// `(queries, child node ids)`.
    #[inline]
    pub fn children(&self, node: u32) -> (&[QueryId], &[u32]) {
        let nd = &self.nodes[node as usize];
        let lo = nd.first_child as usize;
        let hi = lo + nd.n_children as usize;
        (&self.child_keys[lo..hi], &self.child_ids[lo..hi])
    }

    /// Reconstruct the node's window into `out` (cleared first), oldest
    /// query first.
    pub fn path(&self, node: u32, out: &mut Vec<QueryId>) {
        out.clear();
        let mut n = node;
        while n != Self::ROOT {
            out.push(self.key(n));
            n = self.parent(n);
        }
        out.reverse();
    }

    /// Ids of all window nodes in canonical `(depth, path)` order — exactly
    /// the old hashmap counter's candidate ordering, obtained here by
    /// construction instead of a sort.
    pub fn window_nodes(&self) -> impl Iterator<Item = u32> + '_ {
        (1..self.nodes.len() as u32).take_while(|&n| self.depth(n) <= self.window_len as usize)
    }

    /// Approximate owned heap bytes.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.child_keys.capacity() * std::mem::size_of::<QueryId>()
            + self.child_ids.capacity() * std::mem::size_of::<u32>()
            + self.child_totals.capacity() * std::mem::size_of::<u64>()
    }

    /// Flatten for serialization: one `(parent, key, total, at_start)` row
    /// per non-root node, in id order — strictly ascending by
    /// `(parent, key)`, every parent smaller than its row's id. This
    /// round-trips exactly through [`SuffixTrie::from_parts`].
    pub fn parts(&self) -> impl ExactSizeIterator<Item = (u32, u32, u64, u64)> + '_ {
        self.nodes
            .iter()
            .skip(1)
            .map(|n| (n.parent, n.key.0, n.total, n.at_start))
    }

    /// Rebuild from [`SuffixTrie::parts`] rows in one pass; row `i` is node
    /// `i + 1`. The rows may come from disk, so nothing about them is
    /// trusted: a parent must precede its row, rows must ascend strictly by
    /// `(parent, key)`, and every key must be an id of the `vocabulary`
    /// queries the trie's interner holds. The first two make every node's
    /// children one contiguous, key-sorted run — the frozen layout itself —
    /// so a valid row sequence yields exactly the trie that was flattened
    /// and anything else is an error.
    pub fn from_parts(
        window_len: u32,
        vocabulary: usize,
        rows: impl ExactSizeIterator<Item = (u32, u32, u64, u64)>,
    ) -> Result<SuffixTrie, TrieRowError> {
        let n_rows = rows.len();
        let mut nodes = Vec::with_capacity(n_rows + 1);
        nodes.push(Node {
            total: 0,
            at_start: 0,
            cont_total: 0,
            first_child: 0,
            n_children: 0,
            parent: 0,
            key: QueryId(0),
            depth: 0,
        });
        let mut child_keys = Vec::with_capacity(n_rows);
        let mut child_ids = Vec::with_capacity(n_rows);
        let mut child_totals = Vec::with_capacity(n_rows);
        let mut previous: Option<(u32, u32)> = None;
        for (row, (parent, key, total, at_start)) in rows.enumerate() {
            let node = u32::try_from(row + 1).map_err(|_| TrieRowError::TooManyRows)?;
            if parent >= node {
                return Err(TrieRowError::ForwardParent { node, parent });
            }
            if key as usize >= vocabulary {
                return Err(TrieRowError::KeyOutOfVocabulary {
                    node,
                    key,
                    vocabulary,
                });
            }
            if previous.is_some_and(|p| p >= (parent, key)) {
                return Err(TrieRowError::OutOfOrder { node });
            }
            previous = Some((parent, key));

            let above = &mut nodes[parent as usize];
            if above.n_children == 0 {
                above.first_child = row as u32;
            }
            above.n_children += 1;
            above.cont_total = above
                .cont_total
                .checked_add(total)
                .ok_or(TrieRowError::CountOverflow { node: parent })?;
            let depth = above.depth + 1;
            nodes.push(Node {
                total,
                at_start,
                cont_total: 0,
                first_child: 0,
                n_children: 0,
                parent,
                key: QueryId(key),
                depth,
            });
            child_keys.push(QueryId(key));
            child_ids.push(node);
            child_totals.push(total);
        }
        // A childless node's (empty) range starts where the next edge
        // would go, as `freeze` leaves it.
        let mut next_edge = n_rows as u32;
        for node in nodes.iter_mut().rev() {
            if node.n_children == 0 {
                node.first_child = next_edge;
            } else {
                next_edge = node.first_child;
            }
        }
        Ok(SuffixTrie {
            nodes,
            child_keys,
            child_ids,
            child_totals,
            window_len,
        })
    }
}

/// Why a row sequence is not the canonical flattening of any trie — what
/// [`SuffixTrie::from_parts`] returns instead of building from it. `node`
/// is the 1-based row number, which is the id the row would have had.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrieRowError {
    /// A row names a parent that does not come before it.
    ForwardParent {
        /// The offending row's node id.
        node: u32,
        /// The parent it names.
        parent: u32,
    },
    /// A row's key is not an id of the trie's interner.
    KeyOutOfVocabulary {
        /// The offending row's node id.
        node: u32,
        /// The key it carries.
        key: u32,
        /// How many queries the interner holds.
        vocabulary: usize,
    },
    /// A row does not sort strictly after the one before it by
    /// `(parent, key)`: a duplicate edge, keys descending within a parent,
    /// or a parent going backwards.
    OutOfOrder {
        /// The offending row's node id.
        node: u32,
    },
    /// The totals of one node's children do not fit a `u64`.
    CountOverflow {
        /// The parent whose continuation total overflowed.
        node: u32,
    },
    /// More rows than `u32` node ids.
    TooManyRows,
}

impl std::fmt::Display for TrieRowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TrieRowError::ForwardParent { node, parent } => {
                write!(f, "node {node} references later parent {parent}")
            }
            TrieRowError::KeyOutOfVocabulary {
                node,
                key,
                vocabulary,
            } => write!(
                f,
                "node {node}: query id {key} is outside the vocabulary of {vocabulary}"
            ),
            TrieRowError::OutOfOrder { node } => write!(
                f,
                "node {node} is not strictly after its predecessor by (parent, key)"
            ),
            TrieRowError::CountOverflow { node } => {
                write!(f, "continuation total of node {node} overflows u64")
            }
            TrieRowError::TooManyRows => write!(f, "more trie rows than u32 node ids"),
        }
    }
}

impl std::error::Error for TrieRowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;

    fn build(sessions: &[(&[u32], u64)], depth_limit: usize) -> TrieBuilder {
        let mut b = TrieBuilder::new();
        for (s, f) in sessions {
            let ids = seq(s);
            b.count_session(&ids, *f, depth_limit, 0..u32::MAX);
        }
        b
    }

    #[test]
    fn counts_windows_at_all_positions() {
        // Session [0,1,0]: windows [0]×2, [1], [0,1], [1,0], [0,1,0].
        let t = build(&[(&[0, 1, 0], 1)], 3).freeze(3);
        assert_eq!(t.total(t.window(&seq(&[0])).unwrap()), 2);
        assert_eq!(t.total(t.window(&seq(&[1])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[0, 1])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[1, 0])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[0, 1, 0])).unwrap()), 1);
        assert!(t.window(&seq(&[1, 1])).is_none());
    }

    #[test]
    fn at_start_only_for_prefix_windows() {
        let t = build(&[(&[0, 1, 0], 5)], 3).freeze(3);
        assert_eq!(t.at_start(t.window(&seq(&[0])).unwrap()), 5);
        assert_eq!(t.at_start(t.window(&seq(&[0, 1])).unwrap()), 5);
        assert_eq!(t.at_start(t.window(&seq(&[1, 0])).unwrap()), 0);
    }

    #[test]
    fn continuations_are_child_totals() {
        let t = build(&[(&[0, 1], 3), (&[0, 0], 2)], 2).freeze(2);
        let n0 = t.window(&seq(&[0])).unwrap();
        let (keys, counts) = t.continuations(n0);
        assert_eq!(keys, &[QueryId(0), QueryId(1)]);
        assert_eq!(counts, &[2, 3]);
        assert_eq!(t.cont_total(n0), 5);
    }

    #[test]
    fn depth_limit_truncates() {
        let t = build(&[(&[0, 1, 2, 3], 1)], 2).freeze(1);
        // Depth-2 nodes exist as continuation evidence…
        assert!(t.find(&seq(&[0, 1])).is_some());
        // …but are not windows.
        assert!(t.window(&seq(&[0, 1])).is_none());
        // Depth 3 was never counted.
        assert!(t.find(&seq(&[0, 1, 2])).is_none());
    }

    #[test]
    fn canonical_layout_ignores_insertion_order() {
        // Different insertion orders must freeze identically.
        let fwd = build(&[(&[3, 1], 1), (&[0, 2], 1)], 2).freeze(2);
        let rev = build(&[(&[0, 2], 1), (&[3, 1], 1)], 2).freeze(2);
        assert_eq!(fwd, rev);
        // BFS ids ascend by (depth, path).
        let mut last_depth = 0;
        for n in 0..fwd.len() as u32 {
            assert!(fwd.depth(n) >= last_depth);
            last_depth = fwd.depth(n);
        }
    }

    #[test]
    fn path_reconstruction() {
        let t = build(&[(&[4, 2, 9], 1)], 3).freeze(3);
        let n = t.window(&seq(&[4, 2, 9])).unwrap();
        let mut out = Vec::new();
        t.path(n, &mut out);
        assert_eq!(out, seq(&[4, 2, 9]).to_vec());
    }

    #[test]
    fn window_nodes_in_length_then_lex_order() {
        let t = build(&[(&[1, 0], 1), (&[0, 1], 1)], 2).freeze(2);
        let mut buf = Vec::new();
        let windows: Vec<Vec<QueryId>> = t
            .window_nodes()
            .map(|n| {
                t.path(n, &mut buf);
                buf.clone()
            })
            .collect();
        let expect: Vec<Vec<QueryId>> = [&[0u32][..], &[1], &[0, 1], &[1, 0]]
            .iter()
            .map(|s| seq(s).to_vec())
            .collect();
        assert_eq!(windows, expect);
    }

    #[test]
    fn parts_roundtrip() {
        let t = build(&[(&[0, 1, 0], 2), (&[1, 1], 5)], 3).freeze(2);
        let back = SuffixTrie::from_parts(2, 2, t.parts()).unwrap();
        assert_eq!(t, back);
        // The root alone flattens to no rows and loads back.
        let empty = SuffixTrie::from_parts(0, 0, std::iter::empty()).unwrap();
        assert_eq!(empty, SuffixTrie::empty());
    }

    #[test]
    fn random_tries_roundtrip_through_their_rows() {
        use crate::rng::{Rng, StdRng};
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x7e1e + case);
            let vocabulary = rng.random_range(1u32..9);
            let depth_limit = rng.random_range(1usize..6);
            let mut builder = TrieBuilder::new();
            for _ in 0..rng.random_range(0usize..40) {
                let session: Vec<QueryId> = (0..rng.random_range(1usize..8))
                    .map(|_| QueryId(rng.random_range(0u32..vocabulary)))
                    .collect();
                builder.count_session(
                    &session,
                    rng.random_range(1u64..50),
                    depth_limit,
                    0..u32::MAX,
                );
            }
            let window_len = depth_limit as u32 - 1;
            let frozen = builder.freeze(window_len);
            let loaded =
                SuffixTrie::from_parts(window_len, vocabulary as usize, frozen.parts()).unwrap();
            assert_eq!(loaded, frozen, "case {case}");
            assert_eq!(loaded.window_count(), frozen.window_count(), "case {case}");
        }
    }

    #[test]
    fn parts_counted_by_first_query_join_into_the_whole_count() {
        use crate::rng::{Rng, StdRng};
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x5e17 + case);
            let vocabulary = rng.random_range(1u32..12);
            let depth_limit = rng.random_range(1usize..6);
            let sessions: Vec<(Vec<QueryId>, u64)> = (0..rng.random_range(0usize..40))
                .map(|_| {
                    let s = (0..rng.random_range(1usize..8))
                        .map(|_| QueryId(rng.random_range(0u32..vocabulary)))
                        .collect();
                    (s, rng.random_range(1u64..50))
                })
                .collect();
            let count = |first: Range<u32>| {
                let mut builder = TrieBuilder::new();
                for (s, f) in &sessions {
                    builder.count_session(s, *f, depth_limit, first.clone());
                }
                builder.freeze(depth_limit as u32 - 1)
            };
            let whole = count(0..u32::MAX);
            // Random ascending cut points, empty ranges included.
            let mut cuts: Vec<u32> = (0..rng.random_range(0usize..5))
                .map(|_| rng.random_range(0..=vocabulary))
                .collect();
            cuts.sort_unstable();
            let bounds: Vec<u32> = [0].into_iter().chain(cuts).chain([vocabulary]).collect();
            let parts: Vec<SuffixTrie> = bounds.windows(2).map(|b| count(b[0]..b[1])).collect();
            assert_eq!(SuffixTrie::join(&parts), whole, "case {case}: {bounds:?}");
        }
    }

    /// A valid flattening to corrupt: root → {0, 1}, 0 → {0, 1}, 1 → {0}.
    fn valid_rows() -> Vec<(u32, u32, u64, u64)> {
        let t = build(&[(&[0, 1], 2), (&[0, 0], 1), (&[1, 0], 4)], 2).freeze(1);
        let rows: Vec<_> = t.parts().collect();
        assert_eq!(
            rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
        );
        rows
    }

    fn load(rows: &[(u32, u32, u64, u64)]) -> Result<SuffixTrie, TrieRowError> {
        SuffixTrie::from_parts(1, 2, rows.iter().copied())
    }

    #[test]
    fn from_parts_rejects_rows_that_are_not_canonical() {
        let valid = valid_rows();
        assert!(load(&valid).is_ok());

        // Duplicate edge: (1, 0) twice.
        let mut rows = valid.clone();
        rows[3] = rows[2];
        assert_eq!(load(&rows), Err(TrieRowError::OutOfOrder { node: 4 }));

        // Keys descending within a parent.
        let mut rows = valid.clone();
        rows.swap(2, 3);
        assert_eq!(load(&rows), Err(TrieRowError::OutOfOrder { node: 4 }));

        // Parent going backwards: node 2's child listed before node 1's.
        let mut rows = valid.clone();
        rows.swap(3, 4);
        assert_eq!(load(&rows), Err(TrieRowError::OutOfOrder { node: 5 }));

        // Forward parent, self parent, and a parent past the end.
        for parent in [4, 3, 5, u32::MAX] {
            let mut rows = valid.clone();
            rows[2].0 = parent;
            assert_eq!(
                load(&rows),
                Err(TrieRowError::ForwardParent { node: 3, parent })
            );
        }
        assert!(SuffixTrie::from_parts(1, 2, [(5, 0, 1, 1)].into_iter()).is_err());

        // A key the two-query interner never issued, at the first id past
        // it and at the largest one.
        for key in [2, u32::MAX] {
            let mut rows = valid.clone();
            rows[4].1 = key;
            assert_eq!(
                load(&rows),
                Err(TrieRowError::KeyOutOfVocabulary {
                    node: 5,
                    key,
                    vocabulary: 2
                })
            );
        }

        // Children whose totals overflow their parent's continuation sum.
        let mut rows = valid;
        rows[0].2 = u64::MAX;
        assert_eq!(load(&rows), Err(TrieRowError::CountOverflow { node: 0 }));
    }

    #[test]
    fn empty_trie() {
        let t = SuffixTrie::empty();
        assert!(t.is_empty());
        assert_eq!(t.window_count(), 0);
        assert!(t.window(&seq(&[0])).is_none());
        assert_eq!(t.window_nodes().count(), 0);
    }
}
