//! Arena-backed suffix trie — the training/serving counting core.
//!
//! The naive way to count the windows of a session corpus is a hashmap keyed
//! by owned `Box<[QueryId]>` sequences: every one of the O(L²) windows of a
//! length-L session is allocated, hashed in full, and probed. At web-log
//! scale that is the dominant training cost. This module counts into one
//! flat, immutable trie instead:
//!
//! * **counting** goes level by level over one flat buffer of every
//!   session's ids ([`FlatSessions`]). A window is named by its start
//!   position, so extending it by a query is reading the next id: no
//!   allocation and no hashing. Depth 1 is the start positions — every
//!   position, or each session's first for a prefix trie ([`Starts`]) —
//!   counting-sorted by their query. The windows that extend one depth-d
//!   node are sorted by their next query, and each run of equal next query
//!   is one child. A level is emitted parent by parent in id order and each
//!   parent's children in key order, so nodes are born in (depth, path)
//!   order — which *is* the canonical layout below. [`SuffixTrie::count`]
//!   therefore writes the frozen columns directly: there is no builder, no
//!   edge table and no re-numbering pass;
//! * **the frozen layout** is breadth-first and columnar: one entry per
//!   node in each column. Four columns are what was counted — parent, the
//!   key of the edge into the node, total and at-start count — and one
//!   merge over the ascending parent column derives the rest for a count, a
//!   join and a load alike: `first_child` and `cont_total` (the sum of the
//!   child totals). A node's children are the contiguous id run from its
//!   `first_child` to the next node's, ascending by key, so the columns
//!   sliced over that run *are* its child edges: lookups on the serve path
//!   are allocation-free binary searches (O(log fan-out) per edge), and the
//!   layout depends only on the counts, never on the order of the sessions;
//! * **depth** is not stored per node: ids ascend by depth, so a level
//!   table of each depth's first id answers it. The same order makes a
//!   count to depth d the first nodes of any deeper count, so one trie
//!   serves every model bounded at or below its window length: a model
//!   reads the windows up to its own bound ([`SuffixTrie::window_ids`]);
//! * **ranking** orders each run best first (total descending, key
//!   ascending) once, in the trie, for every model that reads it: the
//!   counting thread that writes a run ranks it, and a load ranks every run;
//! * **joining** the counts of disjoint ranges of first queries is a
//!   relabelling, because each range is a contiguous block of every depth;
//! * **loading** needs no builder either: a file holds the four counted
//!   columns verbatim, and [`SuffixTrie::from_columns`] rejects any that
//!   are not canonical, then derives the rest in the merge a count ends
//!   with, ranking each run as it closes it.
//!
//! Node payloads are the window statistics of the paper's Eq. (6): total
//! weighted occurrences and occurrences at a session start. Continuation
//! (next-query) distributions need no storage at all — the continuations of
//! window `w` are exactly the children of `w`'s node, because every
//! occurrence of `w` followed by `q` is an occurrence of the window `w·q`.

use crate::threads::map_on_threads;
use crate::QueryId;
use std::cmp::Reverse;
use std::ops::Range;

/// Weighted sessions copied into one flat buffer of ids — what
/// [`SuffixTrie::count`] reads, shared by every part of a split count.
#[derive(Clone, Debug, Default)]
pub struct FlatSessions {
    ids: Vec<QueryId>,
    sessions: Vec<Session>,
    /// One past the largest id.
    vocabulary: usize,
}

/// Where one session of a [`FlatSessions`] lies, and its weight.
#[derive(Clone, Copy, Debug)]
struct Session {
    start: u32,
    end: u32,
    weight: u64,
}

impl FlatSessions {
    /// Copy `(session, weight)` pairs into one buffer, in order.
    ///
    /// # Panics
    ///
    /// When the sessions hold more than `u32::MAX` queries in all: a
    /// window is named by a `u32` position.
    pub fn new<'a>(sessions: impl IntoIterator<Item = (&'a [QueryId], u64)>) -> Self {
        let mut flat = FlatSessions::default();
        for (session, weight) in sessions {
            let start = flat.ids.len() as u32;
            flat.ids.extend_from_slice(session);
            let end = u32::try_from(flat.ids.len()).expect("more than u32::MAX queries");
            flat.sessions.push(Session { start, end, weight });
        }
        flat.vocabulary = flat.ids.iter().map(|q| q.index() + 1).max().unwrap_or(0);
        flat
    }

    /// Every session's ids, session after session.
    pub fn ids(&self) -> &[QueryId] {
        &self.ids
    }

    /// Length of the longest session.
    pub fn longest(&self) -> usize {
        self.sessions
            .iter()
            .map(|s| (s.end - s.start) as usize)
            .max()
            .unwrap_or(0)
    }
}

/// One window being counted: where it starts and where its session ends,
/// whether it starts the session, the session's weight, and the query it
/// is sorted by at the current level. Carrying the session's facts costs
/// less than looking them up at every level.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    key: u32,
    pos: u32,
    end: u32,
    first: bool,
    weight: u64,
}

/// Where the windows a count reads begin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Starts {
    /// At every session position: the window trie.
    Anywhere,
    /// At each session's first query only: the prefix trie, in which every
    /// node's total is its at-start count.
    SessionStart,
}

/// Immutable arena suffix trie in canonical breadth-first layout.
///
/// Node `0` is the root (the empty window). Every column is indexed by
/// node id, and each node's children are one contiguous id run sorted by
/// `QueryId`, so a path lookup is a cascade of binary searches with no
/// allocation and no hashing. Ids ascend by depth, so each depth is one id
/// run as well, and the nodes of a count to depth d are the first nodes of
/// any deeper count of the same sessions: one trie serves every model
/// bounded at or below its own window length ([`SuffixTrie::window_ids`]).
/// Four columns are what was counted and what a file stores
/// ([`SuffixTrie::columns`]); `finish` derives the rest.
#[derive(Clone, Debug, PartialEq)]
pub struct SuffixTrie {
    /// Each node's parent (the root's is the root itself); ascending.
    parents: Vec<u32>,
    /// The query on the edge into each node (the root's is unused).
    keys: Vec<QueryId>,
    /// Each node's weighted occurrences.
    totals: Vec<u64>,
    /// Each node's weighted occurrences at a session start.
    at_start: Vec<u64>,
    /// Per run of siblings, their offsets in the run, best first: total
    /// descending, ties by ascending key (the root's slot is unused).
    rank: Vec<u32>,
    /// Each node's child totals summed: occurrences with a continuation.
    cont_totals: Vec<u64>,
    /// A node's children are ids `first_child ..` the next node's (a
    /// childless node's empty run starts where the next child would).
    first_child: Vec<u32>,
    /// The first id of each depth, the root's 0 first, then `len()`.
    levels: Vec<u32>,
    window_len: u32,
}

impl SuffixTrie {
    /// An empty trie (root only).
    pub fn empty() -> Self {
        Self::count(&FlatSessions::default(), 0, &[], Starts::Anywhere)
    }

    /// The root node id.
    pub const ROOT: u32 = 0;

    /// Count the windows of `sessions` that begin where `starts` says and
    /// whose first query's id lies in one of `ranges`, weighted by their
    /// session's weight: every window of up to `window_len` queries, and
    /// the level below as their continuations. Windows starting at a
    /// session's first query also count as session-start occurrences.
    /// `[0..u32::MAX]` counts every window.
    ///
    /// Each range is counted on a thread of its own, which also ranks every
    /// run of children it writes. Disjoint ranges count disjoint subtrees
    /// of the root. Canonical ids ascend by (depth, path) and a path starts
    /// with its first query, so at every depth range p's nodes come before
    /// range p + 1's, and each range's depth-d block keeps its own order.
    /// Joining the parts is therefore a relabelling: a block moves by one
    /// offset and a parent by the offset of its depth's block, and only the
    /// root's run, which every part adds to, is ranked again. Nothing is
    /// merged or re-inserted.
    ///
    /// # Panics
    ///
    /// When `ranges` are not ascending and disjoint.
    pub fn count(
        sessions: &FlatSessions,
        window_len: u32,
        ranges: &[Range<u32>],
        starts: Starts,
    ) -> SuffixTrie {
        assert!(
            ranges.windows(2).all(|r| r[0].end <= r[1].start),
            "parts hold ascending first queries"
        );
        let parts = map_on_threads(ranges, |first| {
            count_part(sessions, window_len, first.clone(), starts)
        });
        join(parts, window_len).expect("counted totals fit a u64")
    }

    /// Rebuild a trie from its four stored columns ([`SuffixTrie::columns`]),
    /// the root's entries first and not read. The columns may come from
    /// disk, with keys that index an interner of `vocabulary` queries, so
    /// each rule a [`TrieRowError`] names is checked: valid columns are the
    /// frozen layout itself and yield exactly the trie they were taken
    /// from. Every run is ranked here, from its totals.
    ///
    /// # Panics
    ///
    /// When the columns differ in length or have no root entry.
    pub fn from_columns(
        window_len: u32,
        vocabulary: usize,
        parents: Vec<u32>,
        keys: Vec<QueryId>,
        totals: Vec<u64>,
        at_start: Vec<u64>,
    ) -> Result<SuffixTrie, TrieRowError> {
        let n = parents.len();
        assert!(
            n > 0 && keys.len() == n && totals.len() == n && at_start.len() == n,
            "four columns of one length, the root's entry first"
        );
        if u32::try_from(n).is_err() {
            return Err(TrieRowError::TooManyRows);
        }
        for i in 1..n {
            let (parent, key, node) = (parents[i], keys[i], i as u32);
            if parent >= node {
                return Err(TrieRowError::ForwardParent { node, parent });
            }
            if key.index() >= vocabulary {
                return Err(TrieRowError::KeyOutOfVocabulary {
                    node,
                    key: key.0,
                    vocabulary,
                });
            }
            if i > 1 && (parents[i - 1], keys[i - 1]) >= (parent, key) {
                return Err(TrieRowError::OutOfOrder { node });
            }
        }
        let trie = SuffixTrie {
            parents,
            keys,
            totals,
            at_start,
            rank: vec![0; n],
            cont_totals: Vec::new(),
            first_child: Vec::new(),
            levels: Vec::new(),
            window_len,
        }
        .finish(true)?;
        // The level table ends with the deepest depth's first id, then
        // `len()`; the level below the deepest window is the last counted.
        let too_deep = window_len as usize + 2;
        if too_deep + 1 < trie.levels.len() {
            let node = trie.levels[too_deep];
            return Err(TrieRowError::TooDeep { node, window_len });
        }
        Ok(trie)
    }

    /// The four stored columns by node id, the root's entries first: parent,
    /// key, total, at-start count — what [`SuffixTrie::from_columns`] takes.
    pub fn columns(&self) -> (&[u32], &[QueryId], &[u64], &[u64]) {
        (&self.parents, &self.keys, &self.totals, &self.at_start)
    }

    /// The root alone, with room for `n` nodes.
    fn with_capacity(n: usize, window_len: u32) -> SuffixTrie {
        let mut trie = SuffixTrie {
            parents: Vec::with_capacity(n),
            keys: Vec::with_capacity(n),
            totals: Vec::with_capacity(n),
            at_start: Vec::with_capacity(n),
            rank: Vec::with_capacity(n),
            cont_totals: Vec::new(),
            first_child: Vec::new(),
            levels: Vec::new(),
            window_len,
        };
        trie.push(SuffixTrie::ROOT, QueryId(0), 0, 0);
        trie
    }

    /// Append a counted node; the derived columns are filled by `finish`.
    fn push(&mut self, parent: u32, key: QueryId, total: u64, at_start: u64) {
        self.parents.push(parent);
        self.keys.push(key);
        self.totals.push(total);
        self.at_start.push(at_start);
        self.rank.push(0);
    }

    /// Derive what the stored columns determine, and hold every column at
    /// its length. Parents ascend, so one merge over them reads each node's
    /// run of children: its start is `first_child`, its total sum
    /// `cont_total`, and a load (`rank_runs`) ranks it there. A depth's
    /// first node has the next depth's first id as its first child, which
    /// fills the level table.
    fn finish(mut self, rank_runs: bool) -> Result<SuffixTrie, TrieRowError> {
        let n = self.parents.len();
        self.first_child = Vec::with_capacity(n);
        self.cont_totals = Vec::with_capacity(n);
        let mut child = 1;
        for id in 0..n {
            let first = child;
            let mut sum = 0u64;
            while child < n && self.parents[child] as usize == id {
                sum = sum
                    .checked_add(self.totals[child])
                    .ok_or(TrieRowError::CountOverflow { node: id as u32 })?;
                child += 1;
            }
            if rank_runs {
                rank_run(&self.totals[first..child], &mut self.rank[first..child]);
            }
            self.first_child.push(first as u32);
            self.cont_totals.push(sum);
        }
        self.levels = vec![0];
        let mut first = 0;
        while (first as usize) < n {
            first = self.first_child[first as usize];
            self.levels.push(first);
        }
        self.parents.shrink_to_fit();
        self.keys.shrink_to_fit();
        self.totals.shrink_to_fit();
        self.at_start.shrink_to_fit();
        self.rank.shrink_to_fit();
        self.levels.shrink_to_fit();
        Ok(self)
    }

    /// Ids of the node's children.
    #[inline]
    fn run(&self, node: u32) -> Range<usize> {
        let node = node as usize;
        let lo = self.first_child[node] as usize;
        // The last node is childless.
        let hi = self
            .first_child
            .get(node + 1)
            .map_or(lo, |&next| next as usize);
        lo..hi
    }

    /// Ids of the depth-`depth` nodes (empty past the deepest level).
    fn level(&self, depth: usize) -> Range<usize> {
        let last = self.levels.len() - 1;
        self.levels[depth.min(last)] as usize..self.levels[(depth + 1).min(last)] as usize
    }

    /// Number of nodes including the root and continuation-only nodes.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.parents.len() <= 1
    }

    /// Deepest depth that counts as a window.
    pub fn window_len(&self) -> usize {
        self.window_len as usize
    }

    /// Ids of the windows of at most `max_len` queries (`None`: every
    /// window) and at most [`SuffixTrie::window_len`], in canonical
    /// `(depth, path)` order: ids ascend by depth, so they are one run from
    /// id 1. This is what a model bounded at `max_len` reads of a trie
    /// counted deeper.
    pub fn window_ids(&self, max_len: Option<usize>) -> Range<u32> {
        let depth = max_len.map_or(self.window_len(), |d| d.min(self.window_len()));
        1..self.level(depth + 1).start as u32
    }

    /// Number of nodes that are windows (depth ≤ [`SuffixTrie::window_len`],
    /// excluding the root).
    pub fn window_count(&self) -> usize {
        self.window_ids(None).len()
    }

    /// Child of `node` along `q`.
    #[inline]
    pub fn child(&self, node: u32, q: QueryId) -> Option<u32> {
        let run = self.run(node);
        let first = run.start as u32;
        self.keys[run]
            .binary_search(&q)
            .ok()
            .map(|i| first + i as u32)
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
        self.totals[node as usize]
    }

    /// Weighted occurrences at a session start.
    #[inline]
    pub fn at_start(&self, node: u32) -> u64 {
        self.at_start[node as usize]
    }

    /// Weighted occurrences followed by some query (continuation support).
    #[inline]
    pub fn cont_total(&self, node: u32) -> u64 {
        self.cont_totals[node as usize]
    }

    /// Depth of the node (root = 0), from the level table.
    pub fn depth(&self, node: u32) -> usize {
        self.levels.partition_point(|&first| first <= node) - 1
    }

    /// Parent id (the root's parent is the root itself).
    #[inline]
    pub fn parent(&self, node: u32) -> u32 {
        self.parents[node as usize]
    }

    /// Edge label leading into the node (meaningless for the root).
    #[inline]
    pub fn key(&self, node: u32) -> QueryId {
        self.keys[node as usize]
    }

    /// Continuation distribution of the node's window as parallel id-sorted
    /// slices `(queries, weighted counts)` — the merged-walk input for KL
    /// tests and distribution building. The key and total columns over the
    /// node's child run: no allocation, no copy.
    #[inline]
    pub fn continuations(&self, node: u32) -> (&[QueryId], &[u64]) {
        let run = self.run(node);
        (&self.keys[run.clone()], &self.totals[run])
    }

    /// The node's continuations best first, as offsets into the slices of
    /// [`SuffixTrie::continuations`]: total descending, ties by ascending
    /// query id.
    #[inline]
    pub fn rank(&self, node: u32) -> &[u32] {
        &self.rank[self.run(node)]
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

    /// Owned heap bytes.
    pub fn heap_bytes(&self) -> usize {
        let u32s = self.parents.capacity()
            + self.rank.capacity()
            + self.first_child.capacity()
            + self.levels.capacity();
        let u64s = self.totals.capacity() + self.at_start.capacity() + self.cont_totals.capacity();
        u32s * 4 + u64s * 8 + self.keys.capacity() * std::mem::size_of::<QueryId>()
    }
}

/// Write into `rank` the offsets `0..totals.len()` of one run of siblings,
/// best first: total descending, ties by ascending offset — which is
/// ascending key, the order the run is stored in. The sort is stable, so
/// ties keep that order.
fn rank_run(totals: &[u64], rank: &mut [u32]) {
    for (offset, slot) in rank.iter_mut().enumerate() {
        *slot = offset as u32;
    }
    rank.sort_by_key(|&i| Reverse(totals[i as usize]));
}

/// The nodes of [`SuffixTrie::count`] for the windows starting in `first`,
/// in canonical order with every run ranked and the level table filled;
/// the other derived columns are left to the join. This is the level loop
/// the module docs describe.
fn count_part(
    sessions: &FlatSessions,
    window_len: u32,
    first: Range<u32>,
    starts: Starts,
) -> SuffixTrie {
    let ids = &sessions.ids;
    let depth_limit = window_len.saturating_add(1);
    // Depth 1: the start positions whose query lies in `first`,
    // counting-sorted by it.
    let seeds = |span: &Session| match starts {
        Starts::Anywhere => span.start..span.end,
        Starts::SessionStart => span.start..span.end.min(span.start + 1),
    };
    let lo = first.start as usize;
    let hi = (first.end as usize).min(sessions.vocabulary).max(lo);
    let mut slot = vec![0u32; hi - lo + 1];
    for span in &sessions.sessions {
        for pos in seeds(span) {
            let q = ids[pos as usize].index();
            if (lo..hi).contains(&q) {
                slot[q - lo + 1] += 1;
            }
        }
    }
    for i in 1..slot.len() {
        slot[i] += slot[i - 1];
    }
    let mut level = vec![Window::default(); slot[hi - lo] as usize];
    for span in &sessions.sessions {
        for pos in seeds(span) {
            let q = ids[pos as usize].index();
            if (lo..hi).contains(&q) {
                level[slot[q - lo] as usize] = Window {
                    key: q as u32,
                    pos,
                    end: span.end,
                    first: pos == span.start,
                    weight: span.weight,
                };
                slot[q - lo] += 1;
            }
        }
    }

    // `groups`: `(parent, end)` of each run of `level` sharing a parent,
    // in parent order, each sorted by key.
    let mut groups = vec![(SuffixTrie::ROOT, level.len() as u32)];
    let mut trie = SuffixTrie::with_capacity(1, window_len);
    trie.levels.push(0);
    let (mut next, mut next_groups) = (Vec::with_capacity(level.len()), Vec::new());
    let mut depth = 1;
    while !level.is_empty() {
        trie.levels.push(trie.len() as u32);
        // Below the deepest level nothing extends.
        let deeper = depth < depth_limit;
        let mut begin = 0;
        for &(parent, end) in &groups {
            let first_child = trie.len();
            for run in level[begin..end as usize].chunk_by(|a, b| a.key == b.key) {
                let id = trie.len() as u32;
                let from = next.len();
                let (mut total, mut at_start) = (0, 0);
                for w in run {
                    total += w.weight;
                    if w.first {
                        at_start += w.weight;
                    }
                    // A depth-d window ends at pos + d ≤ end.
                    let follow = w.pos + depth;
                    if deeper && follow < w.end {
                        next.push(Window {
                            key: ids[follow as usize].0,
                            ..*w
                        });
                    }
                }
                trie.push(parent, QueryId(run[0].key), total, at_start);
                if next.len() > from {
                    next[from..].sort_unstable_by_key(|w: &Window| w.key);
                    next_groups.push((id, next.len() as u32));
                }
            }
            rank_run(&trie.totals[first_child..], &mut trie.rank[first_child..]);
            begin = end as usize;
        }
        std::mem::swap(&mut level, &mut next);
        std::mem::swap(&mut groups, &mut next_groups);
        next.clear();
        next_groups.clear();
        depth += 1;
    }
    trie.levels.push(trie.len() as u32);
    trie
}

/// The trie of parts counted over ascending ranges of first queries (see
/// [`SuffixTrie::count`]), written in one pass over the parts' level
/// blocks.
fn join(mut parts: Vec<SuffixTrie>, window_len: u32) -> Result<SuffixTrie, TrieRowError> {
    if parts.len() <= 1 {
        return parts
            .pop()
            .unwrap_or_else(|| SuffixTrie::with_capacity(1, window_len))
            .finish(false);
    }
    let joined = parts.iter().map(|p| p.len() - 1).sum::<usize>() + 1;
    let mut trie = SuffixTrie::with_capacity(joined, window_len);
    // Every part's depth blocks in joined order. A parent moves where its
    // part's previous block moved: `moved[p]` is that block's shift.
    let mut moved = vec![0u32; parts.len()];
    let deepest = parts.iter().map(|p| p.levels.len() - 2).max();
    for depth in 1..=deepest.unwrap_or(0) {
        for (p, part) in parts.iter().enumerate() {
            let block = part.level(depth);
            let shift = moved[p];
            moved[p] = (trie.len() as u32).wrapping_sub(block.start as u32);
            trie.parents.extend(
                part.parents[block.clone()]
                    .iter()
                    .map(|parent| parent.wrapping_add(shift)),
            );
            trie.keys.extend_from_slice(&part.keys[block.clone()]);
            trie.totals.extend_from_slice(&part.totals[block.clone()]);
            trie.at_start
                .extend_from_slice(&part.at_start[block.clone()]);
            trie.rank.extend_from_slice(&part.rank[block]);
        }
    }
    let mut trie = trie.finish(false)?;
    let run = trie.run(SuffixTrie::ROOT);
    rank_run(&trie.totals[run.clone()], &mut trie.rank[run]);
    Ok(trie)
}

/// Why four columns are not the stored columns of any trie, as
/// [`SuffixTrie::from_columns`] reports it; `node` is the offending id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrieRowError {
    /// A node names a parent that does not come before it.
    ForwardParent {
        /// The offending node.
        node: u32,
        /// The parent it names.
        parent: u32,
    },
    /// A node's key is not an id of the trie's interner.
    KeyOutOfVocabulary {
        /// The offending node.
        node: u32,
        /// The key it carries.
        key: u32,
        /// How many queries the interner holds.
        vocabulary: usize,
    },
    /// A node does not sort strictly after the one before it by
    /// `(parent, key)`: a duplicate edge, keys descending within a parent,
    /// or a parent going backwards.
    OutOfOrder {
        /// The offending node.
        node: u32,
    },
    /// The totals of one node's children do not fit a `u64`.
    CountOverflow {
        /// The parent whose continuation total overflowed.
        node: u32,
    },
    /// A node lies deeper than `window_len + 1`, where a count stops.
    TooDeep {
        /// The first node too deep.
        node: u32,
        /// The trie's window length.
        window_len: u32,
    },
    /// More nodes than `u32` ids.
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
            TrieRowError::TooDeep { node, window_len } => {
                write!(f, "node {node} lies below depth {window_len} + 1")
            }
            TrieRowError::TooManyRows => write!(f, "more trie nodes than u32 ids"),
        }
    }
}

impl std::error::Error for TrieRowError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};
    use crate::{seq, QuerySeq};
    use std::collections::BTreeMap;

    /// The one range of a whole count.
    fn every_id() -> &'static [Range<u32>] {
        const EVERY_ID: Range<u32> = 0..u32::MAX;
        std::slice::from_ref(&EVERY_ID)
    }

    /// Every window of `sessions` of up to `window_len` queries, and the
    /// level below.
    fn count(sessions: &[(&[u32], u64)], window_len: u32) -> SuffixTrie {
        let owned: Vec<(QuerySeq, u64)> = sessions.iter().map(|(s, f)| (seq(s), *f)).collect();
        SuffixTrie::count(&flat(&owned), window_len, every_id(), Starts::Anywhere)
    }

    fn flat(sessions: &[(QuerySeq, u64)]) -> FlatSessions {
        FlatSessions::new(sessions.iter().map(|(s, f)| (&s[..], *f)))
    }

    #[test]
    fn counts_windows_at_all_positions() {
        // Session [0,1,0]: windows [0]×2, [1], [0,1], [1,0], [0,1,0].
        let t = count(&[(&[0, 1, 0], 1)], 3);
        assert_eq!(t.total(t.window(&seq(&[0])).unwrap()), 2);
        assert_eq!(t.total(t.window(&seq(&[1])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[0, 1])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[1, 0])).unwrap()), 1);
        assert_eq!(t.total(t.window(&seq(&[0, 1, 0])).unwrap()), 1);
        assert!(t.window(&seq(&[1, 1])).is_none());
    }

    #[test]
    fn at_start_only_for_prefix_windows() {
        let t = count(&[(&[0, 1, 0], 5)], 3);
        assert_eq!(t.at_start(t.window(&seq(&[0])).unwrap()), 5);
        assert_eq!(t.at_start(t.window(&seq(&[0, 1])).unwrap()), 5);
        assert_eq!(t.at_start(t.window(&seq(&[1, 0])).unwrap()), 0);
    }

    #[test]
    fn continuations_are_child_totals() {
        let t = count(&[(&[0, 1], 3), (&[0, 0], 2)], 2);
        let n0 = t.window(&seq(&[0])).unwrap();
        let (keys, counts) = t.continuations(n0);
        assert_eq!(keys, &[QueryId(0), QueryId(1)]);
        assert_eq!(counts, &[2, 3]);
        assert_eq!(t.cont_total(n0), 5);
    }

    #[test]
    fn depth_limit_truncates() {
        let t = count(&[(&[0, 1, 2, 3], 1)], 1);
        // Depth-2 nodes exist as continuation evidence…
        assert!(t.find(&seq(&[0, 1])).is_some());
        // …but are not windows.
        assert!(t.window(&seq(&[0, 1])).is_none());
        // Depth 3 was never counted.
        assert!(t.find(&seq(&[0, 1, 2])).is_none());
    }

    #[test]
    fn canonical_layout_ignores_insertion_order() {
        // Different session orders must count identically.
        let fwd = count(&[(&[3, 1], 1), (&[0, 2], 1)], 2);
        let rev = count(&[(&[0, 2], 1), (&[3, 1], 1)], 2);
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
        let t = count(&[(&[4, 2, 9], 1)], 3);
        let n = t.window(&seq(&[4, 2, 9])).unwrap();
        let mut out = Vec::new();
        t.path(n, &mut out);
        assert_eq!(out, seq(&[4, 2, 9]).to_vec());
    }

    #[test]
    fn window_nodes_in_length_then_lex_order() {
        let t = count(&[(&[1, 0], 1), (&[0, 1], 1)], 2);
        let mut buf = Vec::new();
        let windows: Vec<Vec<QueryId>> = t
            .window_ids(None)
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

    /// A row: parent, key, total and at-start count of one node.
    type Row = (u32, u32, u64, u64);

    /// The trie's stored columns as rows, the root's excluded.
    fn rows(trie: &SuffixTrie) -> Vec<Row> {
        let (parents, keys, totals, at_start) = trie.columns();
        (1..trie.len())
            .map(|i| (parents[i], keys[i].0, totals[i], at_start[i]))
            .collect()
    }

    /// [`SuffixTrie::from_columns`] of `rows`, after the root's entry.
    fn from_rows(
        window_len: u32,
        vocabulary: usize,
        rows: &[Row],
    ) -> Result<SuffixTrie, TrieRowError> {
        let all = || [(0, 0, 0, 0)].iter().chain(rows);
        SuffixTrie::from_columns(
            window_len,
            vocabulary,
            all().map(|r| r.0).collect(),
            all().map(|r| QueryId(r.1)).collect(),
            all().map(|r| r.2).collect(),
            all().map(|r| r.3).collect(),
        )
    }

    #[test]
    fn columns_roundtrip() {
        let t = count(&[(&[0, 1, 0], 2), (&[1, 1], 5)], 2);
        let (parents, keys, totals, at_start) = t.columns();
        let back = SuffixTrie::from_columns(
            2,
            2,
            parents.to_vec(),
            keys.to_vec(),
            totals.to_vec(),
            at_start.to_vec(),
        );
        assert_eq!(back, Ok(t));
        // The root alone has no rows and loads back.
        assert_eq!(from_rows(0, 0, &[]), Ok(SuffixTrie::empty()));
    }

    /// A seeded random corpus: ids below `vocabulary`, sessions of 1 to
    /// 7 queries with weights below 50.
    fn random_corpus(rng: &mut StdRng, vocabulary: u32) -> Vec<(QuerySeq, u64)> {
        (0..rng.random_range(0usize..40))
            .map(|_| {
                let s = (0..rng.random_range(1usize..8))
                    .map(|_| QueryId(rng.random_range(0u32..vocabulary)))
                    .collect();
                (s, rng.random_range(1u64..50))
            })
            .collect()
    }

    /// The four stored columns (parent, key, total, at-start count), then
    /// rank, continuation total and first child.
    const BYTES_PER_NODE: usize = (4 + 4 + 8 + 8) + (4 + 8 + 4);

    /// Every node's rank run lists its children as a reference sort does
    /// (total descending, key ascending), and the trie owns exactly its
    /// columns and its level table: one `u32` per depth from the root's,
    /// and one past the deepest.
    fn assert_ranked_and_sized(trie: &SuffixTrie, what: &str) {
        for node in 0..trie.len() as u32 {
            let (keys, totals) = trie.continuations(node);
            let mut expect: Vec<(QueryId, u64)> =
                keys.iter().copied().zip(totals.iter().copied()).collect();
            expect.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            let ranked: Vec<(QueryId, u64)> = trie
                .rank(node)
                .iter()
                .map(|&i| (keys[i as usize], totals[i as usize]))
                .collect();
            assert_eq!(ranked, expect, "{what}: node {node}");
        }
        let levels = trie.depth(trie.len() as u32 - 1) + 2;
        assert_eq!(
            trie.heap_bytes(),
            BYTES_PER_NODE * trie.len() + 4 * levels,
            "{what}"
        );
    }

    #[test]
    fn a_prefix_count_holds_the_session_start_windows() {
        for case in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(0x9e1f + case);
            let vocabulary = rng.random_range(1u32..9);
            let sessions = flat(&random_corpus(&mut rng, vocabulary));
            let windows = SuffixTrie::count(&sessions, u32::MAX, every_id(), Starts::Anywhere);
            let prefixes = SuffixTrie::count(&sessions, u32::MAX, every_id(), Starts::SessionStart);
            // A prefix is a window counted at a session start, and nothing
            // else: its nodes are the windows with at-start occurrences.
            let mut path = Vec::new();
            for node in 1..prefixes.len() as u32 {
                prefixes.path(node, &mut path);
                let window = windows.find(&path).unwrap();
                assert_eq!(prefixes.total(node), prefixes.at_start(node), "case {case}");
                assert_eq!(
                    prefixes.total(node),
                    windows.at_start(window),
                    "case {case}"
                );
            }
            let started = (1..windows.len() as u32).filter(|&n| windows.at_start(n) > 0);
            assert_eq!(started.count(), prefixes.len() - 1, "case {case}");
            assert_ranked_and_sized(&prefixes, &format!("prefix case {case}"));
        }
    }

    #[test]
    fn random_tries_roundtrip_through_their_rows() {
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x7e1e + case);
            let vocabulary = rng.random_range(1u32..9);
            let window_len = rng.random_range(0u32..5);
            let counted = SuffixTrie::count(
                &flat(&random_corpus(&mut rng, vocabulary)),
                window_len,
                every_id(),
                Starts::Anywhere,
            );
            let loaded = from_rows(window_len, vocabulary as usize, &rows(&counted)).unwrap();
            assert_eq!(loaded, counted, "case {case}");
            assert_eq!(loaded.window_count(), counted.window_count(), "case {case}");
            assert_ranked_and_sized(&counted, &format!("counted case {case}"));
            assert_ranked_and_sized(&loaded, &format!("loaded case {case}"));
        }
    }

    #[test]
    fn parts_counted_by_first_query_join_into_the_whole_count() {
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(0x5e17 + case);
            let vocabulary = rng.random_range(1u32..12);
            let window_len = rng.random_range(0u32..5);
            let sessions = flat(&random_corpus(&mut rng, vocabulary));
            let starts = [Starts::Anywhere, Starts::SessionStart][case as usize % 2];
            let whole = SuffixTrie::count(&sessions, window_len, every_id(), starts);
            // Random ascending cut points, empty ranges included.
            let mut cuts: Vec<u32> = (0..rng.random_range(0usize..5))
                .map(|_| rng.random_range(0..=vocabulary))
                .collect();
            cuts.sort_unstable();
            let bounds: Vec<u32> = [0].into_iter().chain(cuts).chain([vocabulary]).collect();
            let ranges: Vec<Range<u32>> = bounds.windows(2).map(|b| b[0]..b[1]).collect();
            let joined = SuffixTrie::count(&sessions, window_len, &ranges, starts);
            assert_eq!(joined, whole, "case {case}: {bounds:?}");
            assert_ranked_and_sized(&whole, &format!("whole case {case}"));
            assert_ranked_and_sized(&joined, &format!("joined case {case}: {bounds:?}"));
        }
    }

    /// The rows a trie of `sessions` must flatten to, from owned windows:
    /// a `BTreeMap` keyed by (length, path) is in canonical id order, so
    /// node ids are map positions + 1.
    fn reference_rows(sessions: &[(QuerySeq, u64)], window_len: u32) -> Vec<Row> {
        let deepest = window_len.saturating_add(1) as usize;
        let mut windows: BTreeMap<(usize, &[QueryId]), (u64, u64)> = BTreeMap::new();
        for (s, weight) in sessions {
            for start in 0..s.len() {
                for end in start + 1..=s.len().min(start.saturating_add(deepest)) {
                    let counts = windows.entry((end - start, &s[start..end])).or_default();
                    counts.0 += weight;
                    if start == 0 {
                        counts.1 += weight;
                    }
                }
            }
        }
        let ids: BTreeMap<(usize, &[QueryId]), u32> =
            windows.keys().zip(1..).map(|(&w, id)| (w, id)).collect();
        windows
            .iter()
            .map(|(&(len, path), &(total, at_start))| {
                let parent = if len == 1 {
                    0
                } else {
                    ids[&(len - 1, &path[..len - 1])]
                };
                (parent, path[len - 1].0, total, at_start)
            })
            .collect()
    }

    #[test]
    fn the_level_count_is_the_window_count() {
        for case in 0..240u64 {
            let mut rng = StdRng::seed_from_u64(0x1e7e1 + case);
            let vocabulary = rng.random_range(1u32..10);
            let mut sessions: Vec<(QuerySeq, u64)> = match case % 8 {
                // The empty corpus.
                0 => Vec::new(),
                // One query id, sessions of every length.
                1 => (1..12)
                    .map(|len| (vec![QueryId(vocabulary); len].into(), 1 << 40))
                    .collect(),
                _ => (0..rng.random_range(1usize..30))
                    .map(|_| {
                        // Single-query sessions, and ones longer than every
                        // bounded depth below.
                        let s = (0..rng.random_range(1usize..14))
                            .map(|_| QueryId(rng.random_range(0u32..vocabulary)))
                            .collect();
                        (s, rng.random_range(1u64..=1 << 40))
                    })
                    .collect(),
            };
            // Repeated sessions, each counted on its own.
            for i in 0..sessions.len() / 4 {
                sessions.push(sessions[i * 2].clone());
            }
            let counted_from = flat(&sessions);
            let unbounded =
                SuffixTrie::count(&counted_from, u32::MAX, every_id(), Starts::Anywhere);
            let unbounded_rows = rows(&unbounded);
            for window_len in [1, 2, 3, u32::MAX] {
                let counted =
                    SuffixTrie::count(&counted_from, window_len, every_id(), Starts::Anywhere);
                let rows = rows(&counted);
                // A bounded count is the first rows of the unbounded one,
                // and its windows are what a model bounded alike reads there.
                assert_eq!(
                    rows,
                    unbounded_rows[..rows.len()],
                    "case {case}, window length {window_len}"
                );
                assert_eq!(
                    unbounded.window_ids(Some(window_len as usize)),
                    counted.window_ids(None),
                    "case {case}, window length {window_len}"
                );
                assert_eq!(
                    rows,
                    reference_rows(&sessions, window_len),
                    "case {case}, window length {window_len}"
                );
                let windows = rows
                    .iter()
                    .filter(|r| counted.depth(r.0) < window_len as usize)
                    .count();
                assert_eq!(counted.window_count(), windows, "case {case}");
            }
        }
    }

    /// A valid flattening to corrupt: root → {0, 1}, 0 → {0, 1}, 1 → {0}.
    fn valid_rows() -> Vec<Row> {
        let t = count(&[(&[0, 1], 2), (&[0, 0], 1), (&[1, 0], 4)], 1);
        let rows = rows(&t);
        assert_eq!(
            rows.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
        );
        rows
    }

    fn load(rows: &[Row]) -> Result<SuffixTrie, TrieRowError> {
        from_rows(1, 2, rows)
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
        assert!(load(&[(5, 0, 1, 1)]).is_err());

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

        // A chain one level below the continuations of a window length of
        // 1: node 3 lies at depth 3.
        assert_eq!(
            load(&[(0, 0, 1, 1), (1, 1, 1, 1), (2, 0, 1, 1)]),
            Err(TrieRowError::TooDeep {
                node: 3,
                window_len: 1
            })
        );
    }

    #[test]
    fn empty_trie() {
        let t = SuffixTrie::empty();
        assert_eq!(t, count(&[], 0));
        assert!(t.is_empty());
        assert_eq!(t.window_count(), 0);
        assert!(t.window(&seq(&[0])).is_none());
        assert!(t.window_ids(None).is_empty());
    }
}
