//! The ranked pair table both pair-wise baselines are: per query, the
//! queries counted with it, best first. Adjacency and Co-occurrence differ
//! only in which pairs they count; they look up, rank, cover, size and
//! persist alike, here.

use crate::persist::{expect_consumed, get_query};
use sqp_common::bytes::{Bytes, BytesMut};
use sqp_common::mem::HASH_ENTRY_OVERHEAD;
use sqp_common::topk::Scored;
use sqp_common::{Counter, FxHashMap, QueryId};

/// `q → ranked (query, weighted count)` rows; a context is looked up by its
/// last query.
pub(crate) struct PairTable {
    /// Each row sorted by descending count, ties by ascending id.
    rows: FxHashMap<QueryId, Box<[(QueryId, u64)]>>,
}

impl PairTable {
    /// Rank counted pairs: `counts[q]` counts the queries paired with `q`.
    pub(crate) fn rank(counts: FxHashMap<QueryId, Counter<QueryId>>) -> Self {
        let rows = counts
            .into_iter()
            .map(|(q, c)| (q, c.sorted_desc().into_boxed_slice()))
            .collect();
        PairTable { rows }
    }

    /// The ranked row of `q` (empty when unknown).
    pub(crate) fn row(&self, q: QueryId) -> &[(QueryId, u64)] {
        self.rows.get(&q).map_or(&[], |row| row)
    }

    /// The row of the context's last query (empty for an empty context).
    fn last_row(&self, context: &[QueryId]) -> &[(QueryId, u64)] {
        context.last().map_or(&[], |&q| self.row(q))
    }

    /// The first `k` entries of the context's row, scored by their counts,
    /// into `out` (cleared first).
    pub(crate) fn recommend_into(&self, context: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        out.clear();
        let row = self.last_row(context).iter().take(k);
        out.extend(row.map(|&(q, c)| Scored::new(q, c as f64)));
    }

    /// Whether the context's row holds anything.
    pub(crate) fn covers(&self, context: &[QueryId]) -> bool {
        !self.last_row(context).is_empty()
    }

    /// Owned heap bytes: every map entry and every row.
    pub(crate) fn heap_bytes(&self) -> usize {
        let shallow = self.rows.len()
            * (std::mem::size_of::<QueryId>()
                + std::mem::size_of::<Box<[(QueryId, u64)]>>()
                + HASH_ENTRY_OVERHEAD);
        let deep: usize = self
            .rows
            .values()
            .map(|row| row.len() * std::mem::size_of::<(QueryId, u64)>())
            .sum();
        shallow + deep
    }

    /// The tag-2 / tag-3 payload: `n_rows: u32`, then per source query,
    /// ascending, `source: u32`, `n: u32` and its `n` ranked
    /// `(query: u32, count: u64)` entries in their stored order (the ranking
    /// is model behaviour and survives the round trip).
    pub(crate) fn put(&self, buf: &mut BytesMut) {
        let entries: usize = self.rows.values().map(|row| row.len()).sum();
        buf.reserve(8 + self.rows.len() * 8 + entries * 12);
        let mut sources: Vec<QueryId> = self.rows.keys().copied().collect();
        sources.sort_unstable();
        buf.put_u32_le(sources.len() as u32);
        for q in sources {
            let row = self.row(q);
            buf.put_u32_le(q.0);
            buf.put_u32_le(row.len() as u32);
            for &(q, c) in row {
                buf.put_u32_le(q.0);
                buf.put_u64_le(c);
            }
        }
    }

    /// Read exactly one [`PairTable::put`] payload whose ids index a
    /// `vocabulary` of queries.
    pub(crate) fn from_bytes(mut data: Bytes, vocabulary: usize) -> Result<Self, String> {
        if data.remaining() < 4 {
            return Err("truncated list-table header".into());
        }
        let n = data.get_u32_le() as usize;
        if data.remaining() < n * 8 {
            return Err("truncated list table".into());
        }
        let mut rows = FxHashMap::default();
        rows.reserve(n);
        for _ in 0..n {
            if data.remaining() < 8 {
                return Err("truncated list header".into());
            }
            let q = get_query(&mut data, vocabulary)?;
            let len = data.get_u32_le() as usize;
            if data.remaining() < len * 12 {
                return Err("truncated count list".into());
            }
            let mut row = Vec::with_capacity(len);
            for _ in 0..len {
                row.push((get_query(&mut data, vocabulary)?, data.get_u64_le()));
            }
            if rows.insert(q, row.into_boxed_slice()).is_some() {
                return Err(format!("duplicate list for query {}", q.0));
            }
        }
        expect_consumed(&data)?;
        Ok(PairTable { rows })
    }
}
