//! Query-string interning.
//!
//! The paper's corpus has ~1.1B unique queries; ours is smaller but the same
//! principle applies: every query string is stored exactly once and all
//! downstream structures hold dense 4-byte [`QueryId`]s. The interner is the
//! single owner of query text — the lookup index holds only `QueryId`s
//! hashed through the string table, so each query costs its UTF-8 bytes plus
//! a few words of bookkeeping, not two copies of the text.

use crate::hash::fx_hash_one;
use crate::QueryId;

const EMPTY_SLOT: u32 = u32::MAX;

/// Bijective map between query strings and [`QueryId`]s.
///
/// Ids are assigned densely in first-seen order, so `resolve` is an O(1)
/// vector index and parallel arrays indexed by `QueryId::index()` are cheap.
/// The reverse index is an open-addressing table of ids probed by string
/// hash; strings themselves live only in the id-ordered table.
///
/// # Examples
///
/// ```
/// use sqp_common::Interner;
///
/// let mut interner = Interner::new();
/// let id = interner.intern("kidney stones");
/// assert_eq!(interner.intern("kidney stones"), id); // idempotent
/// assert_eq!(interner.resolve(id), "kidney stones");
/// assert_eq!(interner.get("unseen query"), None);   // lookup never interns
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug)]
pub struct Interner {
    strings: Vec<Box<str>>,
    /// Open-addressing slots holding ids (EMPTY_SLOT = vacant). Capacity is
    /// a power of two; load factor is kept under ~0.75.
    slots: Vec<u32>,
    /// Total bytes of interned string content.
    string_bytes: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Self::new()
    }
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self {
            strings: Vec::new(),
            slots: vec![EMPTY_SLOT; 16],
            string_bytes: 0,
        }
    }

    /// Create an interner sized for roughly `capacity` distinct queries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity * 2).next_power_of_two().max(16);
        Self {
            strings: Vec::with_capacity(capacity),
            slots: vec![EMPTY_SLOT; slots],
            string_bytes: 0,
        }
    }

    #[inline]
    fn probe_start(&self, query: &str) -> usize {
        fx_hash_one(&query.as_bytes()) as usize & (self.slots.len() - 1)
    }

    /// Slot index holding `query`'s id, or the vacant slot where it belongs.
    #[inline]
    fn find_slot(&self, query: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.probe_start(query);
        loop {
            let id = self.slots[i];
            if id == EMPTY_SLOT || self.strings[id as usize].as_ref() == query {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Re-probe every id into `new_len` slots (a power of two).
    fn resize_slots(&mut self, new_len: usize) {
        let mask = new_len - 1;
        let mut slots = vec![EMPTY_SLOT; new_len];
        for (id, s) in self.strings.iter().enumerate() {
            let mut i = fx_hash_one(&s.as_bytes()) as usize & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }

    /// Make room for `additional` more queries, so interning them grows
    /// nothing: the id table takes the size interning them would have
    /// doubled it to, in one re-probe.
    pub fn reserve(&mut self, additional: usize) {
        self.strings.reserve(additional);
        let wanted = self.strings.len() + additional;
        let mut slots = self.slots.len();
        while wanted * 4 >= slots * 3 {
            slots *= 2;
        }
        if slots > self.slots.len() {
            self.resize_slots(slots);
        }
    }

    /// Intern `query`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, query: &str) -> QueryId {
        let mut slot = self.find_slot(query);
        if self.slots[slot] != EMPTY_SLOT {
            return QueryId(self.slots[slot]);
        }
        if (self.strings.len() + 1) * 4 >= self.slots.len() * 3 {
            self.resize_slots(self.slots.len() * 2);
            // Growth moved every slot; the pre-grow probe is stale.
            slot = self.find_slot(query);
        }
        let id = u32::try_from(self.strings.len()).expect("more than u32::MAX queries");
        self.string_bytes += query.len();
        self.strings.push(query.into());
        self.slots[slot] = id;
        QueryId(id)
    }

    /// Look up an id without interning. Returns `None` for unseen queries.
    pub fn get(&self, query: &str) -> Option<QueryId> {
        let id = self.slots[self.find_slot(query)];
        (id != EMPTY_SLOT).then_some(QueryId(id))
    }

    /// Resolve an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: QueryId) -> &str {
        &self.strings[id.index()]
    }

    /// Resolve an id, returning `None` if out of range.
    pub fn try_resolve(&self, id: QueryId) -> Option<&str> {
        self.strings.get(id.index()).map(|s| s.as_ref())
    }

    /// Number of distinct interned queries, the paper's `|Q|`.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when no query has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Bytes of query text resident (each string stored exactly once).
    pub fn bytes_resident(&self) -> usize {
        self.string_bytes
    }

    /// Iterate `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (QueryId(i as u32), s.as_ref()))
    }

    /// Intern every element of a textual session, producing an id sequence.
    pub fn intern_session<S: AsRef<str>>(&mut self, queries: &[S]) -> crate::QuerySeq {
        queries.iter().map(|q| self.intern(q.as_ref())).collect()
    }

    /// Render an id sequence as human-readable ` ⇒ `-joined text.
    pub fn render(&self, seq: &[QueryId]) -> String {
        seq.iter()
            .map(|&q| self.resolve(q))
            .collect::<Vec<_>>()
            .join(" => ")
    }

    /// Append the interner's wire form to `buf`.
    ///
    /// Layout (all integers little-endian, strings in id order so ids are
    /// implicit): `n_queries: u32`, `content_bytes: u64`, then per query
    /// `len: u32` followed by `len` UTF-8 bytes. Documented byte-for-byte in
    /// the repository's `FORMAT.md` (the snapshot's interner block).
    ///
    /// # Examples
    ///
    /// ```
    /// use sqp_common::bytes::BytesMut;
    /// use sqp_common::Interner;
    ///
    /// let mut original = Interner::new();
    /// let id = original.intern("kidney stones");
    /// let mut buf = BytesMut::with_capacity(64);
    /// original.serialize_into(&mut buf);
    /// let restored = Interner::deserialize(&mut buf.freeze()).unwrap();
    /// assert_eq!(restored.resolve(id), "kidney stones"); // same ids
    /// ```
    pub fn serialize_into(&self, buf: &mut crate::bytes::BytesMut) {
        buf.put_u32_le(self.strings.len() as u32);
        buf.put_u64_le(self.string_bytes as u64);
        for s in &self.strings {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
    }

    /// Reconstruct an interner serialized with
    /// [`serialize_into`](Interner::serialize_into), assigning identical ids.
    ///
    /// The declared query count pre-sizes both the string table and the id
    /// index, so loading performs one allocation per string plus two for the
    /// tables — no rehash-driven growth. Fails (without panicking) on
    /// truncation, non-UTF-8 content, duplicate strings, or a content-byte
    /// total that disagrees with the declared header.
    pub fn deserialize(data: &mut crate::bytes::Bytes) -> Result<Interner, String> {
        if data.remaining() < 12 {
            return Err("truncated interner header".into());
        }
        let n = data.get_u32_le() as usize;
        let declared_bytes = data.get_u64_le() as usize;
        // Sanity bound before pre-sizing: every string costs ≥ 4 bytes of
        // length prefix, so a corrupt count cannot force a huge allocation.
        if data.remaining() < n * 4 {
            return Err("truncated interner body".into());
        }
        let mut out = Interner::with_capacity(n);
        for i in 0..n {
            if data.remaining() < 4 {
                return Err(format!("truncated length of interned string {i}"));
            }
            let len = data.get_u32_le() as usize;
            if data.remaining() < len {
                return Err(format!("truncated content of interned string {i}"));
            }
            let s = std::str::from_utf8(data.get_slice(len))
                .map_err(|_| format!("interned string {i} is not valid UTF-8"))?;
            let id = out.intern(s);
            if id.index() != i {
                return Err(format!("duplicate interned string at id {i}"));
            }
        }
        if out.string_bytes != declared_bytes {
            return Err(format!(
                "interner content bytes mismatch: header says {declared_bytes}, read {}",
                out.string_bytes
            ));
        }
        Ok(out)
    }
}

impl crate::mem::HeapSize for Interner {
    fn heap_size_bytes(&self) -> usize {
        // One copy of every string + the Box headers + the id table.
        self.string_bytes
            + self.strings.capacity() * std::mem::size_of::<Box<str>>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_leaves_nothing_to_grow() {
        let mut grown = Interner::new();
        let mut reserved = Interner::new();
        reserved.intern("q0");
        reserved.reserve(999);
        let slots = reserved.slots.len();
        for k in 0..1000 {
            grown.intern(&format!("q{k}"));
            assert_eq!(reserved.intern(&format!("q{k}")), QueryId(k));
        }
        assert_eq!(reserved.slots.len(), slots);
        assert_eq!(reserved.slots.len(), grown.slots.len());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("kidney stones");
        let b = i.intern("kidney stones");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let c = i.intern("c");
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let id = i.intern("nokia n73 themes");
        assert_eq!(i.resolve(id), "nokia n73 themes");
        assert_eq!(i.get("nokia n73 themes"), Some(id));
        assert_eq!(i.get("unknown"), None);
        assert!(i.try_resolve(QueryId(999)).is_none());
    }

    #[test]
    fn survives_growth_beyond_initial_table() {
        let mut i = Interner::with_capacity(4);
        let ids: Vec<QueryId> = (0..5000).map(|k| i.intern(&format!("query {k}"))).collect();
        assert_eq!(i.len(), 5000);
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(i.get(&format!("query {k}")), Some(*id));
            assert_eq!(i.resolve(*id), format!("query {k}"));
        }
    }

    #[test]
    fn bytes_resident_counts_content_once() {
        let mut i = Interner::new();
        i.intern("abcd");
        i.intern("ef");
        i.intern("abcd"); // duplicate — no extra bytes
        assert_eq!(i.bytes_resident(), 6);
    }

    #[test]
    fn intern_session_and_render() {
        let mut i = Interner::new();
        let s = i.intern_session(&["sign language", "learn sign language"]);
        assert_eq!(s.len(), 2);
        assert_eq!(i.render(&s), "sign language => learn sign language");
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        let collected: Vec<_> = i.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(collected, vec![(0, "x".to_owned()), (1, "y".to_owned())]);
    }

    #[test]
    fn serialization_roundtrip_preserves_ids() {
        let mut original = Interner::new();
        let ids: Vec<QueryId> = (0..500)
            .map(|k| original.intern(&format!("query número {k}")))
            .collect();
        let mut buf = crate::bytes::BytesMut::with_capacity(1024);
        original.serialize_into(&mut buf);
        let restored = Interner::deserialize(&mut buf.freeze()).unwrap();
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.bytes_resident(), original.bytes_resident());
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(restored.resolve(*id), format!("query número {k}"));
            assert_eq!(restored.get(&format!("query número {k}")), Some(*id));
        }
    }

    #[test]
    fn empty_interner_roundtrips() {
        let mut buf = crate::bytes::BytesMut::with_capacity(16);
        Interner::new().serialize_into(&mut buf);
        let restored = Interner::deserialize(&mut buf.freeze()).unwrap();
        assert_eq!(restored.len(), 0);
    }

    #[test]
    fn deserialize_rejects_truncation_and_garbage() {
        let mut original = Interner::new();
        original.intern("alpha");
        original.intern("beta");
        let mut buf = crate::bytes::BytesMut::with_capacity(64);
        original.serialize_into(&mut buf);
        let blob = buf.freeze();
        for cut in 0..blob.remaining() {
            let mut prefix = blob.slice(0..cut);
            assert!(
                Interner::deserialize(&mut prefix).is_err(),
                "cut at {cut} should fail"
            );
        }
        // Bad declared content total.
        let mut raw = blob.as_slice().to_vec();
        raw[4] ^= 0xff;
        assert!(Interner::deserialize(&mut crate::bytes::Bytes::from(raw)).is_err());
        // Duplicate strings break the id bijection.
        let mut dup = crate::bytes::BytesMut::with_capacity(32);
        dup.put_u32_le(2);
        dup.put_u64_le(4);
        for _ in 0..2 {
            dup.put_u32_le(2);
            dup.put_slice(b"xy");
        }
        assert!(Interner::deserialize(&mut dup.freeze()).is_err());
        // Invalid UTF-8 content.
        let mut bad = crate::bytes::BytesMut::with_capacity(32);
        bad.put_u32_le(1);
        bad.put_u64_le(2);
        bad.put_u32_le(2);
        bad.put_slice(&[0xff, 0xfe]);
        assert!(Interner::deserialize(&mut bad.freeze()).is_err());
    }

    #[test]
    fn heap_size_grows_with_content() {
        use crate::mem::HeapSize;
        let mut small = Interner::new();
        small.intern("a");
        let mut big = Interner::new();
        for k in 0..1000 {
            big.intern(&format!("some longer query text number {k}"));
        }
        assert!(big.heap_size_bytes() > small.heap_size_bytes());
        // The single-copy layout stays within ~2× of raw content for long
        // strings (the old double-store was > 2× by construction).
        assert!(big.heap_size_bytes() < big.bytes_resident() * 2 + 64 * 1024);
    }
}
