//! Binary persistence for trained models — the model payloads of snapshots.
//!
//! §V-F.2 of the paper: *"The PST learnt by a trained VMM model must be
//! loaded into RAM for real-time online query prediction."* A deployment
//! therefore trains offline, serializes once, and loads in every serving
//! process. This module provides the **model payload** codecs that the
//! snapshot container format builds on:
//!
//! * [`model_to_bytes`] / [`model_from_bytes`] — serialize any trained
//!   [`Recommender`] behind a [`ModelKind`] tag; a decoder is told the size
//!   of the vocabulary the payload's query ids index and refuses any id
//!   outside it as the rows stream in. The VMM and the MVMM write
//!   what they are — window trie rows plus state node ids; the pair-wise and
//!   N-gram baselines serialize their raw count tables (reconstruction is
//!   exact because ranked lists and smoothing are deterministic functions
//!   of the counts).
//!
//! A VMM in memory is a window trie and the set of its nodes that are PST
//! states, and that is all its payload holds: the trie as its canonical
//! breadth-first `(parent, key, total, at-start)` rows (one fixed-size row
//! per node, which *are* the serving layout) and the ascending list of
//! state node ids. No context and no count is written a second time — a
//! state's distribution is its node's child rows. The MVMM payload has the
//! same shape: each distinct trie once, then per component its config, its
//! mixture deviation σ as an `f64` bit pattern, and its id list. Loading
//! goes through the constructor training uses
//! ([`Pst::from_states`](crate::Pst::from_states)), which checks every
//! property of a state list the trainer guarantees, so a loaded model and a
//! trained one are one type with one set of invariants.
//!
//! ## From bare models to snapshots
//!
//! A model blob alone cannot boot a serving process: its `QueryId`s are
//! indices into the [`Interner`](sqp_common::Interner) it was trained
//! against, which the payload does not carry. The `sqp-store` crate wraps
//! these payloads in the **snapshot** container — interner block, model
//! payload behind its [`ModelKind`] tag, lifecycle metadata, and a
//! whole-file checksum — specified byte-by-byte in the repository's
//! `FORMAT.md`. Persist through `sqp_store::save_snapshot` /
//! `sqp_store::load_snapshot`; [`model_to_bytes`] / [`model_from_bytes`]
//! alone serve id-level tooling that manages its own interner.

use crate::model::Recommender;
use crate::mvmm::Mvmm;
use crate::vmm::{Vmm, VmmConfig};
use crate::{Adjacency, BackoffConfig, BackoffNgram, Cooccurrence, NGram};
use sqp_common::arena::SuffixTrie;
use sqp_common::bytes::{Bytes, BytesMut};
use sqp_common::{FxHashMap, QueryId, QuerySeq};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"SQPV";
/// Version 3: trie rows + state node ids (version 2 stored every state's
/// context and counts a second time; version 1 owned window keys).
const VERSION: u32 = 3;

/// Which concrete model a serialized payload reconstructs — the model-kind
/// tag of the snapshot `MODEL` section (see `FORMAT.md`). Every model a
/// `ModelSpec` can train has one; the HMM extension does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// [`Vmm`] — window-trie rows + state node ids.
    Vmm,
    /// [`Adjacency`] — successor count table.
    Adjacency,
    /// [`Cooccurrence`] — co-occurrence count table.
    Cooccurrence,
    /// [`NGram`] — prefix-state count table.
    NGram,
    /// [`BackoffNgram`] — window-state count table + unigram floor + config.
    Backoff,
    /// [`Mvmm`] — each distinct window trie once, then per component its
    /// config, deviation and state node ids.
    Mvmm,
}

impl ModelKind {
    /// Every kind the persistence layer supports, in tag order.
    pub const ALL: [ModelKind; 6] = [
        ModelKind::Vmm,
        ModelKind::Adjacency,
        ModelKind::Cooccurrence,
        ModelKind::NGram,
        ModelKind::Backoff,
        ModelKind::Mvmm,
    ];

    /// The on-disk tag (`u32`, little-endian) identifying this kind.
    pub fn code(self) -> u32 {
        match self {
            ModelKind::Vmm => 1,
            ModelKind::Adjacency => 2,
            ModelKind::Cooccurrence => 3,
            ModelKind::NGram => 4,
            ModelKind::Backoff => 5,
            ModelKind::Mvmm => 6,
        }
    }

    /// Inverse of [`ModelKind::code`]; `None` for unknown tags.
    pub fn from_code(code: u32) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.code() == code)
    }

    /// Stable human-readable label (used in errors and ops tooling).
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Vmm => "vmm",
            ModelKind::Adjacency => "adjacency",
            ModelKind::Cooccurrence => "cooccurrence",
            ModelKind::NGram => "ngram",
            ModelKind::Backoff => "backoff",
            ModelKind::Mvmm => "mvmm",
        }
    }

    /// Detect the kind of a model behind the trait object, `None` when the
    /// concrete type has no persistable form (HMM, ad-hoc impls).
    pub fn of(model: &dyn Recommender) -> Option<ModelKind> {
        let any = model.as_any()?;
        if any.is::<Vmm>() {
            Some(ModelKind::Vmm)
        } else if any.is::<Adjacency>() {
            Some(ModelKind::Adjacency)
        } else if any.is::<Cooccurrence>() {
            Some(ModelKind::Cooccurrence)
        } else if any.is::<NGram>() {
            Some(ModelKind::NGram)
        } else if any.is::<BackoffNgram>() {
            Some(ModelKind::Backoff)
        } else if any.is::<Mvmm>() {
            Some(ModelKind::Mvmm)
        } else {
            None
        }
    }
}

/// Serialize any supported [`Recommender`] into `(kind tag, payload)`.
///
/// Payload bytes are deterministic for identically-trained models (count
/// tables are written in sorted key order), so identical corpora produce
/// bit-identical snapshots. Returns an error naming the model when its
/// concrete type has no [`ModelKind`].
pub fn model_to_bytes(model: &dyn Recommender) -> Result<(ModelKind, Bytes), String> {
    let mut buf = BytesMut::default();
    let kind = put_model(&mut buf, model)?;
    Ok((kind, buf.freeze()))
}

/// [`model_to_bytes`], appending the payload to `buf` — how a container
/// writes the model straight into its own buffer instead of copying a
/// payload built on the side. Nothing is written when the model has no
/// [`ModelKind`].
pub fn put_model(buf: &mut BytesMut, model: &dyn Recommender) -> Result<ModelKind, String> {
    // `ModelKind::of` is the single authoritative type list; a `Some` kind
    // guarantees `as_any` is `Some` and the matching downcast succeeds, so
    // the expects below are in-memory invariants, not input validation.
    let kind = ModelKind::of(model).ok_or_else(|| {
        format!(
            "model '{}' has no persistable form (supported kinds: vmm, \
             adjacency, cooccurrence, ngram, backoff, mvmm)",
            model.name()
        )
    })?;
    let any = model.as_any().expect("ModelKind::of implies as_any");
    let tag = "kind tag matches type";
    match kind {
        ModelKind::Vmm => put_vmm(buf, any.downcast_ref().expect(tag)),
        ModelKind::Adjacency => put_lists(buf, &any.downcast_ref::<Adjacency>().expect(tag).lists),
        ModelKind::Cooccurrence => {
            put_lists(buf, &any.downcast_ref::<Cooccurrence>().expect(tag).lists)
        }
        ModelKind::NGram => put_ngram(buf, any.downcast_ref().expect(tag)),
        ModelKind::Backoff => put_backoff(buf, any.downcast_ref().expect(tag)),
        ModelKind::Mvmm => put_mvmm(buf, any.downcast_ref().expect(tag)),
    }
    Ok(kind)
}

/// Reconstruct a model serialized by [`model_to_bytes`] from its kind tag
/// and payload. The payload must be exactly one model — trailing bytes are
/// an error — and every query id in it must be below `vocabulary`, the
/// number of queries in the interner the model is paired with: an id past
/// it is an error naming the id, not a model that panics when an answer is
/// rendered.
pub fn model_from_bytes(
    kind: ModelKind,
    data: Bytes,
    vocabulary: usize,
) -> Result<Box<dyn Recommender>, String> {
    match kind {
        ModelKind::Vmm => Ok(Box::new(vmm_from_bytes(data, vocabulary)?)),
        ModelKind::Adjacency => {
            let mut data = data;
            let lists = lists_from_bytes(&mut data, vocabulary)?;
            expect_consumed(&data)?;
            Ok(Box::new(Adjacency { lists }))
        }
        ModelKind::Cooccurrence => {
            let mut data = data;
            let lists = lists_from_bytes(&mut data, vocabulary)?;
            expect_consumed(&data)?;
            Ok(Box::new(Cooccurrence { lists }))
        }
        ModelKind::NGram => Ok(Box::new(ngram_from_bytes(data, vocabulary)?)),
        ModelKind::Backoff => Ok(Box::new(backoff_from_bytes(data, vocabulary)?)),
        ModelKind::Mvmm => Ok(Box::new(mvmm_from_bytes(data, vocabulary)?)),
    }
}

/// The next `u32` of a payload as a query id, refused unless the
/// `vocabulary` holds it.
fn get_query(data: &mut Bytes, vocabulary: usize) -> Result<QueryId, String> {
    let id = data.get_u32_le();
    if (id as usize) < vocabulary {
        Ok(QueryId(id))
    } else {
        Err(format!(
            "query id {id} is outside the vocabulary of {vocabulary}"
        ))
    }
}

/// Sum stored counts without trusting them: a crafted file (valid
/// checksum, hostile payload) must produce `Err`, not a debug-build
/// overflow panic or a silently wrapped total.
fn checked_total(counts: &[(QueryId, u64)], label: &str) -> Result<u64, String> {
    counts
        .iter()
        .try_fold(0u64, |acc, (_, c)| acc.checked_add(*c))
        .ok_or_else(|| format!("{label} count total overflows u64"))
}

fn expect_consumed(data: &Bytes) -> Result<(), String> {
    if data.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} trailing bytes after model payload",
            data.remaining()
        ))
    }
}

/// The order every context table is written in: shorter contexts first,
/// ties by id sequence — so a reader that reinserts finds parents present.
fn by_length_then_ids(a: &[QueryId], b: &[QueryId]) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

fn put_seq(buf: &mut BytesMut, seq: &[QueryId]) {
    buf.put_u32_le(seq.len() as u32);
    for q in seq {
        buf.put_u32_le(q.0);
    }
}

fn get_seq(data: &mut Bytes, vocabulary: usize) -> Result<QuerySeq, String> {
    if data.remaining() < 4 {
        return Err("truncated sequence length".into());
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len * 4 {
        return Err("truncated sequence body".into());
    }
    let mut seq = Vec::with_capacity(len);
    for _ in 0..len {
        seq.push(get_query(data, vocabulary)?);
    }
    Ok(seq.into_boxed_slice())
}

/// Write a ranked `(query, count)` list, preserving its stored order (the
/// training-time descending-count, ascending-id order is part of model
/// behaviour and must survive the round trip).
fn put_counts(buf: &mut BytesMut, counts: &[(QueryId, u64)]) {
    buf.put_u32_le(counts.len() as u32);
    for &(q, c) in counts {
        buf.put_u32_le(q.0);
        buf.put_u64_le(c);
    }
}

fn get_counts(data: &mut Bytes, vocabulary: usize) -> Result<Box<[(QueryId, u64)]>, String> {
    if data.remaining() < 4 {
        return Err("truncated count-list length".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 12 {
        return Err("truncated count-list body".into());
    }
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push((get_query(data, vocabulary)?, data.get_u64_le()));
    }
    Ok(counts.into_boxed_slice())
}

/// The pair-wise count-table shape shared by Adjacency and Co-occurrence.
type RankedLists = FxHashMap<QueryId, Box<[(QueryId, u64)]>>;

/// The shared pair-wise count-table layout (Adjacency, Co-occurrence):
/// `n_lists: u32`, then per source query (ascending id for determinism)
/// `source: u32` followed by its ranked continuation list.
fn put_lists(buf: &mut BytesMut, lists: &RankedLists) {
    let entries: usize = lists.values().map(|l| l.len()).sum();
    buf.reserve(8 + lists.len() * 8 + entries * 12);
    let mut keys: Vec<QueryId> = lists.keys().copied().collect();
    keys.sort_unstable();
    buf.put_u32_le(keys.len() as u32);
    for q in keys {
        buf.put_u32_le(q.0);
        put_counts(buf, &lists[&q]);
    }
}

fn lists_from_bytes(data: &mut Bytes, vocabulary: usize) -> Result<RankedLists, String> {
    if data.remaining() < 4 {
        return Err("truncated list-table header".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated list table".into());
    }
    let mut lists = FxHashMap::default();
    lists.reserve(n);
    for _ in 0..n {
        if data.remaining() < 4 {
            return Err("truncated list source id".into());
        }
        let q = get_query(data, vocabulary)?;
        let counts = get_counts(data, vocabulary)?;
        if lists.insert(q, counts).is_some() {
            return Err(format!("duplicate list for query {}", q.0));
        }
    }
    Ok(lists)
}

/// N-gram payload: `n_states: u32`, then per state (sorted by context
/// length then lexicographic id order) the context sequence followed by its
/// ranked continuation list. `max_order` is recomputed on load.
fn put_ngram(buf: &mut BytesMut, model: &NGram) {
    let mut states: Vec<(&QuerySeq, &[(QueryId, u64)])> = model
        .states
        .iter()
        .map(|(ctx, counts)| (ctx, counts.as_ref()))
        .collect();
    states.sort_by(|(a, _), (b, _)| by_length_then_ids(a, b));
    buf.reserve(8 + states.len() * 32);
    buf.put_u32_le(states.len() as u32);
    for (ctx, counts) in states {
        put_seq(buf, ctx);
        put_counts(buf, counts);
    }
}

fn ngram_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<NGram, String> {
    if data.remaining() < 4 {
        return Err("truncated n-gram header".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated n-gram state table".into());
    }
    let mut states = FxHashMap::default();
    states.reserve(n);
    let mut max_order = 0;
    for _ in 0..n {
        let ctx = get_seq(&mut data, vocabulary)?;
        let counts = get_counts(&mut data, vocabulary)?;
        max_order = max_order.max(ctx.len());
        if states.insert(ctx, counts).is_some() {
            return Err("duplicate n-gram state".into());
        }
    }
    expect_consumed(&data)?;
    Ok(NGram { states, max_order })
}

/// Back-off payload: config (`max_order` with `u64::MAX` = unbounded,
/// `discount`, `min_support`), `n_queries`, the unigram floor, then the
/// window states sorted like the N-gram payload. Totals are recomputed.
fn put_backoff(buf: &mut BytesMut, model: &BackoffNgram) {
    buf.reserve(64 + model.states.len() * 32);
    buf.put_u64_le(model.config.max_order.map(|d| d as u64).unwrap_or(u64::MAX));
    buf.put_f64_le(model.config.discount);
    buf.put_u64_le(model.config.min_support);
    buf.put_u64_le(model.n_queries as u64);
    put_counts(buf, &model.unigrams);
    let mut states: Vec<&QuerySeq> = model.states.keys().collect();
    states.sort_by(|a, b| by_length_then_ids(a, b));
    buf.put_u32_le(states.len() as u32);
    for ctx in states {
        put_seq(buf, ctx);
        put_counts(buf, &model.states[ctx].next);
    }
}

fn backoff_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<BackoffNgram, String> {
    if data.remaining() < 32 {
        return Err("truncated back-off config".into());
    }
    let max_order_raw = data.get_u64_le();
    let discount = data.get_f64_le();
    let min_support = data.get_u64_le();
    let n_queries = data.get_u64_le() as usize;
    let config = BackoffConfig {
        max_order: (max_order_raw != u64::MAX).then_some(max_order_raw as usize),
        discount,
        min_support,
    };
    let unigrams = get_counts(&mut data, vocabulary)?;
    let unigram_total = checked_total(&unigrams, "back-off unigram")?;
    if data.remaining() < 4 {
        return Err("truncated back-off state count".into());
    }
    let n = data.get_u32_le() as usize;
    if data.remaining() < n * 8 {
        return Err("truncated back-off state table".into());
    }
    let mut states = FxHashMap::default();
    states.reserve(n);
    for _ in 0..n {
        let ctx = get_seq(&mut data, vocabulary)?;
        let next = get_counts(&mut data, vocabulary)?;
        let total = checked_total(&next, "back-off state")?;
        if states
            .insert(ctx, crate::backoff::State { next, total })
            .is_some()
        {
            return Err("duplicate back-off state".into());
        }
    }
    expect_consumed(&data)?;
    Ok(BackoffNgram {
        states,
        unigrams,
        unigram_total,
        config,
        n_queries,
    })
}

/// A VMM's training parameters: `epsilon`, `max_depth` (`u64::MAX` =
/// unbounded), `min_support` — 24 bytes.
fn put_vmm_config(buf: &mut BytesMut, config: &VmmConfig) {
    buf.put_f64_le(config.epsilon);
    buf.put_u64_le(config.max_depth.map(|d| d as u64).unwrap_or(u64::MAX));
    buf.put_u64_le(config.min_support);
}

fn get_vmm_config(data: &mut Bytes) -> Result<VmmConfig, String> {
    if data.remaining() < 24 {
        return Err("truncated VMM config".into());
    }
    let epsilon = data.get_f64_le();
    let max_depth_raw = data.get_u64_le();
    let min_support = data.get_u64_le();
    let max_depth = if max_depth_raw == u64::MAX {
        None
    } else {
        Some(usize::try_from(max_depth_raw).map_err(|_| "depth bound overflows usize")?)
    };
    Ok(VmmConfig {
        epsilon,
        max_depth,
        min_support,
        ..VmmConfig::default()
    })
}

/// The corpus constants every model counted from one corpus shares:
/// `total_sessions`, `total_occurrences`, `n_queries` — 24 bytes.
fn put_corpus_totals(buf: &mut BytesMut, model: &Vmm) {
    buf.put_u64_le(model.total_sessions);
    buf.put_u64_le(model.total_occurrences);
    buf.put_u64_le(model.n_queries as u64);
}

fn get_corpus_totals(data: &mut Bytes) -> Result<(u64, u64, usize), String> {
    if data.remaining() < 24 {
        return Err("truncated corpus totals".into());
    }
    let (sessions, occurrences) = (data.get_u64_le(), data.get_u64_le());
    let n_queries =
        usize::try_from(data.get_u64_le()).map_err(|_| "query count overflows usize")?;
    Ok((sessions, occurrences, n_queries))
}

/// Window trie: `window_len`, row count, then the canonical BFS rows —
/// already deterministic by construction.
fn put_trie(buf: &mut BytesMut, trie: &SuffixTrie) {
    buf.put_u32_le(trie.window_len() as u32);
    buf.put_u64_le((trie.len() - 1) as u64);
    for (parent, key, total, at_start) in trie.parts() {
        buf.put_u32_le(parent);
        buf.put_u32_le(key);
        buf.put_u64_le(total);
        buf.put_u64_le(at_start);
    }
}

fn get_trie(data: &mut Bytes, vocabulary: usize) -> Result<Arc<SuffixTrie>, String> {
    if data.remaining() < 12 {
        return Err("truncated trie header".into());
    }
    let window_len = data.get_u32_le();
    // A count read from disk is bounded by the bytes that remain before
    // anything is sized by it.
    let n_rows = usize::try_from(data.get_u64_le())
        .ok()
        .filter(|n| n.checked_mul(24).is_some_and(|b| b <= data.remaining()))
        .ok_or("truncated trie rows")?;
    // The rows are the trie's serving layout already: they stream straight
    // into the frozen arrays, validated row by row.
    let rows = (0..n_rows).map(|_| {
        let parent = data.get_u32_le();
        let key = data.get_u32_le();
        let total = data.get_u64_le();
        let at_start = data.get_u64_le();
        (parent, key, total, at_start)
    });
    SuffixTrie::from_parts(window_len, vocabulary, rows)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// State list: count, then the trie node ids of a model's non-root states,
/// ascending.
fn put_states(buf: &mut BytesMut, model: &Vmm) {
    let nodes = model.pst.state_nodes();
    buf.put_u64_le(nodes.len() as u64);
    for node in nodes {
        buf.put_u32_le(node);
    }
}

fn get_states(data: &mut Bytes) -> Result<Vec<u32>, String> {
    if data.remaining() < 8 {
        return Err("truncated state count".into());
    }
    let n = usize::try_from(data.get_u64_le())
        .ok()
        .filter(|n| n.checked_mul(4).is_some_and(|b| b <= data.remaining()))
        .ok_or("truncated state list")?;
    Ok((0..n).map(|_| data.get_u32_le()).collect())
}

/// Encoded sizes, for pre-sizing a write buffer.
fn trie_block_len(trie: &SuffixTrie) -> usize {
    12 + (trie.len() - 1) * 24
}

fn state_list_len(model: &Vmm) -> usize {
    8 + (model.node_count() - 1) * 4
}

/// Serialize a trained VMM: magic, version, config, corpus totals, the
/// window trie, the state list.
fn put_vmm(buf: &mut BytesMut, model: &Vmm) {
    let trie = model.window_trie();
    buf.reserve(56 + trie_block_len(trie) + state_list_len(model));
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    put_vmm_config(buf, &model.config);
    put_corpus_totals(buf, model);
    put_trie(buf, trie);
    put_states(buf, model);
}

/// Reconstruct a VMM serialized with [`put_vmm`].
fn vmm_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<Vmm, String> {
    if data.remaining() < 8 {
        return Err("truncated header".into());
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err("bad magic — not a serialized VMM".into());
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let config = get_vmm_config(&mut data)?;
    let (sessions, occurrences, n_queries) = get_corpus_totals(&mut data)?;
    let trie = get_trie(&mut data, vocabulary)?;
    let states = get_states(&mut data)?;
    expect_consumed(&data)?;
    Vmm::from_parts(trie, &states, sessions, occurrences, n_queries, config)
        .map_err(|e| e.to_string())
}

/// Serialize a trained MVMM: corpus totals; the distinct window tries in
/// order of first use; then per component its config, its deviation σ and
/// its state list. A component's trie is the one its `max_depth` first
/// appeared with, so no index is stored.
fn put_mvmm(buf: &mut BytesMut, model: &Mvmm) {
    let components = model.components();
    let tries = model.tries();
    buf.reserve(
        32 + tries.iter().map(|t| trie_block_len(t)).sum::<usize>()
            + components
                .iter()
                .map(|c| 32 + state_list_len(c))
                .sum::<usize>(),
    );
    put_corpus_totals(buf, &components[0]);
    buf.put_u32_le(tries.len() as u32);
    for trie in tries {
        put_trie(buf, trie);
    }
    buf.put_u32_le(components.len() as u32);
    for (component, sigma) in components.iter().zip(model.sigmas()) {
        put_vmm_config(buf, &component.config);
        buf.put_u64_le(sigma.to_bits());
        put_states(buf, component);
    }
}

/// Reconstruct an MVMM serialized with [`put_mvmm`].
fn mvmm_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<Mvmm, String> {
    let (sessions, occurrences, n_queries) = get_corpus_totals(&mut data)?;
    if data.remaining() < 4 {
        return Err("truncated trie count".into());
    }
    // At least a 12-byte header per trie and 40 bytes per component must
    // follow, which bounds both counts before anything is sized by them.
    let n_tries = data.get_u32_le() as usize;
    if n_tries > data.remaining() / 12 {
        return Err("truncated trie table".into());
    }
    let tries = (0..n_tries)
        .map(|_| get_trie(&mut data, vocabulary))
        .collect::<Result<Vec<_>, _>>()?;
    if data.remaining() < 4 {
        return Err("truncated component count".into());
    }
    let n_components = data.get_u32_le() as usize;
    if n_components > data.remaining() / 40 {
        return Err("truncated component table".into());
    }
    let mut depths: Vec<Option<usize>> = Vec::with_capacity(n_tries);
    let mut components = Vec::with_capacity(n_components);
    let mut sigmas = Vec::with_capacity(n_components);
    for _ in 0..n_components {
        let config = get_vmm_config(&mut data)?;
        if data.remaining() < 8 {
            return Err("truncated mixture deviation".into());
        }
        sigmas.push(f64::from_bits(data.get_u64_le()));
        let states = get_states(&mut data)?;
        let trie_index = depths
            .iter()
            .position(|d| *d == config.max_depth)
            .unwrap_or_else(|| {
                depths.push(config.max_depth);
                depths.len() - 1
            });
        let trie = tries
            .get(trie_index)
            .ok_or("more distinct depth bounds than window tries")?;
        components.push(
            Vmm::from_parts(
                Arc::clone(trie),
                &states,
                sessions,
                occurrences,
                n_queries,
                config,
            )
            .map_err(|e| format!("component {}: {e}", components.len()))?,
        );
    }
    if depths.len() != tries.len() {
        return Err(format!(
            "{} window tries for {} distinct depth bounds",
            tries.len(),
            depths.len()
        ));
    }
    expect_consumed(&data)?;
    Mvmm::from_parts(components, sigmas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Recommender, SequenceScorer};
    use crate::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON};
    use sqp_common::seq;

    fn trained() -> Vmm {
        Vmm::train(&toy_corpus(), VmmConfig::with_epsilon(TOY_EPSILON))
    }

    fn to_bytes(model: &Vmm) -> Bytes {
        let (kind, blob) = model_to_bytes(model).expect("a VMM is persistable");
        assert_eq!(kind, ModelKind::Vmm);
        blob
    }

    /// The smallest vocabulary the ids of `sessions` fit in.
    fn vocabulary(sessions: &[(QuerySeq, u64)]) -> usize {
        sessions
            .iter()
            .flat_map(|(s, _)| s.iter())
            .map(|q| q.index() + 1)
            .max()
            .unwrap_or(0)
    }

    fn from_bytes(data: Bytes) -> Result<Box<dyn Recommender>, String> {
        model_from_bytes(ModelKind::Vmm, data, vocabulary(&toy_corpus()))
    }

    fn as_vmm(model: &dyn Recommender) -> &Vmm {
        model
            .as_any()
            .and_then(|any| any.downcast_ref())
            .expect("a Vmm payload restores a Vmm")
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let original = trained();
        let restored = from_bytes(to_bytes(&original)).expect("roundtrip");
        let restored = as_vmm(restored.as_ref());

        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.name(), original.name());
        assert_eq!(restored.n_queries(), original.n_queries());
        assert_eq!(restored.config(), original.config());
        assert_eq!(restored.window_trie(), original.window_trie());

        // Identical probabilities, escapes, recommendations, scores.
        for ctx in [
            &[][..],
            &seq(&[0]),
            &seq(&[1]),
            &seq(&[1, 0]),
            &seq(&[1, 1]),
        ] {
            for q in [QueryId(0), QueryId(1), QueryId(7)] {
                assert_eq!(original.cond_prob(ctx, q), restored.cond_prob(ctx, q));
                assert_eq!(
                    original.cond_prob_escaped(ctx, q),
                    restored.cond_prob_escaped(ctx, q)
                );
            }
            let a = original.recommend(ctx, 5);
            let b = restored.recommend(ctx, 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.query, y.query);
                assert_eq!(x.score, y.score);
            }
        }
        assert_eq!(
            original.sequence_log10_prob(&toy_test_sequence()),
            restored.sequence_log10_prob(&toy_test_sequence())
        );
        assert_eq!(original.memory_bytes(), restored.memory_bytes());
    }

    #[test]
    fn roundtrip_on_simulated_corpus() {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(3_000, 500, 21));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        let original = Vmm::train(&p.train.aggregated.sessions, VmmConfig::bounded(3, 0.02));
        let restored =
            model_from_bytes(ModelKind::Vmm, to_bytes(&original), p.interner.len()).unwrap();
        assert_eq!(
            as_vmm(restored.as_ref()).node_count(),
            original.node_count()
        );
        for e in p.ground_truth.entries.iter().take(200) {
            let a = original.recommend(&e.context, 5);
            let b = restored.recommend(&e.context, 5);
            assert_eq!(
                a.iter().map(|r| r.query).collect::<Vec<_>>(),
                b.iter().map(|r| r.query).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        let m = trained();
        assert_eq!(to_bytes(&m), to_bytes(&m));
        // Two identically-trained models serialize identically.
        assert_eq!(to_bytes(&trained()), to_bytes(&m));
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(from_bytes(Bytes::from_static(b"")).is_err());
        assert!(from_bytes(Bytes::from_static(b"NOPE0000")).is_err());
        let blob = to_bytes(&trained());
        for cut in [3, 8, 20, blob.len() / 2, blob.len() - 1] {
            assert!(
                from_bytes(blob.slice(0..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut raw = to_bytes(&trained()).to_vec();
        raw[4] = 99; // bump the version field
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn unbounded_and_bounded_configs_roundtrip() {
        for cfg in [
            VmmConfig::with_epsilon(0.0),
            VmmConfig::bounded(2, 0.1),
            VmmConfig {
                epsilon: 0.3,
                max_depth: Some(1),
                min_support: 4,
                ..VmmConfig::default()
            },
        ] {
            let m = Vmm::train(&toy_corpus(), cfg);
            let r = from_bytes(to_bytes(&m)).unwrap();
            let r = as_vmm(r.as_ref());
            assert_eq!(r.config(), &cfg);
            assert_eq!(r.node_count(), m.node_count());
        }
    }

    // ---- generalized (tagged) model persistence ----

    fn sim_sessions() -> Vec<(QuerySeq, u64)> {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(1_500, 300, 9));
        let p = sqp_sessions::process(&logs, &sqp_sessions::PipelineConfig::default());
        p.train.aggregated.sessions.clone()
    }

    fn trained_kind(kind: ModelKind, sessions: &[(QuerySeq, u64)]) -> Box<dyn Recommender> {
        match kind {
            ModelKind::Vmm => Box::new(Vmm::train(sessions, VmmConfig::bounded(3, 0.05))),
            ModelKind::Adjacency => Box::new(Adjacency::train(sessions)),
            ModelKind::Cooccurrence => Box::new(Cooccurrence::train(sessions)),
            ModelKind::NGram => Box::new(NGram::train(sessions)),
            ModelKind::Backoff => Box::new(BackoffNgram::train(sessions, BackoffConfig::default())),
            // A depth mixture, so the payload carries two tries.
            ModelKind::Mvmm => Box::new(Mvmm::train(
                sessions,
                &crate::MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.0), (2, 0.02)]),
            )),
        }
    }

    #[test]
    fn every_kind_roundtrips_bit_identically() {
        let sessions = sim_sessions();
        let contexts: Vec<QuerySeq> = {
            let mut out: Vec<QuerySeq> = Vec::new();
            for (s, _) in sessions.iter().take(100) {
                for i in 1..s.len() {
                    out.push(s[..i].into());
                }
            }
            out.push(seq(&[]));
            out.push(seq(&[9_999_999]));
            out
        };
        for kind in ModelKind::ALL {
            let original = trained_kind(kind, &sessions);
            let (tagged, blob) = model_to_bytes(original.as_ref()).unwrap();
            assert_eq!(tagged, kind);
            let restored = model_from_bytes(kind, blob, vocabulary(&sessions)).unwrap();
            assert_eq!(restored.name(), original.name(), "{kind:?}");
            assert_eq!(restored.memory_bytes(), original.memory_bytes(), "{kind:?}");
            for ctx in &contexts {
                let a = original.recommend(ctx, 5);
                let b = restored.recommend(ctx, 5);
                assert_eq!(a.len(), b.len(), "{kind:?} ctx {ctx:?}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!((x.query, x.score), (y.query, y.score), "{kind:?}");
                }
                assert_eq!(original.covers(ctx), restored.covers(ctx), "{kind:?}");
            }
        }
    }

    #[test]
    fn tagged_serialization_is_deterministic() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let a = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            let b = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            assert_eq!(a.1.as_slice(), b.1.as_slice(), "{kind:?} not deterministic");
        }
    }

    #[test]
    fn kind_codes_roundtrip_and_detect() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_code(kind.code()), Some(kind));
            let model = trained_kind(kind, &sessions);
            assert_eq!(ModelKind::of(model.as_ref()), Some(kind));
        }
        assert_eq!(ModelKind::from_code(0), None);
        assert_eq!(ModelKind::from_code(99), None);
    }

    #[test]
    fn a_model_without_a_kind_is_reported_unsupported() {
        let hmm = crate::Hmm::train(&toy_corpus(), crate::HmmConfig::default());
        assert_eq!(ModelKind::of(&hmm), None);
        let err = model_to_bytes(&hmm).unwrap_err();
        assert!(err.contains("no persistable form"), "{err}");
    }

    #[test]
    fn a_loaded_mixture_is_the_trained_one() {
        let sessions = sim_sessions();
        let original = Mvmm::train(&sessions, &crate::MvmmConfig::small());
        let (kind, blob) = model_to_bytes(&original).unwrap();
        assert_eq!(kind, ModelKind::Mvmm);
        let restored = model_from_bytes(kind, blob, vocabulary(&sessions)).unwrap();
        let restored: &Mvmm = restored.as_any().unwrap().downcast_ref().unwrap();

        // The deviations are f64 bit patterns: nothing is approximated.
        let bits = |m: &Mvmm| m.sigmas().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(restored), bits(&original));
        assert_eq!(restored.merged_state_count(), original.merged_state_count());
        for (a, b) in original.components().iter().zip(restored.components()) {
            assert_eq!(a.config(), b.config());
            assert_eq!(a.node_count(), b.node_count());
            assert_eq!(a.window_trie(), b.window_trie());
        }
        // One trie was written and one is held, by every component.
        let first = restored.components()[0].window_trie();
        assert!(restored
            .components()
            .iter()
            .all(|c| Arc::ptr_eq(first, c.window_trie())));
        for (s, _) in sessions.iter().take(100) {
            assert_eq!(
                original.sequence_log10_prob(s).to_bits(),
                restored.sequence_log10_prob(s).to_bits()
            );
        }
    }

    // ---- hostile payloads ----

    /// The toy payloads the sweeps below cut and corrupt: small enough to
    /// visit every byte, and between them every section of both layouts
    /// (the mixture's two depth bounds put two tries in one payload).
    fn toy_payloads() -> Vec<(ModelKind, Bytes)> {
        let mixture = Mvmm::train(
            &toy_corpus(),
            &crate::MvmmConfig {
                parallel: false,
                ..crate::MvmmConfig::depth_mixture(&[(1, 0.0), (2, 0.1), (1, 0.5)])
            },
        );
        vec![
            (ModelKind::Vmm, to_bytes(&trained())),
            model_to_bytes(&mixture).unwrap(),
        ]
    }

    /// A loaded model must be whole: every call the serve path makes
    /// returns, whatever the payload said.
    fn exercise(model: &dyn Recommender) {
        for ctx in [
            &[][..],
            &seq(&[0]),
            &seq(&[1, 0]),
            &seq(&[0, 1, 1, 0]),
            &seq(&[7]),
        ] {
            let top = model.recommend(ctx, 3);
            assert!(top.len() <= 3);
            assert_eq!(model.covers(ctx), !model.recommend(ctx, 1).is_empty());
        }
        assert!(model.memory_bytes() > 0);
    }

    #[test]
    fn every_truncation_of_a_toy_payload_is_an_error() {
        for (kind, blob) in toy_payloads() {
            exercise(model_from_bytes(kind, blob.clone(), 2).unwrap().as_ref());
            for cut in 0..blob.len() {
                assert!(
                    model_from_bytes(kind, blob.slice(0..cut), 2).is_err(),
                    "{kind:?} cut at {cut}/{} loaded",
                    blob.len()
                );
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_an_error_or_a_whole_model() {
        // A bare payload has no checksum (the snapshot container does), so
        // a flipped count can still be a model — but never a panic and
        // never a model that cannot answer.
        for (kind, blob) in toy_payloads() {
            for i in 0..blob.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut raw = blob.to_vec();
                    raw[i] ^= mask;
                    if let Ok(model) = model_from_bytes(kind, Bytes::from(raw), 2) {
                        exercise(model.as_ref());
                    }
                }
            }
        }
    }

    /// Offset of the toy VMM payload's state list: header (8) + config (24)
    /// + totals (24) + trie header (12) + rows.
    fn vmm_state_list_at(model: &Vmm) -> usize {
        68 + (model.window_trie().len() - 1) * 24
    }

    fn with_states(model: &Vmm, states: &[u32]) -> Result<Box<dyn Recommender>, String> {
        let mut raw = to_bytes(model).to_vec();
        raw.truncate(vmm_state_list_at(model));
        raw.extend_from_slice(&(states.len() as u64).to_le_bytes());
        for s in states {
            raw.extend_from_slice(&s.to_le_bytes());
        }
        from_bytes(Bytes::from(raw))
    }

    fn expect_err(result: Result<Box<dyn Recommender>, String>, needle: &str) {
        match result {
            Ok(_) => panic!("loaded; expected an error containing {needle:?}"),
            Err(e) => assert!(e.contains(needle), "{e:?} does not mention {needle:?}"),
        }
    }

    #[test]
    fn a_hostile_state_list_is_rejected() {
        // Bounded, so the trie's last level is continuation evidence only.
        let model = Vmm::train(&toy_corpus(), VmmConfig::bounded(2, TOY_EPSILON));
        let trie = model.window_trie();
        let node = |w: &[u32]| trie.window(&seq(w)).unwrap();
        let (q0, q1, q1q0) = (node(&[0]), node(&[1]), node(&[1, 0]));
        let honest: Vec<u32> = model.pst().state_nodes().collect();
        assert_eq!(honest, [q0, q1, q1q0]);
        assert_eq!(
            as_vmm(with_states(&model, &honest).unwrap().as_ref()).node_count(),
            4
        );

        expect_err(with_states(&model, &[q1, q0, q1q0]), "not strictly after");
        expect_err(with_states(&model, &[q0, q1, q1]), "not strictly after");
        expect_err(with_states(&model, &[0, q0, q1]), "not a window node");
        // A continuation-only node, the first id past the trie, any id.
        let deepest = trie.len() as u32 - 1;
        assert!(trie.depth(deepest) > trie.window_len());
        for bad in [deepest, trie.len() as u32, u32::MAX] {
            expect_err(with_states(&model, &[q0, q1, bad]), "not a window node");
        }
        // [q1, q0] without its suffix [q0]: the walk would never reach it.
        expect_err(with_states(&model, &[q1, q1q0]), "suffix");

        // A list longer than the bytes behind it is refused by its length.
        let mut raw = to_bytes(&model).to_vec();
        let at = vmm_state_list_at(&model);
        for claimed in [4u64, 1 << 40, u64::MAX] {
            raw[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            expect_err(from_bytes(Bytes::from(raw.clone())), "truncated state list");
        }
        // And bytes past an honest list are not ignored.
        let mut raw = to_bytes(&model).to_vec();
        raw.push(0);
        expect_err(from_bytes(Bytes::from(raw)), "trailing");
    }

    #[test]
    fn a_hostile_mixture_is_rejected() {
        let mixture = Mvmm::train(&toy_corpus(), &crate::MvmmConfig::small());
        let blob = model_to_bytes(&mixture).unwrap().1.to_vec();
        let load = |raw: Vec<u8>| model_from_bytes(ModelKind::Mvmm, Bytes::from(raw), 2);
        // totals (24), n_tries (4), trie header (12) + rows, then K.
        let k_at = 40 + (mixture.components()[0].window_trie().len() - 1) * 24;
        let read_u32 = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
        assert_eq!((read_u32(24), read_u32(k_at)), (1, 3));
        // First component: config (24), then σ.
        let sigma_at = k_at + 4 + 24;
        assert_eq!(
            blob[sigma_at..sigma_at + 8],
            mixture.sigmas()[0].to_bits().to_le_bytes()
        );

        for sigma in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut raw = blob.clone();
            raw[sigma_at..sigma_at + 8].copy_from_slice(&sigma.to_bits().to_le_bytes());
            expect_err(load(raw), "not finite and positive");
        }
        // Counts the remaining bytes cannot hold.
        for (at, needle) in [(24, "trie table"), (k_at, "component table")] {
            for claimed in [1_000u32, u32::MAX] {
                let mut raw = blob.clone();
                raw[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
                expect_err(load(raw), needle);
            }
        }
        // No components at all.
        let mut raw = blob.clone();
        raw.truncate(k_at);
        raw.extend_from_slice(&0u32.to_le_bytes());
        expect_err(load(raw), "0 distinct depth bounds");
        // A second depth bound with no second trie: the first component's
        // `max_depth` (config bytes 8..16) becomes Some(1).
        let mut raw = blob.clone();
        raw[k_at + 12..k_at + 20].copy_from_slice(&1u64.to_le_bytes());
        expect_err(load(raw), "depth bounds");
    }

    #[test]
    fn crafted_overflowing_counts_are_rejected_not_panicked() {
        // A syntactically valid Backoff payload whose unigram counts sum
        // past u64::MAX — load must return Err (never a debug-build panic
        // or a wrapped total).
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u64_le(u64::MAX); // max_order: unbounded
        buf.put_f64_le(0.5); // discount
        buf.put_u64_le(1); // min_support
        buf.put_u64_le(2); // n_queries
        buf.put_u32_le(2); // unigram entries
        for q in 0..2u32 {
            buf.put_u32_le(q);
            buf.put_u64_le(u64::MAX);
        }
        buf.put_u32_le(0); // no states
        let err = match model_from_bytes(ModelKind::Backoff, buf.freeze(), 2) {
            Err(e) => e,
            Ok(_) => panic!("overflowing counts loaded successfully"),
        };
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn tagged_payloads_reject_truncation() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let (_, blob) = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            let vocabulary = vocabulary(&sessions);
            for cut in [0, 3, 7, blob.len() / 3, blob.len() / 2, blob.len() - 1] {
                assert!(
                    model_from_bytes(kind, blob.slice(0..cut), vocabulary).is_err(),
                    "{kind:?} cut at {cut} should fail"
                );
            }
            // Trailing garbage after a complete payload must be rejected.
            let mut raw = blob.to_vec();
            raw.extend_from_slice(&[0u8; 3]);
            assert!(
                model_from_bytes(kind, Bytes::from(raw), vocabulary).is_err(),
                "{kind:?} should reject trailing bytes"
            );
        }
    }

    #[test]
    fn every_kind_refuses_an_id_outside_its_vocabulary() {
        // Shrink the vocabulary until the payload no longer fits: the first
        // one refused names the payload's largest id, which is exactly the
        // vocabulary's size.
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let (_, blob) = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            let mut vocabulary = vocabulary(&sessions);
            while model_from_bytes(kind, blob.clone(), vocabulary).is_ok() {
                vocabulary -= 1;
            }
            expect_err(
                model_from_bytes(kind, blob, vocabulary),
                &format!("query id {vocabulary} is outside the vocabulary of {vocabulary}"),
            );
        }
    }
}
