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
//!   outside it before a model exists. The trie-backed models write what
//!   they are — trie columns, plus state node ids for the VMM and the
//!   MVMM, or a config for the back-off N-gram; the naive N-gram is its
//!   prefix trie alone. The pair-wise baselines serialize their ranked
//!   pair table (reconstruction is exact because ranked lists and
//!   smoothing are deterministic functions of the counts).
//!
//! A VMM in memory is a window trie and the set of its nodes that are PST
//! states, and that is all its payload holds: the trie's four stored
//! columns — `parent`, `key`, `total`, `at_start` over the nodes in
//! canonical breadth-first order, each written whole as the trie holds it
//! — and the ascending list of state node ids. No context and no count is
//! written a second time — a state's distribution is its node's child
//! entries. The MVMM payload has the
//! same shape: its one trie, then per component its config and its mixture
//! deviation σ as an `f64` bit pattern, then the merged PST's id list and a
//! component mask per id. Loading
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
use crate::pairs::PairTable;
use crate::pst::Pst;
use crate::vmm::{Vmm, VmmConfig};
use crate::{Adjacency, BackoffConfig, BackoffNgram, Cooccurrence, NGram};
use sqp_common::arena::SuffixTrie;
use sqp_common::bytes::{Bytes, BytesMut};
use sqp_common::QueryId;
use std::sync::Arc;

/// Which concrete model a serialized payload reconstructs — the model-kind
/// tag of the snapshot `MODEL` section (see `FORMAT.md`). Every model a
/// `ModelSpec` can train has one; an ad-hoc `Recommender` impl does not.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// [`Vmm`] — window-trie columns + state node ids.
    Vmm,
    /// [`Adjacency`] — ranked successor table.
    Adjacency,
    /// [`Cooccurrence`] — ranked co-occurrence table.
    Cooccurrence,
    /// [`NGram`] — prefix-trie columns, every node's total its at-start
    /// count.
    NGram,
    /// [`BackoffNgram`] — its config, then its window-trie columns.
    Backoff,
    /// [`Mvmm`] — its one window trie, per component its config and
    /// deviation, then the merged state node ids and their component masks.
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
    /// concrete type has no persistable form (ad-hoc impls).
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
        ModelKind::Adjacency => any.downcast_ref::<Adjacency>().expect(tag).pairs.put(buf),
        ModelKind::Cooccurrence => any
            .downcast_ref::<Cooccurrence>()
            .expect(tag)
            .pairs
            .put(buf),
        ModelKind::NGram => {
            let trie = &any.downcast_ref::<NGram>().expect(tag).trie;
            buf.reserve(trie_block_len(trie));
            put_trie(buf, trie);
        }
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
    mut data: Bytes,
    vocabulary: usize,
) -> Result<Box<dyn Recommender>, String> {
    match kind {
        ModelKind::Vmm => Ok(Box::new(vmm_from_bytes(data, vocabulary)?)),
        ModelKind::Adjacency => Ok(Box::new(Adjacency {
            pairs: PairTable::from_bytes(data, vocabulary)?,
        })),
        ModelKind::Cooccurrence => Ok(Box::new(Cooccurrence {
            pairs: PairTable::from_bytes(data, vocabulary)?,
        })),
        ModelKind::NGram => {
            let trie = get_trie(&mut data, vocabulary)?;
            expect_consumed(&data)?;
            // Every window of a prefix trie starts a session.
            match (1..trie.len() as u32).find(|&n| trie.at_start(n) != trie.total(n)) {
                Some(node) => Err(format!("node {node} is not a prefix: at_start != total")),
                None => Ok(Box::new(NGram { trie })),
            }
        }
        ModelKind::Backoff => Ok(Box::new(backoff_from_bytes(data, vocabulary)?)),
        ModelKind::Mvmm => Ok(Box::new(mvmm_from_bytes(data, vocabulary)?)),
    }
}

/// The next `u32` of a payload as a query id, refused unless the
/// `vocabulary` holds it.
pub(crate) fn get_query(data: &mut Bytes, vocabulary: usize) -> Result<QueryId, String> {
    let id = data.get_u32_le();
    if (id as usize) < vocabulary {
        Ok(QueryId(id))
    } else {
        Err(format!(
            "query id {id} is outside the vocabulary of {vocabulary}"
        ))
    }
}

pub(crate) fn expect_consumed(data: &Bytes) -> Result<(), String> {
    if data.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} trailing bytes after model payload",
            data.remaining()
        ))
    }
}

/// Back-off payload: its config (`max_order` with `u64::MAX` = unbounded,
/// `discount`, `min_support`), then the window trie it reads.
fn put_backoff(buf: &mut BytesMut, model: &BackoffNgram) {
    buf.reserve(24 + trie_block_len(&model.trie));
    put_bound(buf, model.config.max_order);
    buf.put_f64_le(model.config.discount);
    buf.put_u64_le(model.config.min_support);
    put_trie(buf, &model.trie);
}

fn backoff_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<BackoffNgram, String> {
    if data.remaining() < 24 {
        return Err("truncated back-off config".into());
    }
    let config = BackoffConfig {
        max_order: get_bound(&mut data)?,
        discount: data.get_f64_le(),
        min_support: data.get_u64_le(),
    };
    let trie = get_trie(&mut data, vocabulary)?;
    expect_consumed(&data)?;
    Ok(BackoffNgram { trie, config })
}

/// A depth bound as a `u64`, `u64::MAX` for unbounded.
fn put_bound(buf: &mut BytesMut, bound: Option<usize>) {
    buf.put_u64_le(bound.map_or(u64::MAX, |d| d as u64));
}

fn get_bound(data: &mut Bytes) -> Result<Option<usize>, String> {
    match data.get_u64_le() {
        u64::MAX => Ok(None),
        d => usize::try_from(d)
            .map(Some)
            .map_err(|_| "depth bound overflows usize".into()),
    }
}

/// A VMM's training parameters: `epsilon`, `max_depth` (`u64::MAX` =
/// unbounded), `min_support` — 24 bytes.
fn put_vmm_config(buf: &mut BytesMut, config: &VmmConfig) {
    buf.put_f64_le(config.epsilon);
    put_bound(buf, config.max_depth);
    buf.put_u64_le(config.min_support);
}

fn get_vmm_config(data: &mut Bytes) -> Result<VmmConfig, String> {
    if data.remaining() < 24 {
        return Err("truncated VMM config".into());
    }
    Ok(VmmConfig {
        epsilon: data.get_f64_le(),
        max_depth: get_bound(data)?,
        min_support: data.get_u64_le(),
        ..VmmConfig::default()
    })
}

/// The corpus constants every model counted from one corpus shares:
/// `total_sessions`, `total_occurrences`, `n_queries` — 24 bytes.
fn put_corpus_totals(buf: &mut BytesMut, (sessions, occurrences, n_queries): (u64, u64, usize)) {
    buf.put_u64_le(sessions);
    buf.put_u64_le(occurrences);
    buf.put_u64_le(n_queries as u64);
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

/// Window trie: `window_len`, row count, then the trie's four stored
/// columns over its non-root nodes, each written whole in canonical id
/// order — deterministic by construction.
fn put_trie(buf: &mut BytesMut, trie: &SuffixTrie) {
    let (parents, keys, totals, at_start) = trie.columns();
    buf.put_u32_le(trie.window_len() as u32);
    buf.put_u64_le((trie.len() - 1) as u64);
    parents[1..].iter().for_each(|&p| buf.put_u32_le(p));
    keys[1..].iter().for_each(|q| buf.put_u32_le(q.0));
    totals[1..].iter().for_each(|&t| buf.put_u64_le(t));
    at_start[1..].iter().for_each(|&a| buf.put_u64_le(a));
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
        .ok_or("truncated trie columns")?;
    let parents = get_column(data, n_rows, u32::from_le_bytes);
    let keys = get_column(data, n_rows, |b| QueryId(u32::from_le_bytes(b)));
    let totals = get_column(data, n_rows, u64::from_le_bytes);
    let at_start = get_column(data, n_rows, u64::from_le_bytes);
    SuffixTrie::from_columns(window_len, vocabulary, parents, keys, totals, at_start)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// `n` checked column entries of `N` little-endian bytes each, after the
/// root's entry, which no file stores.
fn get_column<T: Default, const N: usize>(
    data: &mut Bytes,
    n: usize,
    decode: impl Fn([u8; N]) -> T,
) -> Vec<T> {
    let (entries, _) = data.get_slice(n * N).as_chunks::<N>();
    let entries = entries.iter().map(|&bytes| decode(bytes));
    std::iter::once(T::default()).chain(entries).collect()
}

/// State list: count, then the trie node ids of a tree's non-root states,
/// ascending.
fn put_states(buf: &mut BytesMut, pst: &Pst) {
    let nodes = pst.state_nodes();
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

fn state_list_len(pst: &Pst) -> usize {
    8 + (pst.len() - 1) * 4
}

/// Serialize a trained VMM: config, corpus totals, the window trie, the
/// state list.
fn put_vmm(buf: &mut BytesMut, model: &Vmm) {
    let trie = model.window_trie();
    buf.reserve(48 + trie_block_len(trie) + state_list_len(&model.pst));
    put_vmm_config(buf, &model.config);
    put_corpus_totals(buf, model.totals);
    put_trie(buf, trie);
    put_states(buf, &model.pst);
}

/// Reconstruct a VMM serialized with [`put_vmm`].
fn vmm_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<Vmm, String> {
    let config = get_vmm_config(&mut data)?;
    let totals = get_corpus_totals(&mut data)?;
    let trie = get_trie(&mut data, vocabulary)?;
    let states = get_states(&mut data)?;
    expect_consumed(&data)?;
    Vmm::from_parts(trie, &states, totals, config).map_err(|e| e.to_string())
}

/// Serialize a trained MVMM: corpus totals; the window trie; per
/// component its config and its deviation σ; then the merged PST's state
/// list and, per state, its component mask (`u16`).
fn put_mvmm(buf: &mut BytesMut, model: &Mvmm) {
    let pst = model.pst();
    let configs = model.configs();
    buf.reserve(
        28 + trie_block_len(pst.trie()) + 32 * configs.len() + state_list_len(pst) + 2 * pst.len(),
    );
    put_corpus_totals(buf, model.totals);
    put_trie(buf, pst.trie());
    buf.put_u32_le(configs.len() as u32);
    for (config, sigma) in configs.iter().zip(model.sigmas()) {
        put_vmm_config(buf, config);
        buf.put_u64_le(sigma.to_bits());
    }
    put_states(buf, pst);
    for mask in &model.masks[1..] {
        buf.put_slice(&mask.to_le_bytes());
    }
}

/// Reconstruct an MVMM serialized with [`put_mvmm`].
fn mvmm_from_bytes(mut data: Bytes, vocabulary: usize) -> Result<Mvmm, String> {
    let totals = get_corpus_totals(&mut data)?;
    let trie = get_trie(&mut data, vocabulary)?;
    if data.remaining() < 4 {
        return Err("truncated component count".into());
    }
    // 32 bytes per component must follow, which bounds the count before
    // anything is sized by it.
    let n_components = data.get_u32_le() as usize;
    if n_components > data.remaining() / 32 {
        return Err("truncated component table".into());
    }
    let mut configs = Vec::with_capacity(n_components);
    let mut sigmas = Vec::with_capacity(n_components);
    for _ in 0..n_components {
        configs.push(get_vmm_config(&mut data)?);
        sigmas.push(f64::from_bits(data.get_u64_le()));
    }
    let states = get_states(&mut data)?;
    if data.remaining() < 2 * states.len() {
        return Err("truncated mask column".into());
    }
    let masks = get_column(&mut data, states.len(), u16::from_le_bytes);
    expect_consumed(&data)?;
    Mvmm::from_parts(trie, &states, masks, totals, configs, sigmas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Recommender, SequenceScorer};
    use crate::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON};
    use sqp_common::topk::Scored;
    use sqp_common::{seq, QuerySeq};

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

        // Identical probabilities, recommendations, scores.
        for ctx in [
            &[][..],
            &seq(&[0]),
            &seq(&[1]),
            &seq(&[1, 0]),
            &seq(&[1, 1]),
        ] {
            for q in [QueryId(0), QueryId(1), QueryId(7)] {
                assert_eq!(original.cond_prob(ctx, q), restored.cond_prob(ctx, q));
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
        // Every session kept, so the test epoch holds hundreds of contexts.
        let pipeline = sqp_sessions::PipelineConfig {
            reduction_threshold: 0,
        };
        let p = sqp_sessions::process(&logs, &pipeline);
        let original = Vmm::train(&p.train.aggregated.sessions, VmmConfig::bounded(3, 0.02));
        let restored =
            model_from_bytes(ModelKind::Vmm, to_bytes(&original), p.interner.len()).unwrap();
        assert_eq!(
            as_vmm(restored.as_ref()).node_count(),
            original.node_count()
        );
        assert!(p.ground_truth.entries.len() >= 200);
        let answers = |model: &dyn Recommender, ctx: &[QueryId]| -> Vec<(QueryId, u64)> {
            let top = model.recommend(ctx, 5).into_iter();
            top.map(|r| (r.query, r.score.to_bits())).collect()
        };
        for e in &p.ground_truth.entries {
            assert_eq!(
                answers(&original, &e.context),
                answers(restored.as_ref(), &e.context)
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
        assert!(from_bytes(Bytes::from(Vec::new())).is_err());
        assert!(from_bytes(Bytes::from(b"NOPE0000".to_vec())).is_err());
        let blob = to_bytes(&trained());
        for cut in [3, 8, 20, blob.remaining() / 2, blob.remaining() - 1] {
            assert!(
                from_bytes(blob.slice(0..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
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
            // A depth mixture: one trie, read to two bounds.
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
        // An ad-hoc `Recommender` impl: none of the workspace's models.
        struct Adhoc;
        impl Recommender for Adhoc {
            fn name(&self) -> &str {
                "adhoc"
            }
            fn recommend_into(&self, _: &[QueryId], _: usize, out: &mut Vec<Scored>) {
                out.clear();
            }
            fn covers(&self, _: &[QueryId]) -> bool {
                false
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        assert_eq!(ModelKind::of(&Adhoc), None);
        let err = model_to_bytes(&Adhoc).unwrap_err();
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
        assert_eq!(restored.configs(), original.configs());
        assert_eq!(restored.pst().trie(), original.pst().trie());
        let nodes = |m: &Mvmm| m.pst().state_nodes().collect::<Vec<_>>();
        assert_eq!(nodes(restored), nodes(&original));
        assert_eq!(restored.masks, original.masks);
        assert_eq!(restored.memory_bytes(), original.memory_bytes());
        for (s, _) in sessions.iter().take(100) {
            assert_eq!(
                original.sequence_log10_prob(s).to_bits(),
                restored.sequence_log10_prob(s).to_bits()
            );
        }
    }

    // ---- hostile payloads ----

    /// The toy payloads the sweeps below cut and corrupt: small enough to
    /// visit every byte, and between them every section of the four
    /// trie-backed layouts (the mixture's components read its one trie to
    /// two depth bounds).
    fn toy_payloads() -> Vec<(ModelKind, Bytes)> {
        let mixture = Mvmm::train(
            &toy_corpus(),
            &crate::MvmmConfig::depth_mixture(&[(1, 0.0), (2, 0.1), (1, 0.5)]),
        );
        let backoff = BackoffNgram::train(&toy_corpus(), BackoffConfig::default());
        vec![
            (ModelKind::Vmm, to_bytes(&trained())),
            model_to_bytes(&mixture).unwrap(),
            model_to_bytes(&backoff).unwrap(),
            model_to_bytes(&NGram::train(&toy_corpus())).unwrap(),
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
            for cut in 0..blob.remaining() {
                assert!(
                    model_from_bytes(kind, blob.slice(0..cut), 2).is_err(),
                    "{kind:?} cut at {cut}/{} loaded",
                    blob.remaining()
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
            for i in 0..blob.remaining() {
                for mask in [0x01, 0x80, 0xFF] {
                    let mut raw = blob.as_slice().to_vec();
                    raw[i] ^= mask;
                    if let Ok(model) = model_from_bytes(kind, Bytes::from(raw), 2) {
                        exercise(model.as_ref());
                    }
                }
            }
        }
    }

    /// Offset of the toy VMM payload's state list: config (24) + totals
    /// (24) + trie header (12) + columns (24 bytes a row).
    fn vmm_state_list_at(model: &Vmm) -> usize {
        60 + (model.window_trie().len() - 1) * 24
    }

    /// The model's payload with `states` for its state list.
    fn payload_with_states(model: &Vmm, states: &[u32]) -> Vec<u8> {
        let mut raw = to_bytes(model).as_slice().to_vec();
        raw.truncate(vmm_state_list_at(model));
        raw.extend_from_slice(&(states.len() as u64).to_le_bytes());
        for s in states {
            raw.extend_from_slice(&s.to_le_bytes());
        }
        raw
    }

    fn with_states(model: &Vmm, states: &[u32]) -> Result<Box<dyn Recommender>, String> {
        from_bytes(Bytes::from(payload_with_states(model, states)))
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

        // A trie counted to depth 3 under a config bounded at 2: the model
        // reads the trie to its own bound, so a depth-3 window is no state
        // of it, though the trie holds it as a window.
        let deep = Vmm::train(&toy_corpus(), VmmConfig::bounded(3, 0.0));
        let q0q1q0 = deep.window_trie().window(&seq(&[0, 1, 0])).unwrap();
        let mut states: Vec<u32> = deep.pst().state_nodes().collect();
        states.push(q0q1q0);
        assert!(with_states(&deep, &states).is_ok());
        let mut raw = payload_with_states(&deep, &states);
        // Config bytes 8..16: `max_depth`.
        raw[8..16].copy_from_slice(&2u64.to_le_bytes());
        expect_err(from_bytes(Bytes::from(raw)), "not a window node");

        // A list longer than the bytes behind it is refused by its length.
        let mut raw = to_bytes(&model).as_slice().to_vec();
        let at = vmm_state_list_at(&model);
        for claimed in [4u64, 1 << 40, u64::MAX] {
            raw[at..at + 8].copy_from_slice(&claimed.to_le_bytes());
            expect_err(from_bytes(Bytes::from(raw.clone())), "truncated state list");
        }
        // And bytes past an honest list are not ignored.
        let mut raw = to_bytes(&model).as_slice().to_vec();
        raw.push(0);
        expect_err(from_bytes(Bytes::from(raw)), "trailing");
    }

    #[test]
    fn a_hostile_mixture_is_rejected() {
        let mixture = Mvmm::train(&toy_corpus(), &crate::MvmmConfig::small());
        let blob = model_to_bytes(&mixture).unwrap().1.as_slice().to_vec();
        let load = |raw: Vec<u8>| model_from_bytes(ModelKind::Mvmm, Bytes::from(raw), 2);
        // totals (24), trie header (12) + columns, then K.
        let k_at = 36 + (mixture.pst().trie().len() - 1) * 24;
        let read_u32 = |at: usize| u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
        assert_eq!(read_u32(k_at), 3);
        // First component: config (24), then σ; 32 bytes a component.
        let sigma_at = k_at + 4 + 24;
        assert_eq!(
            blob[sigma_at..sigma_at + 8],
            mixture.sigmas()[0].to_bits().to_le_bytes()
        );
        // Then the merged state list, and a `u16` mask per state.
        let states_at = k_at + 4 + 3 * 32;
        let n_states = mixture.pst().len() - 1;
        let masks_at = states_at + 8 + 4 * n_states;
        assert_eq!(masks_at + 2 * n_states, blob.len());
        let with_mask = |state: usize, mask: u16| {
            let mut raw = blob.clone();
            let at = masks_at + 2 * (state - 1);
            raw[at..at + 2].copy_from_slice(&mask.to_le_bytes());
            load(raw)
        };
        assert!(with_mask(1, mixture.masks[1]).is_ok());

        for sigma in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut raw = blob.clone();
            raw[sigma_at..sigma_at + 8].copy_from_slice(&sigma.to_bits().to_le_bytes());
            expect_err(load(raw), "not finite and positive");
        }
        // A count the remaining bytes cannot hold.
        for claimed in [1_000u32, u32::MAX] {
            let mut raw = blob.clone();
            raw[k_at..k_at + 4].copy_from_slice(&claimed.to_le_bytes());
            expect_err(load(raw), "component table");
        }
        // No components at all.
        let mut raw = blob[..k_at].to_vec();
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(&blob[states_at..]);
        expect_err(load(raw), "at least one component");
        // More components than a mask has bits: 17 whole entries.
        let mut raw = blob[..k_at].to_vec();
        raw.extend_from_slice(&17u32.to_le_bytes());
        for _ in 0..17 {
            raw.extend_from_slice(&blob[k_at + 4..k_at + 36]);
        }
        raw.extend_from_slice(&blob[states_at..]);
        expect_err(load(raw), "at most 16");

        // A bit past K, and a state of no component.
        expect_err(with_mask(1, mixture.masks[1] | 1 << 3), "component 3 of 3");
        expect_err(with_mask(1, 1 << 15), "component 15 of 3");
        expect_err(with_mask(1, 0), "no component");
        // The first component (ε = 0) keeps the depth-2 windows; take one
        // away from its one-shorter suffix, a depth-1 state.
        let deep = (1..mixture.pst().len() as u32)
            .find(|&s| mixture.pst().parent(s) != 0 && mixture.masks[s as usize] & 1 == 1)
            .expect("a depth-2 state of component 0");
        let parent = mixture.pst().parent(deep) as usize;
        expect_err(
            with_mask(parent, mixture.masks[parent] & !1),
            "its one-shorter suffix lacks",
        );
        // A bound below a state: component 0's `max_depth` (config bytes
        // 8..16) becomes Some(1).
        let mut raw = blob.clone();
        raw[k_at + 12..k_at + 20].copy_from_slice(&1u64.to_le_bytes());
        expect_err(load(raw), "deeper than component 0's bound");
        // A mask column cut short, by one byte or by one mask.
        for cut in [1, 2] {
            let mut raw = blob.clone();
            raw.truncate(blob.len() - cut);
            expect_err(load(raw), "truncated mask column");
        }
    }

    #[test]
    fn crafted_overflowing_counts_are_rejected_not_panicked() {
        // A syntactically valid Backoff payload whose root children's
        // totals sum past u64::MAX — load must return Err (never a
        // debug-build panic or a wrapped total).
        let mut buf = BytesMut::with_capacity(84);
        buf.put_u64_le(u64::MAX); // max_order: unbounded
        buf.put_f64_le(0.5); // discount
        buf.put_u64_le(1); // min_support
        buf.put_u32_le(1); // window_len
        buf.put_u64_le(2); // n_rows: [0] and [1]
        [0, 0].into_iter().for_each(|p| buf.put_u32_le(p)); // parent
        [0, 1].into_iter().for_each(|q| buf.put_u32_le(q)); // key
        [u64::MAX; 2].into_iter().for_each(|t| buf.put_u64_le(t)); // total
        [0, 0].into_iter().for_each(|a| buf.put_u64_le(a)); // at_start
        let err = match model_from_bytes(ModelKind::Backoff, buf.freeze(), 2) {
            Err(e) => e,
            Ok(_) => panic!("overflowing counts loaded successfully"),
        };
        assert!(err.contains("overflow"), "{err}");
    }

    #[test]
    fn a_trie_that_is_not_a_prefix_trie_is_no_ngram() {
        let blob = model_to_bytes(&NGram::train(&toy_corpus())).unwrap().1;
        assert!(model_from_bytes(ModelKind::NGram, blob.clone(), 2).is_ok());
        // Header (12), then parent, key (4 bytes a row), total, at_start (8).
        let rows = (blob.remaining() - 12) / 24;
        let last_at_start = 12 + rows * 24 - 8;
        let mut raw = blob.as_slice().to_vec();
        raw[last_at_start] ^= 1;
        expect_err(
            model_from_bytes(ModelKind::NGram, Bytes::from(raw), 2),
            &format!("node {rows} is not a prefix"),
        );
        // The window trie of the same sessions counts mid-session windows.
        let windows = crate::counts::WindowCounts::build(&toy_corpus(), None);
        let mut buf = BytesMut::default();
        put_trie(&mut buf, windows.trie());
        expect_err(
            model_from_bytes(ModelKind::NGram, buf.freeze(), 2),
            "is not a prefix",
        );
    }

    #[test]
    fn tagged_payloads_reject_truncation() {
        let sessions = sim_sessions();
        for kind in ModelKind::ALL {
            let (_, blob) = model_to_bytes(trained_kind(kind, &sessions).as_ref()).unwrap();
            let vocabulary = vocabulary(&sessions);
            for cut in [
                0,
                3,
                7,
                blob.remaining() / 3,
                blob.remaining() / 2,
                blob.remaining() - 1,
            ] {
                assert!(
                    model_from_bytes(kind, blob.slice(0..cut), vocabulary).is_err(),
                    "{kind:?} cut at {cut} should fail"
                );
            }
            // Trailing garbage after a complete payload must be rejected.
            let mut raw = blob.as_slice().to_vec();
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
