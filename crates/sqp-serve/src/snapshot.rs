//! Immutable trained-model snapshots — the unit of publication.
//!
//! A [`ModelSnapshot`] bundles everything one trained model needs to answer
//! suggestions: the frozen [`Interner`] that maps query text to the dense
//! ids the model was trained over, the model itself, and training metadata.
//! Snapshots are **immutable after construction** — the serving engine
//! shares one behind an [`Arc`](std::sync::Arc) across every worker thread
//! and swaps the whole bundle atomically when a retrain finishes. Keeping
//! the interner inside the snapshot is what makes the swap safe: a
//! `QueryId` is only meaningful relative to the interner that produced it,
//! so ids resolved against snapshot N are never mixed with a model from
//! snapshot N+1.

use crate::answer::{build_list, QueryText};
use crate::session::Session;
use crate::sink::SuggestSink;
use sqp_common::scratch;
use sqp_common::topk::Scored;
use sqp_common::{Interner, QueryId};
use sqp_core::{ModelSpec, Recommender};
use sqp_logsim::RawLogRecord;
use sqp_sessions::{aggregate, reduce_in_place, segment_with_parallelism, DEFAULT_CUTOFF_SECS};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// [`ModelSnapshot::suggest`]'s resolved context and ranked candidates.
    static CONTEXT: RefCell<(Vec<QueryId>, Vec<Scored>)> = RefCell::default();
}

/// The next [`ModelSnapshot`] identity. Identities are what sessions tag
/// their cached ids with, so they must never repeat within a process — an
/// address would, as soon as a dropped snapshot's allocation is reused.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// The covered-context rule, stated once: append the known ids of `entries`
/// (a context oldest → newest, `None` = unknown to the snapshot) to `ids`.
/// Suffix-matching models skip an unknown prefix, but an unknown *current*
/// query means no evidence at all — so when the context is empty or its
/// final entry is unknown this returns `false` and leaves `ids` as it was.
fn extend_covered(
    entries: impl IntoIterator<Item = Option<QueryId>>,
    ids: &mut Vec<QueryId>,
) -> bool {
    let start = ids.len();
    let mut final_known = false;
    for entry in entries {
        final_known = entry.is_some();
        ids.extend(entry);
    }
    if !final_known {
        ids.truncate(start);
    }
    final_known
}

/// Training parameters for building a snapshot from raw logs.
#[derive(Clone, Debug)]
pub struct TrainingConfig {
    /// Session cutoff for the 30-minute rule, in seconds.
    pub session_cutoff_secs: u64,
    /// Drop aggregated sessions with frequency ≤ this.
    pub reduction_threshold: u64,
    /// The model to train.
    pub model: ModelSpec,
    /// Run segmentation's two passes — the key pass over the raw records
    /// and the per-machine sort + cut — on several threads. The trained
    /// model is byte-identical either way; production builds want this on.
    /// Window counting and PST growth size their own threads from the host
    /// and the amount of work, whatever this says.
    pub parallel: bool,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self {
            session_cutoff_secs: DEFAULT_CUTOFF_SECS,
            reduction_threshold: 0,
            model: ModelSpec::default(),
            parallel: true,
        }
    }
}

/// A ranked suggestion.
#[derive(Clone, Debug, PartialEq)]
pub struct Suggestion {
    /// Suggested query text: a span of the one text buffer its whole
    /// answer shares, which it keeps alive — at most one reply frame's
    /// worth — until the answer's last suggestion drops (see
    /// [`QueryText`]).
    pub query: QueryText,
    /// Model score (higher is better).
    pub score: f64,
}

/// A trained model plus the interner it was trained against, frozen for
/// concurrent serving.
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let mut records = Vec::new();
/// for u in 0..5 {
///     records.push(rec(u, 100, "rust"));
///     records.push(rec(u, 160, "rust atomics"));
/// }
/// let snapshot = ModelSnapshot::from_raw_logs(
///     &records,
///     &TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() },
/// );
/// let top = snapshot.suggest(&["rust"], 1);
/// assert_eq!(top[0].query, "rust atomics");
/// ```
pub struct ModelSnapshot {
    /// Process-unique and fixed for the snapshot's life: every handle to
    /// one snapshot reads the same identity, no two snapshots share one.
    id: u64,
    interner: Interner,
    model: Box<dyn Recommender>,
    trained_sessions: u64,
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelSnapshot")
            .field("model", &self.model.name())
            .field("vocabulary", &self.interner.len())
            .field("trained_sessions", &self.trained_sessions)
            .finish_non_exhaustive()
    }
}

impl ModelSnapshot {
    /// Build from raw click-log records: sessionize, aggregate, reduce,
    /// train.
    pub fn from_raw_logs(records: &[RawLogRecord], cfg: &TrainingConfig) -> Self {
        let sessions = segment_with_parallelism(records, cfg.session_cutoff_secs, cfg.parallel);
        let mut interner = Interner::new();
        let mut reduced = aggregate(&sessions, &mut interner);
        reduce_in_place(&mut reduced, cfg.reduction_threshold);
        let trained_sessions = reduced.total_sessions();
        let model = cfg.model.train(&reduced.sessions);
        Self::from_parts(interner, model, trained_sessions)
    }

    /// Assemble from an already-trained model and the interner its ids are
    /// relative to. `trained_sessions` is the session mass used in training
    /// (metadata only).
    pub fn from_parts(
        interner: Interner,
        model: Box<dyn Recommender>,
        trained_sessions: u64,
    ) -> Self {
        Self {
            // Relaxed: the counter orders nothing, it only never repeats.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            interner,
            model,
            trained_sessions,
        }
    }

    /// Resolve a textual context into `ids` (cleared first).
    ///
    /// Unknown queries are skipped unless they are the final query —
    /// suffix-matching models skip an unknown prefix, but an unknown
    /// *current* query means no evidence at all. Returns `false` (and
    /// leaves `ids` empty) when the context is empty or its final query is
    /// unknown.
    pub fn resolve_context_into<'a, I>(&self, context: I, ids: &mut Vec<QueryId>) -> bool
    where
        I: IntoIterator<Item = &'a str>,
    {
        ids.clear();
        extend_covered(context.into_iter().map(|q| self.interner.get(q)), ids)
    }

    /// [`resolve_context_into`](Self::resolve_context_into) for a tracked
    /// session, **appending** to `ids`: the same rule over the same
    /// context, fed from the session's id cache — which probes this
    /// snapshot's interner only for entries it does not already hold under
    /// this snapshot's identity.
    pub(crate) fn extend_from_session(
        &self,
        session: &mut Session,
        ids: &mut Vec<QueryId>,
    ) -> bool {
        extend_covered(session.ids_under(self.id, |q| self.interner.get(q)), ids)
    }

    /// Top-`k` candidates for a pre-resolved context, written into a reused
    /// buffer (cleared first). The serve paths call this once per request
    /// with per-thread scratch, so a steady-state suggest performs no
    /// intermediate allocations.
    pub fn recommend_ids_into(&self, ids: &[QueryId], k: usize, out: &mut Vec<Scored>) {
        self.model.recommend_into(ids, k, out);
    }

    /// Write scored ids to `sink` as one list of `(text, score)` — with
    /// [`render_into`](Self::render_into), the one place in the workspace
    /// where a model's ids become query text. The text is borrowed from
    /// the snapshot's interner; what it costs to keep is the sink's
    /// business (a wire frame copies the bytes once, a
    /// [`FlatAnswer`](crate::FlatAnswer) appends them to its one buffer).
    pub fn render(&self, scored: &[Scored], sink: &mut dyn SuggestSink) {
        sink.list(scored.len());
        for s in scored {
            sink.suggestion(self.interner.resolve(s.query), s.score);
        }
    }

    /// [`render`](Self::render) as an owned list, appended to `out`: the
    /// texts are joined in a per-thread buffer and copied once into the
    /// one text every suggestion's [`QueryText`] is a span of — that text
    /// and `out`'s growth, whatever `k` is.
    pub fn render_into(&self, scored: &[Scored], out: &mut Vec<Suggestion>) {
        let texts = scored
            .iter()
            .map(|s| (self.interner.resolve(s.query), s.score));
        build_list(texts, out);
    }

    /// Top-`k` suggestions for the session so far (oldest query first).
    /// Empty when the context is uncovered. The ids and the ranking go
    /// through per-thread scratch, so a warmed-up call allocates only the
    /// list it returns ([`render_into`](Self::render_into)).
    pub fn suggest(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        scratch::with(&CONTEXT, |(ids, scored)| {
            scored.clear();
            if self.resolve_context_into(context.iter().copied(), ids) {
                self.recommend_ids_into(ids, k, scored);
            }
            let mut out = Vec::new();
            self.render_into(scored, &mut out);
            out
        })
    }

    /// Can the snapshot say anything for this context?
    pub fn covers(&self, context: &[&str]) -> bool {
        let mut ids = Vec::new();
        self.resolve_context_into(context.iter().copied(), &mut ids) && self.model.covers(&ids)
    }

    /// Name of the underlying model.
    pub fn model_name(&self) -> &str {
        self.model.name()
    }

    /// Session mass the model was trained on.
    pub fn trained_sessions(&self) -> u64 {
        self.trained_sessions
    }

    /// Distinct queries known to the snapshot.
    pub fn vocabulary_size(&self) -> usize {
        self.interner.len()
    }

    /// Approximate model heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.model.memory_bytes()
    }

    /// The frozen interner the model's ids are relative to.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The trained model.
    pub fn model(&self) -> &dyn Recommender {
        self.model.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_core::{ModelKind, Mvmm, Vmm, VmmConfig};

    /// The whole serving stack must be shareable across threads: every
    /// model behind the `Recommender` trait object, the snapshot bundle,
    /// and the engine. A model growing interior mutability (Cell, RefCell,
    /// un-synchronized caches) would fail to compile here.
    #[test]
    fn serving_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<sqp_core::Adjacency>();
        assert_send_sync::<sqp_core::Cooccurrence>();
        assert_send_sync::<sqp_core::NGram>();
        assert_send_sync::<Vmm>();
        assert_send_sync::<Mvmm>();
        assert_send_sync::<Box<dyn Recommender>>();
        assert_send_sync::<ModelSnapshot>();
        assert_send_sync::<crate::ServeEngine>();
        assert_send_sync::<crate::SessionTracker>();
        assert_send_sync::<crate::Swap<ModelSnapshot>>();
    }

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn snapshot() -> ModelSnapshot {
        let mut records = Vec::new();
        for u in 0..8 {
            records.push(rec(u, 100, "garden"));
            records.push(rec(u, 180, "garden shed"));
        }
        ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
                ..TrainingConfig::default()
            },
        )
    }

    #[test]
    fn every_spec_trains_the_kind_it_names() {
        for spec in [
            ModelSpec::default(),
            ModelSpec::Vmm(VmmConfig::default()),
            ModelSpec::Adjacency,
            ModelSpec::Cooccurrence,
            ModelSpec::NGram,
            ModelSpec::Backoff(sqp_core::BackoffConfig::default()),
        ] {
            let trained = ModelSnapshot::from_raw_logs(
                &[rec(1, 100, "garden"), rec(1, 180, "garden shed")],
                &TrainingConfig {
                    model: spec.clone(),
                    ..TrainingConfig::default()
                },
            );
            assert_eq!(
                ModelKind::of(trained.model()),
                Some(spec.kind()),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn suggests_and_covers() {
        let s = snapshot();
        let top = s.suggest(&["garden"], 2);
        assert_eq!(top[0].query, "garden shed");
        assert!(s.covers(&["garden"]));
        assert!(!s.covers(&["unknown query"]));
        assert!(s.suggest(&[], 3).is_empty());
    }

    #[test]
    fn unknown_prefix_is_skipped_unknown_tail_rejected() {
        let s = snapshot();
        let mut ids = Vec::new();
        assert!(s.resolve_context_into(["never seen", "garden"].into_iter(), &mut ids));
        assert_eq!(ids.len(), 1);
        assert!(!s.resolve_context_into(["garden", "never seen"].into_iter(), &mut ids));
    }

    #[test]
    fn metadata_accessors() {
        let s = snapshot();
        assert_eq!(s.model_name(), "VMM (0.05)");
        assert_eq!(s.vocabulary_size(), 2);
        assert_eq!(s.trained_sessions(), 8);
        assert!(s.memory_bytes() > 0);
        assert!(s.interner().get("garden").is_some());
        assert!(s.model().covers(&[s.interner().get("garden").unwrap()]));
    }

    #[test]
    fn buffered_path_matches_convenience_path() {
        let s = snapshot();
        let mut ids = Vec::new();
        let mut scored = Vec::new();
        let mut out = Vec::new();
        assert!(s.resolve_context_into(["garden"].into_iter(), &mut ids));
        s.recommend_ids_into(&ids, 2, &mut scored);
        s.render_into(&scored, &mut out);
        assert_eq!(out, s.suggest(&["garden"], 2));
    }
}
