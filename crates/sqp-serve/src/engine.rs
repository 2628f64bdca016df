//! The serving engine: session tracking in front of a hot-swappable model.
//!
//! [`ServeEngine`] is the piece a search front-end embeds. It owns a
//! [`SessionTracker`] and the current [`ModelSnapshot`] behind a [`Swap`]
//! cell, and exposes the four operations live traffic needs:
//!
//! * [`track`](ServeEngine::track) — record a user's query;
//! * [`suggest`](ServeEngine::suggest) /
//!   [`suggest_batch`](ServeEngine::suggest_batch) — rank next-query
//!   candidates for tracked sessions (batched requests amortize the
//!   snapshot read, carry stripe locks across same-shard runs, and reuse
//!   id/top-k buffers across the batch);
//! * [`suggest_context`](ServeEngine::suggest_context) — stateless
//!   suggestion for an explicit context;
//! * [`publish`](ServeEngine::publish) — atomically swap in a freshly
//!   trained snapshot while concurrent readers keep serving the old one.
//!
//! # One suggest path, written to a sink
//!
//! The session-backed suggest operations exist once, as
//! [`suggest_batch_into`](ServeEngine::suggest_batch_into) (a single
//! `suggest` is a batch of one) and
//! [`track_and_suggest_into`](ServeEngine::track_and_suggest_into). Both
//! write their answer to a [`SuggestSink`] — one `list` per request, in
//! request order, with every session lock already released — through
//! per-thread scratch buffers, so between the session lookup and the sink
//! a warmed-up call allocates nothing. The `Vec`-returning methods run the
//! same paths: a single list is built straight from the ranked ids
//! ([`ModelSnapshot::render_into`]), a batch is converted from this
//! thread's [`FlatAnswer`]. Neither takes an admission permit:
//! the admission-controlled sink forms are the engine's
//! [`ServeSurface`](crate::ServeSurface) impl, which takes the permit
//! first and therefore never touches the sink on a shed.
//!
//! Every suggestion is computed against exactly one snapshot, read once at
//! the start of the request, so a mid-request publication can never mix
//! two models' vocabularies (no torn reads — asserted by the concurrency
//! tests in the umbrella crate).
//!
//! # What a request writes
//!
//! A steady-state request — a track, a track-and-suggest, a suggest or a
//! batch entry — writes no cache line that a request on another stripe
//! also writes. It reads the snapshot through [`Swap::with`], which
//! revalidates this thread's cached handle with one load of the cell's
//! generation and touches neither a lock word nor a reference count; and
//! it counts itself in its session stripe's own counters, under the stripe
//! lock it holds anyway. [`stats`](ServeEngine::stats) sums the stripes.
//! Only the stateless [`suggest_context`](ServeEngine::suggest_context),
//! which has no stripe, keeps a counter of its own.

use crate::answer::FlatAnswer;
use crate::session::{SessionTracker, TrackOutcome, TrackerConfig};
use crate::sink::SuggestSink;
use crate::snapshot::{ModelSnapshot, Suggestion};
use crate::swap::Swap;
use sqp_common::hazard::{Hazard, NoHazard};
use sqp_common::scratch;
use sqp_common::topk::Scored;
use sqp_common::QueryId;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The suggest path's working buffers, kept per thread so a warmed-up
/// request allocates nothing between the session lookup and the sink.
#[derive(Default)]
struct Scratch {
    /// Flat arena of a call's covered contexts, as ids.
    ids: Vec<QueryId>,
    /// Per request: its range in `ids`, or `None` when there is nothing to
    /// rank against.
    spans: Vec<Option<(usize, usize)>>,
    /// One request's ranked candidates.
    topk: Vec<Scored>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Engine construction parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineConfig {
    /// Session-tracker sizing and eviction parameters.
    pub tracker: TrackerConfig,
    /// Admission-control budget: maximum requests simultaneously in flight
    /// through the `try_*` serve paths before [`ServeEngine::admit`] sheds
    /// with [`Overloaded`]. `0` (the default) disables the limit.
    pub max_in_flight: usize,
}

/// Typed rejection from [`ServeEngine::admit`]: the in-flight budget is
/// exhausted and the request was shed instead of queued.
///
/// Shedding is deliberate back-pressure — under overload, answering fewer
/// requests quickly beats answering all of them late. Callers translate
/// this into their transport's "retry later" (HTTP 503 + Retry-After).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The configured budget that was exhausted.
    pub limit: usize,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve engine overloaded ({} requests in flight)",
            self.limit
        )
    }
}

impl std::error::Error for Overloaded {}

/// RAII admission token from [`ServeEngine::admit`]; the in-flight slot is
/// released when the permit drops (including on panic, so an injected
/// worker crash cannot leak budget).
#[derive(Debug)]
pub struct InFlightPermit<'a> {
    in_flight: &'a AtomicU64,
}

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One entry of a batched suggestion request.
#[derive(Clone, Copy, Debug)]
pub struct SuggestRequest {
    /// The user whose tracked context to rank against.
    pub user: u64,
    /// How many candidates to return.
    pub k: usize,
}

/// Operation counters and gauges, snapshotted without taking any stripe
/// lock — [`ServeEngine::stats`] is plain atomic loads, so a stats poller
/// (e.g. a router collecting per-replica health every tick) never contends
/// with `track_and_suggest` traffic.
///
/// `tracks` and `suggests` count work that was **accepted**: a request
/// shed by admission control adds one to `shed` and nothing else (a shed
/// router batch contributes nothing to any replica's `suggests`, however
/// many replicas it would have touched), and a track refused by draining
/// mode counts in [`ServeEngine::drain_refused`] only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries recorded via `track` (including the tracked half of
    /// `track_and_suggest`). Refused and shed tracks recorded nothing and
    /// are not counted.
    pub tracks: u64,
    /// Suggestion computations served (batch entries count individually;
    /// an entry answered with the empty list was still served).
    pub suggests: u64,
    /// Snapshots published: the surface's model generation (for a tier,
    /// the fully-propagated one — see [`EngineStats::fold`]).
    pub publishes: u64,
    /// Requests shed by admission control ([`ServeEngine::admit`] refusals).
    pub shed: u64,
    /// Sessions dropped by [`ServeEngine::evict_idle`] over the engine's
    /// lifetime (monotonic; lazy per-`track` resets are not counted).
    pub evictions: u64,
    /// Sessions currently resident in the tracker (a gauge, not a counter —
    /// it goes down when sessions are evicted or cleared).
    pub active_sessions: u64,
}

impl EngineStats {
    /// A tier's record from its members': `tracks`, `suggests`, `shed`,
    /// `evictions` and `active_sessions` sum, while `publishes` is the
    /// minimum — the generation every member has reached. No members fold
    /// to all zeros.
    pub fn fold(members: impl IntoIterator<Item = EngineStats>) -> EngineStats {
        members
            .into_iter()
            .reduce(|a, b| EngineStats {
                tracks: a.tracks + b.tracks,
                suggests: a.suggests + b.suggests,
                publishes: a.publishes.min(b.publishes),
                shed: a.shed + b.shed,
                evictions: a.evictions + b.evictions,
                active_sessions: a.active_sessions + b.active_sessions,
            })
            .unwrap_or_default()
    }
}

/// A concurrent query-suggestion server over a hot-swappable model.
///
/// All methods take `&self`; the engine is meant to live in an
/// [`Arc`] shared across worker threads.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let mut records = Vec::new();
/// for u in 0..5 {
///     records.push(rec(u, 100, "rust"));
///     records.push(rec(u, 150, "rust atomics"));
/// }
/// let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let snapshot = Arc::new(ModelSnapshot::from_raw_logs(&records, &cfg));
/// let engine = ServeEngine::new(snapshot, EngineConfig::default());
///
/// engine.track(42, "rust", 1_000);
/// let top = engine.suggest(42, 3, 1_010);
/// assert_eq!(top[0].query, "rust atomics");
/// ```
pub struct ServeEngine {
    tracker: SessionTracker,
    current: Swap<ModelSnapshot>,
    /// Stateless suggestions served; every session-backed one is counted
    /// in its stripe.
    context_suggests: AtomicU64,
    evictions: AtomicU64,
    max_in_flight: usize,
    in_flight: AtomicU64,
    shed: AtomicU64,
    hazard: Arc<dyn Hazard>,
    /// Precomputed `"serve.shard.N"` hazard-site names, one per stripe, so
    /// the hot path never formats strings to announce a seam crossing.
    shard_sites: Box<[String]>,
    /// Draining mode: existing sessions keep being served, new ones are
    /// refused (see [`ServeEngine::set_draining`]).
    draining: AtomicBool,
    /// Tracks refused because the engine was draining and the query would
    /// have started a new session.
    drain_refused: AtomicU64,
}

impl ServeEngine {
    /// Build an engine serving `snapshot` with the production (no-op)
    /// hazard.
    pub fn new(snapshot: Arc<ModelSnapshot>, cfg: EngineConfig) -> Self {
        Self::with_hazard(snapshot, cfg, Arc::new(NoHazard))
    }

    /// Build an engine whose serve-path chaos seams strike `hazard` —
    /// production code never needs this; fault-injection harnesses pass the
    /// chaos runtime here to stall or crash requests at deterministic
    /// points.
    pub fn with_hazard(
        snapshot: Arc<ModelSnapshot>,
        cfg: EngineConfig,
        hazard: Arc<dyn Hazard>,
    ) -> Self {
        let tracker = SessionTracker::new(cfg.tracker);
        let shard_sites = (0..tracker.num_shards())
            .map(|i| format!("serve.shard.{i}"))
            .collect();
        Self {
            tracker,
            current: Swap::new(snapshot),
            context_suggests: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_in_flight: cfg.max_in_flight,
            in_flight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            hazard,
            shard_sites,
            draining: AtomicBool::new(false),
            drain_refused: AtomicU64::new(0),
        }
    }

    /// Enter or leave draining mode.
    ///
    /// A draining engine keeps serving every **existing** live session —
    /// tracks, suggests, batches — but refuses any track that would start
    /// a **new** session (first contact, or a return past the idle
    /// cutoff). A refused track returns the sentinel outcome
    /// `TrackOutcome { new_session: false, context_len: 0 }` (impossible
    /// for an admitted track, which always has `context_len ≥ 1`) and is
    /// counted in [`ServeEngine::drain_refused`]. This is the serve-layer
    /// half of a membership drain: routing stops sending new users here,
    /// and stragglers cannot take root while the replica winds down.
    pub fn set_draining(&self, draining: bool) {
        self.draining.store(draining, Ordering::Release);
    }

    /// True when the engine is refusing new sessions (see
    /// [`ServeEngine::set_draining`]).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Tracks refused in draining mode because they would have started a
    /// new session. Monotonic over the engine's lifetime.
    pub fn drain_refused(&self) -> u64 {
        self.drain_refused.load(Ordering::Relaxed)
    }

    /// The sentinel outcome for a track refused by draining mode.
    fn refuse_drain(&self) -> TrackOutcome {
        self.drain_refused.fetch_add(1, Ordering::Relaxed);
        TrackOutcome {
            new_session: false,
            context_len: 0,
        }
    }

    /// Reserve an in-flight slot, or shed with [`Overloaded`] when the
    /// configured budget (`max_in_flight`, 0 = unlimited) is exhausted. The
    /// returned permit releases the slot on drop — hold it across the work
    /// the admission should cover. The `try_*` serve methods bundle this;
    /// `admit` is public for callers wrapping their own request pipelines.
    pub fn admit(&self) -> Result<InFlightPermit<'_>, Overloaded> {
        let occupied = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if self.max_in_flight != 0 && occupied >= self.max_in_flight as u64 {
            // Roll back the optimistic reservation and count the shed.
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(Overloaded {
                limit: self.max_in_flight,
            });
        }
        Ok(InFlightPermit {
            in_flight: &self.in_flight,
        })
    }

    /// Requests currently holding admission permits.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Record a query issued by `user` at `now` (seconds since any fixed
    /// epoch — only gaps matter).
    pub fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome {
        if self.is_draining() {
            self.tracker
                .track_existing(user, query, now)
                .unwrap_or_else(|| self.refuse_drain())
        } else {
            self.tracker.track(user, query, now)
        }
    }

    /// Record `query` for `user` and immediately suggest against the
    /// updated context — the common search-box round trip — writing
    /// exactly one list to `sink`. One snapshot read and one stripe
    /// acquisition: the context is updated and its ids read out in the same
    /// critical section (one interner probe, for the new query, while the
    /// session's cache is current under the loaded snapshot), and model
    /// inference runs after the lock is released. A track refused by
    /// draining mode answers the empty list.
    pub(crate) fn track_and_suggest_into(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) {
        self.track_and_suggest_with(user, query, k, now, |snapshot, topk| {
            snapshot.render(topk, sink)
        });
    }

    /// The one track-and-suggest path: `render` gets the snapshot and the
    /// ranked ids, once, after the stripe lock is released.
    fn track_and_suggest_with(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        render: impl FnOnce(&ModelSnapshot, &[Scored]),
    ) {
        let draining = self.is_draining();
        self.current.with(|snapshot| {
            scratch::with(&SCRATCH, |scratch| {
                scratch.ids.clear();
                scratch.topk.clear();
                let covered = {
                    let shard_idx = self.tracker.shard_index(user);
                    let stripe = self.tracker.stripe(shard_idx);
                    let mut shard = stripe.lock();
                    // Chaos seam, struck while the stripe is held: an injected
                    // panic here poisons the lock, exercising the tracker's
                    // poison recovery; an injected stall models a slow shard.
                    self.hazard.strike(&self.shard_sites[shard_idx]);
                    // Same rule as `SessionTracker::track_existing`, applied
                    // inside this path's own critical section: a draining
                    // engine extends only a session that is live *right now*.
                    let cutoff = self.tracker.config().idle_cutoff_secs;
                    let refused = draining
                        && !shard.sessions.get(&user).is_some_and(|state| {
                            !state.is_empty() && now.saturating_sub(state.last_seen) <= cutoff
                        });
                    if refused {
                        drop(shard);
                        self.refuse_drain();
                        false
                    } else {
                        stripe.count(1, 1);
                        let (_, state, inserted) =
                            shard.track(user, query, now, self.tracker.config());
                        stripe.note_insert(inserted);
                        snapshot.extend_from_session(state, &mut scratch.ids)
                    }
                };
                if covered {
                    snapshot.recommend_ids_into(&scratch.ids, k, &mut scratch.topk);
                }
                render(snapshot, &scratch.topk);
            })
        });
    }

    /// Batched suggestion: rank every request against **one** snapshot
    /// read up front and write one list per request to `sink`, in
    /// request order. Runs in two phases so that no model inference (and
    /// no sink call) ever happens under a session lock:
    ///
    /// 1. **Resolve** — walk the requests in order, carrying the stripe
    ///    lock across consecutive requests that hash to the same shard,
    ///    count each request in its stripe, and copy each live context out
    ///    as interned ids into one flat arena.
    ///    The critical section per request is a map probe plus a copy of
    ///    the session's cached ids — or, for a session last resolved under
    ///    another snapshot, one interner lookup per context entry.
    /// 2. **Rank** — with all locks released, run `recommend_into` per
    ///    request through a single reused top-k buffer and render each
    ///    result straight into the sink.
    ///
    /// Callers that pre-group users by shard get maximal lock amortization
    /// for free. At most one stripe lock is ever held, and it is released
    /// before the next stripe is taken, so concurrent batches cannot
    /// deadlock whatever their request orders. The arena, the spans and
    /// the top-k buffer are per-thread scratch, so a warmed-up call
    /// allocates nothing of its own.
    pub fn suggest_batch_into(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
    ) {
        self.suggest_batch_with(requests, now, |snapshot, topk| snapshot.render(topk, sink));
    }

    /// The one batch path: `render` gets the snapshot and each request's
    /// ranked ids, in request order, with every stripe lock released.
    fn suggest_batch_with(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        mut render: impl FnMut(&ModelSnapshot, &[Scored]),
    ) {
        let cutoff = self.tracker.config().idle_cutoff_secs;
        self.current.with(|snapshot| {
            scratch::with(&SCRATCH, |scratch| {
                let Scratch { ids, spans, topk } = scratch;
                // Phase 1: copy covered contexts out as ids. `spans[i]` is the
                // request's range within the flat `ids` arena, or `None` when
                // the session is absent, expired, or its context is uncovered.
                ids.clear();
                spans.clear();
                let mut held: Option<(usize, std::sync::MutexGuard<'_, crate::session::Shard>)> =
                    None;
                for req in requests {
                    let shard_idx = self.tracker.shard_index(req.user);
                    let stripe = self.tracker.stripe(shard_idx);
                    if !matches!(&held, Some((idx, _)) if *idx == shard_idx) {
                        // Release the previous stripe *before* locking the
                        // next: at most one stripe lock is ever held, so
                        // concurrent batches cannot form a lock-order cycle.
                        drop(held.take());
                        held = Some((shard_idx, stripe.lock()));
                        // Chaos seam: same semantics as in
                        // `track_and_suggest_into`.
                        self.hazard.strike(&self.shard_sites[shard_idx]);
                    }
                    let (_, guard) = held.as_mut().expect("stripe lock just taken");
                    stripe.count(0, 1);
                    let start = ids.len();
                    let covered = match guard.sessions.get_mut(&req.user) {
                        Some(state) if now.saturating_sub(state.last_seen) <= cutoff => {
                            snapshot.extend_from_session(state, ids)
                        }
                        _ => false,
                    };
                    spans.push(covered.then_some((start, ids.len())));
                }
                drop(held);

                // Phase 2: model inference and rendering, lock-free.
                for (req, span) in requests.iter().zip(spans.iter()) {
                    topk.clear();
                    if let Some((start, end)) = *span {
                        snapshot.recommend_ids_into(&ids[start..end], req.k, topk);
                    }
                    render(snapshot, topk);
                }
            })
        });
    }

    /// Top-`k` suggestions for `user`'s tracked session — a batch of one.
    /// Empty when the user has no live session or the context is
    /// uncovered by the current model.
    pub fn suggest(&self, user: u64, k: usize, now: u64) -> Vec<Suggestion> {
        let mut out = Vec::new();
        self.suggest_batch_with(&[SuggestRequest { user, k }], now, |snapshot, topk| {
            snapshot.render_into(topk, &mut out)
        });
        out
    }

    /// `track_and_suggest_into` as an
    /// owned list, built directly
    /// ([`ModelSnapshot::render_into`]).
    pub fn track_and_suggest(&self, user: u64, query: &str, k: usize, now: u64) -> Vec<Suggestion> {
        let mut out = Vec::new();
        self.track_and_suggest_with(user, query, k, now, |snapshot, topk| {
            snapshot.render_into(topk, &mut out)
        });
        out
    }

    /// [`suggest_batch_into`](Self::suggest_batch_into) as owned lists,
    /// one per request, in request order, converted from this thread's
    /// [`FlatAnswer`].
    pub fn suggest_batch(&self, requests: &[SuggestRequest], now: u64) -> Vec<Vec<Suggestion>> {
        FlatAnswer::with_scratch(|answer| {
            self.suggest_batch_into(requests, now, answer);
            answer.to_lists()
        })
    }

    /// Stateless suggestion for an explicit context (oldest query first),
    /// bypassing the session tracker.
    pub fn suggest_context(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        self.context_suggests.fetch_add(1, Ordering::Relaxed);
        self.current.with(|snapshot| snapshot.suggest(context, k))
    }

    /// Atomically publish a freshly trained snapshot; in-flight requests
    /// finish on the snapshot they loaded, later requests see the new one.
    /// Returns the new model generation.
    pub fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        self.current.store(snapshot)
    }

    /// Handle to the snapshot currently serving.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.current.load()
    }

    /// How many publications have occurred (0 = still on the initial model).
    pub fn generation(&self) -> u64 {
        self.current.generation()
    }

    /// Drop sessions idle past the cutoff at `now`; returns how many.
    pub fn evict_idle(&self, now: u64) -> usize {
        let evicted = self.tracker.evict_idle(now);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
        evicted
    }

    /// Sessions currently resident in the tracker. Lock-free (a gauge
    /// maintained under the stripe locks), so stats pollers never contend
    /// with serving.
    pub fn active_sessions(&self) -> usize {
        self.tracker.active_sessions()
    }

    /// The underlying tracker (for direct context inspection).
    pub fn tracker(&self) -> &SessionTracker {
        &self.tracker
    }

    /// Snapshot of the operation counters and gauges. Entirely atomic
    /// loads — the stripes' counters are summed without taking any stripe
    /// lock, so this is safe to poll at any frequency (a router snapshots
    /// every replica per stats call).
    pub fn stats(&self) -> EngineStats {
        let (tracks, suggests) = self.tracker.served();
        EngineStats {
            tracks,
            suggests: suggests + self.context_suggests.load(Ordering::Relaxed),
            publishes: self.current.generation(),
            shed: self.shed.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            active_sessions: self.tracker.active_sessions() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TrainingConfig;
    use crate::surface::ServeSurface;
    use sqp_core::ModelSpec;
    use sqp_logsim::RawLogRecord;

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn corpus(prefix: &str) -> Vec<RawLogRecord> {
        let mut records = Vec::new();
        for u in 0..6 {
            records.push(rec(u, 100, "start"));
            records.push(rec(u, 160, &format!("{prefix}::next")));
        }
        records
    }

    fn snapshot(prefix: &str) -> Arc<ModelSnapshot> {
        Arc::new(ModelSnapshot::from_raw_logs(
            &corpus(prefix),
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ))
    }

    fn engine() -> ServeEngine {
        ServeEngine::new(snapshot("old"), EngineConfig::default())
    }

    #[test]
    fn tracked_session_gets_suggestions() {
        let e = engine();
        e.track(1, "start", 100);
        let got = e.suggest(1, 3, 110);
        assert_eq!(got[0].query, "old::next");
        assert!(e.suggest(2, 3, 110).is_empty(), "unknown user");
    }

    #[test]
    fn track_and_suggest_round_trip() {
        let e = engine();
        let got = e.track_and_suggest(7, "start", 3, 50);
        assert_eq!(got[0].query, "old::next");
        let stats = e.stats();
        assert_eq!((stats.tracks, stats.suggests), (1, 1));
    }

    #[test]
    fn batch_matches_individual_calls() {
        let e = engine();
        for u in 0..32 {
            e.track(u, "start", 100);
        }
        e.track(100, "start", 100);
        e.track(100, "old::next", 160); // context uncovered for Adjacency
        let reqs: Vec<SuggestRequest> = (0..32)
            .chain([100, 555]) // 555 never tracked
            .map(|user| SuggestRequest { user, k: 2 })
            .collect();
        let batch = e.suggest_batch(&reqs, 200);
        assert_eq!(batch.len(), 34);
        for (req, got) in reqs.iter().zip(&batch) {
            assert_eq!(*got, e.suggest(req.user, req.k, 200), "user {}", req.user);
        }
        assert!(batch[33].is_empty());
    }

    #[test]
    fn publish_swaps_the_model_for_new_requests() {
        let e = engine();
        e.track(1, "start", 100);
        assert_eq!(e.suggest(1, 1, 110)[0].query, "old::next");
        assert_eq!(e.generation(), 0);
        let held = e.snapshot();
        assert_eq!(e.publish(snapshot("new")), 1);
        assert_eq!(e.suggest(1, 1, 120)[0].query, "new::next");
        // The pre-publish handle still serves the old vocabulary.
        assert_eq!(held.suggest(&["start"], 1)[0].query, "old::next");
        assert_eq!(e.stats().publishes, 1);
    }

    #[test]
    fn fold_sums_counters_and_keeps_the_trailing_generation() {
        assert_eq!(EngineStats::fold([]), EngineStats::default());
        let member = |publishes, n| EngineStats {
            tracks: n,
            suggests: 2 * n,
            publishes,
            shed: 3 * n,
            evictions: 4 * n,
            active_sessions: 5 * n,
        };
        assert_eq!(EngineStats::fold([member(7, 1)]), member(7, 1));
        assert_eq!(
            EngineStats::fold([member(3, 1), member(2, 10), member(5, 100)]),
            EngineStats {
                publishes: 2,
                ..member(0, 111)
            }
        );
    }

    #[test]
    fn suggest_context_is_stateless() {
        let e = engine();
        assert_eq!(e.suggest_context(&["start"], 1)[0].query, "old::next");
        assert!(e.suggest_context(&["unseen"], 1).is_empty());
    }

    #[test]
    fn admission_budget_sheds_and_recovers() {
        let e = ServeEngine::new(
            snapshot("old"),
            EngineConfig {
                max_in_flight: 2,
                ..EngineConfig::default()
            },
        );
        let p1 = e.admit().unwrap();
        let _p2 = e.admit().unwrap();
        assert_eq!(e.in_flight(), 2);
        assert_eq!(e.admit().unwrap_err(), Overloaded { limit: 2 });
        assert_eq!(e.stats().shed, 1);
        // Releasing a permit frees the slot.
        drop(p1);
        assert_eq!(e.in_flight(), 1);
        assert!(e.try_suggest(1, 3, 100).is_ok());
        assert_eq!(e.in_flight(), 1, "try_suggest released its permit");
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let e = engine();
        let permits: Vec<_> = (0..64).map(|_| e.admit().unwrap()).collect();
        assert_eq!(e.in_flight(), 64);
        assert_eq!(e.stats().shed, 0);
        drop(permits);
        assert_eq!(e.in_flight(), 0);
        e.track(1, "start", 100);
        assert_eq!(e.try_suggest(1, 3, 110).unwrap()[0].query, "old::next");
    }

    #[test]
    fn hazard_panic_poisons_but_engine_keeps_serving() {
        use sqp_common::hazard::Hazard;
        use std::sync::atomic::AtomicBool;

        struct PanicOnce(AtomicBool);
        impl Hazard for PanicOnce {
            fn strike(&self, _site: &str) {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("injected chaos panic (test)");
                }
            }
        }

        let e = Arc::new(ServeEngine::with_hazard(
            snapshot("old"),
            EngineConfig {
                max_in_flight: 8,
                ..EngineConfig::default()
            },
            Arc::new(PanicOnce(AtomicBool::new(false))),
        ));
        // First request panics mid-critical-section, poisoning its stripe
        // and (via the held admission permit's Drop) releasing its slot.
        let crashed = Arc::clone(&e);
        let joined = std::thread::spawn(move || {
            let _ = crashed.try_track_and_suggest(7, "start", 3, 100);
        })
        .join();
        assert!(joined.is_err(), "injected panic should escape the worker");
        assert_eq!(e.in_flight(), 0, "crashed request leaked its permit");
        // The same user (same stripe) keeps serving after poison recovery.
        let got = e.try_track_and_suggest(7, "start", 3, 110).unwrap();
        assert_eq!(got[0].query, "old::next");
    }

    #[test]
    fn draining_serves_existing_sessions_and_refuses_new_ones() {
        let e = engine();
        e.track(1, "start", 100);
        e.set_draining(true);
        assert!(e.is_draining());
        // Existing live session: still served, context still grows.
        let got = e.track_and_suggest(1, "old::next", 3, 110);
        assert!(got.is_empty(), "adjacency context of 2 is uncovered");
        assert_eq!(e.tracker().context(1, 120), vec!["start", "old::next"]);
        // New user: the track is refused with the sentinel outcome.
        let out = e.track(2, "start", 120);
        assert_eq!(
            out,
            TrackOutcome {
                new_session: false,
                context_len: 0
            }
        );
        assert!(e.track_and_suggest(3, "start", 3, 120).is_empty());
        assert_eq!(e.drain_refused(), 2);
        assert_eq!(e.active_sessions(), 1, "refused tracks must not insert");
        // Suggests for existing sessions keep working while draining.
        assert_eq!(e.suggest(1, 3, 130).len(), 0);
        e.track(1, "start", 140);
        // Leaving draining mode re-admits new sessions.
        e.set_draining(false);
        assert!(e.track(2, "start", 150).new_session);
    }

    #[test]
    fn refused_and_shed_requests_are_not_counted_as_served() {
        // Draining: a refused track recorded nothing, so it is not a
        // "query recorded" (nor, for the fused form, a suggestion served).
        let e = engine();
        e.track(1, "start", 100);
        e.set_draining(true);
        e.track(2, "start", 110);
        assert!(e.track_and_suggest(3, "start", 3, 110).is_empty());
        e.track(1, "old::next", 120);
        let stats = e.stats();
        assert_eq!((stats.tracks, stats.suggests), (2, 0));
        assert_eq!(e.drain_refused(), 2);

        // Admission: a shed request counts in `shed` and nowhere else,
        // and leaves the sink untouched.
        let e = ServeEngine::new(
            snapshot("old"),
            EngineConfig {
                max_in_flight: 1,
                ..EngineConfig::default()
            },
        );
        e.track(1, "start", 100);
        let permit = e.admit().unwrap();
        let mut sink = FlatAnswer::default();
        let requests = [SuggestRequest { user: 1, k: 3 }; 2];
        assert!(e.try_suggest_into(1, 3, 110, &mut sink).is_err());
        assert!(e
            .try_track_and_suggest_into(1, "start", 3, 110, &mut sink)
            .is_err());
        assert!(e.try_suggest_batch_into(&requests, 110, &mut sink).is_err());
        assert!(sink.is_empty(), "a shed wrote to the sink: {sink:?}");
        let stats = e.stats();
        assert_eq!((stats.tracks, stats.suggests, stats.shed), (1, 0, 3));
        assert_eq!(e.tracker().context(1, 120), vec!["start"]);
        drop(permit);
        e.try_suggest_batch_into(&requests, 110, &mut sink).unwrap();
        assert_eq!(sink.len(), 2, "one list per request");
        assert_eq!(e.stats().suggests, 2);
    }

    #[test]
    fn stripe_counters_sum_to_exact_stats_across_threads() {
        // Two threads, each on its own users spread over every stripe:
        // plain tracks, fused tracks and batch entries, then a stateless
        // suggest, which has no stripe.
        const TRACKS: u64 = 300;
        const FUSED: u64 = 200;
        const BATCHES: u64 = 50;
        let e = engine();
        std::thread::scope(|scope| {
            for thread in 0..2u64 {
                let e = &e;
                scope.spawn(move || {
                    let user = |i: u64| thread * 1_000 + i % 97;
                    for i in 0..TRACKS {
                        e.track(user(i), "start", 100 + i);
                    }
                    for i in 0..FUSED {
                        e.track_and_suggest(user(i), "start", 3, 500 + i);
                    }
                    let requests: Vec<SuggestRequest> = (0..BATCHES)
                        .map(|i| SuggestRequest {
                            user: user(i * 7),
                            k: 2,
                        })
                        .collect();
                    for _ in 0..3 {
                        assert_eq!(e.suggest_batch(&requests, 800).len(), BATCHES as usize);
                    }
                });
            }
        });
        e.suggest_context(&["start"], 1);
        let stats = e.stats();
        assert_eq!(stats.tracks, 2 * (TRACKS + FUSED));
        assert_eq!(stats.suggests, 2 * (FUSED + 3 * BATCHES) + 1);
        assert_eq!(stats.active_sessions, 2 * 97);
    }

    #[test]
    fn every_form_writes_one_list_per_request_through_the_same_path() {
        let e = engine();
        e.track(1, "start", 100);
        let mut lists = FlatAnswer::default();
        let one = |user, k| [SuggestRequest { user, k }];
        e.suggest_batch_into(&one(1, 3), 110, &mut lists); // covered
        e.suggest_batch_into(&one(9, 3), 110, &mut lists); // unknown user
        e.suggest_batch_into(&one(1, 0), 110, &mut lists); // k = 0
        e.track_and_suggest_into(2, "start", 3, 110, &mut lists);
        e.track_and_suggest_into(2, "unseen", 3, 111, &mut lists); // uncovered
        assert_eq!(
            lists.to_lists(),
            vec![
                e.suggest(1, 3, 110),
                vec![],
                vec![],
                e.suggest_context(&["start"], 3),
                vec![]
            ]
        );
        assert_eq!(lists.to_lists()[0][0].query, "old::next");
    }

    #[test]
    fn eviction_passthrough() {
        let e = engine();
        e.track(1, "start", 0);
        assert_eq!(e.active_sessions(), 1);
        assert_eq!(e.evict_idle(u64::MAX / 2), 1);
        assert_eq!(e.active_sessions(), 0);
    }

    #[test]
    fn stats_expose_evictions_and_residency_lock_free() {
        let e = engine();
        e.track(1, "start", 0);
        e.track_and_suggest(2, "start", 1, 0);
        let stats = e.stats();
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(stats.evictions, 0);
        assert_eq!(e.evict_idle(u64::MAX / 2), 2);
        let stats = e.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.active_sessions, 0);
        // Evictions are monotonic across repeated (empty) sweeps.
        assert_eq!(e.evict_idle(u64::MAX / 2), 0);
        assert_eq!(e.stats().evictions, 2);
    }
}
