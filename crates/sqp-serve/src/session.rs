//! Sharded, lock-striped tracking of in-flight user sessions.
//!
//! A live search front-end calls [`SessionTracker::track`] on every issued
//! query and asks for suggestions against the context accumulated so far.
//! The tracker applies the paper's 30-minute rule *online*: a query arriving
//! more than the cutoff after the user's last activity starts a fresh
//! session (the stale context is discarded), mirroring what the offline
//! pipeline's segmentation does to historical logs.
//!
//! Query **text is the truth** of a context; interned ids are a cache
//! beside it. Ids are only meaningful relative to one snapshot's interner,
//! and the model under the tracker is hot-swapped by retrains, so handoff,
//! [`SessionTracker::context`] and every vocabulary change read the text.
//! But a context is resolved once per snapshot, not once per suggest: each
//! session is **one heap block** — its id slots first, then its query
//! texts end to end — tagged with the identity of the snapshot the ids were
//! resolved under. A suggest whose snapshot carries that tag copies the ids
//! and reads no text and probes no interner; a publish invalidates every
//! session lazily, by tag mismatch on its next suggest.
//!
//! Concurrency is lock-striped: user ids hash onto `2^n` shards, each a
//! mutex around an open hash map. Two users on different shards never
//! contend, and the per-shard critical section is a map probe plus an
//! append to the session's block (the serve paths additionally bring the
//! session's id cache up to date in the same section — one interner probe
//! for a newly tracked query, one per entry after a publish, none
//! otherwise; model inference always runs with the stripe released).
//!
//! Each stripe is one 128-byte-aligned `Stripe`: its mutex and the
//! counters its lock holder bumps (tracks, suggests, resident sessions), so
//! a request writes only its own stripe's cache lines. The tracker-wide
//! figures are sums over the stripes, read with plain loads and no lock.

use sqp_common::bytes::{get_uvarint, put_uvarint, uvarint_len};
use sqp_common::hash::fx_hash_one;
use sqp_common::{FxHashMap, QueryId};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The conventional idle cutoff, re-exported from the offline pipeline so
/// online and offline segmentation agree by default.
pub use sqp_sessions::DEFAULT_CUTOFF_SECS;

/// Tracker sizing and eviction parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrackerConfig {
    /// Number of lock stripes; rounded up to a power of two, min 1.
    pub shards: usize,
    /// Maximum queries retained per session context (min 1, max 65 535).
    /// Older queries are dropped; VMM-family models match the longest
    /// suffix anyway, so a short window loses nothing in practice.
    pub context_capacity: usize,
    /// Idle gap (seconds) after which a session is considered over — both
    /// for lazily resetting on the next `track` and for bulk eviction.
    pub idle_cutoff_secs: u64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            shards: 64,
            context_capacity: 8,
            idle_cutoff_secs: DEFAULT_CUTOFF_SECS,
        }
    }
}

/// What a [`SessionTracker::track`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackOutcome {
    /// True when this query started a fresh session (first contact, or the
    /// idle cutoff had passed and the stale context was discarded).
    pub new_session: bool,
    /// Context length after the query was appended (capped at capacity).
    pub context_len: usize,
}

/// One session lifted out of a tracker for import into another — the unit
/// of live-membership handoff.
///
/// Contexts are query **text** (see the module docs), so an export is
/// meaningful on any replica regardless of which model snapshot it serves:
/// handoff is model-generation-independent. `last_seen` carries the
/// 30-minute-rule timestamp across, so a session that was 29 minutes idle
/// on the old home is still 29 minutes idle on the new one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionExport {
    /// The user whose session this is.
    pub user: u64,
    /// The context window, oldest query first.
    pub queries: Vec<String>,
    /// Seconds timestamp of the user's last activity.
    pub last_seen: u64,
}

/// Result of [`SessionTracker::export_sessions`]: the copied sessions plus
/// an account of what the idle filter left behind.
#[derive(Clone, Debug, Default)]
pub struct ExportBatch {
    /// Exported sessions, sorted by user id (deterministic order).
    pub sessions: Vec<SessionExport>,
    /// Sessions that matched the filter but were idle past the cutoff at
    /// export time — skipped: their context is already dead under the
    /// 30-minute rule, so moving it would only resurrect stale state.
    pub skipped_idle: usize,
}

/// An id slot whose query the tagged snapshot's interner does not know.
/// No real id collides: `Interner` keeps `u32::MAX` for its own vacant slots.
const UNKNOWN: u32 = u32::MAX;

/// Bytes per id slot.
const ID_BYTES: usize = std::mem::size_of::<u32>();

/// Text bytes a new block reserves beyond its id slots — room for the first
/// few queries of a session, so the common session never regrows its block.
/// A constant, not a knob: a block grown from empty by doubling reallocates
/// on most of a session's first tracks, which is where sessions spend them.
const TEXT_RESERVE: usize = 192;

/// Per-user state within a shard: the bounded most-recent-queries window
/// and the ids it resolves to under one snapshot, in **one** heap block.
///
/// ```text
/// block = [ id slot × capacity ][ entry ]*         oldest entry first
/// slot  = u32 LE: the entry's QueryId under snapshot `tag`, or UNKNOWN
/// entry = uvarint byte length, UTF-8 text
/// ```
///
/// The text is the truth; slots `0..resolved` are a cache of it that holds
/// only while the asking snapshot's identity equals `tag`. Entries frame
/// themselves (no offset table), so a plain append dirties the block's
/// tail and nothing else, and a cached suggest reads its head and nothing
/// else. A full window drops its oldest entry by moving the rest down.
#[derive(Debug)]
pub(crate) struct Session {
    block: Vec<u8>,
    pub(crate) last_seen: u64,
    /// Identity of the snapshot slots `0..resolved` were filled under
    /// (`ModelSnapshot` identities start at 1; 0 is "none yet").
    tag: u64,
    /// Window slots, fixed at creation.
    capacity: u16,
    /// Live entries, `≤ capacity`.
    len: u16,
    /// Leading entries whose id slot is current under `tag`, `≤ len`.
    resolved: u16,
}

/// Byte range of the text of the entry starting at `at`, and where the
/// next entry starts.
fn entry_at(block: &[u8], mut at: usize) -> (std::ops::Range<usize>, usize) {
    let len = get_uvarint(block, &mut at)
        .and_then(|len| usize::try_from(len).ok())
        // Invariant-impossible: `push` wrote this prefix from a `usize`.
        .expect("session entry length prefix");
    (at..at + len, at + len)
}

fn text(bytes: &[u8]) -> &str {
    // Invariant-impossible: entries are appended from `&str` and only ever
    // moved or dropped whole.
    std::str::from_utf8(bytes).expect("session entry is whole UTF-8")
}

impl Session {
    /// An empty window of `capacity` slots (at least 1; a request beyond
    /// `u16::MAX` gets `u16::MAX`).
    fn new(capacity: usize, last_seen: u64) -> Self {
        let capacity = u16::try_from(capacity.max(1)).unwrap_or(u16::MAX);
        let slots = usize::from(capacity) * ID_BYTES;
        let mut block = Vec::with_capacity(slots + TEXT_RESERVE);
        block.resize(slots, 0);
        Self {
            block,
            last_seen,
            tag: 0,
            capacity,
            len: 0,
            resolved: 0,
        }
    }

    /// Where the entries start: just past the id slots.
    fn text_start(&self) -> usize {
        usize::from(self.capacity) * ID_BYTES
    }

    /// Append `query` as the newest entry, unresolved; a full window drops
    /// its oldest entry (and that entry's id slot) first.
    fn push(&mut self, query: &str) {
        if self.len == self.capacity {
            let start = self.text_start();
            let (_, next) = entry_at(&self.block, start);
            self.block.copy_within(next.., start);
            self.block.truncate(self.block.len() - (next - start));
            self.block.copy_within(ID_BYTES..start, 0);
            self.len -= 1;
            self.resolved = self.resolved.saturating_sub(1);
        }
        // Grow first, so nothing between here and `len += 1` can fail and
        // leave half an entry behind (see `SessionTracker::lock_shard`).
        let len = query.len() as u64;
        self.block.reserve(uvarint_len(len) + query.len());
        put_uvarint(&mut self.block, len);
        self.block.extend_from_slice(query.as_bytes());
        self.len += 1;
    }

    /// Forget every entry and, with them, every cached id.
    fn clear(&mut self) {
        self.block.truncate(self.text_start());
        self.len = 0;
        self.resolved = 0;
    }

    fn len(&self) -> usize {
        usize::from(self.len)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window's query text, oldest → newest.
    pub(crate) fn texts(&self) -> impl Iterator<Item = &str> {
        let mut at = self.text_start();
        (0..self.len).map(move |_| {
            let (span, next) = entry_at(&self.block, at);
            at = next;
            text(&self.block[span])
        })
    }

    /// The window as ids under the snapshot identified by `tag`, oldest →
    /// newest, `None` where that snapshot does not know the query.
    ///
    /// `lookup` must be that snapshot's `Interner::get`. It is called only
    /// for entries the cache does not already hold under `tag`: every entry
    /// after a change of tag, the tail appended since the last call
    /// otherwise — for an unchanged window under an unchanged tag, never.
    pub(crate) fn ids_under(
        &mut self,
        tag: u64,
        mut lookup: impl FnMut(&str) -> Option<QueryId>,
    ) -> impl Iterator<Item = Option<QueryId>> + '_ {
        if self.tag != tag {
            self.tag = tag;
            self.resolved = 0;
        }
        if self.resolved < self.len {
            let mut at = self.text_start();
            for slot in 0..usize::from(self.len) {
                let (span, next) = entry_at(&self.block, at);
                at = next;
                if slot >= usize::from(self.resolved) {
                    let id = lookup(text(&self.block[span])).map_or(UNKNOWN, |id| id.0);
                    let slot = slot * ID_BYTES;
                    self.block[slot..slot + ID_BYTES].copy_from_slice(&id.to_le_bytes());
                }
            }
            self.resolved = self.len;
        }
        self.block[..usize::from(self.len) * ID_BYTES]
            .chunks_exact(ID_BYTES)
            .map(|slot| {
                let id = u32::from_le_bytes(slot.try_into().expect("4-byte id slot"));
                (id != UNKNOWN).then_some(QueryId(id))
            })
    }
}

/// The session map of one lock stripe.
#[derive(Debug, Default)]
pub(crate) struct Shard {
    pub(crate) sessions: FxHashMap<u64, Session>,
}

impl Shard {
    /// Apply one tracked query while the stripe is locked: reset the window
    /// if the idle cutoff has passed, append the query, stamp `last_seen`.
    /// Returns the outcome, the updated session (so fused serve paths can
    /// bring its id cache up to date in the same critical section), and
    /// whether a new map entry was inserted (the caller bumps the stripe's
    /// resident gauge while the stripe is still held, so the gauge never
    /// transiently disagrees with an eviction on the same stripe).
    pub(crate) fn track(
        &mut self,
        user: u64,
        query: &str,
        now: u64,
        cfg: &TrackerConfig,
    ) -> (TrackOutcome, &mut Session, bool) {
        let (state, inserted) = match self.sessions.entry(user) {
            Entry::Occupied(entry) => (entry.into_mut(), false),
            Entry::Vacant(entry) => (entry.insert(Session::new(cfg.context_capacity, now)), true),
        };
        let expired =
            !state.is_empty() && now.saturating_sub(state.last_seen) > cfg.idle_cutoff_secs;
        if expired {
            state.clear();
        }
        let new_session = expired || state.is_empty();
        state.push(query);
        state.last_seen = now;
        (
            TrackOutcome {
                new_session,
                context_len: state.len(),
            },
            state,
            inserted,
        )
    }
}

/// One lock stripe: the session map and the counters of the requests
/// served under its lock, on cache lines of their own. A request on another
/// stripe writes none of these lines.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Stripe {
    shard: Mutex<Shard>,
    /// Queries recorded here.
    tracks: AtomicU64,
    /// Suggestions served against sessions here (one per batch entry).
    suggests: AtomicU64,
    /// Sessions resident in `shard`.
    resident: AtomicU64,
}

/// Add `delta` (wrapping) to one of a stripe's counters. Only the holder of
/// the stripe's lock writes them, so a plain load and store is exact, and a
/// stats reader's plain load sees a whole value.
fn bump(counter: &AtomicU64, delta: u64) {
    counter.store(
        counter.load(Ordering::Relaxed).wrapping_add(delta),
        Ordering::Relaxed,
    );
}

impl Stripe {
    pub(crate) fn lock(&self) -> MutexGuard<'_, Shard> {
        // Poison recovery: every mutation under a stripe lock (map entry
        // upsert, block append, retain) leaves the shard in a valid state at
        // every step — a panicking thread (e.g. an injected chaos panic at a
        // serve seam) cannot tear it, so the map is safe to keep serving.
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count `tracks` recorded queries and `suggests` served suggestions.
    /// Call with this stripe's lock held.
    pub(crate) fn count(&self, tracks: u64, suggests: u64) {
        if tracks != 0 {
            bump(&self.tracks, tracks);
        }
        if suggests != 0 {
            bump(&self.suggests, suggests);
        }
    }

    /// Bump the resident gauge for a fresh map insert. Call with this
    /// stripe's lock held (see [`Shard::track`]).
    pub(crate) fn note_insert(&self, inserted: bool) {
        if inserted {
            bump(&self.resident, 1);
        }
    }

    /// Drop `removed` sessions from the resident gauge. Call with this
    /// stripe's lock held, right after removing them from the map.
    fn note_removed(&self, removed: usize) {
        bump(&self.resident, (removed as u64).wrapping_neg());
    }
}

/// Sharded map from hashed user id to bounded session context.
///
/// # Examples
///
/// ```
/// use sqp_serve::{SessionTracker, TrackerConfig};
///
/// let tracker = SessionTracker::new(TrackerConfig::default());
/// tracker.track(7, "rust", 1_000);
/// tracker.track(7, "rust atomics", 1_060);
/// assert_eq!(tracker.context(7, 1_100), vec!["rust", "rust atomics"]);
///
/// // 31 minutes of silence ends the session.
/// let outcome = tracker.track(7, "pizza near me", 1_060 + 31 * 60);
/// assert!(outcome.new_session);
/// assert_eq!(tracker.context(7, 1_060 + 31 * 60), vec!["pizza near me"]);
/// ```
#[derive(Debug)]
pub struct SessionTracker {
    stripes: Box<[Stripe]>,
    mask: u64,
    cfg: TrackerConfig,
}

impl SessionTracker {
    /// Create an empty tracker.
    pub fn new(cfg: TrackerConfig) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        Self {
            stripes: (0..n).map(|_| Stripe::default()).collect(),
            mask: (n - 1) as u64,
            cfg,
        }
    }

    /// The configuration the tracker was built with.
    pub(crate) fn config(&self) -> &TrackerConfig {
        &self.cfg
    }

    /// Stripe index for a user — the user id is hashed so adversarially or
    /// sequentially assigned ids still spread across stripes.
    pub(crate) fn shard_index(&self, user: u64) -> usize {
        (fx_hash_one(&user) & self.mask) as usize
    }

    /// Actual stripe count (the configured value rounded up to a power of
    /// two).
    pub(crate) fn num_shards(&self) -> usize {
        self.stripes.len()
    }

    pub(crate) fn stripe(&self, index: usize) -> &Stripe {
        &self.stripes[index]
    }

    pub(crate) fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.stripes[index].lock()
    }

    /// The stripes' `(tracks, suggests)` summed with plain loads, no lock.
    pub(crate) fn served(&self) -> (u64, u64) {
        self.stripes
            .iter()
            .fold((0, 0), |(tracks, suggests), stripe| {
                (
                    tracks.wrapping_add(stripe.tracks.load(Ordering::Relaxed)),
                    suggests.wrapping_add(stripe.suggests.load(Ordering::Relaxed)),
                )
            })
    }

    /// Record a query issued by `user` at `now` (seconds). Applies the idle
    /// cutoff lazily: a gap beyond the cutoff discards the stale context and
    /// starts a fresh session.
    pub fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome {
        let stripe = self.stripe(self.shard_index(user));
        let mut shard = stripe.lock();
        let (outcome, _, inserted) = shard.track(user, query, now, &self.cfg);
        stripe.note_insert(inserted);
        stripe.count(1, 0);
        outcome
    }

    /// The live context for `user` at `now`, oldest query first. Empty when
    /// the user is unknown or their session has passed the idle cutoff.
    pub fn context(&self, user: u64, now: u64) -> Vec<String> {
        let shard = self.lock_shard(self.shard_index(user));
        match shard.sessions.get(&user) {
            Some(state) if now.saturating_sub(state.last_seen) <= self.cfg.idle_cutoff_secs => {
                state.texts().map(str::to_owned).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Forget `user` entirely. Returns true if a session existed.
    pub fn clear(&self, user: u64) -> bool {
        let stripe = self.stripe(self.shard_index(user));
        let mut shard = stripe.lock();
        let removed = shard.sessions.remove(&user).is_some();
        if removed {
            // Still under the stripe lock: the gauge and the map agree.
            stripe.note_removed(1);
        }
        removed
    }

    /// Drop every session idle past the cutoff at `now`, reclaiming the
    /// memory. Returns the number of sessions evicted. Intended to run
    /// periodically from a maintenance thread; serving correctness does not
    /// depend on it (`track`/`context` apply the cutoff lazily).
    pub(crate) fn evict_idle(&self, now: u64) -> usize {
        let cutoff = self.cfg.idle_cutoff_secs;
        let mut evicted = 0;
        for stripe in self.stripes.iter() {
            let mut shard = stripe.lock();
            let before = shard.sessions.len();
            shard
                .sessions
                .retain(|_, state| now.saturating_sub(state.last_seen) <= cutoff);
            let dropped = before - shard.sessions.len();
            // Still under this stripe's lock: the gauge and the map agree.
            stripe.note_removed(dropped);
            evicted += dropped;
        }
        evicted
    }

    /// Number of sessions currently resident (including idle ones not yet
    /// evicted). Lock-free: sums the stripes' gauges, each maintained under
    /// its stripe's lock, so polling this (e.g. per-replica router stats)
    /// never contends with `track`/`suggest` traffic.
    pub fn active_sessions(&self) -> usize {
        self.stripes.iter().fold(0u64, |sum, stripe| {
            sum.wrapping_add(stripe.resident.load(Ordering::Relaxed))
        }) as usize
    }

    /// Like [`SessionTracker::track`], but **refuses to start a session**:
    /// returns `None` — and changes nothing — when `user` has no resident
    /// session or their session is idle past the cutoff at `now` (which
    /// would make this query a fresh session under the 30-minute rule).
    /// This is the tracker half of a draining engine: existing sessions
    /// keep being served to completion, new ones are turned away.
    pub fn track_existing(&self, user: u64, query: &str, now: u64) -> Option<TrackOutcome> {
        let stripe = self.stripe(self.shard_index(user));
        let mut shard = stripe.lock();
        match shard.sessions.get(&user) {
            Some(state)
                if !state.is_empty()
                    && now.saturating_sub(state.last_seen) <= self.cfg.idle_cutoff_secs => {}
            _ => return None,
        }
        let (outcome, _, inserted) = shard.track(user, query, now, &self.cfg);
        debug_assert!(!inserted && !outcome.new_session);
        stripe.count(1, 0);
        Some(outcome)
    }

    /// Copy out every live session whose user matches `filter` — the export
    /// half of a membership handoff.
    ///
    /// * **Copy, not move**: the source tracker keeps serving the session
    ///   until the caller swaps routing away from it. A handed-off user
    ///   therefore always finds their context *somewhere* the ring routes
    ///   them, whichever side of the swap an operation lands on.
    /// * **Idle sessions are skipped** (counted in
    ///   [`ExportBatch::skipped_idle`]): their context is already dead
    ///   under the 30-minute rule.
    /// * Stripes are locked one at a time — export never stalls traffic on
    ///   more than one stripe, and never holds two locks at once.
    pub fn export_sessions(&self, now: u64, mut filter: impl FnMut(u64) -> bool) -> ExportBatch {
        let cutoff = self.cfg.idle_cutoff_secs;
        let mut batch = ExportBatch::default();
        for index in 0..self.stripes.len() {
            let shard = self.lock_shard(index);
            for (&user, state) in shard.sessions.iter() {
                if !filter(user) {
                    continue;
                }
                if state.is_empty() || now.saturating_sub(state.last_seen) > cutoff {
                    batch.skipped_idle += 1;
                    continue;
                }
                batch.sessions.push(SessionExport {
                    user,
                    queries: state.texts().map(str::to_owned).collect(),
                    last_seen: state.last_seen,
                });
            }
        }
        // Map iteration order is an implementation detail; sorted output
        // makes export deterministic for replayable handoff scenarios.
        batch.sessions.sort_unstable_by_key(|s| s.user);
        batch
    }

    /// Install an exported session — the import half of a membership
    /// handoff. Returns `true` when the session was installed.
    ///
    /// If the user already has a session here with `last_seen` **at or
    /// after** the export's, the import is dropped and `false` returned:
    /// the resident session saw activity at least as recent as the copy,
    /// so clobbering it could throw away queries tracked after the export
    /// was cut (the race window between export and ring swap). Newest
    /// activity wins; the context window is truncated to this tracker's
    /// capacity, keeping the most recent queries.
    pub fn import_session(&self, export: &SessionExport) -> bool {
        let stripe = self.stripe(self.shard_index(export.user));
        let mut shard = stripe.lock();
        let mut inserted = false;
        let state = match shard.sessions.entry(export.user) {
            Entry::Occupied(entry) => {
                let state = entry.into_mut();
                if state.last_seen >= export.last_seen {
                    return false;
                }
                state
            }
            Entry::Vacant(entry) => {
                inserted = true;
                entry.insert(Session::new(self.cfg.context_capacity, export.last_seen))
            }
        };
        // Text only: the ids stay unresolved until a suggest asks for them
        // under whichever snapshot this tracker's engine then serves.
        state.clear();
        let newest = export
            .queries
            .len()
            .saturating_sub(usize::from(state.capacity));
        for query in &export.queries[newest..] {
            state.push(query);
        }
        state.last_seen = export.last_seen;
        // Still under the stripe lock: the gauge and the map agree.
        stripe.note_insert(inserted);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    /// A snapshot as [`Session::ids_under`] sees one — an identity and a
    /// lookup — that counts the lookups made through it.
    struct Vocabulary {
        tag: u64,
        known: Vec<String>,
        probes: Cell<usize>,
    }

    impl Vocabulary {
        fn new(tag: u64, known: &[&str]) -> Self {
            Self {
                tag,
                known: known.iter().map(|q| q.to_string()).collect(),
                probes: Cell::new(0),
            }
        }

        fn get(&self, query: &str) -> Option<QueryId> {
            let at = self.known.iter().position(|known| known == query)?;
            Some(QueryId(u32::try_from(at).unwrap()))
        }

        /// The session's ids under this vocabulary, and how many lookups
        /// producing them took.
        fn ids(&self, session: &mut Session) -> (Vec<Option<QueryId>>, usize) {
            let before = self.probes.get();
            let ids = session
                .ids_under(self.tag, |query| {
                    self.probes.set(self.probes.get() + 1);
                    self.get(query)
                })
                .collect();
            (ids, self.probes.get() - before)
        }

        /// What a session that caches nothing would answer.
        fn fresh(&self, session: &Session) -> Vec<Option<QueryId>> {
            session.texts().map(|query| self.get(query)).collect()
        }
    }

    #[test]
    fn window_turns_over_at_every_capacity() {
        // Multi-byte text on both sides of every dropped entry, the empty
        // query, and two queries longer than a new block's whole reserve.
        let long_ascii = "x".repeat(3 * TEXT_RESERVE);
        let long_wide = "é".repeat(2 * TEXT_RESERVE);
        let script = [
            "naïve café",
            "a",
            "",
            "日本語のクエリ",
            long_ascii.as_str(),
            "b",
            "ünïcödé",
            "",
            long_wide.as_str(),
            "🦀 rust",
            "c",
            "naïve café",
            "日本語のクエリ",
            "d",
            "",
            "e",
            "ß",
            "f",
            "g",
        ];
        let vocabulary =
            Vocabulary::new(1, &["a", "日本語のクエリ", "", "ünïcödé", &long_wide, "g"]);
        for capacity in [1usize, 2, 8] {
            let mut session = Session::new(capacity, 0);
            let mut model: VecDeque<&str> = VecDeque::new();
            for query in script {
                session.push(query);
                model.push_back(query);
                if model.len() > capacity {
                    model.pop_front();
                }
                assert_eq!(session.len(), model.len());
                assert!(
                    session.texts().eq(model.iter().copied()),
                    "capacity {capacity} after {query:?}"
                );
                // The turnover shifted the cached ids with their entries:
                // only the new entry is looked up, and the answer is what a
                // full resolution from text gives.
                let (ids, probes) = vocabulary.ids(&mut session);
                assert_eq!(ids, vocabulary.fresh(&session), "capacity {capacity}");
                assert_eq!(probes, 1, "capacity {capacity} after {query:?}");
            }
        }
    }

    #[test]
    fn a_resolved_window_is_never_looked_up_again_and_a_tracked_tail_only_once() {
        let a = Vocabulary::new(1, &["q1", "q3", "q4"]);
        let b = Vocabulary::new(2, &["q4", "q3", "q2"]);
        let mut session = Session::new(4, 0);
        session.push("q1");
        session.push("q2");
        let (ids, probes) = a.ids(&mut session);
        assert_eq!(ids, vec![Some(QueryId(0)), None]);
        assert_eq!(probes, 2);
        // Unchanged window, unchanged snapshot: no text read, no lookup —
        // and the unknown "q2" is cached as unknown, not asked again.
        assert_eq!(a.ids(&mut session), (ids, 0));

        // Plain tracks leave exactly the tail unresolved…
        session.push("q3");
        session.push("q4");
        assert_eq!((session.resolved, session.len), (2, 4));
        // …and the next suggest looks up only that tail, answering as if
        // it had resolved the whole window afresh.
        let (ids, probes) = a.ids(&mut session);
        assert_eq!(ids, a.fresh(&session));
        assert_eq!(probes, 2);
        assert_eq!(a.ids(&mut session).1, 0);

        // Another snapshot shares no cached id, whatever the overlap; going
        // back to the first one does not revive its ids either.
        let (ids, probes) = b.ids(&mut session);
        assert_eq!(
            ids,
            vec![None, Some(QueryId(2)), Some(QueryId(1)), Some(QueryId(0))]
        );
        assert_eq!(probes, 4);
        assert_eq!(b.ids(&mut session).1, 0);
        let (ids, probes) = a.ids(&mut session);
        assert_eq!(ids, a.fresh(&session));
        assert_eq!(probes, 4);

        // A turnover between suggests: the dropped entry takes its slot
        // with it, the unresolved tail is still exactly the new entries.
        session.push("q1");
        session.push("q4");
        assert_eq!((session.resolved, session.len), (2, 4));
        let (ids, probes) = a.ids(&mut session);
        assert_eq!(ids, a.fresh(&session));
        assert_eq!(probes, 2);
    }

    #[test]
    fn expiry_and_clear_leave_no_cached_id_behind() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 60,
            ..TrackerConfig::default()
        };
        let vocabulary = Vocabulary::new(1, &["a", "b", "c"]);
        let mut shard = Shard::default();
        shard.track(1, "a", 0, &cfg);
        let (_, session, _) = shard.track(1, "b", 10, &cfg);
        assert_eq!(vocabulary.ids(session).1, 2);
        // The idle gap resets the window: the one entry it now holds is
        // looked up, not answered from the expired session's slot 0.
        let (outcome, session, inserted) = shard.track(1, "c", 71, &cfg);
        assert!(outcome.new_session && !inserted);
        assert_eq!(session.resolved, 0);
        assert_eq!(vocabulary.ids(session), (vec![Some(QueryId(2))], 1));

        session.clear();
        assert_eq!((session.len, session.resolved), (0, 0));
        assert_eq!(vocabulary.ids(session), (vec![], 0));
        session.push("b");
        assert_eq!(vocabulary.ids(session), (vec![Some(QueryId(1))], 1));

        // `SessionTracker::clear` drops the block itself.
        let tracker = SessionTracker::new(cfg);
        tracker.track(1, "a", 0);
        assert!(tracker.clear(1));
        assert!(tracker
            .lock_shard(tracker.shard_index(1))
            .sessions
            .is_empty());
    }

    #[test]
    fn import_installs_text_only_and_keeps_the_newest_suffix() {
        let tracker = SessionTracker::new(TrackerConfig {
            context_capacity: 2,
            ..TrackerConfig::default()
        });
        let vocabulary = Vocabulary::new(1, &["q1", "q2", "q3", "q4", "q5"]);
        let resolved = |user: u64| {
            let mut shard = tracker.lock_shard(tracker.shard_index(user));
            let session = shard.sessions.get_mut(&user).expect("resident");
            (session.resolved, vocabulary.ids(session))
        };
        // Over an already-resolved resident session…
        tracker.track(7, "q1", 100);
        assert_eq!(resolved(7), (0, (vec![Some(QueryId(0))], 1)));
        let export = SessionExport {
            user: 7,
            queries: ["q1", "q2", "q3", "q4", "q5"].map(String::from).to_vec(),
            last_seen: 200,
        };
        assert!(tracker.import_session(&export));
        assert_eq!(tracker.context(7, 200), vec!["q4", "q5"]);
        assert_eq!(
            resolved(7),
            (0, (vec![Some(QueryId(3)), Some(QueryId(4))], 2))
        );
        // …and into a fresh one, with fewer queries than the window holds.
        let short = SessionExport {
            user: 8,
            queries: vec!["q2".into()],
            last_seen: 200,
        };
        assert!(tracker.import_session(&short));
        assert_eq!(resolved(8), (0, (vec![Some(QueryId(1))], 1)));
    }

    #[test]
    fn capacity_is_at_least_one_and_at_most_u16_max() {
        assert_eq!(Session::new(0, 0).capacity, 1);
        assert_eq!(Session::new(usize::MAX, 0).capacity, u16::MAX);
    }

    #[test]
    fn track_accumulates_context() {
        let t = SessionTracker::new(TrackerConfig::default());
        assert_eq!(
            t.track(1, "a", 100),
            TrackOutcome {
                new_session: true,
                context_len: 1
            }
        );
        assert_eq!(
            t.track(1, "b", 200),
            TrackOutcome {
                new_session: false,
                context_len: 2
            }
        );
        assert_eq!(t.context(1, 250), vec!["a", "b"]);
        assert_eq!(t.active_sessions(), 1);
    }

    #[test]
    fn idle_gap_starts_fresh_session() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 100,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        t.track(1, "a", 1000);
        // Within the cutoff: same session.
        assert!(!t.track(1, "b", 1100).new_session);
        // Beyond it: context resets.
        let out = t.track(1, "c", 1201);
        assert!(out.new_session);
        assert_eq!(out.context_len, 1);
        assert_eq!(t.context(1, 1201), vec!["c"]);
    }

    #[test]
    fn context_expires_without_track() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 60,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        t.track(1, "a", 0);
        assert_eq!(t.context(1, 60), vec!["a"]);
        assert!(t.context(1, 61).is_empty());
    }

    #[test]
    fn evict_idle_reclaims_sessions() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 60,
            shards: 4,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for u in 0..100 {
            t.track(u, "q", u); // last_seen = u
        }
        assert_eq!(t.active_sessions(), 100);
        // At now=120, users with last_seen < 60 are idle past the cutoff.
        let evicted = t.evict_idle(120);
        assert_eq!(evicted, 60);
        assert_eq!(t.active_sessions(), 40);
        // Evicted users start fresh sessions.
        assert!(t.track(0, "q2", 121).new_session);
    }

    #[test]
    fn clear_forgets_user() {
        let t = SessionTracker::new(TrackerConfig::default());
        t.track(9, "a", 0);
        assert!(t.clear(9));
        assert!(!t.clear(9));
        assert!(t.context(9, 1).is_empty());
    }

    #[test]
    fn capacity_bounds_context() {
        let cfg = TrackerConfig {
            context_capacity: 2,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for (i, q) in ["a", "b", "c"].iter().enumerate() {
            t.track(5, q, i as u64);
        }
        assert_eq!(t.context(5, 3), vec!["b", "c"]);
    }

    #[test]
    fn resident_gauge_stays_exact_without_locking() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 60,
            shards: 4,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for u in 0..10 {
            t.track(u, "q", 0);
            t.track(u, "q2", 1); // re-track: no new insert
        }
        assert_eq!(t.active_sessions(), 10);
        assert!(t.clear(3));
        assert!(!t.clear(3)); // double clear must not double-decrement
        assert_eq!(t.active_sessions(), 9);
        assert_eq!(t.evict_idle(1000), 9);
        assert_eq!(t.active_sessions(), 0);
        // An evicted user re-inserts and counts again.
        t.track(3, "back", 1001);
        assert_eq!(t.active_sessions(), 1);
    }

    #[test]
    fn track_existing_refuses_new_and_expired_sessions() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 100,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        // Unknown user: refused, nothing created.
        assert_eq!(t.track_existing(1, "a", 10), None);
        assert_eq!(t.active_sessions(), 0);
        // Live session: tracked normally.
        t.track(1, "a", 10);
        let out = t.track_existing(1, "b", 50).expect("live session");
        assert!(!out.new_session);
        assert_eq!(out.context_len, 2);
        // Idle past the cutoff: this would be a fresh session — refused,
        // and the stale context is left untouched for eviction.
        assert_eq!(t.track_existing(1, "c", 151), None);
        assert_eq!(t.context(1, 100), vec!["a", "b"]);
    }

    #[test]
    fn export_copies_and_import_installs() {
        let cfg = TrackerConfig {
            idle_cutoff_secs: 60,
            ..TrackerConfig::default()
        };
        let src = SessionTracker::new(cfg);
        let dst = SessionTracker::new(cfg);
        src.track(1, "a", 100);
        src.track(1, "b", 110);
        src.track(2, "x", 10); // idle at now=120
        let batch = src.export_sessions(120, |_| true);
        assert_eq!(batch.sessions.len(), 1);
        assert_eq!(batch.skipped_idle, 1);
        assert_eq!(batch.sessions[0].user, 1);
        assert_eq!(batch.sessions[0].queries, vec!["a", "b"]);
        assert_eq!(batch.sessions[0].last_seen, 110);
        // Copy semantics: the source still serves the session.
        assert_eq!(src.context(1, 120), vec!["a", "b"]);
        assert!(dst.import_session(&batch.sessions[0]));
        assert_eq!(dst.context(1, 120), vec!["a", "b"]);
        assert_eq!(dst.active_sessions(), 1);
    }

    #[test]
    fn import_never_clobbers_newer_resident_session() {
        let t = SessionTracker::new(TrackerConfig::default());
        t.track(7, "fresh", 500);
        let stale = SessionExport {
            user: 7,
            queries: vec!["old".into()],
            last_seen: 400,
        };
        assert!(!t.import_session(&stale));
        assert_eq!(t.context(7, 500), vec!["fresh"]);
        // Equal timestamps also keep the resident session (>= rule).
        let tied = SessionExport {
            user: 7,
            queries: vec!["tied".into()],
            last_seen: 500,
        };
        assert!(!t.import_session(&tied));
        assert_eq!(t.context(7, 500), vec!["fresh"]);
        // A strictly newer export replaces it.
        let newer = SessionExport {
            user: 7,
            queries: vec!["newer".into()],
            last_seen: 501,
        };
        assert!(t.import_session(&newer));
        assert_eq!(t.context(7, 501), vec!["newer"]);
        assert_eq!(t.active_sessions(), 1);
    }

    #[test]
    fn users_spread_across_shards() {
        let t = SessionTracker::new(TrackerConfig {
            shards: 8,
            ..TrackerConfig::default()
        });
        let mut hit = std::collections::HashSet::new();
        for u in 0..64 {
            hit.insert(t.shard_index(u));
        }
        assert!(hit.len() > 1, "sequential ids all landed on one stripe");
    }

    #[test]
    fn concurrent_tracking_is_consistent() {
        let t = std::sync::Arc::new(SessionTracker::new(TrackerConfig {
            shards: 8,
            ..TrackerConfig::default()
        }));
        std::thread::scope(|scope| {
            for thread in 0..4u64 {
                let t = std::sync::Arc::clone(&t);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        let user = (thread * 1000) + (i % 50);
                        t.track(user, &format!("q{i}"), i);
                    }
                });
            }
        });
        assert_eq!(t.active_sessions(), 4 * 50);
    }
}
