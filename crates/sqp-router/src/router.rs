//! The routed serving tier: N independent [`ServeEngine`] replicas behind
//! one consistent-hash front door.
//!
//! Each replica owns its own session tracker, snapshot cell, admission
//! budget, and counters — there is no shared mutable state between
//! replicas, so the tier scales by adding replicas, not by making one
//! engine's stripes wider. A user's id hashes onto the [`HashRing`] and
//! every request for that user goes to the same replica, which is where
//! their session context lives. Replicas can therefore sit on *different*
//! model generations mid-roll without any request ever seeing a mix: a
//! suggestion is computed by exactly one replica against exactly one
//! snapshot handle (the single-engine no-torn-reads guarantee, inherited
//! per replica).
//!
//! # Batches
//!
//! A batch names users on several replicas and must come back in request
//! order. There is one scatter/gather (`RouterEngine::scatter_gather`)
//! behind both [`RouterEngine::suggest_batch`] and the surface's
//! admission-controlled `try_suggest_batch_into`: [`Members::scatter`]
//! sorts the requests into one contiguous run per replica, each replica
//! renders its run against its own snapshot into a per-thread
//! [`FlatAnswer`] (one text buffer, one `(score, span)` per suggestion, one
//! span per list), and only when the **last** involved replica has
//! answered is it written into the caller's [`SuggestSink`] in request
//! order. With admission, every
//! involved replica's permit is taken before any replica runs, so a shed
//! batch computed nothing, counted nothing and wrote nothing. A batch
//! whose users all live on one replica skips the arena and renders
//! straight into the caller's sink.
//!
//! Publication comes in two shapes, both replica-at-a-time underneath:
//! [`RouterEngine::publish`] fans one in-memory snapshot out to every
//! replica (an atomic swap each), while the rolling/fan-out *from disk*
//! paths — which validate bytes per replica and quarantine failures — are
//! this tier's impl of `sqp-store`'s `Publish`, keeping this crate free of
//! any storage dependency.
//!
//! # Live membership
//!
//! The replica set itself is **swappable**, under the same discipline as a
//! model publish: the ring plus the replica slots are one immutable
//! [`Members`] view behind a [`Swap`] cell — the same view, and the same
//! placement rule, the remote client in `sqp-net` routes its endpoints
//! with. Every request reads the view once, through [`Swap::with`]'s
//! per-thread handle (no lock, no reference count), and runs wholly
//! against it; a reconfiguration builds the next view off to the side and
//! installs it with one pointer swap. The cell's generation counter is the **ring
//! generation** an operator watches ([`RouterStats::ring_generation`]).
//!
//! Three membership verbs, all serialized by one control-plane mutex
//! (which [`RouterEngine::publish`] also takes, so a fan-out and a join
//! cannot interleave — see that method's docs for why that ordering
//! matters; serving never touches the mutex):
//!
//! * [`join_replica`](RouterEngine::join_replica) — grow the tier by one.
//!   Two-phase: compute the would-be ring, **copy** the moved users'
//!   session contexts into the new replica (export → import; contexts are
//!   query text, so the handoff is model-generation-independent), *then*
//!   swap the ring. A remapped user's next request sees an intact context.
//! * [`begin_drain`](RouterEngine::begin_drain) — start retiring a
//!   replica: its sessions are copied to their new homes, the ring swap
//!   stops routing new traffic to it, and the replica enters draining mode
//!   (serving stragglers, refusing new sessions) until
//!   [`retire_replica`](RouterEngine::retire_replica) drops it.
//! * [`remove_replica`](RouterEngine::remove_replica) — the no-handoff
//!   form for a replica that is already dead: its resident sessions are
//!   lost, but the loss is bounded by the ring's proven ≤ 2/N remap set.
//!
//! Handoff copies rather than moves: until the ring swap lands, the old
//! home keeps serving, so a handed-off user finds their context wherever
//! the ring routes them — on either side of the swap. The cost is bounded
//! staleness, not loss: a query tracked on the old home *between* export
//! and swap is missing from the copy, and the import's newest-wins rule
//! (`last_seen`) only closes that window for sessions re-tracked later.

use crate::members::{Members, Scatter};
use crate::ring::WouldEmptyRing;
use sqp_common::hash::fx_hash_one;
use sqp_common::scratch;
use sqp_serve::{
    EngineConfig, EngineStats, FlatAnswer, ModelSnapshot, Overloaded, ServeEngine, ServeSurface,
    SuggestRequest, SuggestSink, Suggestion, Swap, TrackOutcome,
};
use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Router construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Number of [`ServeEngine`] replicas to own. Each gets its own
    /// tracker/budget from `engine`, so memory and the admission budget
    /// both scale ×`replicas`.
    pub replicas: usize,
    /// Per-replica engine configuration.
    pub engine: EngineConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            replicas: 4,
            engine: EngineConfig::default(),
        }
    }
}

/// Per-replica health record, written on publish/quarantine transitions
/// (never on the serve path).
#[derive(Debug, Default)]
struct Health {
    quarantined: bool,
    last_error: Option<String>,
}

/// One replica of the tier inside the [`Members`] view: the engine plus
/// the health that travels with it across membership swaps.
#[derive(Clone)]
struct ReplicaSlot {
    engine: Arc<ServeEngine>,
    /// Shared across states (an `Arc`): quarantine marks survive
    /// membership swaps without rebuilding them into each new state.
    health: Arc<Mutex<Health>>,
    /// Model generation the replica had already reached when it joined the
    /// tier. A joined engine's own `Swap` counter starts at zero; adding
    /// this offset makes its reported generation comparable with the
    /// veterans', so the tier's skew math stays meaningful across joins.
    gen_offset: u64,
}

impl ReplicaSlot {
    /// The replica's tier-comparable model generation.
    fn generation(&self) -> u64 {
        self.gen_offset + self.engine.generation()
    }

    /// The engine's counters and gauges, with `publishes` the replica's
    /// tier-comparable generation.
    fn stats(&self) -> EngineStats {
        EngineStats {
            publishes: self.generation(),
            ..self.engine.stats()
        }
    }
}

/// The scatter/gather's working buffers, kept per thread (a connection's
/// thread serves batch after batch) so a warmed-up batch allocates nothing
/// here whatever its size.
#[derive(Default)]
struct Scratch {
    scatter: Scatter,
    /// A split batch's lists in the order the replicas rendered them.
    gather: FlatAnswer,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// One replica's row in [`RouterStats`].
#[derive(Clone, Debug)]
pub struct ReplicaStats {
    /// The replica's id — stable for its lifetime, never reused by the
    /// tier. For a tier that has seen no membership changes, ids are the
    /// construction indices `0..replicas`.
    pub id: u32,
    /// The replica engine's lock-free counters and gauges. `publishes` is
    /// the model generation it serves: its publish count, offset so that
    /// replicas joined mid-life report tier-comparable values.
    pub stats: EngineStats,
    /// Requests currently holding the replica's admission permits.
    pub in_flight: u64,
    /// True when the replica's last publication attempt failed validation
    /// and it is pinned on its last-good snapshot.
    pub quarantined: bool,
    /// True when the replica is draining: off the ring, serving resident
    /// sessions to completion, refusing new ones, awaiting retirement.
    pub draining: bool,
    /// Tracks the replica refused while draining (would-be new sessions).
    pub drain_refused: u64,
    /// The error that quarantined it, if any (kept after recovery until the
    /// next successful publish overwrites it).
    pub last_error: Option<String>,
}

/// Point-in-time view of the whole tier, one row per replica, plus the
/// generation envelope and the tier shape — the introspection an operator
/// watches during a rolling upgrade or a membership change.
#[derive(Clone, Debug)]
pub struct RouterStats {
    /// Per-replica rows, sorted by replica id.
    pub replicas: Vec<ReplicaStats>,
    /// Every live replica id (routed and draining), sorted ascending.
    pub replica_ids: Vec<u32>,
    /// Replica ids currently draining (off the ring, not yet retired).
    pub draining: Vec<u32>,
    /// Membership swap counter: 0 at construction, +1 per join / drain /
    /// retire / remove. The analogue of a model generation, for the ring.
    pub ring_generation: u64,
}

impl RouterStats {
    /// Lowest replica generation (the roll's trailing edge).
    pub fn min_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.stats.publishes)
            .min()
            .unwrap_or(0)
    }

    /// Highest replica generation (the roll's leading edge).
    pub fn max_generation(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.stats.publishes)
            .max()
            .unwrap_or(0)
    }

    /// `max_generation - min_generation`: 0 when the tier is converged,
    /// ≥1 while a roll is in flight or a replica is stuck/quarantined.
    pub fn generation_skew(&self) -> u64 {
        self.max_generation() - self.min_generation()
    }

    /// True when every replica serves the same generation.
    pub fn is_converged(&self) -> bool {
        self.generation_skew() == 0
    }

    /// Number of replicas currently quarantined.
    pub fn quarantined(&self) -> usize {
        self.replicas.iter().filter(|r| r.quarantined).count()
    }
}

/// Typed refusal from the membership verbs ([`RouterEngine::join_replica`]
/// and friends). Every variant leaves the tier exactly as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipError {
    /// The id names no live replica (never joined, or already retired).
    UnknownReplica(u32),
    /// The operation would leave the ring empty — a tier must keep at
    /// least one routed replica (the ring-level [`WouldEmptyRing`]
    /// invariant, surfaced through the membership API).
    LastReplica,
    /// `begin_drain` on a replica that is already draining.
    AlreadyDraining(u32),
    /// `retire_replica` on a replica that was never drained — retiring an
    /// undrained replica would silently drop its resident sessions; use
    /// [`RouterEngine::remove_replica`] to accept that loss explicitly.
    NotDraining(u32),
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownReplica(id) => write!(f, "no live replica with id {id}"),
            Self::LastReplica => write!(f, "refusing to remove the tier's last routed replica"),
            Self::AlreadyDraining(id) => write!(f, "replica {id} is already draining"),
            Self::NotDraining(id) => {
                write!(f, "replica {id} is not draining (drain before retiring)")
            }
        }
    }
}

impl std::error::Error for MembershipError {}

impl From<WouldEmptyRing> for MembershipError {
    fn from(_: WouldEmptyRing) -> Self {
        Self::LastReplica
    }
}

/// Account of one session handoff (a join or a drain): what moved, what
/// was skipped, and the ring generation the swap installed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandoffReport {
    /// The replica that joined or began draining.
    pub replica: u32,
    /// Sessions installed at their new homes.
    pub moved_sessions: usize,
    /// Exports dropped because the destination already held a session with
    /// activity at or after the export's (newest-wins; see
    /// `SessionTracker::import_session`).
    pub stale_skipped: usize,
    /// Sessions left behind because they were idle past the 30-minute
    /// cutoff at handoff time — dead context is not worth moving.
    pub skipped_idle: usize,
    /// The tier's ring generation after the membership swap.
    pub ring_generation: u64,
}

/// A replicated query-suggestion tier: consistent-hash routing over N
/// independently locked [`ServeEngine`] replicas.
///
/// All methods take `&self`; the router is meant to live in an [`Arc`]
/// shared across worker threads, exactly like a single engine.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sqp_logsim::RawLogRecord;
/// use sqp_router::{RouterConfig, RouterEngine};
/// use sqp_serve::{ModelSnapshot, ModelSpec, ServeSurface, TrainingConfig};
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
/// let router = RouterEngine::new(snapshot, RouterConfig::default());
///
/// let top = router.track_and_suggest(42, "rust", 3, 1_000);
/// assert_eq!(top[0].query, "rust atomics");
/// // The same user always lands on the same replica (until a membership
/// // change remaps their arc — and then their session moves with them).
/// assert_eq!(router.replica_for(42), router.replica_for(42));
/// ```
pub struct RouterEngine {
    /// The membership view, swapped whole (see the module docs).
    state: Swap<Members<ReplicaSlot>>,
    /// Serializes the membership verbs. Serving never takes this lock —
    /// reconfiguration builds the next state beside live traffic and
    /// installs it with one swap.
    membership: Mutex<()>,
    /// Configuration for engines built by [`RouterEngine::join_replica`] —
    /// the same sizing every original replica got.
    engine_cfg: EngineConfig,
}

impl RouterEngine {
    /// Build a tier of `cfg.replicas` engines (at least 1), every replica
    /// starting on `snapshot` at generation 0, with ids `0..replicas`.
    pub fn new(snapshot: Arc<ModelSnapshot>, cfg: RouterConfig) -> Self {
        let slots = (0..cfg.replicas.max(1)).map(|_| ReplicaSlot {
            engine: Arc::new(ServeEngine::new(Arc::clone(&snapshot), cfg.engine)),
            health: Arc::new(Mutex::new(Health::default())),
            gen_offset: 0,
        });
        Self {
            state: Swap::new(Arc::new(Members::new(slots))),
            membership: Mutex::new(()),
            engine_cfg: cfg.engine,
        }
    }

    fn state(&self) -> Arc<Members<ReplicaSlot>> {
        self.state.load()
    }

    /// Hold the control-plane lock for one membership change, recovering
    /// from a poisoned predecessor (every verb builds a complete new state
    /// before swapping, so a panicking one cannot leave a half-built view
    /// installed).
    fn lock_membership(&self) -> std::sync::MutexGuard<'_, ()> {
        self.membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live replicas (routed + draining).
    pub fn replica_count(&self) -> usize {
        self.state().len()
    }

    /// Every live replica id (routed and draining), sorted ascending.
    /// For a tier that has seen no membership changes these are `0..n`.
    pub fn replica_ids(&self) -> Vec<u32> {
        self.state().iter().map(|(id, _)| id).collect()
    }

    /// Replica ids currently draining (serving stragglers, off the ring).
    pub fn draining_ids(&self) -> Vec<u32> {
        self.state().off_ring_ids().collect()
    }

    /// Membership swap counter: 0 at construction, +1 per join / drain /
    /// retire / remove.
    pub fn ring_generation(&self) -> u64 {
        self.state.generation()
    }

    /// The replica id serving `user` under the current membership — stable
    /// between membership changes, so a user's session context is always
    /// found where it was written (and membership changes move the context
    /// along with the route).
    pub fn replica_for(&self, user: u64) -> usize {
        self.state.with(|state| state.home(user).0 as usize)
    }

    /// Direct handle to the replica with `id` (for tests and publication
    /// paths). The handle stays valid after the replica leaves the tier.
    ///
    /// # Panics
    ///
    /// Panics if no live replica has this id.
    pub fn replica(&self, id: usize) -> Arc<ServeEngine> {
        let state = self.state();
        let slot = state
            .get(id as u32)
            .unwrap_or_else(|| panic!("no live replica with id {id}"));
        Arc::clone(&slot.engine)
    }

    /// Batched suggestion across the tier: requests are scattered to each
    /// user's home replica (preserving request order within each
    /// sub-batch, so same-replica callers keep the single engine's stripe
    /// amortization) and the results gathered back into request order.
    /// Each sub-batch runs against exactly one replica snapshot, so every
    /// entry's suggestions are wholly from one model even mid-roll; the
    /// whole batch runs against exactly one membership view, read once.
    /// Takes no admission permits; the admission-controlled form is
    /// [`ServeSurface::try_suggest_batch_into`].
    pub fn suggest_batch(&self, requests: &[SuggestRequest], now: u64) -> Vec<Vec<Suggestion>> {
        FlatAnswer::with_scratch(|answer| {
            self.scatter_gather(requests, now, answer, false)
                .expect("only admission sheds, and none was asked for");
            answer.to_lists()
        })
    }

    /// The tier's one scatter/gather: one list per request to `sink`, in
    /// request order.
    ///
    /// *Scatter* is [`Members::scatter`]: one contiguous run per home
    /// replica. With `admit`, every involved replica's permit is then
    /// taken **before any replica runs**: the batch is all-or-nothing, so
    /// the first refusal fails the call with nothing computed, nothing
    /// added to any replica's `suggests` and nothing written. Uninvolved
    /// replicas spend nothing.
    ///
    /// *Gather*: a batch that lives on one replica (always, for a
    /// one-replica tier) renders straight into `sink`. Otherwise each
    /// replica renders its run into a per-thread [`FlatAnswer`], and only
    /// after the last replica has answered is it written into `sink` in
    /// request order ([`FlatAnswer::write_in_order`] with
    /// [`Runs::order`](crate::Runs::order)) — the caller's sink never sees replica
    /// order, and never sees part of a batch.
    fn scatter_gather(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
        admit: bool,
    ) -> Result<(), Overloaded> {
        self.state.with(|state| {
            scratch::with(&SCRATCH, |Scratch { scatter, gather }| {
                let runs = state.scatter(requests, scatter);
                let mut answer = || {
                    if !runs.is_split() {
                        // One run is the whole batch, already in request order.
                        for (slot, run) in runs.iter() {
                            slot.engine.suggest_batch_into(run, now, sink);
                        }
                        return;
                    }
                    gather.clear();
                    for (slot, run) in runs.iter() {
                        slot.engine.suggest_batch_into(run, now, gather);
                    }
                    gather.write_in_order(runs.order(), sink);
                };
                if admit {
                    admitted(runs.iter().map(|(slot, _)| &*slot.engine), answer)
                } else {
                    answer();
                    Ok(())
                }
            })
        })
    }

    /// Stateless suggestion for an explicit context. No session is
    /// involved, so any replica could answer; the context itself is hashed
    /// onto the ring to spread these deterministically.
    pub fn suggest_context(&self, context: &[&str], k: usize) -> Vec<Suggestion> {
        self.state.with(|state| {
            let id = state.ring().route_hash(fx_hash_one(&context));
            state
                .get(id)
                .expect("routed id has a slot")
                .engine
                .suggest_context(context, k)
        })
    }

    /// Fan an in-memory snapshot out to every replica — N atomic swaps, in
    /// replica-id order (draining replicas included: they are still
    /// serving). Each swap also lifts that replica's quarantine: a direct
    /// publish hands the replica known-good bytes, superseding whatever
    /// failed before. Returns the tier's minimum generation after the
    /// fan-out (the roll's trailing edge).
    ///
    /// Serialized with the membership verbs on the control-plane mutex: an
    /// unserialized fan-out racing [`join_replica`](Self::join_replica)
    /// could cover only the pre-join slots while the newcomer seeded from
    /// the pre-publish snapshot — a replica a full generation behind with
    /// no roll in flight. Under the lock a join either lands first (the
    /// newcomer is in the slot set this fan-out covers) or after (it seeds
    /// from a replica the fan-out already upgraded). Serving is unaffected;
    /// only reconfiguration waits.
    pub fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        let _m = self.lock_membership();
        let state = self.state();
        for (_, slot) in state.iter() {
            slot.engine.publish(Arc::clone(&snapshot));
            Self::lock_health_slot(slot).quarantined = false;
        }
        state.iter().map(|(_, s)| s.generation()).min().unwrap_or(0)
    }

    /// Publish to the single replica with `id` (one atomic swap) and mark
    /// it active. This is the step primitive rolling upgrades are built
    /// from. Returns the replica's new (tier-comparable) generation.
    ///
    /// `id` is resolved against the **current** membership: an id is not
    /// a handle, and the replica it names may have retired or been
    /// removed by a concurrent membership change (a roll takes no
    /// membership lock). In that case nothing is touched and the result
    /// is `None`.
    pub fn try_publish_to(&self, id: usize, snapshot: Arc<ModelSnapshot>) -> Option<u64> {
        let state = self.state();
        let slot = state.get(id as u32)?;
        slot.engine.publish(snapshot);
        Self::lock_health_slot(slot).quarantined = false;
        Some(slot.generation())
    }

    /// Pin the replica with `id` on its current (last-good) snapshot and
    /// record why its publication failed. The replica keeps serving —
    /// quarantine is a publication-side state, not a traffic stop.
    /// Returns whether `id` still named a live replica (and was marked):
    /// a replica that left the tier mid-roll has nothing to quarantine.
    pub fn try_mark_quarantined(&self, id: usize, error: impl Into<String>) -> bool {
        let state = self.state();
        let Some(slot) = state.get(id as u32) else {
            return false;
        };
        let mut health = Self::lock_health_slot(slot);
        health.quarantined = true;
        health.last_error = Some(error.into());
        true
    }

    /// True when replica `id` is quarantined.
    ///
    /// # Panics
    ///
    /// Panics if no live replica has this id.
    pub fn is_quarantined(&self, id: usize) -> bool {
        let state = self.state();
        let slot = state
            .get(id as u32)
            .unwrap_or_else(|| panic!("no live replica with id {id}"));
        let quarantined = Self::lock_health_slot(slot).quarantined;
        quarantined
    }

    fn lock_health_slot(slot: &ReplicaSlot) -> std::sync::MutexGuard<'_, Health> {
        // Health transitions are trivially tear-proof (two plain fields);
        // recover rather than propagate a panicking publisher's poison.
        slot.health.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Grow the tier by one replica. Two-phase handoff, then one swap:
    ///
    /// 1. Build the new engine on the freshest live snapshot (so it serves
    ///    the roll's leading edge from its first request) and compute the
    ///    would-be ring.
    /// 2. **Copy** every live session the new ring assigns to the newcomer
    ///    out of the old homes and import it into the new engine. Sessions
    ///    are query text — valid against any snapshot generation.
    /// 3. Swap the ring. From this instant the moved users route to the
    ///    newcomer and find their contexts intact; until it, their old
    ///    homes kept serving them. Zero context resets either way.
    ///
    /// `now` is the logical clock the 30-minute rule is judged against
    /// (idle sessions are not worth moving). Returns the handoff account;
    /// [`HandoffReport::replica`] is the newcomer's id — fresh, never a
    /// reused one.
    pub fn join_replica(&self, now: u64) -> HandoffReport {
        let _m = self.lock_membership();
        let old = self.state();

        // Seed from the replica serving the highest generation, so the
        // newcomer joins on the leading edge, and carry that generation as
        // the newcomer's offset (its own Swap counter starts at zero).
        let (_, freshest) = old
            .iter()
            .max_by_key(|(_, s)| s.generation())
            .expect("tier is never empty");
        let engine = Arc::new(ServeEngine::new(
            freshest.engine.snapshot(),
            self.engine_cfg,
        ));
        let (new_id, next) = old.join(ReplicaSlot {
            engine: Arc::clone(&engine),
            health: Arc::new(Mutex::new(Health::default())),
            gen_offset: freshest.generation(),
        });

        let mut report = HandoffReport {
            replica: new_id,
            ..HandoffReport::default()
        };
        // Export from every old slot (draining ones included — they may
        // hold the freshest copy for a straggler) whatever the new ring
        // hands to the newcomer. Imports resolve duplicates newest-wins.
        for (_, slot) in old.iter() {
            let batch = slot
                .engine
                .tracker()
                .export_sessions(now, |user| next.home(user).0 == new_id);
            report.skipped_idle += batch.skipped_idle;
            for export in &batch.sessions {
                if engine.tracker().import_session(export) {
                    report.moved_sessions += 1;
                } else {
                    report.stale_skipped += 1;
                }
            }
        }

        report.ring_generation = self.state.store(Arc::new(next));
        report
    }

    /// Start retiring replica `id`: copy its live sessions to the homes
    /// the shrunken ring assigns them, swap the ring so no new traffic
    /// routes to it, and put the replica in draining mode (stragglers that
    /// raced the swap keep being served; new sessions are refused). Finish
    /// with [`retire_replica`](Self::retire_replica) once its in-flight
    /// work has quiesced.
    ///
    /// `now` is the logical clock for the 30-minute rule. The handed-off
    /// users see zero context resets: their sessions exist at the new home
    /// before the ring stops routing them to the old one.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], [`MembershipError::AlreadyDraining`],
    /// or [`MembershipError::LastReplica`] (the ring refuses to empty).
    pub fn begin_drain(&self, id: u32, now: u64) -> Result<HandoffReport, MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        let victim = old.get(id).ok_or(MembershipError::UnknownReplica(id))?;
        if !old.is_on_ring(id) {
            return Err(MembershipError::AlreadyDraining(id));
        }
        let next = old.take_off_ring(id)?;

        // Draining mode first: from here no *new* session can take root on
        // the victim, so the export below cannot miss one racing in.
        victim.engine.set_draining(true);

        let mut report = HandoffReport {
            replica: id,
            ..HandoffReport::default()
        };
        let batch = victim.engine.tracker().export_sessions(now, |_| true);
        report.skipped_idle = batch.skipped_idle;
        for export in &batch.sessions {
            let (_, dst) = next.home(export.user);
            if dst.engine.tracker().import_session(export) {
                report.moved_sessions += 1;
            } else {
                report.stale_skipped += 1;
            }
        }

        report.ring_generation = self.state.store(Arc::new(next));
        Ok(report)
    }

    /// Drop a **drained** replica from the tier. Its slot disappears from
    /// stats and `replica_ids`; handles obtained earlier stay valid (the
    /// engine is an `Arc`), they just receive no routed traffic.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], or
    /// [`MembershipError::NotDraining`] if [`begin_drain`](Self::begin_drain)
    /// was never run — retiring an undrained replica would silently drop
    /// its sessions; use [`remove_replica`](Self::remove_replica) to
    /// accept that explicitly.
    pub fn retire_replica(&self, id: u32) -> Result<(), MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        old.get(id).ok_or(MembershipError::UnknownReplica(id))?;
        if old.is_on_ring(id) {
            return Err(MembershipError::NotDraining(id));
        }
        self.state.store(Arc::new(old.remove(id)?));
        Ok(())
    }

    /// Drop replica `id` **without** a drain — the verb for a replica that
    /// is already dead (crashed process, lost host). No handoff happens:
    /// its resident sessions are lost, and the affected users start fresh
    /// sessions at whatever homes the shrunken ring assigns them. The loss
    /// is bounded by the remap set — ≤ 2/N of users for one removal, the
    /// ring property proven in this crate's tests.
    ///
    /// # Errors
    ///
    /// [`MembershipError::UnknownReplica`], or
    /// [`MembershipError::LastReplica`] when removing the last routed
    /// replica (the ring refuses to empty).
    pub fn remove_replica(&self, id: u32) -> Result<(), MembershipError> {
        let _m = self.lock_membership();
        let old = self.state();
        old.get(id).ok_or(MembershipError::UnknownReplica(id))?;
        self.state.store(Arc::new(old.remove(id)?));
        Ok(())
    }

    /// Drop idle sessions across every replica; returns the total evicted.
    pub fn evict_idle(&self, now: u64) -> usize {
        let state = self.state();
        state.iter().map(|(_, s)| s.engine.evict_idle(now)).sum()
    }

    /// Sessions resident across the tier (sum of per-replica lock-free
    /// gauges).
    pub fn active_sessions(&self) -> usize {
        let state = self.state();
        state.iter().map(|(_, s)| s.engine.active_sessions()).sum()
    }

    /// Snapshot the whole tier's health: per-replica counters (`publishes`
    /// the tier-comparable generation), in-flight, quarantine and draining
    /// state, plus the tier shape (replica ids, draining set, ring
    /// generation). The engine rows are pure atomic loads (no stripe
    /// locks — see [`EngineStats`]); the only locks taken are the cold
    /// per-replica health mutexes, which the serve path never touches.
    pub fn stats(&self) -> RouterStats {
        let state = self.state();
        let replicas = state
            .iter()
            .map(|(id, slot)| {
                let health = Self::lock_health_slot(slot);
                ReplicaStats {
                    id,
                    stats: slot.stats(),
                    in_flight: slot.engine.in_flight(),
                    quarantined: health.quarantined,
                    draining: !state.is_on_ring(id),
                    drain_refused: slot.engine.drain_refused(),
                    last_error: health.last_error.clone(),
                }
            })
            .collect();
        RouterStats {
            replicas,
            replica_ids: state.iter().map(|(id, _)| id).collect(),
            draining: state.off_ring_ids().collect(),
            ring_generation: self.state.generation(),
        }
    }
}

/// The router speaks the same [`ServeSurface`] as a single engine, so the
/// network front-end (`sqp-net`) and the soak runner (`sqp-soak::runner`)
/// run unchanged on a replicated tier. Its track
/// and suggest family lives here and nowhere else: the `Vec`-returning
/// forms are the trait's provided ones, and the unadmitted
/// [`RouterEngine::suggest_batch`] stays only because the benchmark calls
/// it. A track goes to the user's home replica, and a single-user suggest
/// is decided by the home replica's in-flight budget, so overload on one
/// replica sheds only its own users; a batch goes through the tier's one
/// scatter/gather with every involved replica's permit taken first. Its
/// `stats` is the [`EngineStats::fold`] of the replica rows, so `publishes`
/// is the trailing edge ([`RouterStats::min_generation`]).
impl ServeSurface for RouterEngine {
    fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome {
        self.state
            .with(|state| state.home(user).1.engine.track(user, query, now))
    }
    fn try_suggest_into(
        &self,
        user: u64,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        self.state.with(|state| {
            let home = &state.home(user).1.engine;
            home.try_suggest_into(user, k, now, sink)
        })
    }
    fn try_track_and_suggest_into(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        self.state.with(|state| {
            let home = &state.home(user).1.engine;
            home.try_track_and_suggest_into(user, query, k, now, sink)
        })
    }
    fn try_suggest_batch_into(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        self.scatter_gather(requests, now, sink, true)
    }
    fn evict_idle(&self, now: u64) -> usize {
        RouterEngine::evict_idle(self, now)
    }
    fn stats(&self) -> EngineStats {
        EngineStats::fold(self.state().iter().map(|(_, slot)| slot.stats()))
    }
}

/// Run `f` holding one admission permit from each of `engines`, every
/// permit held in its own stack frame (no list to allocate). The first
/// refusal fails the call before `f` runs, and unwinding the frames drops
/// every permit already taken.
fn admitted<'a>(
    mut engines: impl Iterator<Item = &'a ServeEngine>,
    f: impl FnOnce(),
) -> Result<(), Overloaded> {
    match engines.next() {
        Some(engine) => {
            let _permit = engine.admit()?;
            admitted(engines, f)
        }
        None => {
            f();
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{ModelSpec, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn snapshot(prefix: &str) -> Arc<ModelSnapshot> {
        let mut records = Vec::new();
        for u in 0..6 {
            records.push(rec(u, 100, "start"));
            records.push(rec(u, 160, &format!("{prefix}::next")));
        }
        Arc::new(ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ))
    }

    fn router(replicas: usize) -> RouterEngine {
        RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas,
                ..RouterConfig::default()
            },
        )
    }

    #[test]
    fn routes_are_sticky_and_sessions_live_on_one_replica() {
        let r = router(4);
        for user in 0..200u64 {
            assert_eq!(r.replica_for(user), r.replica_for(user));
        }
        r.track(7, "start", 100);
        let home = r.replica_for(7);
        // The session context exists only on the home replica.
        for id in r.replica_ids() {
            let context = r.replica(id as usize).tracker().context(7, 110);
            if id as usize == home {
                assert_eq!(context, vec!["start"]);
            } else {
                assert!(context.is_empty(), "session leaked to replica {id}");
            }
        }
        assert_eq!(r.try_suggest(7, 1, 110).unwrap()[0].query, "old::next");
    }

    #[test]
    fn batch_matches_individual_calls_across_replicas() {
        for replicas in [1, 4] {
            batch_matches_individual_calls(&router(replicas));
        }
    }

    fn batch_matches_individual_calls(r: &RouterEngine) {
        for user in 0..64 {
            r.track(user, "start", 100);
        }
        let requests: Vec<SuggestRequest> = (0..64)
            .chain([999]) // never tracked
            .map(|user| SuggestRequest { user, k: 2 })
            .collect();
        let batch = r.suggest_batch(&requests, 150);
        assert_eq!(batch.len(), 65);
        for (request, got) in requests.iter().zip(&batch) {
            assert_eq!(
                *got,
                r.try_suggest(request.user, request.k, 150).unwrap(),
                "user {}",
                request.user
            );
        }
        assert!(batch[64].is_empty());
    }

    #[test]
    fn fan_out_publish_converges_every_replica() {
        let r = router(3);
        r.track(1, "start", 100);
        assert_eq!(r.publish(snapshot("new")), 1);
        let stats = r.stats();
        assert!(stats.is_converged());
        assert_eq!(stats.max_generation(), 1);
        assert_eq!(r.try_suggest(1, 1, 110).unwrap()[0].query, "new::next");
    }

    #[test]
    fn per_replica_publish_creates_and_reports_skew() {
        let r = router(3);
        r.try_publish_to(0, snapshot("new"))
            .expect("replica 0 is live");
        let stats = r.stats();
        assert_eq!(stats.min_generation(), 0);
        assert_eq!(stats.max_generation(), 1);
        assert_eq!(stats.generation_skew(), 1);
        assert!(!stats.is_converged());
    }

    #[test]
    fn quarantine_marks_report_and_publish_clears() {
        let r = router(2);
        assert!(r.try_mark_quarantined(1, "checksum mismatch"));
        assert!(r.is_quarantined(1));
        let stats = r.stats();
        assert_eq!(stats.quarantined(), 1);
        assert_eq!(
            stats.replicas[1].last_error.as_deref(),
            Some("checksum mismatch")
        );
        // A quarantined replica still serves.
        r.track(2, "start", 100);
        let home = r.replica_for(2);
        assert!(r.try_mark_quarantined(home, "still serving?"));
        assert_eq!(r.try_suggest(2, 1, 110).unwrap()[0].query, "old::next");
        // Publishing good bytes lifts the quarantine.
        r.try_publish_to(1, snapshot("new"))
            .expect("replica 1 is live");
        assert!(!r.is_quarantined(1));
    }

    #[test]
    fn overload_sheds_per_replica() {
        let r = RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas: 2,
                engine: EngineConfig {
                    max_in_flight: 1,
                    ..EngineConfig::default()
                },
            },
        );
        // Saturate user 1's home replica only.
        let home = r.replica_for(1);
        let home_engine = r.replica(home);
        let _permit = home_engine.admit().unwrap();
        assert!(r.try_track_and_suggest(1, "start", 1, 100).is_err());
        // A user on the *other* replica is unaffected.
        let other_user = (0..u64::MAX)
            .find(|&u| r.replica_for(u) != home)
            .expect("some user maps to the other replica");
        assert!(r.try_track_and_suggest(other_user, "start", 1, 100).is_ok());
        assert_eq!(r.stats().replicas[home].stats.shed, 1);
    }

    #[test]
    fn try_batch_is_all_or_nothing_and_aggregates_report_the_trailing_edge() {
        let r = RouterEngine::new(
            snapshot("old"),
            RouterConfig {
                replicas: 3,
                engine: EngineConfig {
                    max_in_flight: 1,
                    ..EngineConfig::default()
                },
            },
        );
        for user in 0..24 {
            r.track(user, "start", 100);
        }
        let requests: Vec<SuggestRequest> =
            (0..24).map(|user| SuggestRequest { user, k: 1 }).collect();
        let ok = r.try_suggest_batch(&requests, 120).unwrap();
        assert_eq!(ok.len(), 24);
        assert!(ok.iter().all(|s| s[0].query == "old::next"));
        // Saturate the *last* involved replica: the whole batch sheds, and
        // a shed batch contributes nothing — no replica counts suggestions
        // it never served, no permit stays taken, the sink stays untouched.
        let suggests_before: Vec<u64> = r
            .stats()
            .replicas
            .iter()
            .map(|x| x.stats.suggests)
            .collect();
        assert!(
            suggests_before.iter().all(|&n| n > 0),
            "every replica involved"
        );
        let last_engine = r.replica(2);
        let permit = last_engine.admit().unwrap();
        let mut sink = FlatAnswer::default();
        assert_eq!(
            r.try_suggest_batch_into(&requests, 130, &mut sink),
            Err(Overloaded { limit: 1 })
        );
        assert!(sink.is_empty(), "a shed batch wrote to the sink: {sink:?}");
        let after = r.stats();
        let suggests_after: Vec<u64> = after.replicas.iter().map(|x| x.stats.suggests).collect();
        assert_eq!(suggests_after, suggests_before);
        assert_eq!(
            after.replicas.iter().map(|x| x.in_flight).sum::<u64>(),
            1,
            "only the test's own permit is out"
        );
        drop(permit);
        // The unadmitted form never sheds and answers the same lists.
        assert_eq!(r.suggest_batch(&requests, 130), ok);
        let _permit = last_engine.admit().unwrap();
        assert_eq!(r.suggest_batch(&requests, 130), ok);

        // The tier's stats fold counters and report the trailing edge.
        r.try_publish_to(0, snapshot("new"))
            .expect("replica 0 is live");
        let surface: &dyn ServeSurface = &r;
        let folded = surface.stats();
        assert_eq!(folded.publishes, 0, "tier not fully propagated yet");
        assert_eq!(folded.tracks, 24);
        assert_eq!(folded.suggests, 3 * 24, "three answered batches, one shed");
        assert_eq!(folded.active_sessions, 24);
        assert_eq!(folded.shed, 1);
        r.publish(snapshot("new"));
        assert_eq!(surface.stats().publishes, r.stats().min_generation());
    }

    /// A joined replica's row carries the tier-comparable generation in
    /// `stats.publishes`, and the tier's record is the field-by-field fold
    /// of its rows: counters and gauges sum, `publishes` is the minimum.
    #[test]
    fn the_tier_record_folds_the_rows_across_a_join() {
        let r = router(3);
        for user in 0..60u64 {
            r.track(user, "start", 100);
        }
        r.publish(snapshot("new"));
        r.publish(snapshot("newer"));
        for user in 0..60u64 {
            r.try_suggest(user, 1, 110).unwrap();
        }
        let report = r.join_replica(120);
        r.evict_idle(u64::MAX / 2);

        let stats = r.stats();
        let row = stats
            .replicas
            .iter()
            .find(|row| row.id == report.replica)
            .unwrap();
        assert_eq!(row.stats.publishes, 2, "{stats:?}");
        assert_eq!(stats.min_generation(), 2);
        let rows = || stats.replicas.iter().map(|row| row.stats);
        let expected = EngineStats {
            tracks: rows().map(|s| s.tracks).sum(),
            suggests: rows().map(|s| s.suggests).sum(),
            publishes: rows().map(|s| s.publishes).min().unwrap(),
            shed: rows().map(|s| s.shed).sum(),
            evictions: rows().map(|s| s.evictions).sum(),
            active_sessions: rows().map(|s| s.active_sessions).sum(),
        };
        assert_eq!(ServeSurface::stats(&r), expected);
        assert_eq!((expected.tracks, expected.suggests), (60, 60));
        assert!(expected.evictions > 0);
    }

    /// Compile-time audit (mirrors sqp-serve's): the tier is shareable
    /// exactly like a single engine, including type-erased.
    #[test]
    fn router_surface_is_send_sync() {
        fn takes_surface<S: ServeSurface>() {}
        fn takes_send_sync<T: Send + Sync>() {}
        takes_surface::<RouterEngine>();
        takes_send_sync::<RouterEngine>();
        takes_send_sync::<Arc<dyn ServeSurface>>();
    }

    #[test]
    fn eviction_and_residency_aggregate() {
        let r = router(4);
        for user in 0..50 {
            r.track(user, "start", 0);
        }
        assert_eq!(r.active_sessions(), 50);
        assert_eq!(r.evict_idle(u64::MAX / 2), 50);
        assert_eq!(r.active_sessions(), 0);
        let total_evictions: u64 = r.stats().replicas.iter().map(|x| x.stats.evictions).sum();
        assert_eq!(total_evictions, 50);
    }

    #[test]
    fn stats_expose_the_tier_shape() {
        let r = router(3);
        let stats = r.stats();
        assert_eq!(stats.replica_ids, vec![0, 1, 2]);
        assert!(stats.draining.is_empty());
        assert_eq!(stats.ring_generation, 0);
        assert_eq!(stats.replicas.len(), 3);
        for (at, row) in stats.replicas.iter().enumerate() {
            assert_eq!(row.id as usize, at);
            assert!(!row.draining);
            assert_eq!(row.drain_refused, 0);
        }
    }

    #[test]
    fn join_moves_exactly_the_remapped_users_with_contexts_intact() {
        let r = router(3);
        for user in 0..300u64 {
            r.track(user, "start", 100);
        }
        let before: Vec<usize> = (0..300u64).map(|u| r.replica_for(u)).collect();
        let report = r.join_replica(120);
        assert_eq!(report.replica, 3);
        assert_eq!(report.ring_generation, 1);
        assert_eq!(r.replica_ids(), vec![0, 1, 2, 3]);
        let moved: Vec<u64> = (0..300u64).filter(|&u| r.replica_for(u) == 3).collect();
        assert_eq!(report.moved_sessions, moved.len());
        assert!(!moved.is_empty(), "some users must remap to the newcomer");
        // Remap bound: one join moves ≤ 2/N of users (N = new size).
        assert!(moved.len() <= 2 * 300 / 4, "moved {}", moved.len());
        for user in 0..300u64 {
            let now_home = r.replica_for(user);
            if !moved.contains(&user) {
                assert_eq!(now_home, before[user as usize], "non-remapped user moved");
            }
            // Every user — moved or not — keeps an intact context.
            assert_eq!(
                r.try_suggest(user, 1, 140).unwrap()[0].query,
                "old::next",
                "user {user} lost their context"
            );
        }
    }

    #[test]
    fn join_seeds_from_the_freshest_replica_and_offsets_generation() {
        let r = router(2);
        r.publish(snapshot("new"));
        r.try_publish_to(0, snapshot("newer"))
            .expect("replica 0 is live");
        // Tier: replica 0 at gen 2, replica 1 at gen 1.
        let report = r.join_replica(10);
        let stats = r.stats();
        let row = stats
            .replicas
            .iter()
            .find(|row| row.id == report.replica)
            .unwrap();
        assert_eq!(
            row.stats.publishes, 2,
            "newcomer joins on the leading edge: {stats:?}"
        );
        assert_eq!(stats.max_generation(), 2);
        assert_eq!(stats.min_generation(), 1);
        // The newcomer serves the freshest vocabulary.
        let user = (0..u64::MAX)
            .find(|&u| r.replica_for(u) == report.replica as usize)
            .unwrap();
        r.track(user, "start", 20);
        assert_eq!(r.try_suggest(user, 1, 30).unwrap()[0].query, "newer::next");
    }

    #[test]
    fn drain_hands_sessions_off_and_retire_drops_the_slot() {
        let r = router(3);
        for user in 0..200u64 {
            r.track(user, "start", 100);
        }
        let victims: Vec<u64> = (0..200u64).filter(|&u| r.replica_for(u) == 1).collect();
        assert!(!victims.is_empty());
        let report = r.begin_drain(1, 120).unwrap();
        assert_eq!(report.replica, 1);
        assert_eq!(report.moved_sessions, victims.len());
        assert_eq!(r.draining_ids(), vec![1]);
        assert!(r.stats().replicas[1].draining);
        // Nothing routes to the draining replica; every session is intact.
        for user in 0..200u64 {
            assert_ne!(r.replica_for(user), 1);
            assert_eq!(
                r.try_suggest(user, 1, 140).unwrap()[0].query,
                "old::next",
                "user {user} lost their context in the drain"
            );
        }
        // The draining replica refuses new sessions but serves old ones.
        let engine = r.replica(1);
        assert!(engine.is_draining());
        // Retire cannot be skipped past drain.
        assert_eq!(r.retire_replica(0), Err(MembershipError::NotDraining(0)));
        assert_eq!(r.retire_replica(1), Ok(()));
        assert_eq!(r.replica_ids(), vec![0, 2]);
        assert_eq!(r.ring_generation(), 2, "drain + retire = two swaps");
        // Double-retire reports the id as unknown.
        assert_eq!(r.retire_replica(1), Err(MembershipError::UnknownReplica(1)));
    }

    #[test]
    fn remove_without_drain_loses_only_the_remapped_set() {
        let r = router(4);
        for user in 0..400u64 {
            r.track(user, "start", 100);
        }
        let lost: Vec<u64> = (0..400u64).filter(|&u| r.replica_for(u) == 2).collect();
        r.remove_replica(2).unwrap();
        assert_eq!(r.replica_ids(), vec![0, 1, 3]);
        for user in 0..400u64 {
            let suggestions = r.try_suggest(user, 1, 120).unwrap();
            if lost.contains(&user) {
                assert!(
                    suggestions.is_empty(),
                    "user {user}'s session should be gone"
                );
            } else {
                assert_eq!(
                    suggestions[0].query, "old::next",
                    "unaffected user {user} lost their session"
                );
            }
        }
        // Bound: an undrained kill loses ≤ 2/N of sessions.
        assert!(lost.len() <= 2 * 400 / 4, "lost {}", lost.len());
    }

    #[test]
    fn concurrent_fan_out_and_membership_churn_stay_converged() {
        // The race the control-plane mutex exists to prevent: a fan-out
        // loading the pre-join slot set while the joiner seeds from the
        // pre-publish snapshot would leave a generation-behind newcomer
        // with no roll in flight. With publish serialized against the
        // verbs, every quiescent interleaving converges.
        const PUBLISHES: u64 = 20;
        let r = router(3);
        std::thread::scope(|scope| {
            let publisher = scope.spawn(|| {
                for i in 0..PUBLISHES {
                    r.publish(snapshot(&format!("gen{i}")));
                }
            });
            for _ in 0..6 {
                let id = r.join_replica(0).replica;
                std::thread::yield_now();
                r.begin_drain(id, 0).unwrap();
                r.retire_replica(id).unwrap();
            }
            publisher.join().unwrap();
        });
        let stats = r.stats();
        assert!(
            stats.is_converged(),
            "a joiner fell behind a racing fan-out: {stats:?}"
        );
        assert_eq!(stats.max_generation(), PUBLISHES);
        assert_eq!(stats.replica_ids, vec![0, 1, 2]);
    }

    #[test]
    fn try_variants_are_no_ops_on_a_departed_replica() {
        let r = router(3);
        r.remove_replica(2).unwrap();
        assert_eq!(r.try_publish_to(2, snapshot("new")), None);
        assert!(!r.try_mark_quarantined(2, "late quarantine"));
        assert_eq!(r.stats().quarantined(), 0, "departed id must mark nothing");
        // On a live replica the try forms behave exactly like the verbs.
        assert_eq!(r.try_publish_to(0, snapshot("new")), Some(1));
        assert!(r.try_mark_quarantined(1, "bad bytes"));
        assert!(r.is_quarantined(1));
    }

    #[test]
    fn membership_refuses_the_degenerate_cases() {
        let r = router(1);
        assert_eq!(r.begin_drain(0, 10), Err(MembershipError::LastReplica));
        assert_eq!(r.remove_replica(0), Err(MembershipError::LastReplica));
        assert_eq!(
            r.begin_drain(9, 10),
            Err(MembershipError::UnknownReplica(9))
        );
        assert_eq!(r.remove_replica(9), Err(MembershipError::UnknownReplica(9)));
        // Grow to 2, drain one, and the drained one cannot drain again.
        r.join_replica(10);
        r.begin_drain(0, 20).unwrap();
        assert_eq!(
            r.begin_drain(0, 30),
            Err(MembershipError::AlreadyDraining(0))
        );
        // A draining replica can still be removed abruptly (dead host).
        r.remove_replica(0).unwrap();
        assert_eq!(r.replica_ids(), vec![1]);
        // Ids are never reused: the next join gets a fresh id.
        assert_eq!(r.join_replica(40).replica, 2);
    }
}
