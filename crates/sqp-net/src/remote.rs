//! [`RemoteEngine`]: a resilient cross-process serving tier.
//!
//! `RemoteEngine` implements [`ServeSurface`] over one or more
//! [`NetClient`] endpoints, so a *remote* server tier is a drop-in
//! replacement for an in-process [`ServeEngine`](sqp_serve::ServeEngine)
//! anywhere the workspace is generic over the surface trait — the
//! `serve_loop` stress harness, benchmarks, operators polling stats.
//! Unlike a bare `NetClient`, it is resilient by construction:
//!
//! * **Deadlines** — every operation carries a wall-clock deadline threaded
//!   through the [`Clock`] seam; connects, reads, and writes are all
//!   bounded by the remaining budget, so a black-holed endpoint costs at
//!   most the deadline, never a hung caller.
//! * **Retries with backoff** — failed attempts retry with capped
//!   exponential backoff and deterministic per-operation jitter, but only
//!   for idempotent operations (`SUGGEST`, `SUGGEST_BATCH`, `STATS`,
//!   `PING`, `EVICT`). `TRACK`/`TRACK_SUGGEST` mutate session state, and a
//!   transport failure after the request bytes left the socket is
//!   ambiguous — the server may have executed it — so those are **never
//!   re-sent**; the caller gets a typed degraded outcome instead of a
//!   silent double-track.
//! * **Per-endpoint circuit breakers** — the shared
//!   [`sqp_common::breaker::Breaker`] (same state machine as the
//!   supervised retrain loop) trips a flapping endpoint out of rotation;
//!   after a cooldown one half-open probe decides between recovery and
//!   re-tripping.
//! * **Placement on the ring** — a user's home endpoint is their owner
//!   on the same consistent-hash [`Members`] view the in-process router
//!   places replicas with, so session affinity holds while the endpoint
//!   is healthy, and adding or retiring an endpoint moves at most ≈ 2/N
//!   of users (everyone else keeps the server that holds their context).
//! * **Failover** — when the home endpoint is open or failing, attempts
//!   walk the ring's distinct successors from the user's point. The first
//!   of them is where the user would move if their home retired, so
//!   writes made during failover land where a retire routes them.
//! * **Batches split by owner** — a `SUGGEST_BATCH` is grouped by home
//!   endpoint with [`Members::scatter`] (the router's own scatter), sent as
//!   one sub-batch per involved endpoint under one deadline, and gathered
//!   back into request order. The outcome is all-or-nothing: any shed
//!   sub-batch sheds the batch, otherwise any degraded one degrades it.
//!   With one endpoint the batch goes whole.
//! * **Typed degradation, not errors** — when every endpoint is down the
//!   outcome is [`RemoteOutcome::Degraded`] with a
//!   [`DegradedReason`]; through the `ServeSurface` mapping that becomes
//!   an *empty suggestion list* plus a counter, because a search box with
//!   no suggestions is degraded service, while a search box that throws
//!   is an outage.
//!
//! Connections are pooled per endpoint (warmup at construction, reconnect
//! on demand, capped checkin), so steady state pays one connect per pooled
//! slot, not per request.
//!
//! # Live endpoint membership
//!
//! The endpoint set and its ring are one immutable [`Members`] view held
//! in a [`Swap`] — the same publication cell the serve tier uses for
//! model snapshots — so it can change **at runtime, under traffic**, with
//! one pointer swap and zero locks on the serving path. Every operation
//! reads the view once, through [`Swap::with`]'s per-thread handle, and
//! runs its whole deadline/retry/failover scan against it:
//!
//! * [`add_endpoint`](RemoteEngine::add_endpoint) builds a new endpoint
//!   (best-effort pool warmup, fresh breaker), puts it on the ring and
//!   swaps the view in; the very next operation can route to it.
//! * [`retire_endpoint`](RemoteEngine::retire_endpoint) swaps the
//!   endpoint *out* first — no new operation will scan it — then waits
//!   out its in-flight operations (bounded by one operation's worst case,
//!   `deadline + attempt_timeout`), then drains its connection pool so
//!   the client side initiates every TCP close. Retiring the last
//!   endpoint is refused: an empty tier cannot degrade gracefully, it can
//!   only error.
//!
//! Operations that raced the swap and still hold the old snapshot may
//! make one final attempt against a retired endpoint; that attempt either
//! completes (the wait covers it) or fails and the normal failover path
//! absorbs it. A straggler that begins only after the wait sampled zero
//! cannot park a connection either: checkin on a retired endpoint drops
//! the connection (a client-side close) instead of pooling it, so no
//! live connection outlasts the straggler's own bounded lifetime.
//! Membership changes serialize on a control-plane mutex that serving
//! never touches.

use crate::client::{Answered, NetClient, NetError};
use crate::wire::BatchEntry;
use sqp_common::breaker::{Admission, Backoff, Breaker, BreakerConfig, BreakerStats};
use sqp_common::clock::{Clock, RealClock};
use sqp_common::scratch;
use sqp_router::{Members, Scatter};
use sqp_serve::TrackOutcome;
use sqp_serve::{
    EngineStats, FlatAnswer, Overloaded, ServeSurface, SuggestRequest, SuggestSink, Suggestion,
    Swap,
};
use std::cell::RefCell;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One remote endpoint: its public serve port. A `RemoteEngine` never
/// talks to a server's admin port: a remote tier is published to through
/// each server's admin port ([`NetClient::publish`] /
/// [`NetClient::rolling_publish`]), never through the serving client.
#[derive(Clone, Copy, Debug)]
pub struct EndpointConfig {
    /// The endpoint's serve listener.
    pub(crate) serve_addr: SocketAddr,
}

impl EndpointConfig {
    /// An endpoint reached through its serve port.
    pub fn serve_only(serve_addr: SocketAddr) -> Self {
        Self { serve_addr }
    }
}

/// Resilience parameters of a [`RemoteEngine`].
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Wall-clock budget for one operation, covering all retries,
    /// failovers, and backoff sleeps. No caller blocks meaningfully past
    /// this (worst case: deadline + one attempt timeout granted just
    /// before expiry).
    pub deadline: Duration,
    /// Read/write bound for a single attempt on one connection (clamped
    /// to the remaining deadline).
    pub attempt_timeout: Duration,
    /// Bound for establishing one fresh connection (clamped to the
    /// remaining deadline).
    pub connect_timeout: Duration,
    /// Attempts per operation (min 1) across all endpoints before the
    /// operation degrades.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Per-endpoint circuit breaker (trip threshold + cooldown).
    pub breaker: BreakerConfig,
    /// Connections opened per endpoint at construction (best-effort).
    pub pool_warmup: usize,
    /// Idle connections kept per endpoint; extras close on checkin.
    pub pool_cap: usize,
    /// Seed for backoff jitter streams (replayable chaos runs fix this).
    pub seed: u64,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        Self {
            deadline: Duration::from_secs(2),
            attempt_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 4,
            backoff_initial: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            breaker: BreakerConfig {
                threshold: 3,
                cooldown: Duration::from_millis(500),
            },
            pool_warmup: 1,
            pool_cap: 4,
            seed: 0,
        }
    }
}

/// Why an operation returned no answer. The distinction matters to the
/// caller's bookkeeping: `NotRetryable` means the request *may have
/// executed* on the server; the other two mean it certainly did not.
#[derive(Debug)]
pub enum DegradedReason {
    /// Every endpoint's breaker refused admission — the whole tier is
    /// resting after repeated failures. Fast-fail: no connection was
    /// attempted.
    AllBreakersOpen,
    /// The deadline or attempt budget ran out before any endpoint
    /// answered.
    DeadlineExhausted {
        /// The failure that ended the last attempt, if one was made.
        last_error: Option<NetError>,
    },
    /// A non-idempotent operation failed after its bytes may have reached
    /// the server; re-sending could double-apply it, so the operation
    /// degrades instead.
    NotRetryable {
        /// The failure on the attempt that was not retried.
        error: NetError,
    },
}

impl fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradedReason::AllBreakersOpen => write!(f, "all endpoint breakers open"),
            DegradedReason::DeadlineExhausted {
                last_error: Some(e),
            } => {
                write!(f, "deadline exhausted (last error: {e})")
            }
            DegradedReason::DeadlineExhausted { last_error: None } => {
                write!(f, "deadline exhausted")
            }
            DegradedReason::NotRetryable { error } => {
                write!(f, "not retryable after possible send: {error}")
            }
        }
    }
}

/// Typed outcome of one remote operation: the three-way split the soak
/// harness counts (`answered + shed + degraded == sent`).
#[derive(Debug)]
pub enum RemoteOutcome<T> {
    /// An endpoint answered.
    Answered(T),
    /// An endpoint answered with a typed shed: its engine admission
    /// budget was exhausted.
    Shed {
        /// The exhausted budget (`0` is reserved — see WIRE.md).
        limit: u64,
    },
    /// No endpoint answered; serving degrades instead of erroring.
    Degraded(DegradedReason),
}

impl<T> RemoteOutcome<T> {
    /// True for [`RemoteOutcome::Answered`].
    pub fn is_answered(&self) -> bool {
        matches!(self, RemoteOutcome::Answered(_))
    }
}

/// Point-in-time client-side view of one endpoint.
#[derive(Clone, Debug)]
pub struct EndpointStats {
    /// The endpoint's serve address.
    pub serve_addr: SocketAddr,
    /// Breaker position and counters.
    pub breaker: BreakerStats,
    /// Attempts this endpoint answered (including typed sheds).
    pub answered: u64,
    /// Attempts that timed out (connect or I/O deadline).
    pub timeouts: u64,
    /// Connects actively refused.
    pub refused: u64,
    /// Connections that dropped mid-request or mid-frame.
    pub disconnects: u64,
    /// Operations executing against this endpoint right now — what
    /// retirement waits to reach zero.
    pub in_flight: u64,
}

/// Client-side counters of a [`RemoteEngine`] — what an operator reads to
/// answer "is this tier healthy, and if not, which endpoint is the
/// problem?".
#[derive(Clone, Debug)]
pub struct RemoteStats {
    /// Operations that degraded (no endpoint answered).
    pub degraded: u64,
    /// Attempts served by a non-home endpoint. A `TRACK` counted here
    /// advanced the user's session on a server other than their home, so
    /// their context is split across two servers until it expires.
    pub failovers: u64,
    /// Second-and-later attempts across all operations.
    pub retries: u64,
    /// Fresh connections established after construction-time warmup.
    pub reconnects: u64,
    /// Typed sheds observed (mapped to [`Overloaded`] on the `try_*`
    /// surface forms).
    pub sheds: u64,
    /// Per-endpoint detail.
    pub endpoints: Vec<EndpointStats>,
}

#[derive(Default)]
struct EndpointCounters {
    answered: AtomicU64,
    timeouts: AtomicU64,
    refused: AtomicU64,
    disconnects: AtomicU64,
    other_errors: AtomicU64,
}

struct Endpoint {
    serve_addr: SocketAddr,
    pool: Mutex<Vec<NetClient>>,
    breaker: Breaker,
    counters: EndpointCounters,
    /// Operations currently executing against this endpoint (between
    /// checkout and checkin/drop). Retirement waits for this to reach
    /// zero before draining the pool.
    in_flight: AtomicU64,
    /// Set by [`RemoteEngine::retire_endpoint`] right after the swap.
    /// The in-flight wait can miss an operation that loaded the old
    /// snapshot but had not reached `begin_op` when the wait sampled
    /// zero; this flag makes such a straggler's checkin *drop* its
    /// connection instead of pooling it, so every connection to a
    /// retired endpoint is still client-closed within one operation's
    /// bounded lifetime rather than parked in a pool nothing drains.
    retired: AtomicBool,
}

impl Endpoint {
    /// A fresh endpoint with a closed breaker and a best-effort warm
    /// pool (endpoints that are down simply start with an empty pool).
    fn connect(cfg: EndpointConfig, remote: &RemoteConfig) -> Self {
        let ep = Self {
            serve_addr: cfg.serve_addr,
            pool: Mutex::new(Vec::new()),
            breaker: Breaker::new(remote.breaker),
            counters: EndpointCounters::default(),
            in_flight: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        };
        {
            let mut pool = ep.lock_pool();
            for _ in 0..remote.pool_warmup.min(remote.pool_cap) {
                match NetClient::connect_timeout(ep.serve_addr, remote.connect_timeout) {
                    Ok(client) => pool.push(client),
                    Err(_) => break,
                }
            }
        }
        ep
    }

    fn lock_pool(&self) -> MutexGuard<'_, Vec<NetClient>> {
        // A poisoned pool lock only guards plain connections; recover it.
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn count_error(&self, err: &NetError) {
        let counter = match err {
            NetError::Timeout(_) => &self.counters.timeouts,
            NetError::Refused(_) => &self.counters.refused,
            NetError::Disconnected => &self.counters.disconnects,
            _ => &self.counters.other_errors,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn begin_op(&self) -> InFlightOp<'_> {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
        InFlightOp(&self.in_flight)
    }
}

/// Scope guard for [`Endpoint::in_flight`]: decrement on every exit path,
/// including panics, so a wedged op can never pin retirement forever.
struct InFlightOp<'a>(&'a AtomicU64);

impl Drop for InFlightOp<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Why a runtime endpoint-set change was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EndpointSetError {
    /// [`add_endpoint`](RemoteEngine::add_endpoint) of a serve address
    /// already in the set — endpoints are keyed by serve address.
    AlreadyPresent(SocketAddr),
    /// [`retire_endpoint`](RemoteEngine::retire_endpoint) of an address
    /// not in the set.
    Unknown(SocketAddr),
    /// Retiring the only endpoint: a tier with zero endpoints cannot
    /// degrade, it can only error, so the last one is never removable.
    LastEndpoint,
}

impl fmt::Display for EndpointSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointSetError::AlreadyPresent(addr) => {
                write!(f, "endpoint {addr} is already in the set")
            }
            EndpointSetError::Unknown(addr) => write!(f, "endpoint {addr} is not in the set"),
            EndpointSetError::LastEndpoint => write!(f, "cannot retire the last endpoint"),
        }
    }
}

impl std::error::Error for EndpointSetError {}

/// Idempotency of one wire operation — decides retry policy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Retryable {
    /// Safe to re-send after any failure (`SUGGEST`, `STATS`, `PING`, …).
    Yes,
    /// Only safe to retry failures that prove the request never left
    /// (`TRACK`, `TRACK_SUGGEST`).
    ConnectOnly,
}

/// How one attempt on one endpoint ended
/// ([`RemoteEngine::try_endpoint`]).
enum Try<T> {
    /// The endpoint answered: a value, or a typed `R_ERROR`. Either way
    /// the transport and the endpoint are healthy.
    Answered(Result<T, NetError>),
    /// No connection could be had: the request never left.
    Unsent(NetError),
    /// The connection failed mid-request: the request may have reached
    /// the server.
    Broken(NetError),
}

/// A resilient [`ServeSurface`] over remote [`NetServer`](crate::NetServer)
/// endpoints. See the module docs for the resilience model.
pub struct RemoteEngine {
    cfg: RemoteConfig,
    clock: Arc<dyn Clock>,
    /// The live endpoint set and its ring: swapped as one immutable view,
    /// read once per operation. The [`Swap`] generation counts
    /// membership changes. Serving never locks this; membership verbs
    /// serialize on `membership` and publish through one pointer swap.
    endpoints: Swap<Members<Arc<Endpoint>>>,
    /// Serializes [`add_endpoint`](Self::add_endpoint) /
    /// [`retire_endpoint`](Self::retire_endpoint); never touched by the
    /// serving path.
    membership: Mutex<()>,
    /// Monotonic operation counter: round-robin cursor for user-less
    /// operations and jitter-stream selector for backoff.
    op_seq: AtomicU64,
    degraded: AtomicU64,
    failovers: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    sheds: AtomicU64,
}

impl RemoteEngine {
    /// A remote engine over `endpoints` on the production clock, with
    /// best-effort pool warmup ([`RemoteConfig::pool_warmup`] connections
    /// per endpoint; endpoints that are down at construction simply start
    /// with empty pools).
    pub fn connect(endpoints: Vec<EndpointConfig>, cfg: RemoteConfig) -> Self {
        Self::with_clock(endpoints, cfg, Arc::new(RealClock))
    }

    /// [`connect`](Self::connect) with an explicit clock seam — what
    /// deterministic harnesses use to make deadlines and cooldowns
    /// virtual.
    pub(crate) fn with_clock(
        endpoints: Vec<EndpointConfig>,
        cfg: RemoteConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        assert!(!endpoints.is_empty(), "a RemoteEngine needs >= 1 endpoint");
        let endpoints = Members::new(
            endpoints
                .into_iter()
                .map(|e| Arc::new(Endpoint::connect(e, &cfg))),
        );
        Self {
            cfg,
            clock,
            endpoints: Swap::new(Arc::new(endpoints)),
            membership: Mutex::new(()),
            op_seq: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// The current endpoint view: one load, then a consistent view for
    /// the whole operation regardless of concurrent membership changes.
    fn snapshot(&self) -> Arc<Members<Arc<Endpoint>>> {
        self.endpoints.load()
    }

    /// Endpoints in the live set right now.
    pub fn endpoint_count(&self) -> usize {
        self.snapshot().len()
    }

    /// Serve addresses of the live set, in the order they were added.
    pub fn endpoint_addrs(&self) -> Vec<SocketAddr> {
        self.snapshot()
            .iter()
            .map(|(_, ep)| ep.serve_addr)
            .collect()
    }

    /// Membership generation: 0 at construction, +1 per successful
    /// [`add_endpoint`](Self::add_endpoint) or
    /// [`retire_endpoint`](Self::retire_endpoint).
    pub fn endpoint_generation(&self) -> u64 {
        self.endpoints.generation()
    }

    /// Add a new endpoint to the live set, under traffic.
    ///
    /// The endpoint gets a fresh (closed) breaker and a best-effort warm
    /// pool before it is swapped in, so its first routed operation pays
    /// no connect in the common case. It goes on the ring with a fresh
    /// id, and takes over only the users its arcs claim — ≈ 1/N of them;
    /// those start a new context there. Returns the new membership
    /// generation. Refuses a serve address already in the set — the set
    /// is keyed by serve address.
    pub fn add_endpoint(&self, endpoint: EndpointConfig) -> Result<u64, EndpointSetError> {
        let _guard = self.lock_membership();
        let current = self.snapshot();
        if current
            .iter()
            .any(|(_, ep)| ep.serve_addr == endpoint.serve_addr)
        {
            return Err(EndpointSetError::AlreadyPresent(endpoint.serve_addr));
        }
        // Warm up outside any serving path; only the control plane waits.
        let fresh = Arc::new(Endpoint::connect(endpoint, &self.cfg));
        let (_, next) = current.join(fresh);
        Ok(self.endpoints.store(Arc::new(next)))
    }

    /// Retire an endpoint from the live set, under traffic.
    ///
    /// Four steps, in an order that bounds what traffic can observe:
    /// the endpoint is swapped out **first** (no new operation scans
    /// it), then marked retired (any later checkin on it drops the
    /// connection instead of pooling it), then its in-flight operations
    /// are waited out (bounded by one operation's worst case,
    /// `deadline + attempt_timeout`, through the [`Clock`] seam), then
    /// its connection pool is drained. The client therefore initiates
    /// every TCP close: pooled connections close in the drain, and a
    /// straggler that raced the swap — old snapshot loaded, `begin_op`
    /// not yet reached when the wait sampled zero — closes its own
    /// connection at checkin, within its bounded lifetime. The victim's
    /// users move to their ring successors; everyone else keeps their
    /// endpoint. Refuses to retire the last endpoint. Returns the new
    /// membership generation.
    pub fn retire_endpoint(&self, serve_addr: SocketAddr) -> Result<u64, EndpointSetError> {
        let _guard = self.lock_membership();
        let current = self.snapshot();
        let Some((id, victim)) = current.iter().find(|(_, ep)| ep.serve_addr == serve_addr) else {
            return Err(EndpointSetError::Unknown(serve_addr));
        };
        let victim = Arc::clone(victim);
        let next = current
            .remove(id)
            .map_err(|_| EndpointSetError::LastEndpoint)?;
        let generation = self.endpoints.store(Arc::new(next));
        // From here every checkin on the victim drops its connection
        // instead of pooling it — the backstop for an operation that
        // loaded the old snapshot but had not yet reached `begin_op`
        // when the wait below sampled zero.
        victim.retired.store(true, Ordering::Release);

        // Wait out operations that already hold the old snapshot. One
        // operation lives at most deadline + one attempt timeout, so a
        // bounded poll cannot hang the control plane on a wedged socket.
        let bound = self
            .cfg
            .deadline
            .saturating_add(self.cfg.attempt_timeout)
            .as_millis() as u64;
        let start = self.clock.now_millis();
        while victim.in_flight.load(Ordering::Acquire) > 0
            && self.clock.now_millis().saturating_sub(start) < bound
        {
            self.clock.sleep(Duration::from_millis(2));
        }
        victim.lock_pool().clear();
        Ok(generation)
    }

    fn lock_membership(&self) -> MutexGuard<'_, ()> {
        // The membership lock guards no data, only ordering; recover it.
        self.membership
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Client-side counters plus per-endpoint breaker and pool detail.
    pub fn remote_stats(&self) -> RemoteStats {
        RemoteStats {
            degraded: self.degraded.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            sheds: self.sheds.load(Ordering::Relaxed),
            endpoints: self
                .snapshot()
                .iter()
                .map(|(_, ep)| EndpointStats {
                    serve_addr: ep.serve_addr,
                    breaker: ep.breaker.stats(),
                    answered: ep.counters.answered.load(Ordering::Relaxed),
                    timeouts: ep.counters.timeouts.load(Ordering::Relaxed),
                    refused: ep.counters.refused.load(Ordering::Relaxed),
                    disconnects: ep.counters.disconnects.load(Ordering::Relaxed),
                    in_flight: ep.in_flight.load(Ordering::Acquire),
                })
                .collect(),
        }
    }

    /// Breaker position/counters of endpoint `index` in
    /// [`endpoint_addrs`](Self::endpoint_addrs) order (panics out of
    /// range) — what tests assert open→half-open→closed transitions on.
    pub fn endpoint_breaker(&self, index: usize) -> BreakerStats {
        let endpoints = self.snapshot();
        let (_, ep) = endpoints
            .iter()
            .nth(index)
            .unwrap_or_else(|| panic!("no endpoint at index {index}"));
        ep.breaker.stats()
    }

    /// Close every pooled connection on every endpoint.
    ///
    /// Operationally this is the **drain** step: dropping the connections
    /// here makes the *client* side initiate the TCP close, so the
    /// server's sockets leave `ESTABLISHED` without the server holding
    /// `TIME_WAIT` — which is exactly what lets a drained server restart
    /// on the same port immediately.
    pub fn drain_pools(&self) {
        for (_, ep) in self.snapshot().iter() {
            ep.lock_pool().clear();
        }
    }

    fn checkout(&self, ep: &Endpoint, budget: Duration) -> Result<NetClient, NetError> {
        if let Some(client) = ep.lock_pool().pop() {
            return Ok(client);
        }
        let timeout = self.cfg.connect_timeout.min(budget);
        let client = NetClient::connect_timeout(ep.serve_addr, timeout)?;
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        Ok(client)
    }

    fn checkin(&self, ep: &Endpoint, client: NetClient) {
        let pool = &mut *ep.lock_pool();
        // Checked under the pool lock: retire sets the flag *before* its
        // final pool drain, so a checkin that acquires the lock after the
        // drain necessarily observes the flag and drops (client-closes)
        // the connection, while one that acquires it before is cleared by
        // the drain. No interleaving re-pools a retired connection.
        if ep.retired.load(Ordering::Acquire) {
            return;
        }
        if pool.len() < self.cfg.pool_cap {
            pool.push(client);
        }
    }

    /// Fraction by which `call`'s backoff delays are jittered downward
    /// (deterministically, from [`RemoteConfig::seed`]).
    const BACKOFF_JITTER: f64 = 0.5;

    /// One operation against the current endpoint view, under one
    /// deadline from now: [`attempt`](Self::attempt), counted in
    /// `degraded` when nothing answered.
    fn call<T>(
        &self,
        user: Option<u64>,
        retryable: Retryable,
        op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> RemoteOutcome<T> {
        // One view for the whole operation: every attempt, breaker check,
        // and failover scan sees the same membership, even while
        // add/retire swap the live set underneath.
        let outcome = self
            .endpoints
            .with(|endpoints| self.attempt(endpoints, user, self.deadline_at(), retryable, op));
        self.count_degraded(&outcome);
        outcome
    }

    /// The clock reading at which an operation starting now runs out.
    fn deadline_at(&self) -> u64 {
        self.clock
            .now_millis()
            .saturating_add(self.cfg.deadline.as_millis() as u64)
    }

    fn count_degraded<T>(&self, outcome: &RemoteOutcome<T>) {
        if let RemoteOutcome::Degraded(_) = outcome {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The resilience core: run `op` against the healthiest admissible
    /// endpoint of `endpoints` until `deadline_at`, with retry/backoff,
    /// breaker accounting, and failover. A user's attempts start at their
    /// ring owner and walk its successors; user-less ones start round
    /// robin. See the module docs for the policy.
    fn attempt<T>(
        &self,
        endpoints: &Members<Arc<Endpoint>>,
        user: Option<u64>,
        deadline_at: u64,
        retryable: Retryable,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> RemoteOutcome<T> {
        let seq = self.op_seq.fetch_add(1, Ordering::Relaxed);
        scratch::with(&SCAN, |order| {
            // Scan order, as endpoint ids; `order[0]` is home.
            match user {
                Some(user) => endpoints.ring().successors_into(user, order),
                None => {
                    order.clear();
                    order.extend(endpoints.iter().map(|(id, _)| id));
                    let start = (seq % order.len() as u64) as usize;
                    order.rotate_left(start);
                }
            }
            let n = order.len();
            let endpoint = |at: usize| -> &Endpoint {
                endpoints
                    .get(order[at])
                    .expect("the scan order names only members")
            };
            let mut backoff = Backoff::with_jitter(
                self.cfg.backoff_initial,
                self.cfg.backoff_cap,
                Self::BACKOFF_JITTER,
                self.cfg.seed ^ seq,
            );
            let max_attempts = self.cfg.max_attempts.max(1);
            let mut shift = 0usize; // scan origin advances past failing endpoints
            let mut last_error: Option<NetError> = None;

            for attempt in 0..max_attempts {
                let now = self.clock.now_millis();
                if now >= deadline_at {
                    break;
                }
                if attempt > 0 {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                }

                // First breaker-admitted endpoint, scanning from home + shift.
                let mut admitted = None;
                for i in 0..n {
                    let at = (shift + i) % n;
                    match endpoint(at).breaker.admit(now) {
                        Admission::Allowed | Admission::Probe => {
                            admitted = Some(at);
                            break;
                        }
                        Admission::Refused { .. } => continue,
                    }
                }
                let Some(at) = admitted else {
                    return RemoteOutcome::Degraded(DegradedReason::AllBreakersOpen);
                };
                let ep = endpoint(at);
                if at != 0 {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                }
                let remaining = Duration::from_millis(deadline_at - now);
                match self.try_endpoint(ep, remaining, &mut op) {
                    Try::Answered(Ok(v)) => return RemoteOutcome::Answered(v),
                    // A typed error: the request is just wrong — retrying
                    // cannot help.
                    Try::Answered(Err(error)) => {
                        return RemoteOutcome::Degraded(DegradedReason::NotRetryable { error })
                    }
                    // The bytes may have reached the server; re-sending could
                    // double-apply.
                    Try::Broken(error) if retryable == Retryable::ConnectOnly => {
                        return RemoteOutcome::Degraded(DegradedReason::NotRetryable { error })
                    }
                    // The request never left, or the op is idempotent: retry.
                    Try::Unsent(e) | Try::Broken(e) => last_error = Some(e),
                }

                // Prefer a different endpoint on the next attempt.
                shift += 1;
                if attempt + 1 < max_attempts {
                    let now = self.clock.now_millis();
                    if now >= deadline_at {
                        break;
                    }
                    let nap = backoff
                        .next_delay()
                        .min(Duration::from_millis(deadline_at - now));
                    self.clock.sleep(nap);
                }
            }

            RemoteOutcome::Degraded(DegradedReason::DeadlineExhausted { last_error })
        })
    }

    /// One attempt of `op` on `ep`, whose breaker the caller has already
    /// consulted: check a connection out within `budget`, run `op` under
    /// the per-attempt timeout, and account for the result on `ep`. An
    /// answer — a value or a typed `R_ERROR` — counts as answered and as a
    /// breaker success and pools the connection; a transport failure
    /// counts as an error and a breaker failure and drops it.
    fn try_endpoint<T>(
        &self,
        ep: &Endpoint,
        budget: Duration,
        op: &mut impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> Try<T> {
        let _op = ep.begin_op();
        let mut client = match self.checkout(ep, budget) {
            Ok(client) => client,
            Err(e) => {
                ep.count_error(&e);
                ep.breaker.record_failure(self.clock.now_millis());
                return Try::Unsent(e);
            }
        };
        let _ = client.set_io_timeout(Some(self.cfg.attempt_timeout.min(budget)));
        match op(&mut client) {
            answer @ (Ok(_) | Err(NetError::Remote { .. })) => {
                ep.counters.answered.fetch_add(1, Ordering::Relaxed);
                ep.breaker.record_success();
                self.checkin(ep, client);
                Try::Answered(answer)
            }
            // The connection is suspect (timed out, dropped,
            // desynchronized): never pool it.
            Err(e) => {
                ep.count_error(&e);
                ep.breaker.record_failure(self.clock.now_millis());
                Try::Broken(e)
            }
        }
    }

    fn note_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// `TRACK` with the full typed outcome (never re-sent; see module
    /// docs).
    pub fn remote_track(&self, user: u64, query: &str, now: u64) -> RemoteOutcome<TrackOutcome> {
        self.call(Some(user), Retryable::ConnectOnly, |c| {
            c.track(user, query, now).map(|ack| TrackOutcome {
                new_session: ack.new_session,
                context_len: ack.context_len,
            })
        })
    }

    /// `TRACK_SUGGEST` with the full typed outcome (never re-sent).
    pub fn remote_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> RemoteOutcome<Vec<Suggestion>> {
        self.remote_list(
            user,
            Retryable::ConnectOnly,
            |c| c.track_and_suggest_flat(user, query, k, now),
            FlatAnswer::to_list,
        )
    }

    /// `SUGGEST` with the full typed outcome (idempotent: retried).
    pub fn remote_suggest(&self, user: u64, k: usize, now: u64) -> RemoteOutcome<Vec<Suggestion>> {
        self.remote_list(
            user,
            Retryable::Yes,
            |c| c.suggest_flat(user, k, now),
            FlatAnswer::to_list,
        )
    }

    /// One single-list operation for `user`: `send` runs on an endpoint's
    /// connection, and the list it leaves in the connection's flat answer
    /// goes to `emit` — once, from the attempt that answered, while that
    /// connection is still checked out — so the sink forms write it
    /// straight into the caller's sink and the owned forms convert it,
    /// with no owned list in between.
    fn remote_list<R>(
        &self,
        user: u64,
        retryable: Retryable,
        mut send: impl for<'c> FnMut(&'c mut NetClient) -> Result<Answered<'c>, NetError>,
        emit: impl FnOnce(&FlatAnswer) -> R,
    ) -> RemoteOutcome<R> {
        let mut emit = Some(emit);
        let outcome = self.call(Some(user), retryable, |c| {
            Ok(match send(c)? {
                Answered::Lists(answer) => Ok(emit.take().expect(ANSWERED_ONCE)(answer)),
                Answered::Overloaded { limit } => Err(limit),
            })
        });
        match outcome {
            RemoteOutcome::Answered(Ok(value)) => RemoteOutcome::Answered(value),
            RemoteOutcome::Answered(Err(limit)) => {
                self.note_shed();
                RemoteOutcome::Shed { limit }
            }
            RemoteOutcome::Shed { limit } => RemoteOutcome::Shed { limit },
            RemoteOutcome::Degraded(reason) => RemoteOutcome::Degraded(reason),
        }
    }

    /// `SUGGEST_BATCH` with the full typed outcome (idempotent: retried).
    ///
    /// Each entry is answered by its user's home endpoint: the batch is
    /// split by owner ([`Members::scatter`]), one sub-batch per involved
    /// endpoint, all under one deadline, and the lists are gathered back
    /// into request order. A sub-batch fails over along its first user's
    /// ring successors. All-or-nothing: any shed sub-batch makes the batch
    /// [`Shed`](RemoteOutcome::Shed), otherwise any degraded one makes it
    /// [`Degraded`](RemoteOutcome::Degraded).
    pub fn remote_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> RemoteOutcome<Vec<Vec<Suggestion>>> {
        self.suggest_batch_with(requests, now, FlatAnswer::to_lists_in_order)
    }

    /// The one batch path behind
    /// [`remote_suggest_batch`](Self::remote_suggest_batch) and the sink
    /// form, against one endpoint view: `emit` gets the whole answer once,
    /// with the order that puts its lists in request order
    /// ([`FlatAnswer::write_in_order`]). A batch that went whole to one
    /// endpoint is emitted straight from that connection's flat answer; a
    /// split one is gathered in run order into a per-thread one first.
    fn suggest_batch_with<R>(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        emit: impl FnOnce(&FlatAnswer, &[usize]) -> R,
    ) -> RemoteOutcome<R> {
        let deadline_at = self.deadline_at();
        let mut emit = Some(emit);
        let mut emitted = None;
        let mut degraded = None;
        let outcome = self.endpoints.with(|endpoints| {
            scratch::with(&SCRATCH, |scratch| {
                let BatchScratch {
                    scatter,
                    entries,
                    gather,
                } = scratch;
                let runs = endpoints.scatter(requests, scatter);
                gather.clear();
                for (_, run) in runs.iter() {
                    entries.clear();
                    entries.extend(run.iter().map(|r| BatchEntry {
                        user: r.user,
                        k: r.k,
                    }));
                    let user = Some(run[0].user);
                    let outcome = self.attempt(endpoints, user, deadline_at, Retryable::Yes, |c| {
                        Ok(match c.suggest_batch_flat(entries, now)? {
                            Answered::Lists(answer) if runs.is_split() => {
                                gather.extend_from(answer);
                                None
                            }
                            Answered::Lists(answer) => {
                                emitted = Some(emit.take().expect(ANSWERED_ONCE)(answer, &[]));
                                None
                            }
                            Answered::Overloaded { limit } => Some(limit),
                        })
                    });
                    match outcome {
                        RemoteOutcome::Answered(None) => {}
                        RemoteOutcome::Answered(Some(limit)) => {
                            self.note_shed();
                            return RemoteOutcome::Shed { limit };
                        }
                        RemoteOutcome::Shed { limit } => return RemoteOutcome::Shed { limit },
                        RemoteOutcome::Degraded(reason) => {
                            degraded.get_or_insert(reason);
                        }
                    }
                }
                if let Some(reason) = degraded.take() {
                    return RemoteOutcome::Degraded(reason);
                }
                match emitted.take() {
                    Some(value) => RemoteOutcome::Answered(value),
                    None => RemoteOutcome::Answered(emit.take().expect(ANSWERED_ONCE)(
                        gather,
                        runs.order(),
                    )),
                }
            })
        });
        self.count_degraded(&outcome);
        outcome
    }

    /// `PING` the tier (idempotent: retried, fails over). The soak's
    /// liveness probe.
    pub fn remote_ping(&self) -> RemoteOutcome<()> {
        self.call(None, Retryable::Yes, |c| c.ping())
    }

    /// One bounded attempt of `op` against every endpoint whose breaker
    /// admits it (no retries — fan-out operations are best-effort per
    /// endpoint): the answering endpoints' values, and how many endpoints
    /// the view held.
    fn for_each_endpoint<T>(
        &self,
        mut op: impl FnMut(&mut NetClient) -> Result<T, NetError>,
    ) -> (Vec<T>, usize) {
        let endpoints = self.snapshot();
        let values = endpoints
            .iter()
            .filter_map(|(_, ep)| {
                if let Admission::Refused { .. } = ep.breaker.admit(self.clock.now_millis()) {
                    return None;
                }
                match self.try_endpoint(ep, self.cfg.attempt_timeout, &mut op) {
                    Try::Answered(answer) => answer.ok(),
                    Try::Unsent(_) | Try::Broken(_) => None,
                }
            })
            .collect();
        (values, endpoints.len())
    }

    /// The tier's `STATS` record: the [`EngineStats::fold`] of the
    /// endpoints that answered, and how many of the tier's endpoints that
    /// is. An endpoint that is down, breaker-open or answers `R_ERROR`
    /// drops out of the fold but not out of the count, so a partial
    /// record reads as partial.
    pub fn stats_record(&self) -> StatsRecord {
        let (replies, endpoints) = self.for_each_endpoint(|c| c.stats().map(EngineStats::from));
        StatsRecord {
            covered: replies.len(),
            endpoints,
            stats: EngineStats::fold(replies),
        }
    }
}

/// A remote tier's record ([`RemoteEngine::stats_record`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsRecord {
    /// [`EngineStats::fold`] of the `STATS` replies the endpoints gave.
    pub stats: EngineStats,
    /// Endpoints whose reply the fold covers.
    pub covered: usize,
    /// Endpoints in the tier when the record was taken.
    pub endpoints: usize,
}

/// What an operation's `emit` is handed at most once: the attempt that
/// answers ends the operation.
const ANSWERED_ONCE: &str = "an operation is answered once";

/// A batch's per-thread working buffers (a caller's thread sends batch
/// after batch), so a warmed-up batch allocates only the answer it keeps.
#[derive(Default)]
struct BatchScratch {
    scatter: Scatter,
    entries: Vec<BatchEntry>,
    /// A split batch's lists, in run order.
    gather: FlatAnswer,
}

thread_local! {
    static SCRATCH: RefCell<BatchScratch> = RefCell::default();
    /// An operation's endpoint scan order, reused call after call.
    static SCAN: RefCell<Vec<u32>> = RefCell::default();
}

/// Finish a sink form: its answer was written into the caller's sink by
/// the attempt that answered (only a whole, validated answer ever is:
/// retries and failover may run an operation more than once, so the sink
/// cannot be written to while an attempt is still in doubt). A shed is the
/// typed error and leaves the sink alone; degraded serving is `lists`
/// empty lists, not an error — the search box renders nothing instead of
/// breaking.
fn deliver(
    outcome: RemoteOutcome<()>,
    lists: usize,
    sink: &mut dyn SuggestSink,
) -> Result<(), Overloaded> {
    match outcome {
        RemoteOutcome::Answered(()) => {}
        RemoteOutcome::Shed { limit } => {
            return Err(Overloaded {
                limit: limit as usize,
            })
        }
        RemoteOutcome::Degraded(_) => (0..lists).for_each(|_| sink.list(0)),
    }
    Ok(())
}

impl ServeSurface for RemoteEngine {
    fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome {
        match self.remote_track(user, query, now) {
            RemoteOutcome::Answered(outcome) => outcome,
            // A shed or degraded track recorded nothing; the session
            // simply did not advance.
            RemoteOutcome::Shed { .. } | RemoteOutcome::Degraded(_) => TrackOutcome {
                new_session: false,
                context_len: 0,
            },
        }
    }

    fn try_suggest_into(
        &self,
        user: u64,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        let outcome = self.remote_list(
            user,
            Retryable::Yes,
            |c| c.suggest_flat(user, k, now),
            |answer| answer.write_to(sink),
        );
        deliver(outcome, 1, sink)
    }

    fn try_track_and_suggest_into(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        let outcome = self.remote_list(
            user,
            Retryable::ConnectOnly,
            |c| c.track_and_suggest_flat(user, query, k, now),
            |answer| answer.write_to(sink),
        );
        deliver(outcome, 1, sink)
    }

    fn try_suggest_batch_into(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        let outcome = self.suggest_batch_with(requests, now, |answer, order| {
            answer.write_in_order(order, sink)
        });
        deliver(outcome, requests.len(), sink)
    }

    fn evict_idle(&self, now: u64) -> usize {
        let (evicted, _) = self.for_each_endpoint(|c| c.evict_idle(now));
        evicted.into_iter().sum::<u64>() as usize
    }

    /// The fold of [`RemoteEngine::stats_record`], which also says how
    /// many endpoints it covers.
    fn stats(&self) -> EngineStats {
        self.stats_record().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The retire-vs-straggler race, white-box: an operation that loaded
    /// the old endpoint snapshot before the swap but only checked a
    /// connection out after retire's in-flight wait and pool drain must
    /// not leave that connection pooled on the retired endpoint — checkin
    /// drops it, so the client still initiates the close within the
    /// straggler's own lifetime.
    #[test]
    fn checkin_on_a_retired_endpoint_drops_instead_of_pooling() {
        // A live listener so connects succeed; it never has to speak.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = RemoteEngine::connect(
            vec![EndpointConfig::serve_only(addr)],
            RemoteConfig {
                pool_warmup: 0,
                ..RemoteConfig::default()
            },
        );
        let endpoints = engine.snapshot();
        let (_, ep) = endpoints.home(0);

        let client = engine.checkout(ep, Duration::from_millis(200)).unwrap();
        engine.checkin(ep, client);
        assert_eq!(ep.lock_pool().len(), 1, "a live endpoint pools checkins");

        // The retire discipline on the victim: flag first, then drain.
        ep.retired.store(true, Ordering::Release);
        ep.lock_pool().clear();

        let straggler = engine.checkout(ep, Duration::from_millis(200)).unwrap();
        engine.checkin(ep, straggler);
        assert_eq!(
            ep.lock_pool().len(),
            0,
            "a retired endpoint must never re-pool a connection"
        );
    }
}
