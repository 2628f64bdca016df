//! The shared Closed/Open/HalfOpen circuit breaker and capped-exponential
//! retry backoff.
//!
//! Two independent resilience layers run the *same* failure-containment
//! state machine: the retrain loop (`sqp-store::Retrainer` trips to
//! serve-last-good when retraining keeps failing) and the remote
//! serving client (`sqp-net::RemoteEngine` trips a flapping endpoint out
//! of its failover rotation). This module is that state machine, extracted
//! once so a third copy never grows:
//!
//! * **Closed** — normal operation; consecutive failures are counted.
//! * **Open** — tripped after `threshold` consecutive failures. Admission
//!   is refused until the cooldown elapses; the protected resource rests.
//! * **HalfOpen** — cooldown elapsed: exactly **one** caller is admitted
//!   as a probe (single-flight). Probe success closes the breaker; probe
//!   failure re-trips it for another cooldown, regardless of the
//!   threshold.
//!
//! Time enters only as caller-supplied `now_millis` values (from the
//! [`Clock`](crate::clock::Clock) seam), so cooldown-heavy scenarios test
//! in microseconds on a virtual clock. The companion [`Backoff`] produces
//! the capped-exponential (optionally jittered, deterministically seeded)
//! wait schedule retry loops sleep between attempts.

use crate::rng::{Rng, StdRng};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Circuit-breaker position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Tripped: admission is refused until the cooldown elapses. The
    /// protected resource keeps whatever last-good behavior it has.
    Open,
    /// Cooldown elapsed: one single-flight probe is in flight (or about to
    /// be) — success closes the breaker, failure re-trips it.
    HalfOpen,
}

/// Trip/cooldown parameters of a [`Breaker`].
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open (min 1). A failed
    /// half-open probe re-trips immediately regardless of this threshold.
    pub threshold: u32,
    /// How long a tripped breaker refuses admission before allowing one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// What [`Breaker::admit`] decided for one caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The breaker is closed; proceed normally.
    Allowed,
    /// The breaker was open, the cooldown has elapsed, and *this* caller
    /// holds the single half-open probe slot. The caller **must** resolve
    /// the probe with [`record_success`](Breaker::record_success),
    /// [`record_failure`](Breaker::record_failure), or — when the guarded
    /// work turns out to be a no-op — [`cancel_probe`](Breaker::cancel_probe).
    Probe,
    /// Admission refused: the breaker is open (cooldown still running) or
    /// another caller already holds the half-open probe slot.
    Refused {
        /// Milliseconds until the cooldown elapses (0 while a concurrent
        /// probe is in flight).
        remaining_millis: u64,
    },
}

/// Counters and position of one breaker, snapshotted by [`Breaker::stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerStats {
    /// Current position.
    pub state: BreakerState,
    /// Consecutive failures recorded since the last success.
    pub consecutive_failures: u32,
    /// Times the breaker tripped open (including half-open re-trips).
    pub trips: u64,
    /// Times a half-open probe closed the breaker again.
    pub recoveries: u64,
}

#[derive(Debug)]
struct Inner {
    state: BreakerState,
    open_until_millis: u64,
    probe_in_flight: bool,
    consecutive_failures: u32,
    trips: u64,
    recoveries: u64,
}

/// A thread-safe Closed/Open/HalfOpen circuit breaker with single-flight
/// half-open probing.
///
/// # Examples
///
/// ```
/// use sqp_common::breaker::{Admission, Breaker, BreakerConfig, BreakerState};
/// use std::time::Duration;
///
/// let breaker = Breaker::new(BreakerConfig {
///     threshold: 2,
///     cooldown: Duration::from_millis(100),
/// });
/// assert_eq!(breaker.admit(0), Admission::Allowed);
/// breaker.record_failure(0);
/// breaker.record_failure(1); // second consecutive failure: trips open
/// assert_eq!(breaker.state(), BreakerState::Open);
/// assert!(matches!(breaker.admit(50), Admission::Refused { remaining_millis: 51 }));
/// // Cooldown elapsed: exactly one probe is admitted.
/// assert_eq!(breaker.admit(101), Admission::Probe);
/// assert!(matches!(breaker.admit(101), Admission::Refused { .. }));
/// breaker.record_success();
/// assert_eq!(breaker.state(), BreakerState::Closed);
/// assert_eq!(breaker.stats().recoveries, 1);
/// ```
#[derive(Debug)]
pub struct Breaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl Breaker {
    /// A closed breaker with `cfg`'s trip threshold and cooldown.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                open_until_millis: 0,
                probe_in_flight: false,
                consecutive_failures: 0,
                trips: 0,
                recoveries: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Poison recovery: every mutation is a handful of scalar stores
        // that leave `Inner` valid at any interleaving point, so a panic
        // elsewhere while holding the lock cannot corrupt it.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The breaker's configuration.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// Decide whether a caller may proceed at `now_millis` (from the
    /// [`Clock`](crate::clock::Clock) seam).
    pub fn admit(&self, now_millis: u64) -> Admission {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => Admission::Allowed,
            BreakerState::Open if now_millis < inner.open_until_millis => Admission::Refused {
                remaining_millis: inner.open_until_millis - now_millis,
            },
            BreakerState::Open => {
                inner.state = BreakerState::HalfOpen;
                inner.probe_in_flight = true;
                Admission::Probe
            }
            BreakerState::HalfOpen if inner.probe_in_flight => Admission::Refused {
                remaining_millis: 0,
            },
            BreakerState::HalfOpen => {
                inner.probe_in_flight = true;
                Admission::Probe
            }
        }
    }

    /// Record a success: reset the failure streak and close the breaker
    /// (counting a recovery when it was not already closed).
    pub fn record_success(&self) {
        let mut inner = self.lock();
        inner.probe_in_flight = false;
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            inner.recoveries += 1;
            inner.state = BreakerState::Closed;
        }
    }

    /// Record a failure at `now_millis`. Trips the breaker open — starting
    /// a fresh cooldown — when the consecutive-failure threshold is
    /// reached, or immediately on any half-open probe failure. Returns
    /// `true` when this call tripped the breaker.
    pub fn record_failure(&self, now_millis: u64) -> bool {
        let mut inner = self.lock();
        let probe_failed = inner.state == BreakerState::HalfOpen;
        inner.probe_in_flight = false;
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        if probe_failed || inner.consecutive_failures >= self.cfg.threshold.max(1) {
            inner.state = BreakerState::Open;
            inner.open_until_millis =
                now_millis.saturating_add(self.cfg.cooldown.as_millis() as u64);
            inner.trips += 1;
            true
        } else {
            false
        }
    }

    /// Release a held [`Admission::Probe`] slot without resolving it —
    /// for callers whose admitted work turned out to be a no-op (e.g. an
    /// empty retrain window). The breaker stays half-open; the next
    /// admission becomes the probe instead. Harmless to call when no
    /// probe is held.
    pub fn cancel_probe(&self) {
        self.lock().probe_in_flight = false;
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Snapshot position and counters.
    pub fn stats(&self) -> BreakerStats {
        let inner = self.lock();
        BreakerStats {
            state: inner.state,
            consecutive_failures: inner.consecutive_failures,
            trips: inner.trips,
            recoveries: inner.recoveries,
        }
    }
}

/// Capped-exponential backoff schedule with optional deterministic jitter.
///
/// Each [`next_delay`](Backoff::next_delay) call returns the current delay
/// and doubles it (saturating at the cap). With a jitter fraction `j`, the
/// returned delay is scaled by a factor drawn uniformly from `[1 - j, 1]`
/// out of a seeded xoshiro256++ stream — deterministic for a given seed,
/// so retry storms decorrelate across clients without sacrificing
/// replayability.
///
/// # Examples
///
/// ```
/// use sqp_common::breaker::Backoff;
/// use std::time::Duration;
///
/// let mut plain = Backoff::new(Duration::from_millis(50), Duration::from_millis(150));
/// assert_eq!(plain.next_delay(), Duration::from_millis(50));
/// assert_eq!(plain.next_delay(), Duration::from_millis(100));
/// assert_eq!(plain.next_delay(), Duration::from_millis(150)); // capped
/// assert_eq!(plain.next_delay(), Duration::from_millis(150));
/// ```
#[derive(Debug)]
pub struct Backoff {
    next: Duration,
    cap: Duration,
    jitter: f64,
    rng: StdRng,
}

impl Backoff {
    /// A jitter-free schedule: `initial`, `2·initial`, … capped at `cap`.
    pub fn new(initial: Duration, cap: Duration) -> Self {
        Self::with_jitter(initial, cap, 0.0, 0)
    }

    /// A jittered schedule seeded by `seed`; `jitter` is clamped to
    /// `[0, 1]` and scales each delay by a uniform draw from
    /// `[1 - jitter, 1]`.
    pub fn with_jitter(initial: Duration, cap: Duration, jitter: f64, seed: u64) -> Self {
        Self {
            next: initial,
            cap,
            jitter: jitter.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The delay to sleep before the upcoming retry; advances the
    /// schedule.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.next;
        self.next = std::cmp::min(self.next.saturating_mul(2), self.cap);
        if self.jitter <= 0.0 {
            return base;
        }
        let draw: f64 = self.rng.random();
        base.mul_f64(1.0 - self.jitter * draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threshold: u32, cooldown_ms: u64) -> BreakerConfig {
        BreakerConfig {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        }
    }

    #[test]
    fn trips_at_threshold_and_not_before() {
        let b = Breaker::new(cfg(3, 100));
        assert!(!b.record_failure(0));
        assert!(!b.record_failure(1));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure(2));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 1);
        assert!(matches!(
            b.admit(50),
            Admission::Refused {
                remaining_millis: 52
            }
        ));
    }

    #[test]
    fn success_resets_the_streak() {
        let b = Breaker::new(cfg(2, 100));
        b.record_failure(0);
        b.record_success();
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn cooldown_probe_is_single_flight() {
        let b = Breaker::new(cfg(1, 100));
        b.record_failure(0);
        assert!(matches!(b.admit(99), Admission::Refused { .. }));
        assert_eq!(b.admit(100), Admission::Probe);
        // The slot is held: everyone else is refused until it resolves.
        assert!(matches!(
            b.admit(100),
            Admission::Refused {
                remaining_millis: 0
            }
        ));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        let s = b.stats();
        assert_eq!((s.trips, s.recoveries), (1, 1));
    }

    #[test]
    fn failed_probe_retrips_regardless_of_threshold() {
        let b = Breaker::new(cfg(10, 100));
        for t in 0..10 {
            b.record_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(200), Admission::Probe);
        assert!(b.record_failure(200), "one probe failure re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().trips, 2);
        assert!(matches!(
            b.admit(250),
            Admission::Refused {
                remaining_millis: 50
            }
        ));
    }

    #[test]
    fn cancelled_probe_frees_the_slot() {
        let b = Breaker::new(cfg(1, 10));
        b.record_failure(0);
        assert_eq!(b.admit(20), Admission::Probe);
        b.cancel_probe();
        // The state is still HalfOpen, but the next caller gets the probe.
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(20), Admission::Probe);
        // cancel_probe with no probe held is a no-op.
        let open = Breaker::new(cfg(1, 1000));
        open.record_failure(0);
        open.cancel_probe();
        assert_eq!(open.state(), BreakerState::Open);
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let take = |seed| {
            let mut b = Backoff::with_jitter(
                Duration::from_millis(40),
                Duration::from_millis(500),
                0.5,
                seed,
            );
            (0..6).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7), "same seed, same schedule");
        assert_ne!(take(7), take(8), "different seeds decorrelate");
        let mut b = Backoff::with_jitter(
            Duration::from_millis(40),
            Duration::from_millis(500),
            0.5,
            7,
        );
        let mut raw = Duration::from_millis(40);
        for _ in 0..8 {
            let d = b.next_delay();
            assert!(
                d <= raw && d >= raw.mul_f64(0.5),
                "{d:?} outside [{raw:?}/2, {raw:?}]"
            );
            raw = std::cmp::min(raw * 2, Duration::from_millis(500));
        }
    }
}
