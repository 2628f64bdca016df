//! A virtual clock: time that moves only when someone sleeps.
//!
//! Resilience logic is full of waits — retry backoff, circuit-breaker
//! cooldowns — that would make real-time chaos tests take minutes. The
//! [`VirtualClock`] implements [`Clock`] over an atomic counter: `sleep`
//! advances the counter instantly instead of blocking, and `now_millis`
//! reads it. Deterministic, instantaneous, and shared safely across the
//! supervised threads of a scenario.

use sqp_common::clock::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A [`Clock`] whose time advances only via `sleep`.
///
/// # Examples
///
/// ```
/// use sqp_common::clock::Clock;
/// use sqp_faults::VirtualClock;
/// use std::time::Duration;
///
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now_millis(), 0);
/// clock.sleep(Duration::from_secs(60)); // returns immediately
/// assert_eq!(clock.now_millis(), 60_000);
/// ```
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ms: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for VirtualClock {
    fn now_millis(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }

    fn sleep(&self, dur: Duration) {
        // Saturating: a pathological Duration must not wrap virtual time.
        let ms = u64::try_from(dur.as_millis()).unwrap_or(u64::MAX);
        self.now_ms
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some(t.saturating_add(ms))
            })
            // Invariant: the closure always returns Some, so fetch_update
            // cannot fail.
            .unwrap_or_else(|t| t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_advances_without_blocking() {
        let clock = VirtualClock::new();
        let t0 = std::time::Instant::now();
        clock.sleep(Duration::from_secs(3600));
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(clock.now_millis(), 3_600_000);
    }

    #[test]
    fn extreme_duration_saturates() {
        let clock = VirtualClock::new();
        clock.sleep(Duration::MAX);
        clock.sleep(Duration::from_millis(1));
        assert_eq!(clock.now_millis(), u64::MAX);
    }
}
