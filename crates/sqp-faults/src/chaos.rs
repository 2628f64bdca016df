//! The chaos runtime: executes a [`FaultPlan`] at the workspace's fault
//! seams.
//!
//! One [`Chaos`] value is shared (via `Arc`) by everything a scenario
//! wires: it implements [`Hazard`] for panic/stall injection, hands out a
//! [`FaultyFs`](crate::FaultyFs) for disk-fault injection, and counts every
//! decision it makes into [`ChaosStats`]. The [`digest`](Chaos::digest)
//! folds all decisions into one number — two runs of a deterministic
//! scenario with the same plan must produce the same digest, which is how
//! the chaos soak asserts seed-replayability.

use crate::plan::FaultPlan;
use sqp_common::clock::{Clock, RealClock};
use sqp_common::hash::{fnv1a, fx_hash_one, FNV_OFFSET_BASIS};
use sqp_common::hazard::Hazard;
use sqp_common::rng::{Rng, StdRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Marker embedded in every injected panic's payload, so panic hooks and
/// supervisors can distinguish scheduled chaos from genuine bugs.
pub(crate) const PANIC_MARKER: &str = "injected chaos panic";

/// One hazard site's deterministic decision stream.
struct SiteStream {
    rng: StdRng,
    /// Strikes observed at this site so far (1-based ordinals).
    strikes: u64,
    /// Rolling hash over the site's decisions, for the digest.
    decisions: u64,
}

/// Counters of injected faults (and the event totals they were drawn
/// from), snapshotted by [`Chaos::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// File reads observed.
    pub reads: u64,
    /// File writes observed.
    pub(crate) writes: u64,
    /// Reads failed with an injected error.
    pub read_errors: u64,
    /// Reads returned truncated.
    pub short_reads: u64,
    /// Writes failed with an injected error.
    pub write_errors: u64,
    /// Writes whose payload was corrupted in flight.
    pub corrupt_writes: u64,
    /// Hazard strikes that stalled the calling thread.
    pub(crate) delays: u64,
    /// Hazard strikes that panicked the calling thread.
    pub panics: u64,
}

/// Executes a [`FaultPlan`]: the shared chaos state of one scenario.
///
/// # Examples
///
/// A hazard that panics on its first strike at a named site:
///
/// ```
/// use sqp_common::hazard::Hazard;
/// use sqp_faults::{Chaos, FaultPlan};
///
/// let chaos = Chaos::new(FaultPlan {
///     seed: 42,
///     panic_sites: vec!["store.retrain.train".into()],
///     panic_on: vec![1],
///     ..FaultPlan::default()
/// });
/// let caught =
///     std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.strike("store.retrain.train")));
/// let payload = caught.unwrap_err();
/// assert!(payload.downcast_ref::<String>().unwrap().contains("store.retrain.train"));
/// // The ordinal was consumed: the second strike passes clean.
/// chaos.strike("store.retrain.train");
/// assert_eq!(chaos.stats().panics, 1);
/// ```
pub struct Chaos {
    plan: FaultPlan,
    clock: Arc<dyn Clock>,
    pub(crate) reads: AtomicU64,
    pub(crate) writes: AtomicU64,
    read_errors: AtomicU64,
    short_reads: AtomicU64,
    write_errors: AtomicU64,
    corrupt_writes: AtomicU64,
    delays: AtomicU64,
    panics: AtomicU64,
    sites: Mutex<BTreeMap<String, SiteStream>>,
}

impl std::fmt::Debug for Chaos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chaos")
            .field("plan", &self.plan)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Chaos {
    /// A chaos runtime executing `plan`, stalling on the real clock.
    pub fn new(plan: FaultPlan) -> Arc<Self> {
        Self::with_clock(plan, Arc::new(RealClock))
    }

    /// A chaos runtime whose injected stalls sleep on `clock` (a virtual
    /// clock makes delay-heavy plans run instantly).
    pub fn with_clock(plan: FaultPlan, clock: Arc<dyn Clock>) -> Arc<Self> {
        Arc::new(Self {
            plan,
            clock,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            short_reads: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            corrupt_writes: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            sites: Mutex::new(BTreeMap::new()),
        })
    }

    /// The plan being executed.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// A [`FsIo`](sqp_common::fsio::FsIo) that injects this plan's disk
    /// faults in front of the real filesystem.
    pub fn faulty_fs(self: &Arc<Self>) -> crate::FaultyFs {
        crate::FaultyFs::new(Arc::clone(self))
    }

    /// Snapshot of the fault counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            short_reads: self.short_reads.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            corrupt_writes: self.corrupt_writes.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// Fold every decision this runtime has made — per-site strike counts
    /// and probabilistic draws, IO event totals, injected-fault counters —
    /// into one value. A scenario whose event counts are deterministic
    /// (fixed ops per worker, a scripted retrain driver) produces the same
    /// digest on every run with the same plan; the chaos soak asserts
    /// exactly that.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET_BASIS ^ self.plan.seed;
        let fold = |h: u64, v: u64| fnv1a(h, &v.to_le_bytes());
        let s = self.stats();
        for v in [
            s.reads,
            s.writes,
            s.read_errors,
            s.short_reads,
            s.write_errors,
            s.corrupt_writes,
            s.delays,
            s.panics,
        ] {
            h = fold(h, v);
        }
        // BTreeMap iteration is name-ordered, so the fold is independent of
        // site creation order.
        let sites = self.lock_sites();
        for (name, stream) in sites.iter() {
            h = fold(h, fx_hash_one(&name.as_str()));
            h = fold(h, stream.strikes);
            h = fold(h, stream.decisions);
        }
        h
    }

    /// Install a process-wide panic hook that silences injected chaos
    /// panics (payloads carrying `PANIC_MARKER`) and forwards everything
    /// else to the previous hook. Idempotent; intended for chaos test
    /// binaries, where scheduled panics would otherwise spray backtraces
    /// over the output.
    pub fn install_quiet_panic_hook() {
        use std::sync::Once;
        static INSTALL: Once = Once::new();
        INSTALL.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(PANIC_MARKER));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    fn lock_sites(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, SiteStream>> {
        // Invariant: the map is only mutated under the lock and every
        // mutation (entry insert, counter bump) leaves it valid even if a
        // strike panics by design right after — recover from poisoning.
        self.sites.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a strike at `site`, returning its 1-based ordinal and the
    /// site's probabilistic draw for this strike.
    fn draw(&self, site: &str) -> (u64, f64) {
        let mut sites = self.lock_sites();
        let stream = sites.entry(site.to_owned()).or_insert_with(|| SiteStream {
            // Per-site streams: the k-th draw at a site depends only on the
            // seed and the site name, never on other sites' activity.
            rng: StdRng::seed_from_u64(self.plan.seed ^ fx_hash_one(&site)),
            strikes: 0,
            decisions: 0,
        });
        stream.strikes += 1;
        let draw: f64 = stream.rng.random();
        stream.decisions = fnv1a(stream.decisions, &draw.to_bits().to_le_bytes());
        (stream.strikes, draw)
    }
}

impl Hazard for Chaos {
    fn strike(&self, site: &str) {
        let (ordinal, draw) = self.draw(site);
        if self.plan.panic_sites.iter().any(|s| s == site) && self.plan.panic_on.contains(&ordinal)
        {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("{PANIC_MARKER} at {site} strike #{ordinal}");
        }
        if self.plan.p_delay > 0.0
            && draw < self.plan.p_delay
            && self
                .plan
                .delay_site_prefixes
                .iter()
                .any(|p| site.starts_with(p.as_str()))
        {
            self.delays.fetch_add(1, Ordering::Relaxed);
            self.clock.sleep(self.plan.delay);
        }
    }
}

// Internal hooks for FaultyFs (same crate).
impl Chaos {
    pub(crate) fn note_read_error(&self) {
        self.read_errors.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_short_read(&self) {
        self.short_reads.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn note_corrupt_write(&self) {
        self.corrupt_writes.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn per_site_streams_are_interleaving_independent() {
        let plan = FaultPlan {
            seed: 99,
            p_delay: 0.5,
            delay: Duration::from_millis(0),
            delay_site_prefixes: vec!["serve.".into()],
            ..FaultPlan::default()
        };
        // Run A: site draws interleaved one way.
        let a = Chaos::new(plan.clone());
        for _ in 0..50 {
            a.strike("serve.shard.0");
            a.strike("serve.shard.1");
        }
        // Run B: the same per-site strike counts, opposite global order.
        let b = Chaos::new(plan);
        for _ in 0..50 {
            b.strike("serve.shard.1");
        }
        for _ in 0..50 {
            b.strike("serve.shard.0");
        }
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.stats().delays, b.stats().delays);
    }

    #[test]
    fn digest_differs_across_seeds() {
        let mk = |seed| {
            let plan = FaultPlan {
                seed,
                p_delay: 0.5,
                delay: Duration::from_millis(0),
                delay_site_prefixes: vec!["serve.".into()],
                ..FaultPlan::default()
            };
            let c = Chaos::new(plan);
            for _ in 0..20 {
                c.strike("serve.shard.0");
            }
            c.digest()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn panic_ordinals_are_exact() {
        let chaos = Chaos::new(FaultPlan {
            seed: 1,
            panic_sites: vec!["x".into()],
            panic_on: vec![2, 3],
            ..FaultPlan::default()
        });
        chaos.strike("x"); // #1 clean
        for expected in 2..=3u64 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| chaos.strike("x")))
                .unwrap_err();
            let msg = err.downcast_ref::<String>().unwrap();
            assert!(msg.contains(&format!("#{expected}")), "{msg}");
        }
        chaos.strike("x"); // #4 clean
        assert_eq!(chaos.stats().panics, 2);
        // Panics at unlisted sites never fire.
        let other = Chaos::new(FaultPlan {
            seed: 1,
            panic_sites: vec!["x".into()],
            panic_on: vec![1],
            ..FaultPlan::default()
        });
        other.strike("y");
        assert_eq!(other.stats().panics, 0);
    }
}
