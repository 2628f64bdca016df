//! The fault plan: a declarative, replayable chaos schedule.
//!
//! A [`FaultPlan`] is data, not behavior — it names *which* events fault
//! and with what probability, and carries the seed that makes every
//! probabilistic draw replayable. The [`Chaos`](crate::Chaos) runtime
//! executes the plan; two runs built from the same plan make identical
//! fault decisions (asserted by the chaos soak's digest comparison).
//!
//! Two scheduling styles compose:
//!
//! * **Indexed schedules** (`write_error_on`, `corrupt_write_on`, …) name
//!   exact 1-based event ordinals — "the 2nd snapshot write is corrupted".
//!   These make the marquee chaos events (a quarantine, a breaker trip)
//!   certain rather than merely probable, which keeps soak assertions
//!   sharp.
//! * **Seeded probabilities** (`p_delay`) draw from a per-site
//!   xoshiro256++ stream derived from `seed ^ fx_hash(site)`, so the k-th
//!   decision at any given site is a pure function of the seed no matter
//!   how threads interleave *between* sites.

use std::time::Duration;

/// A declarative chaos schedule. See the module docs for semantics.
///
/// The default plan injects nothing — every field empty or zero — so a
/// plan can be built by naming only the faults a scenario needs.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic draws (per-site streams derive from it).
    pub seed: u64,
    /// 1-based global read ordinals that fail with an injected IO error.
    pub read_error_on: Vec<u64>,
    /// 1-based global read ordinals that return truncated contents.
    pub short_read_on: Vec<u64>,
    /// 1-based global write ordinals that fail with an injected IO error.
    pub write_error_on: Vec<u64>,
    /// 1-based global write ordinals whose bytes are corrupted in flight
    /// (one deterministic byte flip) before reaching the disk.
    pub corrupt_write_on: Vec<u64>,
    /// Exact hazard sites where panics may be injected.
    pub panic_sites: Vec<String>,
    /// 1-based per-site strike ordinals (at `panic_sites`) that panic.
    pub panic_on: Vec<u64>,
    /// Hazard-site prefixes eligible for injected stalls (e.g. `"serve."`).
    pub delay_site_prefixes: Vec<String>,
    /// Probability that a strike at a delay-eligible site stalls.
    pub p_delay: f64,
    /// Stall length for injected delays.
    pub delay: Duration,
    /// 1-based accepted-connection ordinals a [`ChaosProxy`] closes
    /// immediately after accepting (the closest a listening proxy gets to
    /// a refused connect: the client sees an instant reset/EOF).
    ///
    /// [`ChaosProxy`]: crate::netchaos::ChaosProxy
    pub refuse_accept_on: Vec<u64>,
    /// 1-based accepted-connection ordinals a proxy black-holes: bytes in
    /// either direction are swallowed, nothing is forwarded, the
    /// connection stays open until the client's deadline fires.
    pub blackhole_conn_on: Vec<u64>,
    /// 1-based global client→server frame ordinals the proxy cuts
    /// mid-frame: the length prefix and half the body are forwarded, then
    /// both sides are killed (the server sees a torn frame).
    pub cut_frame_c2s_on: Vec<u64>,
    /// 1-based global server→client frame ordinals the proxy truncates:
    /// the frame is forwarded missing its last byte, then both sides are
    /// killed (the client sees a torn reply).
    pub truncate_frame_s2c_on: Vec<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing (identical to `Default`); chaos wiring
    /// with this plan behaves exactly like production wiring.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}
