//! Replicated, routed serving tier for sequential query prediction.
//!
//! One [`ServeEngine`](sqp_serve::ServeEngine) tops out at a single
//! process-wide tracker and snapshot cell; the ROADMAP's "millions of
//! users" target wants N of them behind one front door. This crate adds
//! that tier:
//!
//! * [`HashRing`] — deterministic consistent hashing of user ids onto
//!   replica ids: sticky per user, ~1/N remapping under resize, no
//!   `RandomState` anywhere (routing survives restarts and agrees across
//!   processes);
//! * [`Members`] — the one placement rule: an immutable membership view
//!   (the ring plus id-sorted members) with routing, failover order and
//!   the batch scatter. The router's replicas and `sqp-net`'s remote
//!   endpoints are both held as one;
//! * [`RouterEngine`] — owns N independently locked replicas and speaks
//!   the single engine's [`ServeSurface`](sqp_serve::ServeSurface), so
//!   callers promote transparently: single-user calls go to the user's
//!   home replica, batches through one scatter/gather that reorders
//!   replica answers in a flat arena before any of them reaches the
//!   caller's [`SuggestSink`](sqp_serve::SuggestSink). It adds per-replica
//!   publication ([`RouterEngine::try_publish_to`]) with quarantine marks
//!   — the primitives rolling upgrades are built from;
//! * [`RouterStats`] — per-replica generation/health/shed introspection
//!   plus the generation envelope (min/max/skew) an operator watches
//!   during a roll.
//!
//! Storage-aware publication (fan-out and rolling publish *from disk*,
//! with per-replica validation and quarantine-on-failure) is this tier's
//! impl of `sqp-store`'s `Publish`, which builds on the primitives here.

mod members;
mod ring;
mod router;

pub use members::{Members, Runs, Scatter};
pub use ring::{HashRing, WouldEmptyRing, DEFAULT_VNODES};
pub use router::{
    HandoffReport, MembershipError, ReplicaStats, RouterConfig, RouterEngine, RouterStats,
};
