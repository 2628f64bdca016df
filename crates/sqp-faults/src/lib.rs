//! Deterministic fault injection for the SQP serving stack.
//!
//! The resilient serving stack (supervised retraining, snapshot
//! quarantine/rollback, overload shedding) is only trustworthy if its
//! failure paths are *executed*, and failure paths are only debuggable if
//! their execution is *replayable*. This crate provides both halves:
//!
//! * [`FaultPlan`] — a declarative chaos schedule: exact event ordinals for
//!   disk faults and worker panics, seeded probabilities for stalls.
//! * [`Chaos`] — the runtime that executes a plan at the `sqp-common` fault
//!   seams: it implements [`Hazard`](sqp_common::hazard::Hazard) (panic and
//!   stall injection), hands out a [`FaultyFs`] (disk-fault injection over
//!   the [`FsIo`](sqp_common::fsio::FsIo) seam), counts every injected
//!   fault into [`ChaosStats`], and folds every decision into a replay
//!   [`digest`](Chaos::digest).
//! * [`VirtualClock`] — a [`Clock`](sqp_common::clock::Clock) whose sleeps
//!   advance instantly, so backoff- and cooldown-heavy scenarios run in
//!   microseconds.
//! * [`ChaosProxy`] (`netchaos`) — a loopback TCP forwarder that injects
//!   the plan's *network* faults (refuse-accept, black-hole,
//!   close-mid-frame, byte-truncate, delay) between any client and a real
//!   server, so cross-process resilience is provable in-repo.
//!
//! Everything is std-only and seeded by `sqp-common`'s xoshiro256++: a run
//! with the same plan makes bit-identical fault decisions, which the chaos
//! soak test asserts by comparing digests across runs.

mod chaos;
mod clock;
mod fs;
mod netchaos;
mod plan;

pub use chaos::{Chaos, ChaosStats};
pub use clock::VirtualClock;
pub use fs::FaultyFs;

pub use netchaos::ChaosProxy;

pub use plan::FaultPlan;
