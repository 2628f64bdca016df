//! # sqp-serve — concurrent serving subsystem
//!
//! Turns a trained sequential-query-prediction model into something a live
//! search front-end can sit on: many threads of mixed traffic, per-user
//! session state, and zero-downtime model retrains.
//!
//! Three layers, composed by [`ServeEngine`]:
//!
//! * [`ModelSnapshot`] — an immutable bundle of a trained
//!   [`Recommender`](sqp_core::Recommender) and the frozen
//!   [`Interner`](sqp_common::Interner) its ids are relative to. Ids never
//!   cross snapshot boundaries, so a snapshot is always internally
//!   consistent.
//! * [`Swap`] — an arc-swap-style publication cell. Readers go through
//!   [`Swap::with`], which lends each thread its cached
//!   [`Arc`](std::sync::Arc) after one load of the cell's generation, so a
//!   steady-state read writes no shared cache line; a retrain publishes a
//!   new snapshot with [`Swap::store`] and in-flight requests finish on the
//!   old one. No locks are held while a model is consulted and no request
//!   can observe a half-swapped model.
//! * [`SessionTracker`] — sharded, lock-striped per-user context windows
//!   (one block per session: the recent query text, and beside it the ids
//!   that text resolved to under one snapshot) with the paper's 30-minute
//!   rule applied online: long idle gaps start fresh sessions, and
//!   [`SessionTracker::evict_idle`] reclaims abandoned ones.
//!
//! The engine's [`suggest_batch`](ServeEngine::suggest_batch) amortizes the
//! per-request costs — one snapshot read per batch, stripe locks carried
//! across same-shard runs, and top-k selection running through buffers
//! reused across the whole batch. Session locks cover only map probes and
//! a copy of cached ids (interner lookups only for what a session has not
//! yet resolved under the batch's snapshot); model inference always runs
//! with every lock released.
//!
//! # Examples
//!
//! Serve, retrain, and hot-swap without dropping a request:
//!
//! ```
//! use std::sync::Arc;
//! use sqp_logsim::RawLogRecord;
//! use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
//!
//! let rec = |machine, ts, q: &str| RawLogRecord {
//!     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
//! };
//! let mut logs = Vec::new();
//! for u in 0..10 {
//!     logs.push(rec(u, 100, "weather"));
//!     logs.push(rec(u, 130, "weather tomorrow"));
//! }
//! let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
//! let engine = ServeEngine::new(
//!     Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
//!     EngineConfig::default(),
//! );
//!
//! // Live traffic: track the user's query, suggest against their session.
//! engine.track(7, "weather", 1_000);
//! assert_eq!(engine.suggest(7, 1, 1_001)[0].query, "weather tomorrow");
//!
//! // A retrain finished — publish it. Nobody stops serving.
//! logs.push(rec(99, 100, "weather"));
//! logs.push(rec(99, 130, "weather radar"));
//! let next = Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg));
//! assert_eq!(engine.publish(next), 1);
//! assert_eq!(engine.generation(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod answer;
pub mod engine;
pub mod session;
pub mod sink;
pub mod snapshot;
pub mod surface;
pub mod swap;

pub use answer::{FlatAnswer, QueryText};
pub use engine::{
    EngineConfig, EngineStats, InFlightPermit, Overloaded, ServeEngine, SuggestRequest,
};
pub use session::{
    ExportBatch, SessionExport, SessionTracker, TrackOutcome, TrackerConfig, DEFAULT_CUTOFF_SECS,
};
pub use sink::SuggestSink;
pub use snapshot::{ModelSnapshot, Suggestion, TrainingConfig};
pub use sqp_core::ModelSpec;
pub use surface::ServeSurface;
pub use swap::Swap;
