//! # sqp — Sequential Query Prediction for Web Query Recommendation
//!
//! Umbrella crate re-exporting the whole workspace. See the README for the
//! architecture overview and the `examples/` directory for runnable demos.
//!
//! The workspace reproduces He, Jiang, Liao, Hoi, Chang, Lim & Li,
//! *Web Query Recommendation via Sequential Query Prediction*, ICDE 2009.

mod service;

pub use sqp_common as common;
pub use sqp_core as core;
pub use sqp_eval as eval;
pub use sqp_logsim as logsim;
pub use sqp_net as net;
pub use sqp_router as router;
pub use sqp_serve as serve;
pub use sqp_sessions as sessions;
pub use sqp_store as store;

pub use service::{RecommenderService, Suggestion};

/// Convenient glob-import surface for applications and examples.
pub mod prelude {
    pub use crate::service::{RecommenderService, Suggestion};
    pub use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
    pub use sqp_store::{
        load_snapshot, save_snapshot, Publish, RetrainConfig, Retrainer, SnapshotError,
        SnapshotMeta,
    };
}

// Compile and run the README's Rust snippets as doc-tests so the quickstart
// can never drift from the real API again.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}
