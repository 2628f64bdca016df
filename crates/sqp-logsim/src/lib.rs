//! # sqp-logsim — search-engine log simulator
//!
//! The paper evaluates on 150 days of proprietary commercial search logs
//! (2.5B sessions). This crate is the faithful synthetic stand-in: it builds
//! a topic-forest vocabulary, simulates users reformulating queries with the
//! paper's seven session patterns, and emits raw click logs in the Table III
//! format, split into a 120-day training epoch and a 30-day test epoch.
//!
//! ```
//! let cfg = sqp_logsim::SimConfig::small(1_000, 200, 7);
//! let logs = sqp_logsim::generate(&cfg);
//! assert_eq!(logs.truth.train_sessions.len(), 1_000);
//! assert!(!logs.train.is_empty());
//! ```

mod config;
mod generator;
mod patterns;
pub mod record;
mod vocab;
mod zipf;

pub use config::{SessionConfig, SimConfig, TrafficConfig, VocabConfig};
pub use generator::{generate, GeneratedSession, SimTruth, SimulatedLogs};
pub use patterns::PatternType;

pub use record::{Click, RawLogRecord};
pub use vocab::{Topic, TopicId, Vocabulary};
