//! # sqp-sessions — search-log processing pipeline
//!
//! Implements §V-A of the paper: session segmentation by its one rule, the
//! 30-minute cutoff; aggregation of identical sessions, frequency-based
//! data reduction, prefix-context extraction, test ground-truth
//! construction, per-query training indexes, corpus statistics, and the
//! rule-based session-pattern classifier behind Figure 1.
//!
//! ```
//! use sqp_sessions::pipeline::{process, PipelineConfig};
//!
//! let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(2_000, 800, 3));
//! let processed = process(&logs, &PipelineConfig::default());
//! assert!(processed.train.aggregated.total_sessions() > 0);
//! assert!(processed.ground_truth.len() > 0);
//! ```

mod aggregate;
mod contexts;
mod incremental;
mod index;
pub mod patterns;
pub mod pipeline;
mod reduce;
mod segment;
mod stats;

pub use aggregate::{aggregate, Aggregated};
pub use contexts::{GroundTruth, GroundTruthEntry};
pub use incremental::SlidingCorpus;

pub use index::{QueryTrainingIndex, UnpredictableReason};
pub use pipeline::{process, PipelineConfig, ProcessedLogs};
pub use reduce::{reduce, reduce_in_place, ReductionReport};
pub use segment::{
    segment, segment_default, segment_with_parallelism, Segmented, SessionRef, TextSession,
    DEFAULT_CUTOFF_SECS,
};
pub use stats::{corpus_stats, CorpusStats};
