//! # sqp-sessions — search-log processing pipeline
//!
//! Implements §V-A of the paper: session segmentation with the 30-minute
//! rule, aggregation of identical sessions, frequency-based data reduction,
//! prefix-context extraction, test ground-truth construction, per-query
//! training indexes, corpus statistics, and the rule-based session-pattern
//! classifier behind Figure 1.
//!
//! ```
//! use sqp_sessions::pipeline::{process, PipelineConfig};
//!
//! let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(2_000, 800, 3));
//! let processed = process(&logs, &PipelineConfig::default());
//! assert!(processed.train.aggregated.total_sessions() > 0);
//! assert!(!processed.ground_truth.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregate;
pub mod contexts;
pub mod incremental;
pub mod index;
pub mod patterns;
pub mod pipeline;
pub mod reduce;
pub mod segment;
pub mod segment_ext;
pub mod stats;

pub use aggregate::{aggregate, Aggregated};
pub use contexts::{ContextTable, GroundTruth, GroundTruthEntry};
pub use incremental::SlidingCorpus;
pub use index::{QueryTrainingIndex, UnpredictableReason};
pub use pipeline::{process, EpochData, PipelineConfig, ProcessedLogs};
pub use reduce::{reduce, reduce_in_place, ReductionReport};
pub use segment::{
    segment, segment_default, segment_with_parallelism, Segmented, SessionRef, TextSession,
    DEFAULT_CUTOFF_SECS,
};
pub use segment_ext::{queries_related, segment_with, SegmentStrategy};
pub use stats::{corpus_stats, CorpusStats};
