//! # sqp-eval — evaluation kit for sequential query prediction
//!
//! Everything §V of the paper measures: NDCG with log-10 discounts
//! (Eq. 11), support-weighted coverage and the Table VI unpredictability
//! reasons, the Figure 2 entropy curve, the §V-H user study driven by a
//! simulated labeler oracle, and the Figure 12 training-time sweep.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accuracy;
pub mod coverage;
pub mod entropy;
pub mod labeler;
pub mod metrics;
pub mod ndcg;
pub mod report;
pub mod suite;
pub mod timing;
pub mod user_eval;

pub use accuracy::{evaluate_accuracy, overall_ndcg, AccuracyPoint};
pub use coverage::{
    coverage_by_length, overall_coverage, reason_analysis, CoveragePoint, ReasonCounts,
};
pub use entropy::{entropy_by_context_length, EntropyPoint};
pub use labeler::LabelerOracle;
pub use metrics::{hit_rate, mean_reciprocal_rank};
pub use ndcg::{dcg, ndcg_at, position_rating};
pub use suite::{paper_lineup, quick_lineup, train_models};
pub use timing::{subsample, training_time_sweep, TimingRow};
pub use user_eval::{run_user_eval, MethodUserEval, UserEvalConfig, UserEvalResult};
