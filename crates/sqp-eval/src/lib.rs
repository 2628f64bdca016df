//! # sqp-eval — evaluation kit for sequential query prediction
//!
//! Everything §V of the paper measures: NDCG with log-10 discounts
//! (Eq. 11), support-weighted coverage and the Table VI unpredictability
//! reasons, the Figure 2 entropy curve, the §V-H user study driven by a
//! simulated labeler oracle, and the Figure 12 training-time sweep.

mod accuracy;
mod coverage;
mod entropy;
mod labeler;
mod metrics;
mod ndcg;
pub mod report;
mod suite;
mod timing;
mod user_eval;

pub use accuracy::{evaluate_accuracy, overall_ndcg, AccuracyPoint};
pub use coverage::{
    coverage_by_length, overall_coverage, reason_analysis, CoveragePoint, ReasonCounts,
};
pub use entropy::{entropy_by_context_length, EntropyPoint};
pub use metrics::{hit_rate, mean_reciprocal_rank};
pub use ndcg::{dcg, ndcg_at};
pub use suite::{quick_lineup, train_models};
pub use timing::{subsample, training_time_sweep, TimingRow};
pub use user_eval::{run_user_eval, MethodUserEval, UserEvalConfig, UserEvalResult};
