//! End-to-end log-processing pipeline — §V-A of the paper.
//!
//! raw records → 30-minute segmentation → interning + aggregation → data
//! reduction → training contexts / test ground truth / query index.

use crate::aggregate::{aggregate, Aggregated};
use crate::contexts::GroundTruth;
use crate::index::QueryTrainingIndex;
use crate::reduce::{reduce, ReductionReport};
use crate::segment::{segment, Segmented, TextSession, DEFAULT_CUTOFF_SECS};
use crate::stats::{corpus_stats, CorpusStats};
use sqp_common::{Histogram, Interner};
use sqp_logsim::SimulatedLogs;

/// Pipeline knobs. Sessions are cut at [`DEFAULT_CUTOFF_SECS`], and each
/// ground-truth context keeps its `GROUND_TRUTH_N` best continuations.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Drop aggregated sessions with frequency ≤ this. The paper uses 5 on a
    /// 2-billion-session corpus; at 10⁵–10⁶ simulated sessions the
    /// equivalent noise filter is ≤ 1 (experiments override it as they
    /// scale).
    pub reduction_threshold: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            reduction_threshold: 1,
        }
    }
}

/// Continuations kept per ground-truth context (the paper's n = 5).
const GROUND_TRUTH_N: usize = 5;

/// Everything the pipeline derives from one epoch of raw logs.
#[derive(Clone, Debug)]
pub struct EpochData {
    /// Table IV statistics of the segmented corpus.
    pub stats: CorpusStats,
    /// Session-length histogram before reduction (Figure 5).
    pub length_hist_before: Histogram,
    /// Session-length histogram after reduction (Figure 7).
    pub length_hist_after: Histogram,
    /// Rank/frequency spectrum of aggregated sessions before reduction
    /// (Figure 6).
    pub spectrum: Vec<(f64, f64)>,
    /// Reduction report (retention percentages quoted in §V-A.4).
    pub reduction: ReductionReport,
    /// The reduced, aggregated corpus models consume, by descending
    /// frequency ([`Aggregated::sort_by_frequency`]).
    pub aggregated: Aggregated,
}

/// Fully processed train + test corpora.
#[derive(Debug)]
pub struct ProcessedLogs {
    /// Query interner shared by both epochs (train interned first).
    pub interner: Interner,
    /// Training epoch.
    pub train: EpochData,
    /// Test epoch.
    pub test: EpochData,
    /// Test ground truth (top-n continuations per test context).
    pub ground_truth: GroundTruth,
    /// Per-query training occurrence index (Table VI analysis).
    pub train_index: QueryTrainingIndex,
    /// Segmented (pre-aggregation) test sessions, kept for the user study
    /// sampling (§V-H draws raw test query sequences).
    pub test_sessions: Vec<TextSession>,
}

fn process_epoch(
    records: &[sqp_logsim::RawLogRecord],
    cfg: &PipelineConfig,
    interner: &mut Interner,
) -> (EpochData, Segmented) {
    let sessions = segment(records, DEFAULT_CUTOFF_SECS);
    let stats = corpus_stats(&sessions);
    let mut aggregated_full = aggregate(&sessions, interner);
    // Figs. 5–7, Fig. 12's stride sample and the user study read the
    // frequency ranking; the models would train the same from any order.
    aggregated_full.sort_by_frequency();
    let length_hist_before = aggregated_full.length_histogram();
    let spectrum = aggregated_full.rank_frequency();
    let (aggregated, reduction) = reduce(&aggregated_full, cfg.reduction_threshold);
    let length_hist_after = aggregated.length_histogram();
    (
        EpochData {
            stats,
            length_hist_before,
            length_hist_after,
            spectrum,
            reduction,
            aggregated,
        },
        sessions,
    )
}

/// Run the full pipeline over simulated logs.
pub fn process(logs: &SimulatedLogs, cfg: &PipelineConfig) -> ProcessedLogs {
    let mut interner = Interner::new();
    let (train, _train_sessions) = process_epoch(&logs.train, cfg, &mut interner);
    // The index covers exactly the queries known at training time; test-only
    // queries interned next get larger ids and classify as "new".
    let train_index = QueryTrainingIndex::build(&train.aggregated, interner.len());
    let (test, test_sessions) = process_epoch(&logs.test, cfg, &mut interner);
    let ground_truth = GroundTruth::build(&test.aggregated, GROUND_TRUTH_N);
    ProcessedLogs {
        interner,
        train,
        test,
        ground_truth,
        train_index,
        test_sessions: test_sessions.to_text_sessions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::UnpredictableReason;
    use sqp_common::QueryId;
    use sqp_logsim::SimConfig;

    fn processed() -> ProcessedLogs {
        let logs = sqp_logsim::generate(&SimConfig::small(4_000, 1_000, 11));
        process(&logs, &PipelineConfig::default())
    }

    #[test]
    fn segmentation_recovers_generated_sessions() {
        // The generator separates sessions of a machine by > 30 minutes and
        // keeps intra-session gaps below the cutoff, so segmentation must
        // recover the session count exactly.
        let logs = sqp_logsim::generate(&SimConfig::small(2_000, 400, 17));
        let p = process(&logs, &PipelineConfig::default());
        assert_eq!(
            p.train.stats.n_sessions,
            logs.truth.train_sessions.len() as u64
        );
        assert_eq!(
            p.test.stats.n_sessions,
            logs.truth.test_sessions.len() as u64
        );
    }

    #[test]
    fn searches_match_record_counts() {
        let logs = sqp_logsim::generate(&SimConfig::small(2_000, 400, 17));
        let p = process(&logs, &PipelineConfig::default());
        assert_eq!(p.train.stats.n_searches, logs.train.len() as u64);
        assert_eq!(p.test.stats.n_searches, logs.test.len() as u64);
    }

    #[test]
    fn epochs_hold_the_frequency_ranking() {
        let logs = sqp_logsim::generate(&SimConfig::small(2_000, 400, 17));
        let cfg = PipelineConfig::default();
        let p = process(&logs, &cfg);
        let mut interner = Interner::new();
        for (records, epoch) in [(&logs.train, &p.train), (&logs.test, &p.test)] {
            let segmented = segment(records, DEFAULT_CUTOFF_SECS);
            let aggregated = aggregate(&segmented, &mut interner);
            let (mut want, _) = reduce(&aggregated, cfg.reduction_threshold);
            want.sessions
                .sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            assert_eq!(epoch.aggregated, want);
            assert_eq!(epoch.spectrum[0].1, want.sessions[0].1 as f64);
        }
        assert_eq!(interner.len(), p.interner.len());
    }

    #[test]
    fn reduction_keeps_majority_of_mass() {
        let p = processed();
        let retention = p.train.reduction.retention();
        assert!(
            (0.4..1.0).contains(&retention),
            "retention {retention} outside plausible band"
        );
        // Aggregate mass after reduction matches the report.
        assert_eq!(
            p.train.aggregated.total_sessions(),
            p.train.reduction.kept_mass
        );
    }

    #[test]
    fn ground_truth_has_multiple_context_lengths() {
        let p = processed();
        assert!(p.ground_truth.by_length(1).count() > 0);
        assert!(p.ground_truth.by_length(2).count() > 0);
        assert!(p.ground_truth.by_length(3).count() > 0);
        for e in &p.ground_truth.entries {
            assert!(!e.top.is_empty());
            assert!(e.top.len() <= 5);
            assert!(e.support > 0);
            // Ranking is by descending frequency.
            for w in e.top.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn mean_session_length_in_paper_band() {
        let p = processed();
        let mean = p.train.stats.mean_session_length();
        assert!((1.8..3.2).contains(&mean), "mean length {mean}");
    }

    #[test]
    fn spectrum_follows_power_law_shape() {
        let p = processed();
        let slope = sqp_common::hist::log_log_slope(&p.train.spectrum).unwrap();
        // Rank/frequency log-log slope should be clearly negative.
        assert!(slope < -0.4, "slope {slope} too flat for a power law");
    }

    #[test]
    fn train_index_covers_training_queries_only() {
        let p = processed();
        for (session, _) in &p.train.aggregated.sessions {
            for &q in session.iter() {
                assert_ne!(
                    p.train_index.classify_cooccurrence(q),
                    Some(UnpredictableReason::NewQuery)
                );
            }
        }
        let unseen = QueryId(p.interner.len() as u32);
        assert_eq!(
            p.train_index.classify_cooccurrence(unseen),
            Some(UnpredictableReason::NewQuery)
        );
    }

    #[test]
    fn interner_resolves_everything_in_ground_truth() {
        let p = processed();
        for e in &p.ground_truth.entries {
            for &q in e.context.iter() {
                assert!(p.interner.try_resolve(q).is_some());
            }
            for &(q, _) in &e.top {
                assert!(p.interner.try_resolve(q).is_some());
            }
        }
    }
}
