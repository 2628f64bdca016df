//! Alternative session-extraction strategies — §II of the paper surveys
//! them: plain temporal cutoffs (Jansen et al.), and segmentation *enhanced
//! by search-pattern evidence* (Ozmutlu; Han et al.; Rieh & Xie): a long
//! pause does not end the session when the next query is an obvious
//! reformulation of the last one.
//!
//! The paper itself adopts the plain 30-minute rule ("session segmentation
//! is beyond the scope of this paper"); these variants let downstream users
//! study how the choice affects every model, and power the
//! `ablation_reduction`-style sensitivity analyses.

use crate::segment::{segment_by, Segmented};
use sqp_common::dist::levenshtein_str;
use sqp_logsim::RawLogRecord;

/// Strategy for deciding where one session ends and the next begins.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegmentStrategy {
    /// Cut when the gap between activities exceeds the cutoff (the paper's
    /// §V-A.2 convention).
    TimeGap {
        /// Gap threshold in seconds.
        cutoff_secs: u64,
    },
    /// Cut on the time gap unless the next query is textually similar to the
    /// previous one (term overlap or small edit distance) — pattern-enhanced
    /// segmentation in the spirit of the paper's refs [24, 26, 11].
    SimilarityEnhanced {
        /// Gap threshold in seconds.
        cutoff_secs: u64,
        /// Gap ceiling: beyond `cutoff_secs * hard_factor` always cut.
        hard_factor: u64,
    },
    /// Cut after a fixed number of queries regardless of time (a degenerate
    /// baseline occasionally used in log studies).
    FixedLength {
        /// Queries per session.
        max_queries: usize,
    },
}

/// Do two query strings look like one continuing information need?
/// Word overlap (specialization/generalization share terms) or a small edit
/// distance (spelling reformulation).
pub fn queries_related(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    if levenshtein_str(a, b) <= 2 {
        return true;
    }
    let wa: std::collections::HashSet<&str> = a.split_whitespace().collect();
    let wb: std::collections::HashSet<&str> = b.split_whitespace().collect();
    if wa.is_empty() || wb.is_empty() {
        return false;
    }
    let shared = wa.intersection(&wb).count();
    shared * 2 >= wa.len().min(wb.len())
}

/// Segment records with the chosen strategy. Same ordering pass and
/// output ordering as [`crate::segment::segment`] — by machine id, then
/// time — with the strategy as the cut rule.
pub fn segment_with(records: &[RawLogRecord], strategy: SegmentStrategy) -> Segmented {
    segment_by(records, 1, |table, b| match strategy {
        SegmentStrategy::TimeGap { cutoff_secs } => b.gap > cutoff_secs,
        SegmentStrategy::SimilarityEnhanced {
            cutoff_secs,
            hard_factor,
        } => {
            if b.gap > cutoff_secs.saturating_mul(hard_factor.max(1)) {
                true
            } else if b.gap > cutoff_secs {
                // Long pause: stay in-session only for an obvious
                // reformulation of the latest query.
                !queries_related(table.resolve(b.prev), table.resolve(b.next))
            } else {
                false
            }
        }
        SegmentStrategy::FixedLength { max_queries } => b.open_len >= max_queries.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_default;

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    const MIN30: u64 = 30 * 60;

    #[test]
    fn time_gap_matches_default_segmentation() {
        let records = vec![
            rec(1, 0, "a"),
            rec(1, 100, "b"),
            rec(1, 100 + MIN30 + 1, "c"),
            rec(2, 50, "d"),
        ];
        let a = segment_with(&records, SegmentStrategy::TimeGap { cutoff_secs: MIN30 });
        let b = segment_default(&records);
        assert_eq!(a.to_text_sessions(), b.to_text_sessions());
    }

    #[test]
    fn similarity_keeps_reformulations_together() {
        // 40-minute pause, but the second query specializes the first —
        // pattern-enhanced segmentation keeps them in one session.
        let records = vec![
            rec(1, 0, "kidney stones"),
            rec(1, 40 * 60, "kidney stones symptoms"),
        ];
        let plain = segment_with(&records, SegmentStrategy::TimeGap { cutoff_secs: MIN30 });
        assert_eq!(plain.len(), 2);
        let enhanced = segment_with(
            &records,
            SegmentStrategy::SimilarityEnhanced {
                cutoff_secs: MIN30,
                hard_factor: 4,
            },
        );
        assert_eq!(enhanced.len(), 1);
        assert_eq!(enhanced.get(0).len(), 2);
    }

    #[test]
    fn similarity_still_cuts_unrelated_queries() {
        let records = vec![
            rec(1, 0, "kidney stones"),
            rec(1, 40 * 60, "muzzle brake"), // unrelated: cut
        ];
        let enhanced = segment_with(
            &records,
            SegmentStrategy::SimilarityEnhanced {
                cutoff_secs: MIN30,
                hard_factor: 4,
            },
        );
        assert_eq!(enhanced.len(), 2);
    }

    #[test]
    fn similarity_respects_hard_ceiling() {
        // Related queries, but the pause exceeds cutoff × factor: cut anyway.
        let records = vec![
            rec(1, 0, "kidney stones"),
            rec(1, 5 * MIN30, "kidney stones symptoms"),
        ];
        let enhanced = segment_with(
            &records,
            SegmentStrategy::SimilarityEnhanced {
                cutoff_secs: MIN30,
                hard_factor: 4,
            },
        );
        assert_eq!(enhanced.len(), 2);
    }

    #[test]
    fn fixed_length_chunks() {
        let records: Vec<RawLogRecord> = (0..7).map(|i| rec(1, i * 10, &format!("q{i}"))).collect();
        let sessions = segment_with(&records, SegmentStrategy::FixedLength { max_queries: 3 });
        let lens: Vec<usize> = sessions.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![3, 3, 1]);
    }

    #[test]
    fn relatedness_heuristics() {
        assert!(queries_related("kidney stones", "kidney stones symptoms"));
        assert!(queries_related("goggle", "google"));
        assert!(queries_related("nokia n73", "nokia n73 themes"));
        assert!(!queries_related("muzzle brake", "shared calenders"));
        assert!(queries_related("a b", "a b"));
        assert!(!queries_related("", "anything else entirely"));
    }

    #[test]
    fn partition_invariant_for_all_strategies() {
        let records: Vec<RawLogRecord> = (0..60)
            .map(|i| rec(i % 4, i * 900, &format!("query {}", i % 9)))
            .collect();
        for strategy in [
            SegmentStrategy::TimeGap { cutoff_secs: MIN30 },
            SegmentStrategy::SimilarityEnhanced {
                cutoff_secs: MIN30,
                hard_factor: 4,
            },
            SegmentStrategy::FixedLength { max_queries: 4 },
        ] {
            let sessions = segment_with(&records, strategy);
            let total: usize = sessions.iter().map(|s| s.len()).sum();
            assert_eq!(total, records.len(), "{strategy:?} lost records");
            assert!(sessions.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn enhanced_never_creates_more_sessions_than_plain() {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(2_000, 100, 31));
        let plain = segment_with(&logs.train, SegmentStrategy::TimeGap { cutoff_secs: MIN30 });
        let enhanced = segment_with(
            &logs.train,
            SegmentStrategy::SimilarityEnhanced {
                cutoff_secs: MIN30,
                hard_factor: 4,
            },
        );
        assert!(enhanced.len() <= plain.len());
    }
}
