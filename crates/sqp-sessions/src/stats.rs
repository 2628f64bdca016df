//! Corpus statistics — Table IV, Figure 5, Figure 6, Figure 7.

use crate::segment::Segmented;
use sqp_common::Histogram;

/// Summary statistics of a segmented corpus (the paper's Table IV).
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusStats {
    /// Number of sessions after segmentation.
    pub n_sessions: u64,
    /// Number of searches (total queries across sessions).
    pub n_searches: u64,
    /// Number of distinct query strings.
    pub n_unique_queries: u64,
    /// Session-length histogram (Figure 5).
    pub length_histogram: Histogram,
}

/// Compute Table IV statistics over segmented sessions. Read off the
/// segmentation's own table and spans — no query text is touched.
pub fn corpus_stats(sessions: &Segmented) -> CorpusStats {
    let mut hist = Histogram::new();
    for s in sessions.iter() {
        hist.observe(s.len() as u64);
    }
    CorpusStats {
        n_sessions: sessions.len() as u64,
        n_searches: sessions.searches() as u64,
        n_unique_queries: sessions.unique_queries() as u64,
        length_histogram: hist,
    }
}

impl CorpusStats {
    /// Mean session length, the statistic the paper quotes as 2–3.
    pub fn mean_session_length(&self) -> f64 {
        self.length_histogram.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_default;
    use crate::segment::tests::rec;

    #[test]
    fn counts_sessions_searches_uniques() {
        // Three machines, one session each: [a, b], [a], [c, c, d].
        let records = [
            rec(1, 0, "a"),
            rec(1, 1, "b"),
            rec(2, 0, "a"),
            rec(3, 0, "c"),
            rec(3, 1, "c"),
            rec(3, 2, "d"),
        ];
        let st = corpus_stats(&segment_default(&records));
        assert_eq!(st.n_sessions, 3);
        assert_eq!(st.n_searches, 6);
        assert_eq!(st.n_unique_queries, 4);
        assert_eq!(st.length_histogram.count(1), 1);
        assert_eq!(st.length_histogram.count(2), 1);
        assert_eq!(st.length_histogram.count(3), 1);
        assert!((st.mean_session_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_corpus() {
        let st = corpus_stats(&segment_default(&[]));
        assert_eq!(st.n_sessions, 0);
        assert_eq!(st.n_searches, 0);
        assert_eq!(st.n_unique_queries, 0);
        assert_eq!(st.mean_session_length(), 0.0);
    }
}
