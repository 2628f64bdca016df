//! Session aggregation — the paper's §V-A.3.
//!
//! *"After session segmentation, identical sessions from different users are
//! aggregated."* Final [`QueryId`]s are assigned here, so everything
//! downstream works on dense ids.
//!
//! [`Segmented`] already holds every session as a span of provisional ids,
//! so no query text is hashed per record: one scan of the flat buffer maps
//! each provisional id to a final one the first time it appears — one
//! `intern` per *distinct* query, in first-seen order over sessions sorted
//! by (machine id, start time) — and identical sessions are then counted as
//! borrowed id slices of the remapped buffer.

use crate::segment::Segmented;
use sqp_common::{FxHashMap, Interner, QueryId, QuerySeq};

/// Aggregated sessions: each distinct query sequence with its frequency.
#[derive(Clone, Debug, Default)]
pub struct Aggregated {
    /// `(sequence, frequency)` pairs, sorted by descending frequency then by
    /// sequence for full determinism.
    pub sessions: Vec<(QuerySeq, u64)>,
}

impl Aggregated {
    /// Total session mass (sum of frequencies).
    pub fn total_sessions(&self) -> u64 {
        self.sessions.iter().map(|(_, f)| f).sum()
    }

    /// Number of distinct aggregated sessions.
    pub fn unique_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Total searches (queries weighted by frequency).
    pub fn total_searches(&self) -> u64 {
        self.sessions.iter().map(|(s, f)| s.len() as u64 * f).sum()
    }

    /// Distinct query ids appearing anywhere.
    pub fn unique_queries(&self) -> usize {
        let mut set: sqp_common::FxHashSet<QueryId> = Default::default();
        for (s, _) in &self.sessions {
            set.extend(s.iter().copied());
        }
        set.len()
    }

    /// Frequencies of each session length (weighted histogram).
    pub fn length_histogram(&self) -> sqp_common::Histogram {
        let mut h = sqp_common::Histogram::new();
        for (s, f) in &self.sessions {
            h.add(s.len() as u64, *f);
        }
        h
    }

    /// The frequency spectrum for the power-law analysis (Fig 6):
    /// `(rank, frequency)` with rank 1 = most frequent aggregated session.
    pub fn rank_frequency(&self) -> Vec<(f64, f64)> {
        // `sessions` is sorted by descending frequency already.
        self.sessions
            .iter()
            .enumerate()
            .map(|(i, (_, f))| ((i + 1) as f64, *f as f64))
            .collect()
    }

    /// Build from pre-interned weighted sequences (used by tests and by the
    /// reduction step).
    pub fn from_weighted(mut sessions: Vec<(QuerySeq, u64)>) -> Self {
        sessions.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Aggregated { sessions }
    }
}

/// Intern and aggregate segmented sessions.
///
/// `interner` may already hold queries (a test epoch aggregated after its
/// training epoch); queries new to it get the next ids in first-seen order.
pub fn aggregate(sessions: &Segmented, interner: &mut Interner) -> Aggregated {
    const UNSEEN: u32 = u32::MAX;
    let mut final_id = vec![UNSEEN; sessions.table.len()];
    let ids: Vec<QueryId> = sessions
        .ids
        .iter()
        .map(|&provisional| {
            let slot = &mut final_id[provisional.index()];
            if *slot == UNSEEN {
                *slot = interner.intern(sessions.table.resolve(provisional)).0;
            }
            QueryId(*slot)
        })
        .collect();

    let mut counts: FxHashMap<&[QueryId], u64> = FxHashMap::default();
    for i in 0..sessions.len() {
        *counts.entry(&ids[sessions.span(i)]).or_insert(0) += 1;
    }
    Aggregated::from_weighted(
        counts
            .into_iter()
            .map(|(seq, freq)| (QuerySeq::from(seq), freq))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_default;
    use crate::segment::tests::rec;

    /// One session per entry: machine `i + 1` issues `queries` a second
    /// apart.
    fn sessions(each: &[&[&str]]) -> Segmented {
        let records: Vec<_> = each
            .iter()
            .enumerate()
            .flat_map(|(machine, queries)| {
                queries
                    .iter()
                    .enumerate()
                    .map(move |(t, q)| rec(machine as u64 + 1, t as u64, q))
            })
            .collect();
        let segmented = segment_default(&records);
        assert_eq!(segmented.len(), each.len());
        segmented
    }

    #[test]
    fn identical_sessions_merge() {
        let sessions = sessions(&[&["a", "b"], &["a", "b"], &["a", "c"]]);
        let mut interner = Interner::new();
        let agg = aggregate(&sessions, &mut interner);
        assert_eq!(agg.unique_sessions(), 2);
        assert_eq!(agg.total_sessions(), 3);
        assert_eq!(agg.sessions[0].1, 2); // most frequent first
        assert_eq!(interner.len(), 3);
    }

    #[test]
    fn mass_is_preserved() {
        let each: Vec<&[&str]> = (0..40)
            .map(|i| [&["x"][..], &["y"], &["z"]][i % 3])
            .collect();
        let mut interner = Interner::new();
        let agg = aggregate(&sessions(&each), &mut interner);
        assert_eq!(agg.total_sessions(), 40);
        assert_eq!(agg.total_searches(), 40);
    }

    #[test]
    fn searches_weighted_by_length_and_freq() {
        let sessions = sessions(&[&["a", "b", "c"], &["a", "b", "c"], &["d"]]);
        let mut interner = Interner::new();
        let agg = aggregate(&sessions, &mut interner);
        assert_eq!(agg.total_searches(), 7);
        assert_eq!(agg.unique_queries(), 4);
    }

    #[test]
    fn length_histogram_weighted() {
        let sessions = sessions(&[&["a", "b"], &["a", "b"], &["c"]]);
        let mut interner = Interner::new();
        let agg = aggregate(&sessions, &mut interner);
        let h = agg.length_histogram();
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(1), 1);
    }

    #[test]
    fn rank_frequency_is_descending() {
        let sessions = sessions(&[&["a"], &["a"], &["a"], &["b"], &["c"]]);
        let mut interner = Interner::new();
        let agg = aggregate(&sessions, &mut interner);
        let rf = agg.rank_frequency();
        assert_eq!(rf[0], (1.0, 3.0));
        for w in rf.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_ordering_breaks_frequency_ties() {
        let sessions = sessions(&[&["b"], &["a"]]);
        let mut interner = Interner::new();
        let agg = aggregate(&sessions, &mut interner);
        // Both have frequency 1; order must be stable by sequence.
        assert_eq!(agg.sessions.len(), 2);
        assert!(agg.sessions[0].0 < agg.sessions[1].0);
    }

    #[test]
    fn ids_follow_session_order_not_input_order() {
        // Machine 9's record comes first in the log, machine 2's session
        // comes first in (machine, start time) order — and so do its ids.
        let records = [rec(9, 0, "late"), rec(2, 5, "early"), rec(2, 6, "late")];
        let mut interner = Interner::new();
        interner.intern("already there");
        aggregate(&segment_default(&records), &mut interner);
        let texts: Vec<&str> = interner.iter().map(|(_, t)| t).collect();
        assert_eq!(texts, ["already there", "early", "late"]);
    }

    #[test]
    fn empty_input() {
        let mut interner = Interner::new();
        let agg = aggregate(&segment_default(&[]), &mut interner);
        assert_eq!(agg.unique_sessions(), 0);
        assert_eq!(agg.total_sessions(), 0);
    }
}
