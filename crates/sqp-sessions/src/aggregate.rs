//! Session aggregation — the paper's §V-A.3.
//!
//! *"After session segmentation, identical sessions from different users are
//! aggregated."* Final [`QueryId`]s are assigned here, so everything
//! downstream works on dense ids.
//!
//! [`Segmented`] already holds every session as a span of provisional ids,
//! and equal provisional sequences are equal queries, so sessions are
//! deduplicated as borrowed slices of that buffer before any final id
//! exists. The sessions are cut into contiguous ranges of about equal record
//! count, and each range is deduplicated on a thread of its own, keeping its
//! distinct sessions in first-seen order. Then, serially and in range
//! order, each later range's new sessions follow the first range's, and
//! each query gets its final id — one `intern` per *distinct* query, in
//! first-seen order over sessions sorted by (machine id, start time).
//! Neither the ids nor the order depend on how many ranges there were. Only
//! the distinct sessions are copied out, with their final ids, on every
//! core; nothing is sorted, because no model depends on the order of its
//! sessions (see [`Aggregated::sort_by_frequency`] for the consumers that
//! present a ranking).

use crate::segment::Segmented;
use sqp_common::threads::{self, map_on_threads};
use sqp_common::{FxHashMap, Interner, QueryId, QuerySeq};
use std::collections::hash_map::Entry;
use std::ops::Range;

/// Aggregated sessions: each distinct query sequence with its frequency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Aggregated {
    /// `(sequence, frequency)` pairs. [`aggregate`] leaves them in
    /// first-seen order, [`Aggregated::sort_by_frequency`] by descending
    /// frequency then by sequence.
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

    /// Frequencies of each session length (weighted histogram).
    pub(crate) fn length_histogram(&self) -> sqp_common::Histogram {
        let mut h = sqp_common::Histogram::new();
        for (s, f) in &self.sessions {
            h.add(s.len() as u64, *f);
        }
        h
    }

    /// The frequency spectrum for the power-law analysis (Fig 6):
    /// `(rank, frequency)` with rank 1 = most frequent aggregated session,
    /// whatever order `sessions` is in.
    pub fn rank_frequency(&self) -> Vec<(f64, f64)> {
        let mut frequencies: Vec<u64> = self.sessions.iter().map(|(_, f)| *f).collect();
        frequencies.sort_unstable_by(|a, b| b.cmp(a));
        frequencies
            .into_iter()
            .enumerate()
            .map(|(i, f)| ((i + 1) as f64, f as f64))
            .collect()
    }

    /// Order the sessions by descending frequency, ties by sequence — the
    /// ranking the paper's figures and the user study present.
    pub fn sort_by_frequency(&mut self) {
        self.sessions
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    }

    /// Build from pre-interned weighted sequences (used by tests), ordered
    /// by [`Aggregated::sort_by_frequency`].
    pub fn from_weighted(sessions: Vec<(QuerySeq, u64)>) -> Self {
        let mut aggregated = Aggregated { sessions };
        aggregated.sort_by_frequency();
        aggregated
    }
}

/// Fewest sessions an aggregation range is worth a thread for: at ≈ 50 ns a
/// session (one slice hash and probe) this is ≈ 0.8 ms of work against a
/// thread start of tens of µs.
const MIN_SESSIONS_PER_PART: usize = 1 << 14;

/// Intern and aggregate segmented sessions, in first-seen order.
///
/// `interner` may already hold queries (a test epoch aggregated after its
/// training epoch); queries new to it get the next ids in first-seen order.
pub fn aggregate(sessions: &Segmented, interner: &mut Interner) -> Aggregated {
    aggregate_in_parts(sessions, interner, None)
}

/// [`aggregate`] over `parts` ranges — `None` picks as many as the host and
/// [`MIN_SESSIONS_PER_PART`] allow. The result does not depend on the
/// number: tests force it.
pub(crate) fn aggregate_in_parts(
    sessions: &Segmented,
    interner: &mut Interner,
    parts: Option<usize>,
) -> Aggregated {
    let parts = parts.unwrap_or_else(|| threads::parts(sessions.len(), MIN_SESSIONS_PER_PART));
    // Contiguous session ranges of about equal record count.
    let mut bounds = vec![0];
    bounds.extend((1..parts).map(|p| {
        let goal = sessions.ids.len() * p / parts;
        sessions
            .spans
            .partition_point(|s| (s.start as usize) < goal)
    }));
    bounds.push(sessions.len());
    let ranges: Vec<Range<usize>> = bounds.windows(2).map(|b| b[0]..b[1]).collect();
    let deduped = map_on_threads(&ranges, |range| Deduped::of(sessions, range.clone()));

    // Range by range, each distinct session is counted where an earlier
    // range first saw it, or follows every session seen before it.
    let mut merged: Vec<(&[QueryId], u64)> = Vec::new();
    // `at[p][i]`: where range p's i-th distinct session sits in `merged`.
    let mut at: Vec<Vec<usize>> = Vec::with_capacity(deduped.len());
    for (p, part) in deduped.iter().enumerate() {
        let mine = part
            .sessions
            .iter()
            .map(|&(session, freq)| {
                let seen = deduped[..p]
                    .iter()
                    .zip(&at)
                    .find_map(|(earlier, at)| earlier.index.get(session).map(|&i| at[i]));
                match seen {
                    Some(i) => merged[i].1 += freq,
                    None => merged.push((session, freq)),
                }
                seen.unwrap_or(merged.len() - 1)
            })
            .collect();
        at.push(mine);
    }
    // Final ids in first-seen order. A query is first seen in the first
    // occurrence of some session, so the distinct sessions, in order, meet
    // every query where the whole log first does.
    const UNSEEN: u32 = u32::MAX;
    let mut final_id = vec![UNSEEN; sessions.table.len()];
    interner.reserve(sessions.table.len());
    for &provisional in merged.iter().flat_map(|(session, _)| session.iter()) {
        let slot = &mut final_id[provisional.index()];
        if *slot == UNSEEN {
            *slot = interner.intern(sessions.table.resolve(provisional)).0;
        }
    }
    // Copy each distinct session out with its final ids.
    let chunks: Vec<_> = merged.chunks(merged.len().div_ceil(parts).max(1)).collect();
    let boxed = map_on_threads(&chunks, |chunk| {
        let remap = |q: &QueryId| QueryId(final_id[q.index()]);
        let boxed: Vec<(QuerySeq, u64)> = chunk
            .iter()
            .map(|&(session, freq)| (session.iter().map(remap).collect(), freq))
            .collect();
        boxed
    });
    let mut aggregated = Aggregated {
        sessions: Vec::with_capacity(merged.len()),
    };
    for chunk in boxed {
        aggregated.sessions.extend(chunk);
    }
    aggregated
}

/// One range's distinct sessions, as provisional-id slices.
#[derive(Default)]
struct Deduped<'a> {
    /// Distinct sessions in first-seen order, with their counts.
    sessions: Vec<(&'a [QueryId], u64)>,
    /// Where each distinct session sits in `sessions`.
    index: FxHashMap<&'a [QueryId], usize>,
}

impl<'a> Deduped<'a> {
    fn of(sessions: &'a Segmented, range: Range<usize>) -> Self {
        let mut part = Deduped::default();
        for i in range {
            let session = &sessions.ids[sessions.span(i)];
            match part.index.entry(session) {
                Entry::Occupied(at) => part.sessions[*at.get()].1 += 1,
                Entry::Vacant(at) => {
                    at.insert(part.sessions.len());
                    part.sessions.push((session, 1));
                }
            }
        }
        part
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::segment_default;
    use crate::segment::tests::rec;
    use sqp_common::seq;

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
        assert_eq!(agg.sessions[0].1, 2); // first seen first
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
    fn rank_frequency_ranks_any_order() {
        let unsorted = Aggregated {
            sessions: vec![
                (seq(&[0]), 1),
                (seq(&[1]), 5),
                (seq(&[2]), 3),
                (seq(&[3]), 5),
            ],
        };
        assert_eq!(
            unsorted.rank_frequency(),
            [(1.0, 5.0), (2.0, 5.0), (3.0, 3.0), (4.0, 1.0)]
        );
    }

    #[test]
    fn deterministic_ordering_breaks_frequency_ties() {
        // Machine 1's "c" is seen before machine 2's "b" and machine 3's
        // "a"; "c" and "a" tie at frequency 1.
        let sessions = sessions(&[&["c"], &["b"], &["a"], &["b"]]);
        let mut interner = Interner::new();
        let mut agg = aggregate(&sessions, &mut interner);
        assert_eq!(
            agg.sessions,
            [(seq(&[0]), 1), (seq(&[1]), 2), (seq(&[2]), 1)]
        );
        // By frequency, then by sequence on a tie.
        agg.sort_by_frequency();
        assert_eq!(
            agg.sessions,
            [(seq(&[1]), 2), (seq(&[0]), 1), (seq(&[2]), 1)]
        );
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
