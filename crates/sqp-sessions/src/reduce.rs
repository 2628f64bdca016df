//! Data reduction — the paper's §V-A.4.
//!
//! *"We observe a large number of aggregated sessions (40%) with frequency
//! less than or equal to 5. These are most likely rare (one-time) and/or
//! erroneous sessions, which can be safely discarded."* After reduction,
//! 60.48% of the paper's training data and 64.72% of its test data remained.

use crate::aggregate::Aggregated;

/// What reduction removed and kept, for the Figure 7 report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReductionReport {
    /// Distinct aggregated sessions kept.
    pub(crate) kept_unique: usize,
    /// Distinct aggregated sessions dropped.
    pub(crate) dropped_unique: usize,
    /// Session mass kept (sum of frequencies).
    pub(crate) kept_mass: u64,
    /// Session mass dropped.
    pub(crate) dropped_mass: u64,
}

impl ReductionReport {
    /// The reduction rule, stated once: a session of frequency `freq` is
    /// kept iff `freq > threshold`. Records the session as kept or dropped
    /// and returns whether it is kept.
    fn keeps(&mut self, freq: u64, threshold: u64) -> bool {
        let kept = freq > threshold;
        if kept {
            self.kept_unique += 1;
            self.kept_mass += freq;
        } else {
            self.dropped_unique += 1;
            self.dropped_mass += freq;
        }
        kept
    }

    /// Fraction of session mass retained — the paper's "60.48% remained".
    pub fn retention(&self) -> f64 {
        let total = self.kept_mass + self.dropped_mass;
        if total == 0 {
            return 1.0;
        }
        self.kept_mass as f64 / total as f64
    }

    /// Fraction of *distinct* aggregated sessions dropped — the paper's
    /// "40% with frequency ≤ 5".
    pub fn dropped_unique_fraction(&self) -> f64 {
        let total = self.kept_unique + self.dropped_unique;
        if total == 0 {
            return 0.0;
        }
        self.dropped_unique as f64 / total as f64
    }
}

/// Drop aggregated sessions with frequency ≤ `threshold`; the kept ones
/// stay in `agg`'s order.
///
/// Returns the reduced corpus and a report, and leaves `agg` whole for a
/// caller that still needs it. `threshold = 0` keeps everything.
pub fn reduce(agg: &Aggregated, threshold: u64) -> (Aggregated, ReductionReport) {
    let mut report = ReductionReport::default();
    let sessions = agg
        .sessions
        .iter()
        .filter(|(_, freq)| report.keeps(*freq, threshold))
        .cloned()
        .collect();
    (Aggregated { sessions }, report)
}

/// [`reduce`] in place: the kept sessions stay where they are instead of
/// being cloned into a second corpus.
pub fn reduce_in_place(agg: &mut Aggregated, threshold: u64) -> ReductionReport {
    let mut report = ReductionReport::default();
    agg.sessions
        .retain(|(_, freq)| report.keeps(*freq, threshold));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    fn corpus() -> Aggregated {
        Aggregated::from_weighted(vec![
            (seq(&[0, 1]), 10),
            (seq(&[0, 2]), 6),
            (seq(&[1, 2]), 5),
            (seq(&[3]), 1),
        ])
    }

    #[test]
    fn drops_at_or_below_threshold() {
        let (reduced, report) = reduce(&corpus(), 5);
        assert_eq!(reduced.unique_sessions(), 2);
        assert_eq!(report.kept_unique, 2);
        assert_eq!(report.dropped_unique, 2);
        assert_eq!(report.kept_mass, 16);
        assert_eq!(report.dropped_mass, 6);
        assert!((report.retention() - 16.0 / 22.0).abs() < 1e-12);
        assert!((report.dropped_unique_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn threshold_zero_keeps_everything() {
        let (reduced, report) = reduce(&corpus(), 0);
        assert_eq!(reduced.unique_sessions(), 4);
        assert_eq!(report.dropped_mass, 0);
        assert_eq!(report.retention(), 1.0);
    }

    #[test]
    fn threshold_above_max_drops_everything() {
        let (reduced, report) = reduce(&corpus(), 100);
        assert_eq!(reduced.unique_sessions(), 0);
        assert_eq!(report.kept_mass, 0);
        assert_eq!(report.retention(), 0.0);
    }

    #[test]
    fn empty_corpus() {
        let (reduced, report) = reduce(&Aggregated::default(), 5);
        assert_eq!(reduced.unique_sessions(), 0);
        assert_eq!(report.retention(), 1.0);
        assert_eq!(report.dropped_unique_fraction(), 0.0);
    }

    #[test]
    fn order_preserved_after_reduction() {
        let (reduced, _) = reduce(&corpus(), 1);
        let freqs: Vec<u64> = reduced.sessions.iter().map(|(_, f)| *f).collect();
        assert_eq!(freqs, vec![10, 6, 5]);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use sqp_common::rng::{Rng, StdRng};
    use sqp_common::QueryId;

    #[test]
    fn mass_partition_and_monotonicity() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            // Dedup sequences to form a valid aggregate.
            let mut map = std::collections::HashMap::new();
            for _ in 0..rng.random_range(0usize..40) {
                let len = rng.random_range(1usize..4);
                let key: sqp_common::QuerySeq = (0..len)
                    .map(|_| QueryId(rng.random_range(0u32..8)))
                    .collect();
                *map.entry(key).or_insert(0u64) += rng.random_range(1u64..20);
            }
            let agg = Aggregated::from_weighted(map.into_iter().collect());
            let total = agg.total_sessions();
            let t1 = rng.random_range(0u64..10);
            let t2 = rng.random_range(0u64..10);

            let (ra, rep_a) = reduce(&agg, t1);
            assert_eq!(rep_a.kept_mass + rep_a.dropped_mass, total, "case {case}");
            assert_eq!(ra.total_sessions(), rep_a.kept_mass, "case {case}");

            // In place keeps the same sessions, in the same order.
            let mut in_place = agg.clone();
            assert_eq!(reduce_in_place(&mut in_place, t1), rep_a, "case {case}");
            assert_eq!(in_place.sessions, ra.sessions, "case {case}");

            // Monotonicity: a higher threshold never keeps more mass.
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let (_, rep_lo) = reduce(&agg, lo);
            let (_, rep_hi) = reduce(&agg, hi);
            assert!(rep_hi.kept_mass <= rep_lo.kept_mass, "case {case}");
            assert!(rep_hi.kept_unique <= rep_lo.kept_unique, "case {case}");
        }
    }
}
