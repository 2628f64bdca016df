//! Training-time measurement — Figure 12 of the paper.
//!
//! Each method is trained on growing fractions of the corpus; the paper's
//! claim is linear scaling for every method, with MVMM roughly K× a single
//! VMM (mitigated by parallel component training).

use sqp_common::QuerySeq;
use sqp_core::ModelSpec;
use std::time::{Duration, Instant};

/// One sweep row: a corpus fraction and the wall-clock time per method.
#[derive(Clone, Debug)]
pub struct TimingRow {
    /// Fraction of the corpus used.
    pub fraction: f64,
    /// Distinct aggregated sessions in the slice.
    pub unique_sessions: usize,
    /// Session mass in the slice.
    pub session_mass: u64,
    /// `(label, wall time)` per method.
    pub times: Vec<(String, Duration)>,
}

/// Deterministic stride subsample keeping the corpus shape: takes every
/// `1/fraction`-th aggregated session. On a frequency-sorted list — what
/// `sqp_sessions::process` returns — a stride keeps head and tail
/// proportionally; on first-seen order it is a stride through the log.
pub fn subsample(sessions: &[(QuerySeq, u64)], fraction: f64) -> Vec<(QuerySeq, u64)> {
    assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
    if fraction >= 1.0 {
        return sessions.to_vec();
    }
    if fraction <= 0.0 || sessions.is_empty() {
        return Vec::new();
    }
    let want = ((sessions.len() as f64) * fraction).round().max(1.0) as usize;
    let mut out = Vec::with_capacity(want);
    let mut acc = 0f64;
    for s in sessions {
        acc += fraction;
        if acc >= 1.0 {
            acc -= 1.0;
            out.push(s.clone());
        }
    }
    if out.is_empty() {
        out.push(sessions[0].clone());
    }
    out
}

/// Train every spec on every fraction, measuring wall time.
pub fn training_time_sweep(
    sessions: &[(QuerySeq, u64)],
    fractions: &[f64],
    specs: &[ModelSpec],
) -> Vec<TimingRow> {
    let mut rows = Vec::with_capacity(fractions.len());
    for &f in fractions {
        let slice = subsample(sessions, f);
        let mass = slice.iter().map(|(_, c)| c).sum();
        let mut times = Vec::with_capacity(specs.len());
        for spec in specs {
            let start = Instant::now();
            let model = spec.train(&slice);
            let elapsed = start.elapsed();
            std::hint::black_box(&model);
            times.push((spec.label(), elapsed));
        }
        rows.push(TimingRow {
            fraction: f,
            unique_sessions: slice.len(),
            session_mass: mass,
            times,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::seq;

    fn corpus(n: usize) -> Vec<(QuerySeq, u64)> {
        // Unique sequences (the aggregation invariant) so order checks are
        // well-defined.
        (0..n as u32)
            .map(|i| (seq(&[i, (i + 1) % 50, (i * 7) % 50]), 1 + (i as u64 % 5)))
            .collect()
    }

    #[test]
    fn subsample_sizes() {
        let c = corpus(100);
        assert_eq!(subsample(&c, 1.0).len(), 100);
        let half = subsample(&c, 0.5);
        assert!((45..=55).contains(&half.len()), "half = {}", half.len());
        let tiny = subsample(&c, 0.01);
        assert!(!tiny.is_empty());
        assert!(subsample(&c, 0.0).is_empty());
    }

    #[test]
    fn subsample_is_deterministic_and_ordered() {
        let c = corpus(60);
        let a = subsample(&c, 0.3);
        let b = subsample(&c, 0.3);
        assert_eq!(a, b);
        // A subsample of a subsample-compatible fraction keeps corpus order.
        let positions: Vec<usize> = a
            .iter()
            .map(|x| c.iter().position(|y| y == x).unwrap())
            .collect();
        for w in positions.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn sweep_produces_rows_for_all_fractions() {
        let c = corpus(200);
        let specs = vec![ModelSpec::Adjacency, ModelSpec::NGram];
        let rows = training_time_sweep(&c, &[0.5, 1.0], &specs);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.times.len(), 2);
            assert!(row.unique_sessions > 0);
        }
        assert!(rows[0].unique_sessions < rows[1].unique_sessions);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn rejects_out_of_range_fraction() {
        subsample(&corpus(10), 1.5);
    }
}
