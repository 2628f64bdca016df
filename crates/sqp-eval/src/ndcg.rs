//! NDCG — Eq. (11) of the paper.
//!
//! `N(n) = Z_n Σ_{j=1..n} (2^{r(j)} − 1) / log(1 + j)` with **log base 10**
//! (footnote 2) and positional ratings {5,4,3,2,1} for the top-5 ground-truth
//! continuations; queries outside the top 5 rate 0. `Z_n` normalizes the
//! perfect ranking to 1.

use sqp_common::QueryId;

/// Rating of the ground-truth continuation at 0-based position `pos`:
/// 5, 4, 3, 2, 1, then 0.
pub(crate) fn position_rating(pos: usize) -> u32 {
    (5usize.saturating_sub(pos)) as u32
}

fn gain(rating: u32) -> f64 {
    (2f64.powi(rating as i32)) - 1.0
}

fn discount(j_one_based: usize) -> f64 {
    ((1 + j_one_based) as f64).log10()
}

/// Discounted cumulative gain of a rating list at cutoff `n`.
pub fn dcg(ratings: &[u32], n: usize) -> f64 {
    ratings
        .iter()
        .take(n)
        .enumerate()
        .map(|(idx, &r)| gain(r) / discount(idx + 1))
        .sum()
}

/// NDCG@n of `predicted` against the ground-truth `top` list
/// (`(query, frequency)` pairs, best first, at most 5 long).
///
/// Returns 0 when `predicted` is empty or shares nothing with the truth.
pub fn ndcg_at(predicted: &[QueryId], top: &[(QueryId, u64)], n: usize) -> f64 {
    if n == 0 || top.is_empty() {
        return 0.0;
    }
    // Rating assigned by truth position.
    let rating_of = |q: QueryId| -> u32 {
        top.iter()
            .position(|&(t, _)| t == q)
            .map(position_rating)
            .unwrap_or(0)
    };
    let ratings: Vec<u32> = predicted.iter().map(|&q| rating_of(q)).collect();
    let actual = dcg(&ratings, n);
    if actual == 0.0 {
        return 0.0;
    }
    // Ideal: the truth's own ratings in order (5,4,3,… truncated to the
    // number of true continuations).
    let ideal_ratings: Vec<u32> = (0..top.len()).map(position_rating).collect();
    let ideal = dcg(&ideal_ratings, n);
    if ideal == 0.0 {
        return 0.0;
    }
    (actual / ideal).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::QueryId;

    fn q(i: u32) -> QueryId {
        QueryId(i)
    }

    fn truth() -> Vec<(QueryId, u64)> {
        vec![
            (q(10), 50),
            (q(11), 40),
            (q(12), 30),
            (q(13), 20),
            (q(14), 10),
        ]
    }

    #[test]
    fn perfect_ranking_scores_one() {
        let predicted = vec![q(10), q(11), q(12), q(13), q(14)];
        for n in [1, 3, 5] {
            let s = ndcg_at(&predicted, &truth(), n);
            assert!((s - 1.0).abs() < 1e-12, "NDCG@{n} = {s}");
        }
    }

    #[test]
    fn empty_or_disjoint_prediction_scores_zero() {
        assert_eq!(ndcg_at(&[], &truth(), 5), 0.0);
        assert_eq!(ndcg_at(&[q(99), q(98)], &truth(), 5), 0.0);
        assert_eq!(ndcg_at(&[q(10)], &[], 5), 0.0);
    }

    #[test]
    fn top_one_right_beats_top_one_wrong() {
        let good = ndcg_at(&[q(10), q(99)], &truth(), 3);
        let bad = ndcg_at(&[q(99), q(10)], &truth(), 3);
        assert!(good > bad);
        assert!(bad > 0.0);
    }

    #[test]
    fn ndcg_at_one_is_binaryish() {
        // Predicting the best truth query first gives exactly 1.
        assert!((ndcg_at(&[q(10)], &truth(), 1) - 1.0).abs() < 1e-12);
        // Predicting the second-best truth query first gives
        // (2^4-1)/(2^5-1) = 15/31.
        let s = ndcg_at(&[q(11)], &truth(), 1);
        assert!((s - 15.0 / 31.0).abs() < 1e-12);
    }

    #[test]
    fn log10_discount_is_used() {
        // DCG of ratings [0, 5] at n=2: (2^5-1)/log10(3) = 31/0.4771…
        let d = dcg(&[0, 5], 2);
        assert!((d - 31.0 / (3f64).log10()).abs() < 1e-9);
    }

    #[test]
    fn shorter_truth_normalizes_over_itself() {
        // Only two true continuations: the perfect 2-item ranking is 1.
        let t = vec![(q(1), 9u64), (q(2), 1)];
        let s = ndcg_at(&[q(1), q(2)], &t, 5);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swapping_adjacent_items_lowers_score() {
        let base = ndcg_at(&[q(10), q(11), q(12)], &truth(), 3);
        let swapped = ndcg_at(&[q(11), q(10), q(12)], &truth(), 3);
        assert!(base > swapped);
    }

    #[test]
    fn rating_positions() {
        assert_eq!(position_rating(0), 5);
        assert_eq!(position_rating(4), 1);
        assert_eq!(position_rating(5), 0);
        assert_eq!(position_rating(99), 0);
    }

    #[test]
    fn score_monotone_in_cutoff_for_prefix_hits() {
        // Prediction hits positions 1 and 3 of the truth.
        let p = vec![q(10), q(99), q(12)];
        let s1 = ndcg_at(&p, &truth(), 1);
        let s3 = ndcg_at(&p, &truth(), 3);
        assert!((s1 - 1.0).abs() < 1e-12);
        assert!(s3 < 1.0 && s3 > 0.0);
    }

    #[test]
    fn never_exceeds_one() {
        // Model ranks better than the (frequency-tied) truth order — clamp.
        let t = vec![(q(1), 10u64), (q(2), 10)];
        let s = ndcg_at(&[q(2), q(1)], &t, 5);
        assert!(s <= 1.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use sqp_common::rng::{Rng, StdRng};
    use sqp_common::QueryId;

    /// Distinct queries with strictly decreasing frequencies.
    fn arb_truth(rng: &mut StdRng) -> Vec<(QueryId, u64)> {
        let n = rng.random_range(1usize..6);
        let ids: std::collections::BTreeSet<u32> =
            (0..n).map(|_| rng.random_range(0u32..20)).collect();
        ids.into_iter()
            .enumerate()
            .map(|(i, q)| (QueryId(q), 100 - i as u64))
            .collect()
    }

    #[test]
    fn ndcg_is_bounded() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let truth = arb_truth(&mut rng);
            let len = rng.random_range(0usize..8);
            let predicted: Vec<QueryId> = (0..len)
                .map(|_| QueryId(rng.random_range(0u32..25)))
                .collect();
            let n = rng.random_range(1usize..6);
            let s = ndcg_at(&predicted, &truth, n);
            assert!((0.0..=1.0).contains(&s), "case {case}: ndcg = {s}");
        }
    }

    #[test]
    fn predicting_the_truth_exactly_scores_one() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(200 + case);
            let truth = arb_truth(&mut rng);
            let n = rng.random_range(1usize..6);
            let predicted: Vec<QueryId> = truth.iter().map(|&(q, _)| q).collect();
            let s = ndcg_at(&predicted, &truth, n);
            assert!((s - 1.0).abs() < 1e-9, "case {case}: ndcg = {s}");
        }
    }

    #[test]
    fn irrelevant_prefix_never_helps() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(400 + case);
            let truth = arb_truth(&mut rng);
            let n = rng.random_range(1usize..6);
            // Prepending a miss before the perfect ranking cannot raise NDCG.
            let perfect: Vec<QueryId> = truth.iter().map(|&(q, _)| q).collect();
            let mut worse = vec![QueryId(999)];
            worse.extend(perfect.iter().copied());
            let s_perfect = ndcg_at(&perfect, &truth, n);
            let s_worse = ndcg_at(&worse, &truth, n);
            assert!(s_worse <= s_perfect + 1e-12, "case {case}");
        }
    }
}
