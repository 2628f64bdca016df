//! Rule-based session-pattern classifier — regenerates the paper's Figure 1.
//!
//! The paper had 30 human labelers classify 20,000 sessions into seven
//! pattern types. This module is the mechanical stand-in: transitions are
//! classified from query text (term structure, edit distance), with the
//! vocabulary's surface→topic map standing in for the labelers' world
//! knowledge (how else would anyone know "BAMC" means "Brooke Army Medical
//! Center"?). The generator's ground-truth labels let us *measure* this
//! classifier's agreement instead of assuming it.

use sqp_logsim::{PatternType, Vocabulary};

fn words(s: &str) -> Vec<&str> {
    s.split_whitespace().collect()
}

/// True when `b`'s word sequence strictly extends `a`'s (term prefix), e.g.
/// "o2" → "o2 mobile".
fn is_term_extension(a: &str, b: &str) -> bool {
    let (wa, wb) = (words(a), words(b));
    wb.len() > wa.len() && wb[..wa.len()] == wa[..]
}

/// Relaxed containment: every word of `a` appears in `b` (used for
/// generalizations like "washington mutual home loans" → "home loans").
fn is_word_subset(a: &str, b: &str) -> bool {
    let wb: std::collections::HashSet<&str> = words(b).into_iter().collect();
    let wa = words(a);
    !wa.is_empty() && wa.len() < words(b).len() + 1 && wa.iter().all(|w| wb.contains(w))
}

/// True when `a` and `b` look like sibling concepts: equal word counts with a
/// common prefix and a different final word ("smtp" vs "pop3" style siblings
/// in our tree always share their full parent path).
fn is_sibling_shape(a: &str, b: &str) -> bool {
    let (wa, wb) = (words(a), words(b));
    wa.len() == wb.len()
        && wa.len() >= 2
        && wa[..wa.len() - 1] == wb[..wb.len() - 1]
        && wa[wa.len() - 1] != wb[wb.len() - 1]
}

/// Classify a single transition `a ⇒ b`.
///
/// `vocab` supplies world knowledge (synonym/topic identity). Pass `None` to
/// classify from text alone, as an external user of the library would.
pub(crate) fn classify_transition(a: &str, b: &str, vocab: Option<&Vocabulary>) -> PatternType {
    if a == b {
        return PatternType::RepeatedQuery;
    }

    // World knowledge first: same topic, different surface = synonym swap.
    if let Some(v) = vocab {
        if let (Some(ta), Some(tb)) = (v.topic_of_surface(a), v.topic_of_surface(b)) {
            if ta == tb {
                return PatternType::SynonymSubstitution;
            }
            if v.parent(tb) == Some(ta) {
                return PatternType::Specialization;
            }
            if v.parent(ta) == Some(tb) {
                return PatternType::Generalization;
            }
            if v.parent(ta).is_some() && v.parent(ta) == v.parent(tb) {
                return PatternType::ParallelMovement;
            }
        }
        // Typo + fix: source is not a known surface but lands within a small
        // edit of a known one.
        if v.topic_of_surface(a).is_none()
            && v.topic_of_surface(b).is_some()
            && sqp_common::dist::levenshtein_str(a, b) <= 2
        {
            return PatternType::SpellingChange;
        }
    }

    // Text-only structure.
    if is_term_extension(a, b) {
        return PatternType::Specialization;
    }
    if is_term_extension(b, a) {
        return PatternType::Generalization;
    }
    if is_sibling_shape(a, b) {
        return PatternType::ParallelMovement;
    }
    if sqp_common::dist::levenshtein_str(a, b) <= 2 {
        return PatternType::SpellingChange;
    }
    if is_word_subset(b, a) {
        return PatternType::Generalization;
    }
    if is_word_subset(a, b) {
        return PatternType::Specialization;
    }
    PatternType::Other
}

/// Classify a session by its first transition (the convention shared with
/// [`sqp_logsim::GeneratedSession::dominant_label`]); `None` for single-query
/// sessions.
pub fn classify_session(queries: &[String], vocab: Option<&Vocabulary>) -> Option<PatternType> {
    if queries.len() < 2 {
        return None;
    }
    Some(classify_transition(&queries[0], &queries[1], vocab))
}

/// Distribution of session patterns over a corpus, in [`PatternType::ALL`]
/// order; single-query sessions are skipped (the paper's Figure 1 covers
/// multi-query sessions).
pub fn pattern_distribution<'a, I>(sessions: I, vocab: Option<&Vocabulary>) -> [u64; 7]
where
    I: IntoIterator<Item = &'a [String]>,
{
    let mut counts = [0u64; 7];
    for queries in sessions {
        if let Some(p) = classify_session(queries, vocab) {
            counts[p.index()] += 1;
        }
    }
    counts
}

/// Fraction of classified sessions that are order-sensitive (the paper's
/// 34.34%).
pub fn order_sensitive_fraction(counts: &[u64; 7]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let sensitive: u64 = PatternType::ALL
        .iter()
        .filter(|p| p.is_order_sensitive())
        .map(|p| counts[p.index()])
        .sum();
    sensitive as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(a: &str, b: &str) -> PatternType {
        classify_transition(a, b, None)
    }

    #[test]
    fn paper_table_one_examples() {
        // Table I of the paper, classified from text alone.
        assert_eq!(c("goggle", "google"), PatternType::SpellingChange);
        assert_eq!(
            c("washington mutual home loans", "home loans"),
            PatternType::Generalization
        );
        assert_eq!(c("o2", "o2 mobile"), PatternType::Specialization);
        assert_eq!(
            c("o2 mobile", "o2 mobile phones"),
            PatternType::Specialization
        );
        assert_eq!(c("myspace", "myspace"), PatternType::RepeatedQuery);
        assert_eq!(c("muzzle brake", "shared calenders"), PatternType::Other);
    }

    #[test]
    fn sibling_shape_is_parallel_movement() {
        assert_eq!(
            c("nokia n73 themes", "nokia n73 games"),
            PatternType::ParallelMovement
        );
    }

    #[test]
    fn single_word_unrelated_is_other() {
        assert_eq!(c("aim", "myspace"), PatternType::Other);
    }

    #[test]
    fn close_single_words_are_spelling() {
        assert_eq!(c("youtub", "youtube"), PatternType::SpellingChange);
    }

    #[test]
    fn word_subset_fallbacks() {
        // Not a strict prefix extension, but a word subset.
        assert_eq!(
            c("home loans", "washington home loans"),
            PatternType::Specialization
        );
    }

    #[test]
    fn session_classification_uses_first_transition() {
        let s = vec![
            "o2".to_string(),
            "o2 mobile".to_string(),
            "o2 mobile".to_string(),
        ];
        assert_eq!(
            classify_session(&s, None),
            Some(PatternType::Specialization)
        );
        assert_eq!(classify_session(&s[..1], None), None);
    }

    #[test]
    fn distribution_counts_multiquery_sessions_only() {
        let sessions: Vec<Vec<String>> = vec![
            vec!["a b".into(), "a b c".into()], // specialization
            vec!["x".into()],                   // skipped
            vec!["q".into(), "q".into()],       // repeated
        ];
        let slices: Vec<&[String]> = sessions.iter().map(|s| s.as_slice()).collect();
        let counts = pattern_distribution(slices, None);
        assert_eq!(counts[PatternType::Specialization.index()], 1);
        assert_eq!(counts[PatternType::RepeatedQuery.index()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn order_sensitive_fraction_math() {
        let mut counts = [0u64; 7];
        counts[PatternType::Specialization.index()] = 30;
        counts[PatternType::Other.index()] = 70;
        assert!((order_sensitive_fraction(&counts) - 0.3).abs() < 1e-12);
        assert_eq!(order_sensitive_fraction(&[0; 7]), 0.0);
    }

    #[test]
    fn classifier_agrees_with_generator_truth() {
        // The real validation: classify simulated sessions with world
        // knowledge and compare against generator labels.
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(4_000, 100, 321));
        let v = &logs.truth.vocabulary;
        let mut agree = 0usize;
        let mut total = 0usize;
        for s in &logs.truth.train_sessions {
            if let (Some(truth), Some(got)) =
                (s.dominant_label(), classify_session(&s.queries, Some(v)))
            {
                total += 1;
                if truth == got {
                    agree += 1;
                }
            }
        }
        assert!(total > 1000);
        let acc = agree as f64 / total as f64;
        assert!(acc > 0.9, "classifier agreement only {acc:.3}");
    }
}
