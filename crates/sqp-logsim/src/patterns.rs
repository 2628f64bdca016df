//! The seven query-reformulation pattern types.
//!
//! These are the session patterns of Rieh & Xie / Teevan et al. that the
//! paper's Figure 1 and Table I use; the simulator draws session transitions
//! from a configurable mixture over them, and the classifier in
//! `sqp-sessions` recovers them from raw query text.

/// One of the seven reformulation patterns of the paper's Table I.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatternType {
    /// Typo followed by its correction ("goggle" ⇒ "google").
    SpellingChange,
    /// Move to a sibling concept ("SMTP" ⇒ "POP3").
    ParallelMovement,
    /// Drop terms / move to the parent concept
    /// ("washington mutual home loans" ⇒ "home loans").
    Generalization,
    /// Add terms / move to a child concept ("O2" ⇒ "O2 mobile").
    Specialization,
    /// Swap surface forms of the same concept ("BAMC" ⇒ "Brooke Army Medical
    /// Center").
    SynonymSubstitution,
    /// Re-issue the same query ("myspace" ⇒ "myspace").
    RepeatedQuery,
    /// Anything else — typically an unrelated jump
    /// ("muzzle brake" ⇒ "shared calenders").
    Other,
}

impl PatternType {
    /// All seven patterns, in the order used by
    /// `SessionConfig::pattern_weights`.
    pub const ALL: [PatternType; 7] = [
        PatternType::SpellingChange,
        PatternType::ParallelMovement,
        PatternType::Generalization,
        PatternType::Specialization,
        PatternType::SynonymSubstitution,
        PatternType::RepeatedQuery,
        PatternType::Other,
    ];

    /// Human-readable label matching the paper's Figure 1 axis.
    pub fn label(self) -> &'static str {
        match self {
            PatternType::SpellingChange => "Spelling change",
            PatternType::ParallelMovement => "Parallel movement",
            PatternType::Generalization => "Generalization",
            PatternType::Specialization => "Specialization",
            PatternType::SynonymSubstitution => "Synonym substitution",
            PatternType::RepeatedQuery => "Repeated query",
            PatternType::Other => "Others",
        }
    }

    /// The paper singles out spelling change, generalization and
    /// specialization as *directly related to the order of queries* (§I);
    /// together they account for 34.34% of sessions in its user study.
    pub fn is_order_sensitive(self) -> bool {
        matches!(
            self,
            PatternType::SpellingChange | PatternType::Generalization | PatternType::Specialization
        )
    }

    /// Position of this pattern in [`Self::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&p| p == self).unwrap()
    }
}

impl std::fmt::Display for PatternType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_seven_unique_patterns() {
        let set: std::collections::HashSet<_> = PatternType::ALL.iter().collect();
        assert_eq!(set.len(), 7);
    }

    #[test]
    fn index_roundtrip() {
        for (i, p) in PatternType::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn order_sensitive_trio() {
        let sensitive: Vec<_> = PatternType::ALL
            .iter()
            .filter(|p| p.is_order_sensitive())
            .collect();
        assert_eq!(sensitive.len(), 3);
        assert!(sensitive.contains(&&PatternType::SpellingChange));
        assert!(sensitive.contains(&&PatternType::Generalization));
        assert!(sensitive.contains(&&PatternType::Specialization));
    }

    #[test]
    fn labels_match_figure_one() {
        assert_eq!(PatternType::Other.label(), "Others");
        assert_eq!(PatternType::SpellingChange.label(), "Spelling change");
    }
}
