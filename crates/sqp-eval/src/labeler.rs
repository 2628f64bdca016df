//! The simulated labeler oracle for the user study (§V-H of the paper).
//!
//! The paper asked 30 volunteers whether each predicted query "is appropriate
//! in the context", giving four archetypes of approved predictions:
//! a spelling fix ("youtube" after "youtub"), a semantically related query
//! ("Verizon" after "GE"), a specialization ("Hertz car rental" after
//! "budget car rental"), and a synonym ("New York Times" after "NY Times").
//!
//! Our oracle encodes the same judgments with the simulator's vocabulary as
//! world knowledge: a prediction is approved when it is topically related to
//! the last context query (same topic, ancestor/descendant, sibling, or
//! same-tree within a small hop distance), fixes its spelling, or is an
//! observed popular continuation (the data-centric ground truth).

use sqp_common::dist::levenshtein_str;
use sqp_logsim::{TopicId, Vocabulary};

/// Judgment oracle backed by vocabulary world knowledge.
pub(crate) struct LabelerOracle<'a> {
    vocab: &'a Vocabulary,
}

impl<'a> LabelerOracle<'a> {
    /// Wrap a vocabulary.
    pub(crate) fn new(vocab: &'a Vocabulary) -> Self {
        Self { vocab }
    }

    /// Resolve a surface to its topic, forgiving small typos (a labeler
    /// recognizes "youtub" as YouTube).
    fn resolve(&self, surface: &str) -> Option<TopicId> {
        if let Some(t) = self.vocab.topic_of_surface(surface) {
            return Some(t);
        }
        // Try cheap single-edit repairs: drop one char / transpose.
        let chars: Vec<char> = surface.chars().collect();
        for i in 0..chars.len() {
            let mut c = chars.clone();
            c.remove(i);
            let cand: String = c.iter().collect();
            if let Some(t) = self.vocab.topic_of_surface(&cand) {
                return Some(t);
            }
        }
        for i in 0..chars.len().saturating_sub(1) {
            let mut c = chars.clone();
            c.swap(i, i + 1);
            let cand: String = c.iter().collect();
            if let Some(t) = self.vocab.topic_of_surface(&cand) {
                return Some(t);
            }
        }
        None
    }

    /// Tree distance between two topics in the same tree (hops up/down),
    /// or `None` when they live in different trees.
    fn tree_distance(&self, a: TopicId, b: TopicId) -> Option<usize> {
        if !self.vocab.same_root(a, b) {
            return None;
        }
        // Walk both up to the root, find the lowest common ancestor.
        let path = |mut t: TopicId| {
            let mut p = vec![t];
            while let Some(parent) = self.vocab.parent(t) {
                p.push(parent);
                t = parent;
            }
            p
        };
        let pa = path(a);
        let pb = path(b);
        for (i, x) in pa.iter().enumerate() {
            if let Some(j) = pb.iter().position(|y| y == x) {
                return Some(i + j);
            }
        }
        None
    }

    /// Would a labeler approve `predicted` as a follow-up to `context_last`?
    pub(crate) fn approve(&self, context_last: &str, predicted: &str) -> bool {
        if context_last == predicted {
            // Recommending the query the user just typed is not helpful,
            // but it is "appropriate" (repeated-query pattern): approve.
            return true;
        }
        // Spelling fix: context is a typo of the (known) prediction.
        if self.vocab.topic_of_surface(context_last).is_none()
            && self.vocab.topic_of_surface(predicted).is_some()
            && levenshtein_str(context_last, predicted) <= 2
        {
            return true;
        }
        match (self.resolve(context_last), self.resolve(predicted)) {
            (Some(a), Some(b)) => {
                if a == b {
                    return true; // synonym / same intent
                }
                // Topically close: within 2 hops in the same tree
                // (parent, child, sibling, grandchild…).
                matches!(self.tree_distance(a, b), Some(d) if d <= 2)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_logsim::VocabConfig;

    fn vocab() -> Vocabulary {
        Vocabulary::build(
            &VocabConfig {
                n_roots: 30,
                synonym_frac: 1.0,
                ..VocabConfig::default()
            },
            1234,
        )
    }

    #[test]
    fn approves_specialization_and_generalization() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let parent = v
            .iter()
            .find(|t| !t.children.is_empty())
            .expect("tree has interior nodes");
        let child = v.topic(parent.children[0]);
        assert!(oracle.approve(&parent.query, &child.query));
        assert!(oracle.approve(&child.query, &parent.query));
    }

    #[test]
    fn approves_siblings() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let parent = v
            .iter()
            .find(|t| t.children.len() >= 2)
            .expect("tree has branching nodes");
        let a = v.topic(parent.children[0]);
        let b = v.topic(parent.children[1]);
        assert!(oracle.approve(&a.query, &b.query));
    }

    #[test]
    fn approves_synonyms() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let t = v
            .iter()
            .find(|t| t.synonym.is_some())
            .expect("synonyms assigned");
        assert!(oracle.approve(&t.query, t.synonym.as_ref().unwrap()));
        assert!(oracle.approve(t.synonym.as_ref().unwrap(), &t.query));
    }

    #[test]
    fn approves_spelling_fix() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let t = v.iter().next().unwrap();
        let mut rng = sqp_common::rng::StdRng::seed_from_u64(5);
        let typo = v.misspell(&t.query, &mut rng);
        assert!(oracle.approve(&typo, &t.query), "{typo} -> {}", t.query);
    }

    #[test]
    fn rejects_unrelated_topics() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let roots = v.roots();
        let a = v.topic(roots[0]);
        let b = v.topic(roots[1]);
        assert!(!oracle.approve(&a.query, &b.query));
    }

    #[test]
    fn rejects_garbage_predictions() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let t = v.iter().next().unwrap();
        assert!(!oracle.approve(&t.query, "completely unrelated gibberish"));
    }

    #[test]
    fn rejects_distant_relatives() {
        // A node and its great-grandchild (3 hops) are too far.
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let mut found = false;
        for t in v.iter() {
            for &c1 in v.children(t.id) {
                for &c2 in v.children(c1) {
                    for &c3 in v.children(c2) {
                        found = true;
                        assert!(!oracle.approve(&t.query, &v.topic(c3).query));
                    }
                }
            }
        }
        assert!(found, "vocabulary too shallow for this test");
    }

    #[test]
    fn approves_repeat() {
        let v = vocab();
        let oracle = LabelerOracle::new(&v);
        let t = v.iter().next().unwrap();
        assert!(oracle.approve(&t.query, &t.query));
    }
}
