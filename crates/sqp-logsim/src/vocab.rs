//! Synthetic query vocabulary: a forest of topic trees.
//!
//! Real reformulation behaviour (Table I of the paper) is structural:
//! *specialization* appends terms ("O2" ⇒ "O2 mobile" ⇒ "O2 mobile phones"),
//! *generalization* drops them, *parallel movement* switches to a sibling
//! concept, *synonym substitution* swaps surface forms ("BAMC" ⇒ "Brooke Army
//! Medical Center"), and *spelling change* fixes a typo. We therefore generate
//! a forest where each topic's canonical query is the term path from its
//! root, so every pattern has an exact structural counterpart the simulator,
//! the pattern classifier, and the user-study oracle can all agree on.

use crate::config::VocabConfig;
use sqp_common::rng::{Rng, StdRng};
use sqp_common::{FxHashMap, FxHashSet};

/// Identifier of a topic node in the vocabulary forest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TopicId(pub(crate) u32);

impl TopicId {
    /// Index form.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node of the topic forest.
#[derive(Clone, Debug)]
pub struct Topic {
    /// This node's id.
    pub id: TopicId,
    /// Parent topic (None for roots).
    pub(crate) parent: Option<TopicId>,
    /// Child topics (specializations).
    pub children: Vec<TopicId>,
    /// Depth in the tree; roots are 0.
    pub(crate) depth: usize,
    /// Root ancestor (self for roots).
    pub(crate) root: TopicId,
    /// Canonical query surface: the space-joined term path from the root.
    pub query: String,
    /// Optional alternate surface form (acronym or alias).
    pub synonym: Option<String>,
    /// True when this topic exists only in the test epoch (fresh queries).
    pub(crate) test_only: bool,
}

/// The complete synthetic vocabulary.
#[derive(Clone, Debug)]
pub struct Vocabulary {
    topics: Vec<Topic>,
    roots: Vec<TopicId>,
    train_topics: Vec<TopicId>,
    test_only_topics: Vec<TopicId>,
    surface_to_topic: FxHashMap<String, TopicId>,
}

/// Syllables used to build pronounceable pseudo-words, so that misspellings
/// and acronyms look like the paper's examples rather than random noise.
const SYLLABLES: &[&str] = &[
    "ba", "be", "bo", "da", "de", "do", "fa", "fe", "fi", "ga", "go", "ha", "hi", "ja", "jo", "ka",
    "ke", "ko", "la", "le", "li", "lo", "ma", "me", "mi", "mo", "na", "ne", "ni", "no", "pa", "pe",
    "po", "ra", "re", "ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "va", "ve", "vi",
    "wa", "we", "ya", "yo", "za", "zo", "dar", "fel", "gor", "han", "jin", "kul", "mer", "nor",
    "pol", "rok", "sal", "tam", "ven", "wex", "yor", "zim", "lun", "qar",
];

fn make_word(rng: &mut StdRng, used: &mut FxHashSet<String>) -> String {
    loop {
        let n = rng.random_range(2u32..=3);
        let mut w = String::new();
        for _ in 0..n {
            w.push_str(SYLLABLES[rng.random_range(0..SYLLABLES.len())]);
        }
        if used.insert(w.clone()) {
            return w;
        }
    }
}

impl Vocabulary {
    /// Build a vocabulary forest from `cfg`, deterministically in `seed`.
    pub fn build(cfg: &VocabConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
        let mut vocab = Vocabulary {
            topics: Vec::new(),
            roots: Vec::new(),
            train_topics: Vec::new(),
            test_only_topics: Vec::new(),
            surface_to_topic: FxHashMap::default(),
        };
        let mut used_words: FxHashSet<String> = FxHashSet::default();

        let n_test_roots = ((cfg.n_roots as f64) * cfg.test_only_root_frac).ceil() as usize;
        for r in 0..cfg.n_roots + n_test_roots {
            let test_only = r >= cfg.n_roots;
            // Roots are 1–2 words ("washington mutual", "o2").
            let mut head = make_word(&mut rng, &mut used_words);
            if rng.random_bool(0.35) {
                head.push(' ');
                head.push_str(&make_word(&mut rng, &mut used_words));
            }
            let root_id = vocab.push_topic(None, 0, head, test_only);
            vocab.roots.push(root_id);
            vocab.expand(root_id, cfg, &mut rng, &mut used_words, test_only);
        }

        // Alternate surface forms.
        let ids: Vec<TopicId> = vocab.topics.iter().map(|t| t.id).collect();
        for id in ids {
            if rng.random_bool(cfg.synonym_frac) {
                vocab.assign_synonym(id, &mut rng, &mut used_words);
            }
        }

        for t in &vocab.topics {
            if t.test_only {
                vocab.test_only_topics.push(t.id);
            } else {
                vocab.train_topics.push(t.id);
            }
        }
        vocab
    }

    fn push_topic(
        &mut self,
        parent: Option<TopicId>,
        depth: usize,
        query: String,
        test_only: bool,
    ) -> TopicId {
        let id = TopicId(self.topics.len() as u32);
        let root = parent.map_or(id, |p| self.topics[p.index()].root);
        self.surface_to_topic.insert(query.clone(), id);
        self.topics.push(Topic {
            id,
            parent,
            children: Vec::new(),
            depth,
            root,
            query,
            synonym: None,
            test_only,
        });
        if let Some(p) = parent {
            self.topics[p.index()].children.push(id);
        }
        id
    }

    fn expand(
        &mut self,
        node: TopicId,
        cfg: &VocabConfig,
        rng: &mut StdRng,
        used_words: &mut FxHashSet<String>,
        test_only: bool,
    ) {
        let depth = self.topics[node.index()].depth;
        if depth >= cfg.max_depth || !rng.random_bool(cfg.expand_prob) {
            return;
        }
        let k = rng.random_range(cfg.branch_min..=cfg.branch_max);
        for _ in 0..k {
            let modifier = make_word(rng, used_words);
            let query = format!("{} {}", self.topics[node.index()].query, modifier);
            let child = self.push_topic(Some(node), depth + 1, query, test_only);
            self.expand(child, cfg, rng, used_words, test_only);
        }
    }

    fn assign_synonym(
        &mut self,
        id: TopicId,
        rng: &mut StdRng,
        used_words: &mut FxHashSet<String>,
    ) {
        let canonical = self.topics[id.index()].query.clone();
        let words: Vec<&str> = canonical.split(' ').collect();
        let alt = if words.len() >= 2 {
            // Acronym form, like BAMC ⇔ Brooke Army Medical Center.
            words
                .iter()
                .map(|w| w.chars().next().unwrap().to_ascii_uppercase())
                .collect::<String>()
        } else {
            make_word(rng, used_words)
        };
        if self.surface_to_topic.contains_key(&alt) {
            return; // collision: simply skip the synonym
        }
        self.surface_to_topic.insert(alt.clone(), id);
        self.topics[id.index()].synonym = Some(alt);
    }

    /// The topic node for `id`.
    pub fn topic(&self, id: TopicId) -> &Topic {
        &self.topics[id.index()]
    }

    /// All root topics.
    pub fn roots(&self) -> &[TopicId] {
        &self.roots
    }

    /// Topics available to the training epoch.
    pub(crate) fn train_topics(&self) -> &[TopicId] {
        &self.train_topics
    }

    /// Topics reserved for the test epoch (fresh queries).
    pub(crate) fn test_only_topics(&self) -> &[TopicId] {
        &self.test_only_topics
    }

    /// Canonical surface of a topic.
    pub(crate) fn canonical(&self, id: TopicId) -> &str {
        &self.topics[id.index()].query
    }

    /// Alternate surface, if assigned.
    pub(crate) fn synonym(&self, id: TopicId) -> Option<&str> {
        self.topics[id.index()].synonym.as_deref()
    }

    /// Topic owning `surface` (canonical or synonym), if any.
    pub fn topic_of_surface(&self, surface: &str) -> Option<TopicId> {
        self.surface_to_topic.get(surface).copied()
    }

    /// Parent topic.
    pub fn parent(&self, id: TopicId) -> Option<TopicId> {
        self.topics[id.index()].parent
    }

    /// Children (specializations) of a topic.
    pub fn children(&self, id: TopicId) -> &[TopicId] {
        &self.topics[id.index()].children
    }

    /// Siblings: other children of the same parent (roots have none).
    pub(crate) fn siblings(&self, id: TopicId) -> Vec<TopicId> {
        match self.topics[id.index()].parent {
            None => Vec::new(),
            Some(p) => self.topics[p.index()]
                .children
                .iter()
                .copied()
                .filter(|&c| c != id)
                .collect(),
        }
    }

    /// True when `a` and `b` live in the same topic tree.
    pub fn same_root(&self, a: TopicId, b: TopicId) -> bool {
        self.topics[a.index()].root == self.topics[b.index()].root
    }

    /// Produce a misspelled variant of `surface` (a single character edit on a
    /// non-space position) that is guaranteed not to collide with any real
    /// surface in the vocabulary.
    pub fn misspell(&self, surface: &str, rng: &mut StdRng) -> String {
        let chars: Vec<char> = surface.chars().collect();
        for _attempt in 0..16 {
            let mut c = chars.clone();
            // Pick a non-space position.
            let positions: Vec<usize> = (0..c.len()).filter(|&i| c[i] != ' ').collect();
            if positions.is_empty() {
                break;
            }
            let i = positions[rng.random_range(0..positions.len())];
            match rng.random_range(0..4u32) {
                0 => {
                    // delete
                    c.remove(i);
                }
                1 => {
                    // substitute with a nearby letter
                    let replacement = (b'a' + rng.random_range(0..26u8)) as char;
                    if c[i] == replacement {
                        continue;
                    }
                    c[i] = replacement;
                }
                2 => {
                    // transpose with the next non-space char
                    if i + 1 < c.len() && c[i + 1] != ' ' && c[i] != c[i + 1] {
                        c.swap(i, i + 1);
                    } else {
                        continue;
                    }
                }
                _ => {
                    // insert a duplicate of the current char ("gogle"→"goggle")
                    c.insert(i, c[i]);
                }
            }
            let candidate: String = c.into_iter().collect();
            if candidate != surface && !self.surface_to_topic.contains_key(&candidate) {
                return candidate;
            }
        }
        // Pathological fallback: append a char; cannot collide with canonical
        // forms (they never end in 'x' followed by nothing special) — verify.
        let mut fallback = surface.to_owned();
        fallback.push('x');
        if self.surface_to_topic.contains_key(&fallback) {
            fallback.push('x');
        }
        fallback
    }

    /// Iterate all topics.
    pub fn iter(&self) -> impl Iterator<Item = &Topic> {
        self.topics.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vocab() -> Vocabulary {
        Vocabulary::build(
            &VocabConfig {
                n_roots: 10,
                ..VocabConfig::default()
            },
            7,
        )
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Vocabulary::build(&VocabConfig::default(), 3);
        let b = Vocabulary::build(&VocabConfig::default(), 3);
        assert_eq!(a.iter().count(), b.iter().count());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.synonym, y.synonym);
        }
        let c = Vocabulary::build(&VocabConfig::default(), 4);
        assert_ne!(
            a.iter().map(|t| t.query.clone()).collect::<Vec<_>>(),
            c.iter().map(|t| t.query.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn child_query_extends_parent_query() {
        let v = small_vocab();
        for t in v.iter() {
            if let Some(p) = t.parent {
                let parent_q = v.canonical(p);
                assert!(
                    t.query.starts_with(parent_q) && t.query.len() > parent_q.len(),
                    "child {:?} does not extend parent {:?}",
                    t.query,
                    parent_q
                );
                assert_eq!(t.depth, v.topic(p).depth + 1);
            } else {
                assert_eq!(t.depth, 0);
            }
        }
    }

    #[test]
    fn canonical_surfaces_are_unique() {
        let v = small_vocab();
        let mut seen = std::collections::HashSet::new();
        for t in v.iter() {
            assert!(seen.insert(t.query.clone()), "duplicate query {}", t.query);
        }
    }

    #[test]
    fn surface_lookup_roundtrip() {
        let v = small_vocab();
        for t in v.iter() {
            assert_eq!(v.topic_of_surface(&t.query), Some(t.id));
            if let Some(s) = &t.synonym {
                assert_eq!(v.topic_of_surface(s), Some(t.id));
            }
        }
        assert_eq!(v.topic_of_surface("no such query"), None);
    }

    #[test]
    fn ancestry_and_roots() {
        let v = small_vocab();
        for t in v.iter() {
            let root = v.topic(t.id).root;
            assert!(v.roots().contains(&root));
            if t.depth > 0 {
                assert!(v.same_root(root, t.id));
            }
            for &c in v.children(t.id) {
                assert_eq!(v.topic(c).parent, Some(t.id));
            }
        }
    }

    #[test]
    fn siblings_share_parent() {
        let v = small_vocab();
        for t in v.iter() {
            for s in v.siblings(t.id) {
                assert_eq!(v.parent(s), v.parent(t.id));
                assert_ne!(s, t.id);
            }
        }
    }

    #[test]
    fn test_only_partition() {
        let v = Vocabulary::build(&VocabConfig::default(), 11);
        assert!(!v.test_only_topics().is_empty());
        assert!(!v.train_topics().is_empty());
        for &id in v.test_only_topics() {
            assert!(v.topic(id).test_only);
        }
        for &id in v.train_topics() {
            assert!(!v.topic(id).test_only);
        }
        assert_eq!(
            v.test_only_topics().len() + v.train_topics().len(),
            v.iter().count()
        );
    }

    #[test]
    fn misspell_is_close_but_distinct() {
        let v = small_vocab();
        let mut rng = StdRng::seed_from_u64(5);
        for t in v.iter().take(30) {
            let typo = v.misspell(&t.query, &mut rng);
            assert_ne!(typo, t.query);
            assert!(v.topic_of_surface(&typo).is_none(), "typo collides: {typo}");
            let d = sqp_common::dist::levenshtein_str(&typo, &t.query);
            assert!(d <= 2, "typo too far: {} vs {}", typo, t.query);
        }
    }

    #[test]
    fn acronym_synonyms_use_first_letters() {
        let v = Vocabulary::build(
            &VocabConfig {
                n_roots: 40,
                synonym_frac: 1.0,
                ..VocabConfig::default()
            },
            13,
        );
        let mut found_acronym = false;
        for t in v.iter() {
            if let Some(s) = &t.synonym {
                let words: Vec<&str> = t.query.split(' ').collect();
                if words.len() >= 2 {
                    found_acronym = true;
                    assert_eq!(s.len(), words.len(), "{s} vs {}", t.query);
                    for (ch, w) in s.chars().zip(&words) {
                        assert_eq!(
                            ch.to_ascii_lowercase(),
                            w.chars().next().unwrap(),
                            "{s} vs {}",
                            t.query
                        );
                    }
                }
            }
        }
        assert!(found_acronym);
    }
}
