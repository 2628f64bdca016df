//! Owned answers: [`QueryText`], the text of a [`Suggestion`], and
//! [`FlatAnswer`], the one shape an answer is gathered or built in.
//!
//! An owned answer costs one text allocation plus one `Vec` per non-empty
//! list, whatever `k` is: every suggestion of an answer shares one text
//! buffer, and its [`QueryText`] is a span of that buffer. The price is
//! that an owned suggestion keeps its whole answer's text alive — at most
//! one reply frame's worth — until the last suggestion of that answer
//! drops; copy a query out (`to_string()`) to keep it longer on its own.
//!
//! [`FlatAnswer`] is a [`SuggestSink`] that lays lists out flat — one text
//! buffer, one `(score, span)` per suggestion, one span per list — so
//! gathering an answer costs three growing buffers, not a `String` per
//! suggestion. The router gathers a split batch in one, the wire client
//! decodes every suggestion reply into one per connection, and every
//! owned form (`Vec<Suggestion>`, `Vec<Vec<Suggestion>>`) is converted
//! from one. A single list rendered straight from a model is the one
//! exception: [`ModelSnapshot::render_into`](crate::ModelSnapshot::render_into)
//! builds it directly, because the round trip through a flat answer costs
//! more than that list's whole build.

use crate::sink::SuggestSink;
use crate::snapshot::Suggestion;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The text of one owned suggestion: a span of the text buffer its answer
/// was built in, shared by every suggestion of that answer.
///
/// Derefs to, compares as, hashes as and prints as its `str`; cloning is
/// one reference-count increment. It keeps its answer's whole text alive
/// (see the module docs).
#[derive(Clone)]
pub struct QueryText {
    text: Arc<str>,
    start: u32,
    end: u32,
}

impl QueryText {
    /// `text[start..end]`, sharing `text`.
    fn span(text: Arc<str>, start: u32, end: u32) -> Self {
        debug_assert!(text.is_char_boundary(start as usize) && text.is_char_boundary(end as usize));
        QueryText { text, start, end }
    }

    /// The query as a `str`.
    pub fn as_str(&self) -> &str {
        &self.text[self.start as usize..self.end as usize]
    }
}

impl Deref for QueryText {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for QueryText {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for QueryText {
    fn from(text: &str) -> Self {
        QueryText::span(Arc::from(text), 0, to_u32(text.len()))
    }
}

impl From<String> for QueryText {
    fn from(text: String) -> Self {
        QueryText::from(text.as_str())
    }
}

impl PartialEq for QueryText {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for QueryText {}

impl PartialOrd for QueryText {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueryText {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// Hashes exactly as its `str` does, so a `QueryText` key is found by a
/// `&str` lookup ([`Borrow<str>`]).
impl Hash for QueryText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for QueryText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for QueryText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

macro_rules! eq_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for QueryText {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }
        impl PartialEq<QueryText> for $other {
            fn eq(&self, other: &QueryText) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}

eq_str!(str, &str, String);

/// A span offset into an answer's text.
fn to_u32(at: usize) -> u32 {
    u32::try_from(at).expect("an answer's text stays under 4 GiB")
}

/// Hands out the [`QueryText`]s of one answer over one shared buffer; the
/// last of them takes the buffer itself instead of a clone.
struct Shared {
    text: Option<Arc<str>>,
    left: usize,
}

impl Shared {
    /// `count` spans of `text`. An answer with no suggestions allocates
    /// nothing.
    fn new(text: impl FnOnce() -> Arc<str>, count: usize) -> Self {
        Shared {
            text: (count > 0).then(text),
            left: count,
        }
    }

    fn next(&mut self, start: u32, end: u32) -> QueryText {
        self.left -= 1;
        let text = if self.left == 0 {
            self.text.take()
        } else {
            self.text.clone()
        };
        QueryText::span(text.expect("one span per counted suggestion"), start, end)
    }
}

/// Append to `out` the owned list whose `(query, score)`s, best first,
/// `texts` yields, sharing one text: the texts are joined in this thread's
/// reused buffer and copied from it once, so the list costs that text and
/// `out`'s growth. The direct build of a single list (see the
/// [module docs](self)).
pub(crate) fn build_list<'a>(
    texts: impl ExactSizeIterator<Item = (&'a str, f64)> + Clone,
    out: &mut Vec<Suggestion>,
) {
    let len = texts.len();
    let mut shared = Shared::new(
        || {
            JOINED.with_borrow_mut(|joined| {
                joined.clear();
                texts.clone().for_each(|(text, _)| joined.push_str(text));
                Arc::from(joined.as_str())
            })
        },
        len,
    );
    out.reserve_exact(len);
    let mut at = 0;
    for (text, score) in texts {
        let start = to_u32(at);
        at += text.len();
        out.push(Suggestion {
            query: shared.next(start, to_u32(at)),
            score,
        });
    }
}

/// An answer laid out flat: every list's text in one buffer, one
/// `(score, span)` per suggestion, one span per list.
///
/// Written through the [`SuggestSink`] protocol; read back by replaying it
/// into another sink or by converting it to owned lists. Clearing keeps
/// the buffers' capacity, so a reused one allocates nothing once it has
/// grown to its working size.
#[derive(Clone, Debug, Default)]
pub struct FlatAnswer {
    text: String,
    /// `(score, start, end)`: the suggestion's text is `text[start..end]`.
    suggestions: Vec<(f64, u32, u32)>,
    /// Where each list starts in `suggestions`; it ends where the next
    /// one starts.
    lists: Vec<u32>,
}

thread_local! {
    static OWNED: RefCell<FlatAnswer> = RefCell::default();
    /// [`build_list`]'s joined texts. It calls no code that could build
    /// another list while this is borrowed.
    static JOINED: RefCell<String> = const { RefCell::new(String::new()) };
}

impl FlatAnswer {
    /// Forget every list, keeping the buffers' capacity.
    pub fn clear(&mut self) {
        self.text.clear();
        self.suggestions.clear();
        self.lists.clear();
    }

    /// Number of lists.
    pub(crate) fn len(&self) -> usize {
        self.lists.len()
    }

    /// True when the answer holds no list.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The `at`-th list's `(score, start, end)` entries.
    fn entries(&self, at: usize) -> &[(f64, u32, u32)] {
        let start = self.lists[at] as usize;
        let end = self
            .lists
            .get(at + 1)
            .map_or(self.suggestions.len(), |&end| end as usize);
        &self.suggestions[start..end]
    }

    /// The `at`-th list as `(query, score)` pairs, best first.
    fn list_at(&self, at: usize) -> impl ExactSizeIterator<Item = (&str, f64)> + Clone {
        self.entries(at)
            .iter()
            .map(|&(score, start, end)| (&self.text[start as usize..end as usize], score))
    }

    /// The list positions `order` names: list `order[i]` in place `i`, or
    /// every list in its own order when `order` is empty — which is how
    /// `sqp_router::Runs::order` reads for a batch that was not split.
    fn positions<'a>(&self, order: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let all = if order.is_empty() {
            0..self.len()
        } else {
            0..0
        };
        order.iter().copied().chain(all)
    }

    /// Write every list to `sink`, in order.
    pub fn write_to(&self, sink: &mut dyn SuggestSink) {
        self.write_in_order(&[], sink);
    }

    /// Write the lists to `sink` in the order `order` puts them: list
    /// `order[i]` as the `i`-th, or all of them in their own order when
    /// `order` is empty. A split batch gathered in run order is put back in
    /// request order by passing its `Runs::order()`.
    pub fn write_in_order(&self, order: &[usize], sink: &mut dyn SuggestSink) {
        for at in self.positions(order) {
            let list = self.list_at(at);
            sink.list(list.len());
            for (query, score) in list {
                sink.suggestion(query, score);
            }
        }
    }

    /// Every list as an owned list, in order.
    pub fn to_lists(&self) -> Vec<Vec<Suggestion>> {
        self.to_lists_in_order(&[])
    }

    /// [`write_in_order`](Self::write_in_order) as owned lists: one copy
    /// of the text, shared by every suggestion, one `Vec` per non-empty
    /// list and the outer `Vec`.
    pub fn to_lists_in_order(&self, order: &[usize]) -> Vec<Vec<Suggestion>> {
        let count = self.positions(order).map(|at| self.entries(at).len()).sum();
        let mut shared = Shared::new(|| Arc::from(self.text.as_str()), count);
        let mut lists = Vec::with_capacity(order.len().max(self.len()));
        for at in self.positions(order) {
            let entries = self.entries(at);
            let mut list = Vec::with_capacity(entries.len());
            for &(score, start, end) in entries {
                list.push(Suggestion {
                    query: shared.next(start, end),
                    score,
                });
            }
            lists.push(list);
        }
        lists
    }

    /// Every list, end to end, as one owned list — a single-list answer's
    /// owned form.
    pub fn to_list(&self) -> Vec<Suggestion> {
        let mut shared = Shared::new(|| Arc::from(self.text.as_str()), self.suggestions.len());
        self.suggestions
            .iter()
            .map(|&(score, start, end)| Suggestion {
                query: shared.next(start, end),
                score,
            })
            .collect()
    }

    /// Append `other`'s lists after this answer's.
    pub fn extend_from(&mut self, other: &FlatAnswer) {
        let text = to_u32(self.text.len());
        let suggestions = to_u32(self.suggestions.len());
        self.text.push_str(&other.text);
        self.suggestions.extend(
            other
                .suggestions
                .iter()
                .map(|&(score, start, end)| (score, start + text, end + text)),
        );
        self.lists
            .extend(other.lists.iter().map(|&start| start + suggestions));
    }

    /// Run `fill` on this thread's reused flat answer (cleared first) and
    /// hand what it wrote to `convert` — how an owned form is made from a
    /// sink form without growing a fresh answer each call.
    pub fn with_scratch<R>(fill_then_convert: impl FnOnce(&mut FlatAnswer) -> R) -> R {
        sqp_common::scratch::with(&OWNED, |answer| {
            answer.clear();
            fill_then_convert(answer)
        })
    }
}

impl SuggestSink for FlatAnswer {
    fn list(&mut self, len: usize) {
        self.lists.push(to_u32(self.suggestions.len()));
        self.suggestions.reserve(len);
    }

    fn suggestion(&mut self, query: &str, score: f64) {
        let start = to_u32(self.text.len());
        self.text.push_str(query);
        self.suggestions
            .push((score, start, to_u32(self.text.len())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashMap;

    /// The per-suggestion reference: every suggestion owns a copy of its
    /// own text.
    fn reference(lists: &[Vec<(&str, f64)>]) -> Vec<Vec<Suggestion>> {
        lists
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&(query, score)| Suggestion {
                        query: QueryText::from(query),
                        score,
                    })
                    .collect()
            })
            .collect()
    }

    /// `lists` written through the sink protocol.
    fn flat(lists: &[Vec<(&str, f64)>]) -> FlatAnswer {
        let mut answer = FlatAnswer::default();
        for list in lists {
            answer.list(list.len());
            for &(query, score) in list {
                answer.suggestion(query, score);
            }
        }
        answer
    }

    /// `f64` payloads compare bit for bit.
    fn bits(lists: &[Vec<Suggestion>]) -> Vec<Vec<(String, u64)>> {
        lists
            .iter()
            .map(|l| {
                l.iter()
                    .map(|s| (s.query.to_string(), s.score.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn owned_lists_equal_the_per_suggestion_reference() {
        let cases: Vec<Vec<Vec<(&str, f64)>>> = vec![
            // No lists at all.
            vec![],
            // Lists, none with a suggestion.
            vec![vec![], vec![], vec![]],
            // Empty lists among full ones, an empty query, multibyte UTF-8.
            vec![
                vec![("naïve café ☕", 0.5), ("", -0.0)],
                vec![],
                vec![("日本語", 1.0)],
                vec![("a", f64::MAX), ("bé", f64::MIN_POSITIVE), ("c", 0.25)],
                vec![],
            ],
        ];
        for lists in &cases {
            let want = reference(lists);
            let answer = flat(lists);
            assert_eq!(answer.len(), lists.len());
            assert_eq!(bits(&answer.to_lists()), bits(&want), "{lists:?}");
            assert_eq!(
                bits(&[answer.to_list()]),
                bits(&[want.concat()]),
                "{lists:?}"
            );
            for (at, list) in lists.iter().enumerate() {
                assert_eq!(answer.list_at(at).collect::<Vec<_>>(), *list);
            }

            // Put back in reverse, by list position.
            let order: Vec<usize> = (0..lists.len()).rev().collect();
            let reversed: Vec<_> = want.iter().rev().cloned().collect();
            assert_eq!(bits(&answer.to_lists_in_order(&order)), bits(&reversed));
            let mut replayed = FlatAnswer::default();
            answer.write_in_order(&order, &mut replayed);
            assert_eq!(bits(&replayed.to_lists()), bits(&reversed));

            // Appended after itself: every list twice, in order.
            let mut twice = answer.clone();
            twice.extend_from(&answer);
            assert_eq!(
                bits(&twice.to_lists()),
                bits(&[want.clone(), want.clone()].concat())
            );

            // The direct build of one list, from the same texts.
            for (list, want) in lists.iter().zip(&want) {
                let mut built = Vec::new();
                build_list(list.iter().copied(), &mut built);
                assert_eq!(bits(&[built]), bits(std::slice::from_ref(want)));
            }
        }
        // Usable behind the pointer type every tier takes, and reusable.
        let mut answer = flat(&cases[2]);
        let dynamic: &mut dyn SuggestSink = &mut answer;
        dynamic.replay(&reference(&cases[2])[0]);
        assert_eq!(answer.len(), 6);
        answer.clear();
        assert!(answer.is_empty() && answer.to_lists().is_empty());
    }

    #[test]
    fn a_query_text_compares_hashes_and_prints_as_its_str() {
        let mut built = Vec::new();
        let texts = [("rust", 2.0), ("rust atomics", 1.0)];
        build_list(texts.iter().copied(), &mut built);
        let text = &built[1].query;
        assert_eq!(*text, "rust atomics");
        assert_eq!("rust atomics", *text);
        assert_eq!(*text, String::from("rust atomics"));
        assert_eq!(&**text, "rust atomics");
        assert_eq!(*text, QueryText::from("rust atomics"));
        assert_eq!(format!("{text} {text:?}"), "rust atomics \"rust atomics\"");
        let hash = |value: &dyn Fn(&mut DefaultHasher)| {
            let mut h = DefaultHasher::new();
            value(&mut h);
            h.finish()
        };
        assert_eq!(hash(&|h| text.hash(h)), hash(&|h| "rust atomics".hash(h)));
        let mut by_text = HashMap::new();
        by_text.insert(text.clone(), 1);
        assert_eq!(by_text.get("rust atomics"), Some(&1));
        assert!(built[0].query < *text);
        assert_ne!(built[0].query, *text);
    }
}
