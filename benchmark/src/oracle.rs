//! Replies, the answer digest, and the reference engine.
//!
//! Every system under test answers a scripted [`Op`] with a [`Reply`].
//! Every round folds each reply's hash — texts and score bits — into a
//! per-thread [`Digest`]; the oracle round also keeps the hashes and
//! compares them with what a private single-threaded [`EngineSut`] over
//! the same snapshot answers to the same op stream.

use crate::script::{Op, OpKind, Script, ThreadScript, K};
use sqp_serve::{ModelSnapshot, ServeEngine, Suggestion};
use std::sync::Arc;

#[derive(Debug)]
pub enum Reply {
    Suggestions(Vec<Suggestion>),
    Batch(Vec<Vec<Suggestion>>),
    Ack {
        new_session: bool,
        context_len: usize,
    },
    /// `PING` and `Publish`: nothing to compare beyond "it happened".
    Done,
    /// The op errored, was shed, or degraded. Counts in `failed`.
    Failed(String),
}

impl Reply {
    /// Hash of texts and score bits: equal hashes are equal replies.
    #[inline]
    pub fn hash(&self) -> u64 {
        let mut digest = Digest::default();
        digest.reply(self);
        digest.0
    }

    /// `(suggestion lists, non-empty ones)` — the paper's coverage, online.
    pub fn lists(&self) -> (u64, u64) {
        match self {
            Reply::Suggestions(s) => (1, u64::from(!s.is_empty())),
            Reply::Batch(lists) => (
                lists.len() as u64,
                lists.iter().filter(|l| !l.is_empty()).count() as u64,
            ),
            _ => (0, 0),
        }
    }
}

/// FNV-1a over 64-bit words: cheap enough to run on every reply of a
/// timed round (≈10 ns for a five-suggestion answer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    #[inline]
    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        let mut chunks = s.as_bytes().chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.word(u64::from_le_bytes(tail));
    }

    fn list(&mut self, list: &[Suggestion]) {
        self.word(list.len() as u64);
        for s in list {
            self.word(s.score.to_bits());
            self.text(&s.query);
        }
    }

    pub fn reply(&mut self, reply: &Reply) {
        match reply {
            Reply::Suggestions(list) => self.list(list),
            Reply::Batch(lists) => {
                self.word(lists.len() as u64);
                lists.iter().for_each(|l| self.list(l));
            }
            Reply::Ack {
                new_session,
                context_len,
            } => self.word(u64::from(*new_session) << 32 | *context_len as u64),
            Reply::Done => self.word(1),
            Reply::Failed(_) => self.word(u64::MAX),
        }
    }
}

/// One client thread's handle on a system under test.
pub trait Sut: Send {
    /// Execute `op` at logical time `base + op.at` and return the answer.
    /// Only reads `script`: anything it needs was built before the clock.
    fn exec(&mut self, op: &Op, script: &Script, thread: &ThreadScript, base: u64) -> Reply;

    /// Oracle round, sampled ops only, right after the op returned: record
    /// its root span and replay it one layer down at a time as child spans.
    fn observe(&mut self, replay: &mut crate::trace::Replay<'_>);

    /// Name and parent of the span the reference engine's own call stands
    /// for on a sampled op of `kind`: the engine's share of that op.
    fn reference_span(_kind: OpKind) -> Option<(&'static str, &'static str)> {
        None
    }
}

/// An in-process `ServeEngine`: the system under test of `engine_mixed`
/// and the reference of every traced round.
pub struct EngineSut {
    pub engine: Arc<ServeEngine>,
    /// Content-identical snapshots a `Publish` op alternates between.
    snapshots: [Arc<ModelSnapshot>; 2],
    published: usize,
}

impl EngineSut {
    pub fn new(engine: Arc<ServeEngine>, snapshots: [Arc<ModelSnapshot>; 2]) -> Self {
        Self {
            engine,
            snapshots,
            published: 0,
        }
    }
}

impl Sut for EngineSut {
    #[inline]
    fn exec(&mut self, op: &Op, script: &Script, thread: &ThreadScript, base: u64) -> Reply {
        let now = base + u64::from(op.at);
        match op.kind {
            OpKind::TrackSuggest => Reply::Suggestions(self.engine.track_and_suggest(
                op.user,
                &script.queries[op.query as usize],
                K,
                now,
            )),
            OpKind::Suggest => Reply::Suggestions(self.engine.suggest(op.user, K, now)),
            OpKind::Track => {
                let out = self
                    .engine
                    .track(op.user, &script.queries[op.query as usize], now);
                Reply::Ack {
                    new_session: out.new_session,
                    context_len: out.context_len,
                }
            }
            OpKind::Batch => Reply::Batch(
                self.engine
                    .suggest_batch(&thread.batches[op.batch as usize], now),
            ),
            OpKind::Ping => Reply::Done,
            OpKind::Publish => {
                self.published += 1;
                self.engine
                    .publish(Arc::clone(&self.snapshots[self.published % 2]));
                Reply::Done
            }
        }
    }

    fn observe(&mut self, replay: &mut crate::trace::Replay<'_>) {
        crate::workloads::engine_mixed::observe(&self.engine, replay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(query: &str, score: f64) -> Suggestion {
        Suggestion {
            query: query.into(),
            score,
        }
    }

    #[test]
    fn lists_counts_nonempty_suggestion_lists() {
        assert_eq!(
            Reply::Batch(vec![vec![], vec![s("a", 1.0)]]).lists(),
            (2, 1)
        );
        assert_eq!(Reply::Suggestions(vec![]).lists(), (1, 0));
        assert_eq!(Reply::Done.lists(), (0, 0));
    }

    #[test]
    fn digest_sees_order_text_tail_and_score() {
        let d = |r: &Reply| {
            let mut d = Digest::default();
            d.reply(r);
            d
        };
        let base = d(&Reply::Suggestions(vec![
            s("alpha beta", 0.5),
            s("b", 0.25),
        ]));
        assert_eq!(
            base,
            d(&Reply::Suggestions(vec![
                s("alpha beta", 0.5),
                s("b", 0.25)
            ]))
        );
        assert_ne!(
            base,
            d(&Reply::Suggestions(vec![
                s("b", 0.25),
                s("alpha beta", 0.5)
            ]))
        );
        assert_ne!(
            base,
            d(&Reply::Suggestions(vec![
                s("alpha betb", 0.5),
                s("b", 0.25)
            ]))
        );
        assert_ne!(
            base,
            d(&Reply::Suggestions(vec![
                s("alpha beta", 0.75),
                s("b", 0.25)
            ]))
        );
        let next_up = f64::from_bits(0.25f64.to_bits() + 1);
        assert_ne!(
            base,
            d(&Reply::Suggestions(vec![
                s("alpha beta", 0.5),
                s("b", next_up)
            ]))
        );
        assert_ne!(d(&Reply::Done), d(&Reply::Failed(String::new())));
    }
}
