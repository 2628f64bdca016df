//! [`SuggestSink`]: where the suggest path writes its answers.
//!
//! Every layer between the model and a caller — the snapshot's renderer,
//! [`ServeEngine`](crate::ServeEngine), the router's scatter/gather, the
//! network server, the wire client's decoder — hands suggestions to a sink
//! instead of returning owned lists, so an answer is materialized exactly
//! once, in whatever form its final consumer wants: heap `String`s for an
//! in-process caller (`Vec<Suggestion>` is a sink), wire bytes for a
//! connection's reply frame (`sqp-net`'s `ListWriter`).
//!
//! # The protocol
//!
//! An answer is a sequence of **lists**. A writer announces each list with
//! [`list(len)`](SuggestSink::list) and follows it with exactly `len`
//! [`suggestion`](SuggestSink::suggestion) calls, best first. A
//! single-user answer is one list; a batch answer is one list per request
//! entry, in request order (an absent session or an uncovered context is
//! `list(0)`).
//!
//! # Who may write, and what a shed leaves behind
//!
//! A sink only ever sees **whole answers**. Every fallible writer decides
//! whether it can answer *before* its first `list` call: the engine takes
//! its admission permit first, the router takes every involved replica's
//! permit first (and reorders through its own buffer, replaying into the
//! caller's sink only once every replica has rendered), the remote client
//! validates a whole reply before replaying it. A call that returns
//! `Err(Overloaded)` has written nothing, so a caller never has to undo a
//! partial answer.

use crate::snapshot::Suggestion;

/// Destination of rendered suggestions; see the [module docs](self) for
/// the call protocol. Object-safe: tiers are held as trait objects, and
/// their sink-taking methods take `&mut dyn SuggestSink`.
pub trait SuggestSink {
    /// Begin the next list; exactly `len` [`suggestion`](Self::suggestion)
    /// calls follow before the next `list`.
    fn list(&mut self, len: usize);

    /// The next suggestion of the current list, best first.
    fn suggestion(&mut self, query: &str, score: f64);

    /// Write an already-owned list through the protocol.
    fn replay(&mut self, list: &[Suggestion]) {
        self.list(list.len());
        for s in list {
            self.suggestion(&s.query, s.score);
        }
    }
}

/// One owned list: the sink of a single-user answer. (Given several lists
/// it keeps them all, end to end.)
impl SuggestSink for Vec<Suggestion> {
    fn list(&mut self, len: usize) {
        self.reserve_exact(len);
    }

    fn suggestion(&mut self, query: &str, score: f64) {
        self.push(Suggestion {
            query: query.to_owned(),
            score,
        });
    }
}

/// One owned list per `list` call: the sink of a batch answer.
impl SuggestSink for Vec<Vec<Suggestion>> {
    fn list(&mut self, len: usize) {
        self.push(Vec::with_capacity(len));
    }

    fn suggestion(&mut self, query: &str, score: f64) {
        self.last_mut()
            .expect("SuggestSink protocol: `list` precedes `suggestion`")
            .suggestion(query, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sugg(q: &str, score: f64) -> Suggestion {
        Suggestion {
            query: q.into(),
            score,
        }
    }

    #[test]
    fn vec_sinks_rebuild_what_was_replayed() {
        let lists = vec![
            vec![sugg("a", 1.0), sugg("b", 0.5)],
            vec![],
            vec![sugg("c", 0.25)],
        ];
        let mut batch: Vec<Vec<Suggestion>> = Vec::new();
        let mut flat: Vec<Suggestion> = Vec::new();
        for list in &lists {
            batch.replay(list);
            flat.replay(list);
        }
        assert_eq!(batch, lists);
        assert_eq!(flat, lists.concat());
        // Usable behind the pointer type every tier takes.
        let dynamic: &mut dyn SuggestSink = &mut batch;
        dynamic.list(0);
        assert_eq!(batch.len(), 4);
    }
}
