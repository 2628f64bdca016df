//! [`SuggestSink`]: where the suggest path writes its answers.
//!
//! Every layer between the model and a caller — the snapshot's renderer,
//! [`ServeEngine`](crate::ServeEngine), the router's scatter/gather, the
//! network server, the wire client's decoder — hands suggestions to a sink
//! instead of returning owned lists, so an answer is materialized exactly
//! once, in whatever form its final consumer wants: wire bytes for a
//! connection's reply frame (`sqp-net`'s `ListWriter`), or one text buffer
//! with a span per suggestion ([`FlatAnswer`](crate::FlatAnswer)), which is
//! what every owned list is converted from.
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

/// Destination of rendered suggestions; see the module docs for
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
