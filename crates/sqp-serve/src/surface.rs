//! [`ServeSurface`]: the one trait every serving tier speaks.
//!
//! Three layers sit on top of a serving tier and none of them should care
//! whether the tier is a single [`ServeEngine`], a replicated
//! `RouterEngine` (`sqp-router`) or a `RemoteEngine` on the far side of a
//! socket (`sqp-net`):
//!
//! * the **network front-end** (`sqp-net`) translates wire frames into
//!   these calls, handing the admission-controlled sink forms a
//!   [`SuggestSink`] over the connection's reply frame — suggestions go
//!   from the model's interner to the socket buffer without becoming
//!   `String`s — and turning a typed [`Overloaded`] into a wire-level
//!   shed reply;
//! * the **soak runner** (`sqp-soak::runner`) drives byte-identical
//!   seeded traffic through any implementation's `try_*` forms;
//! * **operations** polls [`stats`](ServeSurface::stats), which
//!   implementations keep lock-free so a poller never contends with
//!   traffic.
//!
//! A model does not reach a tier through this trait: the two in-process
//! tiers take one through `sqp-store`'s `Publish`, and a remote tier is
//! published to through its servers' admin ports.
//!
//! # The suggest family
//!
//! An implementation writes three methods — `try_suggest_into`,
//! `try_track_and_suggest_into`, `try_suggest_batch_into` — each
//! admission-controlled and each writing whole answers to a
//! [`SuggestSink`] (see [`crate::sink`] for the call protocol and for what
//! a shed leaves behind: nothing). The five `Vec`-returning forms are
//! provided on top of those, converted from this thread's
//! [`FlatAnswer`], so there is one suggest path per tier, not an owned one
//! beside a streaming one — and one suggest
//! family: no tier re-declares these methods inherently, so a call means
//! the same whether or not this trait is in scope. The exceptions are the
//! benchmark's, kept until it moves to the trait: the engine's inherent
//! `track` (which its trait `track` calls), its unadmitted `suggest`,
//! `track_and_suggest` and `suggest_batch`, and the router's unadmitted
//! `suggest_batch`.
//!
//! The trait requires `Send + Sync`: a surface is always shared across
//! threads (connection threads, stats pollers), and requiring it here turns
//! an accidentally-non-`Sync` implementation into a compile error at `impl`
//! time rather than a usage error at spawn time.

use crate::answer::FlatAnswer;
use crate::engine::{EngineStats, Overloaded, ServeEngine, SuggestRequest};
use crate::session::TrackOutcome;
use crate::sink::SuggestSink;
use crate::snapshot::Suggestion;

/// The operations a serving tier exposes to front-ends, harnesses, and
/// operators — the common surface of [`ServeEngine`], `RouterEngine` and
/// `RemoteEngine`.
///
/// Admission: the `try_*` forms shed with [`Overloaded`] when the tier's
/// in-flight budget is exhausted, before writing anything. The plain
/// `Vec` forms never report a shed: a shed answer comes back empty.
pub trait ServeSurface: Send + Sync {
    /// Record `query` for `user` at `now` without suggesting.
    fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome;

    /// Suggest against `user`'s tracked session: exactly one list to
    /// `sink`, or `Err` and nothing.
    fn try_suggest_into(
        &self,
        user: u64,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded>;

    /// Record `query` for `user` and suggest against the updated context:
    /// exactly one list to `sink`, or `Err`, nothing written and nothing
    /// recorded.
    fn try_track_and_suggest_into(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded>;

    /// Batched suggestion: one list per request to `sink`, in request
    /// order. The batch is all-or-nothing: if any involved replica's
    /// budget is exhausted the whole call sheds with the sink untouched,
    /// so a caller never has to merge partial answers with partial sheds.
    fn try_suggest_batch_into(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded>;

    /// [`try_suggest_into`](Self::try_suggest_into) as an owned list.
    fn try_suggest(&self, user: u64, k: usize, now: u64) -> Result<Vec<Suggestion>, Overloaded> {
        FlatAnswer::with_scratch(|answer| {
            self.try_suggest_into(user, k, now, answer)?;
            Ok(answer.to_list())
        })
    }

    /// [`try_track_and_suggest_into`](Self::try_track_and_suggest_into) as
    /// an owned list.
    fn try_track_and_suggest(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
    ) -> Result<Vec<Suggestion>, Overloaded> {
        FlatAnswer::with_scratch(|answer| {
            self.try_track_and_suggest_into(user, query, k, now, answer)?;
            Ok(answer.to_list())
        })
    }

    /// [`try_suggest_batch_into`](Self::try_suggest_batch_into) as owned
    /// lists.
    fn try_suggest_batch(
        &self,
        requests: &[SuggestRequest],
        now: u64,
    ) -> Result<Vec<Vec<Suggestion>>, Overloaded> {
        FlatAnswer::with_scratch(|answer| {
            self.try_suggest_batch_into(requests, now, answer)?;
            Ok(answer.to_lists())
        })
    }

    /// [`try_track_and_suggest`](Self::try_track_and_suggest) with a shed
    /// reported as no suggestions.
    fn track_and_suggest(&self, user: u64, query: &str, k: usize, now: u64) -> Vec<Suggestion> {
        self.try_track_and_suggest(user, query, k, now)
            .unwrap_or_default()
    }

    /// [`try_suggest_batch`](Self::try_suggest_batch) with a shed reported
    /// as one empty list per request.
    fn suggest_batch(&self, requests: &[SuggestRequest], now: u64) -> Vec<Vec<Suggestion>> {
        self.try_suggest_batch(requests, now)
            .unwrap_or_else(|_| vec![Vec::new(); requests.len()])
    }

    /// Drop idle sessions; returns how many.
    fn evict_idle(&self, now: u64) -> usize;

    /// Lock-free counters and gauges; a tier reports its members'
    /// [`EngineStats::fold`], so `publishes` is its fully-propagated model
    /// generation. This is what a wire-level stats endpoint serves, so it
    /// must stay cheap enough to poll per request.
    fn stats(&self) -> EngineStats;
}

impl ServeSurface for ServeEngine {
    fn track(&self, user: u64, query: &str, now: u64) -> TrackOutcome {
        ServeEngine::track(self, user, query, now)
    }
    fn try_suggest_into(
        &self,
        user: u64,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        self.try_suggest_batch_into(&[SuggestRequest { user, k }], now, sink)
    }
    fn try_track_and_suggest_into(
        &self,
        user: u64,
        query: &str,
        k: usize,
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        let _permit = self.admit()?;
        self.track_and_suggest_into(user, query, k, now, sink);
        Ok(())
    }
    /// The whole batch costs one permit: it shares one snapshot read and
    /// its buffers, so per-entry admission would overcount its footprint.
    fn try_suggest_batch_into(
        &self,
        requests: &[SuggestRequest],
        now: u64,
        sink: &mut dyn SuggestSink,
    ) -> Result<(), Overloaded> {
        let _permit = self.admit()?;
        self.suggest_batch_into(requests, now, sink);
        Ok(())
    }
    fn evict_idle(&self, now: u64) -> usize {
        ServeEngine::evict_idle(self, now)
    }
    fn stats(&self) -> EngineStats {
        ServeEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ModelSnapshot;
    use std::sync::Arc;

    /// Compile-time audit: the surface trait itself guarantees
    /// `Send + Sync` (it is a supertrait bound, so every implementation is
    /// checked where it is written), and the engine satisfies it both
    /// directly and behind the pointer types front-ends actually share.
    #[test]
    fn surface_is_send_sync_everywhere_it_is_used() {
        fn takes_surface<S: ServeSurface>() {}
        fn takes_send_sync<T: Send + Sync>() {}
        takes_surface::<ServeEngine>();
        takes_send_sync::<ServeEngine>();
        takes_send_sync::<Arc<ServeEngine>>();
        // A type-erased surface (how sqp-net's server can hold "any tier")
        // must remain shareable too.
        takes_send_sync::<Arc<dyn ServeSurface>>();
    }

    #[test]
    fn engine_surface_delegates() {
        use crate::snapshot::TrainingConfig;
        use sqp_core::ModelSpec;
        use sqp_logsim::RawLogRecord;

        let rec = |machine, ts, q: &str| RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        };
        let records: Vec<_> = (0..6)
            .flat_map(|u| [rec(u, 100, "start"), rec(u, 150, "start::next")])
            .collect();
        let snapshot = Arc::new(ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        ));
        let engine = ServeEngine::new(
            Arc::clone(&snapshot),
            crate::engine::EngineConfig::default(),
        );
        let surface: &dyn ServeSurface = &engine;
        let outcome = surface.track(1, "start", 100);
        assert!(outcome.new_session);
        assert_eq!(
            surface.try_suggest(1, 1, 110).unwrap()[0].query,
            "start::next"
        );
        assert_eq!(
            surface.track_and_suggest(2, "start", 1, 100)[0].query,
            "start::next"
        );
        let batch = surface
            .try_suggest_batch(&[SuggestRequest { user: 1, k: 1 }], 120)
            .unwrap();
        assert_eq!(batch[0][0].query, "start::next");
        // The owned forms are the sink forms, converted from a flat answer.
        let mut lists = FlatAnswer::default();
        surface
            .try_suggest_batch_into(&[SuggestRequest { user: 1, k: 1 }], 120, &mut lists)
            .unwrap();
        assert_eq!(lists.to_lists(), batch);
        assert_eq!(
            surface.suggest_batch(&[SuggestRequest { user: 1, k: 1 }], 120),
            batch
        );
        assert_eq!(engine.publish(snapshot), 1);
        let stats = surface.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.suggests, engine.stats().suggests);
        assert_eq!(stats.active_sessions, 2);
        assert_eq!(surface.evict_idle(u64::MAX / 2), 2);
    }
}
