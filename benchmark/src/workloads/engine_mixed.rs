//! `engine_mixed`: 2 threads → one in-process `ServeEngine`.
//!
//! `sqp-serve` and `sqp-core` predict do all the work and `sqp-net` none.
//! Session writes sit beside reads on the same stripes and the same `Swap`
//! cell, 100k resident sessions do not fit the last-level cache, and one
//! content-identical `publish` lands in the middle of every round. A wire
//! change must not move this workload.

use super::{measure, Measured};
use crate::fixture::{report_setup, set_up, Corpus, Opts};
use crate::metrics::Report;
use crate::oracle::EngineSut;
use crate::rounds::reset_sessions;
use crate::script::{self, OpKind, ScriptConfig, K};
use crate::trace::Replay;
use sqp_serve::{EngineConfig, ServeEngine};
use std::sync::Arc;

const ROOT: [&str; script::OP_KINDS] = [
    "serve.track_and_suggest",
    "serve.suggest",
    "serve.track",
    "serve.suggest_batch",
    "serve.ping",
    "serve.publish",
];

/// Record the root span of a sampled op; for a `track_and_suggest`, replay
/// the two model stages on the context the op left behind.
pub fn observe(engine: &ServeEngine, replay: &mut Replay<'_>) {
    let root = ROOT[replay.op.kind.index()];
    replay.span(root, None, replay.root);
    if replay.op.kind != OpKind::TrackSuggest {
        return;
    }
    // The user belongs to this thread alone, so the context is still the
    // one the op just ranked against.
    let context = engine.tracker().context(replay.op.user, replay.now());
    let snapshot = engine.snapshot();
    let mut ids = Vec::with_capacity(context.len());
    let mut scored = Vec::with_capacity(K);
    let mut rendered = Vec::with_capacity(K);
    replay.timed("core.predict", root, || {
        if snapshot.resolve_context_into(context.iter().map(String::as_str), &mut ids) {
            snapshot.recommend_ids_into(&ids, K, &mut scored);
        }
    });
    replay.timed("serve.render", root, || {
        snapshot.render_into(&scored, &mut rendered)
    });
    std::hint::black_box(&rendered);
}

pub fn run(corpus: &Corpus, opts: &Opts) -> Report {
    let mut report = Report::new("engine_mixed");
    let script = script::generate(
        &ScriptConfig {
            seed: opts.seed,
            threads: opts.clients(),
            users_per_thread: opts.scale.users / opts.clients(),
            groups: opts.scale.engine_groups,
            mix: script::ENGINE_MIXED,
        },
        &corpus.held_out,
    );
    let (engine, model, times) = set_up(
        corpus,
        opts,
        "engine_mixed",
        |model| {
            Arc::new(ServeEngine::new(
                Arc::clone(&model.loaded),
                EngineConfig::default(),
            ))
        },
        |engine| {
            reset_sessions(engine.as_ref(), &script, 0);
        },
        drop,
    );
    report_setup(&mut report, &times, true, opts.trace);

    let twin = [Arc::clone(&model.loaded), Arc::clone(&model.trained)];
    let mut suts: Vec<EngineSut> = script
        .threads
        .iter()
        .map(|_| EngineSut::new(Arc::clone(&engine), twin.clone()))
        .collect();
    let measured: Measured = measure(
        &mut report,
        opts,
        &script,
        engine.as_ref(),
        &mut suts,
        &model.trained,
        |_| {},
    );

    if let Some(traced) = &measured.traced {
        report.layer(
            "serve.track_and_suggest_us",
            measured.kind_us(OpKind::TrackSuggest),
        );
        report.layer("serve.suggest_us", measured.kind_us(OpKind::Suggest));
        report.layer("serve.track_us", measured.kind_us(OpKind::Track));
        report.layer("serve.suggest_batch_us", measured.kind_us(OpKind::Batch));
        report.layer("serve.publish_us", measured.kind_us(OpKind::Publish));
        report.layer("serve.p99_us", measured.p99_us);
        report.layer("serve.p999_us", measured.p999_us);
        report.layer("serve.max_us", measured.max_us);
        report.layer("core.predict_ns", traced.spans.duration_ns("core.predict"));
        report.layer("serve.render_ns", traced.spans.duration_ns("serve.render"));
        report.layer(
            "serve.session_self_ns",
            traced.spans.self_ns("serve.track_and_suggest"),
        );
        report.layer("serve.allocs_per_op", traced.counters.allocs_per_op);
        report.layer(
            "serve.alloc_bytes_per_op",
            traced.counters.alloc_bytes_per_op,
        );
        report.layer("serve.evict_us_per_session", measured.evict_us_per_session);
        report.layer("serve.active_sessions", engine.active_sessions() as f64);
        report.layer("serve.shed", engine.stats().shed as f64);
    }
    report
}
