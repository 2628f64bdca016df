//! Multi-threaded serving stress harness (`serve_loop`).
//!
//! Drives a serving surface with N worker threads of mixed traffic —
//! `track_and_suggest` round trips, batched suggests, periodic idle
//! eviction — while a trainer thread retrains the model mid-run and
//! atomically publishes the new snapshots. The report carries operation
//! and publication accounting; latency and throughput are `benchmark/`'s
//! job.
//!
//! The workload is generic over [`ServeSurface`] — implemented by the
//! single [`ServeEngine`] and by the replicated
//! [`RouterEngine`](sqp_router::RouterEngine) tier — so [`run_on`] drives
//! either with byte-identical traffic.
//!
//! The harness is deterministic in *workload* (seeded per-thread PRNGs over
//! a fixed simulated corpus) but not in interleaving — it is a stress
//! harness, not a model-equivalence test. The torn-read impossibility
//! argument lives in `sqp-serve` (one snapshot handle per request) and is
//! asserted adversarially by the umbrella's `tests/serve_concurrency.rs`;
//! here the swap-vs-traffic interaction is exercised at full speed and the
//! report asserts the publications actually landed mid-traffic.

use sqp_common::rng::{Rng, StdRng};
use sqp_core::VmmConfig;
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, SuggestRequest,
    TrainingConfig,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workload shape for one `serve_loop` run.
#[derive(Clone, Copy, Debug)]
pub struct ServeLoopConfig {
    /// Worker threads driving traffic (the acceptance floor is 4).
    pub threads: usize,
    /// Operations each worker performs.
    pub ops_per_thread: usize,
    /// Distinct users each worker cycles through.
    pub users_per_thread: usize,
    /// Suggestions requested per call.
    pub suggest_k: usize,
    /// Requests per batched suggest (issued every [`Self::BATCH_EVERY`] ops).
    pub batch_size: usize,
    /// Mid-run model publications performed by the trainer thread.
    pub swaps: usize,
    /// Simulated sessions in the training corpus.
    pub corpus_sessions: usize,
    /// Corpus / traffic seed.
    pub seed: u64,
}

impl ServeLoopConfig {
    /// Every this-many worker ops, one batched suggest is issued instead of
    /// a single-user round trip.
    pub const BATCH_EVERY: usize = 8;

    /// A fast profile for CI tests: 4 threads, 1 swap, small corpus.
    pub fn smoke() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 2_000,
            users_per_thread: 64,
            suggest_k: 3,
            batch_size: 8,
            swaps: 1,
            corpus_sessions: 1_000,
            seed: 7,
        }
    }
}

/// What a `serve_loop` run observed.
#[derive(Clone, Debug)]
pub struct ServeLoopReport {
    /// Worker threads that ran.
    pub threads: usize,
    /// Total operations completed (single round trips + batch calls). At
    /// least `threads × ops_per_thread`; workers add tail operations when
    /// needed to keep traffic flowing until the last publish lands.
    pub ops_total: u64,
    /// Individual suggestions computed (batch entries counted one by one).
    pub suggests_total: u64,
    /// Suggestions that came back non-empty (covered contexts).
    pub nonempty_suggestions: u64,
    /// Model publications performed by the trainer thread.
    pub swaps_completed: u64,
    /// Publications that landed while worker traffic was still flowing
    /// (the interesting ones — a swap after the last op exercises nothing).
    pub mid_run_swaps: u64,
    /// Engine generation after the run (== `swaps_completed`).
    pub final_generation: u64,
    /// Sessions resident in the tracker when traffic stopped.
    pub active_sessions: usize,
    /// Sessions reclaimed by the post-run idle eviction sweep.
    pub evicted_at_end: usize,
}

/// Build the initial trained snapshot for `cfg`, plus the raw records (for
/// retraining) and the trained vocabulary (for traffic generation).
/// Generating the simulated corpus is the expensive part, so callers that
/// compare surfaces do it exactly once here and hand each surface the same
/// parts.
pub fn build_parts(
    cfg: &ServeLoopConfig,
) -> (
    Arc<ModelSnapshot>,
    Vec<String>,
    Vec<sqp_logsim::RawLogRecord>,
) {
    let records = crate::bench_records(cfg.corpus_sessions, cfg.seed);
    let training = TrainingConfig {
        model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ..TrainingConfig::default()
    };
    let snapshot = Arc::new(ModelSnapshot::from_raw_logs(&records, &training));
    // Traffic draws query text from the trained vocabulary so most contexts
    // are covered; unknown-query handling is exercised by the interleaved
    // out-of-vocabulary probes below.
    let vocabulary: Vec<String> = snapshot
        .interner()
        .iter()
        .map(|(_, s)| s.to_owned())
        .collect();
    assert!(!vocabulary.is_empty(), "empty training vocabulary");
    (snapshot, vocabulary, records)
}

/// Build the initial snapshot and the engine the loop will hammer, plus
/// the raw records and vocabulary from [`build_parts`].
pub fn build_engine(
    cfg: &ServeLoopConfig,
) -> (Arc<ServeEngine>, Vec<String>, Vec<sqp_logsim::RawLogRecord>) {
    let (snapshot, vocabulary, records) = build_parts(cfg);
    let engine = Arc::new(ServeEngine::new(snapshot, EngineConfig::default()));
    (engine, vocabulary, records)
}

/// Run the stress loop against a single [`ServeEngine`]: `cfg.threads`
/// workers of mixed traffic with `cfg.swaps` mid-run model publications.
pub fn run(cfg: &ServeLoopConfig) -> ServeLoopReport {
    let (engine, vocabulary, records) = build_engine(cfg);
    run_on(engine.as_ref(), cfg, &vocabulary, &records)
}

/// Run the stress loop against any [`ServeSurface`] with a pre-built corpus
/// (from [`build_parts`]). Traffic is identical for identical `cfg`
/// regardless of the surface.
pub fn run_on<S: ServeSurface>(
    engine: &S,
    cfg: &ServeLoopConfig,
    vocabulary: &[String],
    records: &[sqp_logsim::RawLogRecord],
) -> ServeLoopReport {
    assert!(cfg.threads >= 1 && cfg.ops_per_thread > 0);

    let total_ops_target = (cfg.threads * cfg.ops_per_thread) as u64;
    let ops_done = AtomicU64::new(0);
    let swaps_done = AtomicU64::new(0);
    let mid_run_swaps = AtomicU64::new(0);
    let nonempty = AtomicU64::new(0);
    // Workers still serving. Workers exit only after every publish has
    // landed, so a publish observing `active_workers > 0` — all of them, by
    // construction — genuinely raced live traffic.
    let active_workers = AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Trainer: retrain and publish at evenly spaced points of the run.
        let trainer_engine = engine;
        let trainer_records = records;
        let ops_done_ref = &ops_done;
        let swaps_done_ref = &swaps_done;
        let mid_run_swaps_ref = &mid_run_swaps;
        let active_workers_ref = &active_workers;
        let n_swaps = cfg.swaps;
        scope.spawn(move || {
            for swap in 0..n_swaps {
                // Strictly below total_ops_target, so the wait always ends.
                let threshold = total_ops_target * (swap as u64 + 1) / (n_swaps as u64 + 1);
                while ops_done_ref.load(Ordering::Relaxed) < threshold {
                    std::thread::yield_now();
                }
                // Alternate the component so successive snapshots differ.
                let eps = if swap % 2 == 0 { 0.0 } else { 0.1 };
                let training = TrainingConfig {
                    model: ModelSpec::Vmm(VmmConfig::with_epsilon(eps)),
                    ..TrainingConfig::default()
                };
                let next = Arc::new(ModelSnapshot::from_raw_logs(trainer_records, &training));
                trainer_engine.publish(next);
                let live = active_workers_ref.load(Ordering::Relaxed) > 0;
                swaps_done_ref.fetch_add(1, Ordering::Relaxed);
                if live {
                    mid_run_swaps_ref.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        // Workers: seeded mixed traffic.
        for thread in 0..cfg.threads {
            let ops_done = &ops_done;
            let nonempty = &nonempty;
            let swaps_done = &swaps_done;
            let active_workers = &active_workers;
            let cfg = *cfg;
            scope.spawn(move || {
                active_workers.fetch_add(1, Ordering::Relaxed);
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (thread as u64) << 32);
                let user_base = thread as u64 * 1_000_000;
                // At least `ops_per_thread` ops, then keep the traffic
                // flowing until every scheduled publish has landed — the
                // swap must race live requests, not an idle engine. Every
                // op (tail included) is counted.
                let mut op = 0usize;
                while op < cfg.ops_per_thread
                    || swaps_done.load(Ordering::Relaxed) < cfg.swaps as u64
                {
                    // A coarse logical clock: sessions stay inside the
                    // 30-minute rule, with occasional long gaps forcing
                    // fresh sessions and giving eviction something to do.
                    let now = (op as u64) * 2 + if op.is_multiple_of(101) { 3_600 } else { 0 };
                    if op % ServeLoopConfig::BATCH_EVERY == 7 {
                        let reqs: Vec<SuggestRequest> = (0..cfg.batch_size)
                            .map(|_| SuggestRequest {
                                user: user_base
                                    + rng.random_range(0u64..cfg.users_per_thread as u64),
                                k: cfg.suggest_k,
                            })
                            .collect();
                        let got = engine.suggest_batch(&reqs, now);
                        nonempty.fetch_add(
                            got.iter().filter(|s| !s.is_empty()).count() as u64,
                            Ordering::Relaxed,
                        );
                    } else if op.is_multiple_of(997) {
                        // Rare maintenance sweep from inside traffic.
                        engine.evict_idle(now);
                    } else {
                        let user = user_base + rng.random_range(0u64..cfg.users_per_thread as u64);
                        // ~3% out-of-vocabulary probes.
                        let query = if rng.random_range(0u32..32) == 0 {
                            format!("oov-{thread}-{op}")
                        } else {
                            vocabulary[rng.random_range(0usize..vocabulary.len())].clone()
                        };
                        let got = engine.track_and_suggest(user, &query, cfg.suggest_k, now);
                        if !got.is_empty() {
                            nonempty.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    ops_done.fetch_add(1, Ordering::Relaxed);
                    op += 1;
                }
                active_workers.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });

    let ops_total = ops_done.load(Ordering::Relaxed);
    let suggests_total = engine.suggests_total();
    let active_sessions = engine.active_sessions();
    let evicted_at_end = engine.evict_idle(u64::MAX / 2);

    ServeLoopReport {
        threads: cfg.threads,
        ops_total,
        suggests_total,
        nonempty_suggestions: nonempty.load(Ordering::Relaxed),
        swaps_completed: swaps_done.load(Ordering::Relaxed),
        mid_run_swaps: mid_run_swaps.load(Ordering::Relaxed),
        final_generation: engine.generation(),
        active_sessions,
        evicted_at_end,
    }
}
