//! Multi-threaded serving stress harness (`serve_loop`).
//!
//! Drives a serving surface with [`THREADS`] workers of mixed traffic —
//! `track_and_suggest` round trips, batched suggests, periodic idle
//! eviction — while the control plane retrains the model mid-run and
//! atomically publishes the new snapshots. The report carries operation
//! and publication accounting; latency and throughput are `benchmark/`'s
//! job.
//!
//! The workload is generic over [`Publish`] — implemented by the single
//! [`ServeEngine`](sqp_serve::ServeEngine) and by the replicated
//! [`RouterEngine`](sqp_router::RouterEngine) tier — so [`run_on`] drives
//! either with byte-identical traffic.
//!
//! The harness is deterministic in *workload* (seeded per-worker rngs over
//! a fixed simulated corpus) but not in interleaving — it is a stress
//! harness, not a model-equivalence test. The torn-read impossibility
//! argument lives in `sqp-serve` (one snapshot handle per request) and is
//! asserted adversarially by the umbrella's `tests/serve_concurrency.rs`;
//! here the swap-vs-traffic interaction is exercised at full speed and the
//! report asserts the publications actually landed mid-traffic.

use crate::runner::{drive, surface, Op, Outcome, Scenario, Stop, Tally};
use sqp_common::rng::Rng;
use sqp_core::VmmConfig;
use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_store::Publish;
use std::sync::Arc;

/// Worker threads driving traffic (the acceptance floor is 4).
pub const THREADS: usize = 4;
/// Operations each worker performs at least.
pub const OPS_PER_THREAD: u64 = 2_000;
/// Mid-run model publications the control plane performs.
pub const SWAPS: u64 = 1;
/// Simulated sessions in the training corpus.
pub const CORPUS_SESSIONS: usize = 1_000;
/// Corpus and traffic seed.
pub const SEED: u64 = 7;
const USERS_PER_THREAD: u64 = 64;
const SUGGEST_K: usize = 3;
const BATCH_SIZE: usize = 8;

/// What a `serve_loop` run observed.
#[derive(Clone, Debug)]
pub struct ServeLoopReport {
    /// Total operations completed (single round trips, batch calls and
    /// sweeps). At least `THREADS × OPS_PER_THREAD`; workers keep traffic
    /// flowing until the last publish lands.
    pub ops_total: u64,
    /// Individual suggestions computed (batch entries counted one by one).
    pub suggests: u64,
    /// Suggestions that came back non-empty (covered contexts).
    pub nonempty_suggestions: u64,
    /// Model publications performed by the control plane.
    pub swaps_completed: u64,
    /// Publications that landed while worker traffic was still flowing
    /// (the interesting ones — a swap after the last op exercises nothing).
    pub mid_run_swaps: u64,
    /// Surface generation after the run (== `swaps_completed`).
    pub final_generation: u64,
    /// Sessions resident in the tracker when traffic stopped.
    pub active_sessions: u64,
    /// Sessions reclaimed by the post-run idle eviction sweep.
    pub evicted_at_end: u64,
}

/// Run the stress loop against either [`Publish`] tier serving the parts
/// [`build_parts`](crate::build_parts) made from [`CORPUS_SESSIONS`] and
/// [`SEED`]: [`THREADS`] workers of mixed traffic with [`SWAPS`] mid-run
/// publications. Traffic is identical whatever the surface.
pub fn run_on<S: Publish>(
    tier: &S,
    vocabulary: &[String],
    records: &[sqp_logsim::RawLogRecord],
) -> ServeLoopReport {
    let scenario = Scenario {
        seed: SEED,
        phase: 0,
        // A coarse logical clock: sessions stay inside the 30-minute rule,
        // with occasional long gaps forcing fresh sessions and giving
        // eviction something to do.
        clock: &|i| i * 2 + if i.is_multiple_of(101) { 3_600 } else { 0 },
        mix: &|ctx, _: &mut u64, rng| {
            let mut user = || ctx.user(rng.random_range(0u64..USERS_PER_THREAD));
            if ctx.i % 8 == 7 {
                Op::batch((0..BATCH_SIZE).map(|_| user()), SUGGEST_K)
            } else if ctx.i.is_multiple_of(997) {
                // Rare maintenance sweep from inside traffic.
                Op::Evict
            } else {
                let user = user();
                // ~3% out-of-vocabulary probes.
                let query = if rng.random_range(0u32..32) == 0 {
                    format!("oov-{}-{}", ctx.worker, ctx.i)
                } else {
                    vocabulary[rng.random_range(0usize..vocabulary.len())].clone()
                };
                Op::TrackAndSuggest(user, query, SUGGEST_K)
            }
        },
        observe: &|_, nonempty, _, outcome, _| {
            if let Outcome::Lists(lists) = outcome {
                *nonempty += lists.iter().filter(|l| !l.is_empty()).count() as u64;
            }
        },
        stop: Stop::WithControl(OPS_PER_THREAD),
    };
    let mut nonempty = [0u64; THREADS];
    // Retrain and publish at evenly spaced points of the run, noting the
    // fleet's op count at each publish.
    let (tallies, published_at) = drive(&scenario, &surface(tier), &mut nonempty, |progress| {
        let target = THREADS as u64 * OPS_PER_THREAD;
        let mut published_at = Vec::new();
        for swap in 1..=SWAPS {
            // Strictly below the target, so the wait always ends.
            while progress.ops() < target * swap / (SWAPS + 1) {
                std::thread::yield_now();
            }
            let training = TrainingConfig {
                model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.0)),
                ..TrainingConfig::default()
            };
            tier.publish(Arc::new(ModelSnapshot::from_raw_logs(records, &training)));
            published_at.push(progress.ops());
        }
        published_at
    });
    let ops_total = Tally::merge(&tallies).sent;

    let stats = tier.stats();
    ServeLoopReport {
        ops_total,
        suggests: stats.suggests,
        nonempty_suggestions: nonempty.iter().sum(),
        swaps_completed: published_at.len() as u64,
        // Traffic went on after these publishes: they raced live requests.
        mid_run_swaps: published_at.iter().filter(|&&at| at < ops_total).count() as u64,
        final_generation: stats.publishes,
        active_sessions: stats.active_sessions,
        evicted_at_end: tier.evict_idle(u64::MAX / 2) as u64,
    }
}
