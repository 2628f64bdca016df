//! Acceptance test for the end-to-end retrain loop: a live [`ServeEngine`]
//! serves concurrent traffic while a spawned [`Retrainer`] ingests fresh
//! simulated log records, writes snapshot generations to disk, loads each
//! back, validates it, and hot-swaps it in.
//!
//! Reuses the `serve_loop` swap-verification machinery: the corpus and
//! traffic vocabulary come from [`build_parts`], and the mid-traffic
//! argument is the same one `serve_loop` makes — the workers stop only
//! after the control plane has seen the final generation land, so every
//! publication necessarily raced live requests.
//!
//! Verifies the acceptance criteria directly: ≥ 2 snapshot generations
//! published mid-traffic with no failed step, post-swap suggestions
//! reflecting the new corpus, and the newest on-disk generation — the
//! loop's last-good one — warm-starting a second engine that agrees with
//! the live one.

use sqp_logsim::RawLogRecord;
use sqp_serve::{EngineConfig, ModelSpec, ServeEngine, TrainingConfig};
use sqp_soak::runner::{drive, surface, Op, Scenario, Stop};
use sqp_soak::serve_loop::{CORPUS_SESSIONS, SEED, THREADS};
use sqp_soak::{build_parts, rec, scratch_dir};
use sqp_store::{latest_generation_on_disk, load_snapshot, RetrainConfig, Retrainer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TARGET_GENERATIONS: u64 = 2;
const FRESH_USERS: u64 = 300;

/// A burst of brand-new traffic: vocabulary the serving model has never
/// seen, on machines disjoint from the simulated corpus and from other
/// bursts.
fn fresh_batch(generation: u64) -> Vec<RawLogRecord> {
    (0..FRESH_USERS)
        .flat_map(|u| {
            let machine = 1_000_000_000 + generation * 1_000_000 + u;
            [
                rec(machine, 100, "fresh::a"),
                rec(machine, 160, &format!("fresh::b{generation}")),
            ]
        })
        .collect()
}

#[test]
fn retrainer_publishes_generations_under_live_traffic() {
    let (snapshot, vocabulary, records) = build_parts(CORPUS_SESSIONS, SEED);
    let engine = ServeEngine::new(snapshot, EngineConfig::default());
    let dir = scratch_dir("retrain-loop");

    let batch_len = fresh_batch(1).len();
    // Retrains swap the model *kind* too (initial VMM → Adjacency):
    // snapshots are kind-agnostic, and Adjacency makes the post-swap
    // assertion deterministic (successor counts, no KL growth criterion).
    let retrainer = Retrainer::new(
        RetrainConfig {
            training: TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
            min_batch: batch_len,
            window_records: 1 << 20,
            snapshot_dir: Some(dir.clone()),
            keep: TARGET_GENERATIONS as usize,
            poll: Duration::from_millis(1),
            ..RetrainConfig::default()
        },
        records,
    );

    // Ops observed at each engine generation; proves traffic flowed both
    // before the first publish and between publishes.
    let ops_at_generation: [AtomicU64; TARGET_GENERATIONS as usize + 1] = Default::default();

    let scenario = Scenario {
        seed: SEED,
        phase: 0,
        clock: &|i| i * 2,
        mix: &|ctx, _, _| {
            let query = &vocabulary[ctx.i as usize % vocabulary.len()];
            Op::TrackAndSuggest(ctx.user(ctx.i % 64), query.clone(), 3)
        },
        observe: &|_, _, _, _, _| {
            let generation = engine.generation().min(TARGET_GENERATIONS);
            ops_at_generation[generation as usize].fetch_add(1, Ordering::Relaxed);
        },
        stop: Stop::WithControl(0),
    };
    let health = std::thread::scope(|scope| {
        let trainer_handle = retrainer.spawn(scope, &engine);
        // Feed the loop one fresh burst per target generation, waiting for
        // each publish to land before the next burst — and, before each
        // burst, for a worker to have served under the generation it will
        // replace, so "every publish raced traffic" is forced, not hoped.
        drive(&scenario, &surface(&engine), &mut [(); THREADS], |_| {
            for generation in 1..=TARGET_GENERATIONS {
                while ops_at_generation[generation as usize - 1].load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                retrainer.ingest_batch(fresh_batch(generation));
                while engine.generation() < generation {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        retrainer.shutdown();
        trainer_handle.join().unwrap()
    });
    // Every step of the spawned loop saved, loaded back and validated what
    // it published: none failed, and the newest file on disk is the one the
    // loop last validated.
    assert_eq!(health.failures, 0, "retrain error: {:?}", health.last_error);
    assert!(
        health.retrains_ok >= TARGET_GENERATIONS,
        "only {} generations published",
        health.retrains_ok
    );
    assert_eq!(
        health.last_good_generation,
        Some(latest_generation_on_disk(&dir))
    );

    // ≥ 2 generations landed, all of them mid-traffic.
    assert!(engine.generation() >= TARGET_GENERATIONS);
    assert!(
        ops_at_generation[0].load(Ordering::Relaxed) > 0,
        "no traffic before the first publish"
    );
    assert!(
        ops_at_generation[1].load(Ordering::Relaxed) > 0,
        "no traffic between the publishes"
    );

    // Post-swap suggestions reflect the new corpus: the generation-2
    // vocabulary — which the initial model had never seen — is now served.
    let post = engine.suggest_context(&["fresh::a"], 5);
    assert!(
        post.iter().any(|s| s.query == "fresh::b2"),
        "post-swap model does not reflect the new corpus: {post:?}"
    );
    // Old corpus is still in the sliding window, so the original
    // vocabulary keeps working too.
    assert!(
        engine.snapshot().vocabulary_size() > 2,
        "retrained snapshot lost the seed corpus"
    );

    // The on-disk generations warm-start an identical server.
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    snaps.sort();
    assert!(
        snaps.len() <= TARGET_GENERATIONS as usize,
        "rotation kept too many files: {snaps:?}"
    );
    let latest = snaps.last().expect("no snapshot written");
    let (snapshot, _meta) = load_snapshot(latest).unwrap();
    let warm = ServeEngine::new(Arc::new(snapshot), EngineConfig::default());
    assert_eq!(
        warm.suggest_context(&["fresh::a"], 5),
        engine.suggest_context(&["fresh::a"], 5),
        "warm-started engine disagrees with the live one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
