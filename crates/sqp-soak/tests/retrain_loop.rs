//! Acceptance test for the end-to-end retrain loop: a live [`ServeEngine`]
//! serves concurrent traffic while a spawned [`Retrainer`] ingests fresh
//! simulated log records, writes snapshot generations to disk, loads each
//! back, validates it, and hot-swaps it in.
//!
//! Reuses the `serve_loop` swap-verification machinery: the engine and
//! traffic vocabulary come from [`serve_loop::build_engine`], and the
//! mid-traffic argument is the same one `serve_loop` makes — workers exit
//! *only after* observing the final generation, so every publication
//! necessarily raced live requests.
//!
//! Verifies the acceptance criteria directly: ≥ 2 snapshot generations
//! published mid-traffic with no failed step, post-swap suggestions
//! reflecting the new corpus, and the newest on-disk generation — the
//! loop's last-good one — warm-starting a second engine that agrees with
//! the live one.

use sqp_logsim::RawLogRecord;
use sqp_serve::{EngineConfig, ModelSpec, ServeEngine, TrainingConfig};
use sqp_soak::serve_loop::{self, ServeLoopConfig};
use sqp_store::{latest_generation_on_disk, RetrainConfig, Retrainer, WarmStart};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const TARGET_GENERATIONS: u64 = 2;
const FRESH_USERS: u64 = 300;

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

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
    let cfg = ServeLoopConfig::smoke();
    let (engine, vocabulary, records) = serve_loop::build_engine(&cfg);
    let dir = std::env::temp_dir().join(format!("sqp-retrain-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

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
    let ops_at_generation: Vec<AtomicU64> = (0..=TARGET_GENERATIONS)
        .map(|_| AtomicU64::new(0))
        .collect();

    let health = std::thread::scope(|scope| {
        let trainer_handle = retrainer.spawn(scope, &engine);

        let workers: Vec<_> = (0..cfg.threads)
            .map(|thread| {
                let engine: &ServeEngine = &engine;
                let vocabulary = &vocabulary;
                let ops_at_generation = &ops_at_generation;
                scope.spawn(move || {
                    let user_base = thread as u64 * 1_000_000;
                    let mut op = 0u64;
                    // Exit only after the final generation is visible —
                    // therefore every publish raced this loop.
                    loop {
                        let generation = engine.generation();
                        if generation >= TARGET_GENERATIONS {
                            break;
                        }
                        let query = &vocabulary[(op as usize) % vocabulary.len()];
                        engine.track_and_suggest(user_base + (op % 64), query, 3, op * 2);
                        ops_at_generation[generation as usize].fetch_add(1, Ordering::Relaxed);
                        op += 1;
                    }
                })
            })
            .collect();

        // Feed the loop one fresh burst per target generation, waiting for
        // each publish to land before the next burst — and, before each
        // burst, for a worker to have served under the generation it will
        // replace, so "every publish raced traffic" is forced, not hoped.
        for generation in 1..=TARGET_GENERATIONS {
            while ops_at_generation[generation as usize - 1].load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            retrainer.ingest_batch(fresh_batch(generation));
            while engine.generation() < generation {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for w in workers {
            w.join().unwrap();
        }
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
    let warm = ServeEngine::from_path(latest, EngineConfig::default()).unwrap();
    assert_eq!(
        warm.suggest_context(&["fresh::a"], 5),
        engine.suggest_context(&["fresh::a"], 5),
        "warm-started engine disagrees with the live one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
