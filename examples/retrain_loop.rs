//! The full model lifecycle, live: cold-start training, snapshot
//! persistence, warm start, and a background retrain loop publishing new
//! generations into a serving engine while it answers traffic.
//!
//! ```sh
//! cargo run --release --example retrain_loop
//! ```

use sqp::logsim::RawLogRecord;
use sqp::prelude::*;
use sqp::serve::{ModelSpec, TrainingConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("sqp_retrain_loop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let training = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };

    // ── Cold start: the nightly build trains from raw logs and persists
    //    generation 0 as a snapshot file.
    let seed: Vec<RawLogRecord> = (0..2_000u64)
        .flat_map(|u| [rec(u, 100, "rust"), rec(u, 160, "rust book")])
        .collect();
    let t = Instant::now();
    let trained = ModelSnapshot::from_raw_logs(&seed, &training);
    let cold = t.elapsed();
    let gen0 = dir.join(sqp::store::snapshot_file_name(0));
    save_snapshot(
        &gen0,
        &trained,
        &SnapshotMeta::describe(&trained, 0, seed.len() as u64),
    )
    .unwrap();
    println!(
        "cold start: trained {} sessions in {:.1?}, snapshot = {} bytes",
        trained.trained_sessions(),
        cold,
        std::fs::metadata(&gen0).unwrap().len()
    );

    // ── Warm start: a serving process boots from the file alone.
    let t = Instant::now();
    let (snapshot, _meta) = load_snapshot(&gen0).unwrap();
    let engine = ServeEngine::new(Arc::new(snapshot), EngineConfig::default());
    println!(
        "warm start: engine ready in {:.1?} (no retraining)",
        t.elapsed()
    );
    println!(
        "  suggest(rust) -> {:?}",
        engine.suggest_context(&["rust"], 1)[0].query
    );

    // ── Retrain loop: traffic flows, fresh records buffer, generations
    //    publish — serving never pauses.
    let retrainer = Retrainer::new(
        RetrainConfig {
            training,
            min_batch: 500,
            snapshot_dir: Some(dir.clone()),
            keep: 3,
            ..RetrainConfig::default()
        },
        seed,
    );
    std::thread::scope(|scope| {
        let loop_handle = retrainer.spawn(scope, &engine);
        // Simulated live traffic: users shift toward a new refinement.
        for wave in 1..=3u64 {
            for u in 0..300u64 {
                let machine = wave * 100_000 + u;
                retrainer.ingest(rec(machine, 100, "rust"));
                retrainer.ingest(rec(machine, 160, &format!("rust {}", wave_topic(wave))));
                // The engine keeps serving while the retrainer works.
                engine.track_and_suggest(machine, "rust", 3, wave * 10);
            }
            while engine.generation() < wave {
                std::thread::sleep(Duration::from_millis(1));
            }
            println!(
                "generation {} published mid-traffic; suggest(rust) -> {:?}",
                engine.generation(),
                engine
                    .suggest_context(&["rust"], 3)
                    .iter()
                    .map(|s| s.query.clone())
                    .collect::<Vec<_>>()
            );
        }
        retrainer.shutdown();
        let health = loop_handle.join().unwrap();
        println!(
            "retrain loop: {} generations saved, loaded back and validated from {} ingested \
             records, {} failed steps, last_good_generation = {:?}",
            health.retrains_ok,
            retrainer.records_ingested(),
            health.failures,
            health.last_good_generation
        );
    });

    // ── Rotation kept only the newest generations; any of them can
    //    warm-start the next process or roll back a bad model.
    let mut kept: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    kept.sort();
    println!("snapshot dir after rotation: {kept:?}");
    let service = RecommenderService::load(dir.join(kept.last().unwrap())).unwrap();
    println!(
        "rollback/warm-start check: latest file serves {:?}",
        service.suggest(&["rust"], 1)[0].query
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

fn wave_topic(wave: u64) -> &'static str {
    match wave {
        1 => "async",
        2 => "atomics",
        _ => "lifetimes",
    }
}
