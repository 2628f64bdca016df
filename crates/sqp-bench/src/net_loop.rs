//! Wire-level counterpart of [`serve_loop`](crate::serve_loop): the same
//! seeded workload replayed through `sqp-net` over real loopback sockets.
//!
//! Each worker thread owns one keep-alive [`NetClient`] and drives the
//! **exact** `serve_loop` op mix — same per-thread PRNG streams, same
//! logical clock, same batch cadence, same out-of-vocabulary probes, same
//! rare eviction sweeps (the `EVICT` opcode exists precisely so this loop
//! can mirror the in-process one). The trainer retrains mid-run like
//! `serve_loop`'s, but publishes the way an operator would: it saves each
//! snapshot to disk and pushes it through the **admin port** with a
//! `PUBLISH` frame.
//!
//! Because the workload is byte-identical to [`run`](crate::serve_loop::run)
//! for the same [`ServeLoopConfig`], subtracting the two
//! [`ServeLoopReport`]s isolates the network stack: framing and one
//! syscall round trip per op into the server's connection thread. `bench_pr8`
//! gates that overhead (wire p99 ≤ 5× in-process p99).

use crate::serve_loop::{build_engine, ServeLoopConfig, ServeLoopReport};
use sqp_common::rng::{Rng, StdRng};
use sqp_core::VmmConfig;
use sqp_net::{BatchAnswer, BatchEntry, NetClient, NetServer, ServeAnswer, ServerConfig};
use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_store::{save_snapshot, SnapshotMeta};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client-side read/write deadline; a bench run must never wedge on a
/// stuck socket.
const WIRE_DEADLINE: Duration = Duration::from_secs(30);

/// Run the [`serve_loop`](crate::serve_loop) workload over TCP: a
/// [`NetServer`] fronting a fresh `ServeEngine`, `cfg.threads` keep-alive
/// clients of mixed traffic, and `cfg.swaps` mid-run snapshot publishes
/// pushed through the admin port from disk. Returns the same report shape
/// as the in-process run, measured at the client (full round-trip
/// latency).
pub fn run_wire(cfg: &ServeLoopConfig) -> ServeLoopReport {
    assert!(cfg.threads >= 1 && cfg.ops_per_thread > 0);
    let (engine, vocabulary, records) = build_engine(cfg);
    let server = NetServer::start(engine, ServerConfig::default()).expect("net server start");
    let serve_addr = server.serve_addr();
    let admin_addr = server.admin_addr();

    let scratch = std::env::temp_dir().join(format!("sqp-net-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("bench scratch dir");

    let total_ops_target = (cfg.threads * cfg.ops_per_thread) as u64;
    let ops_done = AtomicU64::new(0);
    let swaps_done = AtomicU64::new(0);
    let mid_run_swaps = AtomicU64::new(0);
    let nonempty = AtomicU64::new(0);
    let active_workers = AtomicU64::new(0);

    let started = Instant::now();
    let mut latencies: Vec<Vec<u64>> = Vec::new();
    let mut elapsed = 0.0f64;
    std::thread::scope(|scope| {
        // Trainer: retrain at evenly spaced points, then publish the way an
        // operator would — save the snapshot and push its path through the
        // admin port.
        let trainer_records = &records;
        let trainer_scratch = &scratch;
        let ops_done_ref = &ops_done;
        let swaps_done_ref = &swaps_done;
        let mid_run_swaps_ref = &mid_run_swaps;
        let active_workers_ref = &active_workers;
        let n_swaps = cfg.swaps;
        scope.spawn(move || {
            if n_swaps == 0 {
                return;
            }
            let mut admin =
                NetClient::connect_timeout(admin_addr, WIRE_DEADLINE).expect("admin connect");
            for swap in 0..n_swaps {
                let threshold = total_ops_target * (swap as u64 + 1) / (n_swaps as u64 + 1);
                while ops_done_ref.load(Ordering::Relaxed) < threshold {
                    std::thread::yield_now();
                }
                // Alternate the component so successive snapshots differ
                // (mirrors the in-process trainer).
                let eps = if swap % 2 == 0 { 0.0 } else { 0.1 };
                let training = TrainingConfig {
                    model: ModelSpec::Vmm(VmmConfig::with_epsilon(eps)),
                    ..TrainingConfig::default()
                };
                let next = ModelSnapshot::from_raw_logs(trainer_records, &training);
                let generation = swap as u64 + 1;
                let path: PathBuf = trainer_scratch.join(format!("gen-{generation}.sqps"));
                save_snapshot(
                    &path,
                    &next,
                    &SnapshotMeta::describe(&next, generation, trainer_records.len() as u64),
                )
                .expect("save retrained snapshot");
                let published = admin
                    .publish(path.to_str().expect("utf-8 scratch path"))
                    .expect("publish over the admin port");
                assert_eq!(published, generation, "admin publish generation");
                let live = active_workers_ref.load(Ordering::Relaxed) > 0;
                swaps_done_ref.fetch_add(1, Ordering::Relaxed);
                if live {
                    mid_run_swaps_ref.fetch_add(1, Ordering::Relaxed);
                }
            }
        });

        // Workers: the serve_loop traffic, one keep-alive connection each.
        let handles: Vec<_> = (0..cfg.threads)
            .map(|thread| {
                let ops_done = &ops_done;
                let nonempty = &nonempty;
                let swaps_done = &swaps_done;
                let active_workers = &active_workers;
                let vocabulary = &vocabulary;
                let cfg = *cfg;
                scope.spawn(move || {
                    let mut client = NetClient::connect_timeout(serve_addr, WIRE_DEADLINE)
                        .expect("bench client connect");
                    active_workers.fetch_add(1, Ordering::Relaxed);
                    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (thread as u64) << 32);
                    let mut lat = Vec::with_capacity(cfg.ops_per_thread);
                    let user_base = thread as u64 * 1_000_000;
                    let mut op = 0usize;
                    while op < cfg.ops_per_thread
                        || swaps_done.load(Ordering::Relaxed) < cfg.swaps as u64
                    {
                        let now = (op as u64) * 2 + if op.is_multiple_of(101) { 3_600 } else { 0 };
                        let t = Instant::now();
                        if op % ServeLoopConfig::BATCH_EVERY == 7 {
                            let entries: Vec<BatchEntry> = (0..cfg.batch_size)
                                .map(|_| BatchEntry {
                                    user: user_base
                                        + rng.random_range(0u64..cfg.users_per_thread as u64),
                                    k: cfg.suggest_k,
                                })
                                .collect();
                            match client
                                .suggest_batch(&entries, now)
                                .expect("wire suggest_batch")
                            {
                                BatchAnswer::Lists(lists) => nonempty.fetch_add(
                                    lists.iter().filter(|s| !s.is_empty()).count() as u64,
                                    Ordering::Relaxed,
                                ),
                                BatchAnswer::Overloaded { .. } => 0,
                            };
                        } else if op.is_multiple_of(997) {
                            client.evict_idle(now).expect("wire evict");
                        } else {
                            let user =
                                user_base + rng.random_range(0u64..cfg.users_per_thread as u64);
                            let query = if rng.random_range(0u32..32) == 0 {
                                format!("oov-{thread}-{op}")
                            } else {
                                vocabulary[rng.random_range(0usize..vocabulary.len())].clone()
                            };
                            match client
                                .track_and_suggest(user, &query, cfg.suggest_k, now)
                                .expect("wire track_and_suggest")
                            {
                                ServeAnswer::Suggestions(s) if !s.is_empty() => {
                                    nonempty.fetch_add(1, Ordering::Relaxed);
                                }
                                ServeAnswer::Suggestions(_) | ServeAnswer::Overloaded { .. } => {}
                            }
                        }
                        lat.push(t.elapsed().as_nanos() as u64);
                        ops_done.fetch_add(1, Ordering::Relaxed);
                        op += 1;
                    }
                    active_workers.fetch_sub(1, Ordering::Relaxed);
                    lat
                })
            })
            .collect();
        latencies = handles.into_iter().map(|h| h.join().unwrap()).collect();
        elapsed = started.elapsed().as_secs_f64();
    });

    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let ops_total = all.len() as u64;

    // Post-run accounting over the wire: stats probe, then a final idle
    // sweep — the same epilogue the in-process run performs directly.
    let mut probe = NetClient::connect_timeout(serve_addr, WIRE_DEADLINE).expect("stats probe");
    let wire_stats = probe.stats().expect("final wire stats");
    let evicted_at_end = probe.evict_idle(u64::MAX / 2).expect("final evict") as usize;
    drop(probe);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);

    ServeLoopReport {
        threads: cfg.threads,
        ops_total,
        suggests_total: wire_stats.suggests,
        nonempty_suggestions: nonempty.load(Ordering::Relaxed),
        elapsed_secs: elapsed,
        throughput_ops_per_sec: ops_total as f64 / elapsed.max(1e-9),
        p50_us: percentile_us(&all, 0.50),
        p99_us: percentile_us(&all, 0.99),
        max_us: percentile_us(&all, 1.0),
        swaps_completed: swaps_done.load(Ordering::Relaxed),
        mid_run_swaps: mid_run_swaps.load(Ordering::Relaxed),
        final_generation: wire_stats.generation,
        active_sessions: wire_stats.active_sessions as usize,
        evicted_at_end,
    }
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_loop_runs_the_serve_loop_workload() {
        let cfg = ServeLoopConfig {
            threads: 2,
            ops_per_thread: 400,
            users_per_thread: 16,
            suggest_k: 3,
            batch_size: 4,
            swaps: 1,
            corpus_sessions: 200,
            seed: 11,
        };
        let report = run_wire(&cfg);
        assert!(report.ops_total >= 800);
        assert_eq!(report.swaps_completed, 1);
        assert_eq!(report.final_generation, 1, "admin publish must land");
        assert!(report.nonempty_suggestions > 0);
        assert!(report.p99_us > 0.0);
    }
}
