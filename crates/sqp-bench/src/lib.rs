//! Shared fixtures and the timing harness for the benchmarks.
//!
//! Benchmarks need identical, deterministic datasets across runs so that
//! the harness statistics compare like against like; this crate builds them
//! once per process. The [`harness`] module replaces criterion (the
//! workspace builds with no external crates); [`baseline`] preserves the
//! pre-arena hashmap counter for equivalence tests and speedup accounting.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baseline;
pub mod chaos;
pub mod harness;
pub mod membership_loop;
pub mod net_loop;
pub mod router_loop;
pub mod serve_loop;

pub use harness::{BenchmarkId, Criterion};

use sqp_common::QuerySeq;
use sqp_sessions::pipeline::{PipelineConfig, ProcessedLogs};

/// Build a deterministic processed corpus of roughly `n_sessions` simulated
/// sessions suitable for training benchmarks.
pub fn bench_corpus(n_sessions: usize, seed: u64) -> ProcessedLogs {
    let sim = sqp_logsim::SimConfig::small(n_sessions, n_sessions / 4, seed);
    let logs = sqp_logsim::generate(&sim);
    sqp_sessions::pipeline::process(&logs, &PipelineConfig::default())
}

/// Weighted training sessions from a corpus (cloned so the bench owns them).
pub fn bench_sessions(n_sessions: usize, seed: u64) -> Vec<(QuerySeq, u64)> {
    bench_corpus(n_sessions, seed)
        .train
        .aggregated
        .sessions
        .clone()
}

/// Exactly `n_sessions` segmented, interned sessions with unit weight — the
/// pre-aggregation counting workload (aggregation collapses the simulated
/// corpus by ~10×, which makes micro-benchmarks noise-dominated).
pub fn bench_unaggregated_sessions(n_sessions: usize, seed: u64) -> Vec<(QuerySeq, u64)> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, 10, seed);
    let logs = sqp_logsim::generate(&sim);
    let sessions = sqp_sessions::segment_default(&logs.train);
    let mut interner = sqp_common::Interner::new();
    sessions
        .iter()
        .map(|s| (s.queries().map(|q| interner.intern(q)).collect(), 1))
        .collect()
}

/// Raw log records for pipeline benchmarks.
pub fn bench_records(n_sessions: usize, seed: u64) -> Vec<sqp_logsim::RawLogRecord> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, 10, seed);
    sqp_logsim::generate(&sim).train
}

/// Evaluation contexts (one per ground-truth entry) grouped by length.
pub fn bench_contexts(n_sessions: usize, seed: u64, len: usize, take: usize) -> Vec<QuerySeq> {
    bench_corpus(n_sessions, seed)
        .ground_truth
        .by_length(len)
        .take(take)
        .map(|e| e.context.clone())
        .collect()
}
