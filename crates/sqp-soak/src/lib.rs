//! Soak harnesses and their shared fixtures.
//!
//! Each module is one seeded multi-threaded scenario over the serving
//! stack, driven by the integration test of the same name under `tests/`
//! (and by the CI soak jobs). The harnesses assert accounting invariants
//! and replay digests; latency and throughput are measured by `benchmark/`,
//! not here. The fixtures below build identical, deterministic datasets
//! across runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod membership_loop;
pub mod router_loop;
pub mod serve_loop;

use sqp_common::QuerySeq;
use sqp_sessions::pipeline::PipelineConfig;

/// Weighted, aggregated training sessions from a deterministic simulated
/// corpus of roughly `n_sessions` sessions.
pub fn bench_sessions(n_sessions: usize, seed: u64) -> Vec<(QuerySeq, u64)> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, n_sessions / 4, seed);
    let logs = sqp_logsim::generate(&sim);
    sqp_sessions::pipeline::process(&logs, &PipelineConfig::default())
        .train
        .aggregated
        .sessions
}

/// Raw log records of a deterministic simulated corpus.
pub fn bench_records(n_sessions: usize, seed: u64) -> Vec<sqp_logsim::RawLogRecord> {
    let sim = sqp_logsim::SimConfig::small(n_sessions, 10, seed);
    sqp_logsim::generate(&sim).train
}
