//! Soak harnesses and their shared fixtures.
//!
//! Every soak drives seeded per-user traffic at a tier through the one
//! [`runner`]: a soak is a scenario (op mix, clock, observer, stop rule)
//! plus a control-plane closure, and the modules below hold the scenarios
//! the integration tests of the same name under `tests/` (and the CI soak
//! jobs) run. The harnesses assert accounting invariants and replay
//! digests; latency and throughput are measured by `benchmark/`, not here.
//! The fixtures below build identical, deterministic datasets across runs.

pub mod chaos;
pub mod membership_loop;
pub mod router_loop;
pub mod runner;
pub mod serve_loop;

use sqp_common::QuerySeq;
use sqp_core::VmmConfig;
use sqp_logsim::RawLogRecord;
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_sessions::pipeline::PipelineConfig;
use sqp_store::{save_snapshot, SnapshotMeta};
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// A VMM snapshot trained on the simulated corpus of `corpus_sessions`
/// sessions, plus its vocabulary (for drawing covered traffic) and the raw
/// records (for retraining). Generating the corpus is the expensive part,
/// so callers that compare tiers build it once and hand each tier the
/// same parts.
pub fn build_parts(
    corpus_sessions: usize,
    seed: u64,
) -> (Arc<ModelSnapshot>, Vec<String>, Vec<RawLogRecord>) {
    let sim = sqp_logsim::SimConfig::small(corpus_sessions, 10, seed);
    let records = sqp_logsim::generate(&sim).train;
    let training = TrainingConfig {
        model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ..TrainingConfig::default()
    };
    let snapshot = Arc::new(ModelSnapshot::from_raw_logs(&records, &training));
    let vocabulary: Vec<String> = snapshot
        .interner()
        .iter()
        .map(|(_, s)| s.to_owned())
        .collect();
    assert!(!vocabulary.is_empty(), "empty training vocabulary");
    (snapshot, vocabulary, records)
}

/// One raw log record without clicks.
pub fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

/// A snapshot whose every suggestion after `"seed"` is tagged
/// `{prefix}::…`, so an answer's provenance is readable off its text.
pub(crate) fn tagged_snapshot(prefix: &str) -> ModelSnapshot {
    let mut records = Vec::new();
    let mut machine = 0u64;
    for continuation in ["alpha", "beta", "gamma"] {
        for _ in 0..4 {
            records.push(rec(machine, 100, "seed"));
            records.push(rec(machine, 160, &format!("{prefix}::{continuation}")));
            machine += 1;
        }
    }
    ModelSnapshot::from_raw_logs(
        &records,
        &TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        },
    )
}

/// A router tier of `replicas` replicas serving
/// [`tagged_snapshot`]`(prefix)`.
pub(crate) fn tagged_tier(prefix: &str, replicas: usize) -> RouterEngine {
    let snapshot = Arc::new(tagged_snapshot(prefix));
    RouterEngine::new(
        snapshot,
        RouterConfig {
            replicas,
            ..RouterConfig::default()
        },
    )
}

/// Save [`tagged_snapshot`]`(prefix)` as generation `generation` in `dir`;
/// returns the file's path.
pub(crate) fn save_tagged(dir: &Path, prefix: &str, generation: u64) -> PathBuf {
    let snapshot = tagged_snapshot(prefix);
    let path = dir.join(format!("gen-{generation}.sqps"));
    let meta = SnapshotMeta::describe(&snapshot, generation, 24);
    save_snapshot(&path, &snapshot, &meta).expect("save a tagged snapshot");
    path
}

/// A fresh, empty directory under the system temp dir, private to this
/// process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqp-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the soak's scratch dir");
    dir
}
