//! # sqp-store — the model lifecycle subsystem
//!
//! The paper's deployment sketch (§V-F.2) assumes the trained model is
//! "loaded into RAM for real-time online query prediction". This crate is
//! everything between *trained* and *loaded*: full-snapshot persistence,
//! warm-start serving, and the incremental retrain loop that keeps a live
//! engine fresh.
//!
//! Three layers:
//!
//! * [`mod@format`] — **snapshot persistence**: one versioned, checksummed
//!   file carrying the frozen [`Interner`](sqp_common::Interner), the
//!   trained model behind a [`ModelKind`] tag, and lifecycle
//!   [`SnapshotMeta`]. [`save_snapshot`] / [`load_snapshot`] round-trip a
//!   ready [`ModelSnapshot`](sqp_serve::ModelSnapshot); the length-prefixed
//!   section layout (specified byte-by-byte in the repository's
//!   `FORMAT.md`) lets the loader pre-size every structure.
//! * [`warm`] — **warm start**: [`load_snapshot`] boots a
//!   [`ServeEngine`](sqp_serve::ServeEngine) directly from a snapshot
//!   file; [`publish_from_path`] hot-swaps a newly written file into a
//!   live tier, one engine or a replicated one.
//! * [`retrain`] — the **retrain loop**: a [`Retrainer`] buffers incoming
//!   [`RawLogRecord`](sqp_logsim::RawLogRecord)s and, on a background
//!   scoped thread, re-runs the training pipeline over a sliding corpus
//!   window, writes each generation to disk, loads it back, validates it
//!   ([`quarantine`]: [`validate_snapshot_file`], `*.quarantine` parking,
//!   rollback to the [`newest_good_snapshot`]) and only then publishes it
//!   through the engine's swap cell. Training panics are isolated, saves
//!   retry with capped backoff, and a circuit breaker degrades to "serve
//!   the last good snapshot" under persistent failure, all reported as
//!   typed [`RetrainerHealth`] — the repo's end-to-end
//!   log-stream → retrain → hot-swap → suggest scenario.
//!
//! Every load-path failure is a typed [`SnapshotError`]; corrupted,
//! truncated, or wrong-version files can never produce a partial snapshot
//! or a panic.
//!
//! And for the replicated tier ([`RouterEngine`](sqp_router::RouterEngine)):
//!
//! * [`rollout`] — **[`Publish`]**, the one way a model reaches a tier,
//!   implemented by the two in-process tiers only: where
//!   [`publish_from_path`] loads a snapshot file once and swaps it into
//!   every replica, [`Publish::rolling_publish`] upgrades replicas one at
//!   a time (each re-validating the bytes itself), quarantining a failed
//!   replica on its last-good snapshot while the roll continues or aborts
//!   by [`RollPolicy`]; a single engine is a one-member roll.
//!
//! The retrain loop and the roll run on the [`sqp_common::fsio::FsIo`] /
//! [`sqp_common::clock::Clock`] / [`sqp_common::hazard::Hazard`] seams, so
//! the `sqp-faults` chaos harness can drive them through deterministic
//! disk faults, virtual time, and scheduled panics.
//!
//! # Examples
//!
//! The full lifecycle in one sitting — train, save, warm-start, retrain,
//! publish:
//!
//! ```
//! use sqp_logsim::RawLogRecord;
//! use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
//! use sqp_store::{load_snapshot, save_snapshot, RetrainConfig, Retrainer, SnapshotMeta};
//! use std::sync::Arc;
//!
//! let rec = |machine, ts, q: &str| RawLogRecord {
//!     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
//! };
//! let seed: Vec<_> = (0..6)
//!     .flat_map(|u| [rec(u, 100, "news"), rec(u, 160, "news today")])
//!     .collect();
//! let training = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
//!
//! // Offline: train and persist generation 0.
//! let trained = ModelSnapshot::from_raw_logs(&seed, &training);
//! let path = std::env::temp_dir().join(format!("sqp-doc-lib-{}.sqps", std::process::id()));
//! save_snapshot(&path, &trained, &SnapshotMeta::describe(&trained, 0, seed.len() as u64)).unwrap();
//!
//! // Online: warm-start serving from the file, then fold in new traffic.
//! let (snapshot, _meta) = load_snapshot(&path).unwrap();
//! let engine = ServeEngine::new(Arc::new(snapshot), EngineConfig::default());
//! let retrainer = Retrainer::new(
//!     RetrainConfig { training, ..RetrainConfig::default() },
//!     seed,
//! );
//! for u in 100..110 {
//!     retrainer.ingest(rec(u, 100, "news"));
//!     retrainer.ingest(rec(u, 160, "news live stream"));
//! }
//! retrainer.step(&engine);
//! assert_eq!(retrainer.health().retrains_ok, 1);
//! assert_eq!(engine.generation(), 1);
//! assert!(engine
//!     .suggest_context(&["news"], 2)
//!     .iter()
//!     .any(|s| s.query == "news live stream"));
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod error;
pub mod format;
pub mod quarantine;
pub mod retrain;
pub mod rollout;
pub mod warm;

pub use error::{RetrainError, SnapshotError};
pub use format::{
    fnv1a64_words, load_snapshot, load_snapshot_with, parse_section_table, save_snapshot,
    save_snapshot_with, snapshot_from_bytes, snapshot_from_vec, snapshot_to_bytes, SectionEntry,
    SnapshotMeta, FORMAT_VERSION, MAGIC,
};
pub use quarantine::{
    newest_good_snapshot, quarantine_file, quarantine_path, validate_snapshot_file,
};
pub use retrain::{
    latest_generation_on_disk, latest_generation_on_disk_with, parse_snapshot_name,
    rotate_snapshots_with, snapshot_file_name, BreakerState, RetrainConfig, Retrainer,
    RetrainerHealth, RotationReport, StepOutcome,
};
pub use rollout::{Publish, RollPolicy, RollReport, RollStep};
pub use warm::{publish_from_path, Published};

// The model-kind tag is defined next to the model codecs in sqp-core;
// re-exported here because it is part of the snapshot file's vocabulary.
pub use sqp_core::persist::ModelKind;
