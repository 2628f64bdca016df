//! Warm start: boot and refresh serving directly from snapshot files.
//!
//! Cold start (retrain from raw logs) takes seconds to minutes; warm start
//! (load a snapshot file) takes milliseconds, because the file's section
//! layout lets every structure be pre-sized. A serving binary boots with
//! [`load_snapshot`] and `ServeEngine::new`, then hot-swaps each newly
//! written file into the live tier with [`publish_from_path`] — one engine
//! or a replicated one (the file-system half of the retrain loop: one
//! process retrains and saves, the serving process publishes the file).
//!
//! # Examples
//!
//! ```
//! use sqp_logsim::RawLogRecord;
//! use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
//! use sqp_store::{load_snapshot, save_snapshot, SnapshotMeta};
//! use std::sync::Arc;
//!
//! let rec = |machine, ts, q: &str| RawLogRecord {
//!     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
//! };
//! let records: Vec<_> = (0..5)
//!     .flat_map(|u| [rec(u, 100, "tea"), rec(u, 140, "tea kettle")])
//!     .collect();
//! let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
//! let trained = ModelSnapshot::from_raw_logs(&records, &cfg);
//!
//! let path = std::env::temp_dir().join(format!("sqp-doc-warm-{}.sqps", std::process::id()));
//! save_snapshot(&path, &trained, &SnapshotMeta::describe(&trained, 0, 10)).unwrap();
//!
//! // Warm start: no raw logs, no retraining — just the file.
//! let (snapshot, _meta) = load_snapshot(&path).unwrap();
//! let engine = ServeEngine::new(Arc::new(snapshot), EngineConfig::default());
//! assert_eq!(engine.suggest_context(&["tea"], 1)[0].query, "tea kettle");
//! # std::fs::remove_file(&path).unwrap();
//! ```

use crate::error::SnapshotError;
use crate::format::{load_snapshot, SnapshotMeta};
use crate::rollout::Publish;
use std::path::Path;
use std::sync::Arc;

/// What [`publish_from_path`] swapped in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    /// The tier's generation after the publish, as [`Publish::publish`]
    /// reports it: publishes into *this* engine (a replicated tier's
    /// minimum across replicas), not snapshot-file generations.
    pub engine_generation: u64,
    /// Metadata of the snapshot file that was published.
    pub meta: SnapshotMeta,
}

/// Load a snapshot file and publish it into a live tier through
/// [`Publish::publish`]: one atomic swap for a single engine, the same
/// `Arc` fanned out to every replica of a replicated tier (one model
/// allocation for the whole tier; any quarantine is lifted). The load and
/// validation happen entirely before any swap, so a bad file publishes
/// nowhere and the tier keeps serving its current model; in-flight
/// requests finish on the old snapshot.
pub fn publish_from_path(
    tier: &(impl Publish + ?Sized),
    path: impl AsRef<Path>,
) -> Result<Published, SnapshotError> {
    let (snapshot, meta) = load_snapshot(path)?;
    let engine_generation = tier.publish(Arc::new(snapshot));
    Ok(Published {
        engine_generation,
        meta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::save_snapshot;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn saved(dir: &Path, name: &str, prefix: &str, generation: u64) -> std::path::PathBuf {
        let records: Vec<_> = (0..6)
            .flat_map(|u| {
                [
                    rec(u, 100, "start"),
                    rec(u, 150, &format!("{prefix}::next")),
                ]
            })
            .collect();
        let snapshot = ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        );
        let path = dir.join(name);
        save_snapshot(
            &path,
            &snapshot,
            &SnapshotMeta::describe(&snapshot, generation, records.len() as u64),
        )
        .unwrap();
        path
    }

    fn warm_start(path: &Path) -> ServeEngine {
        let (snapshot, _meta) = load_snapshot(path).unwrap();
        ServeEngine::new(Arc::new(snapshot), EngineConfig::default())
    }

    #[test]
    fn from_path_then_publish_from_path() {
        let dir = std::env::temp_dir().join(format!("sqp-warm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let first = saved(&dir, "gen0.sqps", "old", 0);
        let second = saved(&dir, "gen1.sqps", "new", 1);

        let engine = warm_start(&first);
        engine.track(7, "start", 100);
        assert_eq!(engine.suggest(7, 1, 110)[0].query, "old::next");

        let published = publish_from_path(&engine, &second).unwrap();
        assert_eq!(published.engine_generation, 1);
        assert_eq!(published.meta.generation, 1);
        // Tracked session state survives the swap (text-based contexts).
        assert_eq!(engine.suggest(7, 1, 120)[0].query, "new::next");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_file_leaves_live_engine_untouched() {
        let dir = std::env::temp_dir().join(format!("sqp-warm-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = saved(&dir, "good.sqps", "old", 0);
        let engine = warm_start(&good);

        let corrupt = dir.join("corrupt.sqps");
        let mut raw = std::fs::read(&good).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&corrupt, &raw).unwrap();

        assert!(publish_from_path(&engine, &corrupt).is_err());
        assert!(publish_from_path(&engine, dir.join("missing.sqps")).is_err());
        assert_eq!(engine.generation(), 0, "failed publishes must not swap");
        assert_eq!(
            engine.suggest_context(&["start"], 1)[0].query,
            "old::next",
            "engine still serves the original model"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
