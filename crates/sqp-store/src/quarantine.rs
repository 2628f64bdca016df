//! Snapshot quarantine and rollback: trust the disk, but verify it.
//!
//! The retrain loop treats the on-disk file — not the in-memory
//! training result — as the publication source of truth: after saving a
//! generation it loads the file back and validates it
//! ([`validate_snapshot_file`]) before anything reaches the serving engine.
//! A file that fails validation (corrupted in flight, short-read, wrong
//! metadata, diverging probe suggestions) is renamed to `*.quarantine`
//! ([`quarantine_file`]) — preserved for forensics, invisible to warm
//! starts and rotation — and serving rolls back to the newest good
//! generation still on disk ([`newest_good_snapshot`]).
//!
//! Everything here goes through the [`FsIo`] seam, so the chaos harness
//! can corrupt a write or fail a rollback read deterministically.

use crate::error::SnapshotError;
use crate::format::{load_snapshot_with, SnapshotMeta};
use crate::retrain::parse_snapshot_name;
use sqp_common::fsio::FsIo;
use sqp_serve::ModelSnapshot;
use std::path::{Path, PathBuf};

/// The quarantine name for a snapshot file (`<name>.quarantine` appended,
/// e.g. `snapshot-00000007.sqps.quarantine`).
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".quarantine");
    PathBuf::from(name)
}

/// Rename a failed snapshot file out of service. The file keeps its bytes
/// (an operator can inspect what corrupted) but its name no longer parses
/// as a live generation, so warm starts, rollback scans, and rotation all
/// ignore it. Returns the quarantine path.
pub fn quarantine_file(io: &dyn FsIo, path: &Path) -> Result<PathBuf, SnapshotError> {
    let target = quarantine_path(path);
    io.rename(path, &target)?;
    Ok(target)
}

/// Load `path` back and check it is fit to serve. Validation layers:
///
/// 1. **Container integrity** — the load itself re-verifies magic,
///    version, whole-file checksum, and section structure (any in-flight
///    corruption or truncated read fails here);
/// 2. **Metadata identity** — the file's [`SnapshotMeta`] must equal
///    `expect` (a stale or alien file at the right name fails here);
/// 3. **Probe smoke check** — when given, the loaded model's suggestions
///    for `probe.1` must equal `probe.0`'s (the freshly trained in-memory
///    snapshot): the file does not just parse, it *serves* identically.
///
/// Returns the loaded snapshot — the retrain loop publishes this
/// loaded-from-disk value, never the in-memory one, so what serves is
/// exactly what a restart would recover.
pub fn validate_snapshot_file(
    io: &dyn FsIo,
    path: &Path,
    expect: &SnapshotMeta,
    probe: Option<(&ModelSnapshot, &[&str])>,
) -> Result<ModelSnapshot, SnapshotError> {
    let (loaded, meta) = load_snapshot_with(io, path)?;
    if meta != *expect {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot meta mismatch: file says generation {} ({} sessions, {} records), \
             expected generation {} ({} sessions, {} records)",
            meta.generation,
            meta.trained_sessions,
            meta.source_records,
            expect.generation,
            expect.trained_sessions,
            expect.source_records,
        )));
    }
    if let Some((trained, context)) = probe {
        let want = trained.suggest(context, 5);
        let got = loaded.suggest(context, 5);
        if want != got {
            return Err(SnapshotError::Corrupt(format!(
                "probe suggestion mismatch for context {context:?}: \
                 trained model returns {want:?}, loaded file returns {got:?}"
            )));
        }
    }
    Ok(loaded)
}

/// The newest loadable generation in `dir`: scan `snapshot-N.sqps` files
/// newest-first and return the first that loads cleanly, together with how
/// many unreadable candidates were skipped on the way. Quarantined and
/// alien files are not candidates. Returns `(None, skipped)` when no
/// loadable snapshot exists (including when `dir` cannot be listed).
pub fn newest_good_snapshot(
    io: &dyn FsIo,
    dir: &Path,
) -> (Option<(PathBuf, ModelSnapshot, SnapshotMeta)>, usize) {
    let Ok(entries) = io.list(dir) else {
        return (None, 0);
    };
    let mut candidates: Vec<(u64, PathBuf)> = entries
        .into_iter()
        .filter_map(|path| {
            let (generation, quarantined) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_snapshot_name)?;
            (!quarantined).then_some((generation, path))
        })
        .collect();
    candidates.sort();
    let mut skipped = 0;
    for (_, path) in candidates.into_iter().rev() {
        match load_snapshot_with(io, &path) {
            Ok((snapshot, meta)) => return (Some((path, snapshot, meta)), skipped),
            // Unreadable or corrupt: skip, keep scanning older generations
            // — one bad file must not make the whole directory unbootable.
            Err(_) => skipped += 1,
        }
    }
    (None, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{save_snapshot, snapshot_to_bytes};
    use crate::retrain::snapshot_file_name;
    use sqp_common::fsio::RealFs;
    use sqp_logsim::RawLogRecord;
    use sqp_serve::{ModelSpec, TrainingConfig};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn trained(prefix: &str) -> ModelSnapshot {
        let records: Vec<_> = (0..6)
            .flat_map(|u| {
                [
                    rec(u, 100, "start"),
                    rec(u, 150, &format!("{prefix}::next")),
                ]
            })
            .collect();
        ModelSnapshot::from_raw_logs(
            &records,
            &TrainingConfig {
                model: ModelSpec::Adjacency,
                ..TrainingConfig::default()
            },
        )
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqp-quarantine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn validation_passes_a_clean_file_and_rejects_wrong_meta() {
        let dir = scratch("validate");
        let snapshot = trained("g1");
        let meta = SnapshotMeta::describe(&snapshot, 1, 12);
        let path = dir.join(snapshot_file_name(1));
        save_snapshot(&path, &snapshot, &meta).unwrap();

        let loaded =
            validate_snapshot_file(&RealFs, &path, &meta, Some((&snapshot, &["start"]))).unwrap();
        assert_eq!(
            loaded.suggest(&["start"], 1),
            snapshot.suggest(&["start"], 1)
        );

        let wrong = SnapshotMeta {
            generation: 9,
            ..meta
        };
        let err = validate_snapshot_file(&RealFs, &path, &wrong, None).unwrap_err();
        assert!(err.to_string().contains("meta mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probe_mismatch_is_rejected() {
        let dir = scratch("probe");
        // The file at generation 1's path actually holds a *different*
        // model trained to the same record counts — metadata matches, the
        // probe catches the divergence.
        let real = trained("real");
        let impostor = trained("impostor");
        let meta = SnapshotMeta::describe(&real, 1, 12);
        let path = dir.join(snapshot_file_name(1));
        save_snapshot(&path, &impostor, &meta).unwrap();

        assert!(validate_snapshot_file(&RealFs, &path, &meta, None).is_ok());
        let err =
            validate_snapshot_file(&RealFs, &path, &meta, Some((&real, &["start"]))).unwrap_err();
        assert!(
            err.to_string().contains("probe suggestion mismatch"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_renames_and_hides_from_scans() {
        let dir = scratch("rename");
        let snapshot = trained("g1");
        let meta = SnapshotMeta::describe(&snapshot, 1, 12);
        let path = dir.join(snapshot_file_name(1));
        save_snapshot(&path, &snapshot, &meta).unwrap();

        let parked = quarantine_file(&RealFs, &path).unwrap();
        assert!(!path.exists());
        assert_eq!(
            parked.file_name().unwrap().to_str().unwrap(),
            "snapshot-00000001.sqps.quarantine"
        );
        // Invisible to the rollback scan…
        let (found, skipped) = newest_good_snapshot(&RealFs, &dir);
        assert!(found.is_none());
        assert_eq!(skipped, 0);
        // …but still counted for generation numbering.
        assert_eq!(crate::retrain::latest_generation_on_disk(&dir), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rollback_scan_skips_unreadable_and_finds_newest_good() {
        let dir = scratch("scan");
        for generation in 1..=2u64 {
            let snapshot = trained(&format!("g{generation}"));
            let meta = SnapshotMeta::describe(&snapshot, generation, 12);
            save_snapshot(dir.join(snapshot_file_name(generation)), &snapshot, &meta).unwrap();
        }
        // Generation 3 is corrupt on disk; generation 4 never finished
        // (alien tmp name); plus an unrelated file.
        let mut bad = snapshot_to_bytes(&trained("g3"), &SnapshotMeta::default()).unwrap();
        bad[20] ^= 0xFF;
        std::fs::write(dir.join(snapshot_file_name(3)), &bad).unwrap();
        std::fs::write(dir.join("snapshot-00000004.sqps.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();

        let (found, skipped) = newest_good_snapshot(&RealFs, &dir);
        let (path, snapshot, meta) = found.expect("generation 2 is loadable");
        assert_eq!(meta.generation, 2);
        assert_eq!(path, dir.join(snapshot_file_name(2)));
        assert_eq!(snapshot.suggest(&["start"], 1)[0].query, "g2::next");
        assert_eq!(skipped, 1, "only the corrupt generation 3 is skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
