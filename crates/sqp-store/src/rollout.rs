//! [`Publish`], the one way a model reaches a serving tier, and its two
//! impls: a [`ServeEngine`] (a one-member roll) and a [`RouterEngine`]
//! (fan-out and rolling upgrades with per-replica quarantine).
//!
//! Two publication shapes for a [`RouterEngine`]:
//!
//! * [`publish_from_path`](crate::publish_from_path) — **fan-out**, the
//!   same function that publishes into one engine: load and validate the
//!   file *once*, then swap the same `Arc` into every replica. One model
//!   allocation serves the whole tier; an unreadable file publishes
//!   nowhere (all replicas keep serving, converged on the old
//!   generation).
//! * [`Publish::rolling_publish`] — **rolling upgrade**: each
//!   replica performs its *own* read-and-validate of the file, in replica
//!   order, publishing as it goes. This is the deployment shape for
//!   validating new bytes incrementally: replica 0 is the canary, and mid-
//!   roll the tier deliberately serves two generations (each user still
//!   sees exactly one, because routing is sticky and each replica swaps
//!   atomically). A replica whose load or validation fails is
//!   **quarantined** — pinned serving its last-good snapshot, failure
//!   recorded in [`RouterStats`](sqp_router::RouterStats) — and the roll
//!   continues or aborts by [`RollPolicy`]. Rolls run concurrently with
//!   live membership changes: a replica that leaves the tier mid-roll is
//!   recorded in [`RollReport::retired`] (never panicked on), and one
//!   that joins behind the leading edge is brought up by a trailing pass
//!   (see [`Publish::rolling_publish_with`]).
//!
//! Everything runs through the [`FsIo`] seam, so the chaos harness can
//! fail exactly one replica's read mid-roll and replay it bit-identically
//! (the `router-soak` tests in `sqp-soak` do exactly that).

use crate::format::{load_snapshot_with, SnapshotMeta};
use sqp_common::fsio::{FsIo, RealFs};
use sqp_router::RouterEngine;
use sqp_serve::{ModelSnapshot, ServeEngine, ServeSurface};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// What a rolling upgrade does when one replica's publish fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RollPolicy {
    /// Quarantine the failed replica and keep upgrading the rest. The tier
    /// ends skewed (failed replicas on last-good) but maximally fresh —
    /// right when the new generation is known-good and a failure is
    /// probably replica-local (an io blip on one read).
    ContinueOnFailure,
    /// Quarantine the failed replica and skip all later replicas, leaving
    /// them on the old generation. Right when a failure casts doubt on the
    /// new bytes themselves: the canary replica absorbs the damage and the
    /// bulk of the tier never touches the suspect file.
    AbortOnFailure,
}

/// One replica's step in a rolling upgrade, as seen by the `on_step`
/// observer callback.
#[derive(Debug)]
pub struct RollStep {
    /// The replica that was just attempted.
    pub replica: usize,
    /// Its new engine generation on success, or why it was quarantined.
    pub outcome: Result<u64, String>,
}

/// Outcome of a [`Publish::rolling_publish`] run.
#[derive(Debug, Default)]
pub struct RollReport {
    /// Metadata of the target snapshot (from the first load that reached
    /// a publish); `None` when no replica managed to read the file.
    pub meta: Option<SnapshotMeta>,
    /// Replicas now serving the new generation, in upgrade order
    /// (replicas that joined mid-roll and were repaired by the trailing
    /// pass included).
    pub upgraded: Vec<usize>,
    /// Replicas that failed and were quarantined, with their errors.
    pub failed: Vec<(usize, String)>,
    /// Replicas never attempted because the roll aborted first.
    pub skipped: Vec<usize>,
    /// Replicas that left the tier mid-roll (a concurrent retire or
    /// remove) before their step could publish. Not counted against
    /// [`complete`](Self::complete): a replica that is gone serves
    /// nothing, on any generation.
    pub retired: Vec<usize>,
    /// True when [`RollPolicy::AbortOnFailure`] stopped the roll early.
    pub aborted: bool,
}

impl RollReport {
    /// True when every replica still in the tier now serves the target
    /// generation.
    pub fn complete(&self) -> bool {
        self.failed.is_empty() && self.skipped.is_empty()
    }
}

/// The one way a model reaches a serving tier: an in-memory snapshot
/// ([`publish`](Self::publish)) or a snapshot file rolled member by
/// member ([`rolling_publish_with`](Self::rolling_publish_with)). Both
/// in-process tiers implement it — a [`ServeEngine`] is a one-member
/// roll, a [`RouterEngine`] rolls its replicas — and so does nothing
/// else: a remote tier's servers load files from their own disks, so it
/// is published to through each server's admin port.
/// [`publish_from_path`](crate::publish_from_path) is the file-driven
/// fan-out over this trait.
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_router::{RouterConfig, RouterEngine};
/// use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
/// use sqp_store::{save_snapshot, Publish, RollPolicy, SnapshotMeta};
/// use std::sync::Arc;
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let corpus = |tag: &str| -> ModelSnapshot {
///     let records: Vec<_> = (0..5)
///         .flat_map(|u| [rec(u, 100, "tea"), rec(u, 140, &format!("{tag} kettle"))])
///         .collect();
///     let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
///     ModelSnapshot::from_raw_logs(&records, &cfg)
/// };
///
/// let router = RouterEngine::new(Arc::new(corpus("old")), RouterConfig::default());
/// let fresh = corpus("new");
/// let path = std::env::temp_dir().join(format!("sqp-doc-roll-{}.sqps", std::process::id()));
/// save_snapshot(&path, &fresh, &SnapshotMeta::describe(&fresh, 1, 10)).unwrap();
///
/// let report = router.rolling_publish(&path, RollPolicy::ContinueOnFailure);
/// assert!(report.complete());
/// assert!(router.stats().is_converged());
/// assert_eq!(router.suggest_context(&["tea"], 1)[0].query, "new kettle");
/// # std::fs::remove_file(&path).unwrap();
/// ```
pub trait Publish: ServeSurface {
    /// Swap `snapshot` into every member (an atomic swap each, any
    /// quarantine lifted). Returns the tier's fully-propagated generation
    /// afterwards.
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64;

    /// Upgrade members one at a time, each re-reading and re-validating
    /// the file through the default filesystem. See
    /// [`rolling_publish_with`](Self::rolling_publish_with).
    fn rolling_publish(&self, path: &Path, policy: RollPolicy) -> RollReport {
        self.rolling_publish_with(&RealFs, path, policy, &mut |_| {})
    }

    /// Upgrade members one at a time through an explicit [`FsIo`] (the
    /// chaos seam), invoking `on_step` after every member attempt — the
    /// hook tests use to hold the tier mid-roll, and operators use to
    /// pace a canary bake.
    ///
    /// A [`ServeEngine`] is member 0 of a one-member roll: it loads the
    /// file and publishes it, or reports `failed: [(0, error)]` and keeps
    /// serving its current model (an engine has no quarantine flag);
    /// `on_step` fires once and nothing is ever skipped or aborted.
    ///
    /// A [`RouterEngine`], per replica, in id order over the membership
    /// pinned at roll start (draining replicas included — they are still
    /// serving): read + validate the file (container checksum and section
    /// structure), check its metadata matches the first load that reached
    /// a publish (a file swapped mid-roll must not split the tier across
    /// *three* generations), and atomically publish. Failures quarantine
    /// that replica — it keeps serving its last-good snapshot — and the
    /// roll continues or aborts per `policy`.
    ///
    /// A roll takes no membership lock, so the tier may reconfigure
    /// under it; both directions are absorbed rather than raced:
    ///
    /// * a replica **retired or removed mid-roll** is re-resolved at its
    ///   step against the live tier and recorded in
    ///   [`RollReport::retired`] (no step callback — it is no longer part
    ///   of the tier being upgraded), never panicked on;
    /// * a replica that **joined mid-roll** seeds from the freshest live
    ///   replica, which is the roll's leading edge once the canary has
    ///   published — but a join landing *before* that would seed the old
    ///   generation and end the roll a full generation behind with no
    ///   roll in flight. A trailing pass re-checks the live membership
    ///   after the pinned pass and rolls onto any such joiner (own
    ///   read-and-validate step, `on_step` fired, reported in
    ///   `upgraded`/`failed` like any other replica) until a check finds
    ///   none.
    fn rolling_publish_with(
        &self,
        io: &dyn FsIo,
        path: &Path,
        policy: RollPolicy,
        on_step: &mut dyn FnMut(&RollStep),
    ) -> RollReport;
}

impl Publish for ServeEngine {
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        ServeEngine::publish(self, snapshot)
    }

    fn rolling_publish_with(
        &self,
        io: &dyn FsIo,
        path: &Path,
        _policy: RollPolicy,
        on_step: &mut dyn FnMut(&RollStep),
    ) -> RollReport {
        let mut report = RollReport::default();
        let outcome = match load_snapshot_with(io, path) {
            Ok((snapshot, meta)) => {
                report.meta = Some(meta);
                report.upgraded.push(0);
                Ok(ServeEngine::publish(self, Arc::new(snapshot)))
            }
            Err(error) => {
                let error = error.to_string();
                report.failed.push((0, error.clone()));
                Err(error)
            }
        };
        on_step(&RollStep {
            replica: 0,
            outcome,
        });
        report
    }
}

impl Publish for RouterEngine {
    fn publish(&self, snapshot: Arc<ModelSnapshot>) -> u64 {
        RouterEngine::publish(self, snapshot)
    }

    fn rolling_publish_with(
        &self,
        io: &dyn FsIo,
        path: &Path,
        policy: RollPolicy,
        on_step: &mut dyn FnMut(&RollStep),
    ) -> RollReport {
        let mut report = RollReport::default();
        // Pin the membership once for the main pass. Ids are not handles:
        // each step re-resolves its id against the live tier (see the
        // trait docs for how departures and joins mid-roll are absorbed).
        let pinned: Vec<usize> = self
            .replica_ids()
            .into_iter()
            .map(|id| id as usize)
            .collect();
        let mut attempted: BTreeSet<usize> = pinned.iter().copied().collect();
        for replica in pinned {
            if report.aborted {
                report.skipped.push(replica);
                continue;
            }
            roll_step(self, io, path, policy, &mut report, on_step, replica);
        }
        // Trailing pass: roll onto replicas that joined mid-roll and
        // seeded behind the leading edge, until a check finds none. Each
        // id is attempted at most once, so the loop terminates as soon as
        // joins stop arriving. An aborted roll leaves trailing joiners
        // alone for the same reason it leaves the pinned tail skipped.
        while !report.aborted {
            let stats = self.stats();
            let target = stats.max_generation();
            let trailing: Vec<usize> = stats
                .replicas
                .iter()
                .filter(|row| {
                    row.stats.publishes < target && !attempted.contains(&(row.id as usize))
                })
                .map(|row| row.id as usize)
                .collect();
            if trailing.is_empty() {
                break;
            }
            for replica in trailing {
                attempted.insert(replica);
                if report.aborted {
                    report.skipped.push(replica);
                    continue;
                }
                roll_step(self, io, path, policy, &mut report, on_step, replica);
            }
        }
        report
    }
}

/// One replica's step of a roll: load, validate, identity-check, publish,
/// with quarantine on failure — all against the **live** membership. A
/// replica whose id no longer resolves (it retired or was removed since
/// the roll pinned it) goes to `report.retired` with no `on_step` call.
fn roll_step(
    router: &RouterEngine,
    io: &dyn FsIo,
    path: &Path,
    policy: RollPolicy,
    report: &mut RollReport,
    on_step: &mut dyn FnMut(&RollStep),
    replica: usize,
) {
    let attempt = load_snapshot_with(io, path)
        .map_err(|error| error.to_string())
        .and_then(|(snapshot, meta)| match &report.meta {
            // The file changed identity mid-roll: publishing it would
            // split the tier across three generations, so treat it as
            // this replica's failure.
            Some(first) if *first != meta => Err(format!(
                "snapshot changed mid-roll: first replica loaded generation {}, \
                 this replica loaded generation {}",
                first.generation, meta.generation
            )),
            _ => Ok((snapshot, meta)),
        });
    let outcome = match attempt {
        Ok((snapshot, meta)) => match router.try_publish_to(replica, Arc::new(snapshot)) {
            Some(generation) => {
                report.meta.get_or_insert(meta);
                report.upgraded.push(replica);
                Ok(generation)
            }
            None => {
                report.retired.push(replica);
                return;
            }
        },
        Err(error) => {
            if !router.try_mark_quarantined(replica, error.clone()) {
                report.retired.push(replica);
                return;
            }
            report.failed.push((replica, error.clone()));
            if policy == RollPolicy::AbortOnFailure {
                report.aborted = true;
            }
            Err(error)
        }
    };
    on_step(&RollStep { replica, outcome });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::save_snapshot;
    use crate::retrain::snapshot_file_name;
    use crate::warm::publish_from_path;
    use sqp_logsim::RawLogRecord;
    use sqp_router::RouterConfig;
    use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
    use std::path::PathBuf;

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
        let dir = std::env::temp_dir().join(format!("sqp-rollout-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn save(dir: &Path, generation: u64, prefix: &str) -> PathBuf {
        let snapshot = trained(prefix);
        let path = dir.join(snapshot_file_name(generation));
        save_snapshot(
            &path,
            &snapshot,
            &SnapshotMeta::describe(&snapshot, generation, 12),
        )
        .unwrap();
        path
    }

    fn router() -> RouterEngine {
        RouterEngine::new(
            Arc::new(trained("old")),
            RouterConfig {
                replicas: 4,
                ..RouterConfig::default()
            },
        )
    }

    #[test]
    fn fan_out_publishes_every_replica_from_one_load() {
        let dir = scratch("fanout");
        let path = save(&dir, 1, "new");
        let r = router();
        let published = publish_from_path(&r, &path).unwrap();
        assert_eq!(published.engine_generation, 1);
        assert_eq!(published.meta.generation, 1);
        let stats = r.stats();
        assert!(stats.is_converged());
        assert_eq!(stats.max_generation(), 1);
        // One Arc serves all replicas.
        for index in 1..r.replica_count() {
            assert!(Arc::ptr_eq(
                &r.replica(0).snapshot(),
                &r.replica(index).snapshot()
            ));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fan_out_failure_touches_nothing() {
        let dir = scratch("fanout-bad");
        let r = router();
        assert!(publish_from_path(&r, dir.join("missing.sqps")).is_err());
        let stats = r.stats();
        assert!(stats.is_converged());
        assert_eq!(stats.max_generation(), 0);
        assert_eq!(stats.quarantined(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolling_publish_upgrades_in_order_and_completes() {
        let dir = scratch("roll");
        let path = save(&dir, 1, "new");
        let r = router();
        let mut seen = Vec::new();
        let report =
            r.rolling_publish_with(&RealFs, &path, RollPolicy::ContinueOnFailure, &mut |step| {
                // Observe genuine mid-roll skew: after replica 0's step,
                // replicas 1.. still serve the old generation.
                if step.replica == 0 {
                    let stats = r.stats();
                    assert_eq!(stats.generation_skew(), 1);
                }
                seen.push(step.replica);
            });
        assert!(report.complete());
        assert_eq!(report.upgraded, vec![0, 1, 2, 3]);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(report.meta.unwrap().generation, 1);
        assert!(r.stats().is_converged());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_quarantines_everyone_or_aborts() {
        let dir = scratch("roll-missing");
        let r = router();
        let report = r.rolling_publish(&dir.join("missing.sqps"), RollPolicy::ContinueOnFailure);
        assert_eq!(report.failed.len(), 4);
        assert!(report.meta.is_none());
        assert_eq!(r.stats().quarantined(), 4);

        let r2 = router();
        let report = r2.rolling_publish(&dir.join("missing.sqps"), RollPolicy::AbortOnFailure);
        assert!(report.aborted);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.skipped, vec![1, 2, 3]);
        assert_eq!(r2.stats().quarantined(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_swapped_mid_roll_fails_later_replicas() {
        let dir = scratch("roll-swap");
        let path = save(&dir, 1, "new");
        let r = router();
        let mut steps = 0;
        let report =
            r.rolling_publish_with(&RealFs, &path, RollPolicy::ContinueOnFailure, &mut |step| {
                steps += 1;
                if step.replica == 1 {
                    // Overwrite the file with a different generation while
                    // the roll is between replicas 1 and 2.
                    let snapshot = trained("sneaky");
                    save_snapshot(&path, &snapshot, &SnapshotMeta::describe(&snapshot, 9, 12))
                        .unwrap();
                }
            });
        assert_eq!(steps, 4);
        assert_eq!(report.upgraded, vec![0, 1]);
        assert_eq!(report.failed.len(), 2);
        assert!(report.failed[0].1.contains("changed mid-roll"));
        // The tier serves generations {0 (quarantined last-good), 1} — the
        // sneaky generation 9 never reached any replica.
        let stats = r.stats();
        assert_eq!(stats.max_generation(), 1);
        assert_eq!(stats.quarantined(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_retired_mid_roll_is_recorded_not_panicked() {
        let dir = scratch("roll-retire");
        let path = save(&dir, 1, "new");
        let r = router();
        let report =
            r.rolling_publish_with(&RealFs, &path, RollPolicy::ContinueOnFailure, &mut |step| {
                if step.replica == 0 {
                    // Between replica 0's publish and replica 1's step,
                    // replica 2 drains and retires — exactly the
                    // concurrency a live tier allows, since rolls take no
                    // membership lock.
                    r.begin_drain(2, 0).unwrap();
                    r.retire_replica(2).unwrap();
                }
            });
        assert_eq!(report.upgraded, vec![0, 1, 3]);
        assert_eq!(report.retired, vec![2]);
        assert!(report.complete(), "a departed replica is not a failure");
        assert!(r.stats().is_converged());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_removed_mid_roll_is_not_quarantined_posthumously() {
        let dir = scratch("roll-remove");
        let r = router();
        // Every step fails (missing file); replica 2 vanishes after the
        // canary's step, so its failure has no live replica to quarantine.
        let report = r.rolling_publish_with(
            &RealFs,
            &dir.join("missing.sqps"),
            RollPolicy::ContinueOnFailure,
            &mut |step| {
                if step.replica == 0 {
                    r.remove_replica(2).unwrap();
                }
            },
        );
        let failed_ids: Vec<usize> = report.failed.iter().map(|(id, _)| *id).collect();
        assert_eq!(failed_ids, vec![0, 1, 3]);
        assert_eq!(report.retired, vec![2]);
        assert_eq!(r.stats().quarantined(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// An [`FsIo`] that joins a replica into the tier on the first read —
    /// i.e. *before the canary publishes*, the one window where a joiner
    /// seeds the old generation and the pinned pass would leave it behind.
    struct JoinOnFirstRead<'a> {
        router: &'a RouterEngine,
        joined: std::sync::atomic::AtomicBool,
    }

    impl FsIo for JoinOnFirstRead<'_> {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            if !self.joined.swap(true, std::sync::atomic::Ordering::SeqCst) {
                self.router.join_replica(0);
            }
            RealFs.read(path)
        }
        fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            RealFs.write_atomic(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(path)
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            RealFs.list(dir)
        }
    }

    #[test]
    fn joiner_seeded_before_the_canary_is_repaired_by_the_trailing_pass() {
        let dir = scratch("roll-join");
        let path = save(&dir, 1, "new");
        let r = router();
        let io = JoinOnFirstRead {
            router: &r,
            joined: std::sync::atomic::AtomicBool::new(false),
        };
        let report = r.rolling_publish_with(&io, &path, RollPolicy::ContinueOnFailure, &mut |_| {});
        // The joiner (id 4) seeded generation 0, so the pinned pass alone
        // would have ended the roll with it a full generation behind and
        // no roll in flight; the trailing pass rolls onto it.
        assert_eq!(report.upgraded, vec![0, 1, 2, 3, 4]);
        assert!(report.complete());
        let stats = r.stats();
        assert!(stats.is_converged(), "joiner left behind: {stats:?}");
        assert_eq!(stats.max_generation(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantined_replica_serves_last_good_until_good_publish() {
        let dir = scratch("roll-recover");
        let r = router();
        // Every replica fails: bogus file.
        std::fs::write(dir.join("bogus.sqps"), b"not a snapshot").unwrap();
        let report = r.rolling_publish(&dir.join("bogus.sqps"), RollPolicy::ContinueOnFailure);
        assert_eq!(report.failed.len(), 4);
        // Still serving the old model.
        assert_eq!(r.suggest_context(&["start"], 1)[0].query, "old::next");
        // A later good fan-out lifts all quarantines.
        let path = save(&dir, 1, "new");
        publish_from_path(&r, &path).unwrap();
        assert_eq!(r.stats().quarantined(), 0);
        assert_eq!(r.suggest_context(&["start"], 1)[0].query, "new::next");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_engine_is_a_one_member_roll() {
        let dir = scratch("roll-engine");
        let engine = ServeEngine::new(Arc::new(trained("old")), Default::default());
        let mut steps = Vec::new();
        let report = engine.rolling_publish_with(
            &RealFs,
            &dir.join("missing.sqps"),
            RollPolicy::AbortOnFailure,
            &mut |step| steps.push((step.replica, step.outcome.is_ok())),
        );
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, 0);
        assert!(report.upgraded.is_empty() && report.skipped.is_empty() && !report.aborted);
        assert_eq!(engine.generation(), 0, "a failed roll keeps the old model");
        assert_eq!(engine.suggest_context(&["start"], 1)[0].query, "old::next");

        let path = save(&dir, 1, "new");
        let report = engine.rolling_publish_with(
            &RealFs,
            &path,
            RollPolicy::ContinueOnFailure,
            &mut |step| steps.push((step.replica, step.outcome.is_ok())),
        );
        assert_eq!(report.upgraded, vec![0]);
        assert!(report.complete());
        assert_eq!(report.meta.map(|meta| meta.generation), Some(1));
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.suggest_context(&["start"], 1)[0].query, "new::next");
        assert_eq!(steps, vec![(0, false), (0, true)], "one step per roll");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
