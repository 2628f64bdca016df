//! The retrain loop: log stream in, validated snapshot generations out.
//!
//! Closes the paper's offline→online gap. Serving threads (or a log
//! tailer) [`ingest`](Retrainer::ingest) raw records as traffic arrives; a
//! background thread — spawned into a caller-owned
//! [`scope`](std::thread::scope) so it can borrow the engine and can never
//! outlive it — waits until enough new traffic has buffered and runs one
//! [`step`](Retrainer::step): re-run the full
//! `segment → aggregate → reduce → train` pipeline over a sliding window of
//! recent records ([`SlidingCorpus`]), write the new generation to disk as
//! a snapshot, load the file back, validate it, and publish it through
//! the engine's `Swap` cell. Serving never pauses: requests in flight
//! finish on the old snapshot, later ones see the new one.
//!
//! ```text
//! traffic ─▶ ingest ─▶ pending ─┐            (engine keeps serving)
//!                               ▼
//!              [retrain thread] drain → sliding window → train
//!                               │
//!              save dir/snapshot-NNNNNNNN.sqps → load back → validate
//!                               │
//!                  engine.publish(Arc<ModelSnapshot>)  — atomic swap
//! ```
//!
//! **The publication policy**: a generation is published only after it was
//! saved, loaded back and validated, and what is published is the *loaded*
//! snapshot — serving state is exactly what a restart would recover. A
//! failed step leaves the engine on its last good snapshot. With
//! [`snapshot_dir: None`](RetrainConfig::snapshot_dir) there is nothing to
//! persist or validate against; that memory-only mode publishes the
//! trained snapshot directly.
//!
//! A step survives its own failures:
//!
//! * **Panic isolation** — training runs under
//!   [`catch_unwind`](std::panic::catch_unwind); a crashed training
//!   computation becomes a typed [`RetrainError::TrainingPanicked`], not a
//!   dead loop, and the drained window stays in the sliding corpus for the
//!   next attempt.
//! * **Save retries** — disk writes retry with capped exponential backoff
//!   (through the [`Clock`] seam, so tests run the waits virtually).
//! * **Quarantine and rollback** — a file that fails validation
//!   ([`validate_snapshot_file`]) is quarantined and serving rolls back to
//!   the newest good generation on disk.
//! * **Circuit breaker** — consecutive failures past a threshold trip the
//!   loop [`BreakerState::Open`]: retrain attempts stop, the engine keeps
//!   serving its last good snapshot, and after a cooldown one half-open
//!   probe attempt decides between recovery and re-tripping. The state
//!   machine is the shared [`sqp_common::breaker::Breaker`] — the same one
//!   `sqp-net`'s `RemoteEngine` uses per endpoint.

use crate::error::{RetrainError, SnapshotError};
use crate::format::{save_snapshot_with, SnapshotMeta};
use crate::quarantine::{newest_good_snapshot, quarantine_file, validate_snapshot_file};
use sqp_common::breaker::{Admission, Backoff, Breaker, BreakerConfig};
use sqp_common::clock::{Clock, RealClock};
use sqp_common::fsio::{FsIo, RealFs};
use sqp_common::hazard::{Hazard, NoHazard};
use sqp_logsim::RawLogRecord;
use sqp_serve::{ModelSnapshot, ServeEngine, TrainingConfig};
use sqp_sessions::SlidingCorpus;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

pub use sqp_common::breaker::BreakerState;

/// Parameters of the retrain loop.
#[derive(Clone, Debug)]
pub struct RetrainConfig {
    /// Pipeline + model parameters for each retrain.
    pub training: TrainingConfig,
    /// Retrain as soon as this many new records have buffered. Lower =
    /// fresher model, more training CPU; production deployments tune this
    /// to their retrain cadence.
    pub min_batch: usize,
    /// Sliding training window, in raw records — old traffic beyond this
    /// falls out of the next retrain.
    pub window_records: usize,
    /// Where snapshot generations are written (`snapshot-NNNNNNNN.sqps`).
    /// `None` is the memory-only mode (tests, single-process setups): the
    /// trained snapshot is published without being saved or validated.
    pub snapshot_dir: Option<PathBuf>,
    /// How many snapshot generations to keep on disk (min 1); older files
    /// are deleted after each successful publish.
    pub keep: usize,
    /// How long the loop sleeps between checks for new traffic or
    /// shutdown.
    pub poll: Duration,
    /// Snapshot-save attempts per step (min 1) before the step fails with
    /// [`RetrainError::SaveFailed`].
    pub max_save_attempts: u32,
    /// Backoff before the first save retry; doubles per retry.
    pub backoff_initial: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive step failures that trip the breaker open (min 1). A
    /// failed half-open probe re-trips immediately regardless.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before allowing one half-open
    /// probe attempt.
    pub cooldown: Duration,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            training: TrainingConfig::default(),
            min_batch: 1_024,
            window_records: 1 << 20,
            snapshot_dir: None,
            keep: 3,
            poll: Duration::from_millis(5),
            max_save_attempts: 3,
            backoff_initial: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            cooldown: Duration::from_secs(5),
        }
    }
}

/// Point-in-time health of the retrain loop, for operators and tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetrainerHealth {
    /// Current breaker position.
    pub breaker: BreakerState,
    /// Consecutive failed steps (reset by any success).
    pub consecutive_failures: u32,
    /// Steps that published a validated generation.
    pub retrains_ok: u64,
    /// Steps that failed (panic, save exhaustion, quarantine).
    pub failures: u64,
    /// Individual save retries performed across all steps.
    pub save_retries: u64,
    /// Snapshot files quarantined after failing validation.
    pub quarantined: u64,
    /// Rollback publishes performed after a quarantine.
    pub rollbacks: u64,
    /// Unreadable files skipped over by rollback scans.
    pub rollback_files_skipped: u64,
    /// Rotation passes that reported per-file deletion errors.
    pub rotation_errors: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Times a half-open probe closed the breaker again.
    pub breaker_recoveries: u64,
    /// Steps refused because the breaker was open.
    pub steps_skipped_open: u64,
    /// Generation of the last snapshot that passed validation and
    /// published (including rollback targets).
    pub last_good_generation: Option<u64>,
    /// Human-readable description of the most recent failure.
    pub last_error: Option<String>,
}

/// What one [`Retrainer::step`] did.
#[derive(Debug)]
pub enum StepOutcome {
    /// Nothing to train on (empty window).
    Idle,
    /// The breaker is open; no retrain was attempted.
    BreakerOpen {
        /// Milliseconds until the cooldown elapses and a half-open probe
        /// is allowed.
        remaining_millis: u64,
    },
    /// A generation was trained, persisted, validated, and published.
    Published {
        /// The published generation number.
        generation: u64,
        /// Where it lives on disk (`None` when no snapshot directory is
        /// configured).
        path: Option<PathBuf>,
    },
    /// The step failed; the engine keeps serving its last good snapshot.
    /// Details are also folded into [`RetrainerHealth`].
    Failed(RetrainError),
}

struct Queue {
    pending: Vec<RawLogRecord>,
    corpus: SlidingCorpus,
}

#[derive(Debug, Default)]
struct Tally {
    retrains_ok: u64,
    failures: u64,
    save_retries: u64,
    quarantined: u64,
    rollbacks: u64,
    rollback_files_skipped: u64,
    rotation_errors: u64,
    steps_skipped_open: u64,
    /// Last validated-and-published snapshot: generation and path. The
    /// path is additionally protected from rotation.
    last_good: Option<(u64, PathBuf)>,
    last_error: Option<String>,
}

/// The retrainer: a thread-safe ingest buffer plus the loop that turns
/// buffered traffic into validated, published snapshot generations.
///
/// All methods take `&self`; the intended shape is one `Retrainer` shared
/// between serving threads (ingest side) and one background loop (retrain
/// side) inside a [`std::thread::scope`].
///
/// # Examples
///
/// Drive one retrain step synchronously (the background loop calls exactly
/// this in a wait/step cycle):
///
/// ```
/// use std::sync::Arc;
/// use sqp_logsim::RawLogRecord;
/// use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
/// use sqp_store::{RetrainConfig, Retrainer, StepOutcome};
///
/// let rec = |machine, ts, q: &str| RawLogRecord {
///     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let seed: Vec<_> = (0..5)
///     .flat_map(|u| [rec(u, 100, "maps"), rec(u, 150, "maps directions")])
///     .collect();
/// let training = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
/// let engine = ServeEngine::new(
///     Arc::new(ModelSnapshot::from_raw_logs(&seed, &training)),
///     EngineConfig::default(),
/// );
///
/// let retrainer = Retrainer::new(
///     RetrainConfig { training, ..RetrainConfig::default() },
///     seed,
/// );
/// // Fresh traffic arrives with a new refinement…
/// for u in 10..20 {
///     retrainer.ingest(rec(u, 100, "maps"));
///     retrainer.ingest(rec(u, 150, "maps satellite view"));
/// }
/// // …and one retrain step folds it into the serving model.
/// let outcome = retrainer.step(&engine);
/// assert!(matches!(outcome, StepOutcome::Published { generation: 1, .. }));
/// assert_eq!(retrainer.health().retrains_ok, 1);
/// assert_eq!(engine.generation(), 1);
/// let top = engine.suggest_context(&["maps"], 1);
/// assert_eq!(top[0].query, "maps satellite view"); // new corpus wins
/// ```
pub struct Retrainer {
    cfg: RetrainConfig,
    io: Arc<dyn FsIo>,
    clock: Arc<dyn Clock>,
    hazard: Arc<dyn Hazard>,
    queue: Mutex<Queue>,
    arrived: Condvar,
    stop: AtomicBool,
    generations: AtomicU64,
    ingested: AtomicU64,
    breaker: Breaker,
    tally: Mutex<Tally>,
}

impl Retrainer {
    /// A retrainer whose first generation trains on `seed` (typically the
    /// records behind the currently-serving snapshot) plus whatever
    /// arrives before the first trigger, wired to the production seams
    /// (real filesystem, real clock, no-op hazard).
    ///
    /// Generation numbering continues from the newest `snapshot-*.sqps`
    /// already in `snapshot_dir`, so a process restart never reuses a
    /// generation number — "lexicographic order is generation order"
    /// (FORMAT.md) holds across restarts and rotation never deletes a
    /// newer file in favour of a stale one.
    pub fn new(cfg: RetrainConfig, seed: Vec<RawLogRecord>) -> Self {
        Self::with_seams(
            cfg,
            seed,
            Arc::new(RealFs),
            Arc::new(RealClock),
            Arc::new(NoHazard),
        )
    }

    /// [`new`](Retrainer::new) with explicit fault seams — the constructor
    /// chaos harnesses use to inject disk faults, virtual time, and
    /// scheduled panics.
    pub fn with_seams(
        cfg: RetrainConfig,
        seed: Vec<RawLogRecord>,
        io: Arc<dyn FsIo>,
        clock: Arc<dyn Clock>,
        hazard: Arc<dyn Hazard>,
    ) -> Self {
        let window = cfg.window_records.max(1);
        let start_generation = cfg
            .snapshot_dir
            .as_deref()
            .map_or(0, |dir| latest_generation_on_disk_with(&*io, dir));
        let breaker = Breaker::new(BreakerConfig {
            threshold: cfg.breaker_threshold,
            cooldown: cfg.cooldown,
        });
        Self {
            cfg,
            io,
            clock,
            hazard,
            queue: Mutex::new(Queue {
                pending: Vec::new(),
                corpus: SlidingCorpus::with_seed(window, seed),
            }),
            arrived: Condvar::new(),
            stop: AtomicBool::new(false),
            generations: AtomicU64::new(start_generation),
            ingested: AtomicU64::new(0),
            breaker,
            tally: Mutex::new(Tally::default()),
        }
    }

    /// Lock the ingest queue, recovering from poisoning. The queue holds a
    /// pending `Vec` and the sliding corpus; every mutation under the lock
    /// (extend, drain, append) leaves both valid at each step, so a thread
    /// that panicked mid-critical-section (e.g. an injected chaos panic)
    /// cannot have torn the state — serving and retraining safely continue.
    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_tally(&self) -> MutexGuard<'_, Tally> {
        // Poison recovery: `Tally` is counters plus small value fields,
        // each updated by single assignments — no torn intermediate state
        // is possible, so a poisoned lock still guards valid health data.
        self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Buffer one raw record for the next retrain.
    pub fn ingest(&self, record: RawLogRecord) {
        self.ingest_batch(std::iter::once(record));
    }

    /// Buffer a batch of raw records, waking the loop if the trigger
    /// threshold is now met.
    pub fn ingest_batch<I: IntoIterator<Item = RawLogRecord>>(&self, records: I) {
        let mut queue = self.lock_queue();
        let before = queue.pending.len();
        queue.pending.extend(records);
        self.ingested
            .fetch_add((queue.pending.len() - before) as u64, Ordering::Relaxed);
        if queue.pending.len() >= self.cfg.min_batch {
            self.arrived.notify_all();
        }
    }

    /// Records buffered but not yet folded into a retrain.
    pub fn pending(&self) -> usize {
        self.lock_queue().pending.len()
    }

    /// The newest snapshot generation number issued — on disk, quarantined
    /// or burned by a failed step. Starts at the newest generation found
    /// in `snapshot_dir` (0 when none) and rises when a step *reserves* a
    /// number, before it has saved or published anything: to learn that a
    /// publish landed, read [`RetrainerHealth::retrains_ok`] or the
    /// engine's generation instead.
    pub fn latest_generation(&self) -> u64 {
        self.generations.load(Ordering::Acquire)
    }

    /// Total records ingested so far.
    pub fn records_ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Ask the background loop to drain remaining traffic into one final
    /// retrain and exit. Safe to call from any thread, any number of
    /// times.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.arrived.notify_all();
    }

    /// True once [`shutdown`](Retrainer::shutdown) has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Snapshot of the loop's health.
    pub fn health(&self) -> RetrainerHealth {
        let breaker = self.breaker.stats();
        let tally = self.lock_tally();
        RetrainerHealth {
            breaker: breaker.state,
            consecutive_failures: breaker.consecutive_failures,
            retrains_ok: tally.retrains_ok,
            failures: tally.failures,
            save_retries: tally.save_retries,
            quarantined: tally.quarantined,
            rollbacks: tally.rollbacks,
            rollback_files_skipped: tally.rollback_files_skipped,
            rotation_errors: tally.rotation_errors,
            breaker_trips: breaker.trips,
            breaker_recoveries: breaker.recoveries,
            steps_skipped_open: tally.steps_skipped_open,
            last_good_generation: tally.last_good.as_ref().map(|(g, _)| *g),
            last_error: tally.last_error.clone(),
        }
    }

    /// Fold every buffered record into the sliding corpus and copy the
    /// current training window out, or `None` when the corpus is empty.
    /// Training then runs without holding the ingest lock — serving
    /// threads keep buffering mid-retrain. Drained records stay in the
    /// corpus, so a retrain that subsequently fails (panic, disk trouble)
    /// loses no traffic: the next attempt retrains on the same window.
    fn drain_window(&self) -> Option<Vec<RawLogRecord>> {
        let mut queue = self.lock_queue();
        let drained: Vec<RawLogRecord> = queue.pending.drain(..).collect();
        queue.corpus.append(drained);
        if queue.corpus.is_empty() {
            return None;
        }
        Some(queue.corpus.records().to_vec())
    }

    /// Claim the next snapshot generation number. Numbers are burned on
    /// attempt: a retrain that reserves a generation and then fails (save
    /// exhaustion, quarantine) never returns it, so a generation number
    /// on disk — good or quarantined — is globally unique and
    /// "lexicographic order is generation order" survives failed publishes.
    fn reserve_generation(&self) -> u64 {
        self.generations.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Block until at least `min_batch` records are buffered or shutdown
    /// is requested, whichever comes first (checked every `poll`). Returns
    /// true when the caller should run a final drain-and-exit step.
    ///
    /// A false return with an empty buffer never happens: the wait only
    /// ends below `min_batch` when shutting down.
    fn wait_for_work(&self) -> bool {
        let mut queue = self.lock_queue();
        while queue.pending.len() < self.cfg.min_batch && !self.is_shutting_down() {
            let (guard, _) = self
                .arrived
                .wait_timeout(queue, self.cfg.poll)
                // Poison recovery: see `lock_queue`.
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
        self.is_shutting_down()
    }

    /// Record a failed step: count it, remember the error, and feed the
    /// breaker (which trips at the threshold, or on any half-open probe
    /// failure).
    fn fail(&self, err: RetrainError) -> StepOutcome {
        {
            let mut tally = self.lock_tally();
            tally.failures += 1;
            tally.last_error = Some(err.to_string());
        }
        self.breaker.record_failure(self.clock.now_millis());
        StepOutcome::Failed(err)
    }

    /// Record a successful publish: close the breaker (counting a recovery
    /// if it was not closed) and remember the generation as last-good.
    fn succeed(&self, generation: u64, path: Option<PathBuf>) -> StepOutcome {
        {
            let mut tally = self.lock_tally();
            tally.retrains_ok += 1;
            if let Some(p) = &path {
                tally.last_good = Some((generation, p.clone()));
            }
        }
        self.breaker.record_success();
        StepOutcome::Published { generation, path }
    }

    /// Run one retrain step against `engine` now. The background loop is
    /// this in a wait/step cycle; calling it directly gives single-threaded
    /// setups a synchronous retrain.
    ///
    /// Pipeline: breaker admission → drain window → train (panic-isolated)
    /// → reserve generation → save (with retries) → load-back validation →
    /// publish the loaded snapshot → rotate. Any failure leaves the engine
    /// on its last good snapshot and feeds the breaker.
    pub fn step(&self, engine: &ServeEngine) -> StepOutcome {
        let admission = self.breaker.admit(self.clock.now_millis());
        if let Admission::Refused { remaining_millis } = admission {
            self.lock_tally().steps_skipped_open += 1;
            return StepOutcome::BreakerOpen { remaining_millis };
        }

        let Some(window) = self.drain_window() else {
            // An idle step neither proves nor disproves recovery: release
            // a held half-open probe slot so the next real step gets it.
            if admission == Admission::Probe {
                self.breaker.cancel_probe();
            }
            return StepOutcome::Idle;
        };

        // Train under panic isolation. The closure only borrows immutable
        // data (the window, the config) plus the hazard seam; a panic
        // cannot leave partial state behind, so AssertUnwindSafe holds.
        let trained = std::panic::catch_unwind(AssertUnwindSafe(|| {
            self.hazard.strike("store.retrain.train");
            ModelSnapshot::from_raw_logs(&window, &self.cfg.training)
        }));
        match trained {
            Ok(snapshot) => self.publish_trained(engine, snapshot, &window),
            Err(payload) => self.fail(RetrainError::TrainingPanicked(panic_text(payload))),
        }
    }

    /// The second half of a step: reserve a generation for `snapshot`
    /// (trained on `window`), save, load back, validate, publish, rotate.
    fn publish_trained(
        &self,
        engine: &ServeEngine,
        snapshot: ModelSnapshot,
        window: &[RawLogRecord],
    ) -> StepOutcome {
        let generation = self.reserve_generation();
        let meta = SnapshotMeta::describe(&snapshot, generation, window.len() as u64);

        let Some(dir) = self.cfg.snapshot_dir.as_deref() else {
            // Memory-only mode: nothing to persist or validate against.
            engine.publish(Arc::new(snapshot));
            return self.succeed(generation, None);
        };
        if let Err(e) = self.io.create_dir_all(dir) {
            return self.fail(RetrainError::SaveFailed {
                generation,
                attempts: 1,
                last: SnapshotError::Io(e),
            });
        }
        let path = dir.join(snapshot_file_name(generation));

        // Save with capped exponential backoff between attempts (jitter-free:
        // one retrainer per store, so there is no retry storm to decorrelate
        // and virtual-clock chaos digests stay stable).
        let max_attempts = self.cfg.max_save_attempts.max(1);
        let mut backoff = Backoff::new(self.cfg.backoff_initial, self.cfg.backoff_cap);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.hazard.strike("store.retrain.save");
            match save_snapshot_with(&*self.io, &path, &snapshot, &meta) {
                Ok(()) => break,
                Err(last) => {
                    // Only disk errors are worth retrying: anything else
                    // fails the same way on every attempt.
                    let retryable = matches!(last, SnapshotError::Io(_));
                    if !retryable || attempts >= max_attempts {
                        return self.fail(RetrainError::SaveFailed {
                            generation,
                            attempts,
                            last,
                        });
                    }
                    self.lock_tally().save_retries += 1;
                    self.clock.sleep(backoff.next_delay());
                }
            }
        }

        // Disk as source of truth: load the file back, validate it against
        // what we meant to write (probe: the window's first query), and
        // publish the *loaded* snapshot.
        self.hazard.strike("store.retrain.validate");
        let probe_query = window.first().map(|r| r.query.as_str());
        let probe_ctx: Vec<&str> = probe_query.into_iter().collect();
        match validate_snapshot_file(&*self.io, &path, &meta, Some((&snapshot, &probe_ctx))) {
            Ok(loaded) => {
                engine.publish(Arc::new(loaded));
                let rotation_error =
                    match rotate_snapshots_with(&*self.io, dir, self.cfg.keep, Some(&path)) {
                        Ok(report) if report.errors.is_empty() => None,
                        Ok(report) => Some(report.errors.join("; ")),
                        Err(e) => Some(e.to_string()),
                    };
                if let Some(e) = rotation_error {
                    let mut tally = self.lock_tally();
                    tally.rotation_errors += 1;
                    tally.last_error = Some(format!("rotation: {e}"));
                }
                self.succeed(generation, Some(path))
            }
            Err(cause) => self.quarantine_and_rollback(engine, generation, &path, cause),
        }
    }

    /// Validation failed: park the bad file under `*.quarantine`, roll the
    /// engine back to the newest good generation on disk, and record the
    /// failure.
    fn quarantine_and_rollback(
        &self,
        engine: &ServeEngine,
        generation: u64,
        path: &Path,
        cause: SnapshotError,
    ) -> StepOutcome {
        let mut cause = cause.to_string();
        if let Err(e) = quarantine_file(&*self.io, path) {
            // The rename itself failed (disk trouble on top of corruption):
            // the bad file stays at its canonical name, but rollback still
            // publishes a good model over it and the failure is recorded.
            cause = format!("{cause}; quarantine rename failed: {e}");
        }
        let dir = path.parent().unwrap_or_else(|| Path::new("."));
        let (found, skipped) = newest_good_snapshot(&*self.io, dir);
        let rolled_back_to = found.map(|(good_path, good_snapshot, good_meta)| {
            engine.publish(Arc::new(good_snapshot));
            let mut tally = self.lock_tally();
            tally.rollbacks += 1;
            tally.last_good = Some((good_meta.generation, good_path));
            good_meta.generation
        });
        {
            let mut tally = self.lock_tally();
            tally.quarantined += 1;
            tally.rollback_files_skipped += skipped as u64;
        }
        self.fail(RetrainError::Quarantined {
            generation,
            cause,
            rolled_back_to,
        })
    }

    /// The blocking retrain loop: wait for `min_batch` buffered records
    /// (or shutdown), [`step`](Retrainer::step), repeat; on shutdown, drain
    /// any remaining traffic through one final step. Runs until
    /// [`shutdown`](Retrainer::shutdown) and returns the final health.
    ///
    /// While the breaker is open the loop naps one poll interval per
    /// refused step instead of spinning.
    pub fn run(&self, engine: &ServeEngine) -> RetrainerHealth {
        loop {
            let stopping = self.wait_for_work();
            if stopping && self.pending() == 0 {
                break;
            }
            let refused = matches!(self.step(engine), StepOutcome::BreakerOpen { .. });
            if stopping {
                break;
            }
            if refused {
                self.clock.sleep(self.cfg.poll);
            }
        }
        self.health()
    }

    /// Spawn [`run`](Retrainer::run) as a background thread inside a
    /// caller-owned scope. The scope guarantees the loop cannot outlive
    /// the engine or the retrainer it borrows.
    pub fn spawn<'scope, 'env>(
        &'env self,
        scope: &'scope std::thread::Scope<'scope, 'env>,
        engine: &'env ServeEngine,
    ) -> std::thread::ScopedJoinHandle<'scope, RetrainerHealth> {
        scope.spawn(move || self.run(engine))
    }
}

/// Render a panic payload as text (panics carry `String` or `&str`
/// payloads in practice; anything else gets a placeholder).
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Canonical on-disk name of a snapshot generation
/// (`snapshot-NNNNNNNN.sqps`, zero-padded so lexicographic order is
/// generation order).
pub fn snapshot_file_name(generation: u64) -> String {
    format!("snapshot-{generation:08}.sqps")
}

/// Parse a generation number out of a canonical snapshot file name —
/// strictly `snapshot-N.sqps` or its quarantined form
/// `snapshot-N.sqps.quarantine`. Returns the generation and whether the
/// file is quarantined; anything else (aliens, tmp files) is `None`.
pub fn parse_snapshot_name(name: &str) -> Option<(u64, bool)> {
    let (rest, quarantined) = match name.strip_suffix(".quarantine") {
        Some(rest) => (rest, true),
        None => (name, false),
    };
    let generation = rest
        .strip_prefix("snapshot-")?
        .strip_suffix(".sqps")?
        .parse::<u64>()
        .ok()?;
    Some((generation, quarantined))
}

/// The newest generation number among snapshot files in `dir` — counting
/// quarantined (`*.sqps.quarantine`) files, so a generation that failed
/// validation is never reissued to a different model (0 when the directory
/// is missing, unreadable, or holds none). Used to continue numbering
/// across process restarts.
pub fn latest_generation_on_disk(dir: &Path) -> u64 {
    latest_generation_on_disk_with(&RealFs, dir)
}

/// [`latest_generation_on_disk`] through an explicit
/// [`FsIo`] seam.
pub fn latest_generation_on_disk_with(io: &dyn FsIo, dir: &Path) -> u64 {
    let Ok(entries) = io.list(dir) else {
        return 0;
    };
    entries
        .iter()
        .filter_map(|path| parse_snapshot_name(path.file_name()?.to_str()?))
        .map(|(generation, _)| generation)
        .max()
        .unwrap_or(0)
}

/// What one rotation pass did (and declined to do).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RotationReport {
    /// Old snapshot files deleted.
    pub removed: usize,
    /// Directory entries skipped because they are not canonical
    /// `snapshot-N.sqps` files (alien files, tmp leftovers, quarantined
    /// snapshots). Rotation never touches what it does not own.
    pub skipped: usize,
    /// Per-file deletion failures. Rotation keeps going past them — one
    /// undeletable file must not wedge the whole pass — so entries here
    /// mean disk usage is higher than `keep` intends, not that rotation
    /// aborted.
    pub errors: Vec<String>,
}

/// Rotate snapshot generations in `dir` down to the newest `keep` (min 1),
/// through an explicit [`FsIo`] seam.
///
/// Robustness contract:
///
/// * only canonical `snapshot-N.sqps` names are candidates — alien files,
///   `.tmp` leftovers, and quarantined snapshots are skipped (and counted),
///   never deleted;
/// * candidates are ordered by parsed generation number, and the newest
///   `keep` are always retained — rotation can never delete the newest
///   good generation;
/// * `protect` (the retrainer's last validated snapshot) is never
///   deleted, whatever its age;
/// * a file that fails to delete is reported in
///   [`RotationReport::errors`] and the pass continues.
///
/// Errors only when the directory itself cannot be listed.
pub fn rotate_snapshots_with(
    io: &dyn FsIo,
    dir: &Path,
    keep: usize,
    protect: Option<&Path>,
) -> Result<RotationReport, SnapshotError> {
    let mut report = RotationReport::default();
    let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
    for path in io.list(dir)? {
        match path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_snapshot_name)
        {
            Some((generation, false)) => snaps.push((generation, path)),
            _ => report.skipped += 1,
        }
    }
    snaps.sort();
    let keep = keep.max(1);
    let excess = snaps.len().saturating_sub(keep);
    for (generation, path) in snaps.into_iter().take(excess) {
        if protect.is_some_and(|p| p == path) {
            report.skipped += 1;
            continue;
        }
        match io.remove_file(&path) {
            Ok(()) => report.removed += 1,
            Err(e) => report.errors.push(format!(
                "remove generation {generation} ({}): {e}",
                path.display()
            )),
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_faults::VirtualClock;
    use sqp_serve::{EngineConfig, ModelSpec};

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    /// Six two-query sessions `start → {prefix}::next`. `machine_base`
    /// keeps batches on distinct machines so the 30-minute rule does not
    /// merge traffic from different batches into one session.
    fn batch_records(prefix: &str, machine_base: u64) -> Vec<RawLogRecord> {
        (machine_base..machine_base + 6)
            .flat_map(|u| {
                [
                    rec(u, 100, "start"),
                    rec(u, 150, &format!("{prefix}::next")),
                ]
            })
            .collect()
    }

    fn seed_records(prefix: &str) -> Vec<RawLogRecord> {
        batch_records(prefix, 0)
    }

    fn training() -> TrainingConfig {
        TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        }
    }

    fn engine(prefix: &str) -> ServeEngine {
        ServeEngine::new(
            Arc::new(ModelSnapshot::from_raw_logs(
                &seed_records(prefix),
                &training(),
            )),
            EngineConfig::default(),
        )
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sqp-retrain-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn serves(e: &ServeEngine, query: &str) -> bool {
        e.suggest_context(&["start"], 10)
            .iter()
            .any(|s| s.query == query)
    }

    #[test]
    fn steps_publish_the_loaded_file_and_rotate() {
        let dir = scratch_dir("rot");
        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                snapshot_dir: Some(dir.clone()),
                keep: 2,
                ..RetrainConfig::default()
            },
            seed_records("old"),
        );
        for generation in 1..=4u64 {
            retrainer.ingest_batch(batch_records(&format!("g{generation}"), generation * 100));
            let outcome = retrainer.step(&e);
            let StepOutcome::Published {
                generation: published,
                path,
            } = outcome
            else {
                panic!("{outcome:?}");
            };
            assert_eq!(published, generation);
            assert_eq!(e.generation(), generation);
            assert!(path.unwrap().exists());
        }
        let mut kept: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        kept.sort();
        assert_eq!(kept, ["snapshot-00000003.sqps", "snapshot-00000004.sqps"]);
        assert_eq!(retrainer.latest_generation(), 4);
        let health = retrainer.health();
        assert_eq!((health.retrains_ok, health.failures), (4, 0));
        assert_eq!(health.last_good_generation, Some(4));
        // The sliding window kept the newest traffic: g4's refinement is
        // among the served suggestions.
        assert!(serves(&e, "g4::next"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_and_memory_only_steps() {
        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                ..RetrainConfig::default()
            },
            Vec::new(),
        );
        assert!(matches!(retrainer.step(&e), StepOutcome::Idle));
        assert_eq!(e.generation(), 0);
        retrainer.ingest_batch(batch_records("fresh", 100));
        let outcome = retrainer.step(&e);
        assert!(
            matches!(
                outcome,
                StepOutcome::Published {
                    generation: 1,
                    path: None
                }
            ),
            "{outcome:?}"
        );
        assert_eq!(e.generation(), 1);
        let health = retrainer.health();
        assert_eq!(health.retrains_ok, 1);
        assert_eq!(health.breaker, BreakerState::Closed);
        // No snapshot dir: last_good tracks only persisted generations.
        assert_eq!(health.last_good_generation, None);
    }

    #[test]
    fn sliding_window_forgets_old_traffic() {
        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                // Window smaller than one seed corpus: only the newest
                // records survive.
                window_records: 12,
                ..RetrainConfig::default()
            },
            seed_records("old"),
        );
        retrainer.ingest_batch(batch_records("new", 100));
        assert!(matches!(retrainer.step(&e), StepOutcome::Published { .. }));
        assert!(serves(&e, "new::next"));
        assert!(
            !serves(&e, "old::next"),
            "old traffic should have slid out of the window"
        );
    }

    #[test]
    fn generation_numbering_continues_across_restarts() {
        let dir = scratch_dir("gen");
        std::fs::create_dir_all(&dir).unwrap();
        // A previous run left generation 5 behind (content irrelevant for
        // numbering) plus an unrelated file that must be ignored.
        std::fs::write(dir.join("snapshot-00000005.sqps"), b"stale").unwrap();
        std::fs::write(dir.join("notes.txt"), b"x").unwrap();

        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                snapshot_dir: Some(dir.clone()),
                keep: 2,
                ..RetrainConfig::default()
            },
            seed_records("old"),
        );
        assert_eq!(retrainer.latest_generation(), 5, "seeded from disk");
        let outcome = retrainer.step(&e);
        // The "restarted" process publishes generation 6, and rotation
        // (keep 2) retires the pre-restart file, never the new one — the
        // lexicographically-latest file is always the freshest model.
        assert!(
            matches!(outcome, StepOutcome::Published { generation: 6, .. }),
            "{outcome:?}"
        );
        assert!(dir.join("snapshot-00000006.sqps").exists());
        retrainer.ingest_batch(batch_records("fresh", 100));
        retrainer.step(&e);
        let mut kept: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|f| {
                let name = f.unwrap().file_name().into_string().unwrap();
                name.ends_with(".sqps").then_some(name)
            })
            .collect();
        kept.sort();
        assert_eq!(kept, ["snapshot-00000006.sqps", "snapshot-00000007.sqps"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_failure_publishes_nothing() {
        let blocker = scratch_dir("blk");
        // snapshot_dir points at a *file*, so create_dir_all fails.
        std::fs::write(&blocker, b"in the way").unwrap();
        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                snapshot_dir: Some(blocker.clone()),
                ..RetrainConfig::default()
            },
            seed_records("old"),
        );
        retrainer.ingest_batch(batch_records("fresh", 100));
        let outcome = retrainer.step(&e);
        assert!(
            matches!(
                outcome,
                StepOutcome::Failed(RetrainError::SaveFailed { generation: 1, .. })
            ),
            "{outcome:?}"
        );
        // What could not be persisted does not serve.
        assert_eq!(e.generation(), 0);
        assert!(!serves(&e, "fresh::next"));
        assert_eq!(retrainer.health().failures, 1);

        // The drained window stayed in the corpus: once the directory is
        // usable, the next step publishes the same traffic under the next
        // number (1 was burned).
        std::fs::remove_file(&blocker).unwrap();
        assert_eq!(retrainer.pending(), 0);
        let outcome = retrainer.step(&e);
        assert!(
            matches!(outcome, StepOutcome::Published { generation: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(e.generation(), 1);
        assert!(serves(&e, "fresh::next"));
        std::fs::remove_dir_all(&blocker).unwrap();
    }

    #[test]
    fn unsaveable_model_fails_on_the_first_attempt() {
        // A model with no `ModelKind` — an ad-hoc `Recommender` impl. No
        // `ModelSpec` trains one, so it enters the step after training.
        struct Adhoc;
        impl sqp_core::Recommender for Adhoc {
            fn name(&self) -> &str {
                "adhoc"
            }
            fn recommend_into(
                &self,
                _: &[sqp_common::QueryId],
                _: usize,
                out: &mut Vec<sqp_common::topk::Scored>,
            ) {
                out.clear();
            }
            fn covers(&self, _: &[sqp_common::QueryId]) -> bool {
                false
            }
            fn memory_bytes(&self) -> usize {
                0
            }
        }
        let adhoc = || ModelSnapshot::from_parts(sqp_common::Interner::new(), Box::new(Adhoc), 3);

        let dir = scratch_dir("adhoc");
        let e = engine("old");
        let clock = Arc::new(VirtualClock::new());
        let retrainer = |snapshot_dir| {
            Retrainer::with_seams(
                RetrainConfig {
                    snapshot_dir,
                    ..RetrainConfig::default()
                },
                seed_records("old"),
                Arc::new(RealFs),
                clock.clone(),
                Arc::new(NoHazard),
            )
        };

        let persisted = retrainer(Some(dir.clone()));
        let outcome = persisted.publish_trained(&e, adhoc(), &seed_records("old"));
        assert!(
            matches!(
                outcome,
                StepOutcome::Failed(RetrainError::SaveFailed {
                    attempts: 1,
                    last: SnapshotError::UnsupportedModel(_),
                    ..
                })
            ),
            "{outcome:?}"
        );
        assert_eq!(
            clock.now_millis(),
            0,
            "a deterministic error is not slept on"
        );
        assert_eq!(e.generation(), 0);
        let health = persisted.health();
        assert_eq!((health.failures, health.save_retries), (1, 0));
        let message = health.last_error.unwrap();
        assert!(message.contains("no persistable form"), "{message}");

        // Memory-only mode saves nothing, so any model publishes.
        let outcome = retrainer(None).publish_trained(&e, adhoc(), &seed_records("old"));
        assert!(
            matches!(outcome, StepOutcome::Published { path: None, .. }),
            "{outcome:?}"
        );
        assert_eq!(e.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_default_config_publishes_a_mixture_from_disk() {
        // `RetrainConfig::default()` trains the paper's MVMM; with a
        // directory the step saves it, loads it back and serves the loaded
        // mixture, which answers as the trained one.
        let dir = scratch_dir("mvmm");
        let e = engine("old");
        let cfg = RetrainConfig {
            snapshot_dir: Some(dir.clone()),
            ..RetrainConfig::default()
        };
        let trained = ModelSnapshot::from_raw_logs(&seed_records("old"), &cfg.training);
        assert_eq!(trained.model_name(), "MVMM");

        let outcome = Retrainer::new(cfg, seed_records("old")).step(&e);
        let StepOutcome::Published {
            generation: 1,
            path: Some(path),
        } = outcome
        else {
            panic!("{outcome:?}");
        };
        assert_eq!(e.generation(), 1);
        let (loaded, meta) = crate::load_snapshot(&path).unwrap();
        assert_eq!(meta.generation, 1);
        for snapshot in [&loaded, &*e.snapshot()] {
            assert_eq!(snapshot.model_name(), "MVMM");
            for ctx in [&["start"][..], &["old::next"], &["start", "old::next"]] {
                assert_eq!(snapshot.suggest(ctx, 5), trained.suggest(ctx, 5), "{ctx:?}");
            }
        }
        assert!(serves(&e, "old::next"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_skips_aliens_protects_last_good_and_collects_errors() {
        use sqp_common::fsio::RealFs;
        use std::io;

        /// Real filesystem, except files whose name contains `sticky`
        /// refuse to delete — models one undeletable file mid-rotation.
        struct StickyFs;
        impl FsIo for StickyFs {
            fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
                RealFs.read(path)
            }
            fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
                RealFs.write_atomic(path, bytes)
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                RealFs.rename(from, to)
            }
            fn remove_file(&self, path: &Path) -> io::Result<()> {
                if path.to_string_lossy().contains("00000002") {
                    return Err(io::Error::other("sticky file refuses deletion"));
                }
                RealFs.remove_file(path)
            }
            fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
                RealFs.create_dir_all(dir)
            }
            fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
                RealFs.list(dir)
            }
        }

        let dir = std::env::temp_dir().join(format!("sqp-rotate-rob-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Rotation orders by parsed generation and never reads contents.
        for generation in 1..=5u64 {
            std::fs::write(dir.join(snapshot_file_name(generation)), b"snap").unwrap();
        }
        // Non-candidates rotation must never touch: an operator note, a
        // crashed save's tmp leftover, a quarantined generation.
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();
        std::fs::write(dir.join("snapshot-00000009.sqps.tmp"), b"partial").unwrap();
        std::fs::write(dir.join("snapshot-00000004.sqps.quarantine"), b"bad").unwrap();

        // keep=2 over candidates 1..=5 → excess {1,2,3}; 1 is protected,
        // 2 refuses deletion, 3 actually goes.
        let protect = dir.join(snapshot_file_name(1));
        let report = rotate_snapshots_with(&StickyFs, &dir, 2, Some(&protect)).unwrap();
        assert_eq!(report.removed, 1);
        assert_eq!(report.skipped, 4, "3 aliens + 1 protected");
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0].contains("generation 2"),
            "{:?}",
            report.errors
        );

        let mut kept: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        kept.sort();
        assert_eq!(
            kept,
            [
                "notes.txt",
                "snapshot-00000001.sqps",
                "snapshot-00000002.sqps",
                "snapshot-00000004.sqps",
                "snapshot-00000004.sqps.quarantine",
                "snapshot-00000005.sqps",
                "snapshot-00000009.sqps.tmp",
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_never_deletes_the_newest_generation() {
        let dir = std::env::temp_dir().join(format!("sqp-rotate-newest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for generation in 1..=3u64 {
            std::fs::write(dir.join(snapshot_file_name(generation)), b"snap").unwrap();
        }
        // Even keep=0 clamps to 1: the newest generation always survives.
        let report = rotate_snapshots_with(&RealFs, &dir, 0, None).unwrap();
        assert_eq!(report.removed, 2);
        assert!(report.errors.is_empty());
        let survivors: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(survivors, ["snapshot-00000003.sqps"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_loop_drains_on_shutdown() {
        let e = engine("old");
        let retrainer = Retrainer::new(
            RetrainConfig {
                training: training(),
                min_batch: 12,
                ..RetrainConfig::default()
            },
            seed_records("old"),
        );
        let health = std::thread::scope(|scope| {
            let handle = retrainer.spawn(scope, &e);
            retrainer.ingest_batch(batch_records("fresh", 100));
            // Wait for the triggered retrain to land, then stop.
            while e.generation() == 0 {
                std::thread::yield_now();
            }
            retrainer.ingest(rec(99, 100, "tail"));
            retrainer.shutdown();
            handle.join().unwrap()
        });
        // One triggered retrain plus the shutdown drain of the tail record.
        assert_eq!(health.retrains_ok, 2);
        assert_eq!(e.generation(), 2);
        assert_eq!(health.failures, 0, "{:?}", health.last_error);
        assert_eq!(retrainer.records_ingested(), 13);
        assert_eq!(retrainer.pending(), 0);
    }
}
