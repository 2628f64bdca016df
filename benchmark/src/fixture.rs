//! What every workload shares: the run's options, the simulated corpus,
//! the training recipe, and the repeated set-up.

use crate::hist::median;
use crate::script::HeldOut;
use sqp_core::VmmConfig;
use sqp_logsim::{SimConfig, SimulatedLogs};
use sqp_serve::{ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_store::{load_snapshot, save_snapshot, SnapshotMeta};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How much of everything a run uses. `full` is what `BENCHMARK.json`
/// measures; `quick` exists so the whole command can run in a test.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub train_sessions: usize,
    pub held_out_sessions: usize,
    /// Users of a serving workload, split evenly over its client threads.
    pub users: usize,
    /// Times the set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Fewest timed rounds, whatever `--seconds` says.
    pub min_rounds: usize,
    /// Mix repetitions per thread per round, per serving workload. Sized
    /// so a round takes about a second on the 2-core reference box.
    pub engine_groups: usize,
    pub wire_groups: usize,
    pub tier_groups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        train_sessions: 200_000,
        held_out_sessions: 2_000,
        users: 100_000,
        setup_reps: 3,
        min_rounds: 3,
        engine_groups: 12_000,
        wire_groups: 1_000,
        tier_groups: 160,
    };

    pub const QUICK: Scale = Scale {
        train_sessions: 20_000,
        held_out_sessions: 500,
        users: 4_000,
        setup_reps: 1,
        min_rounds: 1,
        engine_groups: 2_000,
        wire_groups: 40,
        tier_groups: 8,
    };
}

#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Wall-clock budget of the timed rounds.
    pub timed_seconds: f64,
    /// Also run the counted and oracle rounds and report per-layer metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Self-test: corrupt one reference reply in the oracle round.
    pub corrupt_oracle: bool,
    /// Where snapshots, traces and results go (inside the checkout).
    pub out_dir: PathBuf,
}

impl Opts {
    /// Client threads of a serving workload — one keep-alive connection
    /// each on the two wire workloads: one per core, at most 2. The tier's
    /// callers are front-end processes that hold a connection and wait for
    /// each reply; more clients than cores would only time-slice the
    /// generator against the system under test.
    pub fn clients(&self) -> usize {
        host_threads().min(2)
    }
}

pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub struct Corpus {
    pub logs: SimulatedLogs,
    pub held_out: HeldOut,
    pub generate_ms: f64,
}

impl Corpus {
    pub fn generate(opts: &Opts) -> Self {
        let started = Instant::now();
        let logs = sqp_logsim::generate(&SimConfig::small(
            opts.scale.train_sessions,
            opts.scale.held_out_sessions,
            opts.seed,
        ));
        let generate_ms = ms_since(started);
        let held_out = HeldOut::new(&logs.truth.test_sessions);
        Self {
            logs,
            held_out,
            generate_ms,
        }
    }
}

/// The model every workload serves: the paper's VMM at ε = 0.05, with the
/// library's `parallel` default left on.
pub fn training() -> TrainingConfig {
    TrainingConfig {
        model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ..TrainingConfig::default()
    }
}

pub fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1_000.0
}

/// A model trained from the raw log, saved, and loaded back — the way a
/// restarted server comes up. Both copies are kept: they are
/// content-identical, which is what a mid-round publish swaps between.
pub struct Model {
    pub trained: Arc<ModelSnapshot>,
    pub loaded: Arc<ModelSnapshot>,
    pub train_ms: f64,
}

pub fn snapshot_path(opts: &Opts, workload: &str) -> PathBuf {
    opts.out_dir.join(format!("{workload}.sqps"))
}

pub fn train_save_load(corpus: &Corpus, path: &Path) -> Model {
    let started = Instant::now();
    let trained = ModelSnapshot::from_raw_logs(&corpus.logs.train, &training());
    let train_ms = ms_since(started);

    let meta = SnapshotMeta::describe(&trained, 0, corpus.logs.train.len() as u64);
    save_snapshot(path, &trained, &meta).expect("snapshot saves inside the checkout");

    let (loaded, _) = load_snapshot(path).expect("a just-saved snapshot loads");

    Model {
        trained: Arc::new(trained),
        loaded: Arc::new(loaded),
        train_ms,
    }
}

/// Timings of one set-up, in ms. Their sum is the set-up time.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `ModelSnapshot::from_raw_logs`.
    pub train_ms: f64,
    /// Save, load, engine or tier construction, server start, connects.
    pub boot_ms: f64,
    /// Tracking every user's first queries.
    pub warm_sessions_ms: f64,
}

/// Set a workload up `opts.scale.setup_reps` times, tearing down all but
/// the last: train, save and load the model, `build` the engine or tier
/// from it, then `warm` its sessions. Returns the last one, its model and
/// every repetition's timings.
pub fn set_up<T>(
    corpus: &Corpus,
    opts: &Opts,
    workload: &str,
    mut build: impl FnMut(&Model) -> T,
    mut warm: impl FnMut(&T),
    mut teardown: impl FnMut(T),
) -> (T, Model, Vec<SetupTimes>) {
    let path = snapshot_path(opts, workload);
    let mut times = Vec::new();
    let mut last: Option<(T, Model)> = None;
    for _ in 0..opts.scale.setup_reps.max(1) {
        if let Some((previous, _)) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let model = train_save_load(corpus, &path);
        let built = build(&model);
        let boot_ms = ms_since(started) - model.train_ms;
        let warming = Instant::now();
        warm(&built);
        times.push(SetupTimes {
            train_ms: model.train_ms,
            boot_ms,
            warm_sessions_ms: ms_since(warming),
        });
        last = Some((built, model));
    }
    let (built, model) = last.expect("at least one set-up ran");
    (built, model, times)
}

/// Report `setup_s` and the set-up split as medians over the repetitions.
pub fn report_setup(
    report: &mut crate::metrics::Report,
    times: &[SetupTimes],
    serving: bool,
    traced: bool,
) {
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    report.end_to_end(
        "setup_s",
        med(|t| t.train_ms + t.boot_ms + t.warm_sessions_ms) / 1_000.0,
    );
    if traced {
        report.layer("setup.train_ms", med(|t| t.train_ms));
        report.layer("setup.boot_ms", med(|t| t.boot_ms));
        if serving {
            report.layer("setup.warm_sessions_ms", med(|t| t.warm_sessions_ms));
        }
    }
}
