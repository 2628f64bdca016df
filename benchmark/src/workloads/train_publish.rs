//! `train_publish`: one caller thread retrains from the raw log, saves,
//! loads and publishes, cycle after cycle.
//!
//! `sqp-sessions`, `sqp-core` training and `sqp-store` do everything and
//! serving does nothing, so no serving change may move it. It is also
//! where the library's `parallel` knob is decided: a cycle's wall time is
//! `ops_per_s`, its CPU time is `cpu_us_per_op`, and with the knob on the
//! two differ.
//!
//! An op is one cycle and a round is one cycle, so `p50_us` is the median
//! cycle latency. A run has under a hundred cycles — no percentile beyond
//! the median has enough samples behind it to be reported.

use crate::fixture::{ms_since, report_setup, set_up, snapshot_path, training, Corpus, Opts};
use crate::hist::{iqr_pct, median};
use crate::metrics::Report;
use crate::oracle::{Digest, Reply};
use crate::procfs;
use crate::rounds::flip_one_score_bit;
use crate::script::K;
use sqp_common::Interner;
use sqp_core::counts::WindowCounts;
use sqp_core::{Vmm, VmmConfig};
use sqp_eval::{overall_coverage, overall_ndcg};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine};
use sqp_sessions::{aggregate, reduce, segment_with_parallelism, GroundTruth};
use sqp_store::{load_snapshot, save_snapshot, SnapshotMeta};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Held-out contexts each published model is checked with.
const PROBES: usize = 512;

/// One cycle's timings.
struct Cycle {
    total_s: f64,
    load_ms: f64,
    publish_us: f64,
}

fn cycle(
    corpus: &Corpus,
    engine: &ServeEngine,
    path: &Path,
    generation: u64,
) -> Result<Cycle, String> {
    let started = Instant::now();
    let trained = ModelSnapshot::from_raw_logs(&corpus.logs.train, &training());
    let meta = SnapshotMeta::describe(&trained, generation, corpus.logs.train.len() as u64);
    save_snapshot(path, &trained, &meta).map_err(|e| format!("save: {e}"))?;
    let loading = Instant::now();
    let (loaded, _) = load_snapshot(path).map_err(|e| format!("load: {e}"))?;
    let load_ms = ms_since(loading);
    let publishing = Instant::now();
    engine.publish(Arc::new(loaded));
    let publish_us = ms_since(publishing) * 1_000.0;
    Ok(Cycle {
        total_s: started.elapsed().as_secs_f64(),
        load_ms,
        publish_us,
    })
}

/// Ask the engine every probe; returns the digest of the answers and the
/// first one whose hash — texts and score bits — is not the `expected` one.
fn check_probes(
    engine: &ServeEngine,
    probes: &[Vec<&str>],
    expected: &[u64],
) -> (u64, Option<String>) {
    let mut digest = Digest::default();
    let mut first_wrong = None;
    for (probe, &want) in probes.iter().zip(expected) {
        let got = Reply::Suggestions(engine.suggest_context(probe, K));
        let hash = got.hash();
        digest.word(hash);
        if first_wrong.is_none() && hash != want {
            first_wrong = Some(format!(
                "probe {probe:?} answered {got:?}, not what the first model answers"
            ));
        }
    }
    (digest.0, first_wrong)
}

pub fn run(corpus: &Corpus, opts: &Opts) -> Report {
    let mut report = Report::new("train_publish");
    let (engine, model, times) = set_up(
        corpus,
        opts,
        "train_publish",
        |model| ServeEngine::new(Arc::clone(&model.loaded), EngineConfig::default()),
        |_| {},
        drop,
    );
    report_setup(&mut report, &times, false, opts.trace);
    let path = snapshot_path(opts, "train_publish");
    let probes = corpus.held_out.probe_contexts(PROBES);
    // Self-test: one expected score off by one bit must fail the run.
    let mut corrupt = opts.corrupt_oracle;
    let expected: Vec<u64> = probes
        .iter()
        .map(|p| {
            let mut want = Reply::Suggestions(model.trained.suggest(p, K));
            corrupt = corrupt && !flip_one_score_bit(&mut want);
            want.hash()
        })
        .collect();
    report.answers_digest = check_probes(&engine, &probes, &expected).0;

    let mut cycles: Vec<Cycle> = Vec::new();
    let mut cpu_us = 0.0;
    let budget = opts.timed_seconds;
    let phase = Instant::now();
    loop {
        let cpu_before = procfs::process_cpu_us();
        let outcome = cycle(corpus, &engine, &path, cycles.len() as u64 + 1);
        cpu_us += procfs::process_cpu_us() - cpu_before;
        report.attempted += 1;
        match outcome {
            Ok(c) => {
                let (digest, wrong) = check_probes(&engine, &probes, &expected);
                let drift = (digest != report.answers_digest && wrong.is_none())
                    .then(|| "probe digest drifted between cycles".to_string());
                if let Some(why) = wrong.or(drift) {
                    report.count_failures(1, Some(why));
                }
                println!(
                    "round train_publish {} cycle_ms {:.1} load_ms {:.1}",
                    cycles.len() + 1,
                    c.total_s * 1e3,
                    c.load_ms
                );
                cycles.push(c);
            }
            Err(why) => report.count_failures(1, Some(why)),
        }
        let last = cycles.last().map_or(0.0, |c| c.total_s);
        let done = report.attempted as usize;
        if done >= opts.scale.min_rounds && phase.elapsed().as_secs_f64() + last > budget {
            break;
        }
    }

    let over = |f: fn(&Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    let cycle_us = over(|c| c.total_s * 1e6);
    let rates: Vec<f64> = cycles.iter().map(|c| 1.0 / c.total_s).collect();
    report.end_to_end("ops_per_s", median(&rates));
    report.end_to_end("p50_us", cycle_us);
    report.end_to_end("cpu_us_per_op", cpu_us / report.attempted as f64);

    if opts.trace {
        let staged = Instant::now();
        stages(&mut report, corpus, &engine, &path, &probes, &expected);
        let staged_s = staged.elapsed().as_secs_f64();
        report.layer("serve.publish_us", over(|c| c.publish_us));
        report.layer(
            "store.warm_start_ms",
            over(|c| c.load_ms + c.publish_us / 1_000.0),
        );
        report.layer(
            "bench.train_sessions_per_s",
            corpus.logs.truth.train_sessions.len() as f64 * median(&rates),
        );
        // The staged pass does one cycle's work plus the evaluation.
        report.layer(
            "bench.trace_overhead_pct",
            (staged_s * median(&rates) - 1.0) * 100.0,
        );
        report.layer("bench.round_spread_pct", iqr_pct(&rates));
        report.layer("bench.rounds", cycles.len() as f64);
    }
    report
}

/// The traced pass: each stage of a cycle called on its own through the
/// public function `ModelSnapshot::from_raw_logs` itself calls, on the
/// same input, plus the paper's quality metrics on the held-out epoch.
fn stages(
    report: &mut Report,
    corpus: &Corpus,
    engine: &ServeEngine,
    path: &Path,
    probes: &[Vec<&str>],
    expected: &[u64],
) {
    let cfg = training();
    let ModelSpec::Vmm(vmm_cfg) = cfg.model else {
        unreachable!("the benchmark trains a VMM");
    };
    let vmm_cfg: VmmConfig = vmm_cfg.parallel(cfg.parallel);

    let started = Instant::now();
    let sessions =
        segment_with_parallelism(&corpus.logs.train, cfg.session_cutoff_secs, cfg.parallel);
    report.layer("sessions.segment_ms", ms_since(started));

    let started = Instant::now();
    let mut interner = Interner::new();
    let aggregated = aggregate(&sessions, &mut interner);
    let (reduced, _) = reduce(&aggregated, cfg.reduction_threshold);
    report.layer("sessions.aggregate_ms", ms_since(started));

    let started = Instant::now();
    let counts = WindowCounts::build_with(&reduced.sessions, vmm_cfg.max_depth, vmm_cfg.parallel);
    report.layer("core.count_ms", ms_since(started));
    report.layer("core.count_windows", counts.window_count() as f64);

    let started = Instant::now();
    let vmm = Vmm::train_with_counts(&counts, vmm_cfg);
    report.layer("core.train_ms", ms_since(started));
    report.layer("core.pst_nodes", vmm.node_count() as f64);

    let snapshot = ModelSnapshot::from_parts(interner, Box::new(vmm), reduced.total_sessions());
    report.layer("serve.snapshot_bytes", snapshot.memory_bytes() as f64);

    let started = Instant::now();
    let meta = SnapshotMeta::describe(&snapshot, 0, corpus.logs.train.len() as u64);
    save_snapshot(path, &snapshot, &meta).expect("snapshot saves inside the checkout");
    report.layer("store.save_ms", ms_since(started));
    report.layer(
        "store.snapshot_file_bytes",
        std::fs::metadata(path).map_or(0, |m| m.len()) as f64,
    );

    let started = Instant::now();
    let (loaded, _) = load_snapshot(path).expect("a just-saved snapshot loads");
    report.layer("store.load_ms", ms_since(started));

    // Quality guard: a training speed-up that changes the model shows
    // here. Held-out queries are interned into a copy of the vocabulary
    // (same ids, in order), never into the snapshot's own.
    let mut eval_interner = Interner::new();
    for (_, query) in loaded.interner().iter() {
        eval_interner.intern(query);
    }
    let held_out = segment_with_parallelism(&corpus.logs.test, cfg.session_cutoff_secs, false);
    let truth = GroundTruth::build(&aggregate(&held_out, &mut eval_interner), K);
    report.layer("eval.coverage", overall_coverage(loaded.model(), &truth));
    report.layer("eval.ndcg_at_5", overall_ndcg(loaded.model(), &truth, K));

    // The stages must add up to the model the one-call path builds.
    engine.publish(Arc::new(loaded));
    report.attempted += 1;
    let (_, wrong) = check_probes(engine, probes, expected);
    if let Some(why) = wrong {
        report.count_failures(1, Some(format!("staged training: {why}")));
    }
}
