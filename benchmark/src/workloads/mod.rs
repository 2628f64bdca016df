//! The four workloads, and the measured phase the three serving ones share.

pub mod engine_mixed;
pub mod tier_batch;
pub mod train_publish;
pub mod wire_single;

use crate::fixture::{host_threads, Corpus, Opts};
use crate::hist::{iqr_pct, median};
use crate::metrics::Report;
use crate::oracle::{EngineSut, Sut};
use crate::procfs;
use crate::rounds::{
    counted_round, oracle_round, reset_sessions, timed_round, verify, warm, Counters, RoundSummary,
    ThreadStats,
};
use crate::script::{OpKind, Script, ROUND_STRIDE_SECS};
use crate::trace::{write_jsonl, SpanTable, Tracer};
use sqp_serve::{EngineConfig, ModelSnapshot, ServeEngine, ServeSurface};
use std::sync::Arc;
use std::time::Instant;

pub fn run(name: &str, corpus: &Corpus, opts: &Opts) -> Report {
    let steal_before = procfs::host_steal_ticks();
    let mut report = match name {
        "engine_mixed" => engine_mixed::run(corpus, opts),
        "wire_single" => wire_single::run(corpus, opts),
        "tier_batch" => tier_batch::run(corpus, opts),
        "train_publish" => train_publish::run(corpus, opts),
        other => panic!("unknown workload {other}"),
    };
    if opts.trace {
        report.layer("logsim.generate_ms", corpus.generate_ms);
        report.layer("bench.host_threads", host_threads() as f64);
        report.layer("bench.rss_mb", procfs::rss_mb());
        report.layer("bench.cpu_steal_pct", procfs::steal_pct_since(steal_before));
        report.layer(
            "bench.fail_share",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        report.layer(
            "bench.answers_digest32",
            (report.answers_digest & 0xffff_ffff) as f64,
        );
    }
    report.assert_complete(opts.trace);
    report
}

/// What the measured phase of a serving workload produced, for the
/// workload to name its per-layer metrics from.
pub struct Measured {
    /// Median over the timed rounds of each op kind's median latency, µs.
    pub kind_p50_us: [f64; crate::script::OP_KINDS],
    /// Medians over the timed rounds of each round's tail, µs.
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    pub evict_us_per_session: f64,
    /// Counted round and oracle round, when the run is traced.
    pub traced: Option<Traced>,
}

pub struct Traced {
    pub counters: Counters,
    pub spans: SpanTable,
}

impl Measured {
    pub fn kind_us(&self, kind: OpKind) -> f64 {
        self.kind_p50_us[kind.index()]
    }
}

/// The measured phase of a serving workload: timed rounds until the
/// budget is spent, then — in a traced run — one counted round and one
/// oracle round. Reports the end-to-end metrics it owns and the
/// `bench.*` rows about the rounds themselves.
///
/// `around_counted_round` is called with `true` right before and `false`
/// right after the counted round, whose op count is fixed: a workload
/// reads its server-side counters there and gets deltas that repeat.
///
/// `surface` is the in-process handle on the tier's session state (the
/// engine, or the router behind the server): rounds are separated by
/// evicting and re-warming every session through it, outside the clock.
pub fn measure<S: Sut>(
    report: &mut Report,
    opts: &Opts,
    script: &Script,
    surface: &dyn ServeSurface,
    suts: &mut [S],
    reference_snapshot: &Arc<ModelSnapshot>,
    mut around_counted_round: impl FnMut(bool),
) -> Measured {
    let mut stats: Vec<ThreadStats> = suts.iter().map(|_| ThreadStats::new()).collect();
    let mut base = 0u64;
    let mut rounds: Vec<RoundSummary> = Vec::new();
    let mut evict_us_per_session = Vec::new();
    let mut cpu_us = 0.0;
    let mut next_round = |base: &mut u64| {
        *base += ROUND_STRIDE_SECS;
        let (evicted, ns) = reset_sessions(surface, script, *base);
        evict_us_per_session.push(ns as f64 / 1_000.0 / evicted.max(1) as f64);
    };

    let budget = opts.timed_seconds;
    let phase = Instant::now();
    loop {
        let cpu_before = procfs::process_cpu_us();
        let round = timed_round(suts, script, base, &mut stats);
        cpu_us += procfs::process_cpu_us() - cpu_before;
        let last_wall = round.wall_s;
        println!(
            "round {} {} ops_per_s {:.0} p50_us {:.3} p99_us {:.3}",
            report.workload,
            rounds.len() + 1,
            round.ops_per_s,
            round.p50_us,
            round.p99_us
        );
        rounds.push(round);
        next_round(&mut base);
        let spent = phase.elapsed().as_secs_f64();
        if rounds.len() >= opts.scale.min_rounds && spent + last_wall > budget {
            break;
        }
    }

    let over_rounds =
        |f: &dyn Fn(&RoundSummary) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let ops_per_s = over_rounds(&|r| r.ops_per_s);
    let timed_ops: u64 = rounds.iter().map(|r| r.ops).sum();
    report.end_to_end("ops_per_s", median(&ops_per_s));
    report.end_to_end("p50_us", median(&over_rounds(&|r| r.p50_us)));
    report.end_to_end("cpu_us_per_op", cpu_us / timed_ops as f64);

    // Every round starts from the same state, so it must give the same
    // answers: a digest that drifts between rounds is a wrong answer.
    report.answers_digest = rounds[0].digest;
    let check = |report: &mut Report, round: &RoundSummary, what: &str| {
        report.attempted += round.ops;
        report.count_failures(round.failed, round.first_failure.clone());
        if round.digest != rounds[0].digest {
            report.count_failures(
                1,
                Some(format!(
                    "{what} digest {:016x} differs from round 1's {:016x}",
                    round.digest, rounds[0].digest
                )),
            );
        }
    };
    for (i, round) in rounds.iter().enumerate() {
        check(report, round, &format!("round {}", i + 1));
    }

    let traced = opts.trace.then(|| {
        around_counted_round(true);
        let (counted, counters) = counted_round(suts, script, base, &mut stats);
        around_counted_round(false);
        check(report, &counted, "counted round");
        next_round(&mut base);

        // One private reference engine per client thread, warmed with that
        // thread's users only.
        let mut references: Vec<EngineSut> = script
            .threads
            .iter()
            .map(|thread| {
                let engine = Arc::new(ServeEngine::new(
                    Arc::clone(reference_snapshot),
                    EngineConfig::default(),
                ));
                warm(engine.as_ref(), script, thread, base);
                let twin = [
                    Arc::clone(reference_snapshot),
                    Arc::clone(reference_snapshot),
                ];
                EngineSut::new(engine, twin)
            })
            .collect();
        let origin = Instant::now();
        let mut tracers: Vec<Tracer> = suts.iter().map(|_| Tracer::new(origin)).collect();
        let (round, hashes) = oracle_round(suts, script, base, &mut stats, &mut tracers);
        let (wrong, first_wrong) = verify::<S>(
            &mut references,
            script,
            base,
            &hashes,
            &mut tracers,
            opts.corrupt_oracle,
        );
        report.count_failures(wrong, first_wrong);
        check(report, &round, "oracle round");

        let path = opts
            .out_dir
            .join(format!("trace.{}.jsonl", report.workload));
        write_jsonl(&path, &tracers).expect("trace file writes inside the checkout");
        report.layer(
            "bench.trace_overhead_pct",
            (1.0 - round.ops_per_s / median(&ops_per_s)) * 100.0,
        );
        Traced {
            counters,
            spans: SpanTable::build(&tracers),
        }
    });
    if opts.trace {
        report.layer("bench.round_spread_pct", iqr_pct(&ops_per_s));
        report.layer("bench.rounds", rounds.len() as f64);
        report.layer(
            "serve.nonempty_share",
            rounds[0].nonempty as f64 / rounds[0].lists.max(1) as f64,
        );
    }

    Measured {
        kind_p50_us: std::array::from_fn(|k| median(&over_rounds(&|r| r.kind_p50_us[k]))),
        p99_us: median(&over_rounds(&|r| r.p99_us)),
        p999_us: median(&over_rounds(&|r| r.p999_us)),
        max_us: median(&over_rounds(&|r| r.max_us)),
        evict_us_per_session: median(&evict_us_per_session),
        traced,
    }
}
