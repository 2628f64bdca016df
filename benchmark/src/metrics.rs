//! The metric registry: every workload and metric the benchmark knows,
//! by name, with its unit and direction. `BENCHMARK.json` is generated
//! from these tables (`sqp-benchmark manifest`), the reports are checked
//! against them, and the README's tables describe them.

use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Index of each workload in [`WORKLOADS`], as a bit of `PerLayer::on`.
pub const ENGINE: u8 = 1 << 0;
pub const WIRE: u8 = 1 << 1;
pub const TIER: u8 = 1 << 2;
pub const TRAIN: u8 = 1 << 3;
const SERVING: u8 = ENGINE | WIRE | TIER;
const ALL: u8 = SERVING | TRAIN;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine_mixed",
        why: "in-process ServeEngine, mixed ops: sqp-serve and sqp-core predict do all the work, sqp-net none",
    },
    Workload {
        name: "wire_single",
        why: "single-op frames over keep-alive connections: per-message wire cost dominates, the engine is ~1 us of a ~60 us round trip",
    },
    Workload {
        name: "tier_batch",
        why: "RemoteEngine to NetServer to 4-replica router, 256-entry batches: bytes, codec and scatter/gather dominate",
    },
    Workload {
        name: "train_publish",
        why: "retrain, save, load, publish cycles: sqp-sessions, sqp-core training and sqp-store only, no serving",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload with `--trace 0`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads that report it (bits of [`ENGINE`] … [`TRAIN`]).
    pub on: u8,
    /// A count that must repeat bit-for-bit for a given seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, on: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        on,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better, on: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        exact: true,
    }
}

/// Reported with `--trace 1`; the name's prefix is the layer (a crate).
pub const PER_LAYER: &[PerLayer] = &[
    // train_publish: the pipeline stage by stage, on the same input.
    timing("sessions.segment_ms", "ms", TRAIN),
    timing("sessions.aggregate_ms", "ms", TRAIN),
    timing("core.count_ms", "ms", TRAIN),
    timing("core.train_ms", "ms", TRAIN),
    timing("store.save_ms", "ms", TRAIN),
    timing("store.load_ms", "ms", TRAIN),
    timing("serve.publish_us", "us", TRAIN | ENGINE),
    timing("store.warm_start_ms", "ms", TRAIN),
    PerLayer {
        name: "bench.train_sessions_per_s",
        unit: "sessions/s",
        better: Better::Higher,
        on: TRAIN,
        exact: false,
    },
    exact("core.count_windows", "count", Better::Lower, TRAIN),
    exact("core.pst_nodes", "count", Better::Lower, TRAIN),
    exact("store.snapshot_file_bytes", "bytes", Better::Lower, TRAIN),
    exact("serve.snapshot_bytes", "bytes", Better::Lower, TRAIN),
    exact("eval.coverage", "ratio", Better::Higher, TRAIN),
    exact("eval.ndcg_at_5", "ratio", Better::Higher, TRAIN),
    // engine_mixed: by op type, tail, attribution of one suggest, allocation.
    timing("serve.track_and_suggest_us", "us", ENGINE),
    timing("serve.suggest_us", "us", ENGINE),
    timing("serve.track_us", "us", ENGINE),
    timing("serve.suggest_batch_us", "us", ENGINE),
    timing("serve.p99_us", "us", ENGINE),
    timing("serve.p999_us", "us", ENGINE),
    timing("serve.max_us", "us", ENGINE),
    timing("core.predict_ns", "ns", ENGINE),
    timing("serve.render_ns", "ns", ENGINE),
    timing("serve.session_self_ns", "ns", ENGINE),
    timing("serve.allocs_per_op", "count", ENGINE),
    timing("serve.alloc_bytes_per_op", "bytes", ENGINE),
    timing("serve.evict_us_per_session", "us", ENGINE),
    exact("serve.nonempty_share", "ratio", Better::Higher, SERVING),
    exact("serve.active_sessions", "count", Better::Lower, ENGINE),
    exact("serve.shed", "count", Better::Lower, ENGINE),
    // wire_single: by op type, attribution of one round trip, server counters.
    timing("net.track_suggest_us", "us", WIRE),
    timing("net.suggest_us", "us", WIRE),
    timing("net.ping_us", "us", WIRE),
    timing("net.p99_us", "us", WIRE),
    timing("net.codec_ns", "ns", WIRE),
    timing("net.engine_ns", "ns", WIRE),
    timing("net.transport_self_us", "us", WIRE | TIER),
    timing("net.vol_ctx_switches_per_op", "count", WIRE),
    timing("net.allocs_per_op", "count", WIRE | TIER),
    exact("net.req_bytes_per_op", "bytes", Better::Lower, WIRE),
    exact(
        "net.reply_bytes_per_op",
        "bytes",
        Better::Lower,
        WIRE | TIER,
    ),
    exact("net.frames_in", "count", Better::Lower, WIRE),
    exact("net.replies_out", "count", Better::Lower, WIRE),
    exact("net.queue_shed", "count", Better::Lower, WIRE),
    exact("net.engine_shed", "count", Better::Lower, WIRE),
    exact("net.protocol_errors", "count", Better::Lower, WIRE),
    // tier_batch: by op type, the same batch one layer down each time.
    timing("remote.batch_us", "us", TIER),
    timing("remote.track_suggest_us", "us", TIER),
    timing("remote.p99_us", "us", TIER),
    timing("net.batch_direct_us", "us", TIER),
    timing("router.batch_us", "us", TIER),
    timing("serve.batch_us", "us", TIER),
    timing("net.codec_batch_us", "us", TIER),
    timing("remote.overhead_us", "us", TIER),
    timing("router.overhead_us", "us", TIER),
    exact("router.replica_skew", "ratio", Better::Lower, TIER),
    exact("remote.retries", "count", Better::Lower, TIER),
    exact("remote.failovers", "count", Better::Lower, TIER),
    exact("remote.degraded", "count", Better::Lower, TIER),
    // Set-up, split (its sum is `setup_s`).
    timing("setup.train_ms", "ms", ALL),
    timing("setup.boot_ms", "ms", ALL),
    timing("setup.warm_sessions_ms", "ms", SERVING),
    timing("logsim.generate_ms", "ms", ALL),
    // The instrument itself.
    timing("bench.trace_overhead_pct", "%", ALL),
    timing("bench.round_spread_pct", "%", ALL),
    PerLayer {
        name: "bench.rounds",
        unit: "count",
        better: Better::Higher,
        on: ALL,
        exact: false,
    },
    PerLayer {
        name: "bench.host_threads",
        unit: "count",
        better: Better::Higher,
        on: ALL,
        exact: false,
    },
    timing("bench.rss_mb", "MiB", ALL),
    timing("bench.cpu_steal_pct", "%", ALL),
    exact("bench.fail_share", "ratio", Better::Lower, ALL),
    exact("bench.answers_digest32", "count", Better::Lower, ALL),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json(run_seconds: u32) -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// What one workload measured in one run.
pub struct Report {
    pub workload: &'static str,
    bit: u8,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Combined digest of every reply of one round.
    pub answers_digest: u64,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        let at = WORKLOADS
            .iter()
            .position(|w| w.name == workload)
            .unwrap_or_else(|| panic!("unknown workload {workload}"));
        Self {
            workload: WORKLOADS[at].name,
            bit: 1 << at,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            first_failure: None,
            answers_digest: 0,
        }
    }

    /// Record an end-to-end metric. Panics on an unknown or repeated name:
    /// that is a bug in the benchmark, not a measurement.
    pub fn end_to_end(&mut self, name: &str, value: f64) {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        assert!(
            self.end_to_end.iter().all(|(n, _)| *n != name),
            "{name} reported twice"
        );
        self.end_to_end.push((m.name, finite(value)));
    }

    /// Record a per-layer metric; same rules, plus it must be listed for
    /// this workload.
    pub fn layer(&mut self, name: &str, value: f64) {
        let m = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        assert!(
            m.on & self.bit != 0,
            "{name} is not listed for {}",
            self.workload
        );
        assert!(
            self.per_layer.iter().all(|(n, _)| *n != name),
            "{name} reported twice"
        );
        self.per_layer.push((m.name, finite(value)));
    }

    pub fn count_failures(&mut self, failed: u64, first: Option<String>) {
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure = first;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every listed metric of the kinds this run measured must be present.
    pub fn assert_complete(&self, traced: bool) {
        for m in &END_TO_END {
            assert!(
                self.end_to_end.iter().any(|(n, _)| *n == m.name),
                "{}: {} not reported",
                self.workload,
                m.name
            );
        }
        for m in PER_LAYER.iter().filter(|m| traced && m.on & self.bit != 0) {
            assert!(
                self.per_layer.iter().any(|(n, _)| *n == m.name),
                "{}: {} not reported",
                self.workload,
                m.name
            );
        }
    }

    /// The table a person reads: one line per metric — workload, kind
    /// (`e2e`, `layer`, or `exact` for a per-layer count that must repeat
    /// for a seed), name, value, unit. The integration test and `compare`
    /// parse these lines too.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let rows = self
            .end_to_end
            .iter()
            .map(|row| ("e2e", row))
            .chain(self.per_layer.iter().map(|row| {
                let exact = PER_LAYER.iter().any(|m| m.name == row.0 && m.exact);
                (if exact { "exact" } else { "layer" }, row)
            }));
        for (kind, (name, value)) in rows {
            let _ = writeln!(
                s,
                "metric {} {kind} {name} {value} {}",
                self.workload,
                unit_of(name)
            );
        }
        let _ = writeln!(
            s,
            "check {} attempted {} failed {} answers_digest {:016x}",
            self.workload, self.attempted, self.failed, self.answers_digest
        );
        if let Some(why) = &self.first_failure {
            let _ = writeln!(s, "first failure on {}: {why}", self.workload);
        }
        s
    }

    /// The result line the driver reads: every end-to-end metric with
    /// `--trace 0`, every per-layer metric with `--trace 1`. A per-layer
    /// metric of another workload's layer reads 0 here.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|m| {
                    let value = self
                        .per_layer
                        .iter()
                        .find(|(n, _)| *n == m.name)
                        .map_or(0.0, |(_, v)| *v);
                    metric_json(m.name, value, m.unit)
                })
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|(n, v)| metric_json(n, *v, unit_of(n)))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// This report as one JSON object (for `results.json`).
    pub fn json(&self) -> String {
        let rows = |rows: &[(&'static str, f64)]| {
            rows.iter()
                .map(|(n, v)| metric_json(n, *v, unit_of(n)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"workload\": \"{}\", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"answers_digest\": \"{:016x}\", \"end_to_end\": {{{}}}, \"per_layer\": {{{}}}}}",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed,
            self.answers_digest,
            rows(&self.end_to_end),
            rows(&self.per_layer)
        )
    }
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn registry_meets_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "bad unit {}", m.unit);
            assert!(m.on != 0 && m.on <= ALL);
        }
        assert!(manifest_json(10).len() < 64 * 1024);
    }

    #[test]
    fn report_rejects_unknown_foreign_and_repeated_metrics() {
        let mut r = Report::new("engine_mixed");
        r.end_to_end("p50_us", 1.5);
        r.layer("serve.suggest_us", 2.0);
        for bad in [
            |r: &mut Report| r.end_to_end("p50_us", 1.0),
            |r: &mut Report| r.end_to_end("nope", 1.0),
            |r: &mut Report| r.layer("net.ping_us", 1.0),
            |r: &mut Report| r.layer("serve.suggest_us", 1.0),
        ] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut copy = Report::new("engine_mixed");
                copy.end_to_end("p50_us", 1.5);
                copy.layer("serve.suggest_us", 2.0);
                bad(&mut copy)
            }));
            assert!(caught.is_err());
        }
        assert!(r
            .table()
            .contains("metric engine_mixed e2e p50_us 1.5 us\n"));
        assert!(r
            .table()
            .contains("metric engine_mixed layer serve.suggest_us 2 us\n"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("wire_single");
        for m in &END_TO_END {
            r.end_to_end(m.name, 1.25);
        }
        r.layer("net.ping_us", 40.5);
        r.attempted = 10;
        let line = r.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = r.result_line(true);
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        assert!(traced.contains("\"net.ping_us\": {\"value\": 40.5, \"unit\": \"us\"}"));
        assert!(traced.contains("\"serve.track_us\": {\"value\": 0, \"unit\": \"us\"}"));
        r.count_failures(1, Some("x".into()));
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
