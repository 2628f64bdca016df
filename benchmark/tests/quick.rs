//! Drives the real binary: `run --quick` twice with one seed, then once
//! with a corrupted oracle.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_sqp-benchmark");

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(name)
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN).args(args).output().expect("binary runs")
}

/// `"name": "x"` values of the `key` array in the manifest text, with
/// their units (workloads have none).
fn manifest_names(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\": ["))
        .expect("key present");
    let body = &manifest[start..];
    let body = &body[..body.find("\n  ]").expect("array closes")];
    let field = |line: &str, field: &str| {
        line.split(&format!("\"{field}\": \""))
            .nth(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
    };
    body.lines()
        .filter_map(|line| {
            Some((
                field(line, "name")?,
                field(line, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

struct Parsed {
    /// (workload, metric) → (kind, value text, unit), with a count of
    /// how often the pair was printed.
    metrics: BTreeMap<(String, String), (String, String, String, usize)>,
    digests: BTreeMap<String, String>,
}

fn parse(stdout: &str) -> Parsed {
    let mut parsed = Parsed {
        metrics: BTreeMap::new(),
        digests: BTreeMap::new(),
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", workload, kind, name, value, unit] => {
                let entry = parsed
                    .metrics
                    .entry((workload.to_string(), name.to_string()))
                    .or_insert((kind.to_string(), value.to_string(), unit.to_string(), 0));
                entry.3 += 1;
            }
            ["check", workload, .., "answers_digest", digest] => {
                parsed
                    .digests
                    .insert(workload.to_string(), digest.to_string());
            }
            _ => {}
        }
    }
    parsed
}

#[test]
fn quick_run_prints_every_metric_once_and_repeats_exactly() {
    let manifest = String::from_utf8(run(&["manifest"]).stdout).unwrap();
    let checked_in = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    )
    .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        checked_in, manifest,
        "BENCHMARK.json is out of date: regenerate it with `sqp-benchmark manifest`"
    );

    let workloads = manifest_names(&manifest, "workloads");
    let end_to_end = manifest_names(&manifest, "end_to_end");
    let per_layer = manifest_names(&manifest, "per_layer");
    assert_eq!(workloads.len(), 4);

    let runs: Vec<Parsed> = ["quick-a", "quick-b"]
        .iter()
        .map(|dir| {
            let dir = out_dir(dir);
            let out = run(&[
                "run",
                "--quick",
                "--seed",
                "42",
                "--out",
                dir.to_str().unwrap(),
            ]);
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "run --quick failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                dir.join("results.json").is_file(),
                "results.json not written"
            );
            for (workload, _) in &workloads {
                let trace = dir.join(format!("trace.{workload}.jsonl"));
                // The train workload replays stages, not requests.
                assert_eq!(trace.is_file(), workload != "train_publish", "{trace:?}");
            }
            parse(&stdout)
        })
        .collect();
    let first = &runs[0];

    // Every printed name is a well-formed manifest name with its unit,
    // printed once.
    let unit_of: BTreeMap<&str, &str> = end_to_end
        .iter()
        .chain(&per_layer)
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    for ((workload, name), (_, _, unit, times)) in &first.metrics {
        assert!(
            name.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
            "bad name {name}"
        );
        assert_eq!(*times, 1, "{name} printed {times} times for {workload}");
        assert_eq!(unit_of.get(name.as_str()), Some(&unit.as_str()), "{name}");
    }
    // Every end-to-end metric on every workload; every per-layer metric on
    // at least one (the binary itself refuses to finish a workload whose
    // listed metrics are incomplete).
    for (workload, _) in &workloads {
        for (name, _) in &end_to_end {
            assert!(
                first
                    .metrics
                    .contains_key(&(workload.clone(), name.clone())),
                "{workload} did not report {name}"
            );
        }
    }
    for (name, _) in &per_layer {
        assert!(
            first.metrics.keys().any(|(_, n)| n == name),
            "no workload reported {name}"
        );
    }

    // One seed, one set of answers: exact counts and digests repeat.
    assert_eq!(first.digests.len(), 4);
    assert_eq!(first.digests, runs[1].digests);
    let exact = |run: &Parsed| -> Vec<((String, String), String)> {
        run.metrics
            .iter()
            .filter(|(_, (kind, ..))| kind == "exact")
            .map(|(key, (_, value, ..))| (key.clone(), value.clone()))
            .collect()
    };
    assert!(exact(first).len() >= 20);
    assert_eq!(exact(first), exact(&runs[1]));
}

#[test]
fn a_corrupted_reference_reply_fails_the_command() {
    for workload in ["engine_mixed", "wire_single", "tier_batch", "train_publish"] {
        let dir = out_dir("quick-corrupt");
        let out = run(&[
            "run",
            "--quick",
            "--corrupt-oracle",
            "--workload",
            workload,
            "--out",
            dir.to_str().unwrap(),
        ]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            !out.status.success(),
            "{workload} passed a wrong answer:\n{stdout}"
        );
        let share = parse(&stdout).metrics[&(workload.to_string(), "bench.fail_share".to_string())]
            .1
            .parse::<f64>()
            .unwrap();
        assert!(share > 0.0, "{workload}: fail_share {share}");
        assert!(stdout.contains("WRONG ANSWERS"));
    }
}
