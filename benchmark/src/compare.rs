//! `compare`: two runs of `run` side by side.
//!
//! Reads the saved output of each run — the `metric …` and `check …`
//! lines — and prints, per workload and end-to-end metric, both values,
//! their relative difference and the metric's bound. Two runs of one commit must agree within every bound,
//! and every "exact" per-layer count and every answers digest must be
//! equal; anything else exits non-zero.

use crate::metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Default, Debug, PartialEq)]
struct Run {
    /// (workload, metric) → value, in file order of first appearance.
    metrics: BTreeMap<(String, String), f64>,
    /// workload → (failed, digest).
    checks: BTreeMap<String, (u64, String)>,
}

fn parse(text: &str) -> Result<Run, String> {
    let mut run = Run::default();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["metric", workload, _, name, value, _unit] => {
                let value = value.parse().map_err(|e| format!("{line}: {e}"))?;
                run.metrics
                    .insert((workload.to_string(), name.to_string()), value);
            }
            ["check", workload, "attempted", _, "failed", failed, "answers_digest", digest] => {
                let failed = failed.parse().map_err(|e| format!("{line}: {e}"))?;
                run.checks
                    .insert(workload.to_string(), (failed, digest.to_string()));
            }
            _ => {}
        }
    }
    if run.metrics.is_empty() {
        return Err("no metric lines".into());
    }
    Ok(run)
}

/// The comparison table and the number of violations.
fn compare(a: &Run, b: &Run) -> (String, usize) {
    let mut out = format!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}\n",
        "workload", "metric", "first", "second", "diff%", "bound%"
    );
    let mut violations = 0;
    for ((workload, name), &first) in &a.metrics {
        let Some(&second) = b.metrics.get(&(workload.clone(), name.clone())) else {
            out.push_str(&format!("{workload} {name}: missing from the second run\n"));
            violations += 1;
            continue;
        };
        if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
            let diff = if first == 0.0 {
                0.0
            } else {
                (second - first) / first
            };
            let bad = diff.abs() > m.bound;
            violations += usize::from(bad);
            out.push_str(&format!(
                "{workload:<14} {name:<14} {first:>14.3} {second:>14.3} {:>8.2} {:>6.0}{}\n",
                diff * 100.0,
                m.bound * 100.0,
                if bad { "  VIOLATION" } else { "" }
            ));
        } else if PER_LAYER.iter().any(|m| m.name == name && m.exact) && first != second {
            violations += 1;
            out.push_str(&format!(
                "{workload:<14} {name}: exact count differs, {first} vs {second}  VIOLATION\n"
            ));
        }
    }
    for (workload, (failed, digest)) in &a.checks {
        let other = b.checks.get(workload);
        let same = other.is_some_and(|(_, d)| d == digest);
        let clean = *failed == 0 && other.is_some_and(|(f, _)| *f == 0);
        violations += usize::from(!same) + usize::from(!clean);
        out.push_str(&format!(
            "{workload:<14} answers_digest {digest} {}{}\n",
            if same {
                "identical"
            } else {
                "DIFFERS  VIOLATION"
            },
            if clean { "" } else { "  FAILED OPS  VIOLATION" }
        ));
    }
    (out, violations)
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: sqp-benchmark compare A.txt B.txt");
        return ExitCode::from(2);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, violations) = compare(&a, &b);
            print!("{table}");
            println!("{violations} violation(s)");
            if violations == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIRST: &str = "metric wire_single e2e p50_us 70 us\n\
        metric wire_single e2e ops_per_s 27000 op/s\n\
        metric wire_single layer net.frames_in 25600 count\n\
        metric wire_single layer net.ping_us 40 us\n\
        check wire_single attempted 100 failed 0 answers_digest 00ff\n";

    #[test]
    fn agreeing_runs_pass_and_each_kind_of_disagreement_is_counted() {
        let a = parse(FIRST).unwrap();
        assert_eq!(compare(&a, &a).1, 0);
        // Within the bound, and an inexact layer metric may move freely.
        let near = FIRST
            .replace("p50_us 70", "p50_us 75")
            .replace("ping_us 40", "ping_us 90");
        assert_eq!(compare(&a, &parse(&near).unwrap()).1, 0);
        for (from, to) in [
            ("p50_us 70", "p50_us 95"),
            ("ops_per_s 27000", "ops_per_s 19000"),
            ("frames_in 25600", "frames_in 25601"),
            ("answers_digest 00ff", "answers_digest 00fe"),
            ("failed 0", "failed 1"),
        ] {
            let b = parse(&FIRST.replace(from, to)).unwrap();
            let (table, violations) = compare(&a, &b);
            assert_eq!(violations, 1, "{from} -> {to}\n{table}");
        }
        assert!(parse("nothing here\n").is_err());
    }
}
