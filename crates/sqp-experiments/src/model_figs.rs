//! Model-centric experiments: Figures 8–12 and Tables VI–VII.

use crate::harness::{TrainedModels, Workbench};
use sqp_core::{ModelSpec, Mvmm, MvmmConfig, Recommender, Vmm, VmmConfig};
use sqp_eval::report::{f4, headers, ms, pct, render_table};
use sqp_eval::{coverage_by_length, evaluate_accuracy, overall_coverage, reason_analysis};
use sqp_sessions::UnpredictableReason;

const MAX_CONTEXT_LEN: usize = 5;

fn accuracy_tables(
    title_prefix: &str,
    models: &[(&str, &dyn Recommender)],
    wb: &Workbench,
) -> String {
    let gt = &wb.processed.ground_truth;
    // Evaluate every model once.
    let evals: Vec<(&str, Vec<sqp_eval::AccuracyPoint>)> = models
        .iter()
        .map(|(name, m)| (*name, evaluate_accuracy(*m, gt, MAX_CONTEXT_LEN)))
        .collect();

    let mut out = String::new();
    for (cut, pick) in [
        (1usize, 0usize), // NDCG@1 → field selector below
        (3, 1),
        (5, 2),
    ] {
        let mut rows = Vec::new();
        for (name, pts) in &evals {
            let mut row = vec![name.to_string()];
            for p in pts {
                let v = match pick {
                    0 => p.ndcg1,
                    1 => p.ndcg3,
                    _ => p.ndcg5,
                };
                row.push(if p.covered_contexts == 0 {
                    "-".into()
                } else {
                    f4(v)
                });
            }
            rows.push(row);
        }
        let mut hdr = vec!["method".to_string()];
        hdr.extend((1..=MAX_CONTEXT_LEN).map(|l| format!("len {l}")));
        out.push_str(&render_table(
            &format!("{title_prefix} — NDCG@{cut} by context length"),
            &hdr,
            &rows,
        ));
        out.push('\n');
    }
    out
}

/// Figure 8: sequence models (MVMM, N-gram) versus the pair-wise baselines.
pub(crate) fn fig08_accuracy_pairwise(wb: &Workbench, models: &TrainedModels) -> String {
    let roster: Vec<(&str, &dyn Recommender)> = vec![
        ("Co-occ.", &models.cooccurrence),
        ("Adj.", &models.adjacency),
        ("N-gram", &models.ngram),
        ("MVMM", &models.mvmm),
    ];
    let mut out = accuracy_tables("Figure 8", &roster, wb);
    out.push_str(
        "expected shape: sequence methods above pair-wise at every length; \
         Adj. above Co-occ.; pair-wise accuracy decays with context length\n",
    );
    out
}

/// Figure 9: MVMM versus representative single VMMs.
pub(crate) fn fig09_accuracy_vmm(wb: &Workbench, models: &TrainedModels) -> String {
    let roster: Vec<(&str, &dyn Recommender)> = vec![
        ("VMM (0)", &models.vmm_00),
        ("VMM (0.05)", &models.vmm_005),
        ("VMM (0.1)", &models.vmm_01),
        ("MVMM", &models.mvmm),
    ];
    let mut out = accuracy_tables("Figure 9", &roster, wb);
    out.push_str(
        "expected shape: MVMM comparable to the best single VMM without \
         per-corpus epsilon tuning\n",
    );
    out
}

/// Figure 10: overall coverage per method.
pub(crate) fn fig10_coverage(wb: &Workbench, models: &TrainedModels) -> String {
    let gt = &wb.processed.ground_truth;
    let rows: Vec<Vec<String>> = models
        .all()
        .iter()
        .map(|(name, m)| vec![name.to_string(), pct(overall_coverage(*m, gt))])
        .collect();
    let mut out = render_table(
        "Figure 10 — coverage of various methods on test data",
        &headers(&["method", "coverage"]),
        &rows,
    );
    out.push_str("\npaper: Co-occ. 60.6%; Adj./VMM/MVMM tied at 56.8%; N-gram by far the worst\n");
    out
}

/// Figure 11: coverage versus context length for the sequence models.
pub(crate) fn fig11_coverage_by_length(wb: &Workbench, models: &TrainedModels) -> String {
    let gt = &wb.processed.ground_truth;
    let roster: Vec<(&str, &dyn Recommender)> = vec![
        ("N-gram", &models.ngram),
        ("VMM (0.05)", &models.vmm_005),
        ("MVMM", &models.mvmm),
        ("Adj.", &models.adjacency),
    ];
    let mut rows = Vec::new();
    for (name, m) in &roster {
        let pts = coverage_by_length(*m, gt, MAX_CONTEXT_LEN);
        let mut row = vec![name.to_string()];
        row.extend(pts.iter().map(|p| pct(p.fraction())));
        rows.push(row);
    }
    let mut hdr = vec!["method".to_string()];
    hdr.extend((1..=MAX_CONTEXT_LEN).map(|l| format!("len {l}")));
    let mut out = render_table("Figure 11 — coverage vs context length", &hdr, &rows);
    out.push_str(
        "\nexpected shape: N-gram collapses beyond length 3 (paper: <1%); \
         VMM/MVMM decay sub-linearly and track Adj.\n",
    );
    out
}

/// Table VI: measured reasons for unpredictable queries.
pub(crate) fn tab06_unpredictable_reasons(wb: &Workbench, models: &TrainedModels) -> String {
    let analysis = reason_analysis(
        &wb.processed.ground_truth,
        &wb.processed.train_index,
        &models.ngram,
    );
    let mut rows = Vec::new();
    for (model, counts) in &analysis {
        for r in UnpredictableReason::ALL {
            let c = counts.get(r);
            if c > 0 || matches!(r, UnpredictableReason::NewQuery) {
                rows.push(vec![
                    model.to_string(),
                    r.label().to_string(),
                    c.to_string(),
                    pct(c as f64 / counts.total.max(1) as f64),
                ]);
            }
        }
        rows.push(vec![
            model.to_string(),
            "covered (predictable)".into(),
            counts.covered.to_string(),
            pct(counts.covered as f64 / counts.total.max(1) as f64),
        ]);
    }
    let mut out = render_table(
        "Table VI — reasons for unpredictable queries (support-weighted)",
        &headers(&["model", "reason", "support", "share"]),
        &rows,
    );
    out.push_str(
        "\npaper structure: Co-occ. fails on (1)(2); Adj./VMM/MVMM add (3); N-gram adds (4)\n",
    );
    out
}

/// Table VII: memory footprint per method, plus the merged-PST node counts.
pub(crate) fn tab07_memory(wb: &Workbench, models: &TrainedModels) -> String {
    let rows: Vec<Vec<String>> = models
        .all()
        .iter()
        .map(|(name, m)| {
            vec![
                name.to_string(),
                sqp_common::mem::format_megabytes(m.memory_bytes()),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table VII — memory footprint (MB)",
        &headers(&["method", "MB"]),
        &rows,
    );

    // The paper's merged-PST illustration: 2-bounded VMM(0.1) + 3-bounded
    // VMM(0.2) merge into barely more nodes than either alone.
    let sessions = wb.train_sessions();
    let v2 = Vmm::train(sessions, VmmConfig::bounded(2, 0.1));
    let v3 = Vmm::train(sessions, VmmConfig::bounded(3, 0.2));
    let mix = Mvmm::train(sessions, &MvmmConfig::depth_mixture(&[(2, 0.1), (3, 0.2)]));
    out.push_str(&format!(
        "\nmerged-PST illustration (§V-F.2):\n\
         2-bounded VMM (0.1): {} nodes\n\
         3-bounded VMM (0.2): {} nodes\n\
         merged MVMM PST:     {} nodes (paper example: 6,910,940 + 6,854,439 -> 7,211,288)\n",
        v2.node_count(),
        v3.node_count(),
        mix.merged_state_count(),
    ));
    out
}

/// Figure 12: training time versus amount of training data.
pub(crate) fn fig12_training_time(wb: &Workbench) -> String {
    let specs = vec![
        ModelSpec::Adjacency,
        ModelSpec::Cooccurrence,
        ModelSpec::NGram,
        ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
        ModelSpec::Mvmm(if wb.args.quick {
            MvmmConfig::small()
        } else {
            MvmmConfig::epsilon_sweep()
        }),
    ];
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let rows_data = sqp_eval::training_time_sweep(wb.train_sessions(), &fractions, &specs);

    let mut hdr = vec!["fraction".to_string(), "unique sessions".to_string()];
    hdr.extend(specs.iter().map(|s| format!("{} (ms)", s.label())));
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            let mut row = vec![
                format!("{:.0}%", r.fraction * 100.0),
                r.unique_sessions.to_string(),
            ];
            row.extend(r.times.iter().map(|(_, d)| ms(*d)));
            row
        })
        .collect();
    let mut out = render_table("Figure 12 — training time vs training data", &hdr, &rows);

    // Linearity check: time at 100% over time at 20% should be roughly 5x
    // (generously banded — wall-clock noise at millisecond scale).
    if let (Some(first), Some(last)) = (rows_data.first(), rows_data.last()) {
        out.push('\n');
        for i in 0..specs.len() {
            let t0 = first.times[i].1.as_secs_f64().max(1e-6);
            let t1 = last.times[i].1.as_secs_f64();
            out.push_str(&format!(
                "{}: x{:.1} time for x5 data (linear scaling ~ x5)\n",
                first.times[i].0,
                t1 / t0
            ));
        }
    }
    out.push_str("\npaper: all methods scale linearly; MVMM ~ K x single VMM (parallelizable)\n");
    out
}
