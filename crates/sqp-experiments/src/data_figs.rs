//! Data-centric experiments: Figures 1–7 and Tables I, IV, V.

use crate::harness::Workbench;
use sqp_common::math::kl_divergence_base10;
use sqp_core::toy::{toy_corpus, toy_test_sequence, TOY_EPSILON, TOY_TEST_SEQUENCE_PROB};
use sqp_core::{SequenceScorer, Vmm, VmmConfig};
use sqp_eval::report::{f4, headers, pct, render_series, render_table};
use sqp_logsim::PatternType;
use sqp_sessions::patterns::{classify_session, order_sensitive_fraction, pattern_distribution};

/// Figure 1: distribution of the seven session-pattern types, classified by
/// the rule-based labeler, with generator ground truth and agreement rate.
pub fn fig01_patterns(wb: &Workbench) -> String {
    let vocab = &wb.logs.truth.vocabulary;
    let sample: Vec<&[String]> = wb
        .logs
        .truth
        .train_sessions
        .iter()
        .take(20_000)
        .map(|s| s.queries.as_slice())
        .collect();
    let counts = pattern_distribution(sample.iter().copied(), Some(vocab));
    let total: u64 = counts.iter().sum();

    // Generator ground truth over the same sample.
    let mut truth_counts = [0u64; 7];
    let mut agree = 0u64;
    let mut compared = 0u64;
    for s in wb.logs.truth.train_sessions.iter().take(20_000) {
        if let Some(t) = s.dominant_label() {
            truth_counts[t.index()] += 1;
            if let Some(c) = classify_session(&s.queries, Some(vocab)) {
                compared += 1;
                if c == t {
                    agree += 1;
                }
            }
        }
    }
    let truth_total: u64 = truth_counts.iter().sum();

    let rows: Vec<Vec<String>> = PatternType::ALL
        .iter()
        .map(|p| {
            vec![
                p.label().to_string(),
                pct(counts[p.index()] as f64 / total.max(1) as f64),
                pct(truth_counts[p.index()] as f64 / truth_total.max(1) as f64),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 1 — session pattern distribution (multi-query sessions)",
        &headers(&["pattern", "classified", "generator truth"]),
        &rows,
    );
    out.push_str(&format!(
        "\norder-sensitive share (classified): {} (paper: 34.34%)\n\
         classifier agreement with generator truth: {}\n\
         sessions classified: {total}\n",
        pct(order_sensitive_fraction(&counts)),
        pct(agree as f64 / compared.max(1) as f64),
    ));
    out
}

/// Table I: one example session per pattern type.
pub fn tab01_pattern_examples(wb: &Workbench) -> String {
    let mut rows = Vec::new();
    for p in PatternType::ALL {
        let example = wb
            .logs
            .truth
            .train_sessions
            .iter()
            .find(|s| s.dominant_label() == Some(p))
            .map(|s| s.queries.join(" => "))
            .unwrap_or_else(|| "(none generated)".into());
        rows.push(vec![p.label().to_string(), example]);
    }
    render_table(
        "Table I — sample search sequence patterns (simulated)",
        &headers(&["search sequence pattern", "example"]),
        &rows,
    )
}

/// Figure 2: average prediction entropy versus context length.
pub fn fig02_entropy(wb: &Workbench) -> String {
    let pts = sqp_eval::entropy_by_context_length(wb.train_sessions(), 5);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.context_len.to_string(),
                f4(p.mean_entropy),
                p.contexts.to_string(),
            ]
        })
        .collect();
    let mut out = render_table(
        "Figure 2 — average prediction entropy vs context length (log base 10)",
        &headers(&["context length", "avg entropy", "#contexts"]),
        &rows,
    );
    out.push('\n');
    out.push_str(&render_series(
        "entropy",
        &pts.iter()
            .map(|p| (p.context_len as f64, p.mean_entropy))
            .collect::<Vec<_>>(),
    ));
    out.push_str("expected shape: monotone decrease (paper's curve drops dramatically)\n");
    out
}

/// Figure 3 + Table II: the toy PST, checked against the paper's numbers.
pub fn fig03_toy_pst() -> String {
    let corpus = toy_corpus();
    let vmm = Vmm::train(&corpus, VmmConfig::with_epsilon(TOY_EPSILON));

    let mut out = String::from(
        "Figure 3 — PST built from the Table II toy corpus (epsilon = 0.1)\n\
         =================================================================\n",
    );
    // States and their distributions, in (length, sequence) order — the
    // tree's own state order.
    let mut context = Vec::new();
    for state in 0..vmm.node_count() as u32 {
        vmm.pst().context_into(state, &mut context);
        let label = if context.is_empty() {
            "e".to_string()
        } else {
            context.iter().map(|q| format!("q{}", q.0)).collect()
        };
        let dist = vmm.pst().dist(state);
        out.push_str(&format!(
            "state {:6}  (P(q0|s), P(q1|s)) = ({:.3}, {:.3})\n",
            label,
            dist.prob(sqp_common::QueryId(0)),
            dist.prob(sqp_common::QueryId(1)),
        ));
    }

    // The two KL decisions.
    let d_q1q0 = kl_divergence_base10(&[0.9, 0.1], &[0.3, 0.7], 0.0);
    let d_q0q1 = kl_divergence_base10(&[0.8, 0.2], &[0.5, 0.5], 0.0);
    out.push_str(&format!(
        "\nD_KL(q0 || q1q0) = {:.4}  (paper: 0.3449) -> {}\n",
        d_q1q0,
        if d_q1q0 > TOY_EPSILON {
            "added"
        } else {
            "rejected"
        }
    ));
    out.push_str(&format!(
        "D_KL(q1 || q0q1) = {:.4}  (paper: 0.0837) -> {}\n",
        d_q0q1,
        if d_q0q1 > TOY_EPSILON {
            "added"
        } else {
            "rejected"
        }
    ));

    // The walked-through sequence probability.
    let lp = vmm.sequence_log10_prob(&toy_test_sequence());
    out.push_str(&format!(
        "\nP([q0,q1,q0,q1,q1,q0]) = {:.6}  (paper: 1x0.1x0.8x0.7x0.2x0.8 = {:.6})\n",
        10f64.powf(lp),
        TOY_TEST_SEQUENCE_PROB
    ));
    let ok = (10f64.powf(lp) - TOY_TEST_SEQUENCE_PROB).abs() < 1e-9
        && vmm.node_count() == 4
        && (d_q1q0 - 0.3449).abs() < 1e-4
        && (d_q0q1 - 0.0837).abs() < 1e-4;
    out.push_str(&format!(
        "node count = {} (paper: states e, q0, q1, q1q0)\nverdict: {}\n",
        vmm.node_count(),
        if ok { "EXACT MATCH" } else { "MISMATCH" }
    ));
    out
}

/// Table IV: summary statistics of segmented sessions.
pub fn tab04_dataset_stats(wb: &Workbench) -> String {
    let tr = &wb.processed.train.stats;
    let te = &wb.processed.test.stats;
    let rows = vec![
        vec![
            "training".into(),
            tr.n_sessions.to_string(),
            tr.n_searches.to_string(),
            tr.n_unique_queries.to_string(),
            format!("{:.2}", tr.mean_session_length()),
        ],
        vec![
            "test".into(),
            te.n_sessions.to_string(),
            te.n_searches.to_string(),
            te.n_unique_queries.to_string(),
            format!("{:.2}", te.mean_session_length()),
        ],
    ];
    let mut out = render_table(
        "Table IV — summary statistics of segmented sessions",
        &headers(&[
            "data",
            "# sessions",
            "# searches",
            "# unique queries",
            "mean length",
        ]),
        &rows,
    );
    out.push_str(
        "\npaper scale: 2.0B/0.49B sessions, 3.9B/1.1B searches, 1.1B/0.36B unique queries\n\
         (simulated corpus preserves ratios and shapes, not absolute magnitudes)\n",
    );
    out
}

/// Table V: sample sessions of each length.
pub fn tab05_sample_sessions(wb: &Workbench) -> String {
    let interner = &wb.processed.interner;
    let mut rows = Vec::new();
    for len in 2..=5usize {
        if let Some((seq, freq)) = wb
            .processed
            .train
            .aggregated
            .sessions
            .iter()
            .find(|(s, _)| s.len() == len)
        {
            rows.push(vec![
                len.to_string(),
                interner.render(seq),
                freq.to_string(),
            ]);
        }
    }
    render_table(
        "Table V — sample sessions (most frequent per length)",
        &headers(&["length", "session", "frequency"]),
        &rows,
    )
}

/// Figure 5: session count versus session length (train and test).
pub fn fig05_session_histogram(wb: &Workbench) -> String {
    let mut out = String::new();
    for (name, epoch) in [
        ("training", &wb.processed.train),
        ("test", &wb.processed.test),
    ] {
        let rows: Vec<Vec<String>> = epoch
            .length_hist_before
            .iter()
            .map(|(len, count)| vec![len.to_string(), count.to_string()])
            .collect();
        out.push_str(&render_table(
            &format!("Figure 5 ({name}) — session count vs session length"),
            &headers(&["session length", "# sessions"]),
            &rows,
        ));
        out.push('\n');
    }
    out.push_str("expected shape: monotone decay with a visible tail beyond length 4\n");
    out
}

/// Figure 6: power-law distribution of aggregated session frequencies.
pub fn fig06_power_law(wb: &Workbench) -> String {
    let mut out = String::new();
    for (name, epoch) in [
        ("training", &wb.processed.train),
        ("test", &wb.processed.test),
    ] {
        let slope = sqp_common::hist::log_log_slope(&epoch.spectrum).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "Figure 6 ({name}) — aggregated session rank/frequency\n\
             unique aggregated sessions: {}\n\
             log-log slope: {slope:.3} (a clean power law is a straight line)\n",
            epoch.spectrum.len()
        ));
        let sample: Vec<(f64, f64)> = epoch
            .spectrum
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                // Log-spaced sample of the spectrum for the series output.
                let i = *i + 1;
                i.is_power_of_two() || i % (epoch.spectrum.len() / 20).max(1) == 0
            })
            .map(|(_, &p)| p)
            .collect();
        out.push_str(&render_series(&format!("rank_freq_{name}"), &sample));
        out.push('\n');
    }
    out
}

/// Figure 7: session histogram after data reduction, with retention stats.
pub fn fig07_reduction(wb: &Workbench) -> String {
    let mut out = String::new();
    for (name, epoch, paper_pct) in [
        ("training", &wb.processed.train, "60.48%"),
        ("test", &wb.processed.test, "64.72%"),
    ] {
        let rows: Vec<Vec<String>> = epoch
            .length_hist_after
            .iter()
            .map(|(len, count)| vec![len.to_string(), count.to_string()])
            .collect();
        out.push_str(&render_table(
            &format!("Figure 7 ({name}) — session count vs length after reduction"),
            &headers(&["session length", "# sessions"]),
            &rows,
        ));
        out.push_str(&format!(
            "dropped unique aggregated sessions: {} (paper: ~40% at freq <= 5)\n\
             data retained: {} (paper: {paper_pct})\n\n",
            pct(epoch.reduction.dropped_unique_fraction()),
            pct(epoch.reduction.retention()),
        ));
    }
    out
}
