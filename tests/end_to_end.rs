//! Integration test: generator → pipeline → all five models → evaluation,
//! asserting the *qualitative shapes* of the paper's §V results. Absolute
//! numbers differ (our substrate is a simulator, not a 2.5B-session
//! commercial log); orderings, crossovers and decay shapes must hold.

use sqp::core::{Adjacency, Cooccurrence, Mvmm, MvmmConfig, NGram, Recommender, Vmm, VmmConfig};
use sqp::eval::{
    coverage_by_length, entropy_by_context_length, overall_coverage, overall_ndcg, reason_analysis,
};
use sqp::logsim::SimConfig;
use sqp::sessions::{process, PipelineConfig, ProcessedLogs};

struct World {
    processed: ProcessedLogs,
    adj: Adjacency,
    cooc: Cooccurrence,
    ngram: NGram,
    vmm: Vmm,
    mvmm: Mvmm,
}

fn world() -> World {
    let logs = sqp::logsim::generate(&SimConfig {
        train_sessions: 40_000,
        test_sessions: 10_000,
        seed: 20_260_608,
        ..SimConfig::default()
    });
    let processed = process(&logs, &PipelineConfig::default());
    let sessions = processed.train.aggregated.sessions.clone();
    World {
        adj: Adjacency::train(&sessions),
        cooc: Cooccurrence::train(&sessions),
        ngram: NGram::train(&sessions),
        vmm: Vmm::train(&sessions, VmmConfig::with_epsilon(0.05)),
        mvmm: Mvmm::train(&sessions, &MvmmConfig::small()),
        processed,
    }
}

#[test]
fn paper_shapes_hold_end_to_end() {
    let w = world();
    let gt = &w.processed.ground_truth;
    assert!(gt.len() > 250, "ground truth too small: {}", gt.len());

    // ---- Figure 8 shape: sequence models beat pair-wise on accuracy. ----
    let ndcg_adj = overall_ndcg(&w.adj, gt, 5);
    let ndcg_cooc = overall_ndcg(&w.cooc, gt, 5);
    let ndcg_ngram = overall_ndcg(&w.ngram, gt, 5);
    let ndcg_vmm = overall_ndcg(&w.vmm, gt, 5);
    let ndcg_mvmm = overall_ndcg(&w.mvmm, gt, 5);

    assert!(
        ndcg_mvmm > ndcg_cooc + 0.05,
        "MVMM {ndcg_mvmm} should clearly beat Co-occ {ndcg_cooc}"
    );
    assert!(
        ndcg_ngram > ndcg_cooc,
        "N-gram {ndcg_ngram} vs Co-occ {ndcg_cooc}"
    );
    // Adjacency beats Co-occurrence (the paper's consistent ~10% gap).
    assert!(
        ndcg_adj > ndcg_cooc,
        "Adj {ndcg_adj} should beat Co-occ {ndcg_cooc}"
    );
    // The sequence models at least match Adjacency overall.
    assert!(
        ndcg_mvmm >= ndcg_adj - 0.02,
        "MVMM {ndcg_mvmm} vs Adj {ndcg_adj}"
    );
    assert!(
        ndcg_vmm >= ndcg_adj - 0.02,
        "VMM {ndcg_vmm} vs Adj {ndcg_adj}"
    );

    // ---- Figure 10 shape: coverage ordering. ----
    let cov_adj = overall_coverage(&w.adj, gt);
    let cov_cooc = overall_coverage(&w.cooc, gt);
    let cov_ngram = overall_coverage(&w.ngram, gt);
    let cov_vmm = overall_coverage(&w.vmm, gt);
    let cov_mvmm = overall_coverage(&w.mvmm, gt);

    assert!(cov_cooc >= cov_adj, "Co-occ {cov_cooc} vs Adj {cov_adj}");
    assert!(
        (cov_vmm - cov_adj).abs() < 1e-9,
        "VMM coverage {cov_vmm} must equal Adj {cov_adj}"
    );
    assert!(
        (cov_mvmm - cov_adj).abs() < 1e-9,
        "MVMM coverage {cov_mvmm} must equal Adj {cov_adj}"
    );
    assert!(cov_ngram < cov_adj, "N-gram {cov_ngram} vs Adj {cov_adj}");
    // Sanity band (paper: 56.8–60.6%; simulator lands in a similar regime).
    assert!(
        (0.35..0.95).contains(&cov_adj),
        "coverage way out of band: {cov_adj}"
    );

    // ---- Figure 11 shape: the N-gram loses coverage at longer contexts
    // while VMM tracks Adjacency. Pointwise, the N-gram can never cover a
    // context VMM misses; beyond length 1 it must strictly lose somewhere,
    // and in aggregate over lengths ≥ 2 the deficit must be real.
    let ng = coverage_by_length(&w.ngram, gt, 5);
    let vm = coverage_by_length(&w.vmm, gt, 5);
    let mut ng_covered = 0u64;
    let mut vm_covered = 0u64;
    let mut deep_total = 0u64;
    for len in 1..5 {
        assert!(
            ng[len].covered_support <= vm[len].covered_support,
            "N-gram covered more than VMM at length {}",
            len + 1
        );
        ng_covered += ng[len].covered_support;
        vm_covered += vm[len].covered_support;
        deep_total += ng[len].total_support;
    }
    assert!(deep_total > 50, "too few deep contexts: {deep_total}");
    assert!(
        (ng_covered as f64) < (vm_covered as f64) * 0.95,
        "N-gram deep coverage {ng_covered} not clearly below VMM {vm_covered}"
    );
    // Coverage decays with context length for the N-gram.
    assert!(ng[0].fraction() > ng[3].fraction());

    // ---- Table VI structure. ----
    let reasons = reason_analysis(gt, &w.processed.train_index, &w.ngram);
    let cooc_counts = &reasons[0].1;
    let adj_counts = &reasons[1].1;
    let ngram_counts = &reasons[3].1;
    use sqp::sessions::UnpredictableReason::*;
    // Reason (3) applies to Adjacency but never to Co-occurrence.
    assert_eq!(cooc_counts.get(OnlyLastPosition), 0);
    assert!(adj_counts.get(OnlyLastPosition) > 0);
    // Reason (4) applies only to the N-gram.
    assert_eq!(adj_counts.get(ContextNotTrained), 0);
    assert!(ngram_counts.get(ContextNotTrained) > 0);
    // New queries exist in the test epoch.
    assert!(cooc_counts.get(NewQuery) > 0);

    // ---- Figure 2 shape: entropy decays with context length. ----
    let entropy = entropy_by_context_length(&w.processed.train.aggregated.sessions, 3);
    assert!(entropy[0].mean_entropy > entropy[1].mean_entropy);
    assert!(entropy[1].mean_entropy >= entropy[2].mean_entropy - 1e-9);

    // ---- Table VII shape: MVMM memory ≈ single VMM, << sum of components.
    // Measured, not priced: the mixture holds one window trie and one
    // merged PST over it, with a component mask per state.
    let merged = w.mvmm.pst();
    let trie = merged.trie();
    assert_eq!(
        w.mvmm.memory_bytes(),
        trie.heap_bytes() + merged.heap_bytes() + merged.len() * std::mem::size_of::<u16>()
    );
    // Less than the same trie with a state index per component.
    let alone: Vec<Vmm> = w
        .mvmm
        .configs()
        .iter()
        .map(|c| Vmm::train(&w.processed.train.aggregated.sessions, *c))
        .collect();
    let indexes: usize = alone.iter().map(|c| c.pst().heap_bytes()).sum();
    assert!(w.mvmm.memory_bytes() < trie.heap_bytes() + indexes);
    let sum: usize = alone.iter().map(|c| c.memory_bytes()).sum();
    assert!(2 * w.mvmm.memory_bytes() < sum);
    assert!(
        4 * w.mvmm.memory_bytes() < 5 * w.vmm.memory_bytes(),
        "MVMM {} B vs single VMM {} B",
        w.mvmm.memory_bytes(),
        w.vmm.memory_bytes()
    );
    // All VMM-family models dwarf the pair-wise models (PST + escape table).
    assert!(w.vmm.memory_bytes() > w.adj.memory_bytes());
}

#[test]
fn corpus_statistics_match_paper_shapes() {
    let logs = sqp::logsim::generate(&SimConfig {
        train_sessions: 30_000,
        test_sessions: 8_000,
        seed: 7,
        ..SimConfig::default()
    });
    let p = process(&logs, &PipelineConfig::default());

    // Mean session length 2–3 (§I cites 2.85/2.31/2.31).
    let mean = p.train.stats.mean_session_length();
    assert!((1.8..3.2).contains(&mean), "mean session length {mean}");

    // Figure 6: power-law slope clearly negative on both epochs.
    for epoch in [&p.train, &p.test] {
        let slope = sqp_common::hist::log_log_slope(&epoch.spectrum).unwrap();
        assert!(slope < -0.4, "slope {slope}");
    }

    // Figure 5/7: histograms decay overall from length 1 to length 4.
    for epoch in [&p.train, &p.test] {
        let h = &epoch.length_hist_before;
        assert!(h.count(1) > h.count(4));
    }

    // Reduction keeps a majority-ish share of mass, like the paper's
    // 60.48%/64.72%.
    assert!((0.35..0.95).contains(&p.train.reduction.retention()));
    assert!((0.35..0.95).contains(&p.test.reduction.retention()));

    // Table IV consistency: searches ≥ sessions; unique ≤ searches.
    assert!(p.train.stats.n_searches >= p.train.stats.n_sessions);
    assert!(p.train.stats.n_unique_queries <= p.train.stats.n_searches);
}

#[test]
fn pattern_distribution_matches_paper_motivation() {
    let logs = sqp::logsim::generate(&SimConfig {
        train_sessions: 30_000,
        test_sessions: 1_000,
        seed: 99,
        ..SimConfig::default()
    });
    let vocab = &logs.truth.vocabulary;
    let sample: Vec<&[String]> = logs
        .truth
        .train_sessions
        .iter()
        .take(20_000)
        .map(|s| s.queries.as_slice())
        .collect();
    let counts = sqp::sessions::patterns::pattern_distribution(sample.iter().copied(), Some(vocab));
    let sensitive = sqp::sessions::patterns::order_sensitive_fraction(&counts);
    // Paper: 34.34%. The simulator is calibrated to land nearby.
    assert!(
        (0.25..0.45).contains(&sensitive),
        "order-sensitive share {sensitive}"
    );
    // Every pattern occurs.
    for (i, c) in counts.iter().enumerate() {
        assert!(*c > 0, "pattern #{i} never classified");
    }
}

#[test]
fn user_study_shapes() {
    let w = world();
    let cfg = sqp::eval::UserEvalConfig {
        per_length: 250,
        ..Default::default()
    };
    let models: Vec<&dyn Recommender> = vec![&w.cooc, &w.adj, &w.ngram, &w.mvmm];
    let res = sqp::eval::run_user_eval(
        &models,
        &w.processed.ground_truth,
        &w.processed.interner,
        &sqp::logsim::generate(&SimConfig {
            train_sessions: 40_000,
            test_sessions: 10_000,
            seed: 20_260_608,
            ..SimConfig::default()
        })
        .truth
        .vocabulary,
        &cfg,
    );
    assert!(res.pool_size > 100);
    // Recall is a proper fraction for every method (pool is the union).
    for m in &res.methods {
        let r = m.recall(res.pool_size);
        assert!((0.0..=1.0).contains(&r), "{}: recall {r}", m.name);
    }
    // Fig 13 shape: Co-occ predicts the most queries with the worst
    // precision; the sequence models are clearly more precise.
    let cooc = &res.methods[0];
    let mvmm = &res.methods[3];
    assert!(cooc.predicted >= mvmm.predicted);
    assert!(
        mvmm.precision() > cooc.precision() + 0.05,
        "MVMM {} vs Co-occ {}",
        mvmm.precision(),
        cooc.precision()
    );
}
