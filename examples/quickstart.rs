//! Quickstart: simulate a small search log, run the session pipeline, train
//! the paper's MVMM, and ask for query recommendations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sqp::core::{Mvmm, MvmmConfig, Recommender};
use sqp::logsim::SimConfig;
use sqp::sessions::{process, PipelineConfig};

fn main() {
    // 1. A small simulated log: 20k training sessions, 5k test sessions.
    let sim = SimConfig::small(20_000, 5_000, 7);
    let logs = sqp::logsim::generate(&sim);
    println!(
        "simulated {} training records / {} test records",
        logs.train.len(),
        logs.test.len()
    );

    // 2. The paper's pipeline: 30-minute sessionization, aggregation,
    //    frequency reduction.
    let processed = process(&logs, &PipelineConfig::default());
    println!(
        "pipeline: {} unique training sessions ({} mass), |Q| = {}",
        processed.train.aggregated.unique_sessions(),
        processed.train.aggregated.total_sessions(),
        processed.interner.len()
    );

    // 3. Train the Mixture Variable Memory Markov model.
    let mvmm = Mvmm::train(&processed.train.aggregated.sessions, &MvmmConfig::small());
    println!(
        "MVMM trained: {} components, sigmas = {:?}",
        mvmm.configs().len(),
        mvmm.sigmas()
            .iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
    );

    // 4. Recommend: take the highest-support test context the model covers
    //    (test-only tail queries are legitimately uncovered — that is the
    //    paper's coverage metric) and suggest the next query.
    let mut by_support: Vec<_> = processed
        .ground_truth
        .entries
        .iter()
        .filter(|e| e.context.len() >= 2)
        .collect();
    by_support.sort_by_key(|e| std::cmp::Reverse(e.support));
    let entry = by_support
        .iter()
        .find(|e| mvmm.covers(&e.context))
        .expect("no covered test context — model or pipeline is broken");

    println!("\nuser context:");
    for q in entry.context.iter() {
        println!("  > {}", processed.interner.resolve(*q));
    }
    let recs = mvmm.recommend(&entry.context, 5);
    println!("top-5 recommendations:");
    for rec in &recs {
        println!(
            "  {:<40} (score {:.4})",
            processed.interner.resolve(rec.query),
            rec.score
        );
    }
    println!("\nwhat test users actually asked next:");
    for (q, freq) in &entry.top {
        println!("  {:<40} ({} times)", processed.interner.resolve(*q), freq);
    }

    // The quickstart doubles as a smoke test (`cargo run --example
    // quickstart` in CI): the covered context must yield ranked suggestions.
    assert!(!recs.is_empty(), "covered context produced no suggestions");
    assert!(
        recs.windows(2).all(|w| w[0].score >= w[1].score),
        "recommendations are not rank-ordered"
    );
    println!("\nquickstart assertions passed");
}
