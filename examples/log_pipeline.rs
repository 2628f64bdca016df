//! The raw-log processing pipeline end to end, including serialization:
//! generate Table III-style click logs, round-trip them through the TSV
//! codec, then segment / aggregate / reduce and print the Table IV
//! statistics.
//!
//! ```sh
//! cargo run --release --example log_pipeline
//! ```

use sqp::logsim::{record, SimConfig};
use sqp::sessions::{aggregate, corpus_stats, reduce, segment_default};
use sqp_common::Interner;

fn main() {
    let logs = sqp::logsim::generate(&SimConfig::small(15_000, 3_000, 99));

    // Raw records look like the paper's Table III.
    println!("first three raw log records (Table III format):");
    for line in record::to_tsv(&logs.train[..3]).lines() {
        println!("  {line}");
    }

    // Round-trip through the TSV codec — this is how logs would be staged
    // on disk between collection and the nightly model build.
    let tsv = record::to_tsv(&logs.train);
    let reparsed = record::from_tsv(&tsv).expect("TSV round-trip");
    assert_eq!(reparsed, logs.train);
    println!(
        "\nserialization: {} records; TSV {} KiB",
        logs.train.len(),
        tsv.len() / 1024
    );

    // 30-minute-rule segmentation.
    let sessions = segment_default(&logs.train);
    let stats = corpus_stats(&sessions);
    println!("\nTable IV-style statistics (training epoch):");
    println!("  sessions:        {}", stats.n_sessions);
    println!("  searches:        {}", stats.n_searches);
    println!("  unique queries:  {}", stats.n_unique_queries);
    println!("  mean length:     {:.2}", stats.mean_session_length());

    println!("\nsession-length histogram (Figure 5):");
    for (len, count) in stats.length_histogram.iter() {
        let bar = "#".repeat((count as usize * 50 / stats.n_sessions as usize).max(1));
        println!("  len {len}: {count:>7} {bar}");
    }

    // Aggregation + power law (Figure 6).
    let mut interner = Interner::new();
    let aggregated = aggregate(&sessions, &mut interner);
    let slope = sqp_common::hist::log_log_slope(&aggregated.rank_frequency());
    println!(
        "\naggregation: {} unique sessions; rank/frequency log-log slope {:.2} (Figure 6)",
        aggregated.unique_sessions(),
        slope.unwrap_or(f64::NAN)
    );

    // Reduction (Figure 7).
    let (reduced, report) = reduce(&aggregated, 1);
    println!(
        "reduction (drop freq <= 1): kept {} unique sessions, {:.1}% of the data mass \
         (paper: 60.48% remained)",
        reduced.unique_sessions(),
        report.retention() * 100.0
    );
}
