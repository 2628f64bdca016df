//! Using the library on *your own* search logs: parse Table III-style TSV
//! records, run the pipeline, train a VMM, persist it to disk, reload it in
//! a "serving process", and recommend — the full deployment loop of §V-F.2.
//!
//! ```sh
//! cargo run --release --example custom_corpus
//! ```

use sqp::core::{Vmm, VmmConfig};
use sqp::logsim::record;
use sqp::serve::ModelSnapshot;
use sqp::sessions::{aggregate, reduce, segment_default};
use sqp::store::{load_snapshot, save_snapshot, SnapshotMeta};
use sqp_common::Interner;

/// A tiny hand-written log in the paper's Table III format:
/// machine \t timestamp \t query \t #clicks \t url,ts;…
const RAW_LOG: &str = "\
7\t100\tkidney stones\t1\twww.health.example/a,130
7\t220\tkidney stone symptoms\t0\t
7\t410\tkidney stone symptoms in women\t2\twww.health.example/b,450;www.health.example/c,520
9\t100\tnokia n73\t0\t
9\t230\tnokia n73 themes\t1\twww.phones.example/t,260
9\t6000\tnokia n73\t0\t
9\t6120\tnokia n73 themes\t0\t
9\t9000\tnokia n73\t0\t
9\t9100\tnokia n73 games\t0\t
11\t100\tkidney stones\t0\t
11\t260\tkidney stone symptoms\t0\t
11\t88000\tmuzzle brake\t0\t
";

fn main() {
    // 1. Parse raw logs (yours would come from a file).
    let records = record::from_tsv(RAW_LOG).expect("well-formed TSV");
    println!("parsed {} raw records", records.len());

    // 2. Pipeline: 30-minute segmentation → aggregation → reduction.
    let sessions = segment_default(&records);
    println!("segmented into {} sessions:", sessions.len());
    for s in sessions.iter() {
        let queries: Vec<&str> = s.queries().collect();
        println!("  machine {}: {}", s.machine_id, queries.join(" => "));
    }
    let mut interner = Interner::new();
    let aggregated = aggregate(&sessions, &mut interner);
    // Keep everything on a corpus this small (the threshold is for noise at
    // scale).
    let (reduced, _) = reduce(&aggregated, 0);

    // 3. Train and persist the *full snapshot* — model plus the interner
    //    its ids are relative to — as one file (the nightly build).
    let vmm = Vmm::train(&reduced.sessions, VmmConfig::with_epsilon(0.05));
    let node_count = vmm.node_count();
    let trained = ModelSnapshot::from_parts(interner, Box::new(vmm), reduced.total_sessions());
    let meta = SnapshotMeta::describe(&trained, 0, records.len() as u64);
    let path = std::env::temp_dir().join("sqp_custom_corpus.sqps");
    save_snapshot(&path, &trained, &meta).expect("write snapshot");
    println!(
        "\ntrained VMM: {} PST nodes, snapshot at {} ({} bytes)",
        node_count,
        path.display(),
        std::fs::metadata(&path).expect("snapshot written").len()
    );

    // 4. Warm-start the "serving process" from the file alone: no raw
    //    logs, no separate interner to ship — strings in, strings out.
    let (served, served_meta) = load_snapshot(&path).expect("valid snapshot file");
    println!(
        "loaded generation {} ({} sessions, {} distinct queries)",
        served_meta.generation,
        served_meta.trained_sessions,
        served.vocabulary_size()
    );
    for context in [
        &["kidney stones", "kidney stone symptoms"][..],
        &["nokia n73"][..],
    ] {
        println!("\nuser context: {}", context.join(" => "));
        println!("suggestions:");
        for s in served.suggest(context, 3) {
            println!("  {:<38} (P = {:.3})", s.query, s.score);
        }
    }
    std::fs::remove_file(&path).ok();
}
