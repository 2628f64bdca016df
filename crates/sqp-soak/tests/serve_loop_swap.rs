//! Acceptance test for the serving stress harness: sustained concurrent
//! track/suggest traffic across ≥ 4 threads with an atomic mid-run model
//! swap, completing without panics, lost operations, or a stuck trainer —
//! on a single engine and, unchanged, on a replicated tier whose publish
//! is a fan-out.

use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{EngineConfig, ServeEngine};
use sqp_soak::build_parts;
use sqp_soak::serve_loop::{
    run_on, ServeLoopReport, CORPUS_SESSIONS, OPS_PER_THREAD, SEED, SWAPS, THREADS,
};

fn assert_sustained(report: &ServeLoopReport) {
    // Every scheduled operation completed (workers add tail ops to keep
    // traffic flowing until the publish lands — never fewer).
    assert!(
        report.ops_total >= THREADS as u64 * OPS_PER_THREAD,
        "lost operations: {} of {}",
        report.ops_total,
        THREADS as u64 * OPS_PER_THREAD
    );
    // The trainer published, the surface observed it (on a tier: its
    // trailing edge), and at least one publication landed while worker
    // traffic was still flowing.
    assert_eq!(report.swaps_completed, SWAPS);
    assert_eq!(report.final_generation, SWAPS);
    assert!(report.mid_run_swaps > 0, "swap landed only after traffic");
    // Traffic was real: suggestions were computed and many were non-empty.
    assert!(report.suggests > 0);
    assert!(
        report.nonempty_suggestions > 0,
        "no covered context ever produced a suggestion"
    );
    // The tracker held live sessions, and the final sweep reclaimed them.
    assert!(report.active_sessions > 0);
    assert_eq!(report.evicted_at_end, report.active_sessions);
}

#[test]
fn serve_loop_sustains_traffic_across_a_mid_run_swap() {
    const { assert!(THREADS >= 4, "acceptance floor is 4 worker threads") };
    let (snapshot, vocabulary, records) = build_parts(CORPUS_SESSIONS, SEED);
    let engine = ServeEngine::new(snapshot, EngineConfig::default());
    assert_sustained(&run_on(&engine, &vocabulary, &records));
}

#[test]
fn the_same_workload_runs_unchanged_on_a_replicated_tier() {
    let (snapshot, vocabulary, records) = build_parts(CORPUS_SESSIONS, SEED);
    let router = RouterEngine::new(
        snapshot,
        RouterConfig {
            replicas: 3,
            ..RouterConfig::default()
        },
    );
    assert_sustained(&run_on(&router, &vocabulary, &records));
}
