//! Acceptance test for the serving stress harness: sustained concurrent
//! track/suggest traffic across ≥ 4 threads with an atomic mid-run model
//! swap, completing without panics, lost operations, or a stuck trainer —
//! on a single engine and, unchanged, on a replicated tier whose publish
//! is a fan-out.

use sqp_router::{RouterConfig, RouterEngine};
use sqp_soak::serve_loop::{self, ServeLoopConfig, ServeLoopReport};

fn assert_sustained(cfg: &ServeLoopConfig, report: &ServeLoopReport) {
    // Every scheduled operation completed (workers may add tail ops to
    // keep traffic flowing until the publish lands — never fewer).
    assert!(
        report.ops_total >= (cfg.threads * cfg.ops_per_thread) as u64,
        "lost operations: {} of {}",
        report.ops_total,
        cfg.threads * cfg.ops_per_thread
    );
    // The trainer published, the surface observed it (on a tier: its
    // trailing edge), and at least one publication landed while worker
    // traffic was still flowing.
    assert_eq!(report.swaps_completed, cfg.swaps as u64);
    assert_eq!(report.final_generation, cfg.swaps as u64);
    assert!(report.mid_run_swaps > 0, "swap landed only after traffic");
    // Traffic was real: suggestions were computed and many were non-empty.
    assert!(report.suggests_total > 0);
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
    let cfg = ServeLoopConfig::smoke();
    assert!(cfg.threads >= 4, "acceptance floor is 4 worker threads");
    assert_sustained(&cfg, &serve_loop::run(&cfg));
}

#[test]
fn the_same_workload_runs_unchanged_on_a_replicated_tier() {
    let cfg = ServeLoopConfig::smoke();
    let (snapshot, vocabulary, records) = serve_loop::build_parts(&cfg);
    let router = RouterEngine::new(
        snapshot,
        RouterConfig {
            replicas: 3,
            ..RouterConfig::default()
        },
    );
    let report = serve_loop::run_on(&router, &cfg, &vocabulary, &records);
    assert_sustained(&cfg, &report);
}
