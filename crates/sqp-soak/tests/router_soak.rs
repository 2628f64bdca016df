//! The `router-soak` acceptance suite for the replicated serving tier.
//!
//! Two scenarios, both built on `sqp_soak::router_loop` (every invariant
//! is asserted *inside* the harnesses — a violated guarantee panics there
//! with the failing evidence; the assertions here check the scenarios were
//! not vacuous):
//!
//! * **Generation skew under live traffic** — a rolling upgrade of a
//!   4-replica tier is held on mixed generations while 4 worker threads
//!   hammer tracked, stateless, and batched suggests. Tagged vocabularies
//!   make every answer's snapshot readable off its text: no call may mix
//!   snapshots (torn read), no user may regress from the new model to the
//!   old (session migration), every route is sticky, and the tier must end
//!   converged on the new generation.
//! * **Chaos under routing** — a fault plan fails exactly one replica's
//!   snapshot read mid-roll; that replica quarantines on its last-good
//!   model while the rest complete, `RouterStats` reports the skew, and
//!   the whole scenario — fault decisions included — replays
//!   bit-identically from the seed.

use sqp_soak::router_loop::{run_chaos_roll, run_skew_soak};

#[test]
fn generation_skew_under_live_traffic() {
    let report = run_skew_soak(4, 1_500);
    // The harness asserted the guarantees; this is the evidence the skew
    // window really carried traffic on both generations.
    assert_eq!(report.threads, 4);
    assert_eq!(report.replicas, 4);
    assert_eq!(report.max_skew_observed, 1);
    assert_eq!(report.final_generation, 1);
    assert!(report.old_during_roll > 0, "{report:?}");
    assert!(report.new_during_roll > 0, "{report:?}");
    // Four held steps plus warmup and tail: at least 6 holds' worth of
    // classified calls went through the tier.
    assert!(report.ops_total >= 6 * 1_500, "{report:?}");
}

#[test]
fn chaos_roll_quarantines_the_victim_and_replays_bit_identically() {
    let first = run_chaos_roll(1);
    assert_eq!(first.failed_replica, 1);
    assert_eq!(first.upgraded, vec![0, 2, 3]);
    assert_eq!(first.skew_after_roll, 1);
    assert_eq!(first.read_errors, 1);

    // Same seed, fresh tier, fresh chaos runtime: identical report,
    // identical fault-decision digest.
    let second = run_chaos_roll(1);
    assert_eq!(first, second, "chaos roll did not replay bit-identically");

    // A different seed moves the victim (seed % replicas).
    let other = run_chaos_roll(2);
    assert_eq!(other.failed_replica, 2);
    assert_ne!(other.digest, first.digest);
}
