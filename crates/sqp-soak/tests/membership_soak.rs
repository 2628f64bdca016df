//! Acceptance gate for live tier reconfiguration: the membership chaos
//! soak must replay bit-identically.
//!
//! [`run_membership_soak`] asserts every live-membership invariant
//! internally (accounting per phase, zero context resets for handed-off
//! users, loss bounded by the ring's remap property on an undrained
//! kill, graceful churn under concurrent traffic). These tests pin what
//! only a caller can: the scenario is **replayable** — same seed, same
//! report, digest included — and the digest actually depends on the
//! seed, so it cannot be a constant that would vacuously pass.

use sqp_soak::membership_loop::{run_membership_soak, OPS_PER_WORKER, WORKERS};

#[test]
fn membership_soak_replays_bit_identically() {
    let first = run_membership_soak(7);
    let second = run_membership_soak(7);
    assert_eq!(
        first, second,
        "same seed must reproduce the same scenario, digest included"
    );

    // The deterministic phases really ran full traffic.
    let expected_ops = (WORKERS as u64) * OPS_PER_WORKER;
    for tally in [
        &first.steady,
        &first.after_join,
        &first.after_drain,
        &first.after_kill,
    ] {
        assert_eq!(tally.sent, expected_ops);
        assert_eq!(tally.refused, 0, "static membership refuses nothing");
    }
    // Graceful membership changes never reset a session; the undrained
    // kill loses exactly its routed set and nothing more.
    assert_eq!(first.steady.resets, 0);
    assert_eq!(first.after_join.resets, 0);
    assert_eq!(first.after_drain.resets, 0);
    assert_eq!(first.after_kill.resets, first.kill_lost as u64);
    assert_eq!(first.churn.resets, 0);
}

#[test]
fn membership_soak_digest_depends_on_the_seed() {
    let a = run_membership_soak(1);
    let b = run_membership_soak(2);
    assert_ne!(
        a.digest, b.digest,
        "different seeds must produce different traffic, hence digests"
    );
    // The scenario shape (who joined, who drained, who died) is fixed;
    // only the traffic varies with the seed.
    assert_eq!(a.final_replicas, b.final_replicas);
    assert_eq!(a.final_ring_generation, b.final_ring_generation);
}
