//! The seeded chaos soak: the resilience storyline must play out exactly,
//! and must be bit-replayable from the seed.
//!
//! Run directly with `cargo test -p sqp-soak --test chaos_soak` (the CI
//! `chaos-smoke` job does).

use sqp_soak::chaos::{run_overload_soak, run_replay_soak};
use sqp_store::BreakerState;

#[test]
fn resilience_storyline_plays_out_exactly() {
    let report = run_replay_soak(42);

    // Every request the fleet issued was answered (admission unlimited).
    assert_eq!(report.served, 4 * 200, "no request may go unanswered");

    // The scripted faults produced exactly the scripted outcomes.
    assert_eq!(
        report.script,
        [
            "panic",
            "panic",
            "breaker-open",
            "published:1",
            "quarantined:2->rollback:1",
            "published:3",
            "quarantined:4->rollback:3",
        ],
        "storyline diverged"
    );

    // Health accounting matches the storyline.
    let h = &report.health;
    assert_eq!(h.breaker, BreakerState::Closed);
    assert_eq!(h.retrains_ok, 2);
    assert_eq!(h.failures, 4, "2 panics + 2 quarantines");
    assert_eq!(h.save_retries, 2);
    assert_eq!(h.quarantined, 2);
    assert_eq!(h.rollbacks, 2);
    assert_eq!(h.breaker_trips, 1);
    assert_eq!(h.breaker_recoveries, 1);
    assert_eq!(h.steps_skipped_open, 1);
    assert_eq!(h.last_good_generation, Some(3));
    assert_eq!(
        h.consecutive_failures, 1,
        "final quarantine, under threshold"
    );

    // Chaos counters: every scheduled fault fired, none extra.
    assert_eq!(report.stats.panics, 2);
    assert_eq!(report.stats.corrupt_writes, 1);
    assert_eq!(report.stats.write_errors, 2);
    assert_eq!(report.stats.short_reads, 1);
    assert_eq!(report.stats.read_errors, 0);

    // Generation numbering burned through the quarantines: 4 on disk,
    // quarantined files counted, never reused.
    assert_eq!(report.latest_generation, 4);

    // The engine actually serves generation 3's model after the final
    // rollback — not the quarantined generation 4, not a stale one.
    assert_eq!(report.serving_top.as_deref(), Some("b3::next"));
    // 2 validated publishes + 2 rollback publishes.
    assert_eq!(report.publishes, 4);
}

#[test]
fn replay_is_bit_identical_from_the_seed() {
    let a = run_replay_soak(7);
    let b = run_replay_soak(7);
    assert_eq!(a.digest, b.digest, "same seed must replay bit-identically");
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.script, b.script);
    assert_eq!(a.health, b.health);

    let c = run_replay_soak(8);
    assert_ne!(a.digest, c.digest, "different seeds must diverge");
}

#[test]
fn overload_sheds_typed_and_leaks_nothing() {
    let report = run_overload_soak(42);
    assert_eq!(
        report.answered + report.shed,
        report.total,
        "every request either answered or counted as shed"
    );
    assert!(report.shed > 0, "8 stalled workers over budget 2 must shed");
    assert!(
        report.answered > 0,
        "admission control must not starve everyone"
    );
    assert_eq!(report.in_flight_after, 0, "permits leaked");
}
