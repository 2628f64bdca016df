//! Router-tier scenarios over a [`RouterEngine`](sqp_router::RouterEngine)
//! (the plain stress workload runs on a tier through
//! [`serve_loop::run_on`](crate::serve_loop::run_on)):
//!
//! * [`run_skew_soak`] — the **generation-skew acceptance scenario**: a
//!   rolling upgrade is deliberately held mid-roll while worker threads
//!   hammer mixed traffic, and every suggestion's provenance is read off
//!   its text (tagged vocabularies, as in the umbrella's
//!   `serve_concurrency` tests). The harness panics on any torn read, any
//!   user whose suggestions regress from the new model back to the old
//!   (which would mean their session migrated replicas), or any route that
//!   is not sticky.
//! * [`run_chaos_roll`] — **chaos under routing**: a [`FaultPlan`] fails
//!   exactly one replica's snapshot read mid-roll; that replica must
//!   quarantine and keep serving its last-good model while the rest of the
//!   tier completes, and the whole scenario must replay bit-identically
//!   from the seed (asserted via [`Chaos::digest`]).

use crate::runner::{drive, surface, Op, Outcome, Scenario, Stop};
use crate::{save_tagged, scratch_dir, tagged_tier};
use sqp_faults::{Chaos, FaultPlan};
use sqp_serve::{ServeSurface, Suggestion};
use sqp_store::{Publish, RollPolicy};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Classify one suggest call's provenance: `Some("old")`, `Some("new")`, or
/// `None` for an empty answer. Panics on a mixed or untagged result — that
/// is the torn read the whole scenario exists to rule out.
fn provenance_of(suggestions: &[Suggestion]) -> Option<&'static str> {
    let mut seen: Option<&'static str> = None;
    for s in suggestions {
        let tag = if s.query.starts_with("old::") {
            "old"
        } else if s.query.starts_with("new::") {
            "new"
        } else {
            panic!("suggestion from no known snapshot: {:?}", s.query);
        };
        match seen {
            None => seen = Some(tag),
            Some(prev) => assert_eq!(
                prev, tag,
                "torn read: one suggest call mixed snapshots: {suggestions:?}"
            ),
        }
    }
    seen
}

/// What [`run_skew_soak`] observed. Every invariant is asserted inside the
/// harness (it panics on violation); the report carries the evidence that
/// the interesting states were actually reached.
#[derive(Clone, Debug)]
pub struct SkewSoakReport {
    /// Worker threads that hammered the tier.
    pub threads: usize,
    /// Replicas in the tier.
    pub replicas: usize,
    /// Total suggest calls classified for provenance.
    pub ops_total: u64,
    /// Calls answered wholly from the old snapshot.
    pub(crate) saw_old: u64,
    /// Calls answered wholly from the new snapshot.
    pub(crate) saw_new: u64,
    /// Calls answered from the old snapshot *while the roll was in flight*
    /// — proof the skew window carried live traffic on both generations.
    pub old_during_roll: u64,
    /// Calls answered from the new snapshot while the roll was in flight.
    pub new_during_roll: u64,
    /// Largest generation skew observed by the mid-roll stats probes.
    pub max_skew_observed: u64,
    /// Tier generation after the roll (1 on success, every replica).
    pub final_generation: u64,
}

/// The generation-skew acceptance scenario (see module docs). `threads`
/// workers (the acceptance floor is 4) hammer mixed traffic while a
/// rolling upgrade is held for at least `hold_ops_per_step` classified
/// calls after each replica's step. Panics on any violated invariant.
pub fn run_skew_soak(threads: usize, hold_ops_per_step: u64) -> SkewSoakReport {
    assert!(threads >= 1 && hold_ops_per_step > 0);
    const REPLICAS: usize = 4;
    const USERS_PER_THREAD: u64 = 32;

    let dir = scratch_dir("skew");
    let new_path = save_tagged(&dir, "new", 1);
    let router = tagged_tier("old", REPLICAS);

    let rolling = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    // Classified calls, by `[answered from the new model][mid-roll]`.
    let served: [[AtomicU64; 2]; 2] = Default::default();
    let mut max_skew_observed = 0u64;

    // Each user's home replica, which must never move, and per worker the
    // generation each user last saw. Once a user has seen the new model,
    // seeing the old one again would mean their session hopped to a
    // not-yet-upgraded replica (or their replica rolled backwards).
    let user = |worker: usize, u: u64| worker as u64 * 1_000 + u;
    let homes: Vec<Vec<usize>> = (0..threads)
        .map(|w| {
            (0..USERS_PER_THREAD)
                .map(|u| router.replica_for(user(w, u)))
                .collect()
        })
        .collect();
    let mut last_seen = vec![HashMap::new(); threads];
    let scenario = Scenario {
        seed: 0,
        phase: 0,
        // Sessions stay well inside the 30-minute idle cutoff.
        clock: &|i| 1_000 + i % 100,
        mix: &|ctx, _, _| {
            let home = user(ctx.worker, ctx.i % USERS_PER_THREAD);
            if ctx.i % 8 == 7 {
                Op::batch((0..USERS_PER_THREAD).map(|u| user(ctx.worker, u)), 3)
            } else if ctx.i % 13 == 5 {
                Op::Suggest(home, 3)
            } else {
                Op::TrackAndSuggest(home, "seed".into(), 3)
            }
        },
        observe: &|ctx, last: &mut HashMap<u64, bool>, op, outcome, _| {
            let at = ctx.i % USERS_PER_THREAD;
            let home = user(ctx.worker, at);
            let route = router.replica_for(home);
            assert_eq!(
                route, homes[ctx.worker][at as usize],
                "route for user {home} moved"
            );
            let Outcome::Lists(lists) = outcome else {
                panic!("admission is unlimited: {op:?} resolved as {outcome:?}");
            };
            let users = op.users();
            for (&user, list) in users.iter().zip(lists) {
                let Some(tag) = provenance_of(list) else {
                    continue;
                };
                let is_new = tag == "new";
                let mid_roll = rolling.load(Ordering::Relaxed);
                served[is_new as usize][mid_roll as usize].fetch_add(1, Ordering::Relaxed);
                let prev = last.insert(user, is_new);
                assert!(
                    prev != Some(true) || is_new,
                    "user {user} regressed from the new model to the old: \
                     their session migrated replicas mid-roll"
                );
            }
            ops.fetch_add(users.len() as u64, Ordering::Relaxed);
        },
        stop: Stop::WithControl(0),
    };

    drive(&scenario, &surface(&router), &mut last_seen, |_| {
        // Let every worker put traffic (and sessions) on the old model
        // before the roll begins.
        let wait_past = |target: u64| {
            while ops.load(Ordering::Relaxed) < target {
                std::thread::yield_now();
            }
        };
        wait_past(hold_ops_per_step);

        rolling.store(true, Ordering::Relaxed);
        let report = router.rolling_publish_with(
            &sqp_common::fsio::RealFs,
            &new_path,
            RollPolicy::ContinueOnFailure,
            &mut |step| {
                let upgraded_so_far = step.replica + 1;
                let stats = router.stats();
                assert_eq!(stats.max_generation(), 1, "leading edge after a step");
                let expected_min = u64::from(upgraded_so_far >= REPLICAS);
                assert_eq!(
                    stats.min_generation(),
                    expected_min,
                    "trailing edge after replica {}'s step",
                    step.replica
                );
                max_skew_observed = max_skew_observed.max(stats.generation_skew());
                // Hold the tier on mixed generations under live fire: the
                // roll may not advance until the workers have pushed
                // another `hold_ops_per_step` classified calls through it.
                wait_past(ops.load(Ordering::Relaxed) + hold_ops_per_step);
            },
        );
        rolling.store(false, Ordering::Relaxed);
        assert!(report.complete(), "roll did not complete: {report:?}");
        assert_eq!(report.upgraded, (0..REPLICAS).collect::<Vec<_>>());

        // A tail of traffic against the converged tier, then stop.
        wait_past(ops.load(Ordering::Relaxed) + hold_ops_per_step);
    });

    let stats = router.stats();
    assert!(stats.is_converged(), "tier left skewed: {stats:?}");
    assert_eq!(stats.min_generation(), 1);
    assert_eq!(stats.quarantined(), 0);
    for row in &stats.replicas {
        assert_eq!(row.stats.publishes, 1, "a replica missed the roll");
    }
    let count = |new: usize, mid_roll: usize| served[new][mid_roll].load(Ordering::Relaxed);
    let report = SkewSoakReport {
        threads,
        replicas: REPLICAS,
        ops_total: ops.load(Ordering::Relaxed),
        saw_old: count(0, 0) + count(0, 1),
        saw_new: count(1, 0) + count(1, 1),
        old_during_roll: count(0, 1),
        new_during_roll: count(1, 1),
        max_skew_observed,
        final_generation: stats.min_generation(),
    };
    // The scenario is vacuous unless both generations actually served
    // traffic, skew was really observed, and the skew window itself carried
    // answers from both models.
    assert!(report.saw_old > 0, "old snapshot never served: {report:?}");
    assert!(report.saw_new > 0, "new snapshot never served: {report:?}");
    assert!(
        report.old_during_roll > 0 && report.new_during_roll > 0,
        "the mid-roll window never served both generations: {report:?}"
    );
    assert_eq!(report.max_skew_observed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
    report
}

/// What [`run_chaos_roll`] observed; all invariants are asserted inside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosRollReport {
    /// The replica whose snapshot read the plan failed.
    pub failed_replica: usize,
    /// Replicas that completed the roll.
    pub upgraded: Vec<usize>,
    /// Generation skew reported by [`RouterStats`](sqp_router::RouterStats)
    /// right after the roll (1: the quarantined replica trails).
    pub skew_after_roll: u64,
    /// Injected read errors (exactly 1).
    pub read_errors: u64,
    /// The chaos replay digest — equal across runs with the same seed.
    pub digest: u64,
}

/// Chaos under routing: roll a 4-replica tier onto a new snapshot through
/// a [`FaultPlan`] that fails exactly one replica's read (each replica
/// performs exactly one snapshot read, so the plan's global read ordinal
/// *is* the replica index + 1). Asserts the failed replica quarantines and
/// keeps serving its last-good model while the rest complete, that
/// [`RouterStats`](sqp_router::RouterStats) reports the resulting skew,
/// and that a later clean fan-out recovers the tier. Deterministic from
/// `seed`: the returned report (digest included) is bit-identical across
/// runs.
pub fn run_chaos_roll(seed: u64) -> ChaosRollReport {
    const REPLICAS: usize = 4;
    // Derive the victim from the seed so different seeds exercise
    // different positions (never the last ordinal-less case: 1-based).
    let failed_replica = (seed % REPLICAS as u64) as usize;

    let dir = scratch_dir(&format!("chaos-{seed}"));
    let new_path = save_tagged(&dir, "new", 1);
    let router = tagged_tier("old", REPLICAS);
    // One observer user per replica, tracked before the roll so each
    // replica holds live session state across the fault.
    let observer_for = |replica: usize| {
        (0..u64::MAX)
            .find(|&u| router.replica_for(u) == replica)
            .expect("every replica owns some user")
    };
    let observers: Vec<u64> = (0..REPLICAS).map(observer_for).collect();
    for &user in &observers {
        router.track(user, "seed", 1_000);
    }

    let chaos = Chaos::new(FaultPlan {
        seed,
        read_error_on: vec![failed_replica as u64 + 1],
        ..FaultPlan::default()
    });
    let report = router.rolling_publish_with(
        &chaos.faulty_fs(),
        &new_path,
        RollPolicy::ContinueOnFailure,
        &mut |_| {},
    );

    let expected_upgraded: Vec<usize> = (0..REPLICAS).filter(|&r| r != failed_replica).collect();
    assert_eq!(report.upgraded, expected_upgraded);
    assert_eq!(report.failed.len(), 1);
    assert_eq!(report.failed[0].0, failed_replica);
    assert!(
        report.failed[0].1.contains("injected chaos read error"),
        "unexpected failure: {}",
        report.failed[0].1
    );

    let stats = router.stats();
    assert_eq!(stats.quarantined(), 1);
    assert!(stats.replicas[failed_replica].quarantined);
    assert_eq!(stats.generation_skew(), 1);
    assert_eq!(stats.replicas[failed_replica].stats.publishes, 0);
    // The quarantined replica serves its last-good model; upgraded
    // replicas serve the new one. Same request shape, different replica,
    // different — but never torn — provenance.
    for (replica, &user) in observers.iter().enumerate() {
        let got = router
            .try_suggest(user, 3, 1_010)
            .expect("admission is unlimited");
        let want = if replica == failed_replica {
            "old"
        } else {
            "new"
        };
        assert_eq!(provenance_of(&got), Some(want), "replica {replica}");
    }

    let chaos_stats = chaos.stats();
    assert_eq!(chaos_stats.read_errors, 1);
    assert_eq!(chaos_stats.reads, REPLICAS as u64);
    let out = ChaosRollReport {
        failed_replica,
        upgraded: report.upgraded,
        skew_after_roll: stats.generation_skew(),
        read_errors: chaos_stats.read_errors,
        digest: chaos.digest(),
    };

    // Recovery: catch up the straggler alone (a fan-out would bump every
    // replica's publish count and leave the tier skewed forever). A clean
    // read of the same file, published to the quarantined replica, lifts
    // its quarantine and converges the tier.
    let (snapshot, _) = sqp_store::load_snapshot(&new_path).unwrap();
    router
        .try_publish_to(failed_replica, Arc::new(snapshot))
        .expect("the quarantined replica is still in the tier");
    let stats = router.stats();
    assert!(stats.is_converged());
    assert_eq!(stats.quarantined(), 0);
    assert_eq!(
        provenance_of(
            &router
                .try_suggest(observers[failed_replica], 3, 1_020)
                .expect("admission is unlimited")
        ),
        Some("new")
    );

    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_roll_hits_each_victim_position() {
        // Seeds 0..4 cover every replica position via seed % 4.
        let r0 = run_chaos_roll(0);
        assert_eq!(r0.failed_replica, 0);
        let r3 = run_chaos_roll(3);
        assert_eq!(r3.failed_replica, 3);
        assert_eq!(r3.upgraded, vec![0, 1, 2]);
    }
}
