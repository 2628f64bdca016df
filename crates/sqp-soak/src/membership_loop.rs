//! Membership chaos soak: ring membership changes under live traffic.
//!
//! The scenario [`run_membership_soak`] drives is the PR-10 acceptance
//! story end to end: a replicated router tier serves four workers of
//! tagged traffic while replicas **join**, **drain + retire**, and get
//! **killed without draining**, and every phase is held to the same
//! ledger discipline as the remote soak:
//!
//! * **Accounting** — per phase, `answered + refused == sent`. In-process
//!   serving cannot silently lose an operation; the only typed refusal is
//!   a draining engine turning away a session-starting track.
//! * **Zero context resets for handed-off users** — a user whose home
//!   replica changed (join) or disappeared gracefully (drain + retire)
//!   must continue their session: `new_session` is never observed again
//!   once established, across every membership change except an
//!   undrained kill.
//! * **Bounded loss on an undrained kill** — removing a replica without
//!   draining loses exactly the sessions the ring routed to it, and the
//!   consistent-hash remap property bounds that set by ~`2/N` of the
//!   users (the same bound `ring_properties` proves over the keyspace).
//! * **Replayability** — the deterministic phases (static membership)
//!   fold every outcome into an FNV digest that is bit-identical across
//!   runs of the same seed. A final *churn* phase runs membership verbs
//!   **and a rolling snapshot publish** concurrently with the workers to
//!   shake out races (a publish takes no membership lock, so mid-roll
//!   joins and retires are real); its invariants hold but its
//!   interleavings are real, so it is excluded from the content digest.

use crate::runner::{drive, fold_u64, surface, Op, Outcome, Scenario, Stop, Tally, USER_STRIDE};
use crate::{save_tagged, scratch_dir, tagged_tier};
use sqp_common::hash::FNV_OFFSET_BASIS;
use sqp_common::rng::Rng;
use sqp_router::RouterEngine;
use sqp_store::{Publish, RollPolicy};
use std::collections::HashSet;

/// Workers hammering the tier (the acceptance floor).
pub const WORKERS: usize = 4;
/// Users per worker; user ids are disjoint across workers.
pub(crate) const USERS_PER_WORKER: u64 = 32;
/// Operations per worker per phase.
pub const OPS_PER_WORKER: u64 = 120;

/// What [`run_membership_soak`] observed. Every invariant is asserted
/// inside the harness (it panics on violation); the report carries the
/// evidence plus the replay digest.
#[derive(Clone, Debug)]
pub struct MembershipSoakReport {
    /// Worker threads.
    pub(crate) workers: usize,
    /// Phase ledgers: steady / after-join / after-drain / after-kill.
    pub steady: Tally,
    /// Traffic after a replica joined (handed-off users continue).
    pub after_join: Tally,
    /// Traffic after a drain + retire (handed-off users continue).
    pub after_drain: Tally,
    /// Traffic after an undrained kill (bounded resets).
    pub after_kill: Tally,
    /// The concurrent-churn ledger. Its `sent` and `resets` are
    /// deterministic; `answered`/`refused` depend on which side of the
    /// racing drain each fresh-session track lands on, so — like the
    /// digest — replay equality only covers the deterministic pair.
    pub churn: Tally,
    /// Sessions the join handoff moved to the new replica.
    pub(crate) join_moved: usize,
    /// Sessions the drain handoff moved off the victim.
    pub(crate) drain_moved: usize,
    /// Sessions lost to the undrained kill (== the victim's routed set).
    pub kill_lost: usize,
    /// Replica ids alive after the whole scenario.
    pub final_replicas: Vec<u32>,
    /// Ring generation after the whole scenario.
    pub final_ring_generation: u64,
    /// FNV digest over the deterministic phases and handoff counts —
    /// bit-identical across runs of the same seed.
    pub digest: u64,
}

impl PartialEq for MembershipSoakReport {
    fn eq(&self, other: &Self) -> bool {
        // The churn phase races worker traffic against live membership
        // verbs: whether a fresh-session track hits the victim before or
        // after its drain mark is scheduling-dependent, so that phase
        // compares only its deterministic fields (`sent`, `resets`).
        // Everything else — the four barrier-phased ledgers included —
        // must replay bit-identically.
        self.workers == other.workers
            && self.steady == other.steady
            && self.after_join == other.after_join
            && self.after_drain == other.after_drain
            && self.after_kill == other.after_kill
            && self.churn.sent == other.churn.sent
            && self.churn.resets == other.churn.resets
            && self.join_moved == other.join_moved
            && self.drain_moved == other.drain_moved
            && self.kill_lost == other.kill_lost
            && self.final_replicas == other.final_replicas
            && self.final_ring_generation == other.final_ring_generation
            && self.digest == other.digest
    }
}

impl Eq for MembershipSoakReport {}

/// One worker's continuity ledger, carried across phases: the users whose
/// session is established, plus the phase-local counters each op kind
/// cycles the user list with, so the op mix (keyed on `i`) cannot starve
/// any user of tracks.
#[derive(Default)]
struct Worker {
    established: HashSet<u64>,
    track_i: u64,
    suggest_i: u64,
}

/// Drive phase `phase` across all workers behind a barrier (the workers
/// stop before `control` returns the harness to membership changes) and
/// merge the ledgers. Deterministic given (seed, phase) and a static
/// membership; panics on any continuity violation. A user may restart
/// their session only if they are in `lost`.
fn drive_phase<R>(
    router: &RouterEngine,
    workers: &mut [Worker],
    seed: u64,
    phase: u64,
    lost: &[u64],
    control: impl FnOnce() -> R,
) -> (Tally, R) {
    workers
        .iter_mut()
        .for_each(|w| (w.track_i, w.suggest_i) = (0, 0));
    let fresh = |i: u64| phase == 4 && i % 16 == 5;
    let scenario = Scenario {
        seed,
        phase,
        clock: &|i| 1_000 + phase * 300 + i * 2,
        mix: &|ctx, w: &mut Worker, rng| {
            let i = ctx.i;
            if fresh(i) {
                // Churn only: brand-new users knock while a replica may be
                // draining — the one case a graceful membership change
                // turns traffic away (typed, counted, never lost).
                Op::Track(ctx.user(500_000 + i), "seed".into())
            } else if i % 8 == 7 {
                // A batch across this worker's users.
                let k = 1 + rng.random_range(0u64..3) as usize;
                Op::batch((0..USERS_PER_WORKER).map(|u| ctx.user(u)), k)
            } else if i % 3 == 0 {
                w.suggest_i += 1;
                Op::Suggest(ctx.user((w.suggest_i - 1) % USERS_PER_WORKER), 3)
            } else {
                w.track_i += 1;
                Op::Track(ctx.user((w.track_i - 1) % USERS_PER_WORKER), "seed".into())
            }
        },
        observe: &|ctx, w, op, outcome, tally| {
            let (Op::Track(user, _), Outcome::Tracked(out), false) = (op, outcome, fresh(ctx.i))
            else {
                return;
            };
            if w.established.insert(*user) {
                assert!(out.new_session, "first track of {user} must open a session");
            } else if out.new_session {
                tally.resets += 1;
                assert!(
                    lost.contains(user),
                    "user {user} lost their context in phase {phase}: \
                     only a killed replica's users may restart a session"
                );
            }
        },
        stop: Stop::After(OPS_PER_WORKER),
    };
    let (tallies, returned) = drive(&scenario, &surface(router), workers, |_| control());
    let total = Tally::merge(&tallies);
    assert_eq!(
        total.answered + total.refused,
        total.sent,
        "phase {phase} lost operations: {total:?}"
    );
    (total, returned)
}

/// Users currently routed to replica `id`.
fn routed_to(router: &RouterEngine, users: &[u64], id: u32) -> Vec<u64> {
    users
        .iter()
        .copied()
        .filter(|&u| router.replica_for(u) == id as usize)
        .collect()
}

/// The membership chaos soak (see module docs). Deterministic from
/// `seed`: the returned report — digest included — is bit-identical
/// across runs.
pub fn run_membership_soak(seed: u64) -> MembershipSoakReport {
    const REPLICAS: usize = 3;
    let router = tagged_tier("m", REPLICAS);
    let mut workers: Vec<Worker> = (0..WORKERS).map(|_| Worker::default()).collect();
    let all_users: Vec<u64> = (0..WORKERS as u64)
        .flat_map(|w| (0..USERS_PER_WORKER).map(move |u| w * USER_STRIDE + u))
        .collect();
    let total_users = all_users.len();

    // Phase 0 — steady state on {0, 1, 2}: establish every session.
    let (steady, ()) = drive_phase(&router, &mut workers, seed, 0, &[], || ());
    assert_eq!(steady.refused, 0);
    let resident: u64 = router
        .stats()
        .replicas
        .iter()
        .map(|r| r.stats.active_sessions)
        .sum();
    assert_eq!(resident, total_users as u64);

    // Join a fresh replica under a two-phase handoff. Exactly the users
    // the new ring re-routes must move, with their contexts intact.
    let homes_before: Vec<usize> = all_users.iter().map(|&u| router.replica_for(u)).collect();
    let join = router.join_replica(1_000 + 300);
    assert_eq!(join.replica, REPLICAS as u32);
    let moved_expect = all_users
        .iter()
        .zip(&homes_before)
        .filter(|&(&u, &before)| router.replica_for(u) != before)
        .count();
    assert_eq!(
        join.moved_sessions, moved_expect,
        "join must move exactly the re-routed users"
    );
    assert_eq!(join.skipped_idle, 0, "every session is live at join time");
    assert!(
        !routed_to(&router, &all_users, join.replica).is_empty(),
        "the joined replica must own traffic"
    );
    // Phase 1 — after the join: every user continues, nobody resets.
    let (after_join, ()) = drive_phase(&router, &mut workers, seed, 1, &[], || ());
    assert_eq!(after_join.refused, 0);

    // Drain + retire replica 1: graceful scale-down. The victim's whole
    // routed set moves; traffic afterwards continues seamlessly.
    let drain_victim = 1u32;
    let victim_routed = routed_to(&router, &all_users, drain_victim).len();
    // Copy-not-move: the victim still holds stale copies of users the
    // join re-routed away from it. Drain exports those too; newest-wins
    // at the destination drops every one of them.
    let stale_expect = all_users
        .iter()
        .zip(&homes_before)
        .filter(|&(&u, &before)| before == drain_victim as usize && router.replica_for(u) != before)
        .count();
    let drain = router
        .begin_drain(drain_victim, 1_000 + 2 * 300)
        .expect("drain replica 1");
    assert_eq!(
        drain.moved_sessions, victim_routed,
        "drain must move exactly the victim's routed set"
    );
    assert_eq!(
        drain.stale_skipped, stale_expect,
        "stale leftover copies must lose to their newer counterparts"
    );
    router
        .retire_replica(drain_victim)
        .expect("retire after drain");
    assert!(!router.replica_ids().contains(&drain_victim));
    // Phase 2 — after drain + retire: still zero resets.
    let (after_drain, ()) = drive_phase(&router, &mut workers, seed, 2, &[], || ());
    assert_eq!(after_drain.refused, 0);

    // Undrained kill of replica 2: the crash case. Loss is exactly the
    // victim's routed set, bounded by the ring's ~2/N remap property.
    let kill_victim = 2u32;
    let n_before = router.replica_ids().len();
    let lost = routed_to(&router, &all_users, kill_victim);
    router.remove_replica(kill_victim).expect("undrained kill");
    assert!(
        lost.len() <= 2 * total_users / n_before,
        "kill lost {} of {} sessions — beyond the 2/N remap bound for N={}",
        lost.len(),
        total_users,
        n_before
    );
    // Phase 3 — after the kill: exactly the lost set resets, once each.
    let (after_kill, ()) = drive_phase(&router, &mut workers, seed, 3, &lost, || ());
    assert_eq!(
        after_kill.resets,
        lost.len() as u64,
        "every lost session (and only those) must reset after the kill"
    );

    // Phase 4 — concurrent churn: a join, a drain, a retire, AND a
    // rolling snapshot publish race the workers. The publication path
    // takes no membership lock, so the roll genuinely interleaves with
    // the verbs: a replica may retire mid-roll (recorded, never
    // panicked) and a joiner may seed behind the canary (repaired by
    // the roll's trailing pass). Invariants hold (no established user
    // resets, accounting balances, the tier converges) but
    // interleavings are real, so this ledger stays out of the digest.
    let churn_now = 1_000 + 4 * 300;
    let roll_dir = scratch_dir(&format!("membership-{seed}"));
    let roll_file = save_tagged(&roll_dir, "m", 1);
    let (churn, roll) = drive_phase(&router, &mut workers, seed, 4, &[], || {
        std::thread::scope(|scope| {
            let roller =
                scope.spawn(|| router.rolling_publish(&roll_file, RollPolicy::ContinueOnFailure));
            let joined = router.join_replica(churn_now);
            std::thread::yield_now();
            let drained = router
                .begin_drain(joined.replica, churn_now + 50)
                .expect("drain the churn replica");
            assert_eq!(drained.replica, joined.replica);
            router
                .retire_replica(joined.replica)
                .expect("retire the churn replica");
            roller.join().expect("churn roll thread")
        })
    });
    let _ = std::fs::remove_dir_all(&roll_dir);
    assert!(
        !roll.aborted && roll.failed.is_empty(),
        "a valid file rolled onto a churning tier must not fail: {roll:?}"
    );
    assert_eq!(
        churn.resets, 0,
        "graceful churn must never reset an established session"
    );

    let stats = router.stats();
    assert!(stats.draining.is_empty(), "churn left a replica draining");
    assert!(
        stats.is_converged(),
        "the churn roll must leave no replica behind: {stats:?}"
    );
    assert_eq!(
        stats.max_generation(),
        1,
        "every survivor serves the rolled generation exactly once: {stats:?}"
    );
    let report = MembershipSoakReport {
        workers: WORKERS,
        steady,
        after_join,
        after_drain,
        after_kill,
        churn,
        join_moved: join.moved_sessions,
        drain_moved: drain.moved_sessions,
        kill_lost: lost.len(),
        final_replicas: stats.replica_ids.clone(),
        final_ring_generation: stats.ring_generation,
        digest: {
            let mut d = FNV_OFFSET_BASIS;
            for tally in [&steady, &after_join, &after_drain, &after_kill] {
                d = fold_u64(d, tally.sent);
                d = fold_u64(d, tally.answered);
                d = fold_u64(d, tally.refused);
                d = fold_u64(d, tally.resets);
                d = fold_u64(d, tally.content);
            }
            d = fold_u64(d, join.moved_sessions as u64);
            d = fold_u64(d, drain.moved_sessions as u64);
            d = fold_u64(d, lost.len() as u64);
            for &id in &stats.replica_ids {
                d = fold_u64(d, id as u64);
            }
            d
        },
    };
    assert!(
        report.join_moved > 0 && report.drain_moved > 0 && report.kill_lost > 0,
        "a vacuous scenario proves nothing: {report:?}"
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_runs_and_counts_every_operation() {
        let report = run_membership_soak(3);
        let expected = (WORKERS as u64) * OPS_PER_WORKER;
        for tally in [
            &report.steady,
            &report.after_join,
            &report.after_drain,
            &report.after_kill,
            &report.churn,
        ] {
            assert_eq!(tally.sent, expected);
            assert_eq!(tally.answered + tally.refused, tally.sent);
        }
        assert_eq!(report.steady.resets, 0);
        assert_eq!(report.churn.resets, 0);
    }
}
