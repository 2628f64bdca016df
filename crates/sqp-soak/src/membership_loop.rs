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

use sqp_common::hash::{fnv1a, FNV_OFFSET_BASIS};
use sqp_common::rng::{Rng, StdRng};
use sqp_logsim::RawLogRecord;
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{ModelSnapshot, ModelSpec, ServeSurface, SuggestRequest, TrainingConfig};
use sqp_store::{save_snapshot, RollPolicy, RouterPublish, SnapshotMeta};
use std::collections::HashMap;
use std::sync::Arc;

/// Workers hammering the tier (the acceptance floor).
pub const WORKERS: usize = 4;
/// Users per worker; user ids are disjoint across workers.
pub const USERS_PER_WORKER: u64 = 32;
/// Operations per worker per phase.
pub const OPS_PER_WORKER: u64 = 120;

fn fnv_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// Per-phase, per-worker ledger. `content` folds every outcome the phase
/// produced; it only enters the scenario digest for phases whose
/// membership was static (deterministic interleaving-free content).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseTally {
    /// Operations issued.
    pub sent: u64,
    /// Operations that produced a normal outcome.
    pub answered: u64,
    /// Tracks refused by a draining engine (session-starting only).
    pub refused: u64,
    /// Tracks that started a session for a user who already had one —
    /// the context reset the handoff protocol exists to prevent.
    pub resets: u64,
    /// FNV fold of every outcome.
    pub content: u64,
}

impl Default for PhaseTally {
    fn default() -> Self {
        Self {
            sent: 0,
            answered: 0,
            refused: 0,
            resets: 0,
            content: FNV_OFFSET_BASIS,
        }
    }
}

impl PhaseTally {
    fn merge(tallies: &[PhaseTally]) -> PhaseTally {
        let mut total = PhaseTally::default();
        for t in tallies {
            total.sent += t.sent;
            total.answered += t.answered;
            total.refused += t.refused;
            total.resets += t.resets;
            // Worker order is fixed, so the fold is deterministic.
            total.content = fnv_u64(total.content, t.content);
        }
        total
    }
}

/// What [`run_membership_soak`] observed. Every invariant is asserted
/// inside the harness (it panics on violation); the report carries the
/// evidence plus the replay digest.
#[derive(Clone, Debug)]
pub struct MembershipSoakReport {
    /// Worker threads.
    pub workers: usize,
    /// Phase ledgers: steady / after-join / after-drain / after-kill.
    pub steady: PhaseTally,
    /// Traffic after a replica joined (handed-off users continue).
    pub after_join: PhaseTally,
    /// Traffic after a drain + retire (handed-off users continue).
    pub after_drain: PhaseTally,
    /// Traffic after an undrained kill (bounded resets).
    pub after_kill: PhaseTally,
    /// The concurrent-churn ledger. Its `sent` and `resets` are
    /// deterministic; `answered`/`refused` depend on which side of the
    /// racing drain each fresh-session track lands on, so — like the
    /// digest — replay equality only covers the deterministic pair.
    pub churn: PhaseTally,
    /// Sessions the join handoff moved to the new replica.
    pub join_moved: usize,
    /// Sessions the drain handoff moved off the victim.
    pub drain_moved: usize,
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

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

/// A corpus whose suggestions after `"seed"` are tagged, so answers carry
/// readable model content through every membership change.
fn tagged_snapshot() -> ModelSnapshot {
    let mut records = Vec::new();
    let mut machine = 0u64;
    for continuation in ["m::alpha", "m::beta", "m::gamma"] {
        for _ in 0..4 {
            records.push(rec(machine, 100, "seed"));
            records.push(rec(machine, 160, continuation));
            machine += 1;
        }
    }
    ModelSnapshot::from_raw_logs(
        &records,
        &TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        },
    )
}

/// Per-worker continuity ledger carried across phases: the context length
/// each established user last reported.
struct WorkerState {
    users: Vec<u64>,
    established: HashMap<u64, usize>,
}

/// Which resets a phase tolerates.
#[derive(Clone, Copy, PartialEq)]
enum ResetPolicy {
    /// No established user may ever reset (steady / join / drain / churn).
    None,
    /// Exactly the users in the lost set reset, once each (post-kill).
    LostOnly,
}

/// One worker's traffic for one phase. Deterministic given (seed, worker,
/// phase) and a static membership; panics on any continuity violation.
fn drive_worker(
    router: &RouterEngine,
    state: &mut WorkerState,
    seed: u64,
    worker: usize,
    phase: u64,
    lost: &[u64],
    policy: ResetPolicy,
) -> PhaseTally {
    let mut rng = StdRng::seed_from_u64(seed ^ ((worker as u64) << 32) ^ (phase << 16));
    let mut tally = PhaseTally::default();
    let base_now = 1_000 + phase * 300;
    // Each op kind cycles the user list on its own counter, so the op mix
    // (keyed on `i`) cannot starve any user of tracks.
    let mut track_i = 0u64;
    let mut suggest_i = 0u64;
    for i in 0..OPS_PER_WORKER {
        let now = base_now + i * 2;
        tally.sent += 1;
        if phase == 4 && i % 16 == 5 {
            // Churn only: brand-new users knock while a replica may be
            // draining — the one case a graceful membership change turns
            // traffic away (typed, counted, never lost).
            let fresh = (worker as u64) * 1_000_000 + 500_000 + i;
            let out = router.track(fresh, "seed", now);
            if out.context_len == 0 {
                tally.refused += 1;
            } else {
                tally.answered += 1;
            }
        } else if i % 8 == 7 {
            // A batch across this worker's users.
            let k = 1 + rng.random_range(0u64..3) as usize;
            let requests: Vec<SuggestRequest> = state
                .users
                .iter()
                .map(|&user| SuggestRequest { user, k })
                .collect();
            for (request, got) in requests.iter().zip(router.suggest_batch(&requests, now)) {
                tally.content = fnv_u64(tally.content, request.user);
                for s in &got {
                    tally.content = fnv1a(tally.content, s.query.as_bytes());
                }
            }
            tally.answered += 1;
        } else if i % 3 == 0 {
            let user = state.users[(suggest_i % USERS_PER_WORKER) as usize];
            suggest_i += 1;
            let got = router
                .try_suggest(user, 3, now)
                .expect("admission is unlimited");
            tally.content = fnv_u64(tally.content, user);
            for s in &got {
                tally.content = fnv1a(tally.content, s.query.as_bytes());
            }
            tally.answered += 1;
        } else {
            let user = state.users[(track_i % USERS_PER_WORKER) as usize];
            track_i += 1;
            let out = router.track(user, "seed", now);
            if out.context_len == 0 {
                // The draining-engine refusal sentinel: an admitted track
                // always reports a context of at least the query itself.
                tally.refused += 1;
                tally.content = fnv_u64(tally.content, user ^ u64::MAX);
                continue;
            }
            tally.answered += 1;
            tally.content = fnv_u64(tally.content, user);
            tally.content = fnv_u64(tally.content, out.context_len as u64);
            tally.content = fnv_u64(tally.content, out.new_session as u64);
            match state.established.get(&user) {
                None => {
                    assert!(out.new_session, "first track of {user} must open a session");
                }
                Some(_) if out.new_session => {
                    tally.resets += 1;
                    match policy {
                        ResetPolicy::None => panic!(
                            "user {user} lost their context in phase {phase}: \
                             handoff must preserve every live session"
                        ),
                        ResetPolicy::LostOnly => assert!(
                            lost.contains(&user),
                            "user {user} reset but was not routed to the killed replica"
                        ),
                    }
                }
                Some(_) => {}
            }
            state.established.insert(user, out.context_len);
        }
    }
    tally
}

/// Run `phase` across all workers behind a barrier (scoped threads join
/// before the harness touches membership again) and merge the ledgers.
fn drive_phase(
    router: &RouterEngine,
    states: &mut [WorkerState],
    seed: u64,
    phase: u64,
    lost: &[u64],
    policy: ResetPolicy,
) -> PhaseTally {
    let tallies: Vec<PhaseTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(worker, state)| {
                scope.spawn(move || drive_worker(router, state, seed, worker, phase, lost, policy))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total = PhaseTally::merge(&tallies);
    assert_eq!(
        total.answered + total.refused,
        total.sent,
        "phase {phase} lost operations: {total:?}"
    );
    total
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
    let router = RouterEngine::new(
        Arc::new(tagged_snapshot()),
        RouterConfig {
            replicas: REPLICAS,
            ..RouterConfig::default()
        },
    );
    let mut states: Vec<WorkerState> = (0..WORKERS)
        .map(|w| WorkerState {
            users: (0..USERS_PER_WORKER)
                .map(|u| (w as u64) * 1_000_000 + u)
                .collect(),
            established: HashMap::new(),
        })
        .collect();
    let all_users: Vec<u64> = states.iter().flat_map(|s| s.users.clone()).collect();
    let total_users = all_users.len();

    // Phase 0 — steady state on {0, 1, 2}: establish every session.
    let steady = drive_phase(&router, &mut states, seed, 0, &[], ResetPolicy::None);
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
    let after_join = drive_phase(&router, &mut states, seed, 1, &[], ResetPolicy::None);
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
    let after_drain = drive_phase(&router, &mut states, seed, 2, &[], ResetPolicy::None);
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
    let after_kill = drive_phase(&router, &mut states, seed, 3, &lost, ResetPolicy::LostOnly);
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
    let spool = std::env::temp_dir().join(format!(
        "sqp-membership-spool-{}-{seed}.sqps",
        std::process::id()
    ));
    let roll_model = tagged_snapshot();
    save_snapshot(
        &spool,
        &roll_model,
        &SnapshotMeta::describe(&roll_model, 1, 12),
    )
    .expect("spool the churn snapshot");
    let (churn_tallies, roll) = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .enumerate()
            .map(|(worker, state)| {
                let router = &router;
                scope.spawn(move || {
                    drive_worker(router, state, seed, worker, 4, &[], ResetPolicy::None)
                })
            })
            .collect();
        let roller = {
            let router = &router;
            let spool = &spool;
            scope.spawn(move || router.rolling_publish(spool, RollPolicy::ContinueOnFailure))
        };
        let joined = router.join_replica(churn_now);
        std::thread::yield_now();
        let drained = router
            .begin_drain(joined.replica, churn_now + 50)
            .expect("drain the churn replica");
        assert_eq!(drained.replica, joined.replica);
        router
            .retire_replica(joined.replica)
            .expect("retire the churn replica");
        let tallies: Vec<PhaseTally> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (tallies, roller.join().expect("churn roll thread"))
    });
    let _ = std::fs::remove_file(&spool);
    assert!(
        !roll.aborted && roll.failed.is_empty(),
        "a valid file rolled onto a churning tier must not fail: {roll:?}"
    );
    let churn = PhaseTally::merge(&churn_tallies);
    assert_eq!(churn.answered + churn.refused, churn.sent);
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
                d = fnv_u64(d, tally.sent);
                d = fnv_u64(d, tally.answered);
                d = fnv_u64(d, tally.refused);
                d = fnv_u64(d, tally.resets);
                d = fnv_u64(d, tally.content);
            }
            d = fnv_u64(d, join.moved_sessions as u64);
            d = fnv_u64(d, drain.moved_sessions as u64);
            d = fnv_u64(d, lost.len() as u64);
            for &id in &stats.replica_ids {
                d = fnv_u64(d, id as u64);
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
