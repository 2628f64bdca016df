//! Where a [`RemoteEngine`] sends a user, and what survives a change of
//! the endpoint set.
//!
//! Each `NetServer` here owns its own sessions, so a user's context lives
//! on exactly one server: the one their requests reached. These tests
//! hold the remote to the router's placement rule — the user's owner on a
//! consistent-hash [`HashRing`] over the endpoint ids — and check what
//! that rule promises:
//!
//! * adding a fifth endpoint to four, or retiring one of five, moves at
//!   most 2/5 of users (those start over with an empty context, because
//!   sessions are not handed off between servers), and every user whose
//!   owner did not change answers exactly as before;
//! * a mixed batch is split by owner, so every entry is answered by the
//!   server that holds that user's context;
//! * failover walks the ring's successors, so a write made while the home
//!   is down lands on the server that retiring the home routes to.
//!
//! Everything runs on one thread with deadlines far beyond any scheduling
//! delay, so no outcome depends on the scheduler.

use sqp_logsim::RawLogRecord;
use sqp_net::{EndpointConfig, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome, ServerConfig};
use sqp_router::{HashRing, DEFAULT_VNODES};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, SuggestRequest, Suggestion, TrainingConfig,
};
use std::sync::Arc;
use std::time::Duration;

const USERS: u64 = 2_000;
const TOPICS: u64 = 10;
const K: usize = 2;
/// One logical instant for the whole test: every session stays live.
const NOW: u64 = 1_000;

/// A model where the answer depends on the context: after `topic i` the
/// suggestion is `topic i next`; with no context there is none.
fn snapshot() -> Arc<ModelSnapshot> {
    let mut logs = Vec::new();
    for machine in 0..5 * TOPICS {
        let topic = machine % TOPICS;
        for (ts, query) in [
            (100, format!("topic {topic}")),
            (130, format!("topic {topic} next")),
        ] {
            logs.push(RawLogRecord {
                machine_id: machine,
                timestamp: ts,
                query,
                clicks: vec![],
            });
        }
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg))
}

fn servers(n: usize) -> Vec<NetServer> {
    let snapshot = snapshot();
    (0..n)
        .map(|_| {
            let engine = ServeEngine::new(Arc::clone(&snapshot), EngineConfig::default());
            NetServer::start(Arc::new(engine), ServerConfig::default()).expect("server start")
        })
        .collect()
}

fn remote_over(servers: &[NetServer]) -> RemoteEngine {
    RemoteEngine::connect(
        servers
            .iter()
            .map(|s| EndpointConfig::serve_only(s.serve_addr()))
            .collect(),
        RemoteConfig {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(10),
            ..RemoteConfig::default()
        },
    )
}

fn answered<T: std::fmt::Debug>(outcome: RemoteOutcome<T>) -> T {
    match outcome {
        RemoteOutcome::Answered(value) => value,
        other => panic!("a healthy tier must answer, got {other:?}"),
    }
}

/// Track one query for every user and keep what each was answered.
fn warm(remote: &RemoteEngine) -> Vec<Vec<Suggestion>> {
    (0..USERS)
        .map(|user| {
            let query = format!("topic {}", user % TOPICS);
            let list = answered(remote.remote_track_and_suggest(user, &query, K, NOW));
            assert!(
                !list.is_empty(),
                "user {user} got no suggestion after tracking"
            );
            list
        })
        .collect()
}

/// After a membership change: users whose owner moved answer from an
/// empty context, everyone else exactly as before, and at most 2/5 moved.
fn assert_only_moved_users_reset(
    remote: &RemoteEngine,
    before: &[Vec<Suggestion>],
    old: &HashRing,
    new: &HashRing,
) {
    let mut moved = 0;
    let mut reset = 0;
    for user in 0..USERS {
        let now = answered(remote.remote_suggest(user, K, NOW + 10));
        reset += u64::from(now.is_empty());
        if old.route(user) == new.route(user) {
            assert_eq!(now, before[user as usize], "user {user} kept its owner");
        } else {
            moved += 1;
            assert!(
                now.is_empty(),
                "user {user} moved to a server that never saw it"
            );
        }
    }
    assert!(moved > 0, "a change of the endpoint set moved nobody");
    assert_eq!(reset, moved, "only the moved users may start over");
    assert!(
        reset <= 2 * USERS / 5,
        "{reset} of {USERS} users lost their context"
    );
    let stats = remote.remote_stats();
    assert_eq!((stats.retries, stats.failovers, stats.degraded), (0, 0, 0));
}

#[test]
fn adding_a_fifth_endpoint_moves_at_most_two_fifths_of_users() {
    let servers = servers(5);
    let remote = remote_over(&servers[..4]);
    let before = warm(&remote);
    remote
        .add_endpoint(EndpointConfig::serve_only(servers[4].serve_addr()))
        .expect("a new address joins");
    let old = HashRing::new(4, DEFAULT_VNODES);
    let mut new = old.clone();
    new.add(4);
    assert_only_moved_users_reset(&remote, &before, &old, &new);
    remote.drain_pools();
    servers.iter().for_each(NetServer::shutdown);
}

#[test]
fn retiring_one_of_five_endpoints_moves_only_its_users() {
    let servers = servers(5);
    let remote = remote_over(&servers);
    let before = warm(&remote);
    remote
        .retire_endpoint(servers[2].serve_addr())
        .expect("a live endpoint retires");
    let old = HashRing::new(5, DEFAULT_VNODES);
    let mut new = old.clone();
    new.remove(2).unwrap();
    assert_only_moved_users_reset(&remote, &before, &old, &new);
    remote.drain_pools();
    servers.iter().for_each(NetServer::shutdown);
}

#[test]
fn a_mixed_batch_is_answered_entry_by_entry_by_each_users_owner() {
    let servers = servers(4);
    let remote = remote_over(&servers);
    for user in 0..62 {
        let query = format!("topic {}", user % TOPICS);
        answered(remote.remote_track_and_suggest(user, &query, K, NOW));
    }
    // 62 warmed users, one never seen, and a repeat: 64 entries.
    let requests: Vec<SuggestRequest> = (0..62)
        .chain([9_999, 5])
        .map(|user| SuggestRequest { user, k: K })
        .collect();
    let ring = HashRing::new(4, DEFAULT_VNODES);
    let mut owners: Vec<u32> = requests.iter().map(|r| ring.route(r.user)).collect();
    owners.sort_unstable();
    owners.dedup();
    assert_eq!(owners, [0, 1, 2, 3], "the batch must span every endpoint");

    let lists = answered(remote.remote_suggest_batch(&requests, NOW + 10));
    assert_eq!(lists.len(), requests.len());
    for (request, list) in requests.iter().zip(&lists) {
        let alone = answered(remote.remote_suggest(request.user, K, NOW + 10));
        assert_eq!(*list, alone, "user {}", request.user);
    }
    let empty = lists.iter().filter(|list| list.is_empty()).count();
    assert_eq!(empty, 1, "only the never-seen user answers empty");
    remote.drain_pools();
    servers.iter().for_each(NetServer::shutdown);
}

#[test]
fn a_failover_write_lands_where_retiring_the_home_routes_the_user() {
    let servers = servers(4);
    let remote = remote_over(&servers);
    let ring = HashRing::new(4, DEFAULT_VNODES);
    let users: Vec<u64> = (0..USERS)
        .filter(|&u| ring.route(u) == 0)
        .take(100)
        .collect();
    // Endpoint 0 is down: its port refuses, so every track on its users
    // is certainly unsent there and fails over.
    servers[0].shutdown();
    remote.drain_pools();
    let written: Vec<Vec<Suggestion>> = users
        .iter()
        .map(|&user| {
            let query = format!("topic {}", user % TOPICS);
            answered(remote.remote_track_and_suggest(user, &query, K, NOW))
        })
        .collect();
    assert!(remote.remote_stats().failovers >= users.len() as u64);

    remote
        .retire_endpoint(servers[0].serve_addr())
        .expect("a dead endpoint still retires");
    for (&user, list) in users.iter().zip(&written) {
        assert!(!list.is_empty(), "user {user}");
        let now = answered(remote.remote_suggest(user, K, NOW + 10));
        assert_eq!(
            now, *list,
            "user {user}'s failover write is not at its new home"
        );
    }
    remote.drain_pools();
    servers.iter().for_each(NetServer::shutdown);
}
