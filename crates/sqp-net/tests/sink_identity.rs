//! The reply a connection writes is rendered by the serving tier straight
//! into the frame (a `ListWriter` sink); the `Vec`-returning surface calls
//! are the same path into a flat answer, converted to owned lists. This
//! differential holds the two
//! together byte for byte, through a live `NetServer`, on the hardest
//! tier there is to gather from: four replicas held mid-roll, two on
//! snapshot A and two on a snapshot B that shares no vocabulary with A.
//!
//! Two identical tiers are built from one seed. One is served over TCP
//! and spoken to in raw frames; the other is called in process. Every op
//! is applied to both, and the raw reply body must equal
//! `wire::encode_suggestions` / `wire::encode_batch` of what the in-process
//! tier returned. A second test pins what a shed leaves in the frame:
//! exactly `R_OVERLOADED`, and nothing stale in the reply after it.

use sqp_common::rng::{Rng, StdRng};
use sqp_core::VmmConfig;
use sqp_logsim::{RawLogRecord, SimConfig};
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire::{self, BatchEntry, MAX_K};
use sqp_net::{NetServer, ServerConfig};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeSurface, SuggestRequest, TrainingConfig,
};
use std::net::TcpStream;
use std::sync::Arc;

const SEED: u64 = 0x51CC_1D15;
/// Users with a session that is live at `NOW`.
const LIVE_USERS: u64 = 400;
/// Users whose only activity is long past the 30-minute cutoff at `NOW`.
const STALE_USERS: std::ops::Range<u64> = 400..450;
const NOW: u64 = 10_000;

fn train(records: &[RawLogRecord]) -> Arc<ModelSnapshot> {
    Arc::new(ModelSnapshot::from_raw_logs(
        records,
        &TrainingConfig {
            model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
            ..TrainingConfig::default()
        },
    ))
}

/// Snapshot A, the same corpus with every query renamed (snapshot B), and
/// the distinct training queries of A.
fn snapshots() -> (Arc<ModelSnapshot>, Arc<ModelSnapshot>, Vec<String>) {
    let logs = sqp_logsim::generate(&SimConfig::small(3_000, 100, SEED));
    let renamed: Vec<RawLogRecord> = logs
        .train
        .iter()
        .map(|r| RawLogRecord {
            query: format!("B::{}", r.query),
            ..r.clone()
        })
        .collect();
    let mut queries: Vec<String> = logs.train.iter().map(|r| r.query.clone()).collect();
    queries.sort();
    queries.dedup();
    (train(&logs.train), train(&renamed), queries)
}

/// A 4-replica tier stopped half-way through a roll from A to B.
fn mid_roll_tier(
    a: &Arc<ModelSnapshot>,
    b: &Arc<ModelSnapshot>,
    max_in_flight: usize,
) -> Arc<RouterEngine> {
    let tier = RouterEngine::new(
        Arc::clone(a),
        RouterConfig {
            replicas: 4,
            engine: EngineConfig {
                max_in_flight,
                ..EngineConfig::default()
            },
        },
    );
    for replica in [2, 3] {
        tier.try_publish_to(replica, Arc::clone(b))
            .expect("replica is live");
    }
    assert_eq!(tier.stats().generation_skew(), 1, "held mid-roll");
    Arc::new(tier)
}

/// One raw connection: request body out, reply body back, no decoding.
struct Raw {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Raw {
    fn connect(server: &NetServer) -> Self {
        let stream = TcpStream::connect(server.serve_addr()).expect("loopback connect");
        stream.set_nodelay(true).unwrap();
        Raw {
            stream,
            reply: Vec::new(),
        }
    }

    fn round_trip(&mut self, request: &[u8]) -> &[u8] {
        write_frame(&mut self.stream, request, wire::DEFAULT_MAX_FRAME).expect("write");
        match read_frame(&mut self.stream, &mut self.reply, wire::DEFAULT_MAX_FRAME).expect("read")
        {
            FrameRead::Frame => &self.reply,
            other => panic!("expected a reply frame, got {other:?}"),
        }
    }
}

/// A query for `rng`'s next track: A's vocabulary, B's, or neither.
fn pick_query(rng: &mut StdRng, queries: &[String]) -> String {
    let q = &queries[rng.random_range(0u64..queries.len() as u64) as usize];
    match rng.random_range(0u32..8) {
        0 => format!("never trained {}", rng.next_u64()),
        1..=4 => q.clone(),
        _ => format!("B::{q}"),
    }
}

fn pick_k(rng: &mut StdRng) -> usize {
    match rng.random_range(0u32..16) {
        0 => 0,
        1 => MAX_K,
        _ => rng.random_range(1u64..8) as usize,
    }
}

/// Live, stale and never-seen users, any of which may repeat in a batch.
fn pick_user(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u32..10) {
        0 => STALE_USERS.start + rng.random_range(0u64..50),
        1 => 1_000_000 + rng.next_u64() % 1_000,
        _ => rng.random_range(0u64..LIVE_USERS),
    }
}

fn entries_of(requests: &[SuggestRequest]) -> Vec<BatchEntry> {
    requests
        .iter()
        .map(|r| BatchEntry {
            user: r.user,
            k: r.k,
        })
        .collect()
}

#[test]
fn replies_equal_the_encoded_owned_answers_byte_for_byte() {
    let (a, b, queries) = snapshots();
    let served = mid_roll_tier(&a, &b, 0);
    let reference = mid_roll_tier(&a, &b, 0);
    let server = NetServer::start(Arc::clone(&served), ServerConfig::default()).unwrap();
    let mut raw = Raw::connect(&server);
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut request, mut expected) = (Vec::new(), Vec::new());

    // Sessions: 1-3 queries each for the live users, one ancient query
    // for the stale ones. Tracked on both tiers (acks must agree too).
    for user in (0..LIVE_USERS).chain(STALE_USERS) {
        let stale = STALE_USERS.contains(&user);
        for step in 0..if stale { 1 } else { rng.random_range(1u64..4) } {
            let query = pick_query(&mut rng, &queries);
            let now = if stale { 0 } else { NOW - 100 + step };
            request.clear();
            wire::encode_track(&mut request, user, &query, now);
            let outcome = reference.track(user, &query, now);
            expected.clear();
            wire::encode_ack(&mut expected, outcome.new_session, outcome.context_len);
            assert_eq!(raw.round_trip(&request), expected, "TRACK user {user}");
        }
    }

    // SUGGEST and TRACK_SUGGEST: unknown users, expired sessions,
    // uncovered contexts, k = 0 and k = MAX_K all come up by seed.
    let (mut nonempty, mut empty) = (0, 0);
    for case in 0..600 {
        let (user, k) = (pick_user(&mut rng), pick_k(&mut rng));
        request.clear();
        expected.clear();
        let owned = if case % 2 == 0 {
            wire::encode_suggest(&mut request, user, k, NOW);
            reference.try_suggest(user, k, NOW)
        } else {
            let query = pick_query(&mut rng, &queries);
            let now = NOW + case;
            wire::encode_track_suggest(&mut request, user, &query, k, now);
            reference.try_track_and_suggest(user, &query, k, now)
        }
        .expect("no admission limit configured");
        wire::encode_suggestions(&mut expected, &owned);
        assert_eq!(raw.round_trip(&request), expected, "single case {case}");
        if owned.is_empty() {
            empty += 1;
        } else {
            nonempty += 1;
        }
    }
    assert!(nonempty > 100 && empty > 100, "{nonempty} / {empty}");

    // SUGGEST_BATCH: seeded batches of every size class, an empty batch,
    // and one batch per replica whose users all live on that replica (the
    // router's straight-through path). MAX_K entries are kept few enough
    // for the reply to fit a frame.
    let now = NOW + 1_000;
    let mut batches: Vec<Vec<SuggestRequest>> = vec![Vec::new()];
    for size in [1usize, 2, 7, 64, 256, 256, 256] {
        batches.push(
            (0..size)
                .map(|_| SuggestRequest {
                    user: pick_user(&mut rng),
                    k: pick_k(&mut rng),
                })
                .collect(),
        );
    }
    for replica in 0..4 {
        let homed: Vec<SuggestRequest> = (0..LIVE_USERS + 50)
            .filter(|&user| reference.replica_for(user) == replica)
            .map(|user| SuggestRequest { user, k: 5 })
            .collect();
        assert!(homed.len() > 20, "replica {replica} homes {}", homed.len());
        batches.push(homed);
    }
    let (mut from_a, mut from_b) = (0, 0);
    for (case, requests) in batches.iter().enumerate() {
        request.clear();
        wire::encode_suggest_batch(&mut request, &entries_of(requests), now);
        let owned = reference
            .try_suggest_batch(requests, now)
            .expect("no admission limit configured");
        assert_eq!(owned, reference.suggest_batch(requests, now));
        expected.clear();
        wire::encode_batch(&mut expected, &owned);
        assert_eq!(raw.round_trip(&request), expected, "batch case {case}");
        for suggestion in owned.iter().flatten() {
            if suggestion.query.starts_with("B::") {
                from_b += 1;
            } else {
                from_a += 1;
            }
        }
    }
    assert!(
        from_a > 100 && from_b > 100,
        "both models must answer inside the batches: A {from_a}, B {from_b}"
    );

    // The served tier counted exactly the work it was sent.
    let stats = ServeSurface::stats(&*served);
    assert_eq!(stats.tracks, ServeSurface::stats(&*reference).tracks);
    let batched: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(stats.suggests, 600 + batched as u64);
    drop(raw);
    server.shutdown();
}

#[test]
fn a_batch_shed_at_the_last_replica_is_exactly_overloaded_and_leaves_no_stale_bytes() {
    let (a, b, queries) = snapshots();
    let served = mid_roll_tier(&a, &b, 1);
    let reference = mid_roll_tier(&a, &b, 1);
    for user in 0..64 {
        for tier in [&served, &reference] {
            tier.track(user, &queries[user as usize % queries.len()], NOW);
        }
    }
    let requests: Vec<SuggestRequest> = (0..64).map(|user| SuggestRequest { user, k: 5 }).collect();
    assert!(
        (0..4).all(|replica| requests
            .iter()
            .any(|r| served.replica_for(r.user) == replica)),
        "the batch must involve every replica"
    );
    let server = NetServer::start(Arc::clone(&served), ServerConfig::default()).unwrap();
    let mut raw = Raw::connect(&server);
    let (mut request, mut expected) = (Vec::new(), Vec::new());
    wire::encode_suggest_batch(&mut request, &entries_of(&requests), NOW);

    // Replicas 0..2 admit; replica 3, asked last, is out of budget.
    let last = served.replica(3);
    let permit = last.admit().expect("budget of one is free");
    wire::encode_overloaded(&mut expected, 1);
    assert_eq!(raw.round_trip(&request), expected);
    assert_eq!(
        ServeSurface::stats(&*served).suggests,
        0,
        "a shed batch counts nothing"
    );
    assert_eq!(server.stats().engine_shed, 1);
    drop(permit);

    // Same connection, same buffers: the next replies are whole and clean.
    let mut ping = Vec::new();
    wire::encode_ping(&mut ping);
    expected.clear();
    wire::encode_pong(&mut expected);
    assert_eq!(raw.round_trip(&ping), expected);
    expected.clear();
    wire::encode_batch(
        &mut expected,
        &reference.try_suggest_batch(&requests, NOW).unwrap(),
    );
    assert_eq!(raw.round_trip(&request), expected);
    assert!(expected.len() > 500, "the answer must carry suggestions");
    drop(raw);
    server.shutdown();
}
