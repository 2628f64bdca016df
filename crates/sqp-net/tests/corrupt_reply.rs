//! A corrupt suggestion reply through the remote tier: the client decodes a
//! reply into its connection's flat answer as it validates it, so a reply
//! that breaks part-way has already left valid lists there. None of them
//! may reach a caller.
//!
//! Two endpoints: a real server, and a raw listener that answers every
//! suggestion request with a body whose first list is valid and whose
//! second breaks (invalid UTF-8). A batch split across both, and a single
//! suggest homed on the corrupt one, must each degrade with a typed
//! reason, count one breaker failure on the corrupt endpoint and none on
//! the healthy one, and leave a caller's sink with empty lists only.

use sqp_common::breaker::BreakerConfig;
use sqp_common::bytes::put_uvarint;
use sqp_logsim::RawLogRecord;
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire::{self, op, Request};
use sqp_net::{
    DegradedReason, EndpointConfig, NetError, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome,
    ServerConfig, WireError,
};
use sqp_router::{HashRing, DEFAULT_VNODES};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, SuggestRequest, SuggestSink,
    TrainingConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

const NOW: u64 = 1_000;

fn healthy_server() -> NetServer {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let logs: Vec<_> = (0..10)
        .flat_map(|u| [rec(u, 100, "weather"), rec(u, 130, "weather tomorrow")])
        .collect();
    let snapshot = ModelSnapshot::from_raw_logs(
        &logs,
        &TrainingConfig {
            model: ModelSpec::Adjacency,
            ..TrainingConfig::default()
        },
    );
    let engine = ServeEngine::new(Arc::new(snapshot), EngineConfig::default());
    NetServer::start(Arc::new(engine), ServerConfig::default()).expect("server start")
}

/// One list of `(score, query bytes)`, in wire form.
fn put_list(body: &mut Vec<u8>, entries: &[(f64, &[u8])]) {
    put_uvarint(body, entries.len() as u64);
    for &(score, query) in entries {
        body.extend_from_slice(&score.to_bits().to_le_bytes());
        put_uvarint(body, query.len() as u64);
        body.extend_from_slice(query);
    }
}

/// A listener that answers `SUGGEST_BATCH` with an `R_BATCH` and every
/// other suggest with an `R_SUGGESTIONS`, each with a valid first list and
/// an invalid UTF-8 query after it.
fn start_corrupt_listener() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut conn in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let (mut request, mut reply) = (Vec::new(), Vec::new());
                while let Ok(FrameRead::Frame) =
                    read_frame(&mut conn, &mut request, wire::DEFAULT_MAX_FRAME)
                {
                    let valid: &[(f64, &[u8])] = &[(0.75, b"leaked query"), (0.5, b"also leaked")];
                    let broken: &[(f64, &[u8])] = &[(0.25, b"\xff\xfe")];
                    reply.clear();
                    match wire::decode_request(&request) {
                        Ok(Request::SuggestBatch { .. }) => {
                            reply.push(op::R_BATCH);
                            put_uvarint(&mut reply, 2);
                            put_list(&mut reply, valid);
                            put_list(&mut reply, broken);
                        }
                        _ => {
                            reply.push(op::R_SUGGESTIONS);
                            put_list(&mut reply, &[valid[0], broken[0]]);
                        }
                    }
                    if write_frame(&mut conn, &reply, wire::DEFAULT_MAX_FRAME).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

/// A sink that records what it was handed.
#[derive(Default, Debug)]
struct Recording {
    lists: Vec<usize>,
    suggestions: usize,
}

impl SuggestSink for Recording {
    fn list(&mut self, len: usize) {
        self.lists.push(len);
    }
    fn suggestion(&mut self, _query: &str, _score: f64) {
        self.suggestions += 1;
    }
}

/// Endpoint 0 healthy, endpoint 1 corrupt; one attempt per operation, so
/// a corrupt reply degrades instead of failing over.
fn tier(healthy: SocketAddr, corrupt: SocketAddr) -> RemoteEngine {
    RemoteEngine::connect(
        vec![
            EndpointConfig::serve_only(healthy),
            EndpointConfig::serve_only(corrupt),
        ],
        RemoteConfig {
            max_attempts: 1,
            breaker: BreakerConfig {
                threshold: 100,
                ..BreakerConfig::default()
            },
            ..RemoteConfig::default()
        },
    )
}

/// `(breaker failures, answered)` per endpoint.
fn accounts(remote: &RemoteEngine) -> Vec<(u32, u64)> {
    let stats = remote.remote_stats();
    (0..2)
        .map(|i| {
            (
                remote.endpoint_breaker(i).consecutive_failures,
                stats.endpoints[i].answered,
            )
        })
        .collect()
}

fn is_bad_utf8(reason: &DegradedReason) -> bool {
    matches!(
        reason,
        DegradedReason::DeadlineExhausted {
            last_error: Some(NetError::Wire(WireError::BadUtf8))
        } | DegradedReason::NotRetryable {
            error: NetError::Wire(WireError::BadUtf8)
        }
    )
}

#[test]
fn a_corrupt_reply_degrades_and_leaves_no_part_of_an_answer() {
    let server = healthy_server();
    let corrupt = start_corrupt_listener();
    let ring = HashRing::new(2, DEFAULT_VNODES);
    let homed_on = |id: u32| (0..).find(|&u| ring.route(u) == id).unwrap();
    let (on_healthy, on_corrupt) = (homed_on(0), homed_on(1));
    // The healthy endpoint's user has a session there to answer from.
    tier(server.serve_addr(), corrupt).track(on_healthy, "weather", NOW);

    // A batch split across both endpoints: the healthy half is answered
    // and gathered, the corrupt half breaks, and the caller sees empty
    // lists only.
    let requests: Vec<SuggestRequest> = [on_healthy, on_corrupt, on_healthy]
        .iter()
        .map(|&user| SuggestRequest { user, k: 3 })
        .collect();
    let remote = tier(server.serve_addr(), corrupt);
    let mut sink = Recording::default();
    remote
        .try_suggest_batch_into(&requests, NOW, &mut sink)
        .expect("degraded, not shed");
    assert_eq!(sink.lists, vec![0; 3], "{sink:?}");
    assert_eq!(sink.suggestions, 0);
    assert_eq!(accounts(&remote), vec![(0, 1), (1, 0)]);
    match remote.remote_suggest_batch(&requests, NOW) {
        RemoteOutcome::Degraded(reason) => assert!(is_bad_utf8(&reason), "{reason}"),
        other => panic!("a corrupt sub-batch must degrade the batch, got {other:?}"),
    }
    assert_eq!(accounts(&remote), vec![(0, 2), (2, 0)]);

    // A single list from the corrupt endpoint, through both suggest ops.
    let remote = tier(server.serve_addr(), corrupt);
    let mut sink = Recording::default();
    remote
        .try_suggest_into(on_corrupt, 3, NOW, &mut sink)
        .expect("degraded, not shed");
    remote
        .try_track_and_suggest_into(on_corrupt, "weather", 3, NOW, &mut sink)
        .expect("degraded, not shed");
    assert_eq!(sink.lists, vec![0; 2], "{sink:?}");
    assert_eq!(sink.suggestions, 0);
    assert_eq!(accounts(&remote), vec![(0, 0), (2, 0)]);
    match remote.remote_suggest(on_corrupt, 3, NOW) {
        RemoteOutcome::Degraded(reason) => assert!(is_bad_utf8(&reason), "{reason}"),
        other => panic!("a corrupt reply must degrade, got {other:?}"),
    }
    match remote.remote_track_and_suggest(on_corrupt, "weather", 3, NOW) {
        RemoteOutcome::Degraded(reason) => assert!(is_bad_utf8(&reason), "{reason}"),
        other => panic!("a corrupt reply must degrade, got {other:?}"),
    }
    assert_eq!(accounts(&remote), vec![(0, 0), (4, 0)]);

    // The healthy endpoint still answers its own users in full.
    match remote.remote_suggest(on_healthy, 3, NOW) {
        RemoteOutcome::Answered(list) => assert_eq!(list[0].query, "weather tomorrow"),
        other => panic!("the healthy endpoint must answer, got {other:?}"),
    }
    server.shutdown();
}
