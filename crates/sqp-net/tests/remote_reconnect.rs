//! Reconnect and error-typing coverage for the remote tier.
//!
//! Two things a resilient client must get right about a *restarting*
//! server: (1) report the failure window with typed, cause-split errors
//! (`Refused` ≠ `Timeout` ≠ `Disconnected` — their retry policies
//! differ), and (2) recover on its own once the endpoint is back, with
//! nothing caller-visible beyond typed degraded outcomes in between.
//!
//! The restart happens on the **same port**, which is the operationally
//! interesting case: it only works because `RemoteEngine::drain_pools`
//! makes the *client* side close first (so the dying server's sockets
//! skip `TIME_WAIT` and the port frees immediately).
//!
//! A typed `R_ERROR` reply is the other side of that typing: the endpoint
//! answered, so its breaker records a success whichever operation asked.

use sqp_common::breaker::{BreakerConfig, BreakerState};
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_logsim::RawLogRecord;
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::{
    wire, EndpointConfig, NetClient, NetError, NetServer, RemoteConfig, RemoteEngine,
    RemoteOutcome, ServerConfig,
};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, TrainingConfig,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

fn test_engine() -> Arc<ServeEngine> {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..10 {
        logs.push(rec(u, 100, "weather"));
        logs.push(rec(u, 130, "weather tomorrow"));
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ServeEngine::new(
        Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
        EngineConfig::default(),
    ))
}

fn start_server(addr: SocketAddr) -> NetServer {
    NetServer::start(
        test_engine(),
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    )
    .expect("server start")
}

/// Bind-retry: the port should be free immediately after a drained
/// shutdown, but give the OS a grace window anyway.
fn restart_server(addr: SocketAddr) -> NetServer {
    for _ in 0..100 {
        match NetServer::start(
            test_engine(),
            ServerConfig {
                addr,
                ..ServerConfig::default()
            },
        ) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("port {addr} did not free up after drained shutdown");
}

#[test]
fn bare_client_reports_split_errors_by_cause() {
    // Refused: a port that *was* bound and no longer is — nothing
    // listening means the request certainly never executed.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let Err(err) = NetClient::connect_timeout(dead_addr, Duration::from_millis(500)) else {
        panic!("nothing is listening; connect must fail");
    };
    assert!(
        matches!(NetError::from(err), NetError::Refused(_)),
        "dead port must classify as Refused"
    );

    // Timeout: a black-holed endpoint accepts bytes and never answers;
    // only the client's own read deadline ends the wait.
    let server = start_server("127.0.0.1:0".parse().unwrap());
    let proxy = ChaosProxy::start(server.serve_addr(), Chaos::new(FaultPlan::quiet(7))).unwrap();
    proxy.set_blackhole(true);
    let mut client =
        NetClient::connect_timeout(proxy.listen_addr(), Duration::from_millis(250)).unwrap();
    match client.ping() {
        Err(NetError::Timeout(_)) => {}
        other => panic!("black hole must classify as Timeout, got {other:?}"),
    }
    proxy.shutdown();

    // Disconnected: a reply torn mid-frame (EOF inside the body).
    let torn_proxy = ChaosProxy::start(
        server.serve_addr(),
        Chaos::new(FaultPlan {
            seed: 7,
            truncate_frame_s2c_on: vec![1],
            ..FaultPlan::default()
        }),
    )
    .unwrap();
    let mut client =
        NetClient::connect_timeout(torn_proxy.listen_addr(), Duration::from_secs(2)).unwrap();
    match client.ping() {
        Err(NetError::Disconnected) => {}
        other => panic!("torn reply must classify as Disconnected, got {other:?}"),
    }
    torn_proxy.shutdown();
    server.shutdown();
}

#[test]
fn remote_engine_recovers_across_same_port_server_restart() {
    let server = start_server("127.0.0.1:0".parse().unwrap());
    let addr = server.serve_addr();

    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(addr)],
        RemoteConfig {
            deadline: Duration::from_millis(600),
            attempt_timeout: Duration::from_millis(150),
            connect_timeout: Duration::from_millis(150),
            max_attempts: 2,
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_millis(100),
            },
            ..RemoteConfig::default()
        },
    );

    // Healthy: answered, with real model content.
    match remote.remote_track_and_suggest(1, "weather", 1, 1_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("healthy endpoint must answer, got {other:?}"),
    }

    // Drain BEFORE the server dies: the client closes every pooled
    // connection, so the server side never enters TIME_WAIT and the port
    // frees the moment the listener closes.
    remote.drain_pools();
    server.shutdown();

    // Down: every outcome in the window is *typed* degradation — no
    // panic, no hang, no untyped error — and the breaker trips open.
    let mut degraded_seen = 0;
    for i in 0..5 {
        match remote.remote_suggest(i, 1, 2_000) {
            RemoteOutcome::Degraded(_) => degraded_seen += 1,
            RemoteOutcome::Answered(_) | RemoteOutcome::Shed { .. } => {
                panic!("dead endpoint cannot answer")
            }
        }
    }
    assert_eq!(degraded_seen, 5);
    let down = remote.endpoint_breaker(0);
    assert!(down.trips >= 1, "breaker must have tripped: {down:?}");

    // Revive on the SAME port, then let breaker cooldown + half-open
    // probing re-admit it.
    let server = restart_server(addr);
    let mut recovered = false;
    for _ in 0..100 {
        if remote.remote_ping().is_answered() {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(recovered, "remote engine must recover after restart");

    // Fully recovered: breaker closed again, recovery counted, answers
    // carry model content from the revived process.
    match remote.remote_track_and_suggest(2, "weather", 1, 3_000) {
        RemoteOutcome::Answered(s) => assert_eq!(s[0].query, "weather tomorrow"),
        other => panic!("revived endpoint must answer, got {other:?}"),
    }
    let up = remote.endpoint_breaker(0);
    assert_eq!(up.state, BreakerState::Closed);
    assert!(up.recoveries >= 1, "half-open probe must have closed it");

    let stats = remote.remote_stats();
    assert!(stats.degraded >= 5);
    assert!(stats.reconnects >= 1, "recovery implies a fresh connection");
    server.shutdown();
}

/// A listener that answers every frame on every connection with a typed
/// `R_ERROR`.
fn start_error_listener() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for mut conn in listener.incoming().flatten() {
            std::thread::spawn(move || {
                let (mut body, mut reply) = (Vec::new(), Vec::new());
                while let Ok(FrameRead::Frame) =
                    read_frame(&mut conn, &mut body, wire::DEFAULT_MAX_FRAME)
                {
                    reply.clear();
                    wire::encode_error(&mut reply, wire::code::UNKNOWN_OPCODE, "no");
                    if write_frame(&mut conn, &reply, wire::DEFAULT_MAX_FRAME).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

#[test]
fn a_typed_error_on_a_fan_out_op_is_an_answer() {
    let addr = start_error_listener();
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(addr)],
        RemoteConfig {
            pool_warmup: 0,
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_secs(60),
            },
            ..RemoteConfig::default()
        },
    );
    let answered = || remote.remote_stats().endpoints[0].answered;
    assert_eq!(answered(), 0);

    // Neither fan-out op gets a value back, and neither trips the breaker:
    // the endpoint answered both. The record says its fold covers none of
    // the tier's one endpoint.
    let record = remote.stats_record();
    assert_eq!((record.covered, record.endpoints), (0, 1));
    assert_eq!(record.stats, Default::default());
    assert_eq!(remote.evict_idle(1_000), 0);
    assert_eq!(remote.endpoint_breaker(0).state, BreakerState::Closed);
    assert_eq!(answered(), 2);

    // A serving op's typed error is the same answer.
    assert!(matches!(remote.remote_ping(), RemoteOutcome::Degraded(_)));
    assert_eq!(remote.endpoint_breaker(0).state, BreakerState::Closed);
    assert_eq!(answered(), 3);
}

/// With one of two endpoints black-holed, the tier's record is the fold of
/// the one that answered, and says so: one of two.
#[test]
fn a_stats_record_says_how_many_endpoints_it_covers() {
    let healthy = start_server("127.0.0.1:0".parse().unwrap());
    let hidden = start_server("127.0.0.1:0".parse().unwrap());
    let proxy = ChaosProxy::start(hidden.serve_addr(), Chaos::new(FaultPlan::quiet(7))).unwrap();
    let remote = RemoteEngine::connect(
        vec![
            EndpointConfig::serve_only(healthy.serve_addr()),
            EndpointConfig::serve_only(proxy.listen_addr()),
        ],
        RemoteConfig {
            attempt_timeout: Duration::from_millis(150),
            ..RemoteConfig::default()
        },
    );
    for user in 0..20 {
        remote.track(user, "weather", 1_000);
    }
    let both = remote.stats_record();
    assert_eq!((both.covered, both.endpoints), (2, 2));
    assert_eq!(both.stats.tracks, 20);

    proxy.set_blackhole(true);
    let record = remote.stats_record();
    assert_eq!((record.covered, record.endpoints), (1, 2));
    let mut direct = NetClient::connect(healthy.serve_addr()).unwrap();
    let alone = sqp_serve::EngineStats::from(direct.stats().unwrap());
    assert_eq!(record.stats, alone);
    assert!(alone.tracks > 0 && alone.tracks < 20, "{alone:?}");
    assert_eq!(ServeSurface::stats(&remote), remote.stats_record().stats);
    proxy.shutdown();
    healthy.shutdown();
    hidden.shutdown();
}
