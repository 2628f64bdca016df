//! TCP_NODELAY canary: a connection that loses its `set_nodelay` stalls on
//! Nagle + delayed ACK whenever a small write follows one not yet
//! acknowledged, and reads ≈ 40 ms per op instead of microseconds. The
//! median single-op `SUGGEST` round trip — through a bare [`NetClient`]
//! and through the pooled [`RemoteEngine`] — must stay far below that, and
//! so must a pipelined pair of frames, the shape that provokes the stall:
//! with the server's `set_nodelay` removed the second reply waits for the
//! first one's delayed ACK (measured 44 ms against 18 µs on loopback).

use sqp_logsim::RawLogRecord;
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire;
use sqp_net::{
    EndpointConfig, NetClient, NetServer, RemoteConfig, RemoteEngine, ServeAnswer, ServerConfig,
};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 256;
const MAX_MEDIAN: Duration = Duration::from_millis(10);

fn engine() -> Arc<ServeEngine> {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..8 {
        logs.push(rec(u, 100, "alpha"));
        logs.push(rec(u, 130, "alpha::next"));
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

fn median_round_trip(mut op: impl FnMut(u64)) -> Duration {
    let mut took: Vec<Duration> = (0..ROUND_TRIPS as u64)
        .map(|i| {
            let started = Instant::now();
            op(i);
            started.elapsed()
        })
        .collect();
    took.sort_unstable();
    took[ROUND_TRIPS / 2]
}

#[test]
fn round_trips_do_not_wait_on_nagle() {
    let server = NetServer::start(engine(), ServerConfig::default()).expect("server start");
    let addr = server.serve_addr();

    let mut client = NetClient::connect(addr).expect("connect");
    client.track(1, "alpha", 1_000).expect("track");
    let raw = median_round_trip(|i| {
        let answer = client.suggest(1, 3, 1_001 + i).expect("suggest");
        assert!(matches!(answer, ServeAnswer::Suggestions(ref s) if !s.is_empty()));
    });
    assert!(
        raw < MAX_MEDIAN,
        "NetClient median SUGGEST round trip {raw:?} smells like Nagle"
    );

    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(addr)],
        RemoteConfig::default(),
    );
    let pooled = median_round_trip(|i| {
        assert!(remote.remote_suggest(1, 3, 1_001 + i).is_answered());
    });
    assert!(
        pooled < MAX_MEDIAN,
        "RemoteEngine median SUGGEST round trip {pooled:?} smells like Nagle"
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("set_nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set_read_timeout");
    let (mut body, mut reply) = (Vec::new(), Vec::new());
    let pair = median_round_trip(|i| {
        for _ in 0..2 {
            body.clear();
            wire::encode_suggest(&mut body, 1, 3, 1_001 + i);
            write_frame(&mut stream, &body, wire::DEFAULT_MAX_FRAME).expect("write frame");
        }
        for _ in 0..2 {
            let got = read_frame(&mut stream, &mut reply, wire::DEFAULT_MAX_FRAME);
            assert!(matches!(got, Ok(FrameRead::Frame)), "no reply: {got:?}");
        }
    });
    assert!(
        pair < MAX_MEDIAN,
        "pipelined pair median {pair:?}: the server's replies wait on Nagle"
    );
}
