//! The pipelining promise of `WIRE.md` §1: a client may write many
//! frames before reading anything and gets exactly one reply per
//! request, in request order — and a client that *never* reads is
//! disconnected by the write timeout without hurting anyone else.

use sqp_logsim::RawLogRecord;
use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire::{self, op};
use sqp_net::{NetClient, NetServer, ServerConfig};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, TrainingConfig,
};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

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

/// Append `body` to `out` as one frame, with the transport's own framer.
fn push_frame(out: &mut Vec<u8>, body: &[u8]) {
    write_frame(out, body, wire::DEFAULT_MAX_FRAME).expect("a Vec takes every byte");
}

#[test]
fn sixty_four_pipelined_frames_get_sixty_four_replies_in_order() {
    const FRAMES: u64 = 64;
    let server = NetServer::start(engine(), ServerConfig::default()).expect("server start");
    // The same ops, one at a time, against a second engine that never
    // sees a socket: what each reply body must be.
    let reference = engine();

    let mut request_bytes = Vec::new();
    let mut expected: Vec<Vec<u8>> = Vec::new();
    let mut body = Vec::new();
    for i in 0..FRAMES {
        let (user, now) = (i % 4, 1_000 + i);
        body.clear();
        let mut reply = Vec::new();
        match i % 3 {
            0 => {
                // Alternate a query the model continues with one it
                // does not, so suggestion bodies differ down the pipe.
                let query = if i % 2 == 0 { "alpha" } else { "alpha::next" };
                wire::encode_track_suggest(&mut body, user, query, 3, now);
                let got = reference
                    .try_track_and_suggest(user, query, 3, now)
                    .expect("no admission limit configured");
                wire::encode_suggestions(&mut reply, &got);
            }
            1 => {
                wire::encode_suggest(&mut body, user, 3, now);
                let got = reference
                    .try_suggest(user, 3, now)
                    .expect("no admission limit configured");
                wire::encode_suggestions(&mut reply, &got);
            }
            _ => {
                wire::encode_ping(&mut body);
                wire::encode_pong(&mut reply);
            }
        }
        push_frame(&mut request_bytes, &body);
        expected.push(reply);
    }
    assert!(
        expected.iter().any(|r| r.len() > 2)
            && expected.iter().any(|r| r == &[op::R_SUGGESTIONS, 0]),
        "the script must mix non-empty and empty suggestion lists"
    );

    let mut stream = TcpStream::connect(server.serve_addr()).expect("connect");
    stream.set_read_timeout(Some(DEADLINE)).unwrap();
    stream.write_all(&request_bytes).expect("one write_all");
    stream.shutdown(Shutdown::Write).unwrap();

    let mut rbuf = Vec::new();
    for (i, want) in expected.iter().enumerate() {
        match read_frame(&mut stream, &mut rbuf, wire::DEFAULT_MAX_FRAME).expect("read reply") {
            FrameRead::Frame => assert_eq!(&rbuf, want, "reply {i} out of order or wrong"),
            other => panic!("reply {i}: stream ended early: {other:?}"),
        }
    }
    assert!(
        matches!(
            read_frame(&mut stream, &mut rbuf, wire::DEFAULT_MAX_FRAME).expect("read eof"),
            FrameRead::CleanEof
        ),
        "exactly one reply per request, then a clean close"
    );

    // The server FINs only after its last counter bump, so this is exact.
    let stats = server.stats();
    assert_eq!(stats.frames_in, FRAMES);
    assert_eq!(stats.replies_out, FRAMES);
    assert_eq!(stats.protocol_errors, 0);
    server.shutdown();
}

/// How a [`flood`] ended.
#[derive(Debug, PartialEq)]
enum FloodEnd {
    /// The peer stopped taking bytes for a whole write timeout.
    Stalled,
    /// The peer closed or reset the connection.
    Disconnected,
}

/// Pipeline `STATS` requests (5 bytes in, 61 bytes out) without ever
/// reading a reply. Writes whole frames from a cyclic buffer, so a short
/// write never desynchronizes the stream. With `until_disconnected`,
/// write stalls are ridden out until the server drops the connection.
fn flood(addr: SocketAddr, until_disconnected: bool) -> (TcpStream, FloodEnd) {
    let mut body = Vec::new();
    wire::encode_stats(&mut body);
    let mut frames = Vec::new();
    for _ in 0..4096 {
        push_frame(&mut frames, &body);
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let started = Instant::now();
    let mut pos = 0;
    while started.elapsed() < DEADLINE {
        match stream.write(&frames[pos..]) {
            Ok(n) => pos = (pos + n) % frames.len(),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if !until_disconnected {
                    return (stream, FloodEnd::Stalled);
                }
            }
            Err(_) => return (stream, FloodEnd::Disconnected),
        }
    }
    panic!("a client that never reads was served for {DEADLINE:?} without a stall or a disconnect");
}

#[test]
fn a_pipeliner_that_never_reads_is_disconnected_and_hurts_nobody() {
    let server = NetServer::start(
        engine(),
        ServerConfig {
            write_timeout: Some(Duration::from_millis(200)),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.serve_addr();

    let mut neighbour = NetClient::connect_timeout(addr, DEADLINE).expect("connect");
    neighbour.ping().expect("ping before the flood");

    let flooding = AtomicBool::new(true);
    let pings = std::thread::scope(|scope| {
        let served = scope.spawn(|| {
            let mut pings = 0u64;
            while flooding.load(Ordering::Acquire) {
                neighbour
                    .ping()
                    .expect("neighbour must be served throughout");
                pings += 1;
            }
            pings
        });
        let (_stream, end) = flood(addr, true);
        flooding.store(false, Ordering::Release);
        assert_eq!(end, FloodEnd::Disconnected);
        served.join().unwrap()
    });
    assert!(pings > 0, "the neighbour never got a turn");

    // The flooded connection's thread is gone; the neighbour's is not.
    let started = Instant::now();
    while server.active_connections() != 1 {
        assert!(
            started.elapsed() < DEADLINE,
            "flooded connection never closed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    neighbour.ping().expect("neighbour still served afterwards");

    // Shut down with a second never-reading pipeliner attached and its
    // pipe full: the write timeout bounds how long it can hold the join.
    let (_stuck, _) = flood(addr, false);
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with a stalled client attached",
        started.elapsed()
    );
    assert_eq!(server.stats().handler_panics, 0);
}
