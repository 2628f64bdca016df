//! Protocol robustness: a seeded sweep of malformed frames against a
//! **live** listener.
//!
//! Three corruption families, ≥10k cases total, all derived from one
//! seed: truncations (every stream prefix family), oversized length
//! prefixes, and single-byte corruptions of valid frames (which may
//! land anywhere — opcode, length prefix, varint, UTF-8). The contract
//! under test is the one `WIRE.md` §4 states: every case ends in a
//! typed `R_ERROR`, a normal reply, or a clean disconnect — never a
//! panic (checked via `NetServerStats::handler_panics` plus a final live
//! round trip) and never a hang (every client read is deadline-bounded,
//! and a timeout fails the test).
//!
//! Replayability: the per-case outcome (reply opcodes, error codes,
//! disconnect kind) is folded into an FNV-1a digest, and the whole
//! sweep runs **twice against two fresh servers**. Equal digests prove
//! the sweep is bit-replayable from its seed — a failure can be
//! reproduced by its case index alone.

use sqp_common::hash::{fnv1a, FNV_OFFSET_BASIS};
use sqp_common::rng::{Rng, StdRng};
use sqp_logsim::RawLogRecord;
use sqp_net::wire::{self, BatchEntry};
use sqp_net::{NetServer, ServerConfig};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5EED_F4A2;
const CASES: usize = 10_240;
/// A read blocking longer than this counts as a hang and fails the test.
const HANG_DEADLINE: Duration = Duration::from_secs(10);
const MAX_FRAME: usize = 4096;

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

/// Build one valid frame (prefix + body), opcode mix chosen by the rng.
fn valid_frame(rng: &mut StdRng) -> Vec<u8> {
    let mut body = Vec::new();
    match rng.random_range(0u64..7) {
        0 => wire::encode_track(&mut body, rng.next_u64(), "alpha", 100),
        1 => wire::encode_suggest(&mut body, rng.next_u64(), 3, 200),
        2 => wire::encode_track_suggest(&mut body, rng.next_u64(), "alpha", 3, 300),
        3 => {
            let entries: Vec<BatchEntry> = (0..rng.random_range(0u64..5))
                .map(|_| BatchEntry {
                    user: rng.next_u64(),
                    k: 2,
                })
                .collect();
            wire::encode_suggest_batch(&mut body, &entries, 400);
        }
        4 => wire::encode_stats(&mut body),
        5 => wire::encode_ping(&mut body),
        _ => wire::encode_evict(&mut body, 10_000),
    }
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&body);
    frame
}

/// Derive case `i`'s malformed byte stream. Deterministic in (seed, i).
fn malformed_case(rng: &mut StdRng) -> Vec<u8> {
    let mut frame = valid_frame(rng);
    match rng.random_range(0u64..4) {
        // Truncation: cut the stream anywhere strictly inside the frame.
        0 => {
            let cut = rng.random_range(0u64..frame.len() as u64) as usize;
            frame.truncate(cut);
        }
        // Oversized length prefix (bigger than the server's limit).
        1 => {
            let huge = (MAX_FRAME as u32) + 1 + (rng.next_u64() as u32 % 1_000_000);
            frame[..4].copy_from_slice(&huge.to_le_bytes());
        }
        // Zero length prefix, with the old body now desynchronized.
        2 => {
            frame[..4].copy_from_slice(&0u32.to_le_bytes());
        }
        // Single-byte corruption anywhere in the frame (prefix included).
        _ => {
            let at = rng.random_range(0u64..frame.len() as u64) as usize;
            let bit = 1u8 << (rng.random_range(0u64..8) as u8);
            frame[at] ^= bit;
        }
    }
    frame
}

/// Run one case: send the bytes, close the write half, then read
/// whatever comes back until the server closes. Returns outcome bytes
/// for the digest. Panics (failing the test) on a hang.
fn run_case(addr: SocketAddr, case: usize, bytes: &[u8]) -> Vec<u8> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(HANG_DEADLINE)).unwrap();
    stream.set_write_timeout(Some(HANG_DEADLINE)).unwrap();

    let mut stream = stream;
    // The server may close mid-send (e.g. after an oversized prefix);
    // a send error is part of the outcome, not a test failure.
    let send_err = stream.write_all(bytes).is_err();
    let _ = stream.shutdown(Shutdown::Write);

    let mut outcome = vec![u8::from(send_err)];
    let mut rbuf = Vec::new();
    loop {
        match sqp_net::frame::read_frame(&mut stream, &mut rbuf, MAX_FRAME) {
            Ok(sqp_net::frame::FrameRead::Frame) => {
                // Record the reply opcode; for typed errors, the code too.
                let op = rbuf.first().copied().unwrap_or(0);
                outcome.push(op);
                if op == wire::op::R_ERROR {
                    outcome.push(rbuf.get(1).copied().unwrap_or(0));
                }
                // Every reply frame must itself decode.
                wire::decode_reply(&rbuf)
                    .unwrap_or_else(|e| panic!("case {case}: server sent undecodable reply: {e}"));
            }
            Ok(sqp_net::frame::FrameRead::CleanEof) => {
                outcome.push(0xF0);
                break;
            }
            Ok(sqp_net::frame::FrameRead::Reject(_)) => {
                outcome.push(0xF1);
                break;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                panic!("case {case}: server hung (no reply, no close within deadline)");
            }
            Err(_) => {
                // Reset / torn close — a disconnect, which is allowed.
                outcome.push(0xF2);
                break;
            }
        }
    }
    outcome
}

/// One full sweep against a fresh server; returns the outcome digest.
fn sweep() -> u64 {
    let server = NetServer::start(
        engine(),
        ServerConfig {
            max_frame_len: MAX_FRAME,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let addr = server.serve_addr();

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut digest = FNV_OFFSET_BASIS;
    for case in 0..CASES {
        let bytes = malformed_case(&mut rng);
        let outcome = run_case(addr, case, &bytes);
        digest = fnv1a(digest, &outcome);
        if case % 1024 == 0 {
            assert_eq!(
                server.stats().handler_panics,
                0,
                "a request handler panicked before case {case}"
            );
        }
    }

    // After 10k+ malformed conversations the server must still be fully
    // alive: no handler ever panicked, and a fresh client gets real
    // answers.
    assert_eq!(
        server.stats().handler_panics,
        0,
        "a request handler panicked during the sweep"
    );
    let mut client = sqp_net::NetClient::connect_timeout(addr, HANG_DEADLINE).unwrap();
    client.ping().expect("server must still answer pings");
    match client.track_and_suggest(99, "alpha", 1, 50_000).unwrap() {
        sqp_net::ServeAnswer::Suggestions(s) => {
            assert_eq!(s[0].query, "alpha::next", "model still serving");
        }
        sqp_net::ServeAnswer::Overloaded { .. } => panic!("no admission limit configured"),
    }
    let stats = server.stats();
    assert!(
        stats.protocol_errors > 0,
        "a malformed sweep must produce typed protocol errors"
    );

    server.shutdown();
    digest
}

#[test]
fn malformed_frame_sweep_never_panics_or_hangs_and_replays_bit_identically() {
    let first = sweep();
    let second = sweep();
    assert_eq!(
        first, second,
        "outcome digest must replay bit-identically from seed {SEED:#x}"
    );
}
