//! Idle eviction racing a live keep-alive connection.
//!
//! A network front-end makes eviction interesting: a keep-alive TCP
//! connection can outlive the server-side session it talks to. The
//! contract is that eviction is **transparent at the wire level** — an
//! evicted user's next `SUGGEST` returns an empty list (not an error),
//! and the next `TRACK` simply starts a fresh session (`new_session`
//! flag set) on the same connection, with no reconnect or handshake.
//!
//! Two phases:
//!
//! 1. **Deterministic**: track → suggest works → a second connection
//!    evicts the session out from under the first → suggest is empty →
//!    track re-creates (`new_session: true`) → suggest works again.
//! 2. **Racing**: a hammer thread loops `EVICT` with a far-future
//!    timestamp (every session always idle-eligible) while a client
//!    thread drives track+suggest pairs. No interleaving may produce an
//!    error or a wrong suggestion — only "answered" or "empty because
//!    the session just got evicted".

use sqp_logsim::RawLogRecord;
use sqp_net::{NetClient, NetServer, ServeAnswer, ServerConfig};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrackerConfig, TrainingConfig,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const IDLE_CUTOFF_SECS: u64 = 60;

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
        EngineConfig {
            tracker: TrackerConfig {
                idle_cutoff_secs: IDLE_CUTOFF_SECS,
                ..TrackerConfig::default()
            },
            ..EngineConfig::default()
        },
    ))
}

fn suggestions(answer: ServeAnswer) -> Vec<String> {
    match answer {
        ServeAnswer::Suggestions(s) => s.into_iter().map(|x| x.query.to_string()).collect(),
        ServeAnswer::Overloaded { .. } => panic!("no admission limit configured"),
    }
}

#[test]
fn evicted_sessions_recreate_transparently_on_a_live_connection() {
    let server = NetServer::start(engine(), ServerConfig::default()).expect("server start");
    let addr = server.serve_addr();
    let deadline = Duration::from_secs(10);

    // --- Phase 1: deterministic evict-under-a-live-connection ---
    let mut live = NetClient::connect_timeout(addr, deadline).expect("live connect");
    let ack = live.track(7, "alpha", 1_000).expect("track");
    assert!(ack.new_session, "first contact starts a session");
    assert_eq!(
        suggestions(live.suggest(7, 3, 1_001).expect("suggest")),
        vec!["alpha::next".to_string()],
        "tracked context must drive suggestions"
    );

    // A second connection evicts user 7's session while `live` stays up.
    let mut ops = NetClient::connect_timeout(addr, deadline).expect("ops connect");
    let evicted = ops
        .evict_idle(1_001 + IDLE_CUTOFF_SECS + 1)
        .expect("evict over the wire");
    assert!(evicted >= 1, "user 7's idle session must be evicted");

    // The live connection never noticed: suggest degrades to empty
    // (no context), not to an error or a disconnect.
    let after = 2_000u64;
    assert!(
        suggestions(live.suggest(7, 3, after).expect("post-evict suggest")).is_empty(),
        "an evicted user has no context, so suggestions are empty"
    );

    // And the very next track transparently re-creates the session.
    let ack = live.track(7, "alpha", after + 1).expect("re-track");
    assert!(
        ack.new_session,
        "track after eviction must start a fresh session"
    );
    assert_eq!(
        suggestions(live.suggest(7, 3, after + 2).expect("suggest again")),
        vec!["alpha::next".to_string()],
        "the re-created session serves exactly like the original"
    );

    // --- Phase 2: eviction hammering live traffic ---
    let stop = Arc::new(AtomicBool::new(false));
    let hammer_stop = Arc::clone(&stop);
    let hammer = std::thread::spawn(move || {
        let mut client = NetClient::connect_timeout(addr, deadline).expect("hammer connect");
        let mut evictions = 0u64;
        while !hammer_stop.load(Ordering::Relaxed) {
            // Far-future timestamp: every resident session is idle-eligible,
            // so this races the client's track→suggest window as hard as
            // the scheduler allows.
            evictions += client.evict_idle(u64::MAX / 2).expect("evict");
        }
        evictions
    });

    let mut nonempty = 0u64;
    let mut empty = 0u64;
    for op in 0..2_000u64 {
        let user = op % 4;
        let now = 10_000 + op;
        live.track(user, "alpha", now).expect("racing track");
        let got = suggestions(live.suggest(user, 3, now).expect("racing suggest"));
        match got.as_slice() {
            // Eviction landed between track and suggest: empty, never wrong.
            [] => empty += 1,
            [only] if only == "alpha::next" => nonempty += 1,
            other => panic!("op {op}: wrong suggestions under racing eviction: {other:?}"),
        }
    }
    stop.store(true, Ordering::Relaxed);
    let hammer_evictions = hammer.join().unwrap();

    assert!(
        nonempty > 0,
        "some track→suggest pairs must win the race and get answers"
    );
    assert!(
        hammer_evictions + empty > 0,
        "the hammer must actually evict (or the race was never exercised)"
    );
    let stats = server.stats();
    assert_eq!(
        stats.handler_panics, 0,
        "no handler may panic under the race"
    );
    assert_eq!(stats.protocol_errors, 0, "well-formed traffic only");
    server.shutdown();
}
