//! A request handler that panics costs its own connection, not the
//! server.
//!
//! The engine is built with a hazard that panics on its first two
//! strikes (inside the session-stripe critical section, the worst place
//! for it). The two struck clients must see a prompt `Disconnected` —
//! not a read timeout — the server must count exactly two handler
//! panics, and a third connection must still get `PONG` and real
//! suggestions.

use sqp_common::hazard::Hazard;
use sqp_logsim::RawLogRecord;
use sqp_net::{NetClient, NetError, NetServer, ServeAnswer, ServerConfig};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Long enough that a hang is unmistakable, short enough that the
/// failing case (a server that never answers again) ends the test.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

struct PanicTwice(AtomicU64);

impl Hazard for PanicTwice {
    fn strike(&self, _site: &str) {
        if self.0.fetch_add(1, Ordering::SeqCst) < 2 {
            panic!("injected handler panic (test)");
        }
    }
}

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
    Arc::new(ServeEngine::with_hazard(
        Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
        EngineConfig::default(),
        Arc::new(PanicTwice(AtomicU64::new(0))),
    ))
}

#[test]
fn two_handler_panics_cost_two_connections_and_nothing_else() {
    let server = NetServer::start(engine(), ServerConfig::default()).expect("server start");
    let addr = server.serve_addr();

    // A bystander connected before the panics, to show that existing
    // connections survive them too.
    let mut bystander = NetClient::connect_timeout(addr, CLIENT_TIMEOUT).expect("connect");
    bystander.ping().expect("ping before the panics");

    for struck in 0..2u64 {
        let mut client = NetClient::connect_timeout(addr, CLIENT_TIMEOUT).expect("connect");
        match client.track_and_suggest(struck, "alpha", 3, 1_000) {
            Err(NetError::Disconnected) => {}
            other => panic!("struck client {struck} must be disconnected, got {other:?}"),
        }
    }

    bystander.ping().expect("an open connection survives");
    let mut fresh = NetClient::connect_timeout(addr, CLIENT_TIMEOUT).expect("connect");
    fresh.ping().expect("a new connection is still served");
    // User 0 is one of the struck users: its stripe was poisoned by the
    // panic and must have recovered.
    match fresh
        .track_and_suggest(0, "alpha", 3, 2_000)
        .expect("suggest")
    {
        ServeAnswer::Suggestions(s) => assert_eq!(s[0].query, "alpha::next"),
        ServeAnswer::Overloaded { .. } => panic!("no admission limit configured"),
    }

    // Each guard counts its panic, then unregisters, and only then can
    // the struck socket close — so both are settled by the time the
    // clients saw `Disconnected`.
    assert_eq!(server.active_connections(), 2, "bystander and fresh");
    let stats = server.stats();
    assert_eq!(stats.handler_panics, 2, "one count per panicked handler");
    server.shutdown();
}
