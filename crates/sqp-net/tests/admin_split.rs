//! The serve/admin port split (WIRE.md §5).
//!
//! The traffic port is the one you expose broadly; it must never accept
//! a model swap. Admin opcodes arriving on the serve port get a typed
//! `ADMIN_ONLY` error and a closed connection. On the admin port the
//! same opcodes work — and a *failed* publish (bad path) is a typed
//! `PUBLISH_FAILED` error that keeps the connection alive, because an
//! operator fat-fingering a path should not have to reconnect. A single
//! engine answers `ROLLING_PUBLISH` as a one-replica roll.

use sqp_logsim::RawLogRecord;
use sqp_net::{NetClient, NetError, NetServer, RollSummary, ServerConfig};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
use sqp_store::{save_snapshot, SnapshotMeta};
use std::sync::Arc;
use std::time::Duration;

fn snapshot() -> Arc<ModelSnapshot> {
    let rec = |machine, ts, q: &str| RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    };
    let mut logs = Vec::new();
    for u in 0..4 {
        logs.push(rec(u, 100, "alpha"));
        logs.push(rec(u, 130, "beta"));
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg))
}

#[test]
fn admin_opcodes_are_refused_on_the_serve_port_and_work_on_the_admin_port() {
    let engine = Arc::new(ServeEngine::new(snapshot(), EngineConfig::default()));
    let server = NetServer::start(engine, ServerConfig::default()).expect("server start");
    let deadline = Duration::from_secs(10);

    let next = snapshot();
    let path =
        std::env::temp_dir().join(format!("sqp-net-admin-split-{}.sqps", std::process::id()));
    save_snapshot(&path, &next, &SnapshotMeta::describe(&next, 1, 0)).expect("save snapshot");
    let path_str = path.to_str().unwrap().to_owned();

    // PUBLISH on the *serve* port: typed ADMIN_ONLY error, then the server
    // closes this connection.
    let mut serve = NetClient::connect_timeout(server.serve_addr(), deadline).unwrap();
    match serve.publish(&path_str) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, sqp_net::wire::code::ADMIN_ONLY, "wrong error code");
        }
        other => panic!("publish on the serve port must be refused, got {other:?}"),
    }
    assert!(
        serve.ping().is_err(),
        "the serve-port connection must be closed after an admin attempt"
    );
    assert_eq!(
        server.stats().publishes_ok,
        0,
        "the refused publish must not have executed"
    );

    // Same frame on the *admin* port: lands, and the serve tier sees the
    // new generation.
    let mut admin = NetClient::connect_timeout(server.admin_addr(), deadline).unwrap();
    let generation = admin.publish(&path_str).expect("publish on the admin port");
    assert_eq!(generation, 1);

    // A bad path is an operator mistake, not a protocol violation: typed
    // PUBLISH_FAILED, connection stays usable.
    let missing = path_str.clone() + ".does-not-exist";
    match admin.publish(&missing) {
        Err(NetError::Remote { code, .. }) => {
            assert_eq!(code, sqp_net::wire::code::PUBLISH_FAILED);
        }
        other => panic!("publish of a missing file must fail typed, got {other:?}"),
    }
    admin
        .ping()
        .expect("the admin connection survives a failed publish");

    let mut check = NetClient::connect_timeout(server.serve_addr(), deadline).unwrap();
    assert_eq!(check.stats().expect("stats").generation, 1);

    let stats = server.stats();
    assert_eq!(stats.publishes_ok, 1);
    assert_eq!(stats.publishes_failed, 1);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_single_engine_rolls_as_one_replica() {
    let engine = Arc::new(ServeEngine::new(snapshot(), EngineConfig::default()));
    let server = NetServer::start(Arc::clone(&engine), ServerConfig::default()).expect("start");
    let deadline = Duration::from_secs(10);
    let mut admin = NetClient::connect_timeout(server.admin_addr(), deadline).unwrap();
    let before = engine.snapshot();

    // A missing file: one failed replica, the connection stays usable and
    // the engine keeps serving the model it had.
    let path = std::env::temp_dir().join(format!("sqp-net-admin-roll-{}.sqps", std::process::id()));
    let path_str = path.to_str().unwrap().to_owned();
    let summary = admin.rolling_publish(&path_str, false).expect("R_ROLLED");
    let failed = RollSummary {
        aborted: false,
        upgraded: 0,
        failed: 1,
        skipped: 0,
    };
    assert_eq!(summary, failed);
    admin
        .ping()
        .expect("the admin connection survives a failed roll");
    assert_eq!(engine.generation(), 0);
    assert!(
        Arc::ptr_eq(&engine.snapshot(), &before),
        "still the old model"
    );
    assert_eq!(engine.suggest_context(&["alpha"], 1)[0].query, "beta");
    assert_eq!(
        (server.stats().publishes_ok, server.stats().publishes_failed),
        (0, 1)
    );

    // A good file: one upgraded replica, one generation on.
    let next = snapshot();
    save_snapshot(&path, &next, &SnapshotMeta::describe(&next, 1, 0)).expect("save snapshot");
    let summary = admin.rolling_publish(&path_str, false).expect("R_ROLLED");
    let rolled = RollSummary {
        aborted: false,
        upgraded: 1,
        failed: 0,
        skipped: 0,
    };
    assert_eq!(summary, rolled);
    assert_eq!(engine.generation(), 1);
    assert!(
        !Arc::ptr_eq(&engine.snapshot(), &before),
        "the file's model"
    );
    assert_eq!(
        (server.stats().publishes_ok, server.stats().publishes_failed),
        (1, 1)
    );
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
