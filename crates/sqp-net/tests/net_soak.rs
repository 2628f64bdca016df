//! Multi-client keep-alive soak over real sockets, with an admin
//! publish landing mid-traffic.
//!
//! Six client threads drive mixed serve_loop-style traffic (tracked
//! suggestions, singles, batches, stats probes) through keep-alive
//! connections at a router tier behind the wire. At roughly one third
//! of the way in, an admin client pushes a **rolling** snapshot upgrade
//! through the admin port while traffic keeps flowing. Assertions:
//!
//! * **accounting** — every request a client sent was answered or
//!   typed-shed: `answered + shed == sent`, per thread, no lost or
//!   duplicated replies across the keep-alive connections;
//! * **no torn generations** — the two models use tagged vocabularies
//!   (`…::old` vs `…::new`): a single reply list must never mix tags
//!   (a user's request executes against exactly one snapshot load), and
//!   per user the tag must move old → new at most once, never back
//!   (consistent-hash pinning + per-replica monotone upgrade);
//! * **the upgrade really lands** — post-roll traffic observes `::new`
//!   suggestions and wire-level `STATS` reports the fully-propagated
//!   generation;
//! * **clean drain** — the server's own accounting agrees with the
//!   clients' (`replies_out == frames_in`, no frame left unanswered),
//!   no handler panicked, then `shutdown()` joins everything.

use sqp_logsim::RawLogRecord;
use sqp_net::{BatchAnswer, BatchEntry, NetClient, NetServer, ServeAnswer, ServerConfig};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, TrainingConfig};
use sqp_store::{save_snapshot, SnapshotMeta};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENT_THREADS: usize = 6;
const OPS_PER_THREAD: usize = 1_200;
const USERS_PER_THREAD: u64 = 40;
const PUBLISH_AT_TOTAL_OPS: u64 = (CLIENT_THREADS * OPS_PER_THREAD) as u64 / 3;
const REPLICAS: usize = 3;

fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
    RawLogRecord {
        machine_id: machine,
        timestamp: ts,
        query: q.into(),
        clicks: vec![],
    }
}

/// Train a model whose every suggestion carries `tag` as a suffix, so a
/// suggestion's provenance (which snapshot generation produced it) is
/// readable off the wire.
fn tagged_snapshot(tag: &str) -> Arc<ModelSnapshot> {
    let mut logs = Vec::new();
    for u in 0..USERS_PER_THREAD {
        for (i, seed) in ["alpha", "beta", "gamma"].iter().enumerate() {
            let t = 100 + (i as u64) * 40;
            logs.push(rec(u, t, seed));
            logs.push(rec(u, t + 20, &format!("{seed}::{tag}")));
        }
    }
    let cfg = TrainingConfig {
        model: ModelSpec::Adjacency,
        ..TrainingConfig::default()
    };
    Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg))
}

#[derive(Default)]
struct ThreadReport {
    sent: u64,
    answered: u64,
    shed: u64,
    saw_new: bool,
}

fn classify(queries: &[String]) -> Option<&'static str> {
    let mut tag = None;
    for q in queries {
        let this = if q.ends_with("::old") {
            "old"
        } else if q.ends_with("::new") {
            "new"
        } else {
            panic!("untagged suggestion {q:?} cannot have come from either model");
        };
        match tag {
            None => tag = Some(this),
            Some(t) => assert_eq!(
                t, this,
                "torn reply: one suggestion list mixes ::old and ::new"
            ),
        }
    }
    tag
}

#[test]
fn soak_mixed_traffic_with_mid_flight_rolling_publish() {
    // Tier: a 3-replica router on the ::old model; the ::new model goes
    // to disk for the admin port to pick up mid-traffic.
    let router = Arc::new(RouterEngine::new(
        tagged_snapshot("old"),
        RouterConfig {
            replicas: REPLICAS,
            engine: EngineConfig::default(),
        },
    ));
    let new_model = tagged_snapshot("new");
    let snap_path = std::env::temp_dir().join(format!("sqp-net-soak-{}.sqps", std::process::id()));
    save_snapshot(
        &snap_path,
        &new_model,
        &SnapshotMeta::describe(&new_model, 1, 0),
    )
    .expect("save ::new snapshot");

    let server =
        NetServer::start(Arc::clone(&router), ServerConfig::default()).expect("server start");
    let serve_addr = server.serve_addr();
    let admin_addr = server.admin_addr();

    let total_ops = Arc::new(AtomicU64::new(0));
    // Set by the admin thread once the roll has fully landed; client
    // threads pause at their midpoint until then, so every thread
    // provably drives traffic both before and after the upgrade (without
    // this, a fast client could finish all its ops pre-roll and the
    // `saw_new` assertion would race).
    let rolled = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Admin thread: wait until a third of the traffic has flowed, then
    // roll the ::new snapshot across the replicas over the admin port.
    let admin_total = Arc::clone(&total_ops);
    let admin_rolled = Arc::clone(&rolled);
    let admin_path = snap_path.display().to_string();
    let admin = std::thread::spawn(move || {
        while admin_total.load(Ordering::Relaxed) < PUBLISH_AT_TOTAL_OPS {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut client =
            NetClient::connect_timeout(admin_addr, Duration::from_secs(30)).expect("admin connect");
        let summary = client
            .rolling_publish(&admin_path, false)
            .expect("rolling publish over the wire");
        assert!(!summary.aborted, "healthy roll must not abort");
        assert_eq!(summary.failed, 0, "healthy roll must not fail replicas");
        assert_eq!(
            summary.upgraded, REPLICAS as u64,
            "roll must upgrade every replica"
        );
        admin_rolled.store(true, Ordering::Release);
    });

    let reports: Vec<ThreadReport> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread in 0..CLIENT_THREADS {
            let total_ops = Arc::clone(&total_ops);
            let rolled = Arc::clone(&rolled);
            handles.push(scope.spawn(move || {
                let mut client = NetClient::connect_timeout(serve_addr, Duration::from_secs(30))
                    .expect("client connect");
                let mut report = ThreadReport::default();
                // Last tag seen per user: generations may only move
                // old → new, never back (no torn reads across the roll).
                let mut last_tag: HashMap<u64, &'static str> = HashMap::new();
                let seeds = ["alpha", "beta", "gamma"];

                let note = |user: u64,
                            queries: &[String],
                            report: &mut ThreadReport,
                            last_tag: &mut HashMap<u64, &'static str>| {
                    if let Some(tag) = classify(queries) {
                        if tag == "new" {
                            report.saw_new = true;
                        }
                        if let Some(prev) = last_tag.insert(user, tag) {
                            assert!(
                                !(prev == "new" && tag == "old"),
                                "user {user} regressed from ::new back to ::old"
                            );
                        }
                    }
                };

                for op in 0..OPS_PER_THREAD {
                    if op == OPS_PER_THREAD / 2 {
                        while !rolled.load(Ordering::Acquire) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    let user = (thread as u64) * 1_000 + (op as u64 % USERS_PER_THREAD);
                    let now = (op as u64) * 2;
                    let seed = seeds[op % seeds.len()];
                    report.sent += 1;
                    match op % 8 {
                        // Mostly: track + suggest in one round trip.
                        0..=4 => {
                            match client
                                .track_and_suggest(user, seed, 3, now)
                                .expect("track_and_suggest")
                            {
                                ServeAnswer::Suggestions(s) => {
                                    report.answered += 1;
                                    let qs: Vec<String> =
                                        s.into_iter().map(|x| x.query.to_string()).collect();
                                    note(user, &qs, &mut report, &mut last_tag);
                                }
                                ServeAnswer::Overloaded { .. } => report.shed += 1,
                            }
                        }
                        // Plain suggest against the tracked context.
                        5 => match client.suggest(user, 3, now).expect("suggest") {
                            ServeAnswer::Suggestions(s) => {
                                report.answered += 1;
                                let qs: Vec<String> =
                                    s.into_iter().map(|x| x.query.to_string()).collect();
                                note(user, &qs, &mut report, &mut last_tag);
                            }
                            ServeAnswer::Overloaded { .. } => report.shed += 1,
                        },
                        // Batch across this thread's users.
                        6 => {
                            let entries: Vec<BatchEntry> = (0..4)
                                .map(|i| BatchEntry {
                                    user: (thread as u64) * 1_000
                                        + ((op as u64 + i) % USERS_PER_THREAD),
                                    k: 3,
                                })
                                .collect();
                            match client.suggest_batch(&entries, now).expect("suggest_batch") {
                                BatchAnswer::Lists(lists) => {
                                    report.answered += 1;
                                    for (entry, list) in entries.iter().zip(&lists) {
                                        let qs: Vec<String> =
                                            list.iter().map(|x| x.query.to_string()).collect();
                                        note(entry.user, &qs, &mut report, &mut last_tag);
                                    }
                                }
                                BatchAnswer::Overloaded { .. } => report.shed += 1,
                            }
                        }
                        // Stats probe — exercises the ops path under load.
                        _ => {
                            client.stats().expect("stats");
                            report.answered += 1;
                        }
                    }
                    total_ops.fetch_add(1, Ordering::Relaxed);
                }
                report
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    admin.join().unwrap();

    // Accounting: every request got exactly one reply — answered or a
    // typed shed — across every keep-alive connection.
    for (i, report) in reports.iter().enumerate() {
        assert_eq!(
            report.answered + report.shed,
            report.sent,
            "thread {i}: answered + shed must equal sent"
        );
        assert_eq!(report.sent, OPS_PER_THREAD as u64);
        assert!(
            report.saw_new,
            "thread {i}: post-roll traffic never observed the ::new model"
        );
    }

    // The roll fully propagated: wire-level stats report generation 1.
    let mut check = NetClient::connect_timeout(serve_addr, Duration::from_secs(30)).unwrap();
    let wire_stats = check.stats().expect("final stats");
    assert_eq!(
        wire_stats.generation, 1,
        "all replicas must be on the published generation"
    );
    drop(check);

    // Clean drain: the server's own ledger balances (one reply written
    // per frame read; the final stats probe counts too), and no handler
    // panicked along the way.
    let stats = server.stats();
    assert_eq!(
        stats.handler_panics, 0,
        "no handler may panic during the soak"
    );
    assert_eq!(
        stats.replies_out, stats.frames_in,
        "server must reply to every frame it read (clean drain)"
    );
    assert_eq!(stats.protocol_errors, 0, "well-formed traffic only");
    server.shutdown();

    let _ = std::fs::remove_file(&snap_path);
}
