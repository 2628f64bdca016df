//! `tier_batch`: 2 threads → `RemoteEngine` (1 endpoint) → `NetServer` →
//! `RouterEngine` (4 replicas), mostly 256-entry read-only batches.
//!
//! The full deployed chain, and `sqp-net` used the other way round from
//! `wire_single`: ≈3 KB requests and ≈30 KB replies, so bytes, codec,
//! rendering and the router's scatter/gather dominate and per-message cost
//! is amortised. It catches a `wire_single` win that is paid for by large
//! frames, and it is the only place `sqp-router` and `remote` appear.

use super::{measure, Measured};
use crate::fixture::{report_setup, set_up, Corpus, Model, Opts};
use crate::metrics::Report;
use crate::oracle::{Reply, Sut};
use crate::rounds::reset_sessions;
use crate::script::{self, Op, OpKind, Script, ScriptConfig, ThreadScript, K};
use crate::trace::Replay;
use sqp_net::wire::{self, BatchEntry, LEN_PREFIX};
use sqp_net::{
    BatchAnswer, EndpointConfig, NetClient, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome,
    ServerConfig,
};
use sqp_router::{RouterConfig, RouterEngine};
use std::sync::Arc;
use std::time::Duration;

fn outcome<T>(outcome: RemoteOutcome<T>, ok: impl FnOnce(T) -> Reply) -> Reply {
    match outcome {
        RemoteOutcome::Answered(value) => ok(value),
        RemoteOutcome::Shed { limit } => Reply::Failed(format!("shed (limit {limit})")),
        RemoteOutcome::Degraded(reason) => Reply::Failed(format!("degraded: {reason}")),
    }
}

struct TierSut {
    remote: Arc<RemoteEngine>,
    /// One layer down: a raw connection to the same server, used only by
    /// the oracle round's replays and idle otherwise.
    direct: NetClient,
    /// Two layers down: the router behind the server.
    router: Arc<RouterEngine>,
    entries: Vec<BatchEntry>,
    request: Vec<u8>,
    reply: Vec<u8>,
    reply_bytes: u64,
    ops: u64,
    replay_failures: Vec<String>,
}

impl Sut for TierSut {
    #[inline]
    fn exec(&mut self, op: &Op, script: &Script, thread: &ThreadScript, base: u64) -> Reply {
        let now = base + u64::from(op.at);
        match op.kind {
            OpKind::Batch => outcome(
                self.remote
                    .remote_suggest_batch(&thread.batches[op.batch as usize], now),
                Reply::Batch,
            ),
            OpKind::TrackSuggest => outcome(
                self.remote.remote_track_and_suggest(
                    op.user,
                    &script.queries[op.query as usize],
                    K,
                    now,
                ),
                Reply::Suggestions,
            ),
            other => Reply::Failed(format!("{other:?} is not in the tier_batch mix")),
        }
    }

    /// The root span, the reply frame's size and, for a batch, the same
    /// batch one layer down each time: the raw client, the in-process
    /// router, and the codec alone (the single engine's share is the
    /// reference's call). The replays run right after the op, beside the
    /// other client's traffic like the real call. Batches are read-only
    /// and the users are this client's own, so a replay changes no state
    /// and the raw client must answer what the remote one did.
    fn observe(&mut self, replay: &mut Replay<'_>) {
        self.reply.clear();
        let root = match replay.reply {
            Reply::Batch(lists) => {
                wire::encode_batch(&mut self.reply, lists);
                "remote.batch"
            }
            Reply::Suggestions(list) => {
                wire::encode_suggestions(&mut self.reply, list);
                "remote.track_suggest"
            }
            _ => return,
        };
        self.reply_bytes += (LEN_PREFIX + self.reply.len()) as u64;
        self.ops += 1;
        replay.span(root, None, replay.root);
        let Reply::Batch(answered) = replay.reply else {
            return;
        };

        let now = replay.now();
        let requests = &replay.thread.batches[replay.op.batch as usize];
        self.entries.clear();
        self.entries.extend(requests.iter().map(|r| BatchEntry {
            user: r.user,
            k: r.k,
        }));
        let direct = replay.timed("net.batch_direct", "remote.batch", || {
            self.direct.suggest_batch(&self.entries, now)
        });
        let same = match direct {
            Ok(BatchAnswer::Lists(lists)) => Reply::Batch(lists).hash() == replay.reply.hash(),
            _ => false,
        };
        if !same {
            self.replay_failures.push(format!(
                "request {}: the raw client did not answer what the remote one did",
                replay.req
            ));
        }
        let routed = replay.timed("router.batch", "net.batch_direct", || {
            self.router.suggest_batch(requests, now)
        });
        std::hint::black_box(routed);
        let (request, reply) = (&mut self.request, &mut self.reply);
        replay.timed("net.codec_batch", "net.batch_direct", || {
            request.clear();
            wire::encode_suggest_batch(request, &self.entries, now);
            if let Ok(wire::Request::SuggestBatch { entries, .. }) = wire::decode_request(request) {
                std::hint::black_box(entries.iter().count());
            }
            reply.clear();
            wire::encode_batch(reply, answered);
            if let Ok(wire::Reply::Batch(decoded)) = wire::decode_reply(reply) {
                std::hint::black_box(decoded.iter().map(|l| l.iter().count()).sum::<usize>());
            }
        });
    }

    fn reference_span(kind: OpKind) -> Option<(&'static str, &'static str)> {
        (kind == OpKind::Batch).then_some(("serve.batch", "router.batch"))
    }
}

struct Tier {
    router: Arc<RouterEngine>,
    server: NetServer,
    remote: Arc<RemoteEngine>,
}

fn build(model: &Model, clients: usize) -> Tier {
    let router = Arc::new(RouterEngine::new(
        Arc::clone(&model.loaded),
        RouterConfig::default(),
    ));
    let server = NetServer::start(Arc::clone(&router), ServerConfig::default())
        .expect("loopback listeners bind");
    // Nothing fails in this workload, so the deadlines only have to be out
    // of the way of a descheduled thread on a shared box: a retry would
    // make the run's answers depend on the scheduler.
    let remote = Arc::new(RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr())],
        RemoteConfig {
            deadline: Duration::from_secs(30),
            attempt_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(10),
            pool_warmup: clients,
            pool_cap: clients,
            ..RemoteConfig::default()
        },
    ));
    Tier {
        router,
        server,
        remote,
    }
}

fn teardown(tier: Tier) {
    tier.remote.drain_pools();
    tier.server.shutdown();
}

pub fn run(corpus: &Corpus, opts: &Opts) -> Report {
    let mut report = Report::new("tier_batch");
    let script = script::generate(
        &ScriptConfig {
            seed: opts.seed,
            threads: opts.clients(),
            users_per_thread: opts.scale.users / opts.clients(),
            groups: opts.scale.tier_groups,
            mix: script::TIER_BATCH,
        },
        &corpus.held_out,
    );
    let (tier, model, times) = set_up(
        corpus,
        opts,
        "tier_batch",
        |model| build(model, opts.clients()),
        |tier| {
            reset_sessions(tier.router.as_ref(), &script, 0);
        },
        teardown,
    );
    report_setup(&mut report, &times, true, opts.trace);

    let mut suts: Vec<TierSut> = script
        .threads
        .iter()
        .map(|_| TierSut {
            remote: Arc::clone(&tier.remote),
            direct: NetClient::connect(tier.server.serve_addr()).expect("loopback connect"),
            router: Arc::clone(&tier.router),
            entries: Vec::new(),
            request: Vec::new(),
            reply: Vec::new(),
            reply_bytes: 0,
            ops: 0,
            replay_failures: Vec::new(),
        })
        .collect();
    // Suggestions each replica computed during the counted round: a fixed
    // script, so the skew repeats exactly.
    let replica_suggests = || -> Vec<u64> {
        let stats = tier.router.stats();
        stats.replicas.iter().map(|r| r.stats.suggests).collect()
    };
    let mut suggests = Vec::new();
    let measured: Measured = measure(
        &mut report,
        opts,
        &script,
        tier.router.as_ref(),
        &mut suts,
        &model.trained,
        |starting| {
            let now = replica_suggests();
            if starting {
                suggests = now;
            } else {
                suggests.iter_mut().zip(now).for_each(|(s, n)| *s = n - *s);
            }
        },
    );
    for sut in &suts {
        report.count_failures(
            sut.replay_failures.len() as u64,
            sut.replay_failures.first().cloned(),
        );
    }

    if let Some(traced) = &measured.traced {
        let us = |ns: f64| ns / 1_000.0;
        report.layer("remote.batch_us", measured.kind_us(OpKind::Batch));
        report.layer(
            "remote.track_suggest_us",
            measured.kind_us(OpKind::TrackSuggest),
        );
        report.layer("remote.p99_us", measured.p99_us);
        report.layer(
            "net.batch_direct_us",
            us(traced.spans.duration_ns("net.batch_direct")),
        );
        report.layer(
            "router.batch_us",
            us(traced.spans.duration_ns("router.batch")),
        );
        report.layer(
            "serve.batch_us",
            us(traced.spans.duration_ns("serve.batch")),
        );
        report.layer(
            "net.codec_batch_us",
            us(traced.spans.duration_ns("net.codec_batch")),
        );
        report.layer(
            "remote.overhead_us",
            us(traced.spans.self_ns("remote.batch")),
        );
        report.layer(
            "router.overhead_us",
            us(traced.spans.self_ns("router.batch")),
        );
        report.layer(
            "net.transport_self_us",
            us(traced.spans.self_ns("net.batch_direct")),
        );
        report.layer("net.allocs_per_op", traced.counters.allocs_per_op);
        let ops: u64 = suts.iter().map(|s| s.ops).sum::<u64>().max(1);
        let reply_bytes: u64 = suts.iter().map(|s| s.reply_bytes).sum();
        report.layer("net.reply_bytes_per_op", reply_bytes as f64 / ops as f64);

        let most = suggests.iter().copied().max().unwrap_or(0);
        let least = suggests.iter().copied().min().unwrap_or(0);
        report.layer("router.replica_skew", most as f64 / least.max(1) as f64);
        let remote = tier.remote.remote_stats();
        report.layer("remote.retries", remote.retries as f64);
        report.layer("remote.failovers", remote.failovers as f64);
        report.layer("remote.degraded", remote.degraded as f64);
        if remote.retries + remote.failovers + remote.degraded != 0 {
            report.count_failures(
                1,
                Some(format!(
                    "the remote client retried {}, failed over {}, degraded {} times",
                    remote.retries, remote.failovers, remote.degraded
                )),
            );
        }
    }
    drop(suts);
    teardown(tier);
    report
}
