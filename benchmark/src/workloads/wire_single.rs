//! `wire_single`: 2 `NetClient` keep-alive connections → `NetServer`
//! (default `ServerConfig`) → `ServeEngine`, one small frame per op.
//!
//! Per-message cost dominates: the engine call is a few percent of a
//! round trip, the rest is syscalls, the reader→worker handoff and the
//! client's reply decoding. This is the workload ROADMAP item 2 (the wire
//! gap) is judged on; an engine-only change should barely move it.

use super::{measure, Measured};
use crate::fixture::{report_setup, set_up, Corpus, Opts};
use crate::metrics::Report;
use crate::oracle::{Reply, Sut};
use crate::rounds::reset_sessions;
use crate::script::{self, Op, OpKind, Script, ScriptConfig, ThreadScript, K};
use crate::trace::Replay;
use sqp_net::wire::{self, LEN_PREFIX};
use sqp_net::{NetClient, NetError, NetServer, NetServerStats, ServeAnswer, ServerConfig};
use sqp_serve::{EngineConfig, ServeEngine};
use std::sync::Arc;
use std::time::Instant;

pub fn answer(result: Result<ServeAnswer, NetError>) -> Reply {
    match result {
        Ok(ServeAnswer::Suggestions(list)) => Reply::Suggestions(list),
        Ok(ServeAnswer::Overloaded { limit }) => Reply::Failed(format!("shed (limit {limit})")),
        Err(e) => Reply::Failed(e.to_string()),
    }
}

struct WireSut {
    client: NetClient,
    /// Scratch for the codec replay and the byte tallies.
    request: Vec<u8>,
    reply: Vec<u8>,
    request_bytes: u64,
    reply_bytes: u64,
    ops: u64,
}

impl WireSut {
    fn new(client: NetClient) -> Self {
        Self {
            client,
            request: Vec::new(),
            reply: Vec::new(),
            request_bytes: 0,
            reply_bytes: 0,
            ops: 0,
        }
    }
}

const ROOT: [&str; script::OP_KINDS] = [
    "net.track_suggest",
    "net.suggest",
    "net.track",
    "net.suggest_batch",
    "net.ping",
    "net.publish",
];

impl Sut for WireSut {
    #[inline]
    fn exec(&mut self, op: &Op, script: &Script, _thread: &ThreadScript, base: u64) -> Reply {
        let now = base + u64::from(op.at);
        match op.kind {
            OpKind::TrackSuggest => answer(self.client.track_and_suggest(
                op.user,
                &script.queries[op.query as usize],
                K,
                now,
            )),
            OpKind::Suggest => answer(self.client.suggest(op.user, K, now)),
            OpKind::Ping => match self.client.ping() {
                Ok(()) => Reply::Done,
                Err(e) => Reply::Failed(e.to_string()),
            },
            other => Reply::Failed(format!("{other:?} is not in the wire_single mix")),
        }
    }

    /// The frames' sizes, re-encoded from the same payloads, and for a
    /// `TRACK_SUGGEST` the codec replayed in both directions. The engine's
    /// share is the reference's call on the same op.
    fn observe(&mut self, replay: &mut Replay<'_>) {
        let (op, now) = (replay.op, replay.now());
        let query = replay.script.queries[op.query as usize].as_str();
        let root = ROOT[op.kind.index()];
        replay.span(root, None, replay.root);
        let (request, reply) = (&mut self.request, &mut self.reply);
        request.clear();
        reply.clear();
        let started = Instant::now();
        match (op.kind, replay.reply) {
            (OpKind::TrackSuggest, Reply::Suggestions(list)) => {
                wire::encode_track_suggest(request, op.user, query, K, now);
                std::hint::black_box(wire::decode_request(request).is_ok());
                wire::encode_suggestions(reply, list);
                std::hint::black_box(wire::decode_reply(reply).is_ok());
            }
            (OpKind::Suggest, Reply::Suggestions(list)) => {
                wire::encode_suggest(request, op.user, K, now);
                wire::encode_suggestions(reply, list);
            }
            (OpKind::Ping, Reply::Done) => {
                wire::encode_ping(request);
                wire::encode_pong(reply);
            }
            _ => return,
        }
        let ended = Instant::now();
        self.request_bytes += (LEN_PREFIX + request.len()) as u64;
        self.reply_bytes += (LEN_PREFIX + reply.len()) as u64;
        self.ops += 1;
        if op.kind == OpKind::TrackSuggest {
            replay.span("net.codec", Some(root), (started, ended));
        }
    }

    fn reference_span(kind: OpKind) -> Option<(&'static str, &'static str)> {
        (kind == OpKind::TrackSuggest).then_some(("net.engine", ROOT[kind.index()]))
    }
}

struct Wire {
    engine: Arc<ServeEngine>,
    server: NetServer,
    clients: Vec<NetClient>,
}

pub fn run(corpus: &Corpus, opts: &Opts) -> Report {
    let mut report = Report::new("wire_single");
    let script = script::generate(
        &ScriptConfig {
            seed: opts.seed,
            threads: opts.clients(),
            users_per_thread: opts.scale.users / opts.clients(),
            groups: opts.scale.wire_groups,
            mix: script::WIRE_SINGLE,
        },
        &corpus.held_out,
    );
    let (mut tier, model, times) = set_up(
        corpus,
        opts,
        "wire_single",
        |model| {
            let engine = Arc::new(ServeEngine::new(
                Arc::clone(&model.loaded),
                EngineConfig::default(),
            ));
            let server = NetServer::start(Arc::clone(&engine), ServerConfig::default())
                .expect("loopback listeners bind");
            let clients = script
                .threads
                .iter()
                .map(|_| NetClient::connect(server.serve_addr()).expect("loopback connect"))
                .collect();
            Wire {
                engine,
                server,
                clients,
            }
        },
        |tier| {
            reset_sessions(tier.engine.as_ref(), &script, 0);
        },
        |tier| {
            drop(tier.clients);
            tier.server.shutdown();
        },
    );
    report_setup(&mut report, &times, true, opts.trace);

    let mut suts: Vec<WireSut> = tier.clients.drain(..).map(WireSut::new).collect();
    // The server's own counters over the counted round: a fixed number of
    // frames, so the deltas repeat exactly.
    let mut server_before = NetServerStats::default();
    let mut server_after = NetServerStats::default();
    let measured: Measured = measure(
        &mut report,
        opts,
        &script,
        tier.engine.as_ref(),
        &mut suts,
        &model.trained,
        |starting| {
            let now = tier.server.stats();
            if starting {
                server_before = now;
            } else {
                server_after = now;
            }
        },
    );

    if let Some(traced) = &measured.traced {
        report.layer(
            "net.track_suggest_us",
            measured.kind_us(OpKind::TrackSuggest),
        );
        report.layer("net.suggest_us", measured.kind_us(OpKind::Suggest));
        report.layer("net.ping_us", measured.kind_us(OpKind::Ping));
        report.layer("net.p99_us", measured.p99_us);
        report.layer("net.codec_ns", traced.spans.duration_ns("net.codec"));
        report.layer("net.engine_ns", traced.spans.duration_ns("net.engine"));
        report.layer(
            "net.transport_self_us",
            traced.spans.self_ns("net.track_suggest") / 1_000.0,
        );
        report.layer(
            "net.vol_ctx_switches_per_op",
            traced.counters.vol_ctx_switches_per_op,
        );
        report.layer("net.allocs_per_op", traced.counters.allocs_per_op);
        let ops: u64 = suts.iter().map(|s| s.ops).sum::<u64>().max(1);
        let total = |f: fn(&WireSut) -> u64| suts.iter().map(f).sum::<u64>() as f64;
        report.layer(
            "net.req_bytes_per_op",
            total(|s| s.request_bytes) / ops as f64,
        );
        report.layer(
            "net.reply_bytes_per_op",
            total(|s| s.reply_bytes) / ops as f64,
        );
        let delta = |f: fn(&NetServerStats) -> u64| f(&server_after) - f(&server_before);
        let (frames_in, replies_out) = (delta(|s| s.frames_in), delta(|s| s.replies_out));
        report.layer("net.frames_in", frames_in as f64);
        report.layer("net.replies_out", replies_out as f64);
        report.layer("net.queue_shed", delta(|s| s.queue_shed) as f64);
        report.layer("net.engine_shed", delta(|s| s.engine_shed) as f64);
        report.layer("net.protocol_errors", delta(|s| s.protocol_errors) as f64);
        if frames_in != replies_out {
            report.count_failures(
                1,
                Some(format!(
                    "server read {frames_in} frames but wrote {replies_out} replies"
                )),
            );
        }
    }
    drop(suts);
    tier.server.shutdown();
    report
}
