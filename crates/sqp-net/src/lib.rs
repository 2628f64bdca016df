//! # sqp-net — hermetic TCP serving front-end
//!
//! Puts a real network edge on the serving stack: either tier that takes
//! models through `sqp-store`'s [`Publish`] — a single
//! [`ServeEngine`](sqp_serve::ServeEngine) or a replicated
//! [`RouterEngine`](sqp_router::RouterEngine) — becomes a TCP server
//! speaking a compact length-prefixed binary protocol ([`wire`], spec in
//! `WIRE.md`). Entirely `std` (no external crates), like the rest of the
//! workspace.
//!
//! * [`NetServer`] — accept loops on a public serve port and a separate
//!   admin port, and one thread per keep-alive connection that reads,
//!   executes and answers that connection's frames in order. The
//!   engine's admission budget load-sheds with a typed `R_OVERLOADED`
//!   reply; the admin port's `PUBLISH` and `ROLLING_PUBLISH` load a
//!   snapshot file and publish it through the tier's [`Publish`] impl.
//! * [`NetClient`] — a blocking keep-alive client reusing its buffers
//!   across requests.
//! * [`RemoteEngine`] — a resilient [`ServeSurface`](sqp_serve::ServeSurface)
//!   over one or more remote endpoints, placing users on the router's
//!   consistent-hash ring: deadlines, idempotent-only retries with
//!   backoff, per-endpoint circuit breakers, failover along the ring, and
//!   typed degradation ([`remote`]).
//!
//! [`Publish`]: sqp_store::Publish
//!
//! # Examples
//!
//! Serve an engine over TCP and talk to it:
//!
//! ```
//! use std::sync::Arc;
//! use sqp_logsim::RawLogRecord;
//! use sqp_net::{NetClient, NetServer, ServeAnswer, ServerConfig};
//! use sqp_serve::{EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, TrainingConfig};
//!
//! let rec = |machine, ts, q: &str| RawLogRecord {
//!     machine_id: machine, timestamp: ts, query: q.into(), clicks: vec![],
//! };
//! let mut logs = Vec::new();
//! for u in 0..10 {
//!     logs.push(rec(u, 100, "weather"));
//!     logs.push(rec(u, 130, "weather tomorrow"));
//! }
//! let cfg = TrainingConfig { model: ModelSpec::Adjacency, ..TrainingConfig::default() };
//! let engine = Arc::new(ServeEngine::new(
//!     Arc::new(ModelSnapshot::from_raw_logs(&logs, &cfg)),
//!     EngineConfig::default(),
//! ));
//!
//! let server = NetServer::start(engine, ServerConfig::default()).unwrap();
//! let mut client = NetClient::connect(server.serve_addr()).unwrap();
//! match client.track_and_suggest(7, "weather", 1, 1_000).unwrap() {
//!     ServeAnswer::Suggestions(s) => assert_eq!(s[0].query, "weather tomorrow"),
//!     ServeAnswer::Overloaded { .. } => unreachable!("no admission limit set"),
//! }
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod frame;
pub mod remote;
pub mod server;
pub mod wire;

pub use client::{BatchAnswer, NetClient, NetError, ServeAnswer, TrackAck};
pub use remote::{
    DegradedReason, EndpointConfig, EndpointSetError, EndpointStats, RemoteConfig, RemoteEngine,
    RemoteOutcome, RemoteStats, StatsRecord,
};
pub use server::{NetServer, NetServerStats, ServerConfig};
pub use wire::{BatchEntry, Reply, Request, RollSummary, WireError, WireStats};
