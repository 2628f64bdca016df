//! The `remote-soak` acceptance suite for the cross-process resilient tier.
//!
//! A `RemoteEngine` fronts **two real `NetServer` processes-in-miniature**,
//! each reachable only through a [`ChaosProxy`], while multi-threaded
//! worker traffic runs through five phases: healthy → one endpoint
//! black-holed (breaker trips, traffic fails over) → revived (half-open
//! probe closes the breaker) → **both** endpoints black-holed (typed
//! degradation: breaker fast-fails, and half-open probes that time out)
//! → revived (full recovery). The suite proves the
//! three resilience contracts of the remote tier:
//!
//! * **Total accounting** — every operation a worker sends resolves as
//!   answered, typed-shed, or typed-degraded: `answered + shed + degraded
//!   == sent`, per worker, per phase. Nothing hangs, nothing panics,
//!   nothing is silently lost.
//! * **Bounded latency** — no operation outlives its deadline by more than
//!   scheduling slack, even with every endpoint black-holed (the outcome a
//!   deadline-free client cannot offer: it would hang forever).
//! * **Replayability** — the healthy-phase answer content and the
//!   per-phase traffic accounting fold into a digest that is bit-identical
//!   across two full scenario runs from the same seed, and differs across
//!   seeds.
//!
//! A separate test pins the typed-shed path end to end: an engine whose
//! admission budget is exhausted sheds over the wire, and the
//! `RemoteEngine` surfaces it as [`RemoteOutcome::Shed`] /
//! [`Overloaded`](sqp_serve::Overloaded) — never as a degraded or empty
//! answer.

use sqp_common::breaker::{BreakerConfig, BreakerState};
use sqp_common::hash::FNV_OFFSET_BASIS;
use sqp_common::rng::{Rng, StdRng};
use sqp_faults::{Chaos, ChaosProxy, FaultPlan};
use sqp_net::{EndpointConfig, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome, ServerConfig};
use sqp_serve::{EngineConfig, ServeEngine, ServeSurface, Suggestion};
use sqp_soak::build_parts;
use sqp_soak::runner::{drive, fold_u64, no_check, Op, Outcome, Scenario, Stop, Tally};
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 4;
const OPS_PER_PHASE: u64 = 24;
const USERS_PER_WORKER: u64 = 24;
const SUGGEST_K: usize = 3;
/// No operation may take longer than this, in any phase. The deadline is
/// 1s; the bound leaves room for one attempt granted just before expiry
/// plus scheduling slack — versus the unbounded hang a black-holed
/// endpoint inflicts on a deadline-free client.
const HANG_BOUND_MS: u64 = 4_000;

/// The executor over the remote tier's own outcome type: the
/// `ServeSurface` forms report a degraded answer as empty lists, and this
/// soak must count degradation per worker.
fn remote_exec(remote: &RemoteEngine) -> impl Fn(&Op, u64) -> Option<Outcome> + Sync + '_ {
    fn resolve<T>(
        outcome: RemoteOutcome<T>,
        lists: impl FnOnce(T) -> Vec<Vec<Suggestion>>,
    ) -> Outcome {
        match outcome {
            RemoteOutcome::Answered(answer) => Outcome::Lists(lists(answer)),
            RemoteOutcome::Shed { .. } => Outcome::Shed,
            RemoteOutcome::Degraded(_) => Outcome::Degraded,
        }
    }
    move |op, now| {
        Some(match op {
            Op::Suggest(user, k) => resolve(remote.remote_suggest(*user, *k, now), |l| vec![l]),
            Op::TrackAndSuggest(user, query, k) => resolve(
                remote.remote_track_and_suggest(*user, query, *k, now),
                |l| vec![l],
            ),
            Op::Batch(requests) => resolve(remote.remote_suggest_batch(requests, now), |l| l),
            Op::Track(..) | Op::Evict => return None,
        })
    }
}

/// Drive one phase of seeded mixed traffic: `WORKERS` threads, each with
/// its own user population and rng stream, mixing tracked suggests (never
/// re-sent), stateless suggests, and batched suggests (both retried).
/// Every op resolves answered, shed or degraded (the runner asserts it per
/// worker), and none outlives its deadline.
fn drive_phase(remote: &RemoteEngine, vocabulary: &[String], seed: u64, phase: u64) -> Vec<Tally> {
    let scenario = Scenario {
        seed,
        phase,
        // Phases are spaced past the session-gap rule, so every phase
        // starts fresh sessions; within a phase the logical clock keeps
        // sessions alive.
        clock: &|i| phase * 10_000 + i * 2,
        mix: &|ctx, _, rng| {
            let user = |rng: &mut StdRng| ctx.user(rng.random_range(0u64..USERS_PER_WORKER));
            if ctx.i % 8 == 7 {
                Op::batch((0..4).map(|_| user(rng)), SUGGEST_K)
            } else if ctx.i.is_multiple_of(3) {
                Op::Suggest(user(rng), SUGGEST_K)
            } else {
                let user = user(rng);
                let query = vocabulary[rng.random_range(0usize..vocabulary.len())].clone();
                Op::TrackAndSuggest(user, query, SUGGEST_K)
            }
        },
        observe: &no_check,
        stop: Stop::After(OPS_PER_PHASE),
    };
    let (tallies, ()) = drive(&scenario, &remote_exec(remote), &mut [(); WORKERS], |_| ());
    for (w, t) in tallies.iter().enumerate() {
        assert!(
            t.worst <= Duration::from_millis(HANG_BOUND_MS),
            "phase {phase}, worker {w}: operation outlived its deadline ({t:?})"
        );
    }
    tallies
}

fn assert_all_answered(tallies: &[Tally], why: &str) {
    let total = Tally::merge(tallies);
    assert_eq!(total.answered, total.sent, "{why}: {tallies:?}");
}

/// Ping until endpoint `idx`'s breaker reaches `want` (pings alternate
/// their home endpoint, so both breakers see attempts and, once a cooldown
/// elapses, half-open probes).
fn await_breaker(remote: &RemoteEngine, idx: usize, want: BreakerState) {
    for _ in 0..400 {
        if remote.endpoint_breaker(idx).state == want {
            return;
        }
        let _ = remote.remote_ping();
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!(
        "endpoint {idx} breaker never reached {want:?}: {:?}",
        remote.endpoint_breaker(idx)
    );
}

/// One full five-phase chaos scenario, built from scratch: fresh corpus,
/// fresh servers, fresh proxies, fresh remote tier. Every resilience
/// assertion lives in here; the caller compares the returned replay
/// digests across runs.
fn run_scenario(seed: u64) -> u64 {
    let (snapshot, vocabulary, _records) = build_parts(400, seed);

    // Two real server processes-in-miniature over the same snapshot.
    let servers: Vec<NetServer> = (0..2)
        .map(|_| {
            NetServer::start(
                Arc::new(ServeEngine::new(snapshot.clone(), EngineConfig::default())),
                ServerConfig::default(),
            )
            .expect("server start")
        })
        .collect();

    // Each server is reachable only through its chaos proxy.
    let proxies: Vec<ChaosProxy> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            ChaosProxy::start(
                s.serve_addr(),
                Chaos::new(FaultPlan::quiet(seed ^ i as u64)),
            )
            .expect("proxy start")
        })
        .collect();

    let remote = RemoteEngine::connect(
        proxies
            .iter()
            .map(|p| EndpointConfig::serve_only(p.listen_addr()))
            .collect(),
        RemoteConfig {
            deadline: Duration::from_secs(1),
            attempt_timeout: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(250),
            max_attempts: 3,
            backoff_initial: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(40),
            breaker: BreakerConfig {
                threshold: 1,
                cooldown: Duration::from_millis(200),
            },
            seed,
            ..RemoteConfig::default()
        },
    );
    let victim = 0usize;

    // Phase A — healthy: every operation answered, content recorded for
    // the replay digest.
    let phase_a = drive_phase(&remote, &vocabulary, seed, 0);
    assert_all_answered(&phase_a, "healthy phase must answer everything");

    // Phase B — black-hole the victim: its breaker trips, traffic fails
    // over to the healthy endpoint. (Probe admissions into the black hole
    // may degrade individual operations; the accounting still balances.)
    proxies[victim].set_blackhole(true);
    proxies[victim].kill_connections();
    remote.drain_pools();
    await_breaker(&remote, victim, BreakerState::Open);
    let phase_b = drive_phase(&remote, &vocabulary, seed, 1);
    assert!(
        Tally::merge(&phase_b).answered > 0,
        "failover must keep answering: {phase_b:?}"
    );
    assert!(
        remote.endpoint_breaker(victim).trips >= 1,
        "victim breaker must have tripped"
    );

    // Phase C — revive the victim: cooldown elapses, a half-open probe
    // succeeds, the breaker closes again. Open → Closed is the
    // transition the issue demands be *observed*, not assumed.
    proxies[victim].set_blackhole(false);
    proxies[victim].kill_connections();
    remote.drain_pools();
    await_breaker(&remote, victim, BreakerState::Closed);
    assert!(
        remote.endpoint_breaker(victim).recoveries >= 1,
        "half-open probe must have closed the victim's breaker"
    );
    let phase_c = drive_phase(&remote, &vocabulary, seed, 2);
    assert_all_answered(&phase_c, "revived tier must answer everything");

    // Phase D — black-hole BOTH endpoints: nothing can answer, so every
    // operation degrades typed. About three in four (72 of 96 per run)
    // fast-fail `AllBreakersOpen` without touching a socket. The rest are
    // admitted as half-open probes into the black hole — the 200 ms
    // cooldown is shorter than one 250 ms attempt, so a breaker is due a
    // probe again by the time the last one timed out — and end
    // `DeadlineExhausted` or `NotRetryable`. Those probes are ≈ 11.8 s of
    // a run's ≈ 13.4 s on a 2-core x86-64 host.
    for p in &proxies {
        p.set_blackhole(true);
        p.kill_connections();
    }
    remote.drain_pools();
    await_breaker(&remote, 0, BreakerState::Open);
    await_breaker(&remote, 1, BreakerState::Open);
    let phase_d = drive_phase(&remote, &vocabulary, seed, 3);
    for (w, t) in phase_d.iter().enumerate() {
        assert_eq!(t.answered, 0, "worker {w} answered with no endpoint up");
        assert_eq!(t.shed, 0, "worker {w} shed with no endpoint up");
        assert_eq!(
            t.degraded, t.sent,
            "worker {w}: every op must degrade typed: {t:?}"
        );
    }

    // Phase E — revive both: the whole tier recovers, no operator action
    // beyond un-breaking the network.
    for p in &proxies {
        p.set_blackhole(false);
        p.kill_connections();
    }
    remote.drain_pools();
    await_breaker(&remote, 0, BreakerState::Closed);
    await_breaker(&remote, 1, BreakerState::Closed);
    let phase_e = drive_phase(&remote, &vocabulary, seed, 4);
    assert_all_answered(&phase_e, "recovered tier must answer everything");

    // Scenario-level evidence: both breakers cycled (the victim twice),
    // failover and retries actually happened, degradation was counted.
    let stats = remote.remote_stats();
    assert!(stats.failovers > 0, "no failover observed: {stats:?}");
    assert!(stats.degraded > 0, "no degradation observed: {stats:?}");
    let vb = remote.endpoint_breaker(victim);
    assert!(vb.trips >= 2 && vb.recoveries >= 2, "victim cycle: {vb:?}");
    let ob = remote.endpoint_breaker(1);
    assert!(ob.trips >= 1 && ob.recoveries >= 1, "other cycle: {ob:?}");

    // The replay digest: seed, per-phase per-worker sent counts and
    // resolution totals (all deterministic by the assertions above), plus
    // the healthy phase's answer content in full.
    let mut digest = fold_u64(FNV_OFFSET_BASIS, seed);
    for (p, tallies) in [&phase_a, &phase_b, &phase_c, &phase_d, &phase_e]
        .iter()
        .enumerate()
    {
        for t in tallies.iter() {
            digest = fold_u64(digest, t.sent);
            digest = fold_u64(digest, t.answered + t.shed + t.degraded);
            if p == 0 {
                digest = fold_u64(digest, t.content);
            }
        }
    }

    remote.drain_pools();
    for p in proxies {
        p.shutdown();
    }
    for s in servers {
        s.shutdown();
    }
    digest
}

#[test]
fn five_phase_chaos_scenario_replays_bit_identically() {
    let first = run_scenario(7);
    let second = run_scenario(7);
    assert_eq!(
        first, second,
        "same seed, fresh tier: the scenario must replay bit-identically"
    );
    let other = run_scenario(11);
    assert_ne!(
        other, first,
        "a different seed must produce different traffic"
    );
}

#[test]
fn shed_is_typed_end_to_end() {
    let (snapshot, _vocabulary, _records) = build_parts(200, 7);
    let engine = Arc::new(ServeEngine::new(
        snapshot,
        EngineConfig {
            max_in_flight: 1,
            ..EngineConfig::default()
        },
    ));
    let server = NetServer::start(engine.clone(), ServerConfig::default()).expect("server start");
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr())],
        RemoteConfig::default(),
    );

    // Hold the engine's only admission slot: every serve-path request now
    // sheds deterministically — no racing threads required.
    let permit = engine.admit().expect("first permit");
    match remote.remote_suggest(1, 3, 10) {
        RemoteOutcome::Shed { limit } => assert_eq!(limit, 1),
        other => panic!("exhausted budget must shed typed, got {other:?}"),
    }
    // Through the ServeSurface trait the shed is a typed `Overloaded`,
    // exactly like an in-process engine — not an empty answer.
    let err = remote.try_suggest(1, 3, 10).expect_err("must shed");
    assert_eq!(err.limit, 1);

    // Release the slot: the same tier answers again. A shed is
    // back-pressure, not an outage — and it never trips the breaker.
    drop(permit);
    assert!(remote.remote_suggest(1, 3, 20).is_answered());
    let stats = remote.remote_stats();
    assert!(stats.sheds >= 2, "sheds must be counted: {stats:?}");
    assert_eq!(remote.endpoint_breaker(0).trips, 0, "sheds are not faults");

    remote.drain_pools();
    server.shutdown();
}
