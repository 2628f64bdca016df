//! The session id cache can never answer from the wrong vocabulary.
//!
//! A session keeps the ids its context resolved to under one snapshot and
//! reuses them while requests keep arriving under that snapshot. The
//! hazard is a stale id: one resolved under snapshot A and handed to
//! snapshot B's model. `tests/serve_concurrency.rs` cannot see one — both
//! of its corpora intern `"seed"` as id 0 — so the two snapshots here
//! assign **different ids to every query they share**, and each knows a
//! query the other lacks. The oracle is the stateless text path:
//! `snapshot.suggest(context text)` resolves from scratch every time.

use sqp_common::hazard::Hazard;
use sqp_common::rng::{Rng, StdRng};
use sqp_common::{Interner, QueryId};
use sqp_core::{Vmm, VmmConfig};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ServeEngine, SessionTracker, SuggestRequest, Suggestion,
    TrackerConfig,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock, Weak};

const K: usize = 4;
const CUTOFF: u64 = 100;
const SHARED: [&str; 6] = [
    "maps",
    "maps paris",
    "naïve café",
    "weather",
    "日本語",
    "zoo",
];

/// A VMM over `vocabulary`, whose ids follow the slice's order, trained on
/// seeded random sessions over that vocabulary.
fn snapshot(vocabulary: &[&str], seed: u64) -> Arc<ModelSnapshot> {
    let mut interner = Interner::new();
    for query in vocabulary {
        interner.intern(query);
    }
    let ids = u32::try_from(vocabulary.len()).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions: Vec<_> = (0..80)
        .map(|_| {
            let session = (0..rng.random_range(2usize..=4))
                .map(|_| QueryId(rng.random_range(0..ids)))
                .collect();
            (session, rng.random_range(1u64..=5))
        })
        .collect();
    let model = Vmm::train(&sessions, VmmConfig::with_epsilon(0.05));
    Arc::new(ModelSnapshot::from_parts(interner, Box::new(model), 80))
}

/// Snapshot A interns the shared queries in `SHARED`'s order, snapshot B
/// in reverse — an even count, so no shared query keeps its id across the
/// two — and each appends a query of its own.
fn snapshots() -> [Arc<ModelSnapshot>; 2] {
    let a: Vec<&str> = SHARED.iter().copied().chain(["only in a"]).collect();
    let b: Vec<&str> = SHARED.iter().rev().copied().chain(["only in b"]).collect();
    let [a, b] = [snapshot(&a, 1), snapshot(&b, 2)];
    for query in SHARED {
        assert_ne!(a.interner().get(query), b.interner().get(query), "{query}");
    }
    assert!(a.interner().get("only in b").is_none() && b.interner().get("only in a").is_none());
    [a, b]
}

fn engine(snapshot: Arc<ModelSnapshot>, hazard: Arc<dyn Hazard>) -> Arc<ServeEngine> {
    Arc::new(ServeEngine::with_hazard(
        snapshot,
        EngineConfig {
            tracker: TrackerConfig {
                shards: 4,
                context_capacity: 3,
                idle_cutoff_secs: CUTOFF,
            },
            ..EngineConfig::default()
        },
        hazard,
    ))
}

/// What `snapshot` answers for `user`'s context, resolved from its text.
fn stateless(
    engine: &ServeEngine,
    snapshot: &ModelSnapshot,
    user: u64,
    now: u64,
) -> Vec<Suggestion> {
    let context = engine.tracker().context(user, now);
    let context: Vec<&str> = context.iter().map(String::as_str).collect();
    snapshot.suggest(&context, K)
}

/// The seeded script, asserting every reply against the oracle and, every
/// `sweep_every` steps, every touched user. A sweep resolves every cache,
/// so a sparse sweep is what lets unresolved tails and stale tags pile up
/// across several steps before a request meets them.
fn run_script(seed: u64, sweep_every: usize) {
    let [a, b] = snapshots();
    let published = [a, b];
    let engine = engine(
        Arc::clone(&published[0]),
        Arc::new(sqp_common::hazard::NoHazard),
    );
    let wide = SessionTracker::new(TrackerConfig {
        context_capacity: 8,
        idle_cutoff_secs: CUTOFF,
        ..TrackerConfig::default()
    });
    let queries: Vec<&str> = SHARED
        .iter()
        .copied()
        .chain(["only in a", "only in b", "never trained", ""])
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = 1_000u64;
    let mut current = 0usize;
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    let (mut answered, mut nonempty) = (0usize, 0usize);
    let mut check = |got: Vec<Suggestion>, user: u64, now: u64, step: usize| {
        let want = stateless(&engine, &engine.snapshot(), user, now);
        assert_eq!(got, want, "seed {seed} step {step} user {user} at {now}");
        answered += 1;
        nonempty += usize::from(!want.is_empty());
    };
    for step in 0..4_000 {
        now += rng.random_range(0u64..3);
        let user = rng.random_range(0u64..7);
        let query = queries[rng.random_range(0..queries.len())];
        match rng.random_range(0u32..16) {
            0..=2 => {
                engine.track(user, query, now);
                touched.insert(user);
            }
            3..=6 => {
                let got = engine.track_and_suggest(user, query, K, now);
                touched.insert(user);
                check(got, user, now, step);
            }
            7..=8 => check(engine.suggest(user, K, now), user, now, step),
            9..=10 => {
                // User 99 is never tracked.
                let requests: Vec<SuggestRequest> = (0..5)
                    .map(|_| SuggestRequest {
                        user: [rng.random_range(0u64..7), 99][usize::from(rng.random_bool(0.1))],
                        k: K,
                    })
                    .collect();
                let lists = engine.suggest_batch(&requests, now);
                assert_eq!(lists.len(), requests.len());
                for (request, got) in requests.iter().zip(lists) {
                    check(got, request.user, now, step);
                }
            }
            11 => {
                current ^= 1;
                engine.publish(Arc::clone(&published[current]));
            }
            // The same `Arc` again: a publish, but not a new vocabulary.
            12 => drop(engine.publish(engine.snapshot())),
            13 => now += CUTOFF + 1,
            14 => drop(engine.evict_idle(now)),
            _ => {
                // Handoff from a tracker with a wider window: the import
                // replaces whatever the engine's tracker held, cache and all.
                now += 1;
                for _ in 0..rng.random_range(1usize..=6) {
                    wide.track(user, queries[rng.random_range(0..queries.len())], now);
                }
                let batch = wide.export_sessions(now, |exported| exported == user);
                assert!(engine.tracker().import_session(&batch.sessions[0]));
                assert!(wide.clear(user));
                touched.insert(user);
            }
        }
        if step % sweep_every == 0 {
            for &user in &touched {
                check(engine.suggest(user, K, now), user, now, step);
            }
        }
    }
    assert!(
        nonempty * 4 > answered,
        "only {nonempty} of {answered} checked answers were non-empty"
    );
}

#[test]
fn every_answer_equals_the_stateless_text_path() {
    for seed in [3, 4] {
        run_script(seed, 1);
        run_script(seed, 9);
    }
}

/// Publishes the armed snapshot from inside the engine's stripe-held seam:
/// the striking request has already loaded its snapshot, so it provably
/// straddles the publication whatever the scheduler does.
#[derive(Default)]
struct PublishInsideTheSeam {
    engine: OnceLock<Weak<ServeEngine>>,
    armed: Mutex<Option<Arc<ModelSnapshot>>>,
}

impl PublishInsideTheSeam {
    fn arm(&self, snapshot: &Arc<ModelSnapshot>) {
        *self.armed.lock().unwrap() = Some(Arc::clone(snapshot));
    }
}

impl Hazard for PublishInsideTheSeam {
    fn strike(&self, site: &str) {
        assert!(site.starts_with("serve.shard."), "{site}");
        if let Some(snapshot) = self.armed.lock().unwrap().take() {
            let engine = self.engine.get().and_then(Weak::upgrade).expect("engine");
            engine.publish(snapshot);
        }
    }
}

#[test]
fn a_request_straddling_a_publish_answers_wholly_from_the_snapshot_it_loaded() {
    let [a, b] = snapshots();
    let hazard = Arc::new(PublishInsideTheSeam::default());
    let engine = engine(Arc::clone(&a), Arc::clone(&hazard) as Arc<dyn Hazard>);
    hazard.engine.set(Arc::downgrade(&engine)).unwrap();
    let serving = |snapshot: &Arc<ModelSnapshot>| Arc::ptr_eq(&engine.snapshot(), snapshot);
    let user = 1;

    // Tagged with A, and a context on which A and B disagree — otherwise
    // "wholly A's" would say nothing.
    engine.track(user, "maps", 10);
    engine.track(user, "weather", 11);
    assert_eq!(
        engine.suggest(user, K, 12),
        stateless(&engine, &a, user, 12)
    );
    engine.track(user, "zoo", 13);
    assert_ne!(
        stateless(&engine, &a, user, 13),
        stateless(&engine, &b, user, 13)
    );
    assert!(!stateless(&engine, &a, user, 13).is_empty());

    // track_and_suggest: loads A, then B is published under its feet.
    hazard.arm(&b);
    let got = engine.track_and_suggest(user, "maps paris", K, 14);
    assert!(serving(&b), "the seam published B mid-request");
    assert_eq!(got, stateless(&engine, &a, user, 14), "wholly A's");
    assert_ne!(got, stateless(&engine, &b, user, 14));
    // The next request is wholly B's, although the session was last
    // resolved — and tagged — under A.
    assert_eq!(
        engine.suggest(user, K, 15),
        stateless(&engine, &b, user, 15)
    );

    // A batch: loads B, then A comes back under its feet.
    hazard.arm(&a);
    let got = engine.suggest_batch(&[SuggestRequest { user, k: K }], 16);
    assert!(serving(&a));
    assert_eq!(got[0], stateless(&engine, &b, user, 16), "wholly B's");
    // The straddling batch left the session tagged B. Were it holding
    // anything but B's ids under that tag, republishing B — same `Arc`,
    // same identity, so the cache is trusted as it stands — would show it.
    engine.publish(Arc::clone(&b));
    assert_eq!(
        engine.suggest(user, K, 17),
        stateless(&engine, &b, user, 17)
    );
    engine.publish(Arc::clone(&a));
    assert_eq!(
        engine.suggest(user, K, 18),
        stateless(&engine, &a, user, 18)
    );

    // And the other way round: a straddle that resolves under A while the
    // cell holds B leaves A's ids under A's tag, not B's.
    hazard.arm(&b);
    let got = engine.track_and_suggest(user, "only in a", K, 19);
    assert!(serving(&b));
    assert_eq!(got, stateless(&engine, &a, user, 19), "wholly A's");
    assert!(engine.suggest(user, K, 20).is_empty(), "B lacks the query");
    engine.publish(Arc::clone(&a));
    assert_eq!(
        engine.suggest(user, K, 21),
        stateless(&engine, &a, user, 21)
    );
    assert!(!engine.suggest(user, K, 21).is_empty());
}
