//! An owned single list costs two allocations, whatever `k` is: its `Vec`
//! and one text shared by every suggestion (`QueryText` is a span of it).
//! A list ranked in process is built straight from the ranked ids, its
//! texts joined in a reused per-thread buffer and copied from there once;
//! a list that came over the wire is converted from the connection's
//! reused flat answer. The remote client builds its endpoint scan order
//! in a reused per-thread buffer, so it is held to the same two.
//!
//! Counted with a counting global allocator on the test's own thread only,
//! inside each measured call (same discipline as `alloc_free_wire.rs`): the
//! server's connection threads answer the wire forms and allocate whatever
//! they like without touching the count. This file holds exactly one test.

// A counting `GlobalAlloc` needs `unsafe impl`; the libraries deny it.
#![allow(unsafe_code)]

use sqp_core::VmmConfig;
use sqp_logsim::SimConfig;
use sqp_net::{
    EndpointConfig, NetClient, NetServer, RemoteConfig, RemoteEngine, RemoteOutcome, ServeAnswer,
    ServerConfig,
};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, Suggestion, TrainingConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured call only. A `const`
    /// initializer, so reading it never allocates.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if MEASURING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `op`'s answer and the allocations this thread made inside it.
fn measured<T>(op: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    let answer = op();
    MEASURING.with(|m| m.set(false));
    (answer, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

const USERS: u64 = 200;
const NOW: u64 = 1_000;
/// An owned list: its `Vec` and its shared text.
const LIST: u64 = 2;

#[test]
fn an_owned_single_list_allocates_its_vec_and_one_text() {
    let logs = sqp_logsim::generate(&SimConfig::small(4_000, 200, 13));
    let snapshot = Arc::new(ModelSnapshot::from_raw_logs(
        &logs.train,
        &TrainingConfig {
            model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
            ..TrainingConfig::default()
        },
    ));
    let engine = ServeEngine::new(Arc::clone(&snapshot), EngineConfig::default());
    let router = RouterEngine::new(Arc::clone(&snapshot), RouterConfig::default());
    let served = Arc::new(ServeEngine::new(
        Arc::clone(&snapshot),
        EngineConfig::default(),
    ));
    let server = NetServer::start(Arc::clone(&served), ServerConfig::default()).expect("server");
    let mut client = NetClient::connect(server.serve_addr()).expect("connect");
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr())],
        RemoteConfig::default(),
    );
    let queries: Vec<&str> = logs.train.iter().map(|r| r.query.as_str()).collect();
    let query = |user: u64| queries[(user as usize * 7) % queries.len()];
    // Every window turned over with the query each user keeps tracking, so
    // a tracked query never grows a session's block again.
    for _ in 0..12 {
        for user in 0..USERS {
            engine.track(user, query(user), NOW);
            router.track(user, query(user), NOW);
            served.track(user, query(user), NOW);
        }
    }

    let wire = |answer: ServeAnswer| match answer {
        ServeAnswer::Suggestions(list) => list,
        other => panic!("{other:?}"),
    };
    let remote_list = |outcome: RemoteOutcome<Vec<Suggestion>>| match outcome {
        RemoteOutcome::Answered(list) => list,
        other => panic!("{other:?}"),
    };
    type Form<'a> = Box<dyn FnMut(u64, usize) -> Vec<Suggestion> + 'a>;
    let mut forms: Vec<(&str, u64, Form)> = vec![
        (
            "ServeEngine::suggest",
            LIST,
            Box::new(|u, k| engine.suggest(u, k, NOW)),
        ),
        (
            "ServeEngine::track_and_suggest",
            LIST,
            Box::new(|u, k| engine.track_and_suggest(u, query(u), k, NOW)),
        ),
        (
            "ServeEngine::suggest_context",
            LIST,
            Box::new(|u, k| engine.suggest_context(&[query(u)], k)),
        ),
        (
            "ServeSurface::try_suggest",
            LIST,
            Box::new(|u, k| ServeSurface::try_suggest(&router, u, k, NOW).unwrap()),
        ),
        (
            "ServeSurface::try_track_and_suggest",
            LIST,
            Box::new(|u, k| {
                ServeSurface::try_track_and_suggest(&router, u, query(u), k, NOW).unwrap()
            }),
        ),
        (
            "NetClient::suggest",
            LIST,
            Box::new(|u, k| wire(client.suggest(u, k, NOW).expect("answered"))),
        ),
        (
            "RemoteEngine::remote_suggest",
            LIST,
            Box::new(|u, k| remote_list(remote.remote_suggest(u, k, NOW))),
        ),
        (
            "RemoteEngine::remote_track_and_suggest",
            LIST,
            Box::new(|u, k| remote_list(remote.remote_track_and_suggest(u, query(u), k, NOW))),
        ),
    ];

    for k in [1, 5, 40] {
        for (name, bound, form) in &mut forms {
            // Warm up: every reused buffer reaches this k's working size.
            for user in 0..USERS {
                form(user, k);
            }
            let mut answered = 0;
            for user in 0..USERS {
                let (list, allocations) = measured(|| form(user, k));
                answered += usize::from(!list.is_empty());
                assert!(
                    allocations <= *bound,
                    "{name} at k = {k}: {allocations} allocations for a list of {}",
                    list.len()
                );
            }
            assert!(
                answered > USERS as usize / 2,
                "{name} at k = {k}: only {answered} of {USERS} users got suggestions"
            );
        }
    }
    server.shutdown();
}
