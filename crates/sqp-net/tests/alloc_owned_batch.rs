//! An owned batch answer costs one text allocation, one `Vec` per
//! non-empty list and a small constant, whatever `k` is: every suggestion
//! of the answer shares one text (`QueryText` is a span of it), and every
//! owned batch form is converted from a reused flat answer — the engine's
//! and the router's per-thread one, the wire client's per-connection one.
//!
//! Counted with a counting global allocator on the test's own thread only,
//! inside each measured call (same discipline as `alloc_free_wire.rs`): the
//! server's connection threads answer the wire forms and allocate whatever
//! they like without touching the count. This file holds exactly one test.

use sqp_core::VmmConfig;
use sqp_logsim::SimConfig;
use sqp_net::{
    BatchAnswer, BatchEntry, EndpointConfig, NetClient, NetServer, RemoteConfig, RemoteEngine,
    RemoteOutcome, ServerConfig,
};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, SuggestRequest, Suggestion,
    TrainingConfig,
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

const USERS: u64 = 600;
const NOW: u64 = 1_000;
const ENTRIES: u64 = 128;
/// The outer `Vec`. Nothing else: the router holds its admitted batch's
/// permits on the stack, and the remote client builds its endpoint scan
/// order in a reused per-thread buffer.
const CONSTANT: u64 = 1;

#[test]
fn an_owned_batch_allocates_one_text_and_one_vec_per_non_empty_list() {
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
    let served = Arc::new(RouterEngine::new(snapshot, RouterConfig::default()));
    let server = NetServer::start(Arc::clone(&served), ServerConfig::default()).expect("server");
    let mut client = NetClient::connect(server.serve_addr()).expect("connect");
    let remote = RemoteEngine::connect(
        vec![EndpointConfig::serve_only(server.serve_addr())],
        RemoteConfig::default(),
    );
    let queries: Vec<&str> = logs.train.iter().map(|r| r.query.as_str()).collect();
    for user in 0..USERS {
        let query = queries[(user as usize * 7) % queries.len()];
        engine.track(user, query, NOW);
        router.track(user, query, NOW);
        served.track(user, query, NOW);
    }

    type Form<'a> = Box<dyn FnMut(&[SuggestRequest], &[BatchEntry]) -> Vec<Vec<Suggestion>> + 'a>;
    let mut forms: Vec<(&str, u64, Form)> = vec![
        (
            "ServeEngine::suggest_batch",
            CONSTANT,
            Box::new(|r, _| engine.suggest_batch(r, NOW)),
        ),
        (
            "RouterEngine::suggest_batch",
            CONSTANT,
            Box::new(|r, _| router.suggest_batch(r, NOW)),
        ),
        (
            "ServeSurface::try_suggest_batch",
            CONSTANT,
            Box::new(|r, _| ServeSurface::try_suggest_batch(&router, r, NOW).unwrap()),
        ),
        (
            "NetClient::suggest_batch",
            CONSTANT,
            Box::new(
                |_, e| match client.suggest_batch(e, NOW).expect("answered") {
                    BatchAnswer::Lists(lists) => lists,
                    other => panic!("{other:?}"),
                },
            ),
        ),
        (
            "RemoteEngine::remote_suggest_batch",
            CONSTANT,
            Box::new(|r, _| match remote.remote_suggest_batch(r, NOW) {
                RemoteOutcome::Answered(lists) => lists,
                other => panic!("{other:?}"),
            }),
        ),
    ];

    for k in [1, 5, 40] {
        let requests: Vec<SuggestRequest> = (0..ENTRIES)
            .map(|i| SuggestRequest {
                user: (i * 37) % USERS,
                k,
            })
            .collect();
        let entries: Vec<BatchEntry> = requests
            .iter()
            .map(|r| BatchEntry {
                user: r.user,
                k: r.k,
            })
            .collect();
        for (name, constant, form) in &mut forms {
            // Warm up: every reused buffer reaches this k's working size.
            for _ in 0..3 {
                form(&requests, &entries);
            }
            for _ in 0..10 {
                let (lists, allocations) = measured(|| form(&requests, &entries));
                let non_empty = lists.iter().filter(|l| !l.is_empty()).count() as u64;
                assert_eq!(lists.len(), requests.len(), "{name}");
                assert!(
                    non_empty > ENTRIES / 2,
                    "{name} at k = {k}: the batch must carry real answers"
                );
                assert!(
                    allocations <= 1 + non_empty + *constant,
                    "{name} at k = {k}: {allocations} allocations for {non_empty} non-empty lists"
                );
            }
        }
    }
    server.shutdown();
}
