//! The server's half of a suggest round trip must not allocate per
//! suggestion: the serving tier renders into the connection's reply frame
//! through a `ListWriter` sink, the engine ranks through per-thread
//! scratch, the router reorders a multi-replica batch through one
//! per-thread arena and holds the involved replicas' admission permits on
//! the stack. So a warmed-up batch, of 32 entries or of 256, makes no
//! allocation at all, and neither does a warmed-up single suggest. Nor
//! does a `track_and_suggest` once its session's window has turned over:
//! a session is one block, and a full window appends into the room the
//! entry it drops leaves behind.
//!
//! Driven in process — the surface's sink forms into a reused frame
//! buffer, exactly what a connection's thread does between `read_frame`
//! and `write_frame` — under a counting global allocator (same discipline
//! as `alloc_free_wire.rs`). This file holds exactly one test so no
//! concurrent test can pollute the counter.

// A counting `GlobalAlloc` needs `unsafe impl`; the libraries deny it.
#![allow(unsafe_code)]

use sqp_core::VmmConfig;
use sqp_logsim::SimConfig;
use sqp_net::wire::{self, ListWriter, Reply};
use sqp_router::{RouterConfig, RouterEngine};
use sqp_serve::{
    EngineConfig, ModelSnapshot, ModelSpec, ServeEngine, ServeSurface, SuggestRequest,
    TrainingConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const USERS: u64 = 2_000;
const NOW: u64 = 1_000;
const K: usize = 5;

/// Allocations made by `rounds` calls of `op`.
fn allocations(rounds: u32, mut op: impl FnMut()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..rounds {
        op();
    }
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// How many suggestions the `R_BATCH`/`R_SUGGESTIONS` body in `frame` holds.
fn suggestions_in(frame: &[u8]) -> usize {
    match wire::decode_reply(frame).expect("the tier wrote a valid reply") {
        Reply::Batch(lists) => lists.iter().map(|list| list.len()).sum(),
        Reply::Suggestions(list) => list.len(),
        other => panic!("unexpected reply {other:?}"),
    }
}

#[test]
fn server_side_suggest_allocations_do_not_scale_with_the_answer() {
    let logs = sqp_logsim::generate(&SimConfig::small(4_000, 200, 13));
    let snapshot = Arc::new(ModelSnapshot::from_raw_logs(
        &logs.train,
        &TrainingConfig {
            model: ModelSpec::Vmm(VmmConfig::with_epsilon(0.05)),
            ..TrainingConfig::default()
        },
    ));
    // An admission budget, so the admitted path is the one measured.
    let engine_cfg = EngineConfig {
        max_in_flight: 64,
        ..EngineConfig::default()
    };
    let router = RouterEngine::new(
        Arc::clone(&snapshot),
        RouterConfig {
            replicas: 4,
            engine: engine_cfg,
        },
    );
    let engine = ServeEngine::new(snapshot, engine_cfg);
    let queries: Vec<&str> = logs.train.iter().map(|r| r.query.as_str()).collect();
    for user in 0..USERS {
        let query = queries[(user as usize * 7) % queries.len()];
        router.track(user, query, NOW);
        engine.track(user, query, NOW);
    }
    let tier: &dyn ServeSurface = &router;
    let single: &dyn ServeSurface = &engine;

    let batch = |len: u64| -> Vec<SuggestRequest> {
        (0..len)
            .map(|i| SuggestRequest {
                user: (i * 37) % USERS,
                k: K,
            })
            .collect()
    };
    let (small, large) = (batch(32), batch(256));
    let mut frame: Vec<u8> = Vec::new();
    let mut run_batch = |requests: &[SuggestRequest]| {
        frame.clear();
        let mut sink = ListWriter::batch(&mut frame, requests.len());
        tier.try_suggest_batch_into(requests, NOW, &mut sink)
            .expect("within budget");
        std::hint::black_box(frame.len());
    };

    // Warm up on the large batch: the frame and every per-thread buffer
    // reach their steady-state capacity.
    run_batch(&large);
    run_batch(&small);
    const ROUNDS: u32 = 50;
    let small_allocs = allocations(ROUNDS, || run_batch(&small));
    let large_allocs = allocations(ROUNDS, || run_batch(&large));
    run_batch(&large);
    let rendered = suggestions_in(&frame);
    assert!(
        rendered > 256,
        "the large batch must carry real answers, got {rendered} suggestions"
    );
    assert_eq!(
        (small_allocs, large_allocs),
        (0, 0),
        "warmed 32- and 256-entry batches allocated in {ROUNDS} rounds ({rendered} suggestions)"
    );

    // A single engine, one suggest at a time: nothing at all.
    let mut run_single = |user: u64| {
        frame.clear();
        let mut sink = ListWriter::suggestions(&mut frame);
        single
            .try_suggest_into(user, K, NOW, &mut sink)
            .expect("within budget");
        frame.len()
    };
    let mut answered = 0;
    for user in 0..USERS {
        answered += usize::from(run_single(user) > 2);
    }
    assert!(answered > 100, "only {answered} users got suggestions");
    let single_allocs = allocations(4, || {
        for user in 0..USERS {
            std::hint::black_box(run_single(user));
        }
    });
    assert_eq!(
        single_allocs,
        0,
        "a warmed try_suggest_into allocated {single_allocs} times in {} calls",
        4 * USERS
    );

    // Tracking sessions: four rounds in which every user tracks a query
    // and gets suggestions for it.
    const TRACK_ROUNDS: u64 = 4;
    let mut run_rounds = || {
        for round in 0..TRACK_ROUNDS {
            for user in 0..USERS {
                let query = queries[((user * 7 + round * 13) as usize) % queries.len()];
                frame.clear();
                let mut sink = ListWriter::suggestions(&mut frame);
                single
                    .try_track_and_suggest_into(user, query, K, NOW, &mut sink)
                    .expect("within budget");
                std::hint::black_box(frame.len());
            }
        }
    };
    // Warm up with the very queries the measured rounds track, often
    // enough to turn every 8-slot window over twice: from then on a window
    // always holds the same eight queries' bytes, so no block grows again.
    for _ in 0..4 {
        run_rounds();
    }
    let track_allocs = allocations(1, &mut run_rounds);
    assert_eq!(
        track_allocs,
        0,
        "a warmed try_track_and_suggest_into allocated {track_allocs} times in {} calls",
        TRACK_ROUNDS * USERS
    );
}
