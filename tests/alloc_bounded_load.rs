//! Loading a VMM makes a fixed number of allocations, not one per node: the
//! payload is trie rows plus state node ids, and both stream into a handful
//! of flat arrays (four for the trie, four for the state index). A model
//! with per-node heap objects — a boxed context, a count list, a rank list
//! and a child vector per PST node — would allocate thousands of times here.
//!
//! Verified with a counting global allocator. This file holds exactly one
//! test so no concurrent test can pollute the counter.

use sqp::core::{model_from_bytes, model_to_bytes, ModelKind, Vmm, VmmConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Allocations made by loading the payload of a VMM trained on `sessions`
/// simulated sessions, with the loaded model's PST node count.
fn load_cost(sessions: usize) -> (u64, usize) {
    let logs = sqp::logsim::generate(&sqp::logsim::SimConfig::small(sessions, 10, 13));
    let segmented = sqp::sessions::segment_default(&logs.train);
    let mut interner = sqp::common::Interner::new();
    let aggregated = sqp::sessions::aggregate(&segmented, &mut interner);
    let trained = Vmm::train(&aggregated.sessions, VmmConfig::with_epsilon(0.05));
    let (kind, payload) = model_to_bytes(&trained).expect("a VMM serializes");
    assert_eq!(kind, ModelKind::Vmm);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let loaded = model_from_bytes(kind, payload, interner.len()).expect("and loads back");
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    let nodes = loaded
        .as_any()
        .and_then(|any| any.downcast_ref::<Vmm>())
        .expect("a VMM payload restores a Vmm")
        .node_count();
    assert_eq!(nodes, trained.node_count());
    (after - before, nodes)
}

#[test]
fn loading_a_vmm_allocates_per_section_not_per_node() {
    let (small_allocs, small_nodes) = load_cost(1_000);
    let (large_allocs, large_nodes) = load_cost(8_000);
    assert!(
        small_nodes > 100 && large_nodes > 3 * small_nodes,
        "want two clearly different trees, got {small_nodes} and {large_nodes} nodes"
    );
    for (allocs, nodes) in [(small_allocs, small_nodes), (large_allocs, large_nodes)] {
        assert!(
            allocs <= 32,
            "loading {nodes} PST nodes allocated {allocs} times"
        );
    }
}
