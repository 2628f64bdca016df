//! The serve path must not allocate: longest-suffix matching, conditional
//! probabilities, escape recursion and top-k into a reused buffer all run on
//! the arena structures (binary-searched sorted slices), so a warmed-up
//! prediction call performs zero heap allocations. Every other model — the
//! MVMM, the two N-grams and the two pair-wise baselines — writes its top-k
//! into the same reused buffer, pooling its candidates there, called
//! through `&dyn Recommender` as a serving engine calls them.
//!
//! Verified with a counting global allocator. This file holds exactly one
//! test so no concurrent test can pollute the counter.

use sqp::core::{
    Adjacency, BackoffConfig, BackoffNgram, Cooccurrence, Mvmm, MvmmConfig, NGram, Recommender,
    SequenceScorer, Vmm, VmmConfig,
};
use sqp_common::seq;
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

#[test]
fn prediction_serve_path_is_allocation_free() {
    // A corpus large enough that distributions have real fan-out.
    let logs = sqp::logsim::generate(&sqp::logsim::SimConfig::small(4_000, 200, 13));
    let processed = sqp::sessions::process(&logs, &sqp::sessions::PipelineConfig::default());
    let sessions = &processed.train.aggregated.sessions;
    let vmm = Vmm::train(sessions, VmmConfig::with_epsilon(0.05));
    let mvmm = Mvmm::train(sessions, &MvmmConfig::epsilon_sweep());

    let contexts: Vec<_> = processed
        .ground_truth
        .entries
        .iter()
        .take(64)
        .map(|e| e.context.clone())
        .collect();
    assert!(!contexts.is_empty(), "ground truth must not be empty");
    let probe = seq(&[3, 1]);

    // Warm up: the reusable buffer reaches its steady-state capacity.
    let mut buf = Vec::with_capacity(16);
    for ctx in &contexts {
        vmm.recommend_into(ctx, 5, &mut buf);
        let _ = vmm.cond_prob(ctx, probe[0]);
        let _ = mvmm.sequence_log10_prob(ctx);
        let _ = mvmm.sequence_log10_prob(&probe);
        let _ = vmm.covers(ctx);
    }

    // Measure: the whole serve path, many times over.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..200 {
        for ctx in &contexts {
            vmm.recommend_into(ctx, 5, &mut buf);
            let _ = vmm.cond_prob(ctx, probe[0]);
            let _ = mvmm.sequence_log10_prob(ctx);
            let _ = mvmm.sequence_log10_prob(&probe);
            let _ = vmm.covers(ctx);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "serve path allocated {} times in {} calls",
        after - before,
        200 * contexts.len() * 5,
    );

    let others: [Box<dyn Recommender>; 4] = [
        Box::new(BackoffNgram::train(sessions, BackoffConfig::default())),
        Box::new(NGram::train(sessions)),
        Box::new(Adjacency::train(sessions)),
        Box::new(Cooccurrence::train(sessions)),
    ];
    for model in std::iter::once(&mvmm as &dyn Recommender).chain(others.iter().map(|m| m.as_ref()))
    {
        let mut covered = 0;
        for ctx in &contexts {
            model.recommend_into(ctx, 5, &mut buf);
            covered += usize::from(!buf.is_empty());
        }
        assert!(covered > 0, "{} covers no context", model.name());
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..200 {
            for ctx in &contexts {
                model.recommend_into(ctx, 5, &mut buf);
                let _ = model.covers(ctx);
            }
        }
        let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
        assert_eq!(allocated, 0, "{} allocated {allocated} times", model.name());
    }
}
