//! The wire codec must not allocate on the steady-state path: encoders
//! append into reused buffers, decoders borrow straight from the frame
//! body, and framing reuses the caller's body buffer — so a warmed-up
//! connection turns requests into replies with zero heap traffic.
//!
//! Verified with a counting global allocator (same discipline as the
//! repo-root `alloc_free_serve.rs`). The codec runs on the test's own
//! thread, so the allocator counts only that thread, and only while it is
//! inside the measured window: the harness's threads allocate whenever
//! they like without touching the count.

use sqp_net::frame::{read_frame, write_frame, FrameRead};
use sqp_net::wire::{self, BatchEntry, Reply, Request};
use sqp_serve::Suggestion;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the measuring thread for the measured window only. A
    /// `const` initializer, so reading it never allocates.
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

/// One full wire round: encode a mix of requests into `body`, frame them
/// through `wire_buf`, read them back into `rx`, decode (borrowed), walk
/// every field, then do the same for replies.
fn round(
    body: &mut Vec<u8>,
    rx: &mut Vec<u8>,
    wire_buf: &mut [u8],
    entries: &[BatchEntry],
    suggestions: &[Suggestion],
) -> u64 {
    let mut checksum = 0u64;

    // --- requests ---
    for variant in 0..4 {
        body.clear();
        match variant {
            0 => wire::encode_track(body, 7, "rust language", 1_000),
            1 => wire::encode_track_suggest(body, 7, "rust language", 5, 1_001),
            2 => wire::encode_suggest_batch(body, entries, 1_002),
            _ => wire::encode_stats(body),
        }

        let mut w = Cursor::new(&mut *wire_buf);
        write_frame(&mut w, body, wire::DEFAULT_MAX_FRAME).expect("write");
        let used = w.position() as usize;

        let mut r = Cursor::new(&wire_buf[..used]);
        match read_frame(&mut r, rx, wire::DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Frame => {}
            other => panic!("expected a frame, got {other:?}"),
        }
        match wire::decode_request(rx).expect("decode") {
            Request::Track { user, query, .. } => {
                checksum = checksum.wrapping_add(user).wrapping_add(query.len() as u64)
            }
            Request::TrackSuggest { user, k, query, .. } => {
                checksum = checksum
                    .wrapping_add(user)
                    .wrapping_add(k as u64)
                    .wrapping_add(query.len() as u64)
            }
            Request::SuggestBatch { entries, .. } => {
                for e in entries.iter() {
                    checksum = checksum.wrapping_add(e.user).wrapping_add(e.k as u64);
                }
            }
            Request::Stats => checksum = checksum.wrapping_add(1),
            other => panic!("unexpected request {other:?}"),
        }
    }

    // --- replies ---
    for variant in 0..3 {
        body.clear();
        match variant {
            0 => wire::encode_suggestions(body, suggestions),
            1 => wire::encode_ack(body, false, 4),
            _ => wire::encode_overloaded(body, 128),
        }

        let mut w = Cursor::new(&mut *wire_buf);
        write_frame(&mut w, body, wire::DEFAULT_MAX_FRAME).expect("write");
        let used = w.position() as usize;

        let mut r = Cursor::new(&wire_buf[..used]);
        match read_frame(&mut r, rx, wire::DEFAULT_MAX_FRAME).expect("read") {
            FrameRead::Frame => {}
            other => panic!("expected a frame, got {other:?}"),
        }
        match wire::decode_reply(rx).expect("decode") {
            Reply::Suggestions(list) => {
                for (score, query) in list.iter() {
                    checksum = checksum.wrapping_add(score.to_bits() ^ query.len() as u64);
                }
            }
            Reply::Ack { context_len, .. } => checksum = checksum.wrapping_add(context_len as u64),
            Reply::Overloaded { limit } => checksum = checksum.wrapping_add(limit),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    checksum
}

#[test]
fn wire_codec_steady_state_is_allocation_free() {
    let entries: Vec<BatchEntry> = (0..16).map(|i| BatchEntry { user: i, k: 5 }).collect();
    let suggestions: Vec<Suggestion> = (0..8)
        .map(|i| Suggestion {
            query: format!("suggestion number {i}").into(),
            score: 1.0 / (i + 1) as f64,
        })
        .collect();

    let mut body = Vec::new();
    let mut rx = Vec::new();
    let mut wire_buf = vec![0u8; 8 * 1024];

    // Warm up: both reusable buffers reach steady-state capacity.
    let warm = round(&mut body, &mut rx, &mut wire_buf, &entries, &suggestions);

    // Measure: many full encode→frame→read→decode rounds, zero allocs.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    MEASURING.with(|m| m.set(true));
    let mut checksum = 0u64;
    for _ in 0..500 {
        checksum = checksum.wrapping_add(round(
            &mut body,
            &mut rx,
            &mut wire_buf,
            &entries,
            &suggestions,
        ));
    }
    MEASURING.with(|m| m.set(false));
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        checksum,
        warm.wrapping_mul(500),
        "codec must be deterministic across rounds"
    );
    assert_eq!(
        after - before,
        0,
        "wire codec allocated {} times across 500 warmed-up rounds",
        after - before
    );
}
