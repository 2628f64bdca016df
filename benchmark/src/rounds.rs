//! The closed-loop round driver shared by the three serving workloads.
//!
//! A round is a fixed, scripted number of ops per client thread. Threads
//! start together on a barrier, each walks its own script, and the
//! round's wall time runs from the earliest start to the latest finish.
//! Between rounds the logical clock jumps past the idle cutoff, every
//! session is evicted and re-warmed, so each round starts from the same
//! state and must produce the same answers.

use crate::hist::Hist;
use crate::oracle::{Digest, EngineSut, Reply, Sut};
use crate::script::{OpKind, Script, ThreadScript, OP_KINDS};
use crate::trace::{Replay, Tracer, SAMPLE_STRIDE};
use crate::{alloc, procfs};
use sqp_serve::ServeSurface;
use std::sync::Barrier;
use std::time::Instant;

/// One client thread's tallies for one round.
pub struct ThreadStats {
    all: Hist,
    by_kind: [Hist; OP_KINDS],
    digest: Digest,
    failed: u64,
    lists: u64,
    nonempty: u64,
    first_failure: Option<String>,
    interval: Option<(Instant, Instant)>,
}

impl ThreadStats {
    pub fn new() -> Self {
        Self {
            all: Hist::new(),
            by_kind: std::array::from_fn(|_| Hist::new()),
            digest: Digest::default(),
            failed: 0,
            lists: 0,
            nonempty: 0,
            first_failure: None,
            interval: None,
        }
    }

    fn clear(&mut self) {
        self.all.clear();
        self.by_kind.iter_mut().for_each(Hist::clear);
        self.digest = Digest::default();
        self.failed = 0;
        self.lists = 0;
        self.nonempty = 0;
        self.first_failure = None;
        self.interval = None;
    }

    /// Count one op and fold its reply into the digest; returns the
    /// reply's own hash.
    #[inline]
    fn tally(&mut self, kind: OpKind, ns: u64, reply: &Reply) -> u64 {
        self.all.record(ns);
        self.by_kind[kind.index()].record(ns);
        let hash = reply.hash();
        self.digest.word(hash);
        let (lists, nonempty) = reply.lists();
        self.lists += lists;
        self.nonempty += nonempty;
        if let Reply::Failed(why) = reply {
            self.fail(why);
        }
        hash
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(|| why.to_owned());
    }
}

/// What one round measured, all threads merged.
#[derive(Clone, Debug)]
pub struct RoundSummary {
    pub wall_s: f64,
    pub ops: u64,
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
    /// Median latency per op kind, µs (0 for kinds the mix lacks).
    pub kind_p50_us: [f64; OP_KINDS],
    pub digest: u64,
    /// Ops that errored, were shed, degraded, or mismatched the oracle.
    pub failed: u64,
    pub first_failure: Option<String>,
    pub lists: u64,
    pub nonempty: u64,
}

fn summarize(stats: &[ThreadStats]) -> RoundSummary {
    let mut all = Hist::new();
    let mut by_kind: [Hist; OP_KINDS] = std::array::from_fn(|_| Hist::new());
    let mut digest = Digest::default();
    for s in stats {
        all.merge(&s.all);
        for (merged, mine) in by_kind.iter_mut().zip(&s.by_kind) {
            merged.merge(mine);
        }
        digest.word(s.digest.0);
    }
    let intervals = || stats.iter().filter_map(|s| s.interval);
    let start = intervals().map(|(s, _)| s).min().expect("a thread ran");
    let end = intervals().map(|(_, e)| e).max().expect("a thread ran");
    let wall_s = end.duration_since(start).as_secs_f64();
    RoundSummary {
        wall_s,
        ops: all.count(),
        ops_per_s: all.count() as f64 / wall_s,
        p50_us: all.percentile_us(0.50),
        p99_us: all.percentile_us(0.99),
        p999_us: all.percentile_us(0.999),
        max_us: all.max_ns() as f64 / 1_000.0,
        kind_p50_us: std::array::from_fn(|k| by_kind[k].percentile_us(0.50)),
        digest: digest.0,
        failed: stats.iter().map(|s| s.failed).sum(),
        first_failure: stats.iter().find_map(|s| s.first_failure.clone()),
        lists: stats.iter().map(|s| s.lists).sum(),
        nonempty: stats.iter().map(|s| s.nonempty).sum(),
    }
}

/// Evict every session of the previous round and track each user's
/// warm-up queries at `base`. Returns `(sessions evicted, eviction ns)`.
pub fn reset_sessions(surface: &dyn ServeSurface, script: &Script, base: u64) -> (usize, u64) {
    let started = Instant::now();
    let evicted = surface.evict_idle(base);
    let evict_ns = started.elapsed().as_nanos() as u64;
    for thread in &script.threads {
        warm(surface, script, thread, base);
    }
    (evicted, evict_ns)
}

/// Track one client's warm-up queries at `base`.
pub fn warm(surface: &dyn ServeSurface, script: &Script, thread: &ThreadScript, base: u64) {
    for &(user, query) in &thread.warm {
        surface.track(user, &script.queries[query as usize], base);
    }
}

/// One timed round: nothing but the op, two clock reads, the histogram
/// increments and the digest fold happens per op.
pub fn timed_round<S: Sut>(
    suts: &mut [S],
    script: &Script,
    base: u64,
    stats: &mut [ThreadStats],
) -> RoundSummary {
    run_round(suts, script, base, stats, false).0
}

/// Process-wide deltas taken around the counted round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub allocs_per_op: f64,
    pub alloc_bytes_per_op: f64,
    pub vol_ctx_switches_per_op: f64,
}

/// The timed loop once more, with the allocation counter switched on and
/// voluntary context switches summed over client and server threads.
pub fn counted_round<S: Sut>(
    suts: &mut [S],
    script: &Script,
    base: u64,
    stats: &mut [ThreadStats],
) -> (RoundSummary, Counters) {
    // Threads that outlive the round (the server's) are read from outside,
    // before and after; a client thread is gone by then and reports its
    // own count as it finishes.
    let switches_before = procfs::voluntary_ctx_switches();
    let allocs_before = alloc::totals();
    alloc::set_enabled(true);
    let (summary, client_switches) = run_round(suts, script, base, stats, true);
    alloc::set_enabled(false);
    let allocs = alloc::totals();
    let switches =
        procfs::voluntary_ctx_switches().saturating_sub(switches_before) + client_switches;
    let ops = summary.ops.max(1) as f64;
    let counters = Counters {
        allocs_per_op: (allocs.0 - allocs_before.0) as f64 / ops,
        alloc_bytes_per_op: (allocs.1 - allocs_before.1) as f64 / ops,
        vol_ctx_switches_per_op: switches as f64 / ops,
    };
    (summary, counters)
}

fn run_round<S: Sut>(
    suts: &mut [S],
    script: &Script,
    base: u64,
    stats: &mut [ThreadStats],
    count_switches: bool,
) -> (RoundSummary, u64) {
    let barrier = Barrier::new(suts.len());
    let client_switches = std::thread::scope(|scope| {
        let handles: Vec<_> = suts
            .iter_mut()
            .zip(&script.threads)
            .zip(stats.iter_mut())
            .map(|((sut, thread), stats)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    stats.clear();
                    barrier.wait();
                    let switches_before = procfs::thread_voluntary_ctx_switches(count_switches);
                    let started = Instant::now();
                    for op in &thread.ops {
                        let t0 = Instant::now();
                        let reply = sut.exec(op, script, thread, base);
                        let ns = t0.elapsed().as_nanos() as u64;
                        stats.tally(op.kind, ns, &reply);
                    }
                    stats.interval = Some((started, Instant::now()));
                    procfs::thread_voluntary_ctx_switches(count_switches) - switches_before
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .sum()
    });
    (summarize(stats), client_switches)
}

/// The oracle round: the timed loop again, keeping a hash of every reply
/// and the root span of every [`SAMPLE_STRIDE`]th op, which
/// [`Sut::observe`] replays layer by layer on the spot — under the same
/// load as the real call. The references run afterwards, outside the
/// clock ([`verify`]).
pub fn oracle_round<S: Sut>(
    suts: &mut [S],
    script: &Script,
    base: u64,
    stats: &mut [ThreadStats],
    tracers: &mut [Tracer],
) -> (RoundSummary, Vec<Vec<u64>>) {
    let barrier = Barrier::new(suts.len());
    let hashes = std::thread::scope(|scope| {
        let handles: Vec<_> = suts
            .iter_mut()
            .zip(&script.threads)
            .zip(stats.iter_mut().zip(tracers.iter_mut()))
            .enumerate()
            .map(|(index, ((sut, thread), (stats, tracer)))| {
                let barrier = &barrier;
                scope.spawn(move || {
                    stats.clear();
                    let mut hashes = Vec::with_capacity(thread.ops.len());
                    barrier.wait();
                    let started = Instant::now();
                    for (i, op) in thread.ops.iter().enumerate() {
                        let t0 = Instant::now();
                        let reply = sut.exec(op, script, thread, base);
                        let t1 = Instant::now();
                        hashes.push(stats.tally(op.kind, (t1 - t0).as_nanos() as u64, &reply));
                        if i % SAMPLE_STRIDE == 0 {
                            sut.observe(&mut Replay {
                                tracer,
                                req: request_id(index, i),
                                op,
                                script,
                                thread,
                                base,
                                reply: &reply,
                                root: (t0, t1),
                            });
                        }
                    }
                    stats.interval = Some((started, Instant::now()));
                    hashes
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (summarize(stats), hashes)
}

fn request_id(thread: usize, op: usize) -> u64 {
    (thread as u64) << 40 | op as u64
}

/// Feed each client's private reference engine the op stream that client
/// just ran and compare every reply hash. Returns the number of
/// mismatches and a description of the first.
///
/// Sampled ops record the reference's call as the engine span the
/// workload names ([`Sut::reference_span`]): the engine's share of the op.
///
/// `corrupt` flips one bit of one reference score — the self-test that
/// proves a wrong answer fails the run.
pub fn verify<S: Sut>(
    references: &mut [EngineSut],
    script: &Script,
    base: u64,
    hashes: &[Vec<u64>],
    tracers: &mut [Tracer],
    mut corrupt: bool,
) -> (u64, Option<String>) {
    let (mut wrong, mut first) = (0, None);
    let clients = references
        .iter_mut()
        .zip(&script.threads)
        .zip(hashes.iter().zip(tracers.iter_mut()))
        .enumerate();
    for (index, ((reference, thread), (hashes, tracer))) in clients {
        for (i, op) in thread.ops.iter().enumerate() {
            let e0 = Instant::now();
            let mut expected = reference.exec(op, script, thread, base);
            let e1 = Instant::now();
            if corrupt {
                corrupt = !flip_one_score_bit(&mut expected);
            }
            if expected.hash() != hashes[i] {
                wrong += 1;
                first.get_or_insert_with(|| {
                    format!(
                        "client {index} op {i} ({:?}) differs from the reference's {expected:?}",
                        op.kind
                    )
                });
            }
            if i % SAMPLE_STRIDE == 0 {
                if let Some((name, parent)) = S::reference_span(op.kind) {
                    tracer.span(request_id(index, i), name, Some(parent), (e0, e1));
                }
            }
        }
    }
    (wrong, first)
}

/// Flip the lowest bit of the first score in `reply`, if it has one.
pub fn flip_one_score_bit(reply: &mut Reply) -> bool {
    let first = match reply {
        Reply::Suggestions(list) => list.first_mut(),
        Reply::Batch(lists) => lists.iter_mut().find_map(|l| l.first_mut()),
        _ => None,
    };
    match first {
        Some(s) => {
            s.score = f64::from_bits(s.score.to_bits() ^ 1);
            true
        }
        None => false,
    }
}
