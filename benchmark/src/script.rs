//! Seeded op-script generator.
//!
//! Everything a timed loop consumes — which user, which query text, the
//! logical clock, batch membership — is decided here, before the clock
//! starts, as a pure function of the seed. The loops only read the
//! script: no RNG draw, `format!`, `String` clone or request-`Vec`
//! construction happens inside a timed region.
//!
//! Query text comes from the simulator's held-out epoch, so the traffic a
//! model sees is the traffic the paper evaluates on: mostly covered
//! contexts plus the epoch's own share of never-trained queries. Each
//! user walks a private cursor through the concatenated held-out
//! sessions; each user belongs to exactly one client thread, which is
//! what makes every reply a function of (seed, op index) alone.

use sqp_common::rng::{Rng, StdRng};
use sqp_logsim::GeneratedSession;
use sqp_serve::SuggestRequest;
use std::collections::HashMap;

/// Suggestions requested by every op.
pub const K: usize = 5;
/// Logical seconds one round's ops are spread over. Well inside the
/// 30-minute rule, so a session only expires where the script says so.
const ROUND_SPAN_SECS: u32 = 900;
/// Added to the clock of ~1% of tracks: the touch lands after a >30-min
/// gap and starts a fresh session.
const GAP_JUMP_SECS: u32 = 3_601;
/// Logical distance between two rounds' bases: past the longest stamp a
/// round can leave behind plus the idle cutoff, so every session of the
/// previous round has expired and every round starts from the same state.
pub const ROUND_STRIDE_SECS: u64 = 3 * 3_600;
/// Queries tracked per user before a round starts.
const WARM_TOUCHES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    TrackSuggest,
    Suggest,
    Track,
    Batch,
    Ping,
    /// Publish a content-identical snapshot (in-process workloads only).
    Publish,
}

pub const OP_KINDS: usize = 6;

impl OpKind {
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One scripted operation. `at` is seconds after the round's base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub user: u64,
    /// Index into [`Script::queries`] (tracking ops).
    pub query: u32,
    pub at: u32,
    /// Index into [`ThreadScript::batches`] (batch ops).
    pub batch: u32,
}

/// The op mix of a workload: `pattern` repeats `groups` times per thread.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub pattern: &'static [OpKind],
    pub batch_size: usize,
    /// Thread 0 swaps one mid-round op for a `Publish`.
    pub publish_mid_round: bool,
}

use OpKind::{Batch as B, Ping as P, Suggest as S, Track as T, TrackSuggest as TS};

/// 10 `track_and_suggest`, 4 `suggest`, 1 `track`, 1 `suggest_batch(32)`.
pub const ENGINE_MIXED: Mix = Mix {
    pattern: &[TS, TS, S, TS, TS, S, TS, T, TS, S, TS, TS, B, TS, S, TS],
    batch_size: 32,
    publish_mid_round: true,
};

/// 12 `TRACK_SUGGEST`, 3 `SUGGEST`, 1 `PING`.
pub const WIRE_SINGLE: Mix = Mix {
    pattern: &[TS, TS, TS, S, TS, TS, TS, TS, S, TS, TS, P, TS, TS, S, TS],
    batch_size: 0,
    publish_mid_round: false,
};

/// 7 `suggest_batch(256)`, 1 `track_and_suggest`.
pub const TIER_BATCH: Mix = Mix {
    pattern: &[B, B, B, TS, B, B, B, B],
    batch_size: 256,
    publish_mid_round: false,
};

#[derive(Clone, Copy, Debug)]
pub struct ScriptConfig {
    pub seed: u64,
    pub threads: usize,
    pub users_per_thread: usize,
    /// Repetitions of the mix pattern per thread per round.
    pub groups: usize,
    pub mix: Mix,
}

#[derive(Clone, Debug)]
pub struct ThreadScript {
    /// `(user, query)` touches that warm every session before a round.
    pub warm: Vec<(u64, u32)>,
    pub ops: Vec<Op>,
    pub batches: Vec<Vec<SuggestRequest>>,
}

#[derive(Clone, Debug)]
pub struct Script {
    /// Query text table; ops refer to it by index.
    pub queries: Vec<String>,
    pub threads: Vec<ThreadScript>,
}

/// The distinct queries of the held-out sessions and the sessions
/// themselves as indices into that table, in first-appearance order.
pub struct HeldOut {
    pub queries: Vec<String>,
    pub sessions: Vec<Vec<u32>>,
}

impl HeldOut {
    pub fn new(sessions: &[GeneratedSession]) -> Self {
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut queries = Vec::new();
        let sessions = sessions
            .iter()
            .map(|s| {
                s.queries
                    .iter()
                    .map(|q| {
                        *index.entry(q.as_str()).or_insert_with(|| {
                            queries.push(q.clone());
                            (queries.len() - 1) as u32
                        })
                    })
                    .collect()
            })
            .collect();
        Self { queries, sessions }
    }

    /// Up to `n` held-out contexts (session prefixes of 1 to 3 queries),
    /// as text: the probes the train workload checks each published model
    /// with.
    pub fn probe_contexts(&self, n: usize) -> Vec<Vec<&str>> {
        self.sessions
            .iter()
            .filter(|s| s.len() >= 2)
            .take(n)
            .enumerate()
            .map(|(i, s)| {
                let len = (1 + i % 3).min(s.len() - 1);
                s[..len]
                    .iter()
                    .map(|&q| self.queries[q as usize].as_str())
                    .collect()
            })
            .collect()
    }
}

/// User ids are `thread << 32 | index`: disjoint across client threads.
fn user_id(thread: usize, index: usize) -> u64 {
    (thread as u64) << 32 | index as u64
}

pub fn generate(cfg: &ScriptConfig, held_out: &HeldOut) -> Script {
    assert!(cfg.threads >= 1 && cfg.users_per_thread >= 1 && cfg.groups >= 1);
    let stream: Vec<u32> = held_out.sessions.iter().flatten().copied().collect();
    assert!(!stream.is_empty(), "held-out epoch has no queries");
    let threads = (0..cfg.threads)
        .map(|thread| thread_script(cfg, thread, &stream))
        .collect();
    Script {
        queries: held_out.queries.clone(),
        threads,
    }
}

fn thread_script(cfg: &ScriptConfig, thread: usize, stream: &[u32]) -> ThreadScript {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((thread as u64 + 1) << 40));
    let users = cfg.users_per_thread;
    // Where each user currently is in the held-out query stream.
    let mut cursor: Vec<usize> = (0..users)
        .map(|_| rng.random_range(0..stream.len()))
        .collect();
    let mut next_query = |user: usize| {
        let q = stream[cursor[user]];
        cursor[user] = (cursor[user] + 1) % stream.len();
        q
    };

    let mut warm = Vec::with_capacity(users * WARM_TOUCHES);
    for user in 0..users {
        for _ in 0..WARM_TOUCHES {
            warm.push((user_id(thread, user), next_query(user)));
        }
    }

    let n_ops = cfg.groups * cfg.mix.pattern.len();
    let publish_at = (cfg.mix.publish_mid_round && thread == 0).then_some(n_ops / 2);
    let mut ops = Vec::with_capacity(n_ops);
    let mut batches = Vec::new();
    for i in 0..n_ops {
        let kind = if publish_at == Some(i) {
            OpKind::Publish
        } else {
            cfg.mix.pattern[i % cfg.mix.pattern.len()]
        };
        let user = rng.random_range(0..users);
        let mut op = Op {
            kind,
            user: user_id(thread, user),
            query: 0,
            at: (i as u64 * ROUND_SPAN_SECS as u64 / n_ops as u64) as u32,
            batch: 0,
        };
        match kind {
            OpKind::TrackSuggest | OpKind::Track => {
                op.query = next_query(user);
                if rng.random_range(0u32..100) == 0 {
                    op.at += GAP_JUMP_SECS;
                }
            }
            OpKind::Batch => {
                op.batch = batches.len() as u32;
                batches.push(
                    (0..cfg.mix.batch_size)
                        .map(|_| SuggestRequest {
                            user: user_id(thread, rng.random_range(0..users)),
                            k: K,
                        })
                        .collect(),
                );
            }
            OpKind::Suggest | OpKind::Ping | OpKind::Publish => {}
        }
        ops.push(op);
    }
    ThreadScript { warm, ops, batches }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held_out() -> HeldOut {
        let logs = sqp_logsim::generate(&sqp_logsim::SimConfig::small(500, 200, 9));
        HeldOut::new(&logs.truth.test_sessions)
    }

    fn cfg(seed: u64, mix: Mix) -> ScriptConfig {
        ScriptConfig {
            seed,
            threads: 2,
            users_per_thread: 50,
            groups: 40,
            mix,
        }
    }

    #[test]
    fn one_seed_one_script_two_seeds_two_scripts() {
        let held = held_out();
        for mix in [ENGINE_MIXED, WIRE_SINGLE, TIER_BATCH] {
            let a = generate(&cfg(42, mix), &held);
            let b = generate(&cfg(42, mix), &held);
            // `Debug` prints every field of every op, so equal text is
            // equal bytes.
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let c = generate(&cfg(7, mix), &held);
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn mixes_have_the_documented_shares() {
        let count = |mix: Mix, kind| mix.pattern.iter().filter(|&&k| k == kind).count();
        assert_eq!(ENGINE_MIXED.pattern.len(), 16);
        assert_eq!(count(ENGINE_MIXED, TS), 10);
        assert_eq!(count(ENGINE_MIXED, S), 4);
        assert_eq!(count(ENGINE_MIXED, T), 1);
        assert_eq!(count(ENGINE_MIXED, B), 1);
        assert_eq!(WIRE_SINGLE.pattern.len(), 16);
        assert_eq!(count(WIRE_SINGLE, TS), 12);
        assert_eq!(count(WIRE_SINGLE, S), 3);
        assert_eq!(count(WIRE_SINGLE, P), 1);
        assert_eq!(TIER_BATCH.pattern.len(), 8);
        assert_eq!(count(TIER_BATCH, B), 7);
        assert_eq!(count(TIER_BATCH, TS), 1);
    }

    #[test]
    fn users_stay_with_their_thread_and_indices_are_in_range() {
        let held = held_out();
        let script = generate(&cfg(3, ENGINE_MIXED), &held);
        for (t, thread) in script.threads.iter().enumerate() {
            assert_eq!(thread.ops.len(), 40 * 16);
            assert_eq!(thread.warm.len(), 50 * WARM_TOUCHES);
            let publishes = thread
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::Publish)
                .count();
            assert_eq!(publishes, usize::from(t == 0));
            for op in &thread.ops {
                assert_eq!(op.user >> 32, t as u64);
                assert!((op.query as usize) < script.queries.len());
                assert!(op.at < ROUND_SPAN_SECS + GAP_JUMP_SECS);
                if op.kind == OpKind::Batch {
                    let batch = &thread.batches[op.batch as usize];
                    assert_eq!(batch.len(), 32);
                    assert!(batch.iter().all(|r| r.user >> 32 == t as u64 && r.k == K));
                }
            }
        }
        // A round's latest stamp plus the idle cutoff stays below the stride.
        assert!(
            u64::from(ROUND_SPAN_SECS + GAP_JUMP_SECS) + sqp_serve::DEFAULT_CUTOFF_SECS
                < ROUND_STRIDE_SECS
        );
    }

    #[test]
    fn probes_are_short_held_out_prefixes() {
        let held = held_out();
        let probes = held.probe_contexts(64);
        assert_eq!(probes.len(), 64);
        assert!(probes.iter().all(|p| (1..=3).contains(&p.len())));
    }
}
