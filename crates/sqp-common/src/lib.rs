//! Shared substrate for the sequential-query-prediction (SQP) workspace.
//!
//! This crate collects the small, dependency-free building blocks every other
//! crate in the workspace relies on:
//!
//! * [`QueryId`] — interned query identifier, and the [`intern::Interner`]
//!   that maps query strings to ids and back;
//! * [`hash`] — an FxHash-style hasher ([`FxHashMap`], [`FxHashSet`]) used for
//!   all hot integer-keyed maps (the std SipHash default is a measurable cost
//!   for the billions of lookups the pipeline performs);
//! * [`math`] — base-10 information-theoretic helpers (the paper fixes
//!   log base 10 throughout: entropy, KL divergence, Gaussian pdf);
//! * [`dist`] — Levenshtein edit distance over arbitrary `Eq` slices (used by
//!   the MVMM mixture weighting and the spelling-change classifier);
//! * [`topk`] — deterministic top-k selection of scored items;
//! * [`hist`] — integer-keyed histograms (session-length distributions);
//! * [`counter`] — convenience counting maps;
//! * [`arena`] — the arena-backed suffix trie shared by window counting and
//!   the serve path (zero-allocation counting, binary-search lookups);
//! * [`rng`] — a seedable xoshiro256++ PRNG (the workspace builds with no
//!   external crates, so this replaces `rand`);
//! * [`breaker`] — the shared Closed/Open/HalfOpen circuit breaker and
//!   capped-exponential [`Backoff`] used by both the retrain loop
//!   (`sqp-store`) and the remote serving client (`sqp-net`);
//! * [`fsio`], [`clock`], [`hazard`] — the fault seams: filesystem, time,
//!   and chaos-injection-point traits the resilient serving stack crosses,
//!   with real/no-op production implementations (`sqp-faults` provides the
//!   fault-injecting ones);
//! * [`bytes`] — little-endian byte buffers for the wire codecs;
//! * [`scratch`] — per-thread scratch buffers for the serve path;
//! * [`threads`] — how many parts a training stage splits into, and
//!   fork-join over scoped threads to run them;
//! * [`mem`] — approximate heap-size accounting for the memory-footprint
//!   experiment (Table VII of the paper).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod breaker;
pub mod bytes;
pub mod clock;
pub mod counter;
pub mod dist;
pub mod fsio;
pub mod hash;
pub mod hazard;
pub mod hist;
pub mod intern;
pub mod math;
pub mod mem;
pub mod rng;
pub mod scratch;
pub mod threads;
pub mod topk;

pub use arena::{FlatSessions, SuffixTrie};
pub use breaker::{Admission, Backoff, Breaker, BreakerConfig, BreakerState, BreakerStats};
pub use clock::{Clock, RealClock};
pub use counter::Counter;
pub use fsio::{FsIo, RealFs};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hazard::{Hazard, NoHazard};
pub use hist::Histogram;
pub use intern::Interner;
pub use mem::HeapSize;

/// Identifier of an interned query string.
///
/// Queries are interned once by the session pipeline; all models operate on
/// dense `u32` ids, which keeps sessions at 4 bytes/query and makes hash maps
/// fast. The id is an index into the owning [`Interner`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[repr(transparent)]
pub struct QueryId(pub u32);

impl QueryId {
    /// Index form, for slicing into interner-parallel arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for QueryId {
    #[inline]
    fn from(v: u32) -> Self {
        QueryId(v)
    }
}

impl From<QueryId> for u32 {
    #[inline]
    fn from(v: QueryId) -> Self {
        v.0
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A query sequence (session or context) of interned ids.
pub type QuerySeq = Box<[QueryId]>;

/// Convenience constructor used pervasively in tests.
pub fn seq(ids: &[u32]) -> QuerySeq {
    ids.iter().copied().map(QueryId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_id_roundtrip() {
        let q = QueryId::from(42u32);
        assert_eq!(u32::from(q), 42);
        assert_eq!(q.index(), 42);
        assert_eq!(q.to_string(), "q42");
    }

    #[test]
    fn seq_builds_boxed_slice() {
        let s = seq(&[1, 2, 3]);
        assert_eq!(s.len(), 3);
        assert_eq!(s[1], QueryId(2));
    }

    #[test]
    fn query_id_is_four_bytes() {
        assert_eq!(std::mem::size_of::<QueryId>(), 4);
    }
}
