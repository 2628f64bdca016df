//! Deterministic consistent-hash ring over replica ids.
//!
//! The router needs a user → replica mapping with three properties:
//!
//! * **Sticky** — the same user always lands on the same replica, so their
//!   session context (which lives in exactly one replica's tracker) keeps
//!   being found. Any deterministic hash gives this.
//! * **Stable under resize** — adding or removing one replica must remap
//!   only ~1/N of users, not reshuffle everyone (a modulo mapping remaps
//!   (N-1)/N and would orphan almost every live session). This is what the
//!   ring buys: each replica owns many small arcs of the hash circle, and
//!   resizing only moves the arcs adjacent to the added/removed points.
//! * **Deterministic across processes** — routing is part of the serving
//!   contract (an operator reasons about "user U is on replica 2"), so the
//!   ring hashes with the workspace's fixed-key FxHash, never
//!   `RandomState`. Two processes, or the same process restarted, route
//!   identically. The property tests pin this with golden values.
//!
//! Layout: each replica id contributes `vnodes` points on the `u64`
//! circle; a user hashes onto the circle and is served by the first point
//! at or after that value (wrapping). More vnodes → smoother load split
//! (the property tests hold the default within 2× of uniform) at the cost
//! of a larger sorted array; lookups stay `O(log(replicas × vnodes))`
//! either way.
//!
//! Positions are `splitmix64(fx_hash_one(key))`, not raw FxHash. Fx is a
//! single multiply per word — ideal for hash-map bucketing, but on a
//! *comparison-ordered* circle its outputs for small sequential keys all
//! sit on one multiplicative lattice (`n·K mod 2⁶⁴`), and user points
//! correlate with vnode points badly enough to starve whole replicas (an
//! early version measured a 0-user replica at N=8). The splitmix64
//! finalizer is a fixed, keyless full-avalanche permutation: it keeps
//! determinism while destroying the lattice structure.

use sqp_common::hash::fx_hash_one;
use std::fmt;

/// Default virtual nodes per replica. 128 keeps the arc-length imbalance
/// across replicas within 2× of uniform for small clusters (asserted by the
/// property tests) while the whole ring for, say, 8 replicas still fits in
/// a few cache lines' worth of binary-search depth.
pub const DEFAULT_VNODES: usize = 128;

/// Error from [`HashRing::remove`]: removing this replica would leave the
/// ring empty, and an empty ring cannot route.
///
/// The invariant this error defends: **a ring that has ever held a replica
/// never becomes empty through `remove`** — so `route` is total on any
/// ring built with at least one replica and only ever mutated through
/// `add`/`remove`. Callers that genuinely want to tear a tier down drop
/// the ring; they don't drain it to zero one replica at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WouldEmptyRing;

impl fmt::Display for WouldEmptyRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "removing the last replica would leave an empty ring")
    }
}

impl std::error::Error for WouldEmptyRing {}

/// A consistent-hash ring mapping `u64` user ids onto replica indices.
///
/// # Examples
///
/// ```
/// use sqp_router::HashRing;
///
/// let ring = HashRing::new(4, 128);
/// let replica = ring.route(42);
/// assert!(replica < 4);
/// // Deterministic: a rebuilt ring routes identically.
/// assert_eq!(HashRing::new(4, 128).route(42), replica);
/// ```
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted `(point, replica)` pairs — the unit circle, flattened.
    points: Vec<(u64, u32)>,
    /// Live replica ids, sorted (mirrors the distinct ids in `points`).
    replicas: Vec<u32>,
    vnodes: usize,
}

impl HashRing {
    /// Ring over replica ids `0..replicas`, `vnodes` points per replica
    /// (`0` is rounded up to 1).
    pub fn new(replicas: usize, vnodes: usize) -> Self {
        Self::with_ids(0..replicas as u32, vnodes)
    }

    /// Ring over an explicit id set — ids need not be contiguous, so a
    /// caller can model "replica 2 was decommissioned" without renumbering.
    pub(crate) fn with_ids(ids: impl IntoIterator<Item = u32>, vnodes: usize) -> Self {
        let mut ring = Self {
            points: Vec::new(),
            replicas: Vec::new(),
            vnodes: vnodes.max(1),
        };
        for id in ids {
            ring.add(id);
        }
        ring
    }

    /// Add a replica id. Returns false (and changes nothing) if already
    /// present. Only users whose hash falls on the arcs the new points
    /// claim move — ~1/N of them, asserted by the property tests.
    pub fn add(&mut self, id: u32) -> bool {
        if self.replicas.contains(&id) {
            return false;
        }
        self.replicas.push(id);
        self.replicas.sort_unstable();
        for vnode in 0..self.vnodes {
            self.points.push((point_for(id, vnode), id));
        }
        // Sort by (point, replica): the replica id breaks the (vanishingly
        // rare) point collision deterministically.
        self.points.sort_unstable();
        true
    }

    /// Remove a replica id. `Ok(false)` if absent (nothing changes),
    /// `Ok(true)` if removed. Users on the removed arcs fall through to
    /// the next point on the circle; everyone else is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`WouldEmptyRing`] — and changes nothing — when `id` is the
    /// only replica: a non-empty ring never becomes empty through
    /// `remove`, which is what keeps [`HashRing::route`] total on any ring
    /// constructed with at least one replica.
    pub fn remove(&mut self, id: u32) -> Result<bool, WouldEmptyRing> {
        let Ok(at) = self.replicas.binary_search(&id) else {
            return Ok(false);
        };
        if self.replicas.len() == 1 {
            return Err(WouldEmptyRing);
        }
        self.replicas.remove(at);
        self.points.retain(|&(_, r)| r != id);
        Ok(true)
    }

    /// The replica serving `user`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty — an empty serving tier cannot route.
    /// Rings built with ≥1 replica never reach that state (see
    /// [`WouldEmptyRing`]).
    pub fn route(&self, user: u64) -> u32 {
        self.route_hash(fx_hash_one(&user))
    }

    /// Every live replica id exactly once into `out` (cleared first), in
    /// the order a walk clockwise from `user`'s point meets them: first
    /// [`route(user)`](Self::route), then the replica that would serve
    /// `user` if that one left the ring, and so on. This is the failover
    /// order that keeps a user's writes where a removal would route them.
    /// Empty on an empty ring. A caller that reuses `out` allocates
    /// nothing here once it has held every id.
    pub fn successors_into(&self, user: u64, out: &mut Vec<u32>) {
        out.clear();
        let start = self.point_index(fx_hash_one(&user));
        for step in 0..self.points.len() {
            if out.len() == self.replicas.len() {
                break;
            }
            let id = self.points[(start + step) % self.points.len()].1;
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }

    /// Route a precomputed hash — for callers that place non-user keys
    /// (e.g. a stateless context request) onto the same circle. The value
    /// is passed through the ring's avalanche mix before lookup, so any
    /// deterministic 64-bit fingerprint routes uniformly.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub(crate) fn route_hash(&self, hash: u64) -> u32 {
        assert!(!self.points.is_empty(), "routing over an empty ring");
        self.points[self.point_index(hash)].1
    }

    /// Index of the first point at or after `hash`'s place on the circle,
    /// wrapping past the last point back to the first.
    fn point_index(&self, hash: u64) -> usize {
        let place = mix(hash);
        let at = self.points.partition_point(|&(point, _)| point < place);
        if at == self.points.len() {
            0
        } else {
            at
        }
    }

    /// Live replica ids, sorted ascending.
    pub(crate) fn replica_ids(&self) -> &[u32] {
        &self.replicas
    }
}

/// Domain-separation salt for vnode placement. Without it, replica 0's
/// vnode points hash exactly like plain user ids (Fx folds a leading zero
/// id into nothing: `fx((0u32, v)) == fx(v as u64)`), so every user id
/// below the vnode count landed *exactly on* one of replica 0's points —
/// a deterministic hot spot the distribution test catches.
const POINT_DOMAIN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Placement of one virtual node on the circle. Fixed-key FxHash over the
/// salted `(domain, replica, vnode)` triple, then the avalanche mix — no
/// per-process or per-build randomness anywhere, so the mapping survives
/// restarts and agrees across processes.
fn point_for(id: u32, vnode: usize) -> u64 {
    mix(fx_hash_one(&(POINT_DOMAIN, id, vnode as u64)))
}

/// SplitMix64's finalizer (Steele et al.): a fixed full-avalanche bijection
/// on `u64`. Every output bit depends on every input bit, which is what a
/// comparison-ordered circle needs and single-multiply Fx does not give
/// (see the module docs).
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = HashRing::new(3, 8);
        assert_eq!(ring.replica_ids(), &[0, 1, 2]);
        assert!(!ring.add(1));
        assert_eq!(ring.remove(1), Ok(true));
        assert_eq!(ring.remove(1), Ok(false));
        assert_eq!(ring.replica_ids(), &[0, 2]);
        assert!(ring.add(1));
        assert_eq!(ring.replica_ids().len(), 3);
    }

    #[test]
    fn routes_only_to_live_replicas() {
        let mut ring = HashRing::new(4, 16);
        ring.remove(2).unwrap();
        for user in 0..1000u64 {
            assert_ne!(
                ring.route(user),
                2,
                "user {user} routed to a removed replica"
            );
        }
    }

    #[test]
    fn remove_refuses_to_empty_the_ring() {
        let mut ring = HashRing::new(2, 8);
        assert_eq!(ring.remove(0), Ok(true));
        // Down to one replica: the last remove is refused, the ring is
        // untouched, and routing stays total.
        assert_eq!(ring.remove(1), Err(WouldEmptyRing));
        assert_eq!(ring.replica_ids(), &[1]);
        assert_eq!(ring.route(42), 1);
        // Removing an id that was never present is still a quiet no-op,
        // even at size one.
        assert_eq!(ring.remove(7), Ok(false));
        // Grow again and the previously refused id removes cleanly.
        assert!(ring.add(3));
        assert_eq!(ring.remove(1), Ok(true));
        assert_eq!(ring.replica_ids(), &[3]);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics() {
        HashRing::with_ids([], 8).route(1);
    }

    /// The first point at or after the user's place, by linear scan —
    /// the definition `route` answers with a binary search.
    fn scan(ring: &HashRing, user: u64) -> (u32, bool) {
        let place = mix(fx_hash_one(&user));
        match ring.points.iter().find(|&&(point, _)| point >= place) {
            Some(&(_, id)) => (id, false),
            None => (ring.points[0].1, true),
        }
    }

    #[test]
    fn routes_to_the_first_point_at_or_after_the_user_wrapping() {
        // One replica × 8 points and two × 8: small enough that many users
        // land past the last point and must wrap to the first.
        for ring in [HashRing::new(1, 8), HashRing::with_ids([3, 9], 8)] {
            let mut wrapped = 0;
            for user in 0..2_000u64 {
                let (want, wraps) = scan(&ring, user);
                assert_eq!(ring.route(user), want, "user {user}");
                wrapped += usize::from(wraps);
            }
            assert!(
                wrapped > 0,
                "no user wrapped on {} points",
                ring.points.len()
            );
        }
    }

    #[test]
    fn successors_start_at_the_route_and_yield_every_id_once() {
        let mut ring = HashRing::with_ids([0, 2, 5, 7, 11], 16);
        ring.remove(5).unwrap();
        let mut walk = vec![99];
        for user in 0..500u64 {
            ring.successors_into(user, &mut walk);
            assert_eq!(walk[0], ring.route(user), "user {user}");
            let mut sorted = walk.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, ring.replica_ids(), "user {user}: {walk:?}");
            // The second id is where the user goes if the first leaves.
            let mut shrunk = ring.clone();
            shrunk.remove(walk[0]).unwrap();
            assert_eq!(shrunk.route(user), walk[1], "user {user}");
        }
        HashRing::with_ids([], 8).successors_into(1, &mut walk);
        assert!(walk.is_empty());
    }

    #[test]
    fn explicit_ids_round_trip() {
        let ring = HashRing::with_ids([5, 9], 8);
        assert_eq!(ring.replica_ids(), &[5, 9]);
        let r = ring.route(123);
        assert!(r == 5 || r == 9);
    }
}
