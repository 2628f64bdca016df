//! One membership view, and the one placement rule both tiers use.
//!
//! A user's session context lives in exactly one place: a replica's
//! tracker behind a [`RouterEngine`](crate::RouterEngine), or a server
//! behind a remote client. Whoever routes the user must find that place
//! again, before and after the tier changes size. [`Members`] is that
//! decision, written once: the members of a tier, each with a `u32` id
//! that is never reused, and the [`HashRing`] that places users on them.
//!
//! A view is immutable. A membership change builds the next view
//! ([`join`](Members::join), [`take_off_ring`](Members::take_off_ring),
//! [`remove`](Members::remove)) and the tier installs it with one swap,
//! so a request that loaded a view resolves every id the ring gives it
//! against that same view.
//!
//! A member may be **off the ring**: it is still a member (it serves the
//! sessions it holds) but no user routes to it. The router's draining
//! replica is one.
//!
//! Batches go through [`Members::scatter`]: a counting sort of the
//! requests by home member into one run per member, keeping request order
//! inside each run, and the order that puts the runs' answers back.

use crate::ring::{HashRing, WouldEmptyRing, DEFAULT_VNODES};
use sqp_serve::SuggestRequest;

/// The members of a tier and the ring that places users on them.
///
/// # Examples
///
/// ```
/// use sqp_router::Members;
///
/// let tier = Members::new(["a", "b", "c"]);
/// let (id, home) = tier.home(42);
/// assert_eq!(tier.get(id), Some(home));
/// // A join moves only the users the newcomer's arcs claim.
/// let (d, grown) = tier.join("d");
/// assert_eq!(d, 3);
/// let moved = (0..1_000u64)
///     .filter(|&user| grown.home(user).0 != tier.home(user).0)
///     .count();
/// assert!(moved <= 2 * 1_000 / 4);
/// assert!((0..1_000u64).all(|user| grown.home(user).0 == tier.home(user).0
///     || grown.home(user).0 == d));
/// ```
#[derive(Clone, Debug)]
pub struct Members<T> {
    ring: HashRing,
    /// Sorted by id. A superset of the ring's ids.
    members: Vec<(u32, T)>,
}

impl<T> Members<T> {
    /// Members with ids `0..n` in the order given, all on the ring.
    pub fn new(values: impl IntoIterator<Item = T>) -> Self {
        let members: Vec<(u32, T)> = (0..).zip(values).collect();
        let ring = HashRing::with_ids(members.iter().map(|&(id, _)| id), DEFAULT_VNODES);
        Self { ring, members }
    }

    /// The ring over the members that users route to.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Number of members, on the ring or off it.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Every member with its id, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.members.iter().map(|(id, value)| (*id, value))
    }

    /// The member with `id`, on the ring or off it.
    pub fn get(&self, id: u32) -> Option<&T> {
        self.index(id).map(|at| &self.members[at].1)
    }

    /// Position of member `id` in [`iter`](Self::iter) order.
    fn index(&self, id: u32) -> Option<usize> {
        self.members.binary_search_by_key(&id, |&(id, _)| id).ok()
    }

    /// The member that owns `user`, with its id.
    ///
    /// # Panics
    ///
    /// Panics if no member is on the ring.
    pub fn home(&self, user: u64) -> (u32, &T) {
        let id = self.ring.route(user);
        (id, self.get(id).expect("the ring routes only to members"))
    }

    /// The id the next [`join`](Self::join) gets: one past the highest id
    /// this view holds, so an id that left is never handed out again while
    /// a higher one remains.
    pub fn next_id(&self) -> u32 {
        self.members.last().map_or(0, |&(id, _)| id + 1)
    }

    /// True when users route to member `id`.
    pub fn is_on_ring(&self, id: u32) -> bool {
        self.ring.replica_ids().binary_search(&id).is_ok()
    }

    /// Ids of the members no user routes to, ascending.
    pub fn off_ring_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter()
            .map(|(id, _)| id)
            .filter(|&id| !self.is_on_ring(id))
    }

    /// Group `requests` by home member: one run per member, in member
    /// order, request order kept inside each run. `scratch` holds the
    /// buffers, so a caller that keeps one allocates nothing here once it
    /// has seen its largest batch. A one-member view routes nothing: its
    /// single run is the whole batch.
    pub fn scatter<'a>(
        &'a self,
        requests: &'a [SuggestRequest],
        scratch: &'a mut Scatter,
    ) -> Runs<'a, T> {
        let Scatter {
            runs,
            cursors,
            order,
            scattered,
        } = scratch;
        // `runs[m]..runs[m + 1]` is member `m`'s run; while counting,
        // `order[at]` is request `at`'s member.
        runs.clear();
        runs.resize(self.members.len() + 1, 0);
        order.clear();
        let split = if let [_] = self.members.as_slice() {
            runs[1] = requests.len();
            false
        } else {
            for request in requests {
                let id = self.ring.route(request.user);
                let at = self.index(id).expect("the ring routes only to members");
                order.push(at);
                runs[at + 1] += 1;
            }
            for at in 0..self.members.len() {
                runs[at + 1] += runs[at];
            }
            runs.windows(2)
                .filter(|run| run[0] < run[1])
                .nth(1)
                .is_some()
        };
        if split {
            // Counting sort: each request goes to its member's next free
            // slot, and `order[at]` becomes that slot.
            cursors.clear();
            cursors.extend_from_slice(&runs[..self.members.len()]);
            scattered.clear();
            scattered.resize(requests.len(), SuggestRequest { user: 0, k: 0 });
            for (request, place) in requests.iter().zip(order.iter_mut()) {
                let cursor = &mut cursors[*place];
                *place = *cursor;
                scattered[*cursor] = *request;
                *cursor += 1;
            }
        }
        Runs {
            members: self,
            requests: if split { scattered } else { requests },
            runs,
            order: if split { order } else { &[] },
        }
    }
}

impl<T: Clone> Members<T> {
    /// The next view: `value` joins as member [`next_id`](Self::next_id)
    /// and goes on the ring. Returns the newcomer's id and the view.
    pub fn join(&self, value: T) -> (u32, Self) {
        let id = self.next_id();
        let mut next = self.clone();
        next.ring.add(id);
        next.members.push((id, value));
        (id, next)
    }

    /// The next view: member `id` stays a member but leaves the ring, and
    /// its users move to their successors. Nothing changes for an id that
    /// is not on the ring.
    ///
    /// # Errors
    ///
    /// [`WouldEmptyRing`] when `id` is the last member on the ring.
    pub fn take_off_ring(&self, id: u32) -> Result<Self, WouldEmptyRing> {
        let mut next = self.clone();
        next.ring.remove(id)?;
        Ok(next)
    }

    /// The next view: member `id` is gone, from the ring too if it was on
    /// it.
    ///
    /// # Errors
    ///
    /// [`WouldEmptyRing`] when `id` is the last member on the ring.
    pub fn remove(&self, id: u32) -> Result<Self, WouldEmptyRing> {
        let mut next = self.take_off_ring(id)?;
        next.members.retain(|&(member, _)| member != id);
        Ok(next)
    }
}

/// Working buffers for [`Members::scatter`], reused batch after batch.
#[derive(Debug, Default)]
pub struct Scatter {
    runs: Vec<usize>,
    cursors: Vec<usize>,
    order: Vec<usize>,
    scattered: Vec<SuggestRequest>,
}

/// A batch grouped by home member: what [`Members::scatter`] returns.
#[derive(Debug)]
pub struct Runs<'a, T> {
    members: &'a Members<T>,
    /// The requests, grouped by member.
    requests: &'a [SuggestRequest],
    runs: &'a [usize],
    order: &'a [usize],
}

impl<'a, T> Runs<'a, T> {
    /// The non-empty runs in member order, each with its member.
    pub fn iter(&self) -> impl Iterator<Item = (&'a T, &'a [SuggestRequest])> + 'a {
        let requests = self.requests;
        self.members
            .iter()
            .zip(self.runs.windows(2))
            .filter(|(_, run)| run[0] < run[1])
            .map(move |((_, value), run)| (value, &requests[run[0]..run[1]]))
    }

    /// True when the batch spans more than one member, so the runs'
    /// answers must be put back in request order through
    /// [`order`](Self::order). An unsplit batch is its one run, already in
    /// request order.
    pub fn is_split(&self) -> bool {
        !self.order.is_empty()
    }

    /// For a split batch, per request in request order: where its answer
    /// sits among the runs' answers taken in [`iter`](Self::iter) order.
    /// Empty when the batch is not split.
    pub fn order(&self) -> &'a [usize] {
        self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(users: impl IntoIterator<Item = u64>) -> Vec<SuggestRequest> {
        users
            .into_iter()
            .map(|user| SuggestRequest { user, k: 1 })
            .collect()
    }

    fn users(run: &[SuggestRequest]) -> Vec<u64> {
        run.iter().map(|r| r.user).collect()
    }

    #[test]
    fn scatter_groups_by_home_and_the_order_puts_answers_back() {
        let tier = Members::new([10, 11, 12, 13]);
        // `k` carries each request's position, so repeated users stay
        // distinguishable.
        let batch: Vec<SuggestRequest> = (0..64)
            .chain([5, 5, 999])
            .enumerate()
            .map(|(k, user)| SuggestRequest { user, k })
            .collect();
        let mut scratch = Scatter::default();
        let runs = tier.scatter(&batch, &mut scratch);
        assert!(runs.is_split());
        let mut answered = Vec::new();
        for (member, run) in runs.iter() {
            assert!(run.iter().all(|r| tier.home(r.user).1 == member));
            // Request order is kept inside a run.
            assert!(run.windows(2).all(|p| p[0].k < p[1].k));
            answered.extend(run.iter().map(|r| r.k));
        }
        let gathered: Vec<usize> = runs.order().iter().map(|&at| answered[at]).collect();
        assert_eq!(gathered, (0..batch.len()).collect::<Vec<_>>());
    }

    #[test]
    fn one_home_is_one_unsplit_run() {
        let tier = Members::new(["only"]);
        let batch = requests(0..32);
        let mut scratch = Scatter::default();
        let runs = tier.scatter(&batch, &mut scratch);
        assert!(!runs.is_split());
        let all: Vec<_> = runs.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(users(all[0].1), users(&batch));

        // Several members, but every user on the same one.
        let tier = Members::new([0, 1, 2]);
        let (home, _) = tier.home(7);
        let same = requests((0..5_000).filter(|&u| tier.home(u).0 == home).take(9));
        let runs = tier.scatter(&same, &mut scratch);
        assert!(!runs.is_split());
        let all: Vec<_> = runs.iter().collect();
        assert_eq!((all.len(), all[0].0), (1, tier.get(home).unwrap()));
        assert_eq!(users(all[0].1), users(&same));
        assert_eq!(tier.scatter(&[], &mut scratch).iter().count(), 0);
    }

    #[test]
    fn views_change_by_one_step_and_ids_are_not_reused() {
        let tier = Members::new(['a', 'b', 'c']);
        let (d, tier) = tier.join('d');
        assert_eq!(d, 3);
        let drained = tier.take_off_ring(1).unwrap();
        assert_eq!(drained.len(), 4);
        assert!(!drained.is_on_ring(1));
        assert_eq!(drained.off_ring_ids().collect::<Vec<_>>(), vec![1]);
        assert_eq!(drained.get(1), Some(&'b'));
        assert!((0..500u64).all(|user| drained.home(user).0 != 1));
        let gone = drained.remove(1).unwrap();
        assert_eq!(gone.iter().map(|(id, _)| id).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(gone.get(1), None);
        assert_eq!(gone.join('e').0, 4);

        let last = Members::new(['x']);
        assert_eq!(last.remove(0).unwrap_err(), WouldEmptyRing);
        assert_eq!(last.take_off_ring(0).unwrap_err(), WouldEmptyRing);
    }
}
