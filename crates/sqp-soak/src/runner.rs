//! The one traffic runner every soak drives its tier with.
//!
//! A soak is a [`Scenario`] — an op mix, a logical clock, an observer that
//! holds the soak's invariants, and a stop rule — plus an executor that
//! turns an [`Op`] into an [`Outcome`] on some tier, and a control closure
//! (publishes, rolls, membership verbs) that runs on the calling thread
//! while the workers run. [`drive`] owns everything the soaks share:
//!
//! * one scoped worker per entry of the per-worker state slice, each with
//!   its own user range ([`Ctx::user`]) and its own rng, seeded per worker
//!   and per phase (`seed ^ (worker << 32) ^ (phase << 16)`), so a phase's
//!   traffic is a pure function of the seed;
//! * one [`Tally`] per worker: the ledger, the content fold and the worst
//!   op latency, with `answered + shed + degraded + refused == sent`
//!   asserted per worker when it stops.
//!
//! [`surface`] is the executor for any [`ServeSurface`], through its
//! admission-controlled `try_*` forms.

use sqp_common::hash::{fnv1a, FNV_OFFSET_BASIS};
use sqp_common::rng::StdRng;
use sqp_serve::{Overloaded, ServeSurface, SuggestRequest, Suggestion, TrackOutcome};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// User ids per worker: worker `w`'s users are `w * USER_STRIDE + u`, so
/// no two workers ever share a session.
pub(crate) const USER_STRIDE: u64 = 1_000_000;

/// Fold a `u64` into an FNV-1a state.
pub fn fold_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// One operation a worker issues.
#[derive(Clone, Debug)]
pub enum Op {
    /// `(user, query)`: record a query without suggesting.
    Track(u64, String),
    /// `(user, k)`: suggest against the user's tracked session.
    Suggest(u64, usize),
    /// `(user, query, k)`: record a query and suggest against the updated
    /// session.
    TrackAndSuggest(u64, String, usize),
    /// One batched suggest.
    Batch(Vec<SuggestRequest>),
    /// Drop idle sessions.
    Evict,
}

impl Op {
    /// A batched suggest of `k` for each of `users`, in order.
    pub fn batch(users: impl IntoIterator<Item = u64>, k: usize) -> Op {
        Op::Batch(
            users
                .into_iter()
                .map(|user| SuggestRequest { user, k })
                .collect(),
        )
    }

    /// The user each answered list belongs to, in list order.
    pub(crate) fn users(&self) -> Vec<u64> {
        match self {
            Op::Suggest(user, _) | Op::TrackAndSuggest(user, _, _) => vec![*user],
            Op::Batch(requests) => requests.iter().map(|r| r.user).collect(),
            Op::Track(..) | Op::Evict => Vec::new(),
        }
    }
}

/// How an op resolved.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A track was recorded.
    Tracked(TrackOutcome),
    /// A suggest was answered: one list per request (one for a single-user
    /// suggest).
    Lists(Vec<Vec<Suggestion>>),
    /// An eviction sweep dropped this many sessions.
    Evicted(usize),
    /// A track was turned away: a draining engine refuses to start a
    /// session.
    Refused,
    /// Admission control shed the op, typed.
    Shed,
    /// No endpoint could answer in time, typed.
    Degraded,
}

/// One worker's ledger (or, after [`Tally::merge`], a fleet's).
///
/// Equality compares the counters and the content fold, never `worst`:
/// wall-clock time does not replay.
#[derive(Clone, Copy, Debug)]
pub struct Tally {
    /// Ops issued.
    pub sent: u64,
    /// Ops with a normal outcome (tracked, answered or evicted).
    pub answered: u64,
    /// Ops shed by admission control.
    pub shed: u64,
    /// Ops that degraded typed.
    pub degraded: u64,
    /// Tracks a draining engine refused.
    pub refused: u64,
    /// Tracks that restarted an established session — counted by the
    /// observer, which alone knows which users are established.
    pub resets: u64,
    /// FNV-1a fold of every outcome, in send order.
    pub content: u64,
    /// The slowest single op.
    pub worst: Duration,
}

impl Default for Tally {
    fn default() -> Self {
        Self {
            sent: 0,
            answered: 0,
            shed: 0,
            degraded: 0,
            refused: 0,
            resets: 0,
            content: FNV_OFFSET_BASIS,
            worst: Duration::ZERO,
        }
    }
}

impl PartialEq for Tally {
    fn eq(&self, other: &Self) -> bool {
        let ledger = |t: &Tally| [t.sent, t.answered, t.shed, t.degraded, t.refused, t.resets];
        ledger(self) == ledger(other) && self.content == other.content
    }
}

impl Eq for Tally {}

impl Tally {
    /// Sum a fleet's ledgers. Worker order is fixed, so the content fold is
    /// deterministic.
    pub fn merge(tallies: &[Tally]) -> Tally {
        let mut total = Tally::default();
        for t in tallies {
            total.sent += t.sent;
            total.answered += t.answered;
            total.shed += t.shed;
            total.degraded += t.degraded;
            total.refused += t.refused;
            total.resets += t.resets;
            total.content = fold_u64(total.content, t.content);
            total.worst = total.worst.max(t.worst);
        }
        total
    }

    /// Count one resolved op and fold what it returned.
    fn record(&mut self, op: &Op, outcome: &Outcome) {
        match outcome {
            Outcome::Tracked(out) => {
                self.answered += 1;
                if let Op::Track(user, _) = op {
                    self.content = fold_u64(self.content, *user);
                }
                self.content = fold_u64(self.content, out.context_len as u64);
                self.content = fold_u64(self.content, out.new_session as u64);
            }
            Outcome::Lists(lists) => {
                self.answered += 1;
                for (user, list) in op.users().into_iter().zip(lists) {
                    self.content = fold_u64(self.content, user);
                    for s in list {
                        self.content = fnv1a(self.content, s.query.as_bytes());
                    }
                }
            }
            Outcome::Evicted(_) => self.answered += 1,
            Outcome::Refused => {
                self.refused += 1;
                if let Op::Track(user, _) = op {
                    self.content = fold_u64(self.content, user ^ u64::MAX);
                }
            }
            Outcome::Shed => self.shed += 1,
            Outcome::Degraded => self.degraded += 1,
        }
    }
}

/// Where one op sits: which worker issues it, and its index in the
/// worker's phase.
#[derive(Clone, Copy, Debug)]
pub struct Ctx {
    /// The worker's index.
    pub(crate) worker: usize,
    /// The op's index within this worker's phase.
    pub i: u64,
}

impl Ctx {
    /// This worker's `u`-th user.
    pub fn user(&self, u: u64) -> u64 {
        self.worker as u64 * USER_STRIDE + u
    }
}

/// When a worker stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// After exactly this many ops.
    After(u64),
    /// After at least this many ops, and not before the control closure
    /// has returned — traffic keeps flowing through every publish the
    /// control plane makes.
    WithControl(u64),
}

/// Seeded per-worker traffic: what to send, when, how to check it, and
/// when to stop.
pub struct Scenario<'a, W> {
    /// Traffic seed.
    pub seed: u64,
    /// Phase number: a phase with another number draws other traffic.
    pub phase: u64,
    /// The logical clock: op index → `now`.
    pub clock: &'a (dyn Fn(u64) -> u64 + Sync),
    /// The op mix: op `ctx.i` of a worker, drawn from its state and rng.
    pub mix: &'a (dyn Fn(&Ctx, &mut W, &mut StdRng) -> Op + Sync),
    /// The observer: checks one resolved op against the scenario's
    /// invariants and may count resets. The runner has already counted and
    /// folded it.
    pub observe: &'a (dyn Fn(&Ctx, &mut W, &Op, &Outcome, &mut Tally) + Sync),
    /// When each worker stops.
    pub stop: Stop,
}

/// An observer that checks nothing.
pub fn no_check<W>(_: &Ctx, _: &mut W, _: &Op, _: &Outcome, _: &mut Tally) {}

/// What the control closure can see of the fleet while it runs.
pub struct Progress {
    ops: AtomicU64,
    control_done: AtomicBool,
}

impl Progress {
    /// Ops completed so far, across every worker.
    pub(crate) fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

/// Marks the control closure returned, also when it unwinds, so that a
/// failed control-plane assertion stops the workers instead of hanging
/// the scope.
struct ControlDone<'a>(&'a AtomicBool);

impl Drop for ControlDone<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Run `scenario` with one worker per entry of `workers` against `exec`
/// while `control` runs on the calling thread. Returns each worker's
/// ledger, in worker order, and what `control` returned.
///
/// `exec` resolves an op at a logical time; `None` means it did not, and
/// fails that worker's accounting assertion. A panic in a worker is
/// re-raised here with its own message.
pub fn drive<W: Send, R>(
    scenario: &Scenario<'_, W>,
    exec: &(dyn Fn(&Op, u64) -> Option<Outcome> + Sync),
    workers: &mut [W],
    control: impl FnOnce(&Progress) -> R,
) -> (Vec<Tally>, R) {
    let progress = &Progress {
        ops: AtomicU64::new(0),
        control_done: AtomicBool::new(false),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (workers.iter_mut().enumerate())
            .map(|(w, state)| scope.spawn(move || work(scenario, exec, w, state, progress)))
            .collect();
        let returned = {
            let _done = ControlDone(&progress.control_done);
            control(progress)
        };
        let tallies = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect();
        (tallies, returned)
    })
}

/// One worker's loop: its ops, in order, until `scenario.stop`.
fn work<W>(
    scenario: &Scenario<'_, W>,
    exec: &(dyn Fn(&Op, u64) -> Option<Outcome> + Sync),
    worker: usize,
    state: &mut W,
    progress: &Progress,
) -> Tally {
    let mut rng =
        StdRng::seed_from_u64(scenario.seed ^ ((worker as u64) << 32) ^ (scenario.phase << 16));
    let mut tally = Tally::default();
    let mut i = 0u64;
    while match scenario.stop {
        Stop::After(n) => i < n,
        Stop::WithControl(n) => i < n || !progress.control_done.load(Ordering::Acquire),
    } {
        let ctx = Ctx { worker, i };
        let op = (scenario.mix)(&ctx, state, &mut rng);
        let started = Instant::now();
        let outcome = exec(&op, (scenario.clock)(i));
        tally.worst = tally.worst.max(started.elapsed());
        tally.sent += 1;
        if let Some(outcome) = outcome {
            tally.record(&op, &outcome);
            (scenario.observe)(&ctx, state, &op, &outcome, &mut tally);
        }
        progress.ops.fetch_add(1, Ordering::Relaxed);
        i += 1;
    }
    assert_eq!(
        tally.answered + tally.shed + tally.degraded + tally.refused,
        tally.sent,
        "phase {}, worker {worker} lost operations: {tally:?}",
        scenario.phase
    );
    tally
}

/// The executor for any [`ServeSurface`], through its admission-controlled
/// `try_*` forms: a shed is [`Outcome::Shed`], and a track reporting a
/// context of length 0 — the draining engine's refusal sentinel, since an
/// admitted track's context holds at least the query itself — is
/// [`Outcome::Refused`].
pub fn surface<S: ServeSurface + ?Sized>(
    tier: &S,
) -> impl Fn(&Op, u64) -> Option<Outcome> + Sync + '_ {
    fn lists(answer: Result<Vec<Vec<Suggestion>>, Overloaded>) -> Outcome {
        answer.map_or(Outcome::Shed, Outcome::Lists)
    }
    move |op, now| {
        Some(match op {
            Op::Track(user, query) => match tier.track(*user, query, now) {
                out if out.context_len == 0 => Outcome::Refused,
                out => Outcome::Tracked(out),
            },
            Op::Suggest(user, k) => lists(tier.try_suggest(*user, *k, now).map(|l| vec![l])),
            Op::TrackAndSuggest(user, query, k) => lists(
                tier.try_track_and_suggest(*user, query, *k, now)
                    .map(|l| vec![l]),
            ),
            Op::Batch(requests) => lists(tier.try_suggest_batch(requests, now)),
            Op::Evict => Outcome::Evicted(tier.evict_idle(now)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::rng::Rng;

    /// One drawn user per op, logged in the worker's state.
    fn scenario(phase: u64, stop: Stop) -> Scenario<'static, Vec<u64>> {
        Scenario {
            seed: 7,
            phase,
            clock: &|i| i,
            mix: &|ctx, log, rng| {
                log.push(ctx.user(rng.random_range(0u64..1_000)));
                Op::Suggest(log[log.len() - 1], 1)
            },
            observe: &no_check,
            stop,
        }
    }

    fn answer_all(_: &Op, _: u64) -> Option<Outcome> {
        Some(Outcome::Lists(vec![Vec::new()]))
    }

    fn logs(phase: u64) -> Vec<Vec<u64>> {
        let mut logs = vec![Vec::new(); 3];
        let (tallies, ()) = drive(
            &scenario(phase, Stop::After(50)),
            &answer_all,
            &mut logs,
            |_| {},
        );
        assert!(tallies.iter().all(|t| t.sent == 50 && t.answered == 50));
        logs
    }

    #[test]
    fn the_seed_and_phase_fix_each_workers_ops() {
        let first = logs(0);
        assert_eq!(first, logs(0), "same seed, same phase: same ops");
        let next_phase = logs(1);
        for (w, log) in first.iter().enumerate() {
            assert_ne!(log, &next_phase[w], "worker {w}: a phase draws anew");
            assert!(log.iter().all(|&u| u / USER_STRIDE == w as u64));
        }
        assert_ne!(first[0], first[1], "workers draw their own streams");
    }

    #[test]
    #[should_panic(expected = "lost operations")]
    fn an_op_the_executor_drops_fails_the_ledger() {
        let drop_every_tenth = |op: &Op, now: u64| answer_all(op, now).filter(|_| now % 10 != 9);
        drive(
            &scenario(0, Stop::After(20)),
            &drop_every_tenth,
            &mut [Vec::new()],
            |_| {},
        );
    }

    #[test]
    fn a_control_bound_fleet_runs_until_control_returns() {
        const GOAL: u64 = 2_000;
        let mut logs = [Vec::new(), Vec::new()];
        let (tallies, seen) = drive(
            &scenario(0, Stop::WithControl(1)),
            &answer_all,
            &mut logs,
            |progress| {
                while progress.ops() < GOAL {
                    std::thread::yield_now();
                }
                progress.ops()
            },
        );
        let sent: u64 = tallies.iter().map(|t| t.sent).sum();
        assert!(sent >= seen && seen >= GOAL, "{sent} ops, {seen} at return");
    }
}
