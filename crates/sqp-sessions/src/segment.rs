//! Session segmentation — the paper's §V-A.2.
//!
//! *"Both machine IDs and timestamps were used as cues … we adopt the
//! 30-minute rule convention by cutting at time-points where more than 30
//! minutes have passed between an issued query and URL click."*
//!
//! Sessions are the runs of one machine's records, taken in time order,
//! between cuts; a cut falls wherever the gap between a query and the
//! machine's **last activity** so far (query or final click) exceeds the
//! cutoff. The work is split so that text is only ever touched in input
//! order:
//!
//! 1. **Key pass, in input order.** Each record is read once — sequential
//!    memory over the records, their query heaps and their click vectors —
//!    its query is interned into a *provisional* table, and a 32-byte key
//!    `(machine, timestamp, last activity, provisional id)` is emitted at
//!    the record's input position. `parallel` shards this pass by
//!    contiguous chunk of the input; the shards' tables then fold into one,
//!    serially.
//! 2. **Order.** A permutation of input positions is bucketed by machine
//!    (stable, so a time-ordered log needs nothing more) and each bucket is
//!    sorted by `(timestamp, input position)` — adaptive, linear when the
//!    bucket is already in time order. Ties on `(machine, timestamp)` keep
//!    input order.
//! 3. **Cut.** A scan over the ordered keys applies the cut rule and writes
//!    provisional ids into one flat buffer; a session is a span of it.
//!
//! Sorting and cutting only ever look at one machine, so with `parallel`
//! the machines are dealt out in contiguous runs of about equal record
//! count, one per key-pass shard, and each run is ordered and cut on its
//! own thread into its own range of the buffer. The runs' spans are joined
//! in machine order, so the result is the one a single thread produces.
//!
//! No per-record `String`, per-session `Vec` or per-machine `Vec` is built.
//! [`crate::aggregate()`] turns provisional ids into final ones; consumers
//! that want owned text call [`Segmented::to_text_sessions`].

use sqp_common::threads::{self, map_on_threads};
use sqp_common::{FxHashMap, Interner, QueryId};
use sqp_logsim::RawLogRecord;

/// The conventional 30-minute cutoff (White et al., Jansen et al.).
pub const DEFAULT_CUTOFF_SECS: u64 = 30 * 60;

/// An owned-text session: consecutive queries of one machine within the
/// cutoff. The cold form of [`SessionRef`], for consumers that keep
/// sessions past the [`Segmented`] they came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextSession {
    /// Machine that issued the session.
    pub machine_id: u64,
    /// Timestamp of the first query.
    pub start_time: u64,
    /// Query texts in issue order.
    pub queries: Vec<String>,
}

impl TextSession {
    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the session holds no queries (never produced by [`segment`]).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// One record reduced to what segmentation needs. Keys stay in input order;
/// a record's input position is its index.
#[derive(Clone, Copy, Debug)]
struct Key {
    machine_id: u64,
    timestamp: u64,
    last_activity: u64,
    /// Provisional id of the query text.
    query: QueryId,
}

/// Where a session starts in the flat id buffer; it ends where the next
/// one starts.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Span {
    pub(crate) machine_id: u64,
    pub(crate) start_time: u64,
    pub(crate) start: u32,
}

/// Segmented sessions, ordered by machine id then start time, stored flat:
/// one table of distinct query texts, one buffer of provisional ids into
/// it, one span per session.
#[derive(Debug)]
pub struct Segmented {
    /// Distinct query texts; ids are provisional (first seen in input
    /// order) and mean nothing outside this value.
    pub(crate) table: Interner,
    /// Provisional ids of every record, session after session.
    pub(crate) ids: Vec<QueryId>,
    pub(crate) spans: Vec<Span>,
}

/// A borrowed view of one session of a [`Segmented`].
#[derive(Clone, Copy, Debug)]
pub struct SessionRef<'a> {
    /// Machine that issued the session.
    pub machine_id: u64,
    /// Timestamp of the first query.
    pub start_time: u64,
    ids: &'a [QueryId],
    table: &'a Interner,
}

impl<'a> SessionRef<'a> {
    /// Number of queries (never 0).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the session holds no queries (never produced by [`segment`]).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Query texts in issue order.
    pub fn queries(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let table = self.table;
        self.ids.iter().map(move |&q| table.resolve(q))
    }
}

impl Segmented {
    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the log was empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total queries over all sessions — one per input record.
    pub fn searches(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct query texts.
    pub fn unique_queries(&self) -> usize {
        self.table.len()
    }

    /// Where session `i` lies in the flat id buffer.
    pub(crate) fn span(&self, i: usize) -> std::ops::Range<usize> {
        let end = self
            .spans
            .get(i + 1)
            .map_or(self.ids.len(), |s| s.start as usize);
        self.spans[i].start as usize..end
    }

    /// Session `i` in (machine id, start time) order.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> SessionRef<'_> {
        let span = self.spans[i];
        SessionRef {
            machine_id: span.machine_id,
            start_time: span.start_time,
            ids: &self.ids[self.span(i)],
            table: &self.table,
        }
    }

    /// Sessions in (machine id, start time) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SessionRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The one conversion to owned text, for consumers that outlive `self`
    /// or compare sessions by value.
    pub fn to_text_sessions(&self) -> Vec<TextSession> {
        self.iter()
            .map(|s| TextSession {
                machine_id: s.machine_id,
                start_time: s.start_time,
                queries: s.queries().map(str::to_owned).collect(),
            })
            .collect()
    }
}

/// Fewest records a shard of the key pass is worth a thread for: below
/// this, starting the thread and folding its table back in cost more than
/// the shard saves.
const MIN_RECORDS_PER_SHARD: usize = 1 << 15;

/// Segment raw records into sessions with the given cutoff.
///
/// Output is deterministic: sessions are ordered by machine id, then start
/// time. Every record lands in exactly one session; order within a machine
/// is by timestamp, ties in input order.
pub fn segment(records: &[RawLogRecord], cutoff_secs: u64) -> Segmented {
    segment_with_parallelism(records, cutoff_secs, false)
}

/// Segment with the conventional 30-minute rule.
pub fn segment_default(records: &[RawLogRecord]) -> Segmented {
    segment(records, DEFAULT_CUTOFF_SECS)
}

/// [`segment`], optionally on several threads: the key pass by contiguous
/// chunk of the input, then ordering and cutting by contiguous run of
/// machines. The result is identical either way: provisional ids differ by
/// nothing a caller can observe, and no session crosses a machine.
pub fn segment_with_parallelism(
    records: &[RawLogRecord],
    cutoff_secs: u64,
    parallel: bool,
) -> Segmented {
    let chunks = if parallel {
        threads::parts(records.len(), MIN_RECORDS_PER_SHARD)
    } else {
        1
    };
    segment_in_chunks(records, cutoff_secs, chunks)
}

/// The one segmentation implementation: key pass over `chunks` contiguous
/// shards, bucketing by machine, then — on up to `chunks` threads, each
/// given whole machines — an order-and-cut scan.
fn segment_in_chunks(records: &[RawLogRecord], cutoff_secs: u64, chunks: usize) -> Segmented {
    assert!(
        u32::try_from(records.len()).is_ok(),
        "more than u32::MAX records"
    );
    let (table, keys) = key_pass(records, chunks);
    let (machines, mut order) = bucket_by_machine(&keys);
    let mut ids = vec![QueryId(0); keys.len()];

    // Contiguous runs of machines of about equal record count. A run owns
    // its machines' ranges of `order` and of `ids`, which are the same
    // range: every record contributes one id, in machine order.
    let mut runs = Vec::with_capacity(chunks);
    let (mut order_rest, mut ids_rest) = (order.as_mut_slice(), ids.as_mut_slice());
    let (mut next_machine, mut base) = (0usize, 0usize);
    for g in 1..=chunks {
        let first_machine = next_machine;
        let mut end = base;
        while end < keys.len() * g / chunks {
            end += machines[next_machine].1 as usize;
            next_machine += 1;
        }
        if end == base {
            continue; // an earlier machine held this run's whole share
        }
        let (run_order, rest) = std::mem::take(&mut order_rest).split_at_mut(end - base);
        order_rest = rest;
        let (run_ids, rest) = std::mem::take(&mut ids_rest).split_at_mut(end - base);
        ids_rest = rest;
        runs.push(Run {
            machines: &machines[first_machine..next_machine],
            order: run_order,
            ids: run_ids,
            base,
        });
        base = end;
    }

    let spans = map_on_threads(runs, |run| order_and_cut(&keys, run, cutoff_secs))
        .into_iter()
        .reduce(|mut spans, run| {
            spans.extend(run);
            spans
        })
        .unwrap_or_default();
    Segmented { table, ids, spans }
}

/// Whole machines' share of the permutation and of the id buffer, which
/// starts at `base` in the whole one.
struct Run<'a> {
    machines: &'a [(u64, u32)],
    order: &'a mut [u32],
    ids: &'a mut [QueryId],
    base: usize,
}

/// Passes 2b and 3 over one run: order each machine's records by
/// `(timestamp, input position)`, then cut them into sessions — one starts
/// at the machine's first record and wherever the gap from the machine's
/// last activity exceeds `cutoff_secs`. Returns the run's spans,
/// positioned in the whole id buffer.
fn order_and_cut(keys: &[Key], run: Run<'_>, cutoff_secs: u64) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut lo = 0usize;
    for &(machine_id, count) in run.machines {
        let positions = &mut run.order[lo..lo + count as usize];
        // Input position breaks timestamp ties, which is what a stable
        // sort of the machine's records by timestamp yields.
        positions.sort_unstable_by_key(|&i| (keys[i as usize].timestamp, i));

        let mut last_activity = 0u64;
        for (at, &i) in (lo..).zip(positions.iter()) {
            let key = keys[i as usize];
            if at == lo || key.timestamp.saturating_sub(last_activity) > cutoff_secs {
                spans.push(Span {
                    machine_id,
                    start_time: key.timestamp,
                    start: (run.base + at) as u32,
                });
            }
            run.ids[at] = key.query;
            last_activity = last_activity.max(key.last_activity);
        }
        lo += count as usize;
    }
    spans
}

/// Pass 1: intern every query and emit its record's key, in input order.
fn key_pass(records: &[RawLogRecord], chunks: usize) -> (Interner, Vec<Key>) {
    fn scan(records: &[RawLogRecord]) -> (Interner, Vec<Key>) {
        let mut table = Interner::new();
        let keys = records
            .iter()
            .map(|r| Key {
                machine_id: r.machine_id,
                timestamp: r.timestamp,
                last_activity: r.last_activity(),
                query: table.intern(&r.query),
            })
            .collect();
        (table, keys)
    }

    if chunks <= 1 || records.len() < chunks {
        return scan(records);
    }
    let shards = map_on_threads(records.chunks(records.len().div_ceil(chunks)), scan);
    // Later shards' tables fold into the first in shard order, which is
    // first-seen order over the whole input.
    let mut shards = shards.into_iter();
    let (mut table, mut keys) = shards.next().expect("a non-empty log has a first shard");
    keys.reserve_exact(records.len() - keys.len());
    for (local, shard_keys) in shards {
        let global: Vec<QueryId> = local.iter().map(|(_, text)| table.intern(text)).collect();
        keys.extend(shard_keys.into_iter().map(|k| Key {
            query: global[k.query.index()],
            ..k
        }));
    }
    (table, keys)
}

/// Pass 2: input positions grouped by machine, machines ascending by id,
/// input order kept within a machine. Returns `(machine id, record count)`
/// per machine in that order, and the permutation.
fn bucket_by_machine(keys: &[Key]) -> (Vec<(u64, u32)>, Vec<u32>) {
    // Dense bucket per machine in first-seen order, and each key's bucket.
    let mut bucket_of: FxHashMap<u64, u32> = FxHashMap::default();
    let mut machines: Vec<(u64, u32)> = Vec::new();
    let buckets: Vec<u32> = keys
        .iter()
        .map(|k| {
            let b = *bucket_of.entry(k.machine_id).or_insert_with(|| {
                machines.push((k.machine_id, 0));
                (machines.len() - 1) as u32
            });
            machines[b as usize].1 += 1;
            b
        })
        .collect();

    // Where each bucket starts once machines are laid out by ascending id.
    let mut by_id: Vec<u32> = (0..machines.len() as u32).collect();
    by_id.sort_unstable_by_key(|&b| machines[b as usize].0);
    let mut cursor = vec![0u32; machines.len()];
    let mut next = 0u32;
    for &b in &by_id {
        cursor[b as usize] = next;
        next += machines[b as usize].1;
    }

    let mut order = vec![0u32; keys.len()];
    for (i, &b) in buckets.iter().enumerate() {
        let at = &mut cursor[b as usize];
        order[*at as usize] = i as u32;
        *at += 1;
    }
    let machines = by_id.iter().map(|&b| machines[b as usize]).collect();
    (machines, order)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sqp_logsim::Click;

    pub(crate) fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    fn queries(sessions: &Segmented, i: usize) -> Vec<&str> {
        sessions.get(i).queries().collect()
    }

    #[test]
    fn splits_on_large_gap() {
        let records = vec![
            rec(1, 0, "a"),
            rec(1, 100, "b"),
            rec(1, 100 + 30 * 60 + 1, "c"), // gap just over cutoff
        ];
        let sessions = segment_default(&records);
        assert_eq!(sessions.len(), 2);
        assert_eq!(queries(&sessions, 0), ["a", "b"]);
        assert_eq!(queries(&sessions, 1), ["c"]);
    }

    #[test]
    fn gap_exactly_cutoff_does_not_split() {
        // Paper: "more than 30 minutes" — a gap of exactly 30:00 stays.
        let records = vec![rec(1, 0, "a"), rec(1, 30 * 60, "b")];
        let sessions = segment_default(&records);
        assert_eq!(sessions.len(), 1);
        assert_eq!(queries(&sessions, 0), ["a", "b"]);
    }

    #[test]
    fn clicks_extend_the_session_window() {
        // Query at t=0 with a click at t=25min; next query at t=50min.
        // Gap from last activity (25min) is 25min < cutoff ⇒ same session.
        let records = vec![
            RawLogRecord {
                machine_id: 1,
                timestamp: 0,
                query: "a".into(),
                clicks: vec![Click {
                    url: "u".into(),
                    timestamp: 25 * 60,
                }],
            },
            rec(1, 50 * 60, "b"),
        ];
        let sessions = segment_default(&records);
        assert_eq!(sessions.len(), 1);

        // Without the click the same pair splits.
        let no_click = vec![rec(1, 0, "a"), rec(1, 50 * 60, "b")];
        assert_eq!(segment_default(&no_click).len(), 2);
    }

    #[test]
    fn machines_are_independent() {
        let records = vec![
            rec(2, 0, "m2-a"),
            rec(1, 10, "m1-a"),
            rec(2, 20, "m2-b"),
            rec(1, 30, "m1-b"),
        ];
        let sessions = segment_default(&records);
        assert_eq!(sessions.len(), 2);
        // Deterministic machine order.
        assert_eq!(sessions.get(0).machine_id, 1);
        assert_eq!(queries(&sessions, 0), ["m1-a", "m1-b"]);
        assert_eq!(queries(&sessions, 1), ["m2-a", "m2-b"]);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let records = vec![rec(1, 100, "b"), rec(1, 0, "a")];
        let sessions = segment_default(&records);
        assert_eq!(sessions.len(), 1);
        assert_eq!(queries(&sessions, 0), ["a", "b"]);
        assert_eq!(sessions.get(0).start_time, 0);
    }

    #[test]
    fn empty_input() {
        let sessions = segment_default(&[]);
        assert!(sessions.is_empty());
        assert_eq!(sessions.searches(), 0);
        assert!(sessions.to_text_sessions().is_empty());
    }

    #[test]
    fn every_record_in_exactly_one_session() {
        let records: Vec<RawLogRecord> = (0..50)
            .map(|i| rec(i % 3, i * 700, &format!("q{i}")))
            .collect();
        let sessions = segment_default(&records);
        let total: usize = sessions.iter().map(|s| s.len()).sum();
        assert_eq!(total, records.len());
        assert_eq!(sessions.searches(), records.len());
    }

    #[test]
    fn custom_cutoff() {
        let records = vec![rec(1, 0, "a"), rec(1, 100, "b")];
        assert_eq!(segment(&records, 50).len(), 2);
        assert_eq!(segment(&records, 150).len(), 1);
    }

    #[test]
    fn owned_form_matches_the_view() {
        let records = vec![rec(7, 5, "x"), rec(7, 9, "y"), rec(3, 1, "x")];
        let sessions = segment_default(&records);
        assert_eq!(sessions.unique_queries(), 2);
        let text = sessions.to_text_sessions();
        assert_eq!(text.len(), 2);
        assert_eq!((text[0].machine_id, text[0].start_time), (3, 1));
        assert_eq!(text[1].queries, ["x", "y"]);
        assert_eq!(text[1].len(), sessions.get(1).len());
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::aggregate::{aggregate, aggregate_in_parts};
    use sqp_common::rng::{Rng, StdRng};
    use sqp_common::QuerySeq;
    use sqp_logsim::Click;

    #[test]
    fn partition_invariants() {
        for case in 0..128u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let cutoff = rng.random_range(500u64..2500);
            // Build per-machine monotone timelines.
            let mut clocks = std::collections::HashMap::new();
            let mut records = Vec::new();
            for i in 0..rng.random_range(1usize..80) {
                let m = rng.random_range(0u64..4);
                let gap = rng.random_range(0u64..4000);
                let t = clocks.entry(m).or_insert(0u64);
                *t += gap;
                records.push(RawLogRecord {
                    machine_id: m,
                    timestamp: *t,
                    query: format!("q{i}"),
                    clicks: vec![],
                });
            }
            let sessions = segment(&records, cutoff).to_text_sessions();

            // 1. Partition: total query count preserved.
            let total: usize = sessions.iter().map(|s| s.queries.len()).sum();
            assert_eq!(total, records.len(), "case {case}");

            // 2. No session is empty.
            for s in &sessions {
                assert!(!s.queries.is_empty(), "case {case}");
            }

            // 3. Within a machine, consecutive sessions start later and
            //    later.
            for m in 0u64..4 {
                let mine: Vec<&TextSession> =
                    sessions.iter().filter(|s| s.machine_id == m).collect();
                for w in mine.windows(2) {
                    assert!(w[1].start_time > w[0].start_time, "case {case}");
                }
            }
        }
    }

    /// The algorithm this module replaced, kept as the oracle: group per
    /// machine, stable-sort each machine by timestamp, cut on the gap from
    /// the machine's last activity.
    fn reference_segment(records: &[RawLogRecord], cutoff_secs: u64) -> Vec<TextSession> {
        let mut by_machine: std::collections::BTreeMap<u64, Vec<&RawLogRecord>> =
            Default::default();
        for r in records {
            by_machine.entry(r.machine_id).or_default().push(r);
        }
        let mut sessions: Vec<TextSession> = Vec::new();
        for (machine_id, mut recs) in by_machine {
            recs.sort_by_key(|r| r.timestamp);
            let mut last_activity = 0u64;
            for (n, r) in recs.into_iter().enumerate() {
                if n == 0 || r.timestamp.saturating_sub(last_activity) > cutoff_secs {
                    sessions.push(TextSession {
                        machine_id,
                        start_time: r.timestamp,
                        queries: Vec::new(),
                    });
                }
                let open = sessions.last_mut().expect("a session was just opened");
                open.queries.push(r.query.to_string());
                last_activity = last_activity.max(r.last_activity());
            }
        }
        sessions
    }

    /// Per-session interning and a list of distinct sessions in the order
    /// they are first seen, on one thread, over owned sessions.
    fn reference_aggregate(sessions: &[TextSession]) -> (Interner, Vec<(QuerySeq, u64)>) {
        let mut interner = Interner::new();
        let mut weighted: Vec<(QuerySeq, u64)> = Vec::new();
        for s in sessions {
            let ids = interner.intern_session(&s.queries);
            match weighted.iter_mut().find(|(seen, _)| *seen == ids) {
                Some((_, count)) => *count += 1,
                None => weighted.push((ids, 1)),
            }
        }
        (interner, weighted)
    }

    fn id_text_pairs(interner: &Interner) -> Vec<(u32, &str)> {
        interner.iter().map(|(id, text)| (id.0, text)).collect()
    }

    /// A log built to hit every edge the ordering and the cut rule have.
    fn hostile_log(rng: &mut StdRng, cutoff: u64) -> Vec<RawLogRecord> {
        const MACHINES: [u64; 6] = [0, u64::MAX, 7, 8, 1 << 40, 3];
        let n = rng.random_range(0usize..120);
        let vocabulary = rng.random_range(1u32..12);
        let mut records: Vec<RawLogRecord> = (0..n)
            .map(|_| {
                // Few distinct timestamps, spaced around the cutoff, so
                // duplicates within a machine and exact-cutoff gaps abound.
                let timestamp = rng.random_range(0u64..12) * cutoff / 2;
                let clicks = if rng.random_range(0u32..4) == 0 {
                    // A click that can outlast the next query.
                    vec![Click {
                        url: "u".into(),
                        timestamp: timestamp + rng.random_range(0u64..3 * cutoff),
                    }]
                } else {
                    vec![]
                };
                RawLogRecord {
                    machine_id: MACHINES[rng.random_range(0usize..MACHINES.len())],
                    timestamp,
                    query: format!("q{}", rng.random_range(0u32..vocabulary)),
                    clicks,
                }
            })
            .collect();
        // A machine with exactly one record, and a shuffled input.
        if n > 0 {
            records.push(RawLogRecord {
                machine_id: 99,
                timestamp: cutoff,
                query: "only".into(),
                clicks: vec![],
            });
        }
        for i in (1..records.len()).rev() {
            records.swap(i, rng.random_range(0usize..i + 1));
        }
        records
    }

    #[test]
    fn matches_the_group_sort_cut_reference() {
        for case in 0..320u64 {
            let mut rng = StdRng::seed_from_u64(0x5e55 + case);
            let cutoff = rng.random_range(2u64..2_000);
            let records = if case == 0 {
                Vec::new() // the empty log
            } else {
                hostile_log(&mut rng, cutoff)
            };
            // The same records with two of every three on one machine, so
            // it alone outweighs every other run's share; and on two
            // machines, fewer than most chunk counts below.
            let mut dominated = records.clone();
            let mut two_machines = records.clone();
            for (i, (d, t)) in dominated.iter_mut().zip(&mut two_machines).enumerate() {
                if i % 3 != 0 {
                    d.machine_id = 7;
                }
                t.machine_id = [3, u64::MAX][i % 2];
            }

            for (shape, records) in [
                ("hostile", records),
                ("dominated", dominated),
                ("two machines", two_machines),
            ] {
                let want_sessions = reference_segment(&records, cutoff);
                let (want_interner, want_weighted) = reference_aggregate(&want_sessions);

                // One shard is `parallel = false`; 2, 3 and 5 are `true`
                // with the record threshold out of the way.
                for chunks in [1usize, 2, 3, 5] {
                    let at = format!("case {case} ({shape}), {chunks} chunks");
                    let got = segment_in_chunks(&records, cutoff, chunks);
                    assert_eq!(got.to_text_sessions(), want_sessions, "{at}");
                    let mut interner = Interner::new();
                    let aggregated = aggregate(&got, &mut interner);
                    assert_eq!(
                        id_text_pairs(&interner),
                        id_text_pairs(&want_interner),
                        "{at}"
                    );
                    assert_eq!(aggregated.sessions, want_weighted, "{at}");
                }
            }
        }
    }

    #[test]
    fn aggregation_parts_match_the_first_seen_reference() {
        for case in 0..320u64 {
            let mut rng = StdRng::seed_from_u64(0xa66 + case);
            let cutoff = rng.random_range(2u64..2_000);
            let records = hostile_log(&mut rng, cutoff);
            let segmented = segment(&records, cutoff);
            let (want_interner, want) = reference_aggregate(&segmented.to_text_sessions());
            for parts in [1, 2, 3, 5] {
                let mut interner = Interner::new();
                let got = aggregate_in_parts(&segmented, &mut interner, Some(parts));
                assert_eq!(got.sessions, want, "case {case}, {parts} parts");
                assert_eq!(
                    id_text_pairs(&interner),
                    id_text_pairs(&want_interner),
                    "case {case}, {parts} parts"
                );
            }
        }
    }

    #[test]
    fn parallel_segmentation_is_identical() {
        let mut rng = StdRng::seed_from_u64(77);
        // Enough records for two shards.
        let mut records = Vec::new();
        let mut clocks = std::collections::HashMap::new();
        for i in 0..2 * MIN_RECORDS_PER_SHARD + 5 {
            let m = rng.random_range(0u64..600);
            let t = clocks.entry(m).or_insert(0u64);
            *t += rng.random_range(0u64..4000);
            records.push(RawLogRecord {
                machine_id: m,
                timestamp: *t,
                query: format!("q{}", i % 997),
                clicks: vec![],
            });
        }
        let sequential = segment_with_parallelism(&records, 1800, false);
        let parallel = segment_with_parallelism(&records, 1800, true);
        assert_eq!(sequential.to_text_sessions(), parallel.to_text_sessions());
        assert_eq!(
            sequential.to_text_sessions(),
            reference_segment(&records, 1800)
        );
    }
}
