//! Incremental corpus maintenance for continuous retraining.
//!
//! A production deployment never retrains on "the" corpus — it retrains on
//! *recent* traffic. [`SlidingCorpus`] is the minimal structure that makes
//! the offline pipeline (§V-A) re-runnable continuously: raw log records
//! are appended as they arrive, the oldest records fall off once a capacity
//! is exceeded, and each retrain runs the ordinary
//! `segment → aggregate → reduce` pipeline over the current window. Keeping
//! the window in *raw record* form (rather than pre-segmented sessions) is
//! deliberate: the 30-minute rule can merge a user's new records into their
//! most recent session, so segmentation is only correct when re-run over
//! the full window.

use sqp_logsim::RawLogRecord;
use std::collections::VecDeque;

/// A bounded, append-only window over recent raw log records.
///
/// Records are kept in arrival order; [`append`](SlidingCorpus::append)
/// drops the oldest records once the configured capacity is exceeded.
/// Capacity is counted in records, not sessions — the retrainer re-segments
/// anyway, and record count is the quantity that bounds memory.
///
/// # Examples
///
/// ```
/// use sqp_logsim::RawLogRecord;
/// use sqp_sessions::SlidingCorpus;
///
/// let rec = |ts, q: &str| RawLogRecord {
///     machine_id: 1, timestamp: ts, query: q.into(), clicks: vec![],
/// };
/// let mut corpus = SlidingCorpus::new(2);
/// corpus.append([rec(100, "old"), rec(160, "mid"), rec(220, "new")]);
/// assert_eq!(corpus.len(), 2);          // capacity 2: "old" fell off
/// assert_eq!(corpus.dropped(), 1);
/// assert_eq!(corpus.records()[0].query, "mid");
/// ```
#[derive(Debug)]
pub struct SlidingCorpus {
    records: VecDeque<RawLogRecord>,
    capacity: usize,
    appended: u64,
    dropped: u64,
}

impl SlidingCorpus {
    /// An empty window holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            records: VecDeque::with_capacity(capacity.clamp(1, 1 << 20)),
            capacity: capacity.max(1),
            appended: 0,
            dropped: 0,
        }
    }

    /// A window seeded with an initial corpus (the records the serving
    /// model was trained on), trimmed to `capacity` if needed.
    pub fn with_seed(capacity: usize, seed: Vec<RawLogRecord>) -> Self {
        let mut corpus = Self::new(capacity);
        corpus.append(seed);
        corpus
    }

    /// Append records in arrival order, evicting the oldest past capacity.
    pub fn append<I: IntoIterator<Item = RawLogRecord>>(&mut self, records: I) {
        for rec in records {
            self.appended += 1;
            if self.records.len() == self.capacity {
                self.records.pop_front();
                self.dropped += 1;
            }
            self.records.push_back(rec);
        }
    }

    /// The current window as one contiguous slice, oldest record first —
    /// directly feedable to `segment` / `ModelSnapshot::from_raw_logs`.
    pub fn records(&mut self) -> &[RawLogRecord] {
        self.records.make_contiguous()
    }

    /// Records currently resident in the window.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records have been retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The configured window capacity, in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever appended (including the seed).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Records evicted off the old end of the window so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(machine: u64, ts: u64, q: &str) -> RawLogRecord {
        RawLogRecord {
            machine_id: machine,
            timestamp: ts,
            query: q.into(),
            clicks: vec![],
        }
    }

    #[test]
    fn append_preserves_arrival_order() {
        let mut c = SlidingCorpus::new(10);
        c.append([rec(1, 100, "a"), rec(1, 160, "b"), rec(2, 90, "c")]);
        let queries: Vec<&str> = c.records().iter().map(|r| r.query.as_str()).collect();
        assert_eq!(queries, ["a", "b", "c"]);
        assert_eq!(c.len(), 3);
        assert_eq!((c.appended(), c.dropped()), (3, 0));
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut c = SlidingCorpus::new(3);
        for i in 0..7u64 {
            c.append([rec(1, i * 60, &format!("q{i}"))]);
        }
        let queries: Vec<&str> = c.records().iter().map(|r| r.query.as_str()).collect();
        assert_eq!(queries, ["q4", "q5", "q6"]);
        assert_eq!((c.appended(), c.dropped()), (7, 4));
    }

    #[test]
    fn seed_is_trimmed_to_capacity() {
        let seed: Vec<_> = (0..5).map(|i| rec(1, i * 10, &format!("s{i}"))).collect();
        let mut c = SlidingCorpus::with_seed(2, seed);
        assert_eq!(c.len(), 2);
        assert_eq!(c.records()[0].query, "s3");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = SlidingCorpus::new(0);
        c.append([rec(1, 0, "only")]);
        assert_eq!(c.capacity(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn empty_appends_and_empty_windows_are_safe() {
        let mut c = SlidingCorpus::new(4);
        c.append(std::iter::empty());
        assert!(c.is_empty());
        assert_eq!(c.records(), &[]);
        assert_eq!((c.appended(), c.dropped()), (0, 0));
        // Seeding with nothing is the same as starting empty.
        let mut seeded = SlidingCorpus::with_seed(4, Vec::new());
        assert!(seeded.is_empty());
        assert_eq!(seeded.records(), &[]);
    }

    #[test]
    fn batch_larger_than_capacity_keeps_only_its_tail() {
        let mut c = SlidingCorpus::new(2);
        // One append of 5 records into capacity 2: only the newest two
        // survive, and the drop accounting reflects the whole overflow.
        c.append((0..5u64).map(|i| rec(1, i * 60, &format!("q{i}"))));
        let queries: Vec<&str> = c.records().iter().map(|r| r.query.as_str()).collect();
        assert_eq!(queries, ["q3", "q4"]);
        assert_eq!((c.appended(), c.dropped()), (5, 3));
        // A follow-up append keeps rolling the same window.
        c.append([rec(1, 999, "q5")]);
        let queries: Vec<&str> = c.records().iter().map(|r| r.query.as_str()).collect();
        assert_eq!(queries, ["q4", "q5"]);
        assert_eq!(c.dropped(), 4);
    }

    #[test]
    fn eviction_respects_arrival_order_not_timestamps() {
        // Records can arrive out of timestamp order (multi-machine logs);
        // the window is a traffic window, so eviction is strictly FIFO by
        // arrival — the pipeline re-sorts per machine when segmenting.
        let mut c = SlidingCorpus::new(2);
        c.append([rec(1, 900, "late-ts-first"), rec(2, 100, "early-ts-second")]);
        c.append([rec(3, 500, "third")]);
        let queries: Vec<&str> = c.records().iter().map(|r| r.query.as_str()).collect();
        assert_eq!(queries, ["early-ts-second", "third"]);
    }

    #[test]
    fn window_feeds_the_pipeline() {
        let mut c = SlidingCorpus::new(100);
        for u in 0..6 {
            c.append([rec(u, 100, "garden"), rec(u, 170, "garden shed")]);
        }
        let sessions = crate::segment_default(c.records());
        assert_eq!(sessions.len(), 6);
        assert_eq!(
            sessions.get(0).queries().collect::<Vec<_>>(),
            ["garden", "garden shed"]
        );
    }
}
