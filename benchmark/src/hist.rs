//! Log-linear latency histogram and the round reducers.
//!
//! Every client thread owns its histograms, so recording is a plain
//! increment; threads are merged once per round. Values are nanoseconds.
//! Buckets are exact below 256 ns and split every octave above that into
//! 128 equal slices, so a reported percentile is within 0.4% of the true
//! sample (the tests allow 1%).

/// Slices per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^42 ns (73 minutes): no op of any workload
/// comes near it, and it bounds the bucket array at 36 octaves.
const MAX_VALUE: u64 = (1 << 42) - 1;
const BUCKETS: usize = ((42 - SUB_BITS as usize) + 1) * SUB as usize;

/// A fixed-size log-linear histogram of nanosecond samples.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(value: u64) -> usize {
    let v = value.min(MAX_VALUE);
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// Midpoint of the values that land in `bucket`.
fn value_of(bucket: usize) -> f64 {
    let b = bucket as u64;
    if b < 2 * SUB {
        return b as f64;
    }
    let shift = (b >> SUB_BITS) - 1;
    let low = (SUB + (b & (SUB - 1))) << shift;
    low as f64 + (1u64 << shift) as f64 / 2.0
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.max = 0;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact largest sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile in ns, `p` in (0, 1]. Empty → 0.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket's midpoint may overshoot the largest sample.
                return value_of(bucket).min(self.max as f64);
            }
        }
        self.max as f64
    }

    pub fn percentile_us(&self, p: f64) -> f64 {
        self.percentile_ns(p) / 1_000.0
    }
}

/// Median of `values` (mean of the middle two for an even count). Empty → 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a percentage of the
/// median — the spread `bench.round_spread_pct` reports. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method), which
/// is what the acceptance procedure uses. Fewer than two values → 0.
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |q: f64| {
        let pos = q * (n as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(0.75) - quantile(0.25)) / mid * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqp_common::rng::{Rng, StdRng};

    fn exact_percentile(sorted: &[u64], p: f64) -> f64 {
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64
    }

    fn assert_within_one_percent(samples: &mut [u64]) {
        let mut h = Hist::new();
        for &s in samples.iter() {
            h.record(s);
        }
        samples.sort_unstable();
        for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = exact_percentile(samples, p);
            let got = h.percentile_ns(p);
            assert!(
                (got - want).abs() <= want * 0.01,
                "p{p}: histogram {got} vs sorted {want}"
            );
        }
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.max_ns(), *samples.last().unwrap());
    }

    #[test]
    fn uniform_input_is_within_one_percent() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut samples: Vec<u64> = (0..50_000)
            .map(|_| rng.random_range(100u64..5_000_000))
            .collect();
        assert_within_one_percent(&mut samples);
    }

    #[test]
    fn bimodal_input_is_within_one_percent() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut samples: Vec<u64> = (0..50_000)
            .map(|i| {
                if i % 10 == 0 {
                    rng.random_range(40_000_000u64..60_000_000)
                } else {
                    rng.random_range(900u64..1_100)
                }
            })
            .collect();
        assert_within_one_percent(&mut samples);
    }

    #[test]
    fn single_value_and_empty() {
        let mut h = Hist::new();
        assert_eq!(h.percentile_ns(0.5), 0.0);
        for _ in 0..1000 {
            h.record(73_421);
        }
        for p in [0.5, 0.99, 1.0] {
            let got = h.percentile_ns(p);
            assert!((got - 73_421.0).abs() <= 734.0, "{got}");
        }
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_ns(0.99), 0.0);
    }

    #[test]
    fn buckets_are_monotone_and_cover_the_range() {
        let mut last = 0;
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1_000,
            65_535,
            1 << 30,
            MAX_VALUE,
            u64::MAX,
        ] {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "value {v} bucket {b}");
            last = b;
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut all) = (Hist::new(), Hist::new(), Hist::new());
        for i in 0..10_000u64 {
            let v = i * 37 + 5;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.percentile_ns(0.99), all.percentile_ns(0.99));
    }

    #[test]
    fn round_reducers() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(iqr_pct(&[7.0]), 0.0);
        // statistics.quantiles([1..=8], n=4) == [2.25, 4.5, 6.75].
        let eight: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((iqr_pct(&eight) - 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[2.0, 2.0, 2.0]), 0.0);
    }
}
