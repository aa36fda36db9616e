//! A log-linear latency histogram: the health registry's per-instance
//! service times, and any caller's own latency sample set.

use parsim::SimDuration;

/// Sub-buckets per octave: each power-of-two range is split by the top
/// `SUB_BITS` mantissa bits, bounding quantile error to 1/8 of the value.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB + SUB;

/// A log-linear histogram of durations in nanoseconds.
///
/// Each power-of-two octave is split into `SUB` linear sub-buckets (the
/// HDR-histogram scheme), so recording is a couple of shifts and quantile
/// bounds are precise to 12.5% instead of a factor of two, while the whole
/// `u64` range still fits in a few hundred buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(nanos: u64) -> usize {
        if nanos < SUB as u64 {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros(); // >= SUB_BITS
        let sub = ((nanos >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUB + sub
    }

    /// Exclusive upper bound of bucket `i`.
    fn bucket_upper(i: usize) -> u64 {
        if i < SUB {
            return i as u64 + 1;
        }
        let group = (i / SUB) as u32; // >= 1
        let sub = (i % SUB) as u64;
        let exp = group + SUB_BITS - 1;
        let step = 1u64 << (exp - SUB_BITS);
        (1u64 << exp).saturating_add((sub + 1).saturating_mul(step))
    }

    /// Records one duration (in nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum += nanos;
        self.max = self.max.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum.checked_div(self.count).unwrap_or(0))
    }

    /// Sum of the recorded samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos(self.sum)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// Folds another histogram into this one: bucket-by-bucket sums, so
    /// the merged quantile bounds carry the same 12.5%-plus-one-nanosecond
    /// guarantee over the union of both sample sets. Per-instance latency
    /// histograms aggregate into machine-wide views this way (the health
    /// snapshot and `bridge-top`).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper bound (exclusive, in nanoseconds) of the smallest bucket
    /// prefix containing at least `q` (0..=1) of the samples.
    ///
    /// # Error bound
    ///
    /// Values below `SUB` (= 8) ns are recorded exactly. Above that, a
    /// value `v` lands in a bucket of width `2^(floor(log2 v) - 3)`, so
    /// the returned bound `b` satisfies `v < b <= v + v/8 + 1`: the true
    /// quantile is never overstated by more than 12.5% (plus one
    /// nanosecond of rounding). A histogram holding exactly one sample
    /// short-circuits and returns that sample's value exactly.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if self.count == 1 {
            // One sample: every quantile is that sample, exactly.
            return self.max;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        for d in [0, 1, 2, 3, 1000, 1_000_000] {
            h.record(d);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.total(), SimDuration::from_nanos(1_001_006));
        assert_eq!(h.max(), SimDuration::from_millis(1));
        assert!(h.quantile_bound(0.5) <= 4);
        assert!(h.quantile_bound(1.0) >= 1_000_000);
    }

    #[test]
    fn histogram_quantile_bounds_are_log_linear_tight() {
        for v in [0u64, 5, 9, 100, 1_000, 12_345, 1_000_000, 987_654_321] {
            // Two identical samples exercise the bucket math (a single
            // sample short-circuits to the exact value).
            let mut h = Histogram::default();
            h.record(v);
            h.record(v);
            let bound = h.quantile_bound(1.0);
            assert!(bound > v, "bound {bound} must exceed the sample {v}");
            assert!(bound <= v + v / 8 + 1, "bound {bound} too loose for {v}");
        }
    }

    #[test]
    fn single_sample_histogram_quantiles_are_exact() {
        for v in [0u64, 7, 8, 12_345, 987_654_321] {
            let mut h = Histogram::default();
            h.record(v);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(h.quantile_bound(q), v, "q={q} for single sample {v}");
            }
        }
    }

    #[test]
    fn quantiles_at_bucket_boundaries() {
        // Powers of two sit exactly on bucket starts: 1024 opens the
        // bucket [1024, 1152). With many samples at both 1024 and a far
        // larger value, p50 must report 1024's bucket bound and p99 the
        // large value's.
        let mut h = Histogram::default();
        for _ in 0..50 {
            h.record(1024);
        }
        for _ in 0..50 {
            h.record(1_000_000);
        }
        let p50 = h.quantile_bound(0.50);
        assert!(p50 > 1024 && p50 <= 1024 + 1024 / 8, "p50 = {p50}");
        let p99 = h.quantile_bound(0.99);
        assert!(
            p99 > 1_000_000 && p99 <= 1_000_000 + 1_000_000 / 8 + 1,
            "p99 = {p99}"
        );
        // A boundary value and its predecessor land in adjacent buckets:
        // 1151 is the last value of 1024's bucket, 1152 opens the next.
        let (a, b) = (Histogram::bucket_of(1151), Histogram::bucket_of(1152));
        assert_eq!(a + 1, b, "1151 and 1152 straddle a bucket boundary");
        assert_eq!(Histogram::bucket_upper(a), 1152);
    }

    #[test]
    fn merge_folds_counts_sums_and_max() {
        let mut a = Histogram::default();
        a.record(5);
        a.record(1_000);
        let mut b = Histogram::default();
        b.record(70);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(
            a.total(),
            SimDuration::from_nanos(5 + 1_000 + 70 + 2_000_000)
        );
        assert_eq!(a.max(), SimDuration::from_nanos(2_000_000));
        // Merging an empty histogram changes nothing.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
    }

    proptest::proptest! {
        /// The merged histogram's quantile bounds hold over the union of
        /// both sample sets: for any quantile `q`, the bound is at least
        /// the exact `q`-quantile of the combined samples and overstates
        /// it by at most 12.5% plus one nanosecond — the same guarantee
        /// one histogram gives over its own samples.
        #[test]
        fn merged_quantile_bounds_hold(
            xs in proptest::collection::vec(0u64..=1_000_000_000_000, 1..64),
            ys in proptest::collection::vec(0u64..=1_000_000_000_000, 1..64),
            q_pcts in proptest::collection::vec(1u64..=100, 1..8),
        ) {
            let mut a = Histogram::default();
            for &x in &xs {
                a.record(x);
            }
            let mut b = Histogram::default();
            for &y in &ys {
                b.record(y);
            }
            let mut merged = a.clone();
            merged.merge(&b);
            let mut all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            all.sort_unstable();
            proptest::prop_assert_eq!(merged.count(), all.len() as u64);
            for &q_pct in &q_pcts {
                let q = q_pct as f64 / 100.0;
                let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
                let exact = all[rank - 1];
                let bound = merged.quantile_bound(q);
                proptest::prop_assert!(
                    bound > exact || (bound == exact && merged.count() == 1),
                    "q={} bound {} understates exact {}",
                    q, bound, exact
                );
                proptest::prop_assert!(
                    bound <= exact + exact / 8 + 1,
                    "q={} bound {} overshoots exact {} past the 12.5%+1 guarantee",
                    q, bound, exact
                );
            }
        }
    }
}
