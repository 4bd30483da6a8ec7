//! Streaming latency histograms and SLO accounting (ROADMAP item 4).
//!
//! [`LatencyHistogram`] is an HDR-style log-linear histogram: values below
//! [`SUB_BUCKETS`] are counted exactly, every higher octave is split into
//! [`SUB_BUCKETS`] equal sub-buckets, so the relative quantisation error is
//! bounded by `1 / SUB_BUCKETS` (~3.1%) at a fixed ~15 KiB footprint —
//! small enough to keep one histogram per waterfall phase per campaign
//! cell at full campaign scale. Recording is O(1), merging is an array
//! add (exactly associative and commutative — per-worker histograms
//! combine into the same aggregate regardless of worker count or merge
//! order), and percentile queries walk the counts once.
//!
//! [`SwitchMetrics`] bundles the per-switch latency histogram with one
//! histogram per waterfall phase (`entry`/`save`/`sched`/`restore`) and an
//! optional exact [`SloCounter`]: misses are counted at record time
//! against the configured threshold, so the miss rate is exact even though
//! bucket boundaries never align with an arbitrary SLO.

use crate::waterfall::{EpisodeWaterfall, PHASE_COUNT, PHASE_NAMES};

/// Sub-buckets per octave: 32 ⇒ ≤ 1/32 relative quantisation error.
pub const SUB_BUCKETS: usize = 32;

/// Number of value bits resolved exactly (`log2(SUB_BUCKETS)`).
const SUB_BITS: u32 = 5;

/// Total bucket count covering the full `u64` range: `SUB_BUCKETS` exact
/// low buckets (octave 0) plus `SUB_BUCKETS` for each of the
/// `64 - SUB_BITS` octaves above (msb 5..=63 → octave 1..=59).
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The percentiles every artifact and figure reports, in display order.
pub const REPORTED_PERCENTILES: [(&str, f64); 5] = [
    ("p50", 50.0),
    ("p90", 90.0),
    ("p99", 99.0),
    ("p99.9", 99.9),
    ("p99.99", 99.99),
];

/// A mergeable log-linear (HDR-style) histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64]>,
    count: u64,
    min: u64,
    max: u64,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// Bucket index of `v` — monotone non-decreasing in `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = msb - (SUB_BITS - 1);
    let sub = (v >> (msb - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
    octave as usize * SUB_BUCKETS + sub
}

/// Smallest value mapping to bucket `i` (the bucket's inclusive lower
/// bound).
fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let octave = (i / SUB_BUCKETS) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (octave - 1)
}

/// Largest value mapping to bucket `i` (inclusive upper bound).
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_lower(i + 1) - 1
}

impl LatencyHistogram {
    /// An empty histogram. Allocates its full fixed-size count array
    /// (`BUCKETS` × 8 bytes ≈ 15 KiB).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            min: u64::MAX,
            max: 0,
            total: 0,
        }
    }

    /// Records one sample. O(1).
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(v)] += n;
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.total = self.total.wrapping_add(v.wrapping_mul(n));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (`None` when empty) — exact, not
    /// bucket-quantised.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty) — exact.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total as f64 / self.count as f64)
    }

    /// The `p`-th percentile (0 < p ≤ 100): an upper bound of the bucket
    /// holding the sample of rank `ceil(p/100 × count)`, clamped to the
    /// exact recorded min/max. `None` when empty.
    ///
    /// Because the bucket index is monotone in the value, the reported
    /// figure always lands in the *same bucket* as the exact order
    /// statistic — i.e. within one bucket width (≤ 1/32 relative error).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The standard report: `(name, value)` for each of
    /// [`REPORTED_PERCENTILES`]. `None` when empty.
    pub fn report(&self) -> Option<[(&'static str, u64); REPORTED_PERCENTILES.len()]> {
        if self.count == 0 {
            return None;
        }
        let mut out = [("", 0u64); REPORTED_PERCENTILES.len()];
        for (slot, (name, p)) in out.iter_mut().zip(REPORTED_PERCENTILES) {
            *slot = (name, self.percentile(p).expect("non-empty"));
        }
        Some(out)
    }

    /// Merges `other` into `self`: plain array addition plus min/max/total
    /// folds, so the operation is exactly associative and commutative and
    /// conserves the recorded count.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.total = self.total.wrapping_add(other.total);
    }
}

/// Exact SLO accounting: samples are compared against the threshold at
/// record time, so misses are precise for any threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloCounter {
    /// Latency budget in cycles; a sample `> threshold` is a miss.
    pub threshold: u64,
    /// Samples recorded.
    pub total: u64,
    /// Samples above the threshold.
    pub misses: u64,
}

impl SloCounter {
    /// A fresh counter for the given budget.
    pub fn new(threshold: u64) -> SloCounter {
        SloCounter {
            threshold,
            total: 0,
            misses: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.total += 1;
        if v > self.threshold {
            self.misses += 1;
        }
    }

    /// Fraction of samples that missed the budget (0 when empty).
    pub fn miss_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.misses as f64 / self.total as f64
        }
    }

    /// Merges another counter tracking the *same* threshold.
    ///
    /// # Panics
    ///
    /// Panics when the thresholds differ — merging those would silently
    /// produce a meaningless miss rate.
    pub fn merge(&mut self, other: &SloCounter) {
        assert_eq!(
            self.threshold, other.threshold,
            "merging SLO counters with different budgets"
        );
        self.total += other.total;
        self.misses += other.misses;
    }
}

/// Per-switch metrics: the latency histogram, one histogram per waterfall
/// phase, and optional exact SLO accounting. One instance per campaign
/// cell; mergeable across cells/workers.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchMetrics {
    /// End-to-end switch latency (trigger → `mret`).
    pub latency: LatencyHistogram,
    /// Per-phase histograms, indexed like
    /// [`PHASE_NAMES`](crate::waterfall::PHASE_NAMES).
    pub phases: [LatencyHistogram; PHASE_COUNT],
    /// Exact SLO accounting, when a budget is configured.
    pub slo: Option<SloCounter>,
}

impl SwitchMetrics {
    /// Fresh metrics; `slo` is the optional latency budget in cycles.
    pub fn new(slo: Option<u64>) -> SwitchMetrics {
        SwitchMetrics {
            latency: LatencyHistogram::new(),
            phases: std::array::from_fn(|_| LatencyHistogram::new()),
            slo: slo.map(SloCounter::new),
        }
    }

    /// Records one decomposed switch episode.
    pub fn record_episode(&mut self, e: &EpisodeWaterfall) {
        let latency = e.record.latency();
        self.latency.record(latency);
        for (hist, &width) in self.phases.iter_mut().zip(e.phases.iter()) {
            hist.record(width);
        }
        if let Some(slo) = &mut self.slo {
            slo.record(latency);
        }
    }

    /// Builds metrics over a whole run's episodes.
    pub fn from_episodes(episodes: &[EpisodeWaterfall], slo: Option<u64>) -> SwitchMetrics {
        let mut m = SwitchMetrics::new(slo);
        for e in episodes {
            m.record_episode(e);
        }
        m
    }

    /// Merges another cell's metrics (same SLO configuration).
    ///
    /// # Panics
    ///
    /// Panics when exactly one side tracks an SLO, or the thresholds
    /// differ (see [`SloCounter::merge`]).
    pub fn merge(&mut self, other: &SwitchMetrics) {
        self.latency.merge(&other.latency);
        for (a, b) in self.phases.iter_mut().zip(other.phases.iter()) {
            a.merge(b);
        }
        match (&mut self.slo, &other.slo) {
            (None, None) => {}
            (Some(a), Some(b)) => a.merge(b),
            _ => panic!("merging SLO-tracked metrics with untracked metrics"),
        }
    }

    /// `(phase name, histogram)` pairs in waterfall order.
    pub fn named_phases(&self) -> [(&'static str, &LatencyHistogram); PHASE_COUNT] {
        std::array::from_fn(|i| (PHASE_NAMES[i], &self.phases[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvsim_isa::rng::Rng64;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
            assert_eq!(bucket_lower(bucket_index(v)), v);
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(SUB_BUCKETS as u64 - 1));
    }

    #[test]
    fn bucket_bounds_tile_the_u64_range() {
        // Lower bounds are strictly increasing past the exact region and
        // every bucket contains its own bounds.
        for i in 0..BUCKETS {
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(lo <= hi, "bucket {i}: {lo} > {hi}");
            assert_eq!(bucket_index(lo), i, "lower bound of {i} maps elsewhere");
            assert_eq!(bucket_index(hi), i, "upper bound of {i} maps elsewhere");
            if i + 1 < BUCKETS {
                assert_eq!(bucket_lower(i + 1), hi + 1, "gap after bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_is_bounded_by_one_part_in_32() {
        let mut rng = Rng64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> (rng.next_u64() % 64);
            let hi = bucket_upper(bucket_index(v));
            let width = hi - bucket_lower(bucket_index(v));
            if v >= SUB_BUCKETS as u64 {
                assert!(
                    (width as f64) <= v as f64 / (SUB_BUCKETS as f64 - 1.0),
                    "bucket width {width} too wide for value {v}"
                );
            } else {
                assert_eq!(width, 0);
            }
        }
    }

    /// Exact order statistic matching `percentile`'s rank definition.
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn percentiles_land_in_the_exact_oracles_bucket() {
        let mut rng = Rng64::new(42);
        for trial in 0..50 {
            let n = 1 + rng.below(2_000) as usize;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| rng.next_u64() >> (32 + rng.next_u64() % 28))
                .collect();
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            for (_, p) in REPORTED_PERCENTILES {
                let exact = exact_percentile(&samples, p);
                let reported = h.percentile(p).expect("non-empty");
                assert_eq!(
                    bucket_index(reported),
                    bucket_index(exact),
                    "trial {trial} p{p}: reported {reported} not in exact {exact}'s bucket"
                );
                assert!(reported >= exact, "upper-bound convention violated");
            }
            assert_eq!(h.percentile(100.0), Some(*samples.last().unwrap()));
        }
    }

    #[test]
    fn merge_is_associative_commutative_and_conserves_counts() {
        let mut rng = Rng64::new(9);
        let mut parts: Vec<LatencyHistogram> = Vec::new();
        let mut grand_total = 0u64;
        for _ in 0..8 {
            let mut h = LatencyHistogram::new();
            for _ in 0..rng.below(500) {
                h.record(rng.below(1 << 20));
                grand_total += 1;
            }
            parts.push(h);
        }
        // Left fold, right fold and a shuffled fold must agree exactly.
        let fold = |order: &[usize]| {
            let mut acc = LatencyHistogram::new();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let forward = fold(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let backward = fold(&[7, 6, 5, 4, 3, 2, 1, 0]);
        let shuffled = fold(&[3, 0, 7, 1, 5, 2, 6, 4]);
        // Nested grouping: ((a+b)+(c+d)) vs (a+(b+(c+d))).
        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        let mut cd = parts[2].clone();
        cd.merge(&parts[3]);
        let mut grouped = ab.clone();
        grouped.merge(&cd);
        let mut nested = parts[0].clone();
        let mut bcd = parts[1].clone();
        bcd.merge(&cd);
        nested.merge(&bcd);
        assert_eq!(forward, backward);
        assert_eq!(forward, shuffled);
        assert_eq!(grouped, nested);
        assert_eq!(forward.count(), grand_total, "count conservation");
        assert_eq!(
            forward.count(),
            parts.iter().map(LatencyHistogram::count).sum::<u64>()
        );
    }

    #[test]
    fn slo_counter_is_exact_for_arbitrary_thresholds() {
        let mut rng = Rng64::new(3);
        let threshold = 1234; // not a bucket boundary
        let mut slo = SloCounter::new(threshold);
        let mut expected = 0u64;
        for _ in 0..5_000 {
            let v = rng.below(4_000);
            slo.record(v);
            if v > threshold {
                expected += 1;
            }
        }
        assert_eq!(slo.misses, expected);
        assert_eq!(slo.total, 5_000);
        let rate = slo.miss_rate();
        assert!((rate - expected as f64 / 5_000.0).abs() < 1e-12);
    }

    #[test]
    fn switch_metrics_record_phases_and_merge() {
        use crate::stats::SwitchRecord;
        let episode = |trigger: u64, latency: u64| EpisodeWaterfall {
            record: SwitchRecord {
                trigger_cycle: trigger,
                entry_cycle: trigger + 1,
                mret_cycle: trigger + latency,
                cause: 7,
            },
            phases: [1, latency - 1, 0, 0],
        };
        let mut a = SwitchMetrics::new(Some(100));
        let mut b = SwitchMetrics::new(Some(100));
        for i in 0..50 {
            a.record_episode(&episode(i * 1000, 50 + i));
            b.record_episode(&episode(i * 1000, 80 + i));
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.latency.count(), 100);
        assert_eq!(merged.phases[0].count(), 100);
        assert_eq!(merged.phases[0].max(), Some(1));
        let slo = merged.slo.expect("slo configured");
        // a: latencies 50..=99 → 0 misses; b: 80..=129 → 29 misses
        // (81..=129 above 100 → 29 values 101..=129).
        assert_eq!(slo.misses, 29);
        assert_eq!(slo.total, 100);
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(99.0), None);
        assert!(h.report().is_none());
    }
}
