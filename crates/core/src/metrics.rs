//! Lock-free serving metrics: counters and HDR-style log-bucketed
//! latency histograms.
//!
//! The profiler in [`crate::profile`] answers *where time goes inside one
//! run*; this module answers *how a population of runs behaves under
//! load* — the p50/p95/p99 latencies, queue depths, and batch-size
//! distributions a serving layer reports. Recording must be cheap enough
//! to sit on the request hot path, so everything here is a relaxed atomic
//! increment: no locks, no allocation after construction.
//!
//! # Bucketing scheme
//!
//! [`LogHistogram`] stores unsigned samples (microseconds, batch sizes,
//! queue depths — any `u64`) in buckets whose width grows geometrically,
//! like HDR histograms: values below [`LogHistogram::LINEAR_MAX`] get
//! exact unit buckets; above that, each power of two is split into
//! [`LogHistogram::SUB_BUCKETS`] equal sub-buckets, bounding the relative
//! quantile error at `1 / SUB_BUCKETS` (~3%) while keeping the whole
//! histogram a few KiB of atomics.
//!
//! ```
//! use nsai_core::metrics::LogHistogram;
//!
//! let h = LogHistogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 1000);
//! let p50 = h.percentile(50.0);
//! assert!((450..=550).contains(&p50), "p50 {p50}");
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free histogram over `u64` samples with logarithmic buckets.
///
/// Concurrent recorders never contend on anything but cache lines;
/// readers observe a consistent-enough snapshot for reporting (relaxed
/// counters may be momentarily ahead of buckets mid-record, which matters
/// not at all for percentile reporting).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// Values below this get exact unit-width buckets.
    pub const LINEAR_MAX: u64 = 64;
    /// Sub-buckets per power-of-two range above the linear region.
    pub const SUB_BUCKETS: u64 = 32;
    /// Highest representable value; larger samples clamp into the last
    /// bucket (their exact value still feeds `sum` and `max`).
    pub const CLAMP_MAX: u64 = 1 << 40;

    /// An empty histogram.
    pub fn new() -> Self {
        let n = Self::index_of(Self::CLAMP_MAX) + 1;
        LogHistogram {
            buckets: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index of `value` (clamped to the representable range).
    fn index_of(value: u64) -> usize {
        let v = value.min(Self::CLAMP_MAX);
        if v < Self::LINEAR_MAX {
            return v as usize;
        }
        // log2 region: [2^k, 2^(k+1)) split into SUB_BUCKETS slices.
        let k = 63 - v.leading_zeros() as u64; // k >= 6
        let base = Self::LINEAR_MAX;
        let k0 = 6u64; // 2^6 == LINEAR_MAX
        let sub = ((v - (1 << k)) * Self::SUB_BUCKETS) >> k;
        (base + (k - k0) * Self::SUB_BUCKETS + sub) as usize
    }

    /// Lower edge of bucket `index`.
    fn lower_bound(index: usize) -> u64 {
        let i = index as u64;
        if i < Self::LINEAR_MAX {
            return i;
        }
        let k0 = 6u64;
        let k = k0 + (i - Self::LINEAR_MAX) / Self::SUB_BUCKETS;
        let sub = (i - Self::LINEAR_MAX) % Self::SUB_BUCKETS;
        (1 << k) + (sub << k) / Self::SUB_BUCKETS
    }

    /// Highest value bucket `index` can hold. The final (clamp) bucket
    /// absorbs every sample at or above [`Self::CLAMP_MAX`], so its upper
    /// bound is unbounded.
    fn upper_bound(index: usize) -> u64 {
        if index >= Self::index_of(Self::CLAMP_MAX) {
            u64::MAX
        } else {
            Self::lower_bound(index + 1) - 1
        }
    }

    /// Inclusive `(low, high)` bounds of the bucket that `value` lands in.
    ///
    /// Exposes the bucketing geometry for property tests and external
    /// reporting: `low <= value`, and `value <= high` always holds
    /// (values beyond [`Self::CLAMP_MAX`] share the final bucket, whose
    /// `high` is `u64::MAX`).
    pub fn bucket_bounds(value: u64) -> (u64, u64) {
        let i = Self::index_of(value);
        (Self::lower_bound(i), Self::upper_bound(i))
    }

    /// Record one sample. Wait-free: three relaxed atomic RMWs plus a CAS
    /// loop for the max.
    pub fn record(&self, value: u64) {
        self.buckets[Self::index_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        let mut seen = self.max.load(Ordering::Relaxed);
        while value > seen {
            match self
                .max
                .compare_exchange_weak(seen, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The value at percentile `p` (0–100): the *upper* bound of the
    /// first bucket whose cumulative count reaches `p`% of samples,
    /// clamped to the observed [`Self::max`]. Upper-bound reporting
    /// over-, never under-, estimates a latency quantile — the safe
    /// direction for SLO checks — and makes `percentile(100.0)` equal
    /// `max()` exactly. Returns 0 for an empty histogram. Relative error
    /// is bounded by the bucket width (`1 / SUB_BUCKETS` above the
    /// linear region; exact below it).
    pub fn percentile(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            if cumulative >= rank {
                return Self::upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(lower_bound, count)` pairs, in value order —
    /// the compact export form for reports.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::lower_bound(i), c))
            })
            .collect()
    }

    /// Fold every sample of `other` into `self` (bucket-wise addition;
    /// counts and sums add, maxes fold). Merging is commutative and
    /// associative up to the usual relaxed-snapshot caveat, and merging
    /// two histograms is equivalent to recording both sample streams
    /// into one — the reduction used to combine per-worker histograms
    /// into a fleet-wide view.
    pub fn merge(&self, other: &LogHistogram) {
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum.fetch_add(other.sum(), Ordering::Relaxed);
        let theirs = other.max();
        let mut seen = self.max.load(Ordering::Relaxed);
        while theirs > seen {
            match self
                .max
                .compare_exchange_weak(seen, theirs, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
    }

    /// Reset all buckets and counters to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A monotone event counter (submitted / completed / rejected ...).
///
/// A thin veneer over `AtomicU64` so metric structs read declaratively.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A high-water mark: the largest level observed since the last reset.
///
/// Used for queue depth. The queue reports its depth under its own lock
/// on every admission, so the peak never counts a request a worker has
/// already claimed; `fetch_max` keeps concurrent observers from losing
/// a maximum.
#[derive(Debug, Default)]
pub struct PeakGauge(AtomicU64);

impl PeakGauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold an observed level into the peak.
    pub fn observe(&self, level: u64) {
        self.0.fetch_max(level, Ordering::Relaxed);
    }

    /// Highest level observed since the last reset.
    pub fn peak(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Forget the recorded peak (for measurement windows over a
    /// long-lived gauge).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A windowed occupancy gauge with *consistent* level/peak snapshots.
///
/// It tracks a current level and the monotonic maximum it has reached,
/// both in **one** `AtomicU64` (level in the low 32 bits, peak in the
/// high 32), so a single relaxed load observes a coherent pair:
/// `peak >= level` holds in every snapshot a reader can ever take, even
/// mid-update. Two separate atomics could be read around a concurrent
/// `raise` — fine for a report printed after the fact but not for flow
/// control that *acts* on the reading. The gateway uses this gauge for
/// its per-connection in-flight window (admit vs. reject is decided on
/// `level()`) and for active-connection accounting.
///
/// Levels saturate at `u32::MAX`; raising past that pins the gauge
/// rather than wrapping into the peak bits.
#[derive(Debug, Default)]
pub struct WindowGauge(AtomicU64);

/// One coherent `(level, peak)` observation of a [`WindowGauge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Current occupancy.
    pub level: u32,
    /// Highest occupancy observed (monotonic until
    /// [`WindowGauge::reset_peak`]).
    pub peak: u32,
}

impl WindowGauge {
    const LEVEL_MASK: u64 = u32::MAX as u64;

    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    fn unpack(word: u64) -> (u32, u32) {
        (word as u32, (word >> 32) as u32)
    }

    fn pack(level: u32, peak: u32) -> u64 {
        u64::from(level) | (u64::from(peak) << 32)
    }

    /// Increase the level by `n` (saturating at `u32::MAX`), folding the
    /// new level into the peak in the same atomic exchange.
    pub fn raise(&self, n: u32) {
        let mut seen = self.0.load(Ordering::Relaxed);
        loop {
            let (level, peak) = Self::unpack(seen);
            let next_level = level.saturating_add(n);
            let next = Self::pack(next_level, peak.max(next_level));
            match self
                .0
                .compare_exchange_weak(seen, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => seen = now,
            }
        }
    }

    /// Decrease the level by `n` (saturating at 0). The peak is
    /// untouched — it is monotonic within a measurement window.
    pub fn lower(&self, n: u32) {
        let mut seen = self.0.load(Ordering::Relaxed);
        loop {
            let (level, peak) = Self::unpack(seen);
            let next = Self::pack(level.saturating_sub(n), peak);
            match self
                .0
                .compare_exchange_weak(seen, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => seen = now,
            }
        }
    }

    /// Current level.
    pub fn level(&self) -> u32 {
        Self::unpack(self.0.load(Ordering::Relaxed)).0
    }

    /// Highest level observed.
    pub fn peak(&self) -> u32 {
        Self::unpack(self.0.load(Ordering::Relaxed)).1
    }

    /// One coherent `(level, peak)` pair from a single atomic load.
    pub fn snapshot(&self) -> WindowSnapshot {
        let (level, peak) = Self::unpack(self.0.load(Ordering::Relaxed));
        WindowSnapshot { level, peak }
    }

    /// Restart the peak from the current level (for measurement windows
    /// over a long-lived gauge). The level itself is preserved.
    pub fn reset_peak(&self) {
        let mut seen = self.0.load(Ordering::Relaxed);
        loop {
            let level = seen & Self::LEVEL_MASK;
            let next = Self::pack(level as u32, level as u32);
            match self
                .0
                .compare_exchange_weak(seen, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => seen = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_linear_max() {
        let h = LogHistogram::new();
        for v in 0..LogHistogram::LINEAR_MAX {
            h.record(v);
        }
        for v in 0..LogHistogram::LINEAR_MAX {
            assert_eq!(LogHistogram::lower_bound(LogHistogram::index_of(v)), v);
        }
        assert_eq!(h.count(), LogHistogram::LINEAR_MAX);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_tight() {
        let mut prev = 0u64;
        for i in 1..LogHistogram::index_of(LogHistogram::CLAMP_MAX) {
            let lb = LogHistogram::lower_bound(i);
            assert!(lb > prev, "bucket {i}: {lb} <= {prev}");
            prev = lb;
        }
        // Every value maps to a bucket whose lower bound does not exceed it
        // and whose width is within ~1/SUB_BUCKETS of it.
        for v in [64u64, 65, 100, 1000, 4097, 1 << 20, (1 << 30) + 12345] {
            let i = LogHistogram::index_of(v);
            let lo = LogHistogram::lower_bound(i);
            let hi = LogHistogram::lower_bound(i + 1);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
            assert!(
                (hi - lo) as f64 / v as f64 <= 1.0 / 16.0,
                "bucket for {v} too wide: [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (p, expected) in [(50.0, 5_000u64), (95.0, 9_500), (99.0, 9_900)] {
            let got = h.percentile(p);
            let err = (got as f64 - expected as f64).abs() / expected as f64;
            assert!(err < 0.08, "p{p}: got {got}, want ~{expected}");
        }
        assert_eq!(h.percentile(100.0), h.percentile(99.999));
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.sum(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn huge_values_clamp_without_panicking() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(LogHistogram::CLAMP_MAX * 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Clamped samples share the overflow bucket, whose reported
        // percentile is the observed max — never a fabricated bound.
        assert_eq!(h.percentile(50.0), h.max());
    }

    #[test]
    fn percentile_reports_upper_bucket_bound() {
        // A single sample in the log region: every percentile must be
        // >= the sample (upper-bound semantics) and == max for p100.
        let h = LogHistogram::new();
        h.record(1000);
        assert!(h.percentile(50.0) >= 1000);
        assert_eq!(h.percentile(100.0), 1000);
        // Exactly on a power-of-two boundary: still never under-reports.
        let h = LogHistogram::new();
        h.record(4096);
        assert!(h.percentile(99.0) >= 4096);
        assert_eq!(h.percentile(100.0), 4096);
    }

    #[test]
    fn merge_equals_recording_both_streams() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let combined = LogHistogram::new();
        for v in 1..=500u64 {
            a.record(v * 3);
            combined.record(v * 3);
        }
        for v in 1..=200u64 {
            b.record(v * 7 + 1);
            combined.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.sum(), combined.sum());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.nonzero_buckets(), combined.nonzero_buckets());
        for p in [1.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(a.percentile(p), combined.percentile(p));
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 40_000);
        let buckets: u64 = h.nonzero_buckets().iter().map(|(_, c)| c).sum();
        assert_eq!(buckets, 40_000);
    }

    #[test]
    fn counter_and_gauge() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = PeakGauge::new();
        g.observe(3);
        g.observe(5);
        g.observe(2);
        assert_eq!(g.peak(), 5);
        g.reset();
        assert_eq!(g.peak(), 0);
        g.observe(1);
        assert_eq!(g.peak(), 1);
    }

    #[test]
    fn window_gauge_tracks_level_and_peak() {
        let g = WindowGauge::new();
        g.raise(3);
        g.raise(2);
        g.lower(4);
        g.raise(1);
        assert_eq!(g.level(), 2);
        assert_eq!(g.peak(), 5);
        g.lower(10);
        assert_eq!(g.level(), 0);
        assert_eq!(g.peak(), 5);
        g.raise(1);
        g.reset_peak();
        assert_eq!(g.snapshot(), WindowSnapshot { level: 1, peak: 1 });
    }

    #[test]
    fn window_gauge_saturates_instead_of_wrapping() {
        let g = WindowGauge::new();
        g.raise(u32::MAX);
        g.raise(7);
        assert_eq!(g.level(), u32::MAX);
        assert_eq!(g.peak(), u32::MAX);
        g.lower(u32::MAX);
        g.lower(1);
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn window_gauge_concurrent_updates_balance_exactly() {
        // 4 threads, each raise(1)/lower(1) 10k times: the final level
        // is exactly 0 and the peak is bounded by the worst possible
        // concurrency (4), never more.
        let g = WindowGauge::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        g.raise(1);
                        g.lower(1);
                    }
                });
            }
        });
        assert_eq!(g.level(), 0);
        assert!(g.peak() >= 1 && g.peak() <= 4, "peak {}", g.peak());
    }

    #[test]
    fn window_gauge_snapshots_are_always_coherent() {
        // The property two separate atomics cannot offer: under
        // concurrent raisers and lowerers, every snapshot satisfies
        // peak >= level. A reader hammers snapshots while writers churn;
        // any torn observation fails the assert.
        let g = WindowGauge::new();
        let stop = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let (g, stop) = (&g, &stop);
                s.spawn(move || {
                    while stop.load(Ordering::Relaxed) == 0 {
                        g.raise(3);
                        g.lower(3);
                    }
                });
            }
            let snap = g.snapshot();
            assert!(snap.peak >= snap.level);
            for _ in 0..200_000 {
                let snap = g.snapshot();
                assert!(
                    snap.peak >= snap.level,
                    "torn snapshot: level {} > peak {}",
                    snap.level,
                    snap.peak
                );
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(g.level(), 0);
    }

    #[test]
    fn reset_clears_histogram() {
        let h = LogHistogram::new();
        h.record(7);
        h.record(700);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
    }
}
