//! Metric primitives: atomic [`Counter`]/[`FloatCounter`]/[`Gauge`]/
//! [`FloatGauge`] and the log-linear latency [`Histogram`]. Everything
//! records through plain atomics — no lock is ever taken.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing `u64` counter (lock-free).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` accumulator (lock-free: the value lives
/// as bits in an `AtomicU64`, added through a compare-and-swap loop).
///
/// Because floating-point addition is order-sensitive, concurrent adders
/// produce an order-dependent (though always consistent) sum; a
/// single-writer `FloatCounter` accumulates exactly the same bits as a
/// plain `f64 +=` sequence — which is what makes snapshot-derived means
/// bitwise comparable to an in-order fold of the same values.
#[derive(Debug, Default)]
pub struct FloatCounter {
    bits: AtomicU64,
}

impl FloatCounter {
    /// Adds `v` to the running sum.
    pub fn add(&self, v: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Current sum.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A settable `u64` level (queue depth, high-water mark, ledger balance) —
/// lock-free, with the read-modify-write helpers the serving ledgers need.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v` (release ordering, so a subsequent acquire [`Gauge::get`]
    /// on another thread observes it — the queue-depth mirror relies on
    /// this).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Release);
    }

    /// Current value (acquire ordering, pairing with [`Gauge::set`]).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Adds `n` (a ledger charge).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a ledger refund that must never
    /// wrap when charges and refunds race).
    pub fn sub_saturating(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raises the gauge to `v` if above the current value (a high-water
    /// mark).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Stores `v` only if the gauge still holds zero (a write-once marker,
    /// e.g. a window-open timestamp). Returns whether this call set it.
    pub fn set_if_unset(&self, v: u64) -> bool {
        self.value
            .compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// A settable `f64` level (per-epoch loss, throughput) — lock-free via
/// bit-stored atomics like [`FloatCounter`].
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// Stores `v`.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution of a [`Histogram`]: values below 2^7 µs get one
/// exact bucket each, and every power of two above is split into 2^7
/// equal-width buckets. A reported quantile therefore overstates the exact
/// nearest-rank value by at most a factor `1 + 2^-HISTOGRAM_PRECISION_BITS`
/// (< 0.8 %) and never understates it.
pub const HISTOGRAM_PRECISION_BITS: u32 = 7;

const SUB_BUCKETS: usize = 1 << HISTOGRAM_PRECISION_BITS;
/// The exact range, plus one group of [`SUB_BUCKETS`] per power of two
/// from 2^7 up to 2^63: 7,424 buckets covering the full `u64` range.
const BUCKETS: usize = SUB_BUCKETS * (64 - HISTOGRAM_PRECISION_BITS as usize + 1);

/// Bucket index of `us`: the value itself below [`SUB_BUCKETS`], else its
/// power-of-two group and the [`HISTOGRAM_PRECISION_BITS`] bits below the
/// leading one.
fn bucket_of(us: u64) -> usize {
    if us < SUB_BUCKETS as u64 {
        return us as usize;
    }
    let shift = 63 - us.leading_zeros() - HISTOGRAM_PRECISION_BITS;
    (shift as usize + 1) * SUB_BUCKETS + ((us >> shift) as usize - SUB_BUCKETS)
}

/// Largest value that lands in bucket `index` (inverse of [`bucket_of`]).
fn upper_bound_of(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let shift = (index / SUB_BUCKETS - 1) as u32;
    let lower = ((SUB_BUCKETS + index % SUB_BUCKETS) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A log-linear histogram over microsecond observations (lock-free: one
/// atomic bucket increment plus sum/max updates per observation).
///
/// The buckets cover the whole `u64` range at a fixed relative resolution
/// ([`HISTOGRAM_PRECISION_BITS`]), so no caller chooses boundaries and no
/// observation is ever clamped into an overflow bucket. The ~58 KB of
/// bucket counters are allocated once, at registration; the count and sum
/// are exact, and so is the maximum.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state (its non-empty
    /// buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(index, n)| {
                let n = n.load(Ordering::Relaxed);
                (n > 0).then(|| (upper_bound_of(index), n))
            })
            .collect();
        HistogramSnapshot {
            count: buckets.iter().map(|(_, n)| n).sum(),
            buckets,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket upper bound µs, observations)` of every non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub sum_us: u64,
    /// Exact maximum observation, µs.
    pub max_us: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile, resolved to the upper bound of the bucket
    /// holding that rank and clamped to the exact `max_us` (0 when empty):
    /// `exact <= reported <= exact * (1 + 2^-HISTOGRAM_PRECISION_BITS)`.
    /// `q` in `(0, 1]`.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0u64;
        for &(upper_us, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper_us.min(self.max_us);
            }
        }
        self.max_us
    }
}

/// Nearest-rank percentile over an ascending-sorted slice of microsecond
/// observations (0 for an empty slice).
pub fn nearest_rank_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let counter = Counter::default();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = Gauge::default();
        gauge.set(7);
        gauge.add(3);
        gauge.sub_saturating(100);
        assert_eq!(gauge.get(), 0);
        gauge.set_max(9);
        gauge.set_max(4);
        assert_eq!(gauge.get(), 9);
    }

    #[test]
    fn gauge_set_if_unset_is_write_once() {
        let gauge = Gauge::default();
        assert!(gauge.set_if_unset(5));
        assert!(!gauge.set_if_unset(9));
        assert_eq!(gauge.get(), 5);
    }

    #[test]
    fn float_counter_matches_sequential_sum_bitwise() {
        let counter = FloatCounter::default();
        let mut reference = 0.0f64;
        for i in 0..100 {
            let v = (i as f64) * 0.3 + 0.1;
            counter.add(v);
            reference += v;
        }
        assert_eq!(counter.get().to_bits(), reference.to_bits());
    }

    #[test]
    fn float_gauge_stores_last_value() {
        let gauge = FloatGauge::default();
        gauge.set(1.5);
        gauge.set(-2.25);
        assert_eq!(gauge.get(), -2.25);
    }

    #[test]
    fn concurrent_counter_increments_from_n_threads() {
        // The loom-style interleaving check from the issue: N scoped
        // threads hammer one counter, one float counter, and one gauge
        // ledger; no increment may be lost.
        let counter = Counter::default();
        let float = FloatCounter::default();
        let ledger = Gauge::default();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        counter.inc();
                        float.add(0.5);
                        ledger.add(2);
                        ledger.sub_saturating(1);
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(counter.get(), total);
        assert_eq!(float.get(), total as f64 * 0.5);
        assert_eq!(ledger.get(), total);
    }

    /// `exact <= reported <= exact * (1 + 2^-HISTOGRAM_PRECISION_BITS)`,
    /// in integers so it holds across the whole `u64` range.
    #[track_caller]
    fn assert_within_bound(reported: u64, exact: u64) {
        assert!(
            exact <= reported && reported - exact <= exact >> HISTOGRAM_PRECISION_BITS,
            "reported {reported} outside the bound of exact {exact}"
        );
    }

    /// Every `2^k - 1`, `2^k` and `2^k + 1` for `k` in `1..=max_k`.
    fn powers_of_two_and_neighbours(max_k: u32) -> Vec<u64> {
        (1..=max_k)
            .flat_map(|k| {
                let p = 1u64 << k;
                [p - 1, p, p + 1]
            })
            .collect()
    }

    #[test]
    fn histogram_bucket_boundaries_are_le_inclusive() {
        // Each bucket's upper bound is the largest value it holds and the
        // next value opens the next bucket, so the buckets partition the
        // u64 range with Prometheus `le` semantics.
        let mut values: Vec<u64> = (0..1 << 20).collect();
        values.extend(powers_of_two_and_neighbours(63));
        values.push(u64::MAX);
        for v in values {
            let index = bucket_of(v);
            assert!(index < BUCKETS, "{v} maps past the last bucket");
            let upper = upper_bound_of(index);
            assert_within_bound(upper, v);
            if upper < u64::MAX {
                assert_eq!(bucket_of(upper + 1), index + 1, "value {v}");
            }
            if index > 0 {
                assert!(upper_bound_of(index - 1) < v, "value {v}");
            }
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_bound_of(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_resolve_to_bucket_upper_bounds() {
        let hist = Histogram::default();
        for us in [1, 2, 3, 50, 60, 900, 5000] {
            hist.observe(us);
        }
        let snap = hist.snapshot();
        // rank(0.5 * 7) = 4 → 50, below 2^7 so its bucket is exact.
        assert_eq!(snap.quantile_us(0.50), 50);
        // rank(0.8 * 7) = 6 → 900, whose bucket spans 900..=903.
        assert_eq!(snap.quantile_us(0.80), 903);
        // rank 7 → the bucket 4992..=5023, clamped to the exact max.
        assert_eq!(snap.quantile_us(0.95), 5000);
        assert_eq!(snap.quantile_us(1.0), 5000);
        assert_eq!((snap.count, snap.sum_us, snap.max_us), (7, 6016, 5000));
        assert_eq!(Histogram::default().snapshot().quantile_us(0.5), 0);
    }

    #[test]
    fn histogram_quantiles_stay_within_the_documented_bound() {
        // A seeded splitmix64 stream shifted to log-uniform magnitudes up
        // to 2^40, so sums stay exact in u64.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let random: Vec<u64> = (0..20_000).map(|_| next() >> (24 + next() % 40)).collect();
        let sets = [
            (0..1 << 20).collect(),
            powers_of_two_and_neighbours(60),
            random,
        ];
        for values in sets {
            let hist = Histogram::default();
            for &v in &values {
                hist.observe(v);
            }
            let snap = hist.snapshot();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            assert_eq!(snap.count, values.len() as u64);
            assert_eq!(snap.sum_us, values.iter().sum::<u64>());
            assert_eq!(snap.max_us, *sorted.last().unwrap());
            for q in [
                0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0,
            ] {
                assert_within_bound(snap.quantile_us(q), nearest_rank_us(&sorted, q));
            }
            assert_eq!(snap.quantile_us(1.0), snap.max_us);
        }
    }

    #[test]
    fn concurrent_histogram_observations_lose_nothing() {
        let hist = Histogram::default();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let hist = &hist;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.observe((t as u64 * PER_THREAD + i) % 20_000);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(snap.count, total);
        assert_eq!(snap.buckets.iter().map(|(_, n)| n).sum::<u64>(), total);
        assert_eq!(snap.sum_us, (0..total).map(|v| v % 20_000).sum::<u64>());
        assert_eq!(snap.max_us, 19_999);
    }

    #[test]
    fn nearest_rank_matches_reference_points() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank_us(&v, 0.50), 50);
        assert_eq!(nearest_rank_us(&v, 0.95), 95);
        assert_eq!(nearest_rank_us(&v, 1.0), 100);
        assert_eq!(nearest_rank_us(&[7], 0.95), 7);
        assert_eq!(nearest_rank_us(&[], 0.95), 0);
        assert_eq!(nearest_rank_us(&[1, 2], 0.50), 1);
    }
}
