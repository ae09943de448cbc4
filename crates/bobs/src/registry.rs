//! The metrics registry: named atomic counters, gauges and fixed-bucket
//! log-scale histograms.
//!
//! Handles are `Arc`-shared `Clone`s of the underlying atomics, so a hot
//! loop holds its handles directly and never touches the registry lock —
//! the `Mutex` guards only name → handle resolution and snapshots.  Every
//! write is a single atomic RMW; a histogram record is three (bucket,
//! count, sum).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Magnitude buckets per sign: bucket `b` covers `sign · [2^b, 2^(b+1))`,
/// with the top bucket absorbing everything at or beyond `2^62`.
pub(crate) const MAG_BUCKETS: usize = 63;

/// A monotonic counter.  Always recorded — counters back the public stats
/// structs, which must count whether or not telemetry recording is on.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh, unregistered counter (for per-instance handles whose
    /// cardinality is unbounded — e.g. one per subscription).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`.
    ///
    /// Counters bump with `Release` and read with `Acquire`, so a thread
    /// that reads a total also sees every write the bumping thread made
    /// before the bump.  That is what lets one count vouch for another:
    /// the serving thread bumps `brt_slots_served` after the sinks have
    /// counted the slot's datagrams, so whoever reads the served count and
    /// then `bnet_datagrams_sent` never finds a served slot's datagrams
    /// missing (a credit pacer sizes its grant from the two).  On x86-64
    /// the orderings are free: `lock xadd` is a full barrier and every
    /// load is an acquire.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Release);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (an `Acquire` read; see [`Counter::add`]).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A point-in-time signed gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A fresh, unregistered gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// The shared storage of a [`Histogram`].
#[derive(Debug)]
struct HistogramCore {
    /// Buckets for negative values, indexed by `ilog2(|v|)`.
    negative: [AtomicU64; MAG_BUCKETS],
    /// Exact-zero values.
    zero: AtomicU64,
    /// Buckets for positive values, indexed by `ilog2(v)`.
    positive: [AtomicU64; MAG_BUCKETS],
    count: AtomicU64,
    sum: AtomicI64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            negative: std::array::from_fn(|_| AtomicU64::new(0)),
            zero: AtomicU64::new(0),
            positive: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicI64::new(0),
        }
    }
}

/// A fixed-bucket log₂-scale histogram over signed values (nanoseconds in
/// practice: slot lateness is *signed* — early publishes are negative).
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index for magnitude `m ≥ 1`.
fn mag_bucket(m: u64) -> usize {
    (m.ilog2() as usize).min(MAG_BUCKETS - 1)
}

impl Histogram {
    /// A fresh, unregistered histogram.
    pub fn new() -> Self {
        Self {
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// Records one signed observation.
    pub fn record(&self, v: i64) {
        let c = &self.core;
        if v == 0 {
            c.zero.fetch_add(1, Ordering::Relaxed);
        } else if v > 0 {
            c.positive[mag_bucket(v as u64)].fetch_add(1, Ordering::Relaxed);
        } else {
            c.negative[mag_bucket(v.unsigned_abs())].fetch_add(1, Ordering::Relaxed);
        }
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (buckets are read relaxed;
    /// concurrent writers may straddle the read, which is fine for
    /// monitoring and exact for quiesced test snapshots).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.core;
        let mut buckets = Vec::new();
        for b in (0..MAG_BUCKETS).rev() {
            let n = c.negative[b].load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((-(1i64 << b), n));
            }
        }
        let z = c.zero.load(Ordering::Relaxed);
        if z > 0 {
            buckets.push((0, z));
        }
        for b in 0..MAG_BUCKETS {
            let n = c.positive[b].load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((1i64 << b, n));
            }
        }
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (wrapping).
    pub sum: i64,
    /// Non-empty buckets, ascending by representative value.  The
    /// representative of a bucket is `sign · 2^b`, the magnitude *floor*
    /// of the values it holds: a sample lands in the bucket whose
    /// representative `r` satisfies `|r| ≤ |v| < 2|r|` (same sign), so a
    /// quantile read from representatives under-reports by at most 2×.
    pub buckets: Vec<(i64, u64)>,
}

impl HistogramSnapshot {
    /// The representative value at quantile `q ∈ [0, 1]`, or `None` when
    /// the histogram is empty.  `q = 0.5` is the median, `q = 0.99` the
    /// p99.
    pub fn quantile(&self, q: f64) -> Option<i64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The rank of the q-th sample among `count` samples, 0-based.
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        let mut seen = 0u64;
        for &(rep, n) in &self.buckets {
            seen += n;
            if rank < seen {
                return Some(rep);
            }
        }
        self.buckets.last().map(|&(rep, _)| rep)
    }

    /// Mean of all observations, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// One registered metric, by kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Name → handle registry.  `counter`/`gauge`/`histogram` are
/// get-or-create: the first call under a name fixes its kind, and asking
/// for the same name as a different kind panics (a programming error, not
/// a runtime condition).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, not a counter"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, not a gauge"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, not a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().expect("registry poisoned");
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_storage_across_handles() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(registry.counter("hits").get(), 3);

        let g = registry.gauge("depth");
        g.set(5);
        registry.gauge("depth").add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn histogram_buckets_are_log2_and_signed() {
        let h = Histogram::new();
        for v in [0, 1, 1, 3, 4, -1, -7, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.sum, 1001);
        // Ascending representatives: -7 → -4 (|v| ∈ [4,8)), -1 → -1,
        // 0 → 0, the two 1s → 1, 3 → 2, 4 → 4, 1000 → 512.
        assert_eq!(
            snap.buckets,
            vec![(-4, 1), (-1, 1), (0, 1), (1, 2), (2, 1), (4, 1), (512, 1)]
        );
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let h = Histogram::new();
        for _ in 0..97 {
            h.record(10); // rep 8
        }
        h.record(100_000); // rep 65536
        h.record(100_000);
        h.record(-5); // rep -4
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(8));
        assert_eq!(snap.quantile(0.99), Some(65536));
        assert_eq!(snap.quantile(0.0), Some(-4));
        assert_eq!(Histogram::new().snapshot().quantile(0.5), None);
    }

    #[test]
    fn extreme_magnitudes_clamp_into_the_top_bucket() {
        let h = Histogram::new();
        h.record(i64::MAX);
        h.record(i64::MIN);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(
            snap.buckets.iter().map(|&(rep, _)| rep).collect::<Vec<_>>(),
            vec![-(1i64 << 62), 1i64 << 62]
        );
    }
}
