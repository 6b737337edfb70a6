//! A cheap, `Arc`-cloneable metrics registry: monotonic counters, gauges
//! and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are grabbed once at
//! attach time and updated with a single atomic op on the hot path — the
//! registry lock is only taken at registration and snapshot time. The
//! whole registry snapshots to [`Json`] for the regression manifest and
//! campaign summaries.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of each bucket (exclusive of the implicit +inf last
    /// bucket appended by the registry).
    bounds: Vec<u64>,
    /// One count per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let buckets = (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: sorted,
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Records one observation.
    ///
    /// Buckets are `(previous bound, bound]` — a value *equal* to a bound
    /// counts in that bound's bucket, the first value past it spills to
    /// the next, and anything past the last bound lands in the implicit
    /// overflow bucket. The convention is pinned by unit tests; every
    /// derived statistic ([`Histogram::percentile`],
    /// [`HistogramSnapshot::percentile`]) assumes it.
    pub fn observe(&self, v: u64) {
        let i = self.inner.bounds.partition_point(|&b| b < v);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 with no data.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `p`-th percentile (see [`HistogramSnapshot::percentile`]);
    /// 0 on an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// Merges a snapshot's observations into this histogram,
    /// bucket-for-bucket. Requires identical bounds — on a mismatch
    /// nothing is recorded and `false` comes back, so a shape conflict
    /// can't half-apply.
    fn absorb(&self, snap: &HistogramSnapshot) -> bool {
        if self.inner.bounds != snap.bounds || self.inner.buckets.len() != snap.buckets.len() {
            return false;
        }
        for (bucket, &n) in self.inner.buckets.iter().zip(&snap.buckets) {
            bucket.fetch_add(n, Ordering::Relaxed);
        }
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        self.inner.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.inner.max.fetch_max(snap.max, Ordering::Relaxed);
        true
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.clone(),
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
            max: self.inner.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time state of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; the final bucket in `buckets` is overflow.
    pub bounds: Vec<u64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Largest observation (0 with no data).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 with no data (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at or below which `p` percent of observations fall,
    /// approximated upward to the recording bucket's upper bound (the
    /// true `max` for the overflow bucket — buckets are `(lo, hi]`, so
    /// the bound is a value the bucket can actually contain). `p` is
    /// clamped to `0..=100`; an empty histogram reads 0 — no panic, no
    /// NaN, matching [`HistogramSnapshot::mean`].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// As a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bounds", Json::from(self.bounds.clone())),
            ("buckets", Json::from(self.buckets.clone())),
            ("count", Json::from(self.count)),
            ("sum", Json::from(self.sum)),
            ("max", Json::from(self.max)),
        ])
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry. Cloning shares the underlying metric set.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or fetches) a counter by name. Fetching an existing
    /// one allocates nothing.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics lock");
        fetch_or_insert(&mut inner.counters, name, Counter::default)
    }

    /// Registers (or fetches) a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics lock");
        fetch_or_insert(&mut inner.gauges, name, Gauge::default)
    }

    /// Registers (or fetches) a histogram by name. Bounds are fixed by the
    /// first registration; later callers get the existing instance.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics lock");
        fetch_or_insert(&mut inner.histograms, name, || Histogram::new(bounds))
    }

    /// Merges a snapshot into this registry: counters add their totals,
    /// gauges take the snapshot's value (last write wins), histograms
    /// merge bucket-for-bucket (bounds come from the snapshot when the
    /// name is new; an existing histogram with different bounds skips the
    /// merge rather than corrupt its shape). This is how a memoized
    /// cell's private metrics replay into a campaign registry, making a
    /// warm run's totals identical to the cold run's.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name, &h.bounds).absorb(h);
        }
    }

    /// A point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// The metric called `name`, registered with `new` if it is missing. The
/// name is looked up before it is copied into a key.
fn fetch_or_insert<M: Clone>(
    metrics: &mut BTreeMap<String, M>,
    name: &str,
    new: impl FnOnce() -> M,
) -> M {
    if let Some(metric) = metrics.get(name) {
        return metric.clone();
    }
    metrics.entry(name.to_owned()).or_insert_with(new).clone()
}

/// Point-in-time state of a whole registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// As a JSON object: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the [`MetricsSnapshot::to_json`] form back. `None` on any
    /// structural defect (wrong types, bucket/bound arity mismatch,
    /// non-integral values) — callers treat the containing artifact as
    /// corrupt and recompute.
    pub fn from_json(json: &Json) -> Option<MetricsSnapshot> {
        fn entries(j: &Json) -> Option<&[(String, Json)]> {
            match j {
                Json::Obj(pairs) => Some(pairs),
                _ => None,
            }
        }
        fn as_i64(j: &Json) -> Option<i64> {
            let n = j.as_f64()?;
            (n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&n))
                .then_some(n as i64)
        }
        let mut snap = MetricsSnapshot::default();
        for (name, v) in entries(json.get("counters")?)? {
            snap.counters.insert(name.clone(), v.as_u64()?);
        }
        for (name, v) in entries(json.get("gauges")?)? {
            snap.gauges.insert(name.clone(), as_i64(v)?);
        }
        for (name, h) in entries(json.get("histograms")?)? {
            let nums = |key: &str| -> Option<Vec<u64>> {
                h.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
            };
            let bounds = nums("bounds")?;
            let buckets = nums("buckets")?;
            if buckets.len() != bounds.len() + 1 {
                return None;
            }
            snap.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    bounds,
                    buckets,
                    count: h.get("count")?.as_u64()?,
                    sum: h.get("sum")?.as_u64()?,
                    max: h.get("max")?.as_u64()?,
                },
            );
        }
        Some(snap)
    }

    /// A human-readable multi-line rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name:<40} {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name:<40} count {}  sum {}  max {}",
                h.count, h.sum, h.max
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("runs");
        let b = reg.clone().counter("runs");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("runs").get(), 5);
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("depth");
        g.set(3);
        g.set(-7);
        assert_eq!(reg.gauge("depth").get(), -7);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat", &[10, 100, 1000]);
        for v in [1, 5, 10, 50, 1000, 5000] {
            h.observe(v);
        }
        let snap = reg.snapshot().histograms["lat"].clone();
        assert_eq!(snap.bounds, vec![10, 100, 1000]);
        // <=10: 1,5,10 -> 3; <=100: 50 -> 1; <=1000: 1000 -> 1; over: 5000.
        assert_eq!(snap.buckets, vec![3, 1, 1, 1]);
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 6066);
        assert_eq!(snap.max, 5000);
        assert!((h.mean() - 1011.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = MetricsRegistry::new();
        reg.counter("kernel.delta_cycles").add(123);
        reg.gauge("queue.depth").set(4);
        reg.histogram("wall_ms", &[1, 10]).observe(3);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let parsed = crate::json::Json::parse(&json.render()).expect("valid JSON");
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("kernel.delta_cycles")
                .unwrap()
                .as_u64(),
            Some(123)
        );
        assert_eq!(
            parsed
                .get("histograms")
                .unwrap()
                .get("wall_ms")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn empty_histogram_stats_are_zero_not_nan() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("empty", &[10, 100]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.percentile(100.0), 0);
        let snap = reg.snapshot().histograms["empty"].clone();
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.percentile(99.0), 0);
    }

    #[test]
    fn bucket_boundaries_are_upper_inclusive() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("b", &[10, 100]);
        h.observe(10); // equal to a bound: counts in that bound's bucket
        h.observe(11); // first value past the bound: spills to the next
        h.observe(100);
        h.observe(101); // past the last bound: overflow
        let snap = reg.snapshot().histograms["b"].clone();
        assert_eq!(snap.buckets, vec![1, 2, 1]);
    }

    #[test]
    fn percentile_walks_buckets_and_overflow_reads_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("p", &[10, 100, 1000]);
        for v in [1, 2, 3, 50, 200, 7000] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 10); // clamps to the first populated bucket
        assert_eq!(h.percentile(50.0), 10);
        assert_eq!(h.percentile(66.0), 100);
        assert_eq!(h.percentile(83.0), 1000);
        assert_eq!(h.percentile(100.0), 7000); // overflow reports the true max
        assert_eq!(h.percentile(250.0), 7000); // out-of-range p clamps
    }

    #[test]
    fn snapshot_parses_back_from_json() {
        let reg = MetricsRegistry::new();
        reg.counter("kernel.steps").add(42);
        reg.gauge("pool.depth").set(-3);
        let h = reg.histogram("lat", &[10, 100]);
        h.observe(7);
        h.observe(5000);
        let snap = reg.snapshot();
        let round =
            MetricsSnapshot::from_json(&Json::parse(&snap.to_json().render()).unwrap()).unwrap();
        assert_eq!(round, snap);
        // Structural defects read as None, never a partial snapshot.
        assert!(MetricsSnapshot::from_json(&Json::Null).is_none());
        let mut mangled = snap.to_json();
        if let Json::Obj(pairs) = &mut mangled {
            pairs.retain(|(k, _)| k != "gauges");
        }
        assert!(MetricsSnapshot::from_json(&mangled).is_none());
    }

    #[test]
    fn absorb_replays_a_snapshot_into_a_fresh_registry() {
        let src = MetricsRegistry::new();
        src.counter("kernel.steps").add(10);
        src.gauge("depth").set(5);
        let h = src.histogram("lat", &[10, 100]);
        for v in [3, 50, 700] {
            h.observe(v);
        }
        let snap = src.snapshot();

        let dst = MetricsRegistry::new();
        dst.counter("kernel.steps").add(2);
        dst.absorb(&snap);
        dst.absorb(&snap);
        let merged = dst.snapshot();
        assert_eq!(merged.counters["kernel.steps"], 22);
        assert_eq!(merged.gauges["depth"], 5);
        let lat = &merged.histograms["lat"];
        assert_eq!(lat.count, 6);
        assert_eq!(lat.sum, 1506);
        assert_eq!(lat.max, 700);
        assert_eq!(lat.buckets, vec![2, 2, 2]);
    }

    #[test]
    fn absorb_with_mismatched_bounds_is_a_clean_no_op() {
        let src = MetricsRegistry::new();
        src.histogram("lat", &[1, 2]).observe(1);
        let snap = src.snapshot();
        let dst = MetricsRegistry::new();
        dst.histogram("lat", &[10, 100]).observe(50);
        dst.absorb(&snap);
        let lat = &dst.snapshot().histograms["lat"];
        assert_eq!(lat.count, 1);
        assert_eq!(lat.sum, 50);
    }

    #[test]
    fn histogram_bounds_are_fixed_by_first_registration() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("h", &[5, 1]);
        let b = reg.histogram("h", &[99]);
        a.observe(2);
        b.observe(2);
        let snap = reg.snapshot().histograms["h"].clone();
        assert_eq!(snap.bounds, vec![1, 5]);
        assert_eq!(snap.count, 2);
    }
}
