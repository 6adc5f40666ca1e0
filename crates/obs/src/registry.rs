//! The metrics registry: one namespace of named counters, gauges, and
//! histograms with lock-free typed handles.
//!
//! Registration (`counter("serve.admit.shed")`) takes a short-lived
//! write lock once; the returned handle is an `Arc`'d atomic the hot
//! path bumps without ever touching the registry again. Registration is
//! idempotent — the same name always resolves to the same underlying
//! cell, so independently-wired layers (server, pool, trainer) can all
//! ask for `train.steps` and share one counter.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::LogHistogram;
use crate::json_escape;
use crate::sync::{read_recover, write_recover};

/// A monotonically-increasing counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle (stores an `f64`).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A handle onto a shared [`LogHistogram`].
#[derive(Debug, Clone)]
pub struct Histogram(Arc<LogHistogram>);

impl Histogram {
    /// Record one value.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Record a duration in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.0.record_duration(d);
    }

    /// The underlying histogram.
    pub fn inner(&self) -> &LogHistogram {
        &self.0
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<LogHistogram>),
}

/// The shared metric namespace. Cloning is cheap and all clones observe
/// one registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    slots: Arc<RwLock<BTreeMap<String, Slot>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or fetch) the counter named `name`. If the name is
    /// already registered as a different metric kind, a detached
    /// (unregistered) handle is returned instead of panicking —
    /// telemetry must never take a plane down.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(Slot::Counter(c)) = read_recover(&self.slots).get(name) {
            return Counter(Arc::clone(c));
        }
        let mut slots = write_recover(&self.slots);
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))))
        {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Register (or fetch) the gauge named `name` (same mismatch policy
    /// as [`Self::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(Slot::Gauge(g)) = read_recover(&self.slots).get(name) {
            return Gauge(Arc::clone(g));
        }
        let mut slots = write_recover(&self.slots);
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))),
        }
    }

    /// Register (or fetch) the histogram named `name` (same mismatch
    /// policy as [`Self::counter`]).
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(Slot::Histogram(h)) = read_recover(&self.slots).get(name) {
            return Histogram(Arc::clone(h));
        }
        let mut slots = write_recover(&self.slots);
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Arc::new(LogHistogram::new())))
        {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            _ => Histogram(Arc::new(LogHistogram::new())),
        }
    }

    /// A point-in-time view of every registered metric, sorted by name.
    pub fn snapshot(&self) -> ObsSnapshot {
        let slots = read_recover(&self.slots);
        let samples = slots
            .iter()
            .map(|(name, slot)| MetricSample {
                name: name.clone(),
                value: match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => MetricValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        mean: h.mean(),
                        p50: h.quantile(0.50),
                        p95: h.quantile(0.95),
                        p99: h.quantile(0.99),
                    },
                },
            })
            .collect();
        ObsSnapshot { samples }
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last-set value.
    Gauge(f64),
    /// A histogram summarized to count/mean/percentiles (value units
    /// are whatever the recorder fed in — microseconds for latencies).
    Histogram {
        /// Values recorded.
        count: u64,
        /// Exact mean.
        mean: u64,
        /// Median estimate (within one log bucket of exact).
        p50: u64,
        /// 95th-percentile estimate.
        p95: u64,
        /// 99th-percentile estimate.
        p99: u64,
    },
}

/// One named metric in a snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Dotted metric name (`serve.admit.shed`, `train.steps`, ...).
    pub name: String,
    /// The sampled value.
    pub value: MetricValue,
}

/// A serializable point-in-time view of the whole namespace, sorted by
/// metric name.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// Every registered metric.
    pub samples: Vec<MetricSample>,
}

impl ObsSnapshot {
    /// Look up a counter's value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| {
            if let MetricValue::Counter(v) = s.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Look up a gauge's value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).and_then(|s| {
            if let MetricValue::Gauge(v) = s.value {
                Some(v)
            } else {
                None
            }
        })
    }

    /// Merge per-shard snapshots into one fleet-wide rollup, by metric
    /// name:
    ///
    /// * counters **sum** (total submissions across the fleet);
    /// * gauges **sum** — the fleet-level reading of the gauges this
    ///   workspace exports (queue depths, device-seconds) is the total
    ///   across shards, not an average;
    /// * histograms merge their summaries: counts sum, the mean is the
    ///   count-weighted mean, and each percentile is the **max** across
    ///   shards — a conservative upper bound, since exact cross-shard
    ///   percentiles would need the raw buckets a summary no longer has.
    ///
    /// A name registered with different kinds across shards keeps the
    /// first kind seen and ignores mismatching samples (same
    /// telemetry-never-panics policy as the registry). The result is
    /// sorted by name like any registry snapshot.
    pub fn merge(parts: &[ObsSnapshot]) -> ObsSnapshot {
        #[derive(Clone)]
        enum Acc {
            Counter(u64),
            Gauge(f64),
            Histogram {
                count: u64,
                mean_sum: f64,
                p50: u64,
                p95: u64,
                p99: u64,
            },
        }
        let mut merged: BTreeMap<&str, Acc> = BTreeMap::new();
        for part in parts {
            for s in &part.samples {
                match (merged.get_mut(s.name.as_str()), &s.value) {
                    (None, MetricValue::Counter(v)) => {
                        merged.insert(&s.name, Acc::Counter(*v));
                    }
                    (None, MetricValue::Gauge(v)) => {
                        merged.insert(&s.name, Acc::Gauge(*v));
                    }
                    (
                        None,
                        MetricValue::Histogram {
                            count,
                            mean,
                            p50,
                            p95,
                            p99,
                        },
                    ) => {
                        merged.insert(
                            &s.name,
                            Acc::Histogram {
                                count: *count,
                                mean_sum: *mean as f64 * *count as f64,
                                p50: *p50,
                                p95: *p95,
                                p99: *p99,
                            },
                        );
                    }
                    (Some(Acc::Counter(acc)), MetricValue::Counter(v)) => *acc += v,
                    (Some(Acc::Gauge(acc)), MetricValue::Gauge(v)) => *acc += v,
                    (
                        Some(Acc::Histogram {
                            count,
                            mean_sum,
                            p50,
                            p95,
                            p99,
                        }),
                        MetricValue::Histogram {
                            count: c,
                            mean: m,
                            p50: a,
                            p95: b,
                            p99: d,
                        },
                    ) => {
                        *count += c;
                        *mean_sum += *m as f64 * *c as f64;
                        *p50 = (*p50).max(*a);
                        *p95 = (*p95).max(*b);
                        *p99 = (*p99).max(*d);
                    }
                    // Kind mismatch: keep the first-seen kind.
                    (Some(_), _) => {}
                }
            }
        }
        ObsSnapshot {
            samples: merged
                .into_iter()
                .map(|(name, acc)| MetricSample {
                    name: name.to_string(),
                    value: match acc {
                        Acc::Counter(v) => MetricValue::Counter(v),
                        Acc::Gauge(v) => MetricValue::Gauge(v),
                        Acc::Histogram {
                            count,
                            mean_sum,
                            p50,
                            p95,
                            p99,
                        } => MetricValue::Histogram {
                            count,
                            mean: if count == 0 {
                                0
                            } else {
                                (mean_sum / count as f64).round() as u64
                            },
                            p50,
                            p95,
                            p99,
                        },
                    },
                })
                .collect(),
        }
    }

    /// The snapshot as JSONL: one `{"type":"metric",...}` line per
    /// metric (the `zeus trace --json` export format).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            match &s.value {
                MetricValue::Counter(v) => out.push_str(&format!(
                    "{{\"type\":\"metric\",\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                    json_escape(&s.name)
                )),
                MetricValue::Gauge(v) => out.push_str(&format!(
                    "{{\"type\":\"metric\",\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{v:.6}}}\n",
                    json_escape(&s.name)
                )),
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p95,
                    p99,
                } => out.push_str(&format!(
                    "{{\"type\":\"metric\",\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{count},\"mean\":{mean},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99}}}\n",
                    json_escape(&s.name)
                )),
            }
        }
        out
    }
}

impl std::fmt::Display for ObsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.samples {
            match &s.value {
                MetricValue::Counter(v) => writeln!(f, "{:<32} {v}", s.name)?,
                MetricValue::Gauge(v) => writeln!(f, "{:<32} {v:.3}", s.name)?,
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p95,
                    p99,
                } => writeln!(
                    f,
                    "{:<32} n={count} mean={mean} p50={p50} p95={p95} p99={p99}",
                    s.name
                )?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("serve.submitted");
        let b = reg.counter("serve.submitted");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles share one cell");
        assert_eq!(reg.snapshot().counter("serve.submitted"), Some(3));
    }

    #[test]
    fn kind_mismatch_degrades_to_detached_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        let g = reg.gauge("x"); // same name, wrong kind: detached
        g.set(99.0);
        assert_eq!(reg.snapshot().counter("x"), Some(1), "registry unharmed");
    }

    #[test]
    fn counters_are_exact_under_concurrency() {
        let reg = MetricsRegistry::new();
        let threads = 8;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = reg.counter("contended");
                s.spawn(move || {
                    for _ in 0..per {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("contended"), Some(threads * per));
    }

    #[test]
    fn merge_sums_counters_and_gauges_and_combines_histograms() {
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        a.counter("serve.submitted").add(3);
        b.counter("serve.submitted").add(5);
        b.counter("serve.only_on_b").add(1);
        a.gauge("serve.queue.depth").set(2.0);
        b.gauge("serve.queue.depth").set(4.0);
        for v in [100, 100, 100, 100] {
            a.histogram("serve.latency_us").record(v);
        }
        b.histogram("serve.latency_us").record(1_000);
        let merged = ObsSnapshot::merge(&[a.snapshot(), b.snapshot()]);
        assert_eq!(merged.counter("serve.submitted"), Some(8));
        assert_eq!(merged.counter("serve.only_on_b"), Some(1));
        assert_eq!(merged.gauge("serve.queue.depth"), Some(6.0));
        let MetricValue::Histogram {
            count, mean, p99, ..
        } = merged
            .samples
            .iter()
            .find(|s| s.name == "serve.latency_us")
            .unwrap()
            .value
            .clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!(count, 5);
        // Count-weighted mean of the two per-shard means (log-bucketed,
        // so allow bucket slack), and p99 is the max across shards.
        let a_mean = 100.0;
        let b_mean = 1_000.0;
        let expect = (4.0 * a_mean + b_mean) / 5.0;
        assert!(
            (mean as f64) > expect * 0.5 && (mean as f64) < expect * 2.0,
            "mean {mean} vs {expect}"
        );
        // The merge takes the max per-shard p99, and each shard's
        // estimate carries the histogram's one-log-bucket guarantee —
        // so the merged p99 lands in the slow shard's bucket, not
        // necessarily at or above the exact recorded value.
        assert_eq!(
            LogHistogram::bucket_of(p99),
            LogHistogram::bucket_of(1_000),
            "p99 {p99} must land in the slow shard's bucket"
        );
        // Names stay sorted.
        let names: Vec<&str> = merged.samples.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_is_sorted_and_serializable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(2);
        reg.gauge("a.level").set(0.5);
        reg.histogram("c.lat").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["a.level", "b.count", "c.lat"]);
        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"kind\":\"gauge\""));
        assert!(
            jsonl.contains("\"name\":\"b.count\",\"value\":2"),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"count\":1"), "{jsonl}");
        let _ = format!("{snap}");
    }
}
