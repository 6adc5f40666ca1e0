//! Serving telemetry: latency percentiles, throughput, queue depth, shed
//! and cache counters, device utilization.
//!
//! [`ServeMetrics`] is the live, thread-safe recorder the server updates;
//! [`MetricsSnapshot`] is the immutable view handed to operators (and
//! printed by `zeus top`). Latency is wall-clock (queueing +
//! scheduling + the real CPU cost of simulated execution); device seconds
//! are simulated time, so the two axes are reported separately.
//!
//! Counters and the latency histogram live in a shared
//! [`MetricsRegistry`] under the `serve.*` / `cache.result.*` namespace,
//! so one `ObsSnapshot` sees serving alongside training and cache
//! telemetry. Latency is a bounded-memory [`zeus_obs::LogHistogram`] (fixed 257
//! buckets) rather than an unbounded `Vec<u64>`: percentiles are within
//! one log bucket of exact, the mean stays exact, and a long-lived
//! server no longer grows memory per completed query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use zeus_obs::keys;
use zeus_obs::sync::lock_recover;
use zeus_obs::{Counter, Histogram, MetricsRegistry};

/// Live serving counters (interior-mutable, shared across workers). All
/// hot-path updates are atomic bumps on registry handles; the only lock
/// guards the completion window timestamps, and it recovers from poison
/// rather than propagating a dead worker's panic.
#[derive(Debug)]
pub struct ServeMetrics {
    submitted: Counter,
    admitted: Counter,
    shed: Counter,
    rejected_no_plan: Counter,
    plan_refused: Counter,
    completed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    coalesced: Counter,
    frames: Counter,
    latency: Histogram,
    /// Simulated device time in microseconds (atomic f64-free sum).
    device_us: AtomicU64,
    /// First/last completion instants anchoring the throughput window.
    window: Mutex<(Option<Instant>, Option<Instant>)>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, zeroed metrics over a private registry.
    pub fn new() -> Self {
        Self::with_registry(&MetricsRegistry::new())
    }

    /// Metrics recording into a shared registry (the server's
    /// [`ObsHub`](zeus_obs::ObsHub) namespace).
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            submitted: registry.counter(keys::SERVE_SUBMITTED),
            admitted: registry.counter(keys::SERVE_ADMITTED),
            shed: registry.counter(keys::SERVE_ADMIT_SHED),
            rejected_no_plan: registry.counter(keys::SERVE_ADMIT_NO_PLAN),
            plan_refused: registry.counter(keys::SERVE_PLAN_REFUSED),
            completed: registry.counter(keys::SERVE_COMPLETED),
            cache_hits: registry.counter(keys::CACHE_RESULT_HIT),
            cache_misses: registry.counter(keys::CACHE_RESULT_MISS),
            coalesced: registry.counter(keys::SERVE_COALESCED),
            frames: registry.counter(keys::SERVE_FRAMES),
            latency: registry.histogram(keys::SERVE_LATENCY_US),
            device_us: AtomicU64::new(0),
            window: Mutex::new((None, None)),
        }
    }

    /// Record a submission attempt.
    pub fn on_submit(&self) {
        self.submitted.inc();
    }

    /// Record an admission into the queue.
    pub fn on_admit(&self) {
        self.admitted.inc();
    }

    /// Record a load-shed rejection.
    pub fn on_shed(&self) {
        self.shed.inc();
    }

    /// Record a no-plan rejection.
    pub fn on_no_plan(&self) {
        self.rejected_no_plan.inc();
    }

    /// Record a catalog plan refused on lookup (the query is then
    /// rejected as unplanned, too).
    pub fn on_plan_refused(&self) {
        self.plan_refused.inc();
    }

    /// Record a result-cache hit answering a query without execution.
    pub fn on_cache_hit(&self, latency: Duration) {
        self.cache_hits.inc();
        self.complete(latency, 0.0, 0);
    }

    /// Record a completed execution (cache miss path).
    pub fn on_executed(&self, latency: Duration, device_secs: f64, frames: u64) {
        self.cache_misses.inc();
        self.complete(latency, device_secs, frames);
    }

    /// Record a submission answered by coalescing onto an in-flight
    /// identical query (no execution of its own).
    pub fn on_coalesced(&self, latency: Duration) {
        self.coalesced.inc();
        self.complete(latency, 0.0, 0);
    }

    fn complete(&self, latency: Duration, device_secs: f64, frames: u64) {
        self.completed.inc();
        self.latency.record_duration(latency);
        if device_secs > 0.0 {
            self.device_us
                .fetch_add((device_secs * 1e6).round() as u64, Ordering::Relaxed);
        }
        self.frames.add(frames);
        let now = Instant::now();
        let mut window = lock_recover(&self.window);
        window.0.get_or_insert(now);
        window.1 = Some(now);
    }

    /// Total simulated device seconds charged so far.
    pub fn device_secs(&self) -> f64 {
        self.device_us.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Take an immutable snapshot (queue depth and per-device busy time
    /// are sampled by the caller, which owns those structures).
    pub fn snapshot(&self, queue_depth: usize, device_busy_secs: Vec<f64>) -> MetricsSnapshot {
        let hist = self.latency.inner();
        let completed = self.completed.get();
        let wall = {
            let window = lock_recover(&self.window);
            match *window {
                (Some(a), Some(b)) if b > a => (b - a).as_secs_f64(),
                _ => 0.0,
            }
        };
        MetricsSnapshot {
            submitted: self.submitted.get(),
            admitted: self.admitted.get(),
            shed: self.shed.get(),
            rejected_no_plan: self.rejected_no_plan.get(),
            completed,
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            coalesced: self.coalesced.get(),
            p50: Duration::from_micros(hist.quantile(0.50)),
            p95: Duration::from_micros(hist.quantile(0.95)),
            p99: Duration::from_micros(hist.quantile(0.99)),
            mean: Duration::from_micros(hist.mean()),
            throughput_qps: if wall > 0.0 {
                // First completion anchors the window, so it is excluded
                // from the rate numerator.
                completed.saturating_sub(1) as f64 / wall
            } else {
                0.0
            },
            queue_depth,
            device_secs: self.device_secs(),
            frames: self.frames.get(),
            device_busy_secs,
        }
    }
}

/// Point-in-time view of serving health.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Submission attempts (admitted + shed + no-plan rejections).
    pub submitted: u64,
    /// Requests admitted to the queue (or answered from cache).
    pub admitted: u64,
    /// Requests shed at admission (queue full).
    pub shed: u64,
    /// Requests refused for want of a stored plan.
    pub rejected_no_plan: u64,
    /// Queries answered (executed or from cache).
    pub completed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses (executed queries).
    pub cache_misses: u64,
    /// Submissions coalesced onto an in-flight identical query.
    pub coalesced: u64,
    /// Median completion latency (wall clock, within one log bucket).
    pub p50: Duration,
    /// 95th-percentile latency (within one log bucket).
    pub p95: Duration,
    /// 99th-percentile latency (within one log bucket).
    pub p99: Duration,
    /// Mean latency (exact).
    pub mean: Duration,
    /// Completions per wall-clock second over the completion window.
    pub throughput_qps: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Total simulated device seconds charged.
    pub device_secs: f64,
    /// Total video frames covered by executed queries.
    pub frames: u64,
    /// Per-device simulated busy seconds at snapshot time.
    pub device_busy_secs: Vec<f64>,
}

impl MetricsSnapshot {
    /// Fraction of completed queries answered without their own
    /// execution (cache hits + coalesced followers), in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.coalesced + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.coalesced) as f64 / total as f64
        }
    }

    /// Shed rate over submissions, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Imbalance of simulated load across devices: max/mean busy time
    /// (1.0 = perfectly balanced; meaningless with idle pools).
    pub fn device_imbalance(&self) -> f64 {
        let n = self.device_busy_secs.len();
        if n == 0 {
            return 1.0;
        }
        let total: f64 = self.device_busy_secs.iter().sum();
        if total == 0.0 {
            return 1.0;
        }
        let max = self.device_busy_secs.iter().cloned().fold(0.0, f64::max);
        max / (total / n as f64)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "completed {}/{} (shed {}, no-plan {}), queue depth {}",
            self.completed, self.submitted, self.shed, self.rejected_no_plan, self.queue_depth
        )?;
        writeln!(
            f,
            "latency p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  mean {:.2} ms",
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3,
            self.mean.as_secs_f64() * 1e3,
        )?;
        writeln!(
            f,
            "throughput {:.1} queries/s  cache hit rate {:.0}% ({} hits + {} coalesced / {} executed)",
            self.throughput_qps,
            self.cache_hit_rate() * 100.0,
            self.cache_hits,
            self.coalesced,
            self.cache_misses,
        )?;
        write!(
            f,
            "device time {:.1} simulated s over {} frames; imbalance {:.2}",
            self.device_secs,
            self.frames,
            self.device_imbalance()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_obs::LogHistogram;

    /// Percentile estimates must land in the same (or an adjacent) log
    /// bucket as the exact order statistic — the bounded-memory
    /// histogram's accuracy contract.
    fn assert_within_one_bucket(est: Duration, exact: Duration, label: &str) {
        let d = (LogHistogram::bucket_of(est.as_micros() as u64) as i64
            - LogHistogram::bucket_of(exact.as_micros() as u64) as i64)
            .abs();
        assert!(
            d <= 1,
            "{label}: {est:?} vs exact {exact:?} ({d} buckets apart)"
        );
    }

    #[test]
    fn percentiles_over_known_distribution() {
        let m = ServeMetrics::new();
        for ms in 1..=100u64 {
            m.on_executed(Duration::from_millis(ms), 0.5, 10);
        }
        let snap = m.snapshot(3, vec![1.0, 2.0]);
        assert_eq!(snap.completed, 100);
        assert_within_one_bucket(snap.p50, Duration::from_millis(50), "p50");
        assert_within_one_bucket(snap.p95, Duration::from_millis(95), "p95");
        assert_within_one_bucket(snap.p99, Duration::from_millis(99), "p99");
        // The mean stays exact: sum(1..=100) ms / 100 = 50.5 ms.
        assert_eq!(snap.mean, Duration::from_micros(50_500));
        assert_eq!(snap.queue_depth, 3);
        assert!((snap.device_secs - 50.0).abs() < 1e-9);
        assert_eq!(snap.frames, 1000);
        assert!((snap.device_imbalance() - 2.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn latency_memory_stays_bounded() {
        // The old recorder pushed every latency into a Vec; a sustained
        // workload grew without bound. The histogram's storage is a
        // fixed array regardless of volume.
        let m = ServeMetrics::new();
        for i in 0..50_000u64 {
            m.on_executed(Duration::from_micros(1 + i % 10_000), 0.0, 0);
        }
        let snap = m.snapshot(0, vec![]);
        assert_eq!(snap.completed, 50_000);
        assert!(m.latency.inner().nonzero_buckets().len() <= 257);
    }

    #[test]
    fn rates_count_hits_and_sheds() {
        let m = ServeMetrics::new();
        m.on_submit();
        m.on_submit();
        m.on_submit();
        m.on_admit();
        m.on_shed();
        m.on_no_plan();
        m.on_cache_hit(Duration::from_micros(10));
        m.on_executed(Duration::from_millis(5), 1.0, 100);
        let snap = m.snapshot(0, vec![]);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.rejected_no_plan, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-12);
        assert!((snap.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shares_a_registry_namespace() {
        let registry = MetricsRegistry::new();
        let m = ServeMetrics::with_registry(&registry);
        m.on_submit();
        m.on_shed();
        m.on_cache_hit(Duration::from_micros(10));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(keys::SERVE_SUBMITTED), Some(1));
        assert_eq!(snap.counter(keys::SERVE_ADMIT_SHED), Some(1));
        assert_eq!(snap.counter(keys::CACHE_RESULT_HIT), Some(1));
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let snap = ServeMetrics::new().snapshot(0, vec![]);
        assert_eq!(snap.p50, Duration::ZERO);
        assert_eq!(snap.throughput_qps, 0.0);
        assert_eq!(snap.cache_hit_rate(), 0.0);
        let _ = format!("{snap}");
    }
}
