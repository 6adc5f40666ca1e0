//! The closed-loop driver. Each client submits its next operation as soon
//! as the previous one returns. The budget is cut into [`WINDOWS`] equal
//! windows with the host-speed reference sampled before each; throughput
//! and latency percentiles are computed per window and scaled to the
//! reference speed (see [`crate::host`]). Throughput is the mean over
//! the windows, latency percentiles the median.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::host;
use crate::report::{Metrics, Report};
use crate::stats::{median, quantile, ratio, SplitMix};

/// Windows per measured budget.
pub const WINDOWS: usize = 20;
/// Latency samples kept per client and window (a uniform reservoir), so
/// the benchmark's own memory stays flat however fast the program runs.
const WINDOW_SAMPLES: usize = 4096;

/// Why an operation did not count as a success.
#[derive(Debug)]
pub enum OpError {
    /// Shed, refused or errored by the program.
    Refused(String),
    /// Served, but the output differs from the serial reference.
    Check(String),
}

/// One client's view of one window.
#[derive(Debug, Default, Clone)]
struct Window {
    completed: u64,
    samples: Vec<f64>,
}

impl Window {
    /// Reservoir-sample one latency (Algorithm R).
    fn record(&mut self, latency_ms: f64, rng: &mut SplitMix) {
        self.completed += 1;
        if self.samples.len() < WINDOW_SAMPLES {
            self.samples.push(latency_ms);
        } else {
            let j = (rng.next_u64() % self.completed) as usize;
            if j < WINDOW_SAMPLES {
                self.samples[j] = latency_ms;
            }
        }
    }
}

/// Throughput and latency of one window, all clients merged.
#[derive(Debug, Clone, Copy)]
pub struct WindowStats {
    /// Completions per second.
    pub qps: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Host-speed reference taken just before the window (mean over the
    /// client threads).
    pub speed: f64,
}

/// What a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per-window statistics (windows with no completion are left out of
    /// the latency medians but count as zero throughput).
    pub windows: Vec<WindowStats>,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused or check-failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Whether any output check failed.
    pub check_failed: bool,
    /// Wall seconds from the first submission until every client stopped.
    pub wall_s: f64,
}

impl LoopResult {
    /// Mean over windows of reference-scaled completions per second.
    pub fn qps(&self) -> f64 {
        let rates = self
            .windows
            .iter()
            .map(|w| w.qps / host::time_scale(w.speed));
        rates.sum::<f64>() / self.windows.len().max(1) as f64
    }

    /// Median over windows of the window's reference-scaled latency
    /// quantile.
    fn latency(&self, pick: fn(&WindowStats) -> f64) -> f64 {
        let values: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| w.qps > 0.0)
            .map(|w| pick(w) * host::time_scale(w.speed))
            .collect();
        median(&values)
    }

    /// Median host-speed reference over the windows.
    pub fn speed(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.speed).collect::<Vec<_>>())
    }

    /// Reference-scaled seconds per completed operation (the
    /// traced/untraced comparison base).
    pub fn cost_s(&self) -> f64 {
        ratio(1.0, self.qps())
    }

    /// Write `qps` and the latency percentiles.
    pub fn insert_into(&self, out: &mut Metrics) {
        out.insert("qps", self.qps());
        out.insert("latency_p50_ms", self.latency(|w| w.p50_ms));
        out.insert("latency_p99_ms", self.latency(|w| w.p99_ms));
    }

    /// The raw per-window figures and speeds, for the notes printed before
    /// the result.
    pub fn describe(&self) -> String {
        let list = |f: fn(&WindowStats) -> f64| {
            self.windows
                .iter()
                .map(|w| format!("{:.4}", f(w)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "windows qps=[{}] p50_ms=[{}] p99_ms=[{}] speed=[{}]",
            list(|w| w.qps),
            list(|w| w.p50_ms),
            list(|w| w.p99_ms),
            list(|w| w.speed)
        )
    }

    /// Fold the loop's counts and failures into the report.
    pub fn fold_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        report.notes.push(self.describe());
        if self.check_failed {
            report.fail_check(self.errors.join("; "));
        }
    }
}

/// One client's tallies over one window.
#[derive(Debug, Default)]
struct Client {
    /// Host-speed reference taken on this client's thread.
    speed: f64,
    /// When this client started submitting.
    started: Option<Instant>,
    window: Window,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    check_failed: bool,
}

/// Drive `op` from `clients` closed-loop threads for `budget`, one window
/// at a time. Each window opens with every client running the host-speed
/// kernel at once on its own thread, while no operation is in flight.
/// `op(i)` performs operation number `i` and returns its latency.
pub fn closed_loop<F>(clients: usize, budget: Duration, op: F) -> LoopResult
where
    F: Fn(usize) -> Result<Duration, OpError> + Sync,
{
    let window = budget / WINDOWS as u32;
    let cursor = AtomicUsize::new(0);
    let mut all = LoopResult::default();
    for w in 0..WINDOWS {
        let barrier = Barrier::new(clients);
        let parts: Vec<Client> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let (cursor, op, barrier) = (&cursor, &op, &barrier);
                    scope.spawn(move || {
                        let mut rng = SplitMix::new(w as u64, c as u64);
                        let mut mine = Client::default();
                        barrier.wait();
                        mine.speed = host::thread_speed();
                        barrier.wait();
                        let started = Instant::now();
                        mine.started = Some(started);
                        while started.elapsed() < window {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            mine.attempted += 1;
                            match op(i) {
                                Ok(latency) => {
                                    mine.window.record(latency.as_secs_f64() * 1e3, &mut rng)
                                }
                                Err(e) => {
                                    mine.failed += 1;
                                    mine.check_failed |= matches!(e, OpError::Check(_));
                                    if mine.errors.len() < 4 {
                                        mine.errors.push(format!("{e:?}"));
                                    }
                                }
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let started = parts
            .iter()
            .filter_map(|p| p.started)
            .min()
            .expect("at least one client");
        let wall_s = started.elapsed().as_secs_f64();
        let speed = parts.iter().map(|p| p.speed).sum::<f64>() / parts.len() as f64;
        all.wall_s += wall_s;
        let completed: u64 = parts.iter().map(|p| p.window.completed).sum();
        let samples: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.window.samples.iter().copied())
            .collect();
        all.completed += completed;
        all.windows.push(WindowStats {
            qps: ratio(completed as f64, wall_s),
            p50_ms: median(&samples),
            p99_ms: quantile(&samples, 0.99),
            speed,
        });
        for part in parts {
            all.attempted += part.attempted;
            all.failed += part.failed;
            all.check_failed |= part.check_failed;
            all.errors.extend(part.errors);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_the_budget_and_count_failures() {
        let result = closed_loop(2, Duration::from_millis(200), |i| {
            std::thread::sleep(Duration::from_millis(1));
            if i % 10 == 0 {
                Err(OpError::Refused("shed".into()))
            } else {
                Ok(Duration::from_millis(1))
            }
        });
        assert_eq!(result.windows.len(), WINDOWS);
        assert!(result.failed > 0 && !result.check_failed);
        assert!(result.qps() > 0.0);
        assert!(result
            .windows
            .iter()
            .all(|w| w.qps == 0.0 || (w.p50_ms - 1.0).abs() < 1e-9));
        let mut m = Metrics::new();
        result.insert_into(&mut m);
        assert!(m["latency_p50_ms"] > 0.0 && result.speed() > 0.0);
    }
}
