//! Workload drivers for the CLI's `trace` / `top` commands and the
//! serving tests.
//!
//! * **Open loop** — queries arrive on a Poisson process at a target rate,
//!   regardless of how the server keeps up: the honest way to measure
//!   tail latency and load shedding (a closed loop self-throttles and
//!   hides queueing collapse).
//! * **Closed loop** — a fixed number of in-flight clients, each
//!   submitting the next query the moment the previous one finishes:
//!   measures saturated throughput.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use zeus_core::parallel::run_jobs;
use zeus_core::query::ActionQuery;

use crate::admission::AdmitError;
use crate::metrics::MetricsSnapshot;
use crate::request::{Priority, QueryOutcome, ResponseStream};
use crate::server::ZeusServer;

/// A traffic mix: queries are drawn round-robin from the templates, with
/// priorities assigned cyclically from `priorities`.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Query templates (must all have installed plans).
    pub templates: Vec<ActionQuery>,
    /// Priority classes cycled across submissions.
    pub priorities: Vec<Priority>,
    /// Total submissions.
    pub total: usize,
    /// Seed for arrival-time randomness.
    pub seed: u64,
}

impl WorkloadSpec {
    /// A uniform mix over `templates` with all three priority classes.
    pub fn new(templates: Vec<ActionQuery>, total: usize, seed: u64) -> Self {
        assert!(
            !templates.is_empty(),
            "workload needs at least one template"
        );
        WorkloadSpec {
            templates,
            priorities: Priority::ALL.to_vec(),
            total,
            seed,
        }
    }

    fn nth(&self, i: usize) -> (ActionQuery, Priority) {
        (
            self.templates[i % self.templates.len()].clone(),
            self.priorities[i % self.priorities.len()],
        )
    }
}

/// Outcome of one workload run.
#[derive(Debug)]
pub struct WorkloadReport {
    /// Completed query outcomes, in completion order.
    pub outcomes: Vec<QueryOutcome>,
    /// Submissions shed at admission.
    pub shed: usize,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Server telemetry at the end of the run.
    pub metrics: MetricsSnapshot,
}

/// Drive an open-loop workload: Poisson arrivals at `rate_qps`.
///
/// The submitting thread never blocks on responses — streams are drained
/// on a collector thread — so arrivals stay on schedule even when the
/// server falls behind, and the queue bound (not client back-pressure)
/// is what sheds overload.
pub fn run_open_loop(server: &ZeusServer, spec: &WorkloadSpec, rate_qps: f64) -> WorkloadReport {
    assert!(rate_qps > 0.0, "arrival rate must be positive");
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let start = Instant::now();
    let shed = AtomicUsize::new(0);

    let outcomes = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let collector = s.spawn(move || rx.iter().map(ResponseStream::wait).collect::<Vec<_>>());

        let mut next_arrival = Instant::now();
        for i in 0..spec.total {
            // Exponential inter-arrival gap: -ln(U)/λ.
            let u: f64 = rng.gen_range(1e-12..1.0);
            let gap = Duration::from_secs_f64(-u.ln() / rate_qps);
            next_arrival += gap;
            if let Some(wait) = next_arrival.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (query, priority) = spec.nth(i);
            match server.submit(query, priority) {
                Ok(stream) => {
                    let _ = tx.send(stream);
                }
                Err(AdmitError::QueueFull { .. }) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => panic!("open-loop submission failed: {e}"),
            }
        }
        drop(tx);
        collector.join().expect("collector panicked")
    });

    WorkloadReport {
        shed: shed.load(Ordering::Relaxed),
        wall: start.elapsed(),
        metrics: server.metrics(),
        outcomes,
    }
}

/// Drive a closed-loop workload with `concurrency` in-flight clients.
///
/// Shed submissions are retried after a short backoff (a closed-loop
/// client has nothing better to do), so every query in the spec
/// eventually completes.
pub fn run_closed_loop(
    server: &ZeusServer,
    spec: &WorkloadSpec,
    concurrency: usize,
) -> WorkloadReport {
    assert!(concurrency > 0, "need at least one client");
    let start = Instant::now();
    let shed = AtomicUsize::new(0);

    let mut outcomes = run_jobs(concurrency, spec.total, |i| {
        let (query, priority) = spec.nth(i);
        loop {
            match server.submit(query.clone(), priority) {
                Ok(stream) => return stream.wait(),
                Err(AdmitError::QueueFull { .. }) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
                Err(e) => panic!("closed-loop submission failed: {e}"),
            }
        }
    });
    outcomes.sort_by_key(|o| o.id);

    WorkloadReport {
        shed: shed.load(Ordering::Relaxed),
        wall: start.elapsed(),
        metrics: server.metrics(),
        outcomes,
    }
}
