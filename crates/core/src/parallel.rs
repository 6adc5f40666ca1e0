//! Inter-video parallel execution — the §6.4 extension — and the one
//! fork-join the workspace's parallel paths run through.
//!
//! "It is possible to extend Zeus-RL to support inter-video parallelism.
//! Here, batching inputs across videos would allow better GPU utilization."
//! [`execute_parallel`] runs a video set across simulated devices, each a
//! [`SimClock`] of its own, and reports the *makespan* (the slowest
//! device's elapsed time) — the quantity that determines wall-clock
//! speedup from adding devices.
//!
//! [`run_jobs`] is the fork-join: scoped threads claim jobs from one
//! atomic cursor and results come back in job order. The training
//! engine's candidate portfolio and the serving plane's closed-loop
//! clients run on it too.

use std::sync::atomic::{AtomicUsize, Ordering};

use zeus_sim::SimClock;
use zeus_video::Video;

use crate::baselines::QueryEngine;
use crate::result::{ConfigHistogram, ExecutionResult};

/// Run `f(0), f(1), …, f(jobs - 1)` on up to `threads` scoped threads and
/// return the results in job order.
///
/// Each thread claims the next unclaimed job from one atomic cursor, so a
/// slow job never holds up the rest. A job that panics does not stop the
/// others; once every thread has finished, its panic is re-raised on the
/// caller with its own payload.
pub fn run_jobs<R, F>(threads: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return mine;
            }
            mine.push((i, f(i)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1).min(jobs))
            .map(|_| s.spawn(claim))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Result of a parallel run: the merged predictions plus per-worker
/// simulated clocks.
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// Merged execution result. Its `clock` holds the *total* device-time
    /// (sum over workers), as if run on one device.
    pub merged: ExecutionResult,
    /// Per-worker elapsed simulated seconds.
    pub worker_secs: Vec<f64>,
}

impl ParallelResult {
    /// The makespan: elapsed time of the busiest device.
    pub fn makespan_secs(&self) -> f64 {
        self.worker_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Effective throughput with `workers` devices (frames / makespan).
    pub fn parallel_throughput(&self) -> f64 {
        let frames = self.merged.total_frames() as f64;
        let m = self.makespan_secs();
        if m == 0.0 {
            f64::INFINITY
        } else {
            frames / m
        }
    }

    /// Speedup of the parallel run over single-device execution.
    pub fn speedup(&self) -> f64 {
        let total: f64 = self.worker_secs.iter().sum();
        let m = self.makespan_secs();
        if m == 0.0 {
            1.0
        } else {
            total / m
        }
    }
}

/// Execute `videos` with `engine` across `workers` simulated devices
/// (0 runs as 1, as in [`run_jobs`]).
///
/// Videos are assigned round-robin (longest-first would be better for
/// balance; round-robin matches a streaming arrival order): device `i`
/// runs videos `i, i + workers, i + 2 * workers, …` on its own clock, as
/// one [`run_jobs`] job. Device results merge in device order and labels
/// sort by video id, so the result does not depend on thread scheduling.
pub fn execute_parallel<E>(engine: &E, videos: &[&Video], workers: usize) -> ParallelResult
where
    E: QueryEngine + Sync + ?Sized,
{
    let workers = workers.max(1);
    let shares = run_jobs(workers, workers, |device| {
        let mut clock = SimClock::new();
        let mut histogram = ConfigHistogram::new();
        let labels = videos
            .iter()
            .skip(device)
            .step_by(workers)
            .map(|v| (v.id, engine.execute_video(v, &mut clock, &mut histogram)))
            .collect();
        ExecutionResult {
            labels,
            clock,
            histogram,
        }
    });

    let worker_secs = shares.iter().map(|s| s.clock.elapsed_secs()).collect();
    let mut merged = ExecutionResult::default();
    for share in shares {
        merged.labels.extend(share.labels);
        merged.clock.merge(&share.clock);
        merged.histogram.merge(&share.histogram);
    }
    merged.labels.sort_by_key(|(id, _)| *id);
    ParallelResult {
        merged,
        worker_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_apfg::{Configuration, SimulatedApfg};
    use zeus_sim::CostModel;
    use zeus_video::{ActionClass, DatasetKind};

    use crate::baselines::ZeusSliding;

    fn engine() -> ZeusSliding {
        ZeusSliding::new(
            SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 3),
            Configuration::new(200, 4, 4),
            CostModel,
        )
    }

    #[test]
    fn parallel_matches_sequential_output() {
        let ds = DatasetKind::Bdd100k.generate(0.04, 5);
        let videos = ds.store.split(zeus_video::video::Split::Test);
        let e = engine();
        let seq = e.execute(&videos);
        let par = execute_parallel(&e, &videos, 4);
        // Same predictions regardless of parallelism (determinism).
        let mut seq_labels = seq.labels.clone();
        seq_labels.sort_by_key(|(id, _)| *id);
        assert_eq!(seq_labels, par.merged.labels);
        // Same total device-time.
        assert!((seq.clock.elapsed_secs() - par.merged.clock.elapsed_secs()).abs() < 1e-9);
    }

    #[test]
    fn speedup_grows_with_workers() {
        let ds = DatasetKind::Bdd100k.generate(0.12, 5);
        let videos: Vec<&zeus_video::Video> = ds.store.videos().iter().collect();
        let e = engine();
        let p2 = execute_parallel(&e, &videos, 2);
        let p4 = execute_parallel(&e, &videos, 4);
        assert!(p2.speedup() > 1.5, "2-worker speedup {}", p2.speedup());
        assert!(p4.speedup() > p2.speedup(), "4 workers should beat 2");
        assert!(p4.parallel_throughput() > p2.parallel_throughput());
    }

    #[test]
    fn zero_workers_run_as_one() {
        let ds = DatasetKind::Bdd100k.generate(0.04, 5);
        let videos = ds.store.split(zeus_video::video::Split::Test);
        let zero = execute_parallel(&engine(), &videos, 0);
        let one = execute_parallel(&engine(), &videos, 1);
        assert_eq!(zero.merged.labels, one.merged.labels);
        assert_eq!(
            zero.merged.histogram.entries(),
            one.merged.histogram.entries()
        );
        let bits = |r: &ParallelResult| {
            let secs: Vec<u64> = r.worker_secs.iter().map(|s| s.to_bits()).collect();
            (
                secs,
                r.merged.clock.elapsed_secs().to_bits(),
                r.merged.clock.events(),
            )
        };
        assert_eq!(bits(&zero), bits(&one));
    }

    #[test]
    fn run_jobs_returns_results_in_job_order() {
        for threads in [1, 2, 4, 8] {
            for jobs in [0, 1, 3, 17] {
                let got = run_jobs(threads, jobs, |i| i * i);
                let want: Vec<usize> = (0..jobs).map(|i| i * i).collect();
                assert_eq!(got, want, "{threads} threads, {jobs} jobs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 2 failed")]
    fn run_jobs_reraises_a_job_panic() {
        run_jobs(2, 5, |i| {
            if i == 2 {
                panic!("job 2 failed");
            }
            i
        });
    }
}
