//! `EXPLAIN ANALYZE` support: contiguous stage timing whose per-stage
//! sum equals the measured end-to-end latency by construction.
//!
//! A [`StageClock`] is a sequence of checkpoints: each
//! [`mark`](StageClock::mark) closes the stage that ran since the
//! previous checkpoint. Because consecutive stages share their
//! boundary instant, the stage walls partition the interval from
//! `new()` to the final `mark()` exactly — there is no gap or overlap
//! for unaccounted time to hide in, which is what makes the
//! "stage sum within 5% of e2e" acceptance check hold without tuning.

use std::time::{Duration, Instant};

use crate::json_escape;

/// One timed stage of a query's execution.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage name (`admission`, `cache`, `plan`, `execute`, `refine`).
    pub name: String,
    /// Wall time spent in the stage.
    pub wall: Duration,
    /// Simulated device seconds attributed to the stage.
    pub device_secs: f64,
}

/// Checkpoint-based stage timer: stages are the deltas between
/// consecutive [`mark`](Self::mark) calls, so they tile the measured
/// interval with no gaps.
#[derive(Debug)]
pub struct StageClock {
    start: Instant,
    last: Instant,
    stages: Vec<StageTiming>,
}

impl Default for StageClock {
    fn default() -> Self {
        Self::new()
    }
}

impl StageClock {
    /// Start the clock; the first `mark` closes the first stage.
    pub fn new() -> Self {
        let now = Instant::now();
        StageClock {
            start: now,
            last: now,
            stages: Vec::new(),
        }
    }

    /// Close the current stage under `name`. Returns its wall time.
    pub fn mark(&mut self, name: impl Into<String>) -> Duration {
        let now = Instant::now();
        let wall = now.saturating_duration_since(self.last);
        self.last = now;
        self.stages.push(StageTiming {
            name: name.into(),
            wall,
            device_secs: 0.0,
        });
        wall
    }

    /// Attribute simulated device seconds to the most recent stage.
    pub fn set_device_secs(&mut self, secs: f64) {
        if let Some(stage) = self.stages.last_mut() {
            stage.device_secs = secs;
        }
    }

    /// Total time from construction to the last checkpoint — equal to
    /// the sum of stage walls by construction.
    pub fn total(&self) -> Duration {
        self.last.saturating_duration_since(self.start)
    }

    /// The stages closed so far.
    pub fn stages(&self) -> &[StageTiming] {
        &self.stages
    }

    /// Consume the clock into its stages and total.
    pub fn finish(self) -> (Vec<StageTiming>, Duration) {
        let total = self.total();
        (self.stages, total)
    }
}

/// The product of `EXPLAIN ANALYZE <query>`: per-stage timings plus the
/// measured end-to-end latency and device cost.
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// The ZQL text (or label) that was analyzed.
    pub query: String,
    /// Executor that served the query (`served`, `cached`, ...).
    pub executor: String,
    /// Whether the result came from the result cache (served queries),
    /// or the plan was found without planning (session runs).
    pub from_cache: bool,
    /// Whether this request coalesced onto an in-flight duplicate.
    pub coalesced: bool,
    /// Per-stage timings, in execution order.
    pub stages: Vec<StageTiming>,
    /// Measured end-to-end wall time.
    pub total: Duration,
    /// Total simulated device seconds consumed.
    pub device_secs: f64,
}

impl ExplainReport {
    /// Sum of the per-stage wall times.
    pub fn stage_sum(&self) -> Duration {
        self.stages.iter().map(|s| s.wall).sum()
    }

    /// Look up a stage's wall time by name.
    pub fn stage(&self, name: &str) -> Option<Duration> {
        self.stages.iter().find(|s| s.name == name).map(|s| s.wall)
    }

    /// The report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"query\": \"{}\", \"executor\": \"{}\", \"from_cache\": {}, \"coalesced\": {}, \"total_us\": {}, \"device_secs\": {:.6}, \"stages\": [",
            json_escape(&self.query),
            json_escape(&self.executor),
            self.from_cache,
            self.coalesced,
            self.total.as_micros(),
            self.device_secs,
        );
        for (i, s) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"wall_us\": {}, \"device_secs\": {:.6}}}",
                json_escape(&s.name),
                s.wall.as_micros(),
                s.device_secs,
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `query` may already carry the `EXPLAIN ANALYZE` prefix (it is
        // the round-tripped ZQL); don't print it twice.
        let query = self
            .query
            .strip_prefix("EXPLAIN ANALYZE ")
            .unwrap_or(&self.query);
        writeln!(f, "EXPLAIN ANALYZE {query}")?;
        writeln!(
            f,
            "executor={} from_cache={} coalesced={}",
            self.executor, self.from_cache, self.coalesced
        )?;
        let total_us = self.total.as_micros().max(1) as f64;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<12} {:>10.3} ms  {:>5.1}%  device={:.3}s",
                s.name,
                s.wall.as_secs_f64() * 1e3,
                s.wall.as_micros() as f64 / total_us * 100.0,
                s.device_secs,
            )?;
        }
        write!(
            f,
            "  {:<12} {:>10.3} ms  100.0%  device={:.3}s",
            "total",
            self.total.as_secs_f64() * 1e3,
            self.device_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_tile_the_total_exactly() {
        let mut clock = StageClock::new();
        std::thread::sleep(Duration::from_millis(2));
        clock.mark("cache");
        std::thread::sleep(Duration::from_millis(1));
        clock.mark("plan");
        clock.mark("admission");
        let (stages, total) = clock.finish();
        let sum: Duration = stages.iter().map(|s| s.wall).sum();
        assert_eq!(sum, total, "contiguous checkpoints must tile the total");
        assert_eq!(stages.len(), 3);
        assert!(stages[0].wall >= Duration::from_millis(2));
    }

    #[test]
    fn report_serializes_and_displays() {
        let mut clock = StageClock::new();
        clock.mark("execute");
        clock.set_device_secs(3.25);
        let (stages, total) = clock.finish();
        let report = ExplainReport {
            query: "SELECT \"x\"".into(),
            executor: "served".into(),
            from_cache: false,
            coalesced: false,
            stages,
            total,
            device_secs: 3.25,
        };
        assert_eq!(report.stage_sum(), report.total);
        assert!(report.stage("execute").is_some());
        let json = report.to_json();
        assert!(json.contains("\"name\": \"execute\""), "{json}");
        assert!(json.contains("\\\"x\\\""), "escaped quote: {json}");
        let text = format!("{report}");
        assert!(text.contains("EXPLAIN ANALYZE"));
        assert!(text.contains("execute"));
    }
}
