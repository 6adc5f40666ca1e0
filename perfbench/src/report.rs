//! The result line, the provenance stamp, peak memory, and the trace file.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::catalog::{MetricDef, END_TO_END, PER_LAYER};
use crate::Config;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (plans, executions or submissions).
    pub attempted: u64,
    /// Operations that failed: errors, sheds, refusals, and — when any
    /// output check fails — every operation of the run.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// The end-to-end metrics (untraced measurement).
    pub end_to_end: Metrics,
    /// The per-layer metrics (traced run only).
    pub per_layer: Metrics,
    /// Human-readable check results and fingerprints, printed before the
    /// result line.
    pub notes: Vec<String>,
    /// Spans, self times and the program's exported telemetry of the
    /// traced run, as JSON lines.
    pub trace_jsonl: String,
}

impl Report {
    /// Record a failed output check: the run's operations all count as
    /// failed.
    pub fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The final JSON result line: every end-to-end metric, or with
    /// `trace` every per-layer metric, by name and unit.
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let (defs, values): (&[MetricDef], &Metrics) = if trace {
            (PER_LAYER, &self.per_layer)
        } else {
            (END_TO_END, &self.end_to_end)
        };
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let value = *values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite: {value}", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
        let failed = if self.correct {
            self.failed
        } else {
            self.attempted
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            metrics.join(", ")
        ))
    }

    /// Share of attempted operations that failed.
    pub fn failed_share(&self) -> f64 {
        if self.correct {
            self.failed as f64 / self.attempted.max(1) as f64
        } else {
            1.0
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` without starting a process; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The stamp every result carries: revision, build profile, CPU count,
/// workload seed and corpus scale.
pub fn provenance(cfg: &Config) -> String {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "perfbench rev={} profile={profile} nproc={nproc} workload={} seed={} scale={} budget_s={} trace={} smoke={}",
        git_revision(),
        cfg.workload.name(),
        cfg.seed,
        cfg.workload.scale(cfg.smoke),
        cfg.budget.as_secs_f64(),
        u8::from(cfg.trace),
        cfg.smoke,
    )
}

/// Write the traced run's spans and telemetry next to the benchmark
/// (`perfbench/out/`, relative to the checkout root the benchmark runs
/// from). Returns the file written.
pub fn write_trace(cfg: &Config, report: &Report) -> Result<PathBuf, String> {
    let dir = PathBuf::from("perfbench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    let body = format!(
        "{{\"type\":\"provenance\",\"stamp\":\"{}\"}}\n{}",
        provenance(cfg),
        report.trace_jsonl
    );
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
