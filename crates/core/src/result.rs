//! Execution results: per-frame predictions, simulated time, and the
//! per-configuration frame histogram (feeds Figures 12b and 14).

use std::collections::HashMap;

use zeus_apfg::Configuration;
use zeus_sim::SimClock;
use zeus_video::annotation::runs_from_labels;
use zeus_video::{ActionClass, Video, VideoId};

use crate::metrics::{evaluate_frames, EvalProtocol, EvalReport};

/// How many video frames were processed under each configuration.
#[derive(Debug, Clone, Default)]
pub struct ConfigHistogram {
    counts: HashMap<Configuration, u64>,
}

impl ConfigHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `frames` video frames processed under `config`.
    pub fn record(&mut self, config: Configuration, frames: u64) {
        *self.counts.entry(config).or_insert(0) += frames;
    }

    /// Total frames recorded.
    pub fn total_frames(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Frames per configuration, sorted by configuration for determinism.
    pub fn entries(&self) -> Vec<(Configuration, u64)> {
        let mut v: Vec<(Configuration, u64)> = self.counts.iter().map(|(&c, &n)| (c, n)).collect();
        v.sort_by_key(|(c, _)| (c.resolution, c.seg_len, c.sampling_rate));
        v
    }

    /// Fraction of frames processed at a resolution strictly below
    /// `threshold` — the lo/hi split of Figure 12b / Figure 14b.
    pub fn low_resolution_fraction(&self, threshold: usize) -> f64 {
        let total = self.total_frames();
        if total == 0 {
            return 0.0;
        }
        let low: u64 = self
            .counts
            .iter()
            .filter(|(c, _)| c.resolution < threshold)
            .map(|(_, &n)| n)
            .sum();
        low as f64 / total as f64
    }

    /// Fraction of frames processed under each of the given configurations
    /// (Figure 14a's fast/mid/slow split). Unlisted configurations
    /// contribute to the denominator.
    pub fn fractions_for(&self, configs: &[Configuration]) -> Vec<f64> {
        let total = self.total_frames().max(1) as f64;
        configs
            .iter()
            .map(|c| *self.counts.get(c).unwrap_or(&0) as f64 / total)
            .collect()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ConfigHistogram) {
        for (&c, &n) in &other.counts {
            self.record(c, n);
        }
    }
}

/// Raw output of running one engine over a set of videos.
#[derive(Debug, Clone, Default)]
pub struct ExecutionResult {
    /// Predicted per-frame labels per video.
    pub labels: Vec<(VideoId, Vec<bool>)>,
    /// Simulated processing time (drives throughput).
    pub clock: SimClock,
    /// Frames processed per configuration.
    pub histogram: ConfigHistogram,
}

impl ExecutionResult {
    /// Total video frames covered.
    pub fn total_frames(&self) -> u64 {
        self.labels.iter().map(|(_, l)| l.len() as u64).sum()
    }

    /// Throughput in frames per (simulated) second — the paper's fps axis.
    pub fn throughput(&self) -> f64 {
        self.clock.throughput(self.total_frames())
    }

    /// Evaluate against ground truth with the fixed-window protocol,
    /// producing the F1 report.
    pub fn evaluate(
        &self,
        videos: &[&Video],
        classes: &[ActionClass],
        protocol: EvalProtocol,
    ) -> EvalReport {
        let mut report = EvalReport::default();
        for (id, pred) in &self.labels {
            let video = videos
                .iter()
                .find(|v| v.id == *id)
                .unwrap_or_else(|| panic!("video {id:?} missing from ground-truth set"));
            let gt = video.labels(classes);
            report.merge(&evaluate_frames(protocol, &gt, pred));
        }
        report
    }

    /// Output segments per video (contiguous predicted-positive runs) —
    /// the `segment_ids` the query returns.
    pub fn output_segments(&self) -> Vec<(VideoId, Vec<(usize, usize)>)> {
        self.labels
            .iter()
            .map(|(id, l)| (*id, runs_from_labels(l)))
            .collect()
    }
}

/// A fully-evaluated query outcome — one point on the paper's
/// throughput-vs-F1 plots.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Executor that produced it (display name).
    pub method: String,
    /// F1 score (the paper's accuracy axis).
    pub f1: f64,
    /// Precision component.
    pub precision: f64,
    /// Recall component.
    pub recall: f64,
    /// Throughput in fps (the paper's performance axis).
    pub throughput_fps: f64,
    /// Simulated execution seconds.
    pub elapsed_secs: f64,
    /// Model invocations performed.
    pub invocations: u64,
    /// Frames per configuration.
    pub histogram: ConfigHistogram,
}

impl QueryResult {
    /// Assemble from raw execution + evaluation.
    pub fn from_parts(method: &str, exec: &ExecutionResult, report: &EvalReport) -> Self {
        QueryResult {
            method: method.to_string(),
            f1: report.f1(),
            precision: report.precision(),
            recall: report.recall(),
            throughput_fps: exec.throughput(),
            elapsed_secs: exec.clock.elapsed_secs(),
            invocations: exec.clock.events(),
            histogram: exec.histogram.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_sim::SimDuration;

    #[test]
    fn histogram_records_and_fractions() {
        let mut h = ConfigHistogram::new();
        let fast = Configuration::new(150, 8, 8);
        let slow = Configuration::new(300, 2, 1);
        h.record(fast, 600);
        h.record(slow, 400);
        h.record(fast, 0);
        assert_eq!(h.total_frames(), 1000);
        assert!((h.low_resolution_fraction(200) - 0.6).abs() < 1e-9);
        let fr = h.fractions_for(&[fast, slow]);
        assert!((fr[0] - 0.6).abs() < 1e-9);
        assert!((fr[1] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = ConfigHistogram::new();
        let c = Configuration::new(150, 8, 8);
        a.record(c, 10);
        let mut b = ConfigHistogram::new();
        b.record(c, 5);
        a.merge(&b);
        assert_eq!(a.total_frames(), 15);
    }

    #[test]
    fn throughput_from_clock() {
        let mut clock = SimClock::new();
        clock.advance(SimDuration::from_secs(2.0));
        let exec = ExecutionResult {
            labels: vec![(VideoId(0), vec![false; 1000])],
            clock,
            histogram: ConfigHistogram::new(),
        };
        assert_eq!(exec.total_frames(), 1000);
        assert_eq!(exec.throughput(), 500.0);
    }

    #[test]
    fn output_segments_extracts_runs() {
        let exec = ExecutionResult {
            labels: vec![(VideoId(1), vec![false, true, true, false, true])],
            clock: SimClock::new(),
            histogram: ConfigHistogram::new(),
        };
        let segs = exec.output_segments();
        assert_eq!(segs[0].1, vec![(1, 3), (4, 5)]);
    }
}
