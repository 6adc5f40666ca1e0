//! Answer-set refinement for extended-ZQL queries.
//!
//! The classic query core (classes + accuracy target) determines the
//! trained plan, the execution, and the cache identity; the extended
//! clauses — `WINDOW`, `AND NOT`, `ORDER BY confidence`, `LIMIT` — are
//! relational operators applied to the *answer set* after execution.
//! Keeping refinement out of the execution path means an extended query
//! still coalesces with (and is cached as) its classic core: a hundred
//! differently-windowed views of the same query cost one execution.
//!
//! Confidence is a saturating run-length prior, `len / (len + 1)`: the
//! simulated proxy models emit per-frame booleans rather than scores, and
//! longer predicted runs survive more independent positive decisions. A
//! deployment with score-emitting models would substitute calibrated
//! scores here; the ordering contract is what the API fixes.

use std::collections::HashMap;
use std::sync::Arc;

use zeus_core::query::{OrderBy, QueryIr};
use zeus_video::annotation::runs_from_labels;
use zeus_video::{ActionClass, Video, VideoId};

/// Ground-truth spans of a set of excluded classes, per video — the
/// expensive part of refiner construction, shareable across refiners
/// (the server caches one per distinct exclude set).
pub type ExcludeSpans = HashMap<VideoId, Vec<(usize, usize)>>;

/// Scan a corpus for the ground-truth spans of `exclude` (empty map for
/// an empty exclude set).
pub fn compute_exclude_spans<'a, I>(exclude: &[ActionClass], videos: I) -> ExcludeSpans
where
    I: IntoIterator<Item = &'a Video>,
{
    if exclude.is_empty() {
        return HashMap::new();
    }
    videos
        .into_iter()
        .map(|v| (v.id, runs_from_labels(&v.labels(exclude))))
        .collect()
}

/// One segment of the refined answer set.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentHit {
    /// The video the segment was localized in.
    pub video: VideoId,
    /// First frame (inclusive).
    pub start: usize,
    /// End frame (exclusive).
    pub end: usize,
    /// Saturating run-length confidence in `(0, 1)`.
    pub confidence: f64,
}

/// Confidence of a predicted run of `len` frames.
pub fn segment_confidence(len: usize) -> f64 {
    len as f64 / (len as f64 + 1.0)
}

/// The unrefined answer set: every predicted run of every video, in
/// canonical (video, start) order.
pub fn answer_from_labels(labels: &[(VideoId, Vec<bool>)]) -> Vec<SegmentHit> {
    labels
        .iter()
        .flat_map(|(video, l)| {
            runs_from_labels(l)
                .into_iter()
                .map(|(start, end)| SegmentHit {
                    video: *video,
                    start,
                    end,
                    confidence: segment_confidence(end - start),
                })
        })
        .collect()
}

/// Compiled answer-set refinement for one [`QueryIr`].
#[derive(Debug, Clone, Default)]
pub struct QueryRefiner {
    window: Option<(usize, usize)>,
    limit: Option<usize>,
    order: Option<OrderBy>,
    /// Ground-truth spans of the excluded classes, per video (shared —
    /// the scan is corpus-sized and reusable across refiners).
    exclude_spans: Arc<ExcludeSpans>,
}

impl QueryRefiner {
    /// Compile the refinement for `ir` over the corpus it will be
    /// applied to (needed to resolve `AND NOT` class exclusions).
    pub fn new<'a, I>(ir: &QueryIr, videos: I) -> Self
    where
        I: IntoIterator<Item = &'a Video>,
    {
        Self::with_exclude_spans(ir, Arc::new(compute_exclude_spans(&ir.exclude, videos)))
    }

    /// Compile the refinement reusing a precomputed exclude-span map
    /// (see [`compute_exclude_spans`]; the server caches one per
    /// distinct exclude set so submissions stay cheap).
    pub fn with_exclude_spans(ir: &QueryIr, exclude_spans: Arc<ExcludeSpans>) -> Self {
        QueryRefiner {
            window: ir.window,
            limit: ir.limit,
            order: ir.order,
            exclude_spans,
        }
    }

    /// True when every segment passes unchanged (classic query).
    pub fn is_identity(&self) -> bool {
        self.window.is_none()
            && self.limit.is_none()
            && self.order.is_none()
            && self.exclude_spans.is_empty()
    }

    fn keep(&self, video: VideoId, start: usize, end: usize) -> bool {
        if let Some((t0, t1)) = self.window {
            if end <= t0 || start >= t1 {
                return false;
            }
        }
        if let Some(spans) = self.exclude_spans.get(&video) {
            if spans.iter().any(|&(s, e)| start < e && s < end) {
                return false;
            }
        }
        true
    }

    /// The full refined answer set: filter, order, limit.
    pub fn answer(&self, labels: &[(VideoId, Vec<bool>)]) -> Vec<SegmentHit> {
        let mut hits: Vec<SegmentHit> = answer_from_labels(labels)
            .into_iter()
            .filter(|h| self.keep(h.video, h.start, h.end))
            .collect();
        match self.order {
            Some(OrderBy::ConfidenceDesc) => hits.sort_by(|a, b| {
                b.confidence
                    .total_cmp(&a.confidence)
                    .then(a.video.cmp(&b.video))
                    .then(a.start.cmp(&b.start))
            }),
            Some(OrderBy::ConfidenceAsc) => hits.sort_by(|a, b| {
                a.confidence
                    .total_cmp(&b.confidence)
                    .then(a.video.cmp(&b.video))
                    .then(a.start.cmp(&b.start))
            }),
            None => {}
        }
        if let Some(n) = self.limit {
            hits.truncate(n);
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_core::query::ActionQuery;
    use zeus_video::ActionClass;

    fn ir(window: Option<(usize, usize)>, limit: Option<usize>, order: Option<OrderBy>) -> QueryIr {
        QueryIr {
            base: ActionQuery::new(ActionClass::LeftTurn, 0.8).unwrap(),
            source: None,
            exclude: vec![],
            window,
            limit,
            latency_budget_ms: None,
            order,
            explain: false,
        }
    }

    fn labels() -> Vec<(VideoId, Vec<bool>)> {
        // Video 1: runs (1,3) and (5,9); video 2: run (0,2).
        vec![
            (
                VideoId(1),
                vec![
                    false, true, true, false, false, true, true, true, true, false,
                ],
            ),
            (VideoId(2), vec![true, true, false]),
        ]
    }

    #[test]
    fn window_masks_segments_outside_the_range() {
        let r = QueryRefiner::new(&ir(Some((4, 10)), None, None), std::iter::empty());
        let hits = r.answer(&labels());
        assert_eq!(hits.len(), 1);
        assert_eq!(
            (hits[0].video, hits[0].start, hits[0].end),
            (VideoId(1), 5, 9)
        );
    }

    #[test]
    fn order_and_limit_rank_by_confidence_then_truncate() {
        let r = QueryRefiner::new(
            &ir(None, Some(2), Some(OrderBy::ConfidenceDesc)),
            std::iter::empty(),
        );
        let hits = r.answer(&labels());
        assert_eq!(hits.len(), 2);
        // Longest run (5,9) first, then the two-frame runs tie-broken by
        // (video, start): (1,1..3) before (2,0..2).
        assert_eq!((hits[0].start, hits[0].end), (5, 9));
        assert_eq!((hits[1].video, hits[1].start), (VideoId(1), 1));
        assert!(hits[0].confidence > hits[1].confidence);
    }

    #[test]
    fn identity_refiner_returns_every_run() {
        let r = QueryRefiner::new(&ir(None, None, None), std::iter::empty());
        assert!(r.is_identity());
        assert_eq!(r.answer(&labels()).len(), 3);
    }
}
