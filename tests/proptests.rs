//! Property-based tests on cross-crate invariants.

use proptest::prelude::*;
use zeus::apfg::Configuration;
use zeus::core::metrics::{evaluate_events, evaluate_frames, EvalProtocol};
use zeus::core::query::{parse_zql, ActionQuery, OrderBy, QueryIr};
use zeus::sim::{CostModel, SimClock, SimDuration};
use zeus::video::annotation::{interval_iou, runs_from_labels};
use zeus::video::segment::sample_indices;
use zeus::video::source::DataSource;
use zeus::video::zds::{decode_dataset, encode_dataset};
use zeus::video::{ActionClass, DatasetKind};

proptest! {
    // ---------- ZQL dialect ----------

    /// `parse_zql(ir.to_sql()) == Ok(ir)` across the full extended
    /// dialect: FROM routing × classes × exclusions × accuracy × LIMIT ×
    /// WINDOW × latency budget × ORDER BY.
    #[test]
    fn extended_zql_roundtrips_through_to_sql(
        class_pick in 0usize..7,
        extra_pick in 0usize..8,     // 7 = no second class
        exclude_pick in 0usize..8,   // 7 = no exclusion
        acc_pct in 1usize..100,
        source_pick in 0usize..7,    // 5-6 = unrouted (UDF(video))
        limit in 0usize..20,         // 0 = no LIMIT
        (t0, len, has_window) in (0usize..500, 1usize..500, any::<bool>()),
        (budget_ms, has_budget) in (1usize..10_000, any::<bool>()),
        order_pick in 0usize..3,
        explain in any::<bool>(),
    ) {
        let all = ActionClass::ALL;
        let mut classes = vec![all[class_pick]];
        if extra_pick < all.len() && !classes.contains(&all[extra_pick]) {
            classes.push(all[extra_pick]);
        }
        let exclude = if exclude_pick < all.len() && !classes.contains(&all[exclude_pick]) {
            vec![all[exclude_pick]]
        } else {
            vec![]
        };
        let source = DatasetKind::ALL
            .get(source_pick)
            .map(|k| k.registry_name().to_string());
        let ir = QueryIr {
            base: ActionQuery::multi(classes, acc_pct as f64 / 100.0).unwrap(),
            source,
            exclude,
            window: has_window.then_some((t0, t0 + len)),
            limit: (limit > 0).then_some(limit),
            latency_budget_ms: has_budget.then_some(budget_ms as f64),
            order: match order_pick {
                0 => None,
                1 => Some(OrderBy::ConfidenceDesc),
                _ => Some(OrderBy::ConfidenceAsc),
            },
            explain,
        };
        prop_assert_eq!(parse_zql(&ir.to_sql()), Ok(ir));
    }

    // ---------- observability ----------

    /// Histogram quantile estimates always land in the same log bucket
    /// as the exact order statistic, for arbitrary value streams and
    /// quantiles; count and sum stay exact.
    #[test]
    fn histogram_quantiles_stay_within_one_bucket(
        values in prop::collection::vec(0u64..1_000_000, 1..400),
        q_pct in 0usize..=100,
    ) {
        use zeus::obs::LogHistogram;
        let h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let q = q_pct as f64 / 100.0;
        let n = sorted.len();
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
        let exact = sorted[rank - 1];
        let est = h.quantile(q);
        let d = (LogHistogram::bucket_of(est) as i64 - LogHistogram::bucket_of(exact) as i64).abs();
        prop_assert!(d <= 1, "q{q_pct}: est {est} vs exact {exact} ({d} buckets apart)");
        prop_assert_eq!(h.count(), n as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
    }

    // ---------- annotation / IoU ----------

    #[test]
    fn iou_is_symmetric_and_bounded(a0 in 0usize..500, al in 0usize..200,
                                    b0 in 0usize..500, bl in 0usize..200) {
        let (a1, b1) = (a0 + al, b0 + bl);
        let x = interval_iou(a0, a1, b0, b1);
        let y = interval_iou(b0, b1, a0, a1);
        prop_assert_eq!(x.to_bits(), y.to_bits(), "IoU must be symmetric");
        prop_assert!((0.0..=1.0).contains(&x));
        if al > 0 {
            prop_assert!((interval_iou(a0, a1, a0, a1) - 1.0).abs() < 1e-12);
        }
    }

    /// Any label vector, at every length up to 300 (so every chunk offset
    /// and tail length of the chunked search occurs): coin flips with
    /// the first and last frames set either way, alternating runs and
    /// gaps of 1..=100 frames that start with either, all `false`, or all
    /// `true`. The runs must equal the per-frame scan's and rebuild the
    /// labels exactly.
    #[test]
    fn runs_roundtrip_through_labels(
        len in 0usize..=300,
        shape in 0usize..4,
        coins in prop::collection::vec(any::<bool>(), 300),
        spans in prop::collection::vec(1usize..=100, 300),
        (first, last) in (any::<bool>(), any::<bool>()),
    ) {
        let mut labels = match shape {
            0 => coins[..len].to_vec(),
            1 => {
                let mut labels = Vec::with_capacity(len);
                for (i, &span) in spans.iter().enumerate() {
                    let span = span.min(len - labels.len());
                    labels.extend(std::iter::repeat_n(first ^ (i % 2 == 1), span));
                }
                labels
            }
            2 => vec![false; len],
            _ => vec![true; len],
        };
        if shape == 0 && len > 0 {
            labels[0] = first;
            labels[len - 1] = last;
        }
        let runs = runs_from_labels(&labels);
        prop_assert_eq!(&runs, &runs_frame_by_frame(&labels), "labels {:?}", labels);
        let mut rebuilt = vec![false; len];
        for &(start, end) in &runs {
            rebuilt[start..end].fill(true);
        }
        prop_assert_eq!(rebuilt, labels);
    }

    // ---------- metrics ----------

    #[test]
    fn windowed_report_counts_are_conserved(gt in prop::collection::vec(any::<bool>(), 1..300),
                                            flips in prop::collection::vec(any::<bool>(), 1..300),
                                            window in 1usize..20) {
        let n = gt.len().min(flips.len());
        let gt = &gt[..n];
        let pred: Vec<bool> = gt.iter().zip(&flips[..n]).map(|(&g, &f)| g ^ f).collect();
        let protocol = EvalProtocol::new(window);
        let report = evaluate_frames(protocol, gt, &pred);
        let windows = n.div_ceil(window) as u64;
        prop_assert_eq!(report.total(), windows, "every window must be counted once");
        let f1 = report.f1();
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn perfect_predictions_are_perfect(gt in prop::collection::vec(any::<bool>(), 1..300),
                                       window in 1usize..20) {
        let protocol = EvalProtocol::new(window);
        let report = evaluate_frames(protocol, &gt, &gt);
        prop_assert_eq!(report.fp, 0);
        prop_assert_eq!(report.fn_, 0);
        prop_assert!((report.f1() - 1.0).abs() < 1e-12);
        let ev = evaluate_events(&gt, &gt, 0.5);
        prop_assert_eq!(ev.fp, 0);
        prop_assert_eq!(ev.fn_, 0);
    }

    #[test]
    fn event_counts_bounded_by_run_counts(gt in prop::collection::vec(any::<bool>(), 1..300),
                                          pred in prop::collection::vec(any::<bool>(), 1..300)) {
        let n = gt.len().min(pred.len());
        let (gt, pred) = (&gt[..n], &pred[..n]);
        let report = evaluate_events(gt, pred, 0.5);
        let gt_runs = runs_from_labels(gt).len() as u64;
        let pred_runs = runs_from_labels(pred).len() as u64;
        prop_assert_eq!(report.tp + report.fn_, gt_runs);
        prop_assert_eq!(report.tp + report.fp, pred_runs);
    }

    // ---------- segments / configurations ----------

    #[test]
    fn sampled_indices_are_strictly_increasing(start in 0usize..500, l in 1usize..65,
                                               s in 1usize..9, frames in 1usize..2000) {
        let idx: Vec<usize> = sample_indices(start, l, s, frames).collect();
        prop_assert!(idx.len() <= l);
        for pair in idx.windows(2) {
            prop_assert_eq!(pair[1] - pair[0], s);
        }
        for &i in &idx {
            prop_assert!(i < frames);
        }
    }

    #[test]
    fn configuration_cost_is_monotone(r in 1usize..400, l in 1usize..65, s in 1usize..9) {
        let cost = CostModel;
        let base = cost.r3d_invocation(l, r).as_secs();
        prop_assert!(cost.r3d_invocation(l + 1, r).as_secs() > base);
        prop_assert!(cost.r3d_invocation(l, r + 1).as_secs() > base);
        // Covering more frames per invocation never lowers sliding fps.
        let fps = cost.sliding_throughput(l, s, r);
        prop_assert!(cost.sliding_throughput(l, s + 1, r) > fps);
        let _ = Configuration::new(r, l, s); // constructor accepts valid knobs
    }

    // ---------- simulated time ----------

    #[test]
    fn sim_clock_addition_is_exact_over_integers(ticks in prop::collection::vec(1u32..1000, 0..50)) {
        let mut clock = SimClock::new();
        let mut total = 0u64;
        for t in &ticks {
            clock.advance(SimDuration::from_secs(*t as f64));
            total += *t as u64;
        }
        prop_assert_eq!(clock.elapsed_secs(), total as f64);
        prop_assert_eq!(clock.events(), ticks.len() as u64);
    }

    // ---------- dataset generation ----------

    #[test]
    fn generated_videos_have_valid_annotations(seed in 0u64..50) {
        let ds = DatasetKind::Bdd100k.generate(0.02, seed);
        for v in ds.store.videos() {
            for iv in &v.intervals {
                prop_assert!(iv.end <= v.num_frames);
                prop_assert!(!iv.is_empty());
            }
            for pair in v.intervals.windows(2) {
                prop_assert!(pair[0].end <= pair[1].start, "intervals must not overlap");
            }
        }
    }

    /// `.zds` persistence is lossless: decode(encode(ds)) reproduces the
    /// corpus byte-for-byte (re-encoding is identical) and keeps its
    /// plan/cache identity (fingerprint).
    #[test]
    fn zds_roundtrip_is_lossless(
        seed in 0u64..30,
        kind in prop::sample::select(DatasetKind::ALL.to_vec()),
    ) {
        let ds = kind.generate(0.03, seed);
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).expect("fresh encoding decodes");
        prop_assert_eq!(&back.profile.name, &ds.profile.name);
        prop_assert_eq!(back.profile.family, ds.profile.family);
        prop_assert_eq!(&back.profile.query_classes, &ds.profile.query_classes);
        prop_assert_eq!(back.store.len(), ds.store.len());
        for (a, b) in ds.store.videos().iter().zip(back.store.videos()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.num_frames, b.num_frames);
            prop_assert_eq!(a.seed, b.seed);
            prop_assert_eq!(&a.intervals, &b.intervals);
        }
        prop_assert_eq!(ds.fingerprint(), back.fingerprint());
        prop_assert_eq!(bytes, encode_dataset(&back), "re-encoding must be byte-identical");
    }

    /// `DatasetKind::generate(scale, seed)` is byte-identical across
    /// runs: same encoded bytes, same fingerprint (fingerprint
    /// stability), and any change to scale or seed changes both.
    #[test]
    fn generation_is_byte_identical_across_runs(
        seed in 0u64..30,
        kind in prop::sample::select(DatasetKind::ALL.to_vec()),
    ) {
        let a = kind.generate(0.03, seed);
        let b = kind.generate(0.03, seed);
        prop_assert_eq!(encode_dataset(&a), encode_dataset(&b));
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        let other_seed = kind.generate(0.03, seed + 1);
        prop_assert_ne!(a.fingerprint(), other_seed.fingerprint());
        // A scale large enough to change the video count for every kind
        // (tiny scales clamp to the same 4-video floor, and identical
        // content must keep an identical fingerprint).
        let other_scale = kind.generate(0.2, seed);
        prop_assert_ne!(a.fingerprint(), other_scale.fingerprint());
    }

    #[test]
    fn labels_match_intervals(seed in 0u64..30) {
        let ds = DatasetKind::Thumos14.generate(0.02, seed);
        let classes = [ActionClass::PoleVault];
        for v in ds.store.videos().iter().take(2) {
            let labels = v.labels(&classes);
            let from_runs: usize = runs_from_labels(&labels).iter().map(|(s, e)| e - s).sum();
            let from_count = v.action_frames_in(&classes, 0, v.num_frames);
            prop_assert_eq!(from_runs, from_count);
        }
    }
}

/// The per-frame scan that `runs_from_labels` replaced: the reference
/// its chunked boundary search must match.
fn runs_frame_by_frame(labels: &[bool]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, &l) in labels.iter().enumerate() {
        match (l, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, labels.len()));
    }
    runs
}
