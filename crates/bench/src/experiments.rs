//! One driver per table and figure of the paper's evaluation (§6), plus
//! three ablations (reward, model reuse, aggregation window) and the §6.4
//! parallel-execution extension. Each returns a printable
//! [`ExperimentOutput`]; the `reproduce` binary runs them all.

use zeus_apfg::frame_pp::FramePpModel;
use zeus_apfg::segment_pp::SegmentPpFilter;
use zeus_apfg::simulated::domain_shift;
use zeus_apfg::Configuration;
use zeus_core::baselines::{FramePp, QueryEngine, SegmentPp, ZeusHeuristic, ZeusRl, ZeusSliding};
use zeus_core::config::{ConfigSpace, KnobMask};
use zeus_core::parallel::execute_parallel;
use zeus_core::planner::PlannerOptions;
use zeus_core::result::QueryResult;
use zeus_core::ExecutorKind;
use zeus_rl::RewardMode;
use zeus_sim::CostModel;
use zeus_video::stats::DatasetStats;
use zeus_video::{ActionClass, DatasetKind};

use crate::harness::{paper_queries, ExperimentContext, DEFAULT_SCALE, DEFAULT_SEED};
use crate::tables::render;

/// A printable experiment result block.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id, e.g. "table2" or "fig8".
    pub id: String,
    /// Rendered text (tables + notes).
    pub text: String,
}

fn fmt_result(r: &QueryResult) -> Vec<String> {
    vec![
        r.method.clone(),
        format!("{:.3}", r.f1),
        format!("{:.3}", r.precision),
        format!("{:.3}", r.recall),
        format!("{:.0}", r.throughput_fps),
    ]
}

/// Table 1: the qualitative technique matrix (derived from the engine
/// implementations rather than measured).
pub fn table1() -> ExperimentOutput {
    let rows = vec![
        vec![
            "Frame-PP".into(),
            "".into(),
            "".into(),
            "".into(),
            "".into(),
        ],
        vec![
            "Segment-PP".into(),
            "x".into(),
            "".into(),
            "".into(),
            "".into(),
        ],
        vec![
            "Zeus-Sliding".into(),
            "x".into(),
            "".into(),
            "".into(),
            "x".into(),
        ],
        vec![
            "Zeus-Heuristic".into(),
            "x".into(),
            "x".into(),
            "".into(),
            "".into(),
        ],
        vec![
            "Zeus-RL".into(),
            "x".into(),
            "x".into(),
            "x".into(),
            "x".into(),
        ],
    ];
    ExperimentOutput {
        id: "table1".into(),
        text: render(
            "Table 1 — Techniques for processing action queries",
            &["Technique", "Sequence", "Adaptive", "Auto-Knob", "Accuracy"],
            &rows,
        ),
    }
}

/// Table 2: illustrative configuration cost metrics for CrossRight.
pub fn table2(ctx: &ExperimentContext) -> ExperimentOutput {
    // The paper tabulates four illustrative rows; print those plus the
    // knob-space extremes from our profiled space.
    let interesting = [
        ((150, 4, 8), 1282.0, 0.57),
        ((200, 4, 4), 553.0, 0.82),
        ((250, 6, 2), 285.0, 0.86),
        ((300, 6, 1), 115.0, 0.91),
    ];
    let mut rows = Vec::new();
    for ((r, l, s), paper_fps, paper_f1) in interesting {
        let config = Configuration::new(r, l, s);
        if let Some(p) = ctx.plan.profiles.iter().find(|p| p.config == config) {
            rows.push(vec![
                config.to_string(),
                format!("{:.0}", p.throughput_fps),
                format!("{:.3}", p.f1),
                format!("{paper_fps:.0}"),
                format!("{paper_f1:.2}"),
            ]);
        }
    }
    ExperimentOutput {
        id: "table2".into(),
        text: render(
            "Table 2 — Configuration cost metrics, CrossRight (measured vs paper)",
            &["(r, l, s)", "fps", "F1", "paper fps", "paper F1"],
            &rows,
        ),
    }
}

/// Table 3: dataset characteristics of the generated corpora.
pub fn table3(scale: f64) -> ExperimentOutput {
    let paper = [
        (DatasetKind::Bdd100k, 186.0, 7.03, 115.0, 58.7, 6, 305),
        (DatasetKind::Thumos14, 645.0, 40.27, 211.0, 186.3, 18, 3543),
        (
            DatasetKind::ActivityNet,
            633.0,
            56.37,
            909.0,
            1239.1,
            20,
            6931,
        ),
    ];
    let mut rows = Vec::new();
    for (kind, pk, ppct, pmean, pstd, pmin, pmax) in paper {
        let ds = kind.generate(scale, DEFAULT_SEED);
        let stats = DatasetStats::compute(&ds.store, &kind.query_classes());
        rows.push(vec![
            kind.name().into(),
            format!("{}", stats.num_classes),
            format!("{:.0}K", stats.total_frames as f64 / 1000.0),
            format!("{:.2}%", stats.action_fraction * 100.0),
            format!("{:.0}", stats.mean_len),
            format!("{:.1}", stats.std_len),
            format!("({}, {})", stats.min_len, stats.max_len),
            format!("{pk:.0}K/{ppct}%/{pmean}/{pstd}/({pmin},{pmax})"),
        ]);
    }
    ExperimentOutput {
        id: "table3".into(),
        text: render(
            &format!("Table 3 — Dataset characteristics (scale {scale})"),
            &[
                "Dataset",
                "Cls",
                "Frames",
                "%Action",
                "MeanLen",
                "Std",
                "(Min,Max)",
                "paper (full scale)",
            ],
            &rows,
        ),
    }
}

/// Table 4: knob settings + maximum accuracy per query.
pub fn table4(contexts: &[(&str, &ExperimentContext)]) -> ExperimentOutput {
    let paper_max = [
        ("CrossRight", 0.91),
        ("LeftTurn", 0.89),
        ("PoleVault", 0.78),
        ("CleanAndJerk", 0.76),
        ("IroningClothes", 0.85),
        ("TennisServe", 0.80),
    ];
    let mut rows = Vec::new();
    for (name, ctx) in contexts {
        let full_space = ConfigSpace::for_family(ctx.dataset.family());
        let paper = paper_max
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        rows.push(vec![
            ctx.dataset.name().to_string(),
            (*name).into(),
            format!("{}", full_space.len()),
            format!("{:.3}", ctx.plan.max_accuracy),
            format!("{paper:.2}"),
        ]);
    }
    ExperimentOutput {
        id: "table4".into(),
        text: render(
            "Table 4 — Configuration statistics: max accuracy per query (measured vs paper)",
            &["Dataset", "Query", "#Configs", "Max F1", "paper"],
            &rows,
        ),
    }
}

/// Figure 8: end-to-end throughput and F1, five methods x six queries.
pub fn fig8(contexts: &[(&str, &ExperimentContext)]) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (name, ctx) in contexts {
        for outcome in ctx.run_all() {
            let mut row = vec![
                (*name).to_string(),
                format!("{:.2}", ctx.query.target_accuracy),
            ];
            row.extend(fmt_result(&outcome.result));
            rows.push(row);
        }
    }
    ExperimentOutput {
        id: "fig8".into(),
        text: render(
            "Figure 8 — End-to-end comparison (test split)",
            &["Query", "Target", "Method", "F1", "P", "R", "fps"],
            &rows,
        ),
    }
}

/// Table 5 + Figure 9: accuracy-aware planning across targets.
pub fn fig9_table5(sweep: &[(&str, &ExperimentContext)]) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (name, ctx) in sweep {
        let sliding = ctx.run(ExecutorKind::ZeusSliding);
        let rl = ctx.run(ExecutorKind::ZeusRl);
        rows.push(vec![
            (*name).to_string(),
            format!("{:.2}", ctx.query.target_accuracy),
            format!("{:.3}", sliding.f1),
            format!("{:.0}", sliding.throughput_fps),
            format!("{:.3}", rl.f1),
            format!("{:.0}", rl.throughput_fps),
            format!("{:.2}x", rl.throughput_fps / sliding.throughput_fps),
        ]);
    }
    ExperimentOutput {
        id: "fig9".into(),
        text: render(
            "Figure 9 / Table 5 — Throughput and accuracy across targets; speedup of Zeus-RL over Zeus-Sliding",
            &["Query", "Target", "Slide F1", "Slide fps", "RL F1", "RL fps", "Speedup"],
            &rows,
        ),
    }
}

/// Table 6: training and inference costs.
pub fn table6(ctx: &ExperimentContext) -> ExperimentOutput {
    let costs = &ctx.plan.costs;
    let frame_pp = ctx.run(ExecutorKind::FramePp);
    let sliding = ctx.run(ExecutorKind::ZeusSliding);
    let heuristic = ctx.run(ExecutorKind::ZeusHeuristic);
    let rl = ctx.run(ExecutorKind::ZeusRl);
    // Inference seconds over the full (paper-sized) corpus: scale the
    // per-test-frame rate up to the paper's 186 K frames for comparability.
    let paper_frames = 186_000.0;
    let inf = |r: &QueryResult| paper_frames / r.throughput_fps;
    let rows = vec![
        vec![
            "Frame-PP".into(),
            format!("{:.2}", costs.frame_pp_training_secs),
            "NA".into(),
            format!("{:.2}", inf(&frame_pp)),
            "101.81 / NA / 396.85".into(),
        ],
        vec![
            "Zeus-Sliding".into(),
            format!("{:.2}", costs.apfg_training_secs),
            "NA".into(),
            format!("{:.2}", inf(&sliding)),
            "247.57 / NA / 181.06".into(),
        ],
        vec![
            "Zeus-Heuristic".into(),
            format!("{:.2}", costs.apfg_training_secs),
            "NA".into(),
            format!("{:.2}", inf(&heuristic)),
            "247.57 / NA / 64.21".into(),
        ],
        vec![
            "Zeus-RL".into(),
            format!("{:.2}", costs.apfg_training_secs),
            format!("{:.2}", costs.rl_training_secs),
            format!("{:.2}", inf(&rl)),
            "247.57 / 90.00 / 38.52".into(),
        ],
    ];
    ExperimentOutput {
        id: "table6".into(),
        text: render(
            "Table 6 — Training and inference costs (simulated secs, scaled to the paper's 186K-frame corpus)",
            &["Method", "APFG train", "RL train", "Inference", "paper (train/RL/inf)"],
            &rows,
        ),
    }
}

/// Figure 10: knob ablation — disable each knob and measure Zeus-RL.
pub fn fig10(queries: &[(DatasetKind, ActionClass, f64)]) -> ExperimentOutput {
    let mut rows = Vec::new();
    for &(kind, class, target) in queries {
        let masks: [(&str, KnobMask); 4] = [
            ("Zeus (all knobs)", KnobMask::none()),
            (
                "-Resolution",
                KnobMask {
                    fix_resolution: Some(ConfigSpace::for_dataset(kind).max_resolution()),
                    ..KnobMask::none()
                },
            ),
            (
                "-SegmentLength",
                KnobMask {
                    fix_seg_len: Some(ConfigSpace::for_dataset(kind).max_seg_len()),
                    ..KnobMask::none()
                },
            ),
            (
                "-SamplingRate",
                KnobMask {
                    fix_sampling: Some(1),
                    ..KnobMask::none()
                },
            ),
        ];
        for (name, mask) in masks {
            let options = PlannerOptions {
                knob_mask: mask,
                ..PlannerOptions::default()
            };
            let ctx =
                ExperimentContext::with_scale(kind, vec![class], target, DEFAULT_SCALE, options);
            let rl = ctx.run(ExecutorKind::ZeusRl);
            rows.push(vec![
                class.display_name().into(),
                name.into(),
                format!("{:.3}", rl.f1),
                format!("{:.0}", rl.throughput_fps),
            ]);
        }
    }
    ExperimentOutput {
        id: "fig10".into(),
        text: render(
            "Figure 10 — Impact of disabling each knob on Zeus-RL",
            &["Query", "Variant", "F1", "fps"],
            &rows,
        ),
    }
}

/// Figure 11: multi-class training.
pub fn fig11() -> ExperimentOutput {
    let combos: [(&str, Vec<ActionClass>); 2] = [
        (
            "CrossRight+CrossLeft",
            vec![ActionClass::CrossRight, ActionClass::CrossLeft],
        ),
        (
            "CrossRight+LeftTurn",
            vec![ActionClass::CrossRight, ActionClass::LeftTurn],
        ),
    ];
    let mut rows = Vec::new();
    for (name, classes) in combos {
        let ctx = ExperimentContext::new(DatasetKind::Bdd100k, classes, 0.85);
        for outcome in ctx.run_all() {
            let mut row = vec![name.to_string()];
            row.extend(fmt_result(&outcome.result));
            rows.push(row);
        }
    }
    ExperimentOutput {
        id: "fig11".into(),
        text: render(
            "Figure 11 — Multi-class training (union queries on BDD100K)",
            &["Classes", "Method", "F1", "P", "R", "fps"],
            &rows,
        ),
    }
}

/// Figure 12: cross-model inference — the CrossRight agent driving other
/// classes' APFGs.
pub fn fig12(cross_right: &ExperimentContext) -> ExperimentOutput {
    let planner_cost = CostModel;
    let mut rows = Vec::new();
    let mut res_split_rows = Vec::new();

    for (target_class, label) in [
        (ActionClass::CrossRight, "CrossRight->CrossRight"),
        (ActionClass::CrossLeft, "CrossRight->CrossLeft"),
        (ActionClass::LeftTurn, "CrossRight->LeftTurn"),
    ] {
        let similarity = zeus_apfg::traits::class_similarity(ActionClass::CrossRight, target_class);
        let space = &cross_right.plan.space;
        let apfg = zeus_apfg::SimulatedApfg::new(
            vec![target_class],
            ConfigSpace::for_dataset(DatasetKind::Bdd100k).max_resolution(),
            ConfigSpace::for_dataset(DatasetKind::Bdd100k).max_seg_len(),
            ConfigSpace::for_dataset(DatasetKind::Bdd100k).max_sampling(),
            cross_right.options.seed,
        )
        .with_feature_skew(1.0 - similarity);
        let engine = ZeusRl::new(
            apfg.clone(),
            cross_right.plan.policy.clone(),
            space.clone(),
            cross_right.plan.init_config,
            planner_cost.clone(),
        );
        let videos = cross_right.test_videos();
        let exec = engine.execute(&videos);
        let report = exec.evaluate(&videos, &[target_class], cross_right.protocol());
        rows.push(vec![
            label.into(),
            format!("{:.3}", report.f1()),
            format!("{:.0}", exec.throughput()),
        ]);
        let lo = exec.histogram.low_resolution_fraction(250);
        res_split_rows.push(vec![
            label.into(),
            format!("{:.0}%", lo * 100.0),
            format!("{:.0}%", (1.0 - lo) * 100.0),
        ]);

        // Sliding reference for the target class (12a's Sliding curve).
        if target_class == ActionClass::CrossLeft {
            let sliding = ZeusSliding::new(
                apfg.with_feature_skew(0.0),
                cross_right.plan.sliding_config,
                planner_cost.clone(),
            );
            let exec = sliding.execute(&videos);
            let report = exec.evaluate(&videos, &[target_class], cross_right.protocol());
            rows.push(vec![
                "Sliding (CrossLeft)".into(),
                format!("{:.3}", report.f1()),
                format!("{:.0}", exec.throughput()),
            ]);
        }
    }
    let mut text = render(
        "Figure 12a — Cross-model inference: CrossRight agent on other classes",
        &["Transfer", "F1", "fps"],
        &rows,
    );
    text.push_str(&render(
        "Figure 12b — Frames by resolution under the transferred agent",
        &["Transfer", "low res (<250)", "high res"],
        &res_split_rows,
    ));
    ExperimentOutput {
        id: "fig12".into(),
        text,
    }
}

/// Figure 13: domain adaptation — train on BDD100K, test on Cityscapes and
/// KITTI with the calibrated domain-shift model.
pub fn fig13(cross_right: &ExperimentContext, left_turn: &ExperimentContext) -> ExperimentOutput {
    let cost = CostModel;
    let mut rows = Vec::new();
    let transfers: [(&ExperimentContext, ActionClass, DatasetKind); 3] = [
        (
            cross_right,
            ActionClass::CrossRight,
            DatasetKind::Cityscapes,
        ),
        (left_turn, ActionClass::LeftTurn, DatasetKind::Cityscapes),
        (left_turn, ActionClass::LeftTurn, DatasetKind::Kitti),
    ];
    for (ctx, class, target_kind) in transfers {
        let shift = domain_shift(DatasetKind::Bdd100k, target_kind, &[class]);
        let target_ds = target_kind.generate(DEFAULT_SCALE, DEFAULT_SEED ^ 0xC17);
        // The transfer corpora were never trained on, so the whole corpus
        // is a legitimate test set (as in the paper, which evaluates on
        // the full Cityscapes/KITTI annotation sets).
        let videos: Vec<&zeus_video::Video> = target_ds.store.videos().iter().collect();
        let apfg = ctx.plan.apfg.clone().with_domain_shift(shift);
        let protocol = ctx.protocol();

        let engines: Vec<(&str, Box<dyn QueryEngine>)> = vec![
            (
                "Frame-PP",
                Box::new(FramePp::new(
                    FramePpModel::new(vec![class], ctx.plan.space.max_resolution(), 0xF2)
                        .with_domain_shift(shift),
                    cost.clone(),
                )),
            ),
            (
                "Segment-PP",
                Box::new(SegmentPp::new(
                    SegmentPpFilter::new(vec![class], 0x51).with_domain_shift(shift),
                    apfg.clone(),
                    ctx.plan.init_config,
                    cost.clone(),
                )),
            ),
            (
                "Zeus-Sliding",
                Box::new(ZeusSliding::new(
                    apfg.clone(),
                    ctx.plan.sliding_config,
                    cost.clone(),
                )),
            ),
            ("Zeus-Heuristic", {
                let (fast, mid, slow) = zeus_core::planner::heuristic_subset(&ctx.plan.profiles);
                Box::new(ZeusHeuristic::new(
                    apfg.clone(),
                    fast,
                    mid,
                    slow,
                    cost.clone(),
                ))
            }),
            (
                "Zeus-RL",
                Box::new(ZeusRl::new(
                    apfg.clone(),
                    ctx.plan.policy.clone(),
                    ctx.plan.space.clone(),
                    ctx.plan.init_config,
                    cost.clone(),
                )),
            ),
        ];
        for (name, engine) in engines {
            let exec = engine.execute(&videos);
            let report = exec.evaluate(&videos, &[class], protocol);
            rows.push(vec![
                format!("{} – {}", class.display_name(), target_kind.name()),
                name.into(),
                format!("{:.3}", report.f1()),
                format!("{:.0}", exec.throughput()),
            ]);
        }
    }
    ExperimentOutput {
        id: "fig13".into(),
        text: render(
            "Figure 13 — Domain adaptation: trained on BDD100K, tested on Cityscapes / KITTI",
            &["Transfer", "Method", "F1", "fps"],
            &rows,
        ),
    }
}

/// Figure 14: configuration distribution under a 3-config space.
pub fn fig14() -> ExperimentOutput {
    let queries = [
        (DatasetKind::Bdd100k, ActionClass::CrossRight, 0.85),
        (DatasetKind::Thumos14, ActionClass::PoleVault, 0.75),
        (DatasetKind::ActivityNet, ActionClass::IroningClothes, 0.75),
    ];
    let mut rows = Vec::new();
    let mut res_rows = Vec::new();
    for (kind, class, target) in queries {
        // Constrain the agent to fast/mid/slow (§6.8).
        let options = PlannerOptions {
            max_actions: 3,
            ..PlannerOptions::default()
        };
        let ctx = ExperimentContext::with_scale(kind, vec![class], target, DEFAULT_SCALE, options);
        // `restricted_to` preserves the full-space order, so classify the
        // three surviving configurations by measured throughput.
        let cost = CostModel;
        let mut by_speed = ctx.plan.space.configs().to_vec();
        by_speed.sort_by(|a, b| {
            cost.sliding_throughput(b.seg_len, b.sampling_rate, b.resolution)
                .total_cmp(&cost.sliding_throughput(a.seg_len, a.sampling_rate, a.resolution))
        });

        for kind_ex in [ExecutorKind::ZeusHeuristic, ExecutorKind::ZeusRl] {
            let r = ctx.run(kind_ex);
            let fr = r.histogram.fractions_for(&[
                by_speed[0],
                by_speed[by_speed.len() / 2],
                by_speed[by_speed.len() - 1],
            ]);
            rows.push(vec![
                class.display_name().into(),
                r.method.clone(),
                format!("{:.0}%", fr[0] * 100.0),
                format!("{:.0}%", fr[1] * 100.0),
                format!("{:.0}%", fr[2] * 100.0),
                format!("{:.3}", r.f1),
                format!("{:.0}", r.throughput_fps),
            ]);
            let threshold = ctx.plan.space.max_resolution();
            let lo = r.histogram.low_resolution_fraction(threshold);
            res_rows.push(vec![
                class.display_name().into(),
                r.method.clone(),
                format!("{:.0}/{:.0}", lo * 100.0, (1.0 - lo) * 100.0),
            ]);
        }
    }
    let mut text = render(
        "Figure 14a — Frames processed by fast/mid/slow configurations",
        &["Query", "Method", "fast", "mid", "slow", "F1", "fps"],
        &rows,
    );
    text.push_str(&render(
        "Figure 14b — Resolution split lo/hi (%)",
        &["Query", "Method", "lo/hi"],
        &res_rows,
    ));
    ExperimentOutput {
        id: "fig14".into(),
        text,
    }
}

/// Ablation: local (Eq. 2) vs aggregate (Alg. 2) rewards.
pub fn ablation_reward() -> ExperimentOutput {
    let mut rows = Vec::new();
    for (name, mode) in [
        ("Aggregate (Alg. 2)", None),
        (
            // β sits above the mean fastness so slow configurations earn
            // positive reward on action segments (Eq. 2's intent); the
            // local rule then overshoots accuracy with no way to trade it
            // back — the §4.5 motivation for aggregate rewards.
            "Local only (Eq. 2)",
            Some(RewardMode::Local { beta: 0.30 }),
        ),
    ] {
        let options = PlannerOptions {
            reward_mode: mode,
            ..PlannerOptions::default()
        };
        let ctx = ExperimentContext::with_scale(
            DatasetKind::Bdd100k,
            vec![ActionClass::CrossRight],
            0.85,
            DEFAULT_SCALE,
            options,
        );
        let r = ctx.run(ExecutorKind::ZeusRl);
        rows.push(vec![
            name.into(),
            format!("{:.3}", r.f1),
            format!("{:.0}", r.throughput_fps),
        ]);
    }
    ExperimentOutput {
        id: "ablation-reward".into(),
        text: render(
            "Ablation — reward function (CrossRight @ 0.85): the local reward lacks accuracy control (§4.5)",
            &["Reward", "F1", "fps"],
            &rows,
        ),
    }
}

/// Ablation: §5 model reuse vs per-configuration ensemble.
pub fn ablation_reuse() -> ExperimentOutput {
    let mut rows = Vec::new();
    for (name, ensemble) in [("Model reuse (§5)", false), ("Per-config ensemble", true)] {
        let options = PlannerOptions {
            per_config_ensemble: ensemble,
            ..PlannerOptions::default()
        };
        let ctx = ExperimentContext::with_scale(
            DatasetKind::Bdd100k,
            vec![ActionClass::CrossRight],
            0.85,
            DEFAULT_SCALE,
            options,
        );
        let r = ctx.run(ExecutorKind::ZeusRl);
        rows.push(vec![
            name.into(),
            format!("{:.3}", r.f1),
            format!("{:.0}", r.throughput_fps),
            format!("{:.0}s", ctx.plan.costs.apfg_training_secs),
        ]);
    }
    ExperimentOutput {
        id: "ablation-reuse".into(),
        text: render(
            "Ablation — APFG model reuse vs per-config ensemble (accuracy vs training cost, §5)",
            &["APFG strategy", "F1", "fps", "APFG training"],
            &rows,
        ),
    }
}

/// Ablation: aggregate-reward window size.
pub fn ablation_window() -> ExperimentOutput {
    let mut rows = Vec::new();
    for mult in [5usize, 25, 100] {
        let options = PlannerOptions {
            window_multiple: mult,
            ..PlannerOptions::default()
        };
        let ctx = ExperimentContext::with_scale(
            DatasetKind::Bdd100k,
            vec![ActionClass::CrossRight],
            0.85,
            DEFAULT_SCALE,
            options,
        );
        let r = ctx.run(ExecutorKind::ZeusRl);
        rows.push(vec![
            format!("W = {} frames", mult * 16),
            format!("{:.3}", r.f1),
            format!("{:.0}", r.throughput_fps),
        ]);
    }
    ExperimentOutput {
        id: "ablation-window".into(),
        text: render(
            "Ablation — aggregate-reward window size W (§4.5)",
            &["Window", "F1", "fps"],
            &rows,
        ),
    }
}

/// Extension: §6.4 inter-video parallelism.
pub fn extension_parallel(ctx: &ExperimentContext) -> ExperimentOutput {
    let engine = ctx.engine(ExecutorKind::ZeusRl);
    let videos = ctx.test_videos();
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let result = execute_parallel(engine.as_ref(), &videos, workers);
        rows.push(vec![
            format!("{workers}"),
            format!("{:.1}", result.makespan_secs()),
            format!("{:.0}", result.parallel_throughput()),
            format!("{:.2}x", result.speedup()),
        ]);
    }
    ExperimentOutput {
        id: "extension-parallel".into(),
        text: render(
            "Extension — inter-video parallel Zeus-RL (§6.4), CrossRight",
            &["Devices", "Makespan (s)", "Effective fps", "Speedup"],
            &rows,
        ),
    }
}

/// Run the full suite in paper order. `fast` skips the slowest blocks.
pub fn run_all(fast: bool) -> Vec<ExperimentOutput> {
    let mut outputs = Vec::new();
    outputs.push(table1());
    outputs.push(table3(DEFAULT_SCALE));

    // Shared contexts for the six paper queries at Figure 8 targets.
    let queries = paper_queries();
    let contexts: Vec<(&str, ExperimentContext)> = queries
        .iter()
        .map(|&(kind, class, target)| {
            (
                class.display_name(),
                ExperimentContext::new(kind, vec![class], target),
            )
        })
        .collect();
    let ctx_refs: Vec<(&str, &ExperimentContext)> = contexts.iter().map(|(n, c)| (*n, c)).collect();
    let cross_right = &contexts[0].1;
    let left_turn = &contexts[1].1;

    outputs.push(table2(cross_right));
    outputs.push(table4(&ctx_refs));
    outputs.push(fig8(&ctx_refs));
    outputs.push(table6(cross_right));

    // Figure 9 / Table 5: targets 0.75/0.80/0.85 on CrossRight, LeftTurn.
    // At 0.85 they are Figure 8's contexts.
    let lower = |class| {
        [0.75, 0.80].map(|target| ExperimentContext::new(DatasetKind::Bdd100k, vec![class], target))
    };
    let [cross_right_75, cross_right_80] = lower(ActionClass::CrossRight);
    let [left_turn_75, left_turn_80] = lower(ActionClass::LeftTurn);
    outputs.push(fig9_table5(&[
        ("CrossRight", &cross_right_75),
        ("CrossRight", &cross_right_80),
        ("CrossRight", cross_right),
        ("LeftTurn", &left_turn_75),
        ("LeftTurn", &left_turn_80),
        ("LeftTurn", left_turn),
    ]));

    outputs.push(fig12(cross_right));
    outputs.push(fig13(cross_right, left_turn));
    outputs.push(extension_parallel(cross_right));

    if !fast {
        outputs.push(fig10(&[
            (DatasetKind::Bdd100k, ActionClass::CrossRight, 0.85),
            (DatasetKind::Bdd100k, ActionClass::LeftTurn, 0.85),
        ]));
        outputs.push(fig11());
        outputs.push(fig14());
        outputs.push(ablation_reward());
        outputs.push(ablation_reuse());
        outputs.push(ablation_window());
    }
    outputs
}
