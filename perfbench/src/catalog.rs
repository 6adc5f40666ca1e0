//! Every metric the benchmark prints, with its unit. `BENCHMARK.json`
//! lists the same names; the smoke test checks that the two agree.

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics (tracing off), printed by every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("plan_s", "s"),
    m("sim_fps", "frames/sim-s"),
    m("qps", "queries/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p99_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), printed by every workload; a layer
/// the workload does not exercise, or whose numbers the program does not
/// export on that path, reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // zeus-video
    m("video.generate_s", "s"),
    // zeus-core::planner
    m("planner.profile_s", "s"),
    m("planner.validate_s", "s"),
    // zeus-core::training
    m("training.portfolio_s", "s"),
    m("training.candidate_ms_p50", "ms"),
    m("training.worker_idle_share", "ratio"),
    // zeus-rl / zeus-nn
    m("rl.update_us_p50", "us"),
    m("rl.update_us_mean", "us"),
    m("rl.update.count", "count"),
    m("rl.batch_forward_us_p50", "us"),
    m("rl.env_steps", "count"),
    m("rl.updates_per_step", "ratio"),
    m("nn.update_gflops", "GFLOP/s"),
    // zeus-core::env and zeus-apfg
    m("env.step_us", "us"),
    m("apfg.process_us", "us"),
    m("apfg.feature_cache.hit_ratio", "ratio"),
    // zeus-core::baselines
    m("exec.zeus_rl_video_us", "us"),
    m("exec.sliding_video_us", "us"),
    // zeus-serve
    m("serve.stage.cache_us_p50", "us"),
    m("serve.stage.plan_us_p50", "us"),
    m("serve.stage.admission_us_p50", "us"),
    m("serve.stage.execute_part_us_p50", "us"),
    m("serve.stage.execute_part_us_mean", "us"),
    m("serve.cache.hit_ratio", "ratio"),
    m("serve.coalesced", "count"),
    m("serve.shed", "count"),
    m("serve.device_imbalance", "ratio"),
    m("serve.refine_us", "us"),
    // zeus-fleet
    m("fleet.submit_us_p50", "us"),
    m("fleet.balance_ratio", "ratio"),
    m("fleet.replica_hits", "count"),
    m("fleet.shed_over_quota", "count"),
    m("fleet.shed_under_quota", "count"),
    // zeus-obs
    m("obs.overhead_share", "ratio"),
    // The host-speed reference the end-to-end figures are scaled by.
    m("host.speed", "iter/us"),
    // The accuracy contract and the failure count, which can read 0.
    m("target_met", "queries"),
    m("failed_share", "ratio"),
];
