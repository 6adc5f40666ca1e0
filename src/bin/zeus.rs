//! `zeus` — command-line front end for the Zeus VDBMS reproduction.
//!
//! ```text
//! zeus datasets
//! zeus dataset gen  --kind bdd100k --out corpus.zds [--scale 0.1] [--seed 42]
//! zeus dataset info corpus.zds
//! zeus dataset ls   [--dir .]
//! zeus plan  --dataset bdd100k --sql "SELECT segment_ids FROM UDF(video) \
//!            WHERE action_class = 'cross-right' AND accuracy >= 85%" \
//!            --catalog ./plans [--scale 0.3] [--seed 42]
//! zeus query --dataset bdd100k --sql "..." [--catalog ./plans] \
//!            [--method zeus-rl|zeus-sliding|all] [--scale 0.3]
//! zeus trace [--json] [--out trace.jsonl] [--queries 32]
//! zeus top   [--shards N] ...   # N > 0: per-shard columns + fleet rollup
//! zeus lint  [--json] [--deny-warnings] [paths...]
//! ```
//!
//! `--dataset` accepts a built-in name (`bdd100k`, `thumos14`, ...) or a
//! path to a `.zds` corpus generated by `zeus dataset gen` — the session
//! is identical either way (plans and caches key on the corpus content
//! fingerprint, so a `.zds`-loaded corpus reuses plans trained on the
//! generated original).
//!
//! Every command goes through the [`ZeusSession`] façade: `plan` trains
//! and stores a plan in the session's catalog; `query` executes extended
//! ZQL (`LIMIT`, `WINDOW [t0, t1]`, `latency_budget <= Xms`,
//! `ORDER BY confidence`, `AND NOT`) and prints the refined answer set;
//! `trace` and `top` drive a small closed-loop workload through the
//! `zeus-serve` engine and print what the observability plane saw.
//! Benchmarks live in `perfbench/`, not in this binary.

use std::collections::HashMap;
use std::process::ExitCode;

use zeus::api::{ExecutorKind, ZeusSession};
use zeus::core::catalog::PlanCatalog;
use zeus::core::planner::PlannerOptions;
use zeus::obs::keys;
use zeus::serve::{run_closed_loop, ServeConfig, WorkloadSpec};
use zeus::video::source::DataSource;
use zeus::video::stats::DatasetStats;
use zeus::video::video::Split;
use zeus::video::{ConfigFamily, DatasetKind, SyntheticDataset};

fn usage() -> &'static str {
    "usage:\n  zeus datasets\n  zeus dataset gen  --kind <name> --out <file.zds> [--scale S] [--seed N]\n  zeus dataset info <file.zds>\n  zeus dataset ls   [--dir DIR]\n  zeus plan  --dataset <name|file.zds> --sql <query> --catalog <dir> [--scale S] [--seed N]\n  zeus query --dataset <name|file.zds> --sql <query> [--catalog <dir>] [--method M] [--scale S] [--seed N]\n  zeus trace [--json] [--out FILE] [--dataset D] [--queries N] [--workers N] [--scale S] [--seed N]\n  zeus top   [--shards N] [--dataset D] [--queries N] [--workers N] [--scale S] [--seed N]\n  zeus lint  [--json] [--deny-warnings] [--out FILE] [paths...]   (run from the repo root)\n\ndatasets: bdd100k thumos14 activitynet cityscapes kitti — or any .zds file\nmethods:  zeus-rl (default) | zeus-sliding | all (query only)\n\nZQL: [EXPLAIN ANALYZE] SELECT segment_ids FROM <dataset|UDF(video)>\n     WHERE action_class = 'cross-right' [AND NOT action_class = '...'] AND accuracy >= 85%\n     [AND latency_budget <= 250ms] [WINDOW [t0, t1]]\n     [ORDER BY confidence] [LIMIT n]"
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got '{}'", args[i]))?;
        // Boolean flags (no value) are stored as "true".
        if key == "json" {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn dataset_kind(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::from_name(name)
        .ok_or_else(|| format!("unknown dataset '{name}' (try: bdd100k, thumos14, ...)"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args.first().map(String::as_str).ok_or("missing command")?;
    match command {
        "datasets" => cmd_datasets(),
        "dataset" => cmd_dataset(&args[1..]),
        "plan" => cmd_plan(&parse_flags(&args[1..])?),
        "query" => cmd_query(&parse_flags(&args[1..])?),
        "trace" => cmd_trace(&parse_flags(&args[1..])?),
        "top" => cmd_top(&parse_flags(&args[1..])?),
        "lint" => cmd_lint(&args[1..]),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// `zeus lint`: run the workspace static-analysis pass (see
/// `crates/lint`). With no paths, scans the standard workspace roots;
/// with paths, scans exactly those files/directories (how CI points it
/// at the known-bad fixture corpus). Exits nonzero on any
/// error-severity finding, or on any finding under `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut deny_warnings = false;
    let mut out: Option<std::path::PathBuf> = None;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--deny-warnings" => deny_warnings = true,
            "--out" => {
                let value = args.get(i + 1).ok_or("flag --out needs a value")?;
                out = Some(std::path::PathBuf::from(value));
                i += 1;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown lint flag '{flag}'"));
            }
            path => paths.push(std::path::PathBuf::from(path)),
        }
        i += 1;
    }
    let root = std::env::current_dir().map_err(|e| format!("lint: {e}"))?;
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "lint: {} is not a workspace root (no Cargo.toml); run from the repo root",
            root.display()
        ));
    }
    let report = if paths.is_empty() {
        zeus::lint::lint_workspace(&root)
    } else {
        zeus::lint::lint_paths(&root, &paths)
    }
    .map_err(|e| format!("lint: {e}"))?;
    let payload = report.to_json();
    if let Some(file) = &out {
        std::fs::write(file, &payload)
            .map_err(|e| format!("lint: write {}: {e}", file.display()))?;
    }
    if json {
        print!("{payload}");
    } else {
        for finding in &report.findings {
            println!("{finding}");
        }
        println!(
            "zeus-lint: {} files scanned, {} errors, {} warnings",
            report.files_scanned,
            report.errors(),
            report.warnings()
        );
    }
    if report.failed(deny_warnings) {
        // A lint failure is a finding report, not a CLI usage error —
        // exit directly so `usage()` doesn't drown the diagnostics.
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_datasets() -> Result<(), String> {
    println!(
        "{:<12} {:>8} {:>9} {:>8} {:>8}  query classes",
        "dataset", "videos", "frames", "%action", "meanlen"
    );
    for kind in DatasetKind::ALL {
        let ds = kind.generate(0.1, 7);
        let stats = DatasetStats::compute(&ds.store, &kind.query_classes());
        println!(
            "{:<12} {:>8} {:>9} {:>7.2}% {:>8.0}  {} / {}",
            kind.name().to_lowercase(),
            ds.store.len(),
            ds.store.total_frames(),
            stats.action_fraction * 100.0,
            stats.mean_len,
            kind.query_classes()[0].display_name(),
            kind.query_classes()[1].display_name(),
        );
    }
    println!("\n(listed at scale 0.1; --scale selects corpus size, 1.0 = paper scale)");
    Ok(())
}

/// Parse an optional numeric flag with a default.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        Some(s) => s.parse().map_err(|_| format!("bad --{key} '{s}'")),
        None => Ok(default),
    }
}

/// Build a session from the common CLI flags. `--dataset` is either a
/// built-in name (generated at `--scale`/`--seed`) or a path to a
/// `.zds` corpus, registered under the profile name it was saved with.
fn session_from_flags(
    flags: &HashMap<String, String>,
    default_scale: f64,
    options: Option<PlannerOptions>,
) -> Result<ZeusSession, String> {
    let dataset = flags.get("dataset").ok_or("--dataset is required")?;
    let scale: f64 = flag_or(flags, "scale", default_scale)?;
    let seed: u64 = flag_or(flags, "seed", 2022)?;
    // The builder applies the session seed to the planner options at
    // build time, so `.planner()` and `.seed()` compose in any order.
    let mut builder = ZeusSession::builder().scale(scale).seed(seed);
    if dataset.ends_with(".zds") {
        eprintln!("loading corpus from {dataset}...");
        let ds = SyntheticDataset::load(dataset).map_err(|e| e.to_string())?;
        let name = ds.name().to_string();
        builder = builder.register(&name, ds).default_source(&name);
    } else {
        let kind = dataset_kind(dataset)?;
        eprintln!("generating {} corpus at scale {scale}...", kind.name());
        builder = builder.dataset(kind);
    }
    if let Some(options) = options {
        builder = builder.planner(options);
    }
    if let Some(dir) = flags.get("catalog") {
        builder = builder.catalog(dir.clone());
    }
    builder.build().map_err(|e| e.to_string())
}

/// One-line summary of a data source (profile + Table 3 stats).
fn describe_source(source: &dyn DataSource) -> String {
    let stats = DatasetStats::compute(source.store(), source.query_classes());
    format!(
        "{}: {} videos, {} frames, {:.2}% action, mean len {:.0}, family {:?}, fingerprint {:016x}",
        source.name(),
        source.store().len(),
        source.store().total_frames(),
        stats.action_fraction * 100.0,
        stats.mean_len,
        source.family(),
        source.fingerprint(),
    )
}

/// `zeus dataset gen|info|ls` — the persistent-corpus toolchain.
fn cmd_dataset(args: &[String]) -> Result<(), String> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("dataset subcommand required: gen | info | ls")?;
    match sub {
        "gen" => {
            let flags = parse_flags(&args[1..])?;
            let kind = dataset_kind(flags.get("kind").ok_or("--kind is required")?)?;
            let out = flags.get("out").ok_or("--out is required")?;
            let scale: f64 = flag_or(&flags, "scale", 0.1)?;
            let seed: u64 = flag_or(&flags, "seed", 2022)?;
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(format!("--scale must be positive and finite, got {scale}"));
            }
            let ds = kind.generate(scale, seed);
            ds.save(out).map_err(|e| e.to_string())?;
            println!("wrote {out}\n  {}", describe_source(&ds));
            Ok(())
        }
        "info" => {
            let path = args.get(1).ok_or("usage: zeus dataset info <file.zds>")?;
            let ds = SyntheticDataset::load(path).map_err(|e| e.to_string())?;
            println!("{path}\n  {}", describe_source(&ds));
            let p = &ds.profile;
            println!(
                "  profile: {} videos x {} frames @ {:.0} fps, action lengths {:.0}±{:.0} in [{}, {}]",
                p.num_videos, p.frames_per_video, p.fps, p.mean_len, p.std_len, p.min_len, p.max_len
            );
            let mix: Vec<String> = p
                .class_mix
                .iter()
                .map(|(c, f)| format!("{} {:.2}%", c.query_name(), f * 100.0))
                .collect();
            println!("  class mix: {}", mix.join(", "));
            let splits =
                [Split::Train, Split::Validation, Split::Test].map(|s| ds.store.split(s).len());
            println!(
                "  splits: {} train / {} validation / {} test",
                splits[0], splits[1], splits[2]
            );
            Ok(())
        }
        "ls" => {
            let flags = parse_flags(&args[1..])?;
            let dir = flags.get("dir").map(String::as_str).unwrap_or(".");
            let mut paths: Vec<_> = std::fs::read_dir(dir)
                .map_err(|e| format!("reading {dir}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|e| e == "zds"))
                .collect();
            paths.sort();
            if paths.is_empty() {
                println!("no .zds corpora in {dir}");
                return Ok(());
            }
            for path in paths {
                match SyntheticDataset::load(&path) {
                    Ok(ds) => println!("{}  {}", path.display(), describe_source(&ds)),
                    Err(e) => println!("{}  (unreadable: {e})", path.display()),
                }
            }
            Ok(())
        }
        other => Err(format!(
            "unknown dataset subcommand '{other}' (gen | info | ls)"
        )),
    }
}

fn cmd_plan(flags: &HashMap<String, String>) -> Result<(), String> {
    if flags.get("catalog").is_none() {
        return Err("--catalog is required".into());
    }
    let sql = flags.get("sql").ok_or("--sql is required")?;
    let session = session_from_flags(flags, 0.3, None)?;
    let query = session.query(sql).map_err(|e| e.to_string())?;
    if let Some(stored) = query.lookup() {
        println!(
            "plan already in catalog: {} (sliding config {}, {} configurations) — reusing",
            PlanCatalog::key(&stored.query),
            stored.sliding_config,
            stored.space.len(),
        );
        return Ok(());
    }
    eprintln!("planning (profiling configurations + RL training)...");
    let plan = query.plan().map_err(|e| e.to_string())?;
    println!(
        "plan saved: {}\n  sliding config {}  max accuracy {:.3}\n  action space: {} configurations\n  simulated training cost: APFG {:.1}s + RL {:.1}s",
        PlanCatalog::key(&plan.query),
        plan.sliding_config,
        plan.max_accuracy,
        plan.space.len(),
        plan.costs.apfg_training_secs,
        plan.costs.rl_training_secs,
    );
    Ok(())
}

fn cmd_query(flags: &HashMap<String, String>) -> Result<(), String> {
    let sql = flags.get("sql").ok_or("--sql is required")?;
    let method = flags.get("method").map(String::as_str).unwrap_or("zeus-rl");
    let executors: Vec<ExecutorKind> = match method {
        "zeus-rl" => vec![ExecutorKind::ZeusRl],
        "zeus-sliding" => vec![ExecutorKind::ZeusSliding],
        "all" => vec![ExecutorKind::ZeusRl, ExecutorKind::ZeusSliding],
        other => return Err(format!("unknown --method '{other}'")),
    };
    let session = session_from_flags(flags, 0.3, None)?;
    let query = session.query(sql).map_err(|e| e.to_string())?;
    println!("{}\n", query.to_sql());

    let mut first_answer = None;
    for executor in executors {
        let response = session
            .query(sql)
            .map_err(|e| e.to_string())?
            .executor(executor)
            .run()
            .map_err(|e| e.to_string())?;
        println!(
            "{}: F1 {:.3} (P {:.2} R {:.2}) at {:.0} fps over {} frames",
            response.result.method,
            response.result.f1,
            response.result.precision,
            response.result.recall,
            response.result.throughput_fps,
            response.result.histogram.total_frames(),
        );
        if let Some(explain) = &response.explain {
            println!("\n{explain}\n");
        }
        if first_answer.is_none() {
            first_answer = Some(response.answer);
        }
    }

    // The refined answer set from the first method.
    println!("\nsegments:");
    let answer = first_answer.unwrap_or_default();
    if answer.is_empty() {
        println!("  (none found)");
        return Ok(());
    }
    for hit in answer.iter().take(20) {
        println!(
            "  {:?}  {:>7}..{:<7}  conf {:.3}",
            hit.video, hit.start, hit.end, hit.confidence
        );
    }
    if answer.len() > 20 {
        println!("  ... ({} more)", answer.len() - 20);
    }
    Ok(())
}

/// Fast planner options for serving workloads (serving never trains on
/// the request path; templates are planned once up front).
fn serving_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options
}

/// Template ZQL queries for a data source: its query classes at two
/// targets (the paper's Figure 8 targets per family).
fn serving_templates(source: &dyn DataSource) -> Vec<String> {
    let target = match source.family() {
        ConfigFamily::Driving => 85,
        ConfigFamily::Untrimmed => 75,
    };
    source
        .query_classes()
        .iter()
        .take(2)
        .flat_map(|class| {
            [target, target - 5].into_iter().map(move |t| {
                format!(
                    "SELECT segment_ids FROM UDF(video) \
                     WHERE action_class = '{}' AND accuracy >= {t}%",
                    class.query_name()
                )
            })
        })
        .collect()
}

/// Stand up a Zeus-Sliding server over planned templates and drive
/// `queries` submissions from 8 closed-loop clients.
fn run_serving_workload(
    session: &ZeusSession,
    workers: usize,
    queries: usize,
) -> Result<(Vec<zeus::core::query::ActionQuery>, zeus::serve::ZeusServer), String> {
    let mut templates = Vec::new();
    for sql in serving_templates(session.source()) {
        let query = session.query(&sql).map_err(|e| e.to_string())?;
        let key = PlanCatalog::key(&query.ir().base);
        // `plan()` is store-first: a template already planned (this
        // session or a prior process via the catalog) is reused as-is.
        if query.lookup().is_some() {
            eprintln!("plan reuse: {key}");
        } else {
            eprintln!("planning {key} ...");
        }
        query.plan().map_err(|e| e.to_string())?;
        templates.push(query.ir().base.clone());
    }

    let server = session
        .serve(ServeConfig {
            workers,
            queue_capacity: 256,
            cache_capacity: 128,
            executor: ExecutorKind::ZeusSliding,
        })
        .map_err(|e| e.to_string())?;
    let spec = WorkloadSpec::new(templates.clone(), queries, session.corpus_id().0 ^ 0x5EED);

    eprintln!("serving {queries} queries (closed loop) across {workers} simulated devices...");
    run_closed_loop(&server, &spec, 8);
    Ok((templates, server))
}

/// `zeus trace`: drive a small serving workload (with one
/// `EXPLAIN ANALYZE` per template) and export the observability plane —
/// trace trees, per-stage latency aggregates, and the full metric
/// namespace — as JSONL. `--json` prints only the JSONL on stdout;
/// `--out` writes it to a file.
fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    use zeus::api::QueryIr;

    let json_only = flags.contains_key("json");
    let workers: usize = flag_or(flags, "workers", 4)?;
    let queries: usize = flag_or(flags, "queries", 32)?;
    let mut flags = flags.clone();
    flags
        .entry("dataset".into())
        .or_insert_with(|| "bdd100k".into());

    let session = session_from_flags(&flags, 0.05, Some(serving_options()))?;
    let (templates, server) = run_serving_workload(&session, workers, queries)?;

    // One EXPLAIN ANALYZE per template: full trace trees with every
    // query stage, plus the per-stage reports.
    let mut reports = Vec::new();
    for query in &templates {
        let ir = QueryIr::from_query(query.clone());
        let (_outcome, report) = server
            .explain_ir(&ir, None)
            .map_err(|e| format!("explain: {e}"))?;
        reports.push(report);
    }
    server.snapshot(); // samples queue/device gauges into the registry
    let jsonl = {
        let mut out = server.obs().export_jsonl();
        for r in &reports {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    };
    server.shutdown();

    if let Some(path) = flags.get("out") {
        std::fs::write(path, &jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if json_only {
        print!("{jsonl}");
    } else {
        for r in &reports {
            println!("{r}\n");
        }
        let stats = server.trace_sink().stage_stats();
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}",
            "stage", "count", "p50_us", "p95_us", "p99_us"
        );
        for s in stats {
            println!(
                "{:<16} {:>8} {:>10} {:>10} {:>10}",
                s.name, s.count, s.p50_us, s.p95_us, s.p99_us
            );
        }
    }
    Ok(())
}

/// `zeus top`: one-shot fleet view — drive a small serving workload and
/// print the metric namespace, per-stage latency aggregates, and
/// per-device utilization.
fn cmd_top(flags: &HashMap<String, String>) -> Result<(), String> {
    let shards: usize = flag_or(flags, "shards", 0)?;
    if shards > 0 {
        return cmd_top_fleet(flags, shards);
    }
    let workers: usize = flag_or(flags, "workers", 4)?;
    let queries: usize = flag_or(flags, "queries", 48)?;
    let mut flags = flags.clone();
    flags
        .entry("dataset".into())
        .or_insert_with(|| "bdd100k".into());

    let session = session_from_flags(&flags, 0.05, Some(serving_options()))?;
    let (_templates, server) = run_serving_workload(&session, workers, queries)?;
    let snap = server.snapshot();
    let m = server.metrics();
    server.shutdown();

    println!("\n== zeus top: {} ==", session.default_source_name());
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    println!(
        "queries   submitted {} admitted {} completed {} shed {} no-plan {} coalesced {}",
        c(keys::SERVE_SUBMITTED),
        c(keys::SERVE_ADMITTED),
        c(keys::SERVE_COMPLETED),
        c(keys::SERVE_ADMIT_SHED),
        c(keys::SERVE_ADMIT_NO_PLAN),
        c(keys::SERVE_COALESCED),
    );
    println!(
        "cache     result {}/{} hit/miss   feature {}/{} hit/miss",
        c(keys::CACHE_RESULT_HIT),
        c(keys::CACHE_RESULT_MISS),
        c(keys::CACHE_FEATURE_HIT),
        c(keys::CACHE_FEATURE_MISS),
    );
    println!(
        "latency   p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  mean {:.3} ms  {:.0} qps",
        m.p50.as_secs_f64() * 1e3,
        m.p95.as_secs_f64() * 1e3,
        m.p99.as_secs_f64() * 1e3,
        m.mean.as_secs_f64() * 1e3,
        m.throughput_qps,
    );
    println!(
        "training  candidates {} episodes {} steps {} updates {}",
        c(keys::TRAIN_CANDIDATES),
        c(keys::TRAIN_EPISODES),
        c(keys::TRAIN_STEPS),
        c(keys::TRAIN_UPDATES),
    );
    let mut device = 0usize;
    let mut devices = Vec::new();
    while let Some(busy) = snap.gauge(&keys::pool_device_busy_secs(device)) {
        devices.push(format!("{device}: {busy:.2}s"));
        device += 1;
    }
    if !devices.is_empty() {
        println!("devices   busy {}", devices.join("  "));
    }
    println!(
        "\n{:<16} {:>8} {:>10} {:>10} {:>10}",
        "stage", "count", "p50_us", "p95_us", "p99_us"
    );
    for s in server.trace_sink().stage_stats() {
        println!(
            "{:<16} {:>8} {:>10} {:>10} {:>10}",
            s.name, s.count, s.p50_us, s.p95_us, s.p99_us
        );
    }
    Ok(())
}

/// `zeus top --shards N`: the fleet view — plan the default dataset's
/// templates, stand up an N-shard [`zeus::fleet::FleetRouter`] over the
/// session, route a small workload through it, and render every shard's
/// observability snapshot side by side with the merged fleet rollup.
fn cmd_top_fleet(flags: &HashMap<String, String>, shards: usize) -> Result<(), String> {
    use zeus::api::{FleetConfig, QuotaSpec, TenantId};

    let queries: usize = flag_or(flags, "queries", 192)?;
    let mut flags = flags.clone();
    flags
        .entry("dataset".into())
        .or_insert_with(|| "bdd100k".into());

    let session = session_from_flags(&flags, 0.05, Some(serving_options()))?;
    let mut irs = Vec::new();
    for sql in serving_templates(session.source()) {
        let query = session.query(&sql).map_err(|e| e.to_string())?;
        if query.lookup().is_none() {
            eprintln!("planning {} ...", PlanCatalog::key(&query.ir().base));
        }
        query.plan().map_err(|e| e.to_string())?;
        irs.push(query.ir().clone());
    }
    let router = session
        .fleet(FleetConfig {
            shards,
            // Go hot a quarter of the way in so the replication machinery
            // (and the replica-hit counters) shows up in a short run.
            hot_threshold: (queries as u64 / 4).max(1),
            quota: QuotaSpec::per_sec(1e6),
            ..FleetConfig::default()
        })
        .map_err(|e| e.to_string())?;
    let tenant = TenantId::default();
    eprintln!("routing {queries} queries across {shards} shards...");
    for i in 0..queries {
        let routed = router
            .submit(&irs[i % irs.len()], &tenant, None)
            .map_err(|e| format!("fleet submit: {e}"))?;
        routed.stream.wait();
    }

    let snaps = router.shard_snapshots();
    let rollup = router.fleet_snapshot();
    println!(
        "\n== zeus top: {} across {shards} shards ==",
        session.default_source_name()
    );
    let mut header = format!("{:<20}", "metric");
    for i in 0..shards {
        header.push_str(&format!(" {:>10}", format!("shard{i}")));
    }
    header.push_str(&format!(" {:>10}", "fleet"));
    println!("{header}");
    let counter_row = |name: &str| {
        let mut row = format!("{name:<20}");
        for snap in &snaps {
            row.push_str(&format!(" {:>10}", snap.counter(name).unwrap_or(0)));
        }
        row.push_str(&format!(" {:>10}", rollup.counter(name).unwrap_or(0)));
        row
    };
    for name in [
        keys::SERVE_SUBMITTED,
        keys::SERVE_COMPLETED,
        keys::CACHE_RESULT_HIT,
        keys::CACHE_RESULT_MISS,
        keys::SERVE_ADMIT_SHED,
        keys::SERVE_ADMIT_NO_PLAN,
    ] {
        println!("{}", counter_row(name));
    }
    {
        let mut row = format!("{:<20}", keys::SERVE_QUEUE_DEPTH);
        for snap in &snaps {
            row.push_str(&format!(
                " {:>10.0}",
                snap.gauge(keys::SERVE_QUEUE_DEPTH).unwrap_or(0.0)
            ));
        }
        row.push_str(&format!(
            " {:>10.0}",
            rollup.gauge(keys::SERVE_QUEUE_DEPTH).unwrap_or(0.0)
        ));
        println!("{row}");
    }
    let loads: Vec<String> = router
        .shard_loads()
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{i}: {n}"))
        .collect();
    let c = |name: &str| rollup.counter(name).unwrap_or(0);
    println!(
        "\nrouted    {}   per shard  {}",
        c(keys::FLEET_ROUTED),
        loads.join("  ")
    );
    println!(
        "plans     replica-hits {}  replicated {}  failover {}",
        c(keys::FLEET_PLAN_REPLICA_HITS),
        c(keys::FLEET_PLAN_REPLICATED),
        c(keys::FLEET_FAILOVER),
    );
    println!(
        "quota     shed over {}  under {} (under must stay 0: the gate never sheds in-quota tenants)",
        c(keys::FLEET_SHED_OVER_QUOTA),
        c(keys::FLEET_SHED_UNDER_QUOTA),
    );
    Ok(())
}
