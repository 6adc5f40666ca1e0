//! The fluent session façade: named datasets + planner + plan store
//! behind one handle, queries as ZQL strings in, answer sets out.
//!
//! A session hosts *any number* of registered data sources — the five
//! built-in paper corpora, `.zds` files, custom profile-defined corpora —
//! and routes every query by its ZQL `FROM <dataset>` clause (`FROM
//! UDF(video)` targets the default source). Plans and result caches are
//! keyed per (corpus fingerprint, query), so two corpora in one session
//! never share or clobber trained plans.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use zeus_core::baselines::{QueryEngine, ZeusSliding};
use zeus_core::catalog::PlanCatalog;
use zeus_core::metrics::EvalReport;
use zeus_core::planner::{PlanError, PlannerOptions, QueryPlan, QueryPlanner};
use zeus_core::query::{parse_zql, ActionQuery, QueryIr};
use zeus_core::result::QueryResult;
use zeus_core::ExecutorKind;
use zeus_fleet::{FleetConfig, FleetRouter};
use zeus_obs::keys;
use zeus_obs::sync::lock_recover;
use zeus_obs::{ExplainReport, ObsHub, ObsSnapshot, StageClock, Tracer};
use zeus_serve::quota::TenantId;
use zeus_serve::{CorpusId, PlanStore, QueryRefiner, SegmentHit, ServeConfig, ZeusServer};
use zeus_sim::CostModel;
use zeus_video::source::{normalize_name, DataSource, SharedSource};
use zeus_video::video::Split;
use zeus_video::{DatasetKind, SyntheticDataset, Video};

use crate::error::ZeusError;

/// How a builder entry materializes into a data source at build time.
#[derive(Clone)]
enum SourceSpec {
    /// A built-in corpus, generated at the builder's scale/seed.
    Kind(DatasetKind),
    /// An already-materialized source.
    Ready(SharedSource),
    /// A `.zds` file loaded at build.
    File(PathBuf),
}

/// Fluent construction of a [`ZeusSession`].
///
/// ```no_run
/// use zeus_api::ZeusSession;
/// use zeus_video::DatasetKind;
///
/// let session = ZeusSession::builder()
///     .dataset(DatasetKind::Bdd100k)
///     .register_kind(DatasetKind::Thumos14)
///     .scale(0.2)
///     .seed(42)
///     .build()?;
/// # Ok::<(), zeus_api::ZeusError>(())
/// ```
#[derive(Clone)]
pub struct ZeusSessionBuilder {
    sources: Vec<(String, SourceSpec)>,
    default_source: Option<String>,
    scale: f64,
    seed: u64,
    options: PlannerOptions,
    catalog: Option<PathBuf>,
    executor: ExecutorKind,
    obs: Option<ObsHub>,
    tenant: Option<TenantId>,
}

impl std::fmt::Debug for ZeusSessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZeusSessionBuilder")
            .field(
                "sources",
                &self.sources.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("default_source", &self.default_source)
            .field("scale", &self.scale)
            .field("seed", &self.seed)
            .field("catalog", &self.catalog)
            .field("executor", &self.executor)
            .field("tenant", &self.tenant)
            .finish()
    }
}

impl Default for ZeusSessionBuilder {
    fn default() -> Self {
        ZeusSessionBuilder {
            sources: Vec::new(),
            default_source: None,
            scale: 0.2,
            seed: 2022,
            options: PlannerOptions::default(),
            catalog: None,
            executor: ExecutorKind::ZeusRl,
            obs: None,
            tenant: None,
        }
    }
}

impl ZeusSessionBuilder {
    /// Insert (or replace) a named spec. Replacement matches on the
    /// *normalized* name (so `"MyData"` and `"mydata"` are one entry);
    /// an unnormalizable name is kept verbatim and rejected with a typed
    /// error at [`Self::build`].
    fn put(&mut self, name: String, spec: SourceSpec) {
        let name = normalize_name(&name).unwrap_or(name);
        match self.sources.iter_mut().find(|(n, _)| n == &name) {
            Some((_, existing)) => *existing = spec,
            None => self.sources.push((name, spec)),
        }
    }

    /// Register a built-in corpus (generated at the session scale/seed)
    /// and make it the session default. Equivalent to
    /// [`Self::register_kind`] + [`Self::default_source`].
    pub fn dataset(mut self, kind: DatasetKind) -> Self {
        self.put(kind.registry_name().to_string(), SourceSpec::Kind(kind));
        self.default_source = Some(kind.registry_name().to_string());
        self
    }

    /// Register a built-in corpus under its registry name without
    /// changing the default. The corpus is generated at build time at the
    /// session scale/seed.
    pub fn register_kind(mut self, kind: DatasetKind) -> Self {
        self.put(kind.registry_name().to_string(), SourceSpec::Kind(kind));
        self
    }

    /// Register a custom data source under `name` — a generated
    /// [`SyntheticDataset`] or anything else implementing [`DataSource`].
    pub fn register(mut self, name: impl AsRef<str>, source: impl DataSource + 'static) -> Self {
        self.put(
            name.as_ref().to_string(),
            SourceSpec::Ready(Arc::new(source)),
        );
        self
    }

    /// Register a corpus persisted to a `.zds` file, loaded (and
    /// checksum-verified) at build time.
    pub fn source_file(mut self, name: impl AsRef<str>, path: impl Into<PathBuf>) -> Self {
        self.put(name.as_ref().to_string(), SourceSpec::File(path.into()));
        self
    }

    /// Which registered dataset unrouted queries (`FROM UDF(video)`)
    /// target. Defaults to the first registration.
    pub fn default_source(mut self, name: impl AsRef<str>) -> Self {
        self.default_source = Some(name.as_ref().to_string());
        self
    }

    /// Corpus generation scale for [`Self::dataset`] /
    /// [`Self::register_kind`] entries (1.0 = paper scale).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// The session seed: generates built-in corpora and seeds the
    /// planner. Applied at [`Self::build`], so `.seed()` and `.planner()`
    /// may be called in either order.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Planner options used for every query planned by the session.
    /// `options.seed` is overridden by the session seed at build time,
    /// keeping corpus and planner seeds aligned.
    pub fn planner(mut self, options: PlannerOptions) -> Self {
        self.options = options;
        self
    }

    /// Persist/reuse plans in a `.zpln` catalog directory (plans live in
    /// per-corpus-fingerprint subdirectories).
    pub fn catalog(mut self, dir: impl Into<PathBuf>) -> Self {
        self.catalog = Some(dir.into());
        self
    }

    /// Default executor for queries (`ZeusRl` unless overridden per
    /// query with [`Query::executor`]).
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Share an existing observability hub instead of the session's own
    /// fresh one — e.g. to aggregate several sessions into one metric
    /// namespace. Observability is always on; this only controls *which*
    /// hub collects it.
    pub fn obs(mut self, obs: ObsHub) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The tenant identity this session submits serving traffic as.
    /// Threaded through fleet submissions ([`ZeusSession::fleet`]) and
    /// tenant-attributed server submissions, where per-tenant admission
    /// quotas are enforced. Defaults to the anonymous `"default"`
    /// tenant.
    pub fn tenant(mut self, tenant: impl Into<TenantId>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Materialize every registered source and assemble the session.
    /// Fails (typed, no panics) on a degenerate scale, an unusable
    /// catalog directory or `.zds` file, duplicate or invalid dataset
    /// names, or a corpus whose splits are empty. With no registration
    /// at all, a BDD100K corpus is generated as the sole source
    /// (preserving the classic single-dataset construction).
    pub fn build(mut self) -> Result<ZeusSession, ZeusError> {
        if !(self.scale > 0.0 && self.scale.is_finite()) {
            return Err(ZeusError::Plan(PlanError::InvalidOptions(format!(
                "corpus scale must be positive, got {}",
                self.scale
            ))));
        }
        let mut options = self.options;
        options.seed = self.seed;
        if self.sources.is_empty() {
            self.sources.push((
                DatasetKind::Bdd100k.registry_name().to_string(),
                SourceSpec::Kind(DatasetKind::Bdd100k),
            ));
        }

        let mut sources: Vec<SessionSource> = Vec::with_capacity(self.sources.len());
        for (name, spec) in self.sources {
            // `put` already deduplicated normalized names (later
            // registrations replace earlier ones), so this can only
            // fail on an unnormalizable name.
            let name = normalize_name(&name)?;
            let source: SharedSource = match spec {
                SourceSpec::Kind(kind) => Arc::new(kind.generate(self.scale, self.seed)),
                SourceSpec::Ready(source) => source,
                SourceSpec::File(path) => Arc::new(SyntheticDataset::load(&path)?),
            };
            // The shared emptiness check (store-level, reused by every
            // layer) instead of per-call-site split probing.
            source.store().validate_splits()?;
            let corpus = CorpusId::of(source.as_ref());
            sources.push(SessionSource {
                name,
                source,
                corpus,
            });
        }
        let default_source = match self.default_source {
            Some(name) => {
                let name = normalize_name(&name)?;
                if !sources.iter().any(|s| s.name == name) {
                    return Err(ZeusError::UnknownDataset {
                        name,
                        available: sources.iter().map(|s| s.name.clone()).collect(),
                    });
                }
                name
            }
            None => sources[0].name.clone(),
        };

        let plans = match &self.catalog {
            Some(dir) => PlanStore::with_catalog(dir)?,
            None => PlanStore::in_memory(),
        };
        Ok(ZeusSession {
            sources,
            default_source,
            options,
            plans: Arc::new(plans),
            executor: self.executor,
            obs: self.obs.unwrap_or_default(),
            tenant: self.tenant.unwrap_or_default(),
            plan_locks: Mutex::new(HashMap::new()),
        })
    }
}

/// One registered dataset: its normalized name, the source, and the
/// content-fingerprint corpus identity that scopes its plans and caches.
struct SessionSource {
    name: String,
    source: SharedSource,
    corpus: CorpusId,
}

/// The unified entry point to Zeus: named corpora, one planner
/// configuration, one plan store — and every query a ZQL string.
///
/// A session replaces the hand-wired `QueryPlanner::new` → `plan` →
/// `build_engine` → executor pipeline:
///
/// ```no_run
/// use zeus_api::ZeusSession;
/// use zeus_video::DatasetKind;
///
/// let session = ZeusSession::builder()
///     .dataset(DatasetKind::Bdd100k)
///     .register_kind(DatasetKind::Thumos14)
///     .scale(0.2)
///     .build()?;
/// // Unrouted queries hit the default corpus (bdd100k here)...
/// let response = session
///     .query(
///         "SELECT segment_ids FROM UDF(video) \
///          WHERE action_class = 'cross-right' AND accuracy >= 85% LIMIT 10",
///     )?
///     .run()?;
/// // ...and `FROM <dataset>` routes to any registered corpus.
/// let sports = session
///     .query(
///         "SELECT segment_ids FROM thumos14 \
///          WHERE action_class = 'pole-vault' AND accuracy >= 75%",
///     )?
///     .run()?;
/// for hit in response.answer.iter().chain(&sports.answer) {
///     println!("{:?} {}..{}", hit.video, hit.start, hit.end);
/// }
/// # Ok::<(), zeus_api::ZeusError>(())
/// ```
///
/// Plan resolution never retrains what it can reuse: every executor is
/// built from the plan in the shared [`PlanStore`] (including the
/// `.zpln` catalog when one is configured), and a query trains from
/// scratch only on a complete miss. Every plan and cache key carries the
/// corpus fingerprint, so the same SQL against two registered corpora
/// trains two independent plans.
/// [`Self::serve`] starts a [`ZeusServer`] sharing the same plan store,
/// so everything the session planned is immediately servable.
pub struct ZeusSession {
    sources: Vec<SessionSource>,
    default_source: String,
    options: PlannerOptions,
    plans: Arc<PlanStore>,
    executor: ExecutorKind,
    /// The session's observability hub: one metric namespace + span
    /// tracer shared by the planner, the training plane, and any server
    /// started via [`Self::serve`].
    obs: ObsHub,
    /// The identity fleet submissions are attributed (and quota-charged)
    /// to.
    tenant: TenantId,
    /// Training guards per catalog path (`<corpus>/<key>`): concurrent
    /// queries for the same unplanned core serialize on its guard so
    /// training is paid once.
    plan_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl ZeusSession {
    /// Start building a session.
    pub fn builder() -> ZeusSessionBuilder {
        ZeusSessionBuilder::default()
    }

    /// The registered dataset names, in registration order.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(|s| s.name.as_str()).collect()
    }

    /// The name of the default dataset (`FROM UDF(video)` target).
    pub fn default_source_name(&self) -> &str {
        &self.default_source
    }

    /// The default data source.
    pub fn source(&self) -> &dyn DataSource {
        self.resolve(None)
            .expect("a session always holds its default source")
            .source
            .as_ref()
    }

    /// A registered data source by name (case-insensitive).
    pub fn source_named(&self, name: &str) -> Result<&dyn DataSource, ZeusError> {
        Ok(self.resolve(Some(name))?.source.as_ref())
    }

    /// The default corpus identity (keys plans and result caches).
    pub fn corpus_id(&self) -> CorpusId {
        self.resolve(None)
            .expect("a session always holds its default source")
            .corpus
    }

    /// A registered corpus identity by name.
    pub fn corpus_named(&self, name: &str) -> Result<CorpusId, ZeusError> {
        Ok(self.resolve(Some(name))?.corpus)
    }

    /// The plan store shared with any server started by [`Self::serve`].
    pub fn plans(&self) -> &Arc<PlanStore> {
        &self.plans
    }

    /// The session's observability hub (metric registry + span tracer).
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// The tenant identity this session's fleet traffic is attributed
    /// to (see [`ZeusSessionBuilder::tenant`]).
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// A point-in-time snapshot of every metric the session (and any
    /// server sharing its hub) has recorded.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.obs.metrics.snapshot()
    }

    /// The span tracer: recent trace trees and per-stage latency
    /// aggregates, exportable as JSONL via
    /// [`Tracer::export_jsonl`].
    pub fn trace_sink(&self) -> &Tracer {
        &self.obs.tracer
    }

    /// Resolve an optional dataset name (a `FROM` clause) to its
    /// session source; `None` targets the default.
    fn resolve(&self, name: Option<&str>) -> Result<&SessionSource, ZeusError> {
        let wanted = match name {
            Some(n) => normalize_name(n).map_err(|_| ZeusError::UnknownDataset {
                name: n.to_string(),
                available: self.sources.iter().map(|s| s.name.clone()).collect(),
            })?,
            None => self.default_source.clone(),
        };
        self.sources
            .iter()
            .find(|s| s.name == wanted)
            .ok_or_else(|| ZeusError::UnknownDataset {
                name: wanted,
                available: self.sources.iter().map(|s| s.name.clone()).collect(),
            })
    }

    /// Parse a ZQL string into a prepared [`Query`]. The `FROM` clause
    /// is resolved here: `FROM <unknown>` is a typed
    /// [`ZeusError::UnknownDataset`] before any planning work.
    pub fn query(&self, zql: &str) -> Result<Query<'_>, ZeusError> {
        self.prepare(parse_zql(zql)?)
    }

    /// Prepare an already-compiled [`QueryIr`] (validates it and
    /// resolves its dataset routing first).
    pub fn prepare(&self, ir: QueryIr) -> Result<Query<'_>, ZeusError> {
        ir.validate()?;
        let source = self.resolve(ir.source.as_deref())?;
        Ok(Query {
            session: self,
            source,
            ir,
            executor: self.executor,
        })
    }

    /// Start a serving engine over the session's default corpus and plan
    /// store.
    ///
    /// Every query planned through the session (explicitly via
    /// [`Query::plan`] or implicitly via [`Query::run`]) is resolvable by
    /// the server without retraining.
    pub fn serve(&self, config: ServeConfig) -> Result<ZeusServer, ZeusError> {
        self.serve_dataset(&self.default_source, config)
    }

    /// Start a serving engine over a named corpus, sharing the session's
    /// plan store. Each server is bound to one corpus; run one per
    /// dataset to serve a heterogeneous fleet (they share trained plans
    /// through the store without fingerprint collisions).
    pub fn serve_dataset(&self, name: &str, config: ServeConfig) -> Result<ZeusServer, ZeusError> {
        let source = self.resolve(Some(name))?;
        Ok(ZeusServer::start_with_obs(
            source.source.as_ref(),
            source.name.clone(),
            Arc::clone(&self.plans),
            config,
            self.obs.clone(),
        )?)
    }

    /// Start a sharded serving fleet over *every* registered corpus.
    ///
    /// Each corpus is rendezvous-assigned to a primary shard and its
    /// session-trained plans are seeded there; sibling shards start cold
    /// and warm up through hot-plan replication. Submit with
    /// [`zeus_fleet::FleetRouter::submit`], attributing requests to this
    /// session's [`Self::tenant`] (or any other tenant) — the fleet's
    /// fair-share gate enforces per-tenant quotas at the router.
    pub fn fleet(&self, config: FleetConfig) -> Result<FleetRouter, ZeusError> {
        let sources: Vec<(String, SharedSource)> = self
            .sources
            .iter()
            .map(|s| (s.name.clone(), Arc::clone(&s.source)))
            .collect();
        Ok(FleetRouter::build(
            &sources,
            &self.default_source,
            &self.plans,
            config,
        )?)
    }

    fn planner<'a>(&'a self, source: &'a SessionSource) -> QueryPlanner<'a> {
        QueryPlanner::new(source.source.as_ref(), self.options.clone()).with_obs(self.obs.clone())
    }

    /// Train `base` on `source` and install the plan in the store — the
    /// expensive path, paid once per core and persisted to the catalog.
    /// Concurrent callers for one core serialize on its guard: the first
    /// trains, and the others find its plan in the store.
    fn train(
        &self,
        source: &SessionSource,
        base: &ActionQuery,
    ) -> Result<Arc<QueryPlan>, ZeusError> {
        let guard = {
            let mut locks = lock_recover(&self.plan_locks);
            Arc::clone(
                locks
                    .entry(format!("{}/{}", source.corpus, PlanCatalog::key(base)))
                    .or_default(),
            )
        };
        let _training = lock_recover(&guard);
        // `get`, not the counted lookup: the caller has counted a refusal.
        if let Some(plan) = self.plans.get(source.corpus, base) {
            return Ok(plan);
        }
        let plan = self.planner(source).try_plan(base)?;
        let installed = self
            .plans
            .install(source.corpus, &plan, self.options.seed)?;
        Ok(installed)
    }

    /// Test-split videos of a source in canonical (id) order.
    fn test_videos<'a>(&self, source: &'a SessionSource) -> Vec<&'a Video> {
        let mut videos = source.source.store().split(Split::Test);
        videos.sort_by_key(|v| v.id);
        videos
    }
}

/// A prepared query bound to a session and a resolved dataset: pick an
/// executor, then [`Query::run`].
pub struct Query<'s> {
    session: &'s ZeusSession,
    source: &'s SessionSource,
    ir: QueryIr,
    executor: ExecutorKind,
}

impl<'s> Query<'s> {
    /// The compiled IR.
    pub fn ir(&self) -> &QueryIr {
        &self.ir
    }

    /// The registered name of the dataset this query resolved to.
    pub fn dataset_name(&self) -> &str {
        &self.source.name
    }

    /// The corpus identity this query's plans and caches are scoped to.
    pub fn corpus_id(&self) -> CorpusId {
        self.source.corpus
    }

    /// Round-trip the query back to ZQL text.
    pub fn to_sql(&self) -> String {
        self.ir.to_sql()
    }

    /// Override the executor for this query.
    pub fn executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// The stored plan for this query's (corpus, core), if one is
    /// resolvable without training. A refused catalog plan is a miss,
    /// counted under `serve.plan.refused`.
    pub fn lookup(&self) -> Option<Arc<QueryPlan>> {
        let found = self.session.plans.lookup(self.source.corpus, &self.ir.base);
        if found.is_err() {
            let refused = self.session.obs.metrics.counter(keys::SERVE_PLAN_REFUSED);
            refused.inc();
        }
        found.ok().flatten()
    }

    /// Ensure this query's core is planned and return its plan — the
    /// warm-up path for serving and the catalog. Resolution is
    /// store-first: a plan already in the session's [`PlanStore`]
    /// (including one persisted by an earlier process via the catalog)
    /// is returned as-is; only a complete miss trains.
    pub fn plan(&self) -> Result<Arc<QueryPlan>, ZeusError> {
        Ok(self.resolve()?.0)
    }

    /// The same as [`Query::plan`].
    pub fn train(&self) -> Result<Arc<QueryPlan>, ZeusError> {
        self.plan()
    }

    /// This query's plan, and whether it was found without planning.
    fn resolve(&self) -> Result<(Arc<QueryPlan>, bool), ZeusError> {
        match self.lookup() {
            Some(plan) => Ok((plan, true)),
            None => Ok((self.session.train(self.source, &self.ir.base)?, false)),
        }
    }

    /// Build this query's engine from its plan. A `latency_budget` on a
    /// Zeus-Sliding query re-selects the static configuration from the
    /// plan's profiles under the budget's throughput floor (tighter
    /// budget → faster configuration). Zeus-RL adapts per segment and
    /// needs no override.
    fn engine(&self, plan: &QueryPlan) -> Box<dyn QueryEngine + Send + Sync> {
        let planner = self.session.planner(self.source);
        let floor = match self.executor {
            ExecutorKind::ZeusSliding => planner.budget_min_fps(&self.ir),
            _ => None,
        };
        match floor {
            Some(floor) => {
                let config = QueryPlanner::select_sliding_config_bounded(
                    &plan.profiles,
                    self.ir.base.target_accuracy,
                    Some(floor),
                )
                .unwrap_or(plan.sliding_config);
                Box::new(ZeusSliding::new(plan.apfg.clone(), config, CostModel))
            }
            None => planner.build_engine(plan, self.executor),
        }
    }

    /// Execute the query over its dataset's test split and return the
    /// evaluated response with the refined answer set.
    ///
    /// Every run is traced (`session.run`: `plan` → `execute` →
    /// `refine` spans) into the session's [`Tracer`]; a query compiled
    /// from `EXPLAIN ANALYZE <zql>` additionally carries a full
    /// [`ExplainReport`] in [`QueryResponse::explain`] whose stage sum
    /// equals the measured end-to-end latency by construction.
    pub fn run(&self) -> Result<QueryResponse, ZeusError> {
        let trace = self.session.obs.tracer.trace("session.run");
        let mut clock = StageClock::new();

        let span = trace.span("plan");
        let (plan, from_cache) = self.resolve()?;
        let engine = self.engine(&plan);
        drop(span);
        clock.mark("plan");

        let mut span = trace.span("execute");
        let videos = self.session.test_videos(self.source);
        let exec = engine.execute(&videos);
        let device_secs = exec.clock.elapsed_secs();
        span.set_device_secs(device_secs);
        drop(span);
        clock.mark("execute");
        clock.set_device_secs(device_secs);

        let span = trace.span("refine");
        let report = exec.evaluate(&videos, &self.ir.base.classes, plan.protocol);
        let refiner = QueryRefiner::new(&self.ir, videos.iter().copied());
        let answer = refiner.answer(&exec.labels);
        drop(span);
        clock.mark("refine");

        let explain = self.ir.explain.then(|| {
            let (stages, total) = clock.finish();
            ExplainReport {
                query: self.ir.to_sql(),
                executor: self.executor.name().to_string(),
                from_cache,
                coalesced: false,
                stages,
                total,
                device_secs,
            }
        });
        Ok(QueryResponse {
            result: QueryResult::from_parts(self.executor.name(), &exec, &report),
            report,
            answer,
            ir: self.ir.clone(),
            executor: self.executor,
            explain,
        })
    }
}

/// The evaluated outcome of [`Query::run`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The query as compiled.
    pub ir: QueryIr,
    /// The engine that executed it.
    pub executor: ExecutorKind,
    /// Throughput/accuracy summary (one point in the paper's Figure 8
    /// plane).
    pub result: QueryResult,
    /// The raw evaluation counts behind `result`.
    pub report: EvalReport,
    /// The refined answer set (`WINDOW`/`AND NOT`/`ORDER BY`/`LIMIT`
    /// applied).
    pub answer: Vec<SegmentHit>,
    /// Per-stage timing report, present when the query was compiled
    /// from `EXPLAIN ANALYZE <zql>` (or its IR sets
    /// [`QueryIr::explain`]).
    pub explain: Option<ExplainReport>,
}
