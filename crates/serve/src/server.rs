//! The serving engine: admission → schedule → execute → cache → respond.
//!
//! A [`ZeusServer`] owns a corpus, a [`PlanStore`], a worker pool of
//! simulated devices, an LRU [`ResultCache`], and a bounded admission
//! queue. [`ZeusServer::submit`] is the whole client API: it either
//! answers from cache immediately, admits the query for concurrent
//! execution, or rejects it (queue full / no stored plan / shutting
//! down) — and hands back a typed [`ResponseStream`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use zeus_core::baselines::QueryEngine;
use zeus_core::catalog::PlanCatalog;
use zeus_core::query::ActionQuery;
use zeus_core::ExecutorKind;
use zeus_sim::{CostModel, SimClock};
use zeus_video::video::Split;
use zeus_video::DataSource;

use zeus_core::query::QueryIr;
use zeus_obs::keys;
use zeus_obs::sync::lock_recover;
use zeus_obs::{ExplainReport, ObsHub, ObsSnapshot, StageClock, Trace};

use crate::admission::{AdmissionQueue, AdmitError};
use crate::cache::{CacheKey, CachedExecution, CorpusId, ResultCache};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::plans::PlanStore;
use crate::pool::{worker_loop, ActiveQuery, PoolShared, Subscriber};
use crate::refine::{compute_exclude_spans, ExcludeSpans, QueryRefiner};
use crate::request::{Priority, QueryId, QueryOutcome, ResponseStream};

/// Why a server could not be started: every `assert!` that used to guard
/// [`ZeusServer::start`] is a typed variant here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A tuning knob is unusable (zero workers, zero queue/cache
    /// capacity, ...).
    InvalidConfig(String),
    /// The corpus test split holds no videos at this scale.
    EmptyCorpus,
    /// The configured executor is not one a server runs (see
    /// [`servable`]).
    NotServable(ExecutorKind),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidConfig(s) => write!(f, "invalid serve config: {s}"),
            ServeError::EmptyCorpus => write!(f, "corpus test split is empty"),
            ServeError::NotServable(kind) => {
                write!(f, "executor {kind} is not served")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, one simulated device each.
    pub workers: usize,
    /// Admission-queue bound shared across priority classes.
    pub queue_capacity: usize,
    /// Result-cache entries.
    pub cache_capacity: usize,
    /// The engine every submitted query runs: [`ExecutorKind::ZeusRl`] or
    /// [`ExecutorKind::ZeusSliding`] (see [`servable`]).
    pub executor: ExecutorKind,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 128,
            executor: ExecutorKind::ZeusRl,
        }
    }
}

/// A running serving engine. Dropping it shuts the pool down (pending
/// queries still drain).
pub struct ZeusServer {
    shared: Arc<PoolShared>,
    plans: Arc<PlanStore>,
    config: ServeConfig,
    corpus: CorpusId,
    dataset_name: String,
    next_id: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Exclude-span maps per distinct `AND NOT` class set: the corpus
    /// scan is paid once per set, not once per submission.
    exclude_spans: Mutex<HashMap<Vec<u8>, Arc<ExcludeSpans>>>,
    obs: ObsHub,
}

impl ZeusServer {
    /// Start a server over any [`DataSource`]: spin up `config.workers`
    /// threads, each owning one simulated device clock.
    ///
    /// The corpus identity keying the result cache and plan store is the
    /// source's content fingerprint ([`CorpusId::of`]), so two servers
    /// over different corpora sharing one [`PlanStore`] can never reuse
    /// or clobber each other's plans. `plans` may be passed by value or
    /// pre-shared as an `Arc` (the `zeus-api` session layer shares its
    /// store with the server it spawns). Returns a typed [`ServeError`]
    /// instead of panicking on an unusable configuration or an empty
    /// corpus.
    pub fn start(
        source: &dyn DataSource,
        plans: impl Into<Arc<PlanStore>>,
        config: ServeConfig,
    ) -> Result<ZeusServer, ServeError> {
        let name = source.name().to_string();
        Self::start_with_obs(source, name, plans, config, ObsHub::new())
    }

    /// [`ZeusServer::start`] with an explicit served-dataset name, the
    /// name ZQL `FROM <name>` routing is checked against, recording into
    /// a caller-owned observability hub. Sessions pass the *registered*
    /// name, which may differ from the source's own profile name (one
    /// corpus can be registered under several aliases), and their own
    /// hub, so serving counters, the latency histogram and request
    /// traces share one snapshot with training telemetry.
    pub fn start_with_obs(
        source: &dyn DataSource,
        name: impl Into<String>,
        plans: impl Into<Arc<PlanStore>>,
        config: ServeConfig,
        obs: ObsHub,
    ) -> Result<ZeusServer, ServeError> {
        Self::start_inner(source, name, plans, config, obs, None)
    }

    /// [`ZeusServer::start_with_obs`] serving out of a caller-shared
    /// result cache instead of a private one. Result-cache memory is a
    /// *node* resource: several servers co-located on one node (e.g. one
    /// per corpus on a fleet shard) share a single LRU budget, so their
    /// corpora compete for residency exactly as they would for a real
    /// node's memory. Keys embed the corpus fingerprint, so sharing can
    /// never alias results across corpora. `config.cache_capacity` is
    /// ignored — the shared cache's own capacity governs.
    pub fn start_with_cache(
        source: &dyn DataSource,
        name: impl Into<String>,
        plans: impl Into<Arc<PlanStore>>,
        config: ServeConfig,
        obs: ObsHub,
        cache: Arc<ResultCache>,
    ) -> Result<ZeusServer, ServeError> {
        Self::start_inner(source, name, plans, config, obs, Some(cache))
    }

    fn start_inner(
        source: &dyn DataSource,
        name: impl Into<String>,
        plans: impl Into<Arc<PlanStore>>,
        config: ServeConfig,
        obs: ObsHub,
        cache: Option<Arc<ResultCache>>,
    ) -> Result<ZeusServer, ServeError> {
        // Normalize the served name so it can actually match parsed
        // `FROM` operands (the parser lowercases every routing name).
        let name = zeus_video::source::normalize_name(&name.into())
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
        if config.workers == 0 {
            return Err(ServeError::InvalidConfig("need at least one worker".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue capacity must be positive".into(),
            ));
        }
        if cache.is_none() && config.cache_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "cache capacity must be positive".into(),
            ));
        }
        if !servable(config.executor) {
            return Err(ServeError::NotServable(config.executor));
        }
        let corpus_id = CorpusId::of(source);
        let mut videos: Vec<_> = source
            .store()
            .split(Split::Test)
            .into_iter()
            .cloned()
            .collect();
        videos.sort_by_key(|v| v.id);
        if videos.is_empty() {
            return Err(ServeError::EmptyCorpus);
        }

        let shared = Arc::new(PoolShared {
            queue: AdmissionQueue::new(config.queue_capacity),
            board: Mutex::new(Vec::new()),
            inflight: Mutex::new(std::collections::HashMap::new()),
            devices: (0..config.workers)
                .map(|_| Mutex::new(SimClock::new()))
                .collect(),
            cache: cache.unwrap_or_else(|| Arc::new(ResultCache::new(config.cache_capacity))),
            metrics: ServeMetrics::with_registry(&obs.metrics),
            obs: obs.clone(),
            videos,
        });
        let handles = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zeus-serve-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn worker")
            })
            .collect();
        Ok(ZeusServer {
            shared,
            plans: plans.into(),
            config,
            corpus: corpus_id,
            dataset_name: name,
            next_id: AtomicU64::new(0),
            handles: Mutex::new(handles),
            exclude_spans: Mutex::new(HashMap::new()),
            obs,
        })
    }

    /// The plan store (for warming plans ahead of traffic).
    pub fn plans(&self) -> &PlanStore {
        &self.plans
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The corpus identity (content fingerprint) this server serves.
    pub fn corpus_id(&self) -> CorpusId {
        self.corpus
    }

    /// The registry name of the dataset this server serves. Queries with
    /// a ZQL `FROM <other>` routing are refused at admission.
    pub fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    /// Submit a query for execution by the configured executor.
    ///
    /// Fast paths first: a result-cache hit answers synchronously (the
    /// stream already holds the outcome); a missing plan or a full queue
    /// rejects. Otherwise the query is admitted and executes on the pool.
    pub fn submit(
        &self,
        query: ActionQuery,
        priority: Priority,
    ) -> Result<ResponseStream, AdmitError> {
        self.submit_staged(query, priority, None, None)
    }

    /// Submit an extended-ZQL query ([`QueryIr`]).
    ///
    /// The classic core (`ir.base`) drives plan resolution, execution,
    /// caching, and coalescing — a hundred differently-refined views of
    /// one query cost one execution. The extended clauses act here:
    ///
    /// * `latency_budget` selects the admission priority when the caller
    ///   passes `None` (see [`priority_for_budget`]): tight budgets ride
    ///   the interactive class.
    /// * `WINDOW`, `AND NOT`, `ORDER BY` and `LIMIT` shape the outcome's
    ///   [`QueryOutcome::answer`].
    pub fn submit_ir(
        &self,
        ir: &QueryIr,
        priority: Option<Priority>,
    ) -> Result<ResponseStream, AdmitError> {
        self.submit_ir_staged(ir, priority, None, None)
    }

    fn submit_ir_staged(
        &self,
        ir: &QueryIr,
        priority: Option<Priority>,
        clock: Option<&mut StageClock>,
        trace: Option<&Trace>,
    ) -> Result<ResponseStream, AdmitError> {
        if let Some(requested) = &ir.source {
            if requested != &self.dataset_name {
                return Err(AdmitError::WrongDataset {
                    requested: requested.clone(),
                    serving: self.dataset_name.clone(),
                });
            }
        }
        let priority = priority.unwrap_or_else(|| priority_for_budget(ir.latency_budget_ms));
        let stream = self.submit_staged(ir.base.clone(), priority, clock, trace)?;
        // Resolve the exclude-span map from the per-set cache so the
        // admission path never re-scans the corpus for a repeated
        // `AND NOT` set.
        let spans = if ir.exclude.is_empty() {
            Arc::default()
        } else {
            let mut key: Vec<u8> = ir
                .exclude
                .iter()
                .map(|c| {
                    zeus_video::ActionClass::ALL
                        .iter()
                        .position(|x| x == c)
                        .expect("class in ALL") as u8
                })
                .collect();
            key.sort_unstable();
            key.dedup();
            let cached = lock_recover(&self.exclude_spans).get(&key).cloned();
            match cached {
                Some(spans) => spans,
                None => {
                    // Scan outside the lock (corpus-proportional work must
                    // not stall concurrent admissions); double-checked
                    // insert keeps one copy if two submissions race.
                    let computed =
                        Arc::new(compute_exclude_spans(&ir.exclude, &self.shared.videos));
                    let mut cache = lock_recover(&self.exclude_spans);
                    Arc::clone(cache.entry(key).or_insert(computed))
                }
            }
        };
        Ok(stream.with_refiner(QueryRefiner::with_exclude_spans(ir, spans)))
    }

    /// [`ZeusServer::submit`] plus stage instrumentation: every
    /// admission-path stage (`cache`, `plan`, `admission`) is recorded
    /// into the tracer's aggregates; an `EXPLAIN ANALYZE` caller passes a
    /// [`StageClock`] (contiguous checkpoints) and a [`Trace`] to get the
    /// full per-request tree. Hot-path submissions with neither still
    /// grow a sampled trace tree every [`TRACE_SAMPLE`]th request.
    fn submit_staged(
        &self,
        query: ActionQuery,
        priority: Priority,
        clock: Option<&mut StageClock>,
        trace: Option<&Trace>,
    ) -> Result<ResponseStream, AdmitError> {
        let submitted = Instant::now();
        self.shared.metrics.on_submit();
        let executor = self.config.executor;
        let id = QueryId(self.next_id.fetch_add(1, Ordering::Relaxed));
        // Hot-path submissions grow a sampled trace tree (deterministic,
        // id-based — no RNG); explain callers pass their own trace.
        let sampled = (clock.is_none() && trace.is_none() && id.0.is_multiple_of(TRACE_SAMPLE))
            .then(|| self.obs.tracer.trace("serve.submit"));
        let trace = trace.or(sampled.as_ref());
        let mut stages = StageScope::new(&self.obs, clock, trace, submitted);
        let cache_key = CacheKey::new(&query, self.corpus, executor);

        let (tx, rx) = mpsc::channel();
        let mut subscriber = Subscriber {
            id,
            priority,
            submitted,
            tx,
            coalesced: true,
        };

        // 1. Result cache.
        stages.enter("cache");
        if let Some(cached) = self.shared.cache.get(&cache_key) {
            self.replay_cached(&query, executor, &subscriber, &cached);
            drop(stages);
            return Ok(attach_trace(ResponseStream::new(id, rx), &sampled));
        }

        // 2. Coalesce onto an identical in-flight query: the follower
        //    subscribes to the running execution instead of re-running it.
        {
            let inflight = lock_recover(&self.shared.inflight);
            if let Some(task) = inflight.get(&cache_key) {
                match task.subscribe(subscriber) {
                    Ok(()) => {
                        self.shared.metrics.on_admit();
                        drop(inflight);
                        drop(stages);
                        return Ok(attach_trace(ResponseStream::new(id, rx), &sampled));
                    }
                    // The query finalized between our cache miss and now;
                    // finalize publishes to the cache before closing, so
                    // the re-check below normally hits (unless a shared
                    // node cache already evicted it again, in which case
                    // we fall through and execute afresh).
                    Err(returned) => subscriber = returned,
                }
            }
        }
        if let Some(cached) = self.shared.cache.get(&cache_key) {
            self.replay_cached(&query, executor, &subscriber, &cached);
            drop(stages);
            return Ok(attach_trace(ResponseStream::new(id, rx), &sampled));
        }

        // 3. Plan resolution (never trains inline).
        stages.enter("plan");
        let found = self.plans.lookup(self.corpus, &query);
        if found.is_err() {
            self.shared.metrics.on_plan_refused();
        }
        let plan = found.ok().flatten().ok_or_else(|| {
            self.shared.metrics.on_no_plan();
            AdmitError::NoPlan {
                key: PlanCatalog::key(&query),
            }
        })?;
        let engine: Box<dyn QueryEngine + Send + Sync> = match executor {
            ExecutorKind::ZeusRl => Box::new(plan.zeus_rl_engine(CostModel)),
            ExecutorKind::ZeusSliding => Box::new(plan.sliding_engine(CostModel)),
            _ => unreachable!("servable() vetted the executor"),
        };

        // 4. Admission, atomic with a coalescing re-check: an identical
        //    submission may have been admitted since the step-2 check, so
        //    the subscribe-or-create decision and the queue push both
        //    happen under the in-flight map lock (a shed submission is
        //    therefore never visible for coalescing either).
        enum Admitted {
            Queued,
            Coalesced,
            Replayed(Arc<CachedExecution>, Subscriber),
            Rejected(AdmitError),
        }
        stages.enter("admission");
        let mut engine = Some(engine);
        // Loops only on a rare double race: the in-flight query we tried
        // to join finalized under our feet AND its published result was
        // already evicted (possible under a shared node cache's memory
        // pressure) — then this submission must execute for itself.
        let admitted = loop {
            let mut inflight = lock_recover(&self.shared.inflight);
            if let Some(existing) = inflight.get(&cache_key) {
                subscriber.coalesced = true;
                match existing.subscribe(subscriber) {
                    Ok(()) => break Admitted::Coalesced,
                    Err(returned) => {
                        drop(inflight);
                        match self.shared.cache.get(&cache_key) {
                            Some(cached) => break Admitted::Replayed(cached, returned),
                            None => subscriber = returned,
                        }
                    }
                }
            } else {
                subscriber.coalesced = false;
                let task = Arc::new(ActiveQuery::new(
                    query.clone(),
                    executor,
                    plan.protocol,
                    engine.take().expect("the push branch runs at most once"),
                    cache_key.clone(),
                    subscriber,
                    self.shared.videos.len(),
                ));
                match self.shared.queue.try_push(Arc::clone(&task), priority) {
                    Ok(_depth) => {
                        inflight.insert(cache_key.clone(), task);
                        break Admitted::Queued;
                    }
                    Err(e) => break Admitted::Rejected(e),
                }
            }
        };
        drop(stages);
        match admitted {
            Admitted::Queued | Admitted::Coalesced => {
                self.shared.metrics.on_admit();
                Ok(attach_trace(ResponseStream::new(id, rx), &sampled))
            }
            Admitted::Replayed(cached, returned) => {
                self.replay_cached(&query, executor, &returned, &cached);
                Ok(attach_trace(ResponseStream::new(id, rx), &sampled))
            }
            Admitted::Rejected(e) => {
                if matches!(e, AdmitError::QueueFull { .. }) {
                    self.shared.metrics.on_shed();
                }
                Err(e)
            }
        }
    }

    /// `EXPLAIN ANALYZE`: submit `ir`, wait for its outcome, and return
    /// it with a per-stage timing report. The stages (`cache`, `plan`,
    /// `admission`, `execute`, `refine`) are contiguous checkpoint
    /// deltas, so their sum equals the measured end-to-end latency by
    /// construction; stages a fast path skipped appear with zero width.
    pub fn explain_ir(
        &self,
        ir: &QueryIr,
        priority: Option<Priority>,
    ) -> Result<(QueryOutcome, ExplainReport), AdmitError> {
        let mut clock = StageClock::new();
        let trace = self.obs.tracer.trace("serve.explain");
        let stream = self.submit_ir_staged(ir, priority, Some(&mut clock), Some(&trace))?;
        for name in ["cache", "plan", "admission"] {
            if !clock.stages().iter().any(|s| s.name == name) {
                clock.mark(name);
            }
        }
        let raw = {
            let _span = trace.span("execute");
            stream.wait_raw()
        };
        clock.mark("execute");
        clock.set_device_secs(raw.result.elapsed_secs);
        let outcome = {
            let _span = trace.span("refine");
            stream.refine_outcome(raw)
        };
        clock.mark("refine");
        let device_secs = outcome.result.elapsed_secs;
        let (stage_timings, total) = clock.finish();
        let report = ExplainReport {
            query: ir.to_sql(),
            executor: outcome.executor.name().to_string(),
            from_cache: outcome.from_cache,
            coalesced: outcome.from_cache && !outcome.labels.is_empty() && outcome.latency > total,
            stages: stage_timings,
            total,
            device_secs,
        };
        Ok((outcome, report))
    }

    /// Answer a submission from a cached execution: send its outcome
    /// onto the subscriber's channel.
    fn replay_cached(
        &self,
        query: &ActionQuery,
        executor: ExecutorKind,
        subscriber: &Subscriber,
        cached: &CachedExecution,
    ) {
        let latency = subscriber.submitted.elapsed();
        self.shared.metrics.on_cache_hit(latency);
        let _ = subscriber.tx.send(QueryOutcome {
            id: subscriber.id,
            query: query.clone(),
            priority: subscriber.priority,
            executor,
            result: cached.result.clone(),
            // Filled in at delivery by `ResponseStream`.
            answer: Vec::new(),
            labels: cached.labels.clone(),
            from_cache: true,
            latency,
        });
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Queue fill fraction in `[0, 1]` — the pressure signal the fleet
    /// router's quota gate consumes.
    pub fn pressure(&self) -> f64 {
        self.shared.queue.depth() as f64 / self.config.queue_capacity as f64
    }

    /// Snapshot serving telemetry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared
            .metrics
            .snapshot(self.shared.queue.depth(), self.shared.device_busy_secs())
    }

    /// The server's observability hub (shared metric registry + tracer).
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Handle onto the span tracer — the sink `zeus trace` exports trace
    /// trees and per-stage aggregates from.
    pub fn trace_sink(&self) -> zeus_obs::Tracer {
        self.obs.tracer.clone()
    }

    /// One-stop observability snapshot: samples queue depth and
    /// per-device utilization into gauges, then returns the full metric
    /// namespace (serving counters, latency histogram, cache hit/miss).
    pub fn snapshot(&self) -> ObsSnapshot {
        self.obs
            .metrics
            .gauge(keys::SERVE_QUEUE_DEPTH)
            .set(self.shared.queue.depth() as f64);
        self.obs
            .metrics
            .gauge(keys::SERVE_DEVICE_SECS)
            .set(self.shared.metrics.device_secs());
        for (i, busy) in self.shared.device_busy_secs().iter().enumerate() {
            self.obs
                .metrics
                .gauge(&keys::pool_device_busy_secs(i))
                .set(*busy);
        }
        self.obs.metrics.snapshot()
    }

    /// Stop admitting, drain pending queries, and join the pool. Safe to
    /// call more than once.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handles: Vec<_> = lock_recover(&self.handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ZeusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Every `TRACE_SAMPLE`th plain submission records a full trace tree
/// (deterministic id-based sampling; stage aggregates always record).
const TRACE_SAMPLE: u64 = 16;

fn attach_trace(stream: ResponseStream, sampled: &Option<Trace>) -> ResponseStream {
    match sampled {
        Some(trace) => stream.with_trace(trace.clone()),
        None => stream,
    }
}

/// Tracks the admission path's current stage: `enter` closes the
/// previous stage (checkpoint mark + tracer aggregate + trace span) and
/// opens the next; dropping the scope closes the last one, so early
/// returns stay accounted.
struct StageScope<'a> {
    obs: &'a ObsHub,
    clock: Option<&'a mut StageClock>,
    trace: Option<&'a Trace>,
    span: Option<zeus_obs::SpanGuard>,
    current: Option<&'static str>,
    last: Instant,
}

impl<'a> StageScope<'a> {
    fn new(
        obs: &'a ObsHub,
        clock: Option<&'a mut StageClock>,
        trace: Option<&'a Trace>,
        start: Instant,
    ) -> Self {
        StageScope {
            obs,
            clock,
            trace,
            span: None,
            current: None,
            last: start,
        }
    }

    fn enter(&mut self, name: &'static str) {
        self.close();
        self.current = Some(name);
        self.span = self.trace.map(|t| t.span(name));
    }

    fn close(&mut self) {
        if let Some(name) = self.current.take() {
            let now = Instant::now();
            // A live span records the stage aggregate on drop; only the
            // span-less hot path records it directly.
            if self.span.take().is_none() {
                self.obs
                    .tracer
                    .record_stage(name, now.saturating_duration_since(self.last));
            }
            if let Some(clock) = self.clock.as_deref_mut() {
                clock.mark(name);
            }
            self.last = now;
        }
    }
}

impl Drop for StageScope<'_> {
    fn drop(&mut self) {
        self.close();
    }
}

/// Does a server run `executor`? Zeus-RL and Zeus-Sliding only: a stored
/// plan rebuilds all five engines, but the baselines are not served.
pub fn servable(executor: ExecutorKind) -> bool {
    matches!(executor, ExecutorKind::ZeusRl | ExecutorKind::ZeusSliding)
}

/// Map a ZQL `latency_budget` to an admission priority class: tight
/// budgets (≤ 250 ms) are interactive, moderate ones (≤ 1 s) standard,
/// loose or absent budgets batch/standard.
pub fn priority_for_budget(budget_ms: Option<f64>) -> Priority {
    match budget_ms {
        Some(ms) if ms <= 250.0 => Priority::Interactive,
        Some(ms) if ms <= 1_000.0 => Priority::Standard,
        Some(_) => Priority::Batch,
        None => Priority::Standard,
    }
}
