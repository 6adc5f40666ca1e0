//! The fleet router: corpus-keyed sharding, tenant quota gating, and
//! hot plan replication over a set of [`ZeusServer`] shards.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use zeus_core::planner::QueryPlan;
use zeus_core::query::QueryIr;
use zeus_obs::keys;
use zeus_obs::sync::lock_recover;
use zeus_obs::{Counter, ObsHub, ObsSnapshot};
use zeus_serve::quota::{Decision, FairShareGate, QuotaSpec, TenantId};
use zeus_serve::{
    AdmitError, CorpusId, PlanStore, Priority, ResponseStream, ResultCache, ServeConfig,
    ServeError, ZeusServer,
};
use zeus_video::source::normalize_name;
use zeus_video::SharedSource;

use crate::hrw;

/// Fleet-level failures. Admission-layer rejections that can happen on
/// a single server ([`AdmitError`]) are wrapped; the rest are routing,
/// quota, or capacity outcomes only a fleet can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The fleet was configured with zero shards.
    NoShards,
    /// No data sources were registered to shard over.
    NoCorpora,
    /// A shard refused to start.
    Serve(ServeError),
    /// The query's `FROM` names a dataset no shard serves.
    UnknownDataset {
        /// The dataset the query asked for.
        requested: String,
    },
    /// The fair-share gate shed the request: the tenant is over quota.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: TenantId,
        /// How far over quota it was running (≥ 1.0).
        overage: f64,
    },
    /// Every candidate shard for the corpus was at capacity.
    Saturated {
        /// The corpus whose candidates were all full.
        corpus: CorpusId,
    },
    /// A non-retryable admission error from the chosen shard.
    Admit(AdmitError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoShards => write!(f, "fleet needs at least one shard"),
            FleetError::NoCorpora => write!(f, "fleet needs at least one registered dataset"),
            FleetError::Serve(e) => write!(f, "shard failed to start: {e}"),
            FleetError::UnknownDataset { requested } => {
                write!(f, "no shard serves dataset '{requested}'")
            }
            FleetError::QuotaExceeded { tenant, overage } => write!(
                f,
                "tenant '{tenant}' shed at {overage:.2}x over its admission quota"
            ),
            FleetError::Saturated { corpus } => {
                write!(
                    f,
                    "every candidate shard for corpus {corpus} is at capacity"
                )
            }
            FleetError::Admit(e) => write!(f, "admission refused: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<ServeError> for FleetError {
    fn from(e: ServeError) -> Self {
        FleetError::Serve(e)
    }
}

impl From<AdmitError> for FleetError {
    fn from(e: AdmitError) -> Self {
        FleetError::Admit(e)
    }
}

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of shards. Each shard hosts one server per registered
    /// corpus over its own plan store and observability hub.
    pub shards: usize,
    /// Per-server tuning, applied to every server on every shard. The
    /// `quota` field is ignored here — the fleet gates at the router so
    /// a request is charged once, not once per shard probed.
    pub serve: ServeConfig,
    /// Default per-tenant quota.
    pub quota: QuotaSpec,
    /// Per-tenant quota overrides.
    pub quota_overrides: Vec<(TenantId, QuotaSpec)>,
    /// Work-conserving shedding: over-quota tenants ride spare capacity
    /// until pressure crosses the gate's high-water mark (scaled down by
    /// how far over quota they are). Strict mode (`false`) sheds every
    /// over-quota request immediately.
    pub work_conserving: bool,
    /// Router-observed submissions to one corpus after which its plans
    /// are replicated to sibling shards and its traffic spread.
    pub hot_threshold: u64,
    /// How many sibling shards receive a hot corpus's plans (clamped to
    /// `shards - 1`; the default replicates to every sibling).
    pub replicas: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            serve: ServeConfig::default(),
            quota: QuotaSpec::default(),
            quota_overrides: Vec::new(),
            work_conserving: true,
            hot_threshold: 1_000,
            replicas: usize::MAX,
        }
    }
}

/// One shard: a server per corpus, all sharing the shard's plan store
/// and observability hub.
struct Shard {
    servers: HashMap<CorpusId, ZeusServer>,
    plans: Arc<PlanStore>,
    obs: ObsHub,
}

impl Shard {
    /// Point-in-time observability snapshot of this shard with the
    /// shard-total queue depth sampled into `serve.queue.depth` (the
    /// per-server snapshot would leave the last server's depth there).
    fn snapshot(&self) -> ObsSnapshot {
        let mut depth = 0usize;
        for server in self.servers.values() {
            server.snapshot();
            depth += server.queue_depth();
        }
        self.obs
            .metrics
            .gauge(keys::SERVE_QUEUE_DEPTH)
            .set(depth as f64);
        self.obs.metrics.snapshot()
    }
}

/// Per-corpus routing state: traffic heat and the replicated flag.
struct CorpusRoute {
    name: String,
    corpus: CorpusId,
    heat: AtomicU64,
    replicated: AtomicBool,
}

/// A successfully routed submission.
pub struct Routed {
    /// The shard that admitted the query.
    pub shard: usize,
    /// The corpus's rendezvous primary.
    pub primary: usize,
    /// True when a non-primary shard served it from a replicated plan.
    pub replica_hit: bool,
    /// The response stream from the serving shard.
    pub stream: ResponseStream,
}

/// The fleet: N shards of [`ZeusServer`]s behind rendezvous routing,
/// one fair-share quota gate, and a hot-plan replicator.
///
/// ```text
///            submit(ir, tenant, priority)
///                      │
///            ┌─────────▼─────────┐  over quota
///            │   FairShareGate   ├─────────────► FleetError::QuotaExceeded
///            │ (token bucket per │
///            │      tenant)      │
///            └─────────┬─────────┘
///            ┌─────────▼─────────┐
///            │  rendezvous rank  │   hot corpus: round-robin over
///            │  (CorpusId → HRW  │   primary + replicas; cold: primary
///            │   shard order)    │   first, siblings as failover
///            └─────────┬─────────┘
///          ┌───────────┼───────────┐
///     ┌────▼───┐  ┌────▼───┐  ┌────▼───┐     heat ≥ hot_threshold:
///     │shard 0 │  │shard 1 │  │shard 2 │ ◄── push PlanStore entries
///     │servers │  │servers │  │servers │     to sibling shards
///     └────────┘  └────────┘  └────────┘
/// ```
pub struct FleetRouter {
    shards: Vec<Shard>,
    routes: Vec<CorpusRoute>,
    by_name: HashMap<String, usize>,
    by_corpus: HashMap<CorpusId, usize>,
    default_route: usize,
    /// Master plan catalog captured at build: the replication source.
    catalog: HashMap<CorpusId, Vec<Arc<QueryPlan>>>,
    gate: FairShareGate,
    config: FleetConfig,
    obs: ObsHub,
    rr: AtomicUsize,
    replicate_lock: Mutex<()>,
    // Hot-path counter handles in the router's `fleet.*` namespace.
    routed: Counter,
    shard_routed: Vec<Counter>,
    replica_hits: Counter,
    replicated_plans: Counter,
    failover: Counter,
    shed_over: Counter,
    shed_under: Counter,
}

impl FleetRouter {
    /// Build a fleet over `sources` (registered name → shared corpus).
    ///
    /// Every shard gets a server for every corpus (so replication and
    /// failover have somewhere to land), but plans from `plans` are
    /// seeded only into each corpus's rendezvous-primary shard: sibling
    /// shards start cold and only warm up through hot replication.
    pub fn build(
        sources: &[(String, SharedSource)],
        default_source: &str,
        plans: &PlanStore,
        config: FleetConfig,
    ) -> Result<FleetRouter, FleetError> {
        if config.shards == 0 {
            return Err(FleetError::NoShards);
        }
        if sources.is_empty() {
            return Err(FleetError::NoCorpora);
        }
        let obs = ObsHub::new();
        let mut routes = Vec::new();
        let mut by_name = HashMap::new();
        let mut by_corpus = HashMap::new();
        let mut catalog = HashMap::new();
        for (name, source) in sources {
            let name = normalize_name(name)
                .map_err(|e| FleetError::Serve(ServeError::InvalidConfig(e.to_string())))?;
            let corpus = CorpusId::of(source.as_ref());
            if by_name.contains_key(&name) {
                continue;
            }
            by_name.insert(name.clone(), routes.len());
            by_corpus.entry(corpus).or_insert(routes.len());
            catalog
                .entry(corpus)
                .or_insert_with(|| plans.plans_for(corpus));
            routes.push(CorpusRoute {
                name,
                corpus,
                heat: AtomicU64::new(0),
                replicated: AtomicBool::new(false),
            });
        }
        let default_route = *by_name
            .get(
                &normalize_name(default_source)
                    .map_err(|e| FleetError::Serve(ServeError::InvalidConfig(e.to_string())))?,
            )
            .ok_or_else(|| FleetError::UnknownDataset {
                requested: default_source.to_string(),
            })?;

        let serve = config.serve.clone();
        if serve.cache_capacity == 0 {
            return Err(FleetError::Serve(ServeError::InvalidConfig(
                "cache capacity must be positive".into(),
            )));
        }
        let mut shards = Vec::with_capacity(config.shards);
        for shard_idx in 0..config.shards {
            let shard_plans = Arc::new(PlanStore::in_memory());
            // Seed only the corpora this shard is primary for.
            for route in &routes {
                if hrw::primary(route.corpus, config.shards) == shard_idx {
                    if let Some(plans) = catalog.get(&route.corpus) {
                        for plan in plans {
                            shard_plans.install_stored(route.corpus, (**plan).clone());
                        }
                    }
                }
            }
            let shard_obs = ObsHub::new();
            // One result cache per *shard*, shared by every corpus
            // server on it: cache memory is a node resource, so the
            // shard's corpora compete for one LRU budget. This is what
            // makes a fleet scale — rendezvous routing keeps each
            // shard's resident set to its own corpora's results, while
            // a single node serving the full mix thrashes the same
            // budget across every corpus.
            let shard_cache = Arc::new(ResultCache::new(serve.cache_capacity));
            let mut servers = HashMap::new();
            for (name, source) in sources {
                let corpus = CorpusId::of(source.as_ref());
                if servers.contains_key(&corpus) {
                    continue;
                }
                let server = ZeusServer::start_with_cache(
                    source.as_ref(),
                    name.clone(),
                    Arc::clone(&shard_plans),
                    serve.clone(),
                    shard_obs.clone(),
                    Arc::clone(&shard_cache),
                )?;
                servers.insert(corpus, server);
            }
            shards.push(Shard {
                servers,
                plans: shard_plans,
                obs: shard_obs,
            });
        }

        let mut gate = if config.work_conserving {
            FairShareGate::work_conserving(config.quota)
        } else {
            FairShareGate::strict(config.quota)
        };
        for (tenant, quota) in &config.quota_overrides {
            gate = gate.with_quota(tenant.clone(), *quota);
        }

        let shard_routed = (0..config.shards)
            .map(|i| obs.metrics.counter(&keys::fleet_shard_routed(i)))
            .collect();
        Ok(FleetRouter {
            routed: obs.metrics.counter(keys::FLEET_ROUTED),
            shard_routed,
            replica_hits: obs.metrics.counter(keys::FLEET_PLAN_REPLICA_HITS),
            replicated_plans: obs.metrics.counter(keys::FLEET_PLAN_REPLICATED),
            failover: obs.metrics.counter(keys::FLEET_FAILOVER),
            shed_over: obs.metrics.counter(keys::FLEET_SHED_OVER_QUOTA),
            shed_under: obs.metrics.counter(keys::FLEET_SHED_UNDER_QUOTA),
            shards,
            routes,
            by_name,
            by_corpus,
            default_route,
            catalog,
            gate,
            config,
            obs,
            rr: AtomicUsize::new(0),
            replicate_lock: Mutex::new(()),
        })
    }

    /// The registered corpora as `(name, corpus, primary shard)`.
    pub fn corpora(&self) -> Vec<(String, CorpusId, usize)> {
        self.routes
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    r.corpus,
                    hrw::primary(r.corpus, self.shards.len()),
                )
            })
            .collect()
    }

    /// The rendezvous primary for `corpus`.
    pub fn primary_shard(&self, corpus: CorpusId) -> usize {
        hrw::primary(corpus, self.shards.len())
    }

    /// Whether `corpus` has gone hot and had its plans replicated.
    pub fn is_replicated(&self, corpus: CorpusId) -> bool {
        self.by_corpus
            .get(&corpus)
            .map(|&i| self.routes[i].replicated.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// The router's own `fleet.*` observability hub.
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Queries routed to each shard since construction.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.shard_routed.iter().map(|c| c.get()).collect()
    }

    /// Route and submit one query.
    ///
    /// The request is quota-gated first (per `tenant`), then offered to
    /// the corpus's candidate shards in order: for a cold corpus the
    /// rendezvous primary with siblings as pure failover; for a hot
    /// (replicated) corpus, round-robin over primary + replicas. A
    /// candidate that is full or cold (no plan) is skipped; success on
    /// a non-primary shard whose plan arrived via replication counts a
    /// `fleet.plan.replica_hits`.
    pub fn submit(
        &self,
        ir: &QueryIr,
        tenant: &TenantId,
        priority: Option<Priority>,
    ) -> Result<Routed, FleetError> {
        let route_idx = match &ir.source {
            Some(requested) => match normalize_name(requested)
                .ok()
                .and_then(|n| self.by_name.get(&n))
            {
                Some(&i) => i,
                None => {
                    return Err(FleetError::UnknownDataset {
                        requested: requested.clone(),
                    })
                }
            },
            None => self.default_route,
        };
        let route = &self.routes[route_idx];
        let corpus = route.corpus;

        // Heat accounting + one-shot replication trigger.
        let heat = route.heat.fetch_add(1, Ordering::Relaxed) + 1;
        if heat >= self.config.hot_threshold
            && self.shards.len() > 1
            && !route.replicated.load(Ordering::Acquire)
        {
            self.replicate(route_idx);
        }

        let order = hrw::rank(corpus, self.shards.len());
        let primary = order[0];
        let replicated = route.replicated.load(Ordering::Acquire);
        let candidates: Vec<usize> = if replicated {
            let spread = (self.config.replicas.saturating_add(1)).min(order.len());
            let start = self.rr.fetch_add(1, Ordering::Relaxed) % spread;
            (0..spread).map(|i| order[(start + i) % spread]).collect()
        } else {
            order
        };

        // Gate on the pressure of the first candidate — the shard this
        // request lands on unless it has to fail over.
        let pressure = self.shards[candidates[0]]
            .servers
            .get(&corpus)
            .map(|s| s.pressure())
            .unwrap_or(0.0);
        let in_quota = match self.gate.admit(tenant, pressure) {
            Decision::Admit { in_quota } => in_quota,
            Decision::Shed { overage } => {
                // Structurally over-quota: the gate never sheds a tenant
                // holding a token.
                self.shed_over.inc();
                return Err(FleetError::QuotaExceeded {
                    tenant: tenant.clone(),
                    overage,
                });
            }
        };

        let mut saturated = false;
        for (attempt, &shard_idx) in candidates.iter().enumerate() {
            let Some(server) = self.shards[shard_idx].servers.get(&corpus) else {
                continue;
            };
            match server.submit_ir(ir, priority) {
                Ok(stream) => {
                    self.routed.inc();
                    self.shard_routed[shard_idx].inc();
                    let replica_hit = shard_idx != primary && replicated;
                    if replica_hit {
                        self.replica_hits.inc();
                    }
                    if attempt > 0 {
                        self.failover.inc();
                    }
                    return Ok(Routed {
                        shard: shard_idx,
                        primary,
                        replica_hit,
                        stream,
                    });
                }
                // A full or cold candidate is not fatal: try the next.
                Err(AdmitError::QueueFull { .. }) => saturated = true,
                Err(AdmitError::NoPlan { .. }) => continue,
                Err(e) => return Err(FleetError::Admit(e)),
            }
        }
        if !saturated {
            // Every candidate was cold: the query was never planned, so
            // no shard (primary included) can serve it.
            return Err(FleetError::Admit(AdmitError::NoPlan {
                key: zeus_core::catalog::PlanCatalog::key(&ir.base),
            }));
        }
        // Physical saturation, attributed for the fairness audit: an
        // in-quota tenant bounced here was not shed *by the gate* (a
        // closed-loop client can retry these), but the fleet
        // records it so operators can see quota-respecting demand being
        // turned away.
        if in_quota {
            self.shed_under.inc();
        } else {
            self.shed_over.inc();
        }
        Err(FleetError::Saturated { corpus })
    }

    /// Push one corpus's catalog entries to its sibling shards. Runs
    /// once per corpus (double-checked under the replication lock).
    fn replicate(&self, route_idx: usize) {
        let route = &self.routes[route_idx];
        let _guard = lock_recover(&self.replicate_lock);
        if route.replicated.load(Ordering::Acquire) {
            return;
        }
        let order = hrw::rank(route.corpus, self.shards.len());
        let plans = self.catalog.get(&route.corpus).cloned().unwrap_or_default();
        let mut pushed = 0u64;
        for &shard_idx in order[1..]
            .iter()
            .take(self.config.replicas.min(order.len() - 1))
        {
            for plan in &plans {
                self.shards[shard_idx]
                    .plans
                    .install_stored(route.corpus, (**plan).clone());
                pushed += 1;
            }
        }
        self.replicated_plans.add(pushed);
        route.replicated.store(true, Ordering::Release);
    }

    /// Per-shard observability snapshots (index-aligned with shards).
    pub fn shard_snapshots(&self) -> Vec<ObsSnapshot> {
        self.shards.iter().map(Shard::snapshot).collect()
    }

    /// The fleet-wide rollup: every shard's snapshot merged (counters
    /// and gauges sum, histogram summaries combine — see
    /// [`ObsSnapshot::merge`]) plus the router's own `fleet.*` metrics.
    pub fn fleet_snapshot(&self) -> ObsSnapshot {
        let mut parts = self.shard_snapshots();
        parts.push(self.obs.metrics.snapshot());
        ObsSnapshot::merge(&parts)
    }

    /// Stop admitting on every shard, drain, and join all pools.
    pub fn shutdown(&self) {
        for shard in &self.shards {
            for server in shard.servers.values() {
                server.shutdown();
            }
        }
    }
}

impl Drop for FleetRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}
