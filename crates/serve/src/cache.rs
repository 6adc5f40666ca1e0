//! LRU result cache keyed by `(query, dataset, configuration)`.
//!
//! A repeated query against an unchanged corpus is answered from cache
//! without touching a device: the cache stores the canonical per-video
//! labels and the simulated-time accounting of the first execution, which
//! is exactly reproducible (execution is deterministic), so a hit is
//! indistinguishable from a re-run minus the device time.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use zeus_core::query::ActionQuery;
use zeus_core::result::QueryResult;
use zeus_core::ExecutorKind;
use zeus_obs::sync::lock_recover;
use zeus_video::{DataSource, VideoId};

/// Identity of the corpus a server instance serves: the content
/// fingerprint of its [`DataSource`]. Part of every cache and plan key —
/// the same SQL against a different corpus is a different result, so two
/// corpora can never share or clobber each other's entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorpusId(pub u64);

impl CorpusId {
    /// The identity of a data source (its content fingerprint). A corpus
    /// regenerated from the same profile and seed — or round-tripped
    /// through a `.zds` file — keeps its identity.
    pub fn of(source: &dyn DataSource) -> Self {
        CorpusId(source.fingerprint())
    }
}

impl std::fmt::Display for CorpusId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Cache key: query identity × corpus × executor configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Catalog key of the query (classes + rounded target; stable and
    /// human-readable, but *not* sufficient on its own — see
    /// `target_bits`).
    pub query_key: String,
    /// Exact accuracy target, as raw bits. The catalog key rounds the
    /// target to integer percent, which would conflate e.g. 0.846 and
    /// 0.854 into one entry.
    pub target_bits: u64,
    /// The corpus the result was computed over.
    pub corpus: CorpusId,
    /// Which engine produced it.
    pub executor: ExecutorKind,
}

impl CacheKey {
    /// Build the key for a query/corpus/executor triple.
    pub fn new(query: &ActionQuery, corpus: CorpusId, executor: ExecutorKind) -> Self {
        CacheKey {
            query_key: zeus_core::catalog::PlanCatalog::key(query),
            target_bits: query.target_accuracy.to_bits(),
            corpus,
            executor,
        }
    }
}

/// The cached portion of an execution (everything needed to replay the
/// outcome without a device).
#[derive(Debug, Clone)]
pub struct CachedExecution {
    /// Per-frame predictions per video, sorted by video id.
    pub labels: Vec<(VideoId, Vec<bool>)>,
    /// The evaluated result of the original run (F1, simulated
    /// throughput, invocations, histogram — all deterministic, so the
    /// replayed outcome is exactly the original).
    pub result: QueryResult,
}

struct Entry {
    value: Arc<CachedExecution>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A thread-safe LRU cache of query executions.
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl ResultCache {
    /// Cache holding at most `capacity` distinct results.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResultCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                tick: 0,
            }),
            capacity,
        }
    }

    /// Look up a result, bumping recency.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedExecution>> {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(Arc::clone(&entry.value))
    }

    /// Insert (or refresh) a result, evicting the least-recently-used
    /// entry when at capacity.
    pub fn insert(&self, key: CacheKey, value: CachedExecution) {
        let mut inner = lock_recover(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // O(n) LRU scan: capacities are small (hundreds at most) and
            // eviction is off the execution hot path.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(
            key,
            Entry {
                value: Arc::new(value),
                last_used: tick,
            },
        );
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        lock_recover(&self.inner).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_video::{ActionClass, DatasetKind};

    fn key(target_pct: u32) -> CacheKey {
        CacheKey::new(
            &ActionQuery::new(ActionClass::LeftTurn, target_pct as f64 / 100.0).unwrap(),
            CorpusId(0xB00),
            ExecutorKind::ZeusSliding,
        )
    }

    fn value(mark: u64) -> CachedExecution {
        CachedExecution {
            labels: vec![(VideoId(mark as u32), vec![true])],
            result: QueryResult {
                method: "Zeus-Sliding".into(),
                f1: 1.0,
                precision: 1.0,
                recall: 1.0,
                throughput_fps: 1.0,
                elapsed_secs: mark as f64,
                invocations: mark,
                histogram: zeus_core::result::ConfigHistogram::new(),
            },
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(4);
        assert!(c.get(&key(80)).is_none());
        c.insert(key(80), value(1));
        let hit = c.get(&key(80)).expect("cached");
        assert_eq!(hit.result.invocations, 1);
    }

    #[test]
    fn distinct_corpora_and_executors_do_not_collide() {
        let c = ResultCache::new(8);
        c.insert(key(80), value(1));
        let other_corpus = CacheKey {
            corpus: CorpusId(0xB01),
            ..key(80)
        };
        let other_exec = CacheKey {
            executor: ExecutorKind::ZeusRl,
            ..key(80)
        };
        assert!(c.get(&other_corpus).is_none());
        assert!(c.get(&other_exec).is_none());
    }

    #[test]
    fn targets_rounding_to_the_same_percent_do_not_collide() {
        // The catalog key rounds to integer percent; the cache key must
        // still distinguish 0.846 from 0.854 (both round to 85%).
        let corpus = CorpusId::of(&DatasetKind::Bdd100k.generate(0.05, 7));
        let a = CacheKey::new(
            &ActionQuery::new(ActionClass::LeftTurn, 0.846).unwrap(),
            corpus,
            ExecutorKind::ZeusSliding,
        );
        let b = CacheKey::new(
            &ActionQuery::new(ActionClass::LeftTurn, 0.854).unwrap(),
            corpus,
            ExecutorKind::ZeusSliding,
        );
        assert_eq!(a.query_key, b.query_key, "catalog keys do round");
        assert_ne!(a, b, "cache keys must not");
        let c = ResultCache::new(4);
        c.insert(a.clone(), value(1));
        assert!(c.get(&b).is_none());
        assert!(c.get(&a).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let c = ResultCache::new(2);
        c.insert(key(70), value(1));
        c.insert(key(80), value(2));
        // Touch 70 so 80 becomes the LRU victim.
        assert!(c.get(&key(70)).is_some());
        c.insert(key(90), value(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(70)).is_some(), "recently used must survive");
        assert!(c.get(&key(80)).is_none(), "LRU entry must be evicted");
        assert!(c.get(&key(90)).is_some());
    }
}
