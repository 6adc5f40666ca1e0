//! Plan resolution with reuse: in-memory map in front of the on-disk
//! [`PlanCatalog`], scoped per corpus.
//!
//! Planning a query costs minutes of simulated APFG fine-tuning plus RL
//! training (Table 6); the serving layer must never pay it on the request
//! path. A [`PlanStore`] resolves `(corpus, query)` pairs to whole
//! [`QueryPlan`]s (profiles, training report and costs included) through
//! two tiers — a process-local map, then a per-corpus `.zpln` catalog
//! directory — and exposes [`PlanStore::install`] for warming either tier
//! ahead of traffic. Every installed plan is the catalog codec's decoding
//! of its own encoding, so a plan serves identically from memory and from
//! disk. A query with no resolvable plan is refused at admission
//! (`AdmitError::NoPlan`) rather than trained inline.
//!
//! Every key carries the corpus fingerprint ([`CorpusId`]): the same SQL
//! trained over two different corpora yields two independent plans, so a
//! multi-dataset session can share one store across all its corpora
//! without cross-dataset reuse or clobbering. On disk, each corpus gets
//! its own subdirectory (`<dir>/<fingerprint>/<key>.zpln`), so the
//! `.zpln` file format itself is unchanged.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, RwLock};

use zeus_core::catalog::{decode_plan, encode_plan, PlanCatalog};
use zeus_core::planner::QueryPlan;
use zeus_core::query::ActionQuery;
use zeus_obs::sync::{read_recover, write_recover};

use crate::cache::CorpusId;

/// Exact in-memory key for a plan: the corpus fingerprint plus the
/// catalog key, disambiguated with the raw target bits (the catalog key
/// rounds the accuracy target to integer percent, so 0.846 and 0.854 are
/// distinct plans even though both round to `...-085`).
type MemKey = (CorpusId, String, u64);

fn mem_key(corpus: CorpusId, query: &ActionQuery) -> MemKey {
    (
        corpus,
        PlanCatalog::key(query),
        query.target_accuracy.to_bits(),
    )
}

/// A catalog entry that exists for a lookup's key but cannot serve it
/// (see [`PlanStore::lookup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRefused;

/// Two-tier plan resolver: memory, then per-corpus catalog directory.
pub struct PlanStore {
    catalog_dir: Option<PathBuf>,
    /// Opened per-corpus catalogs, memoized so lookups never repeat the
    /// open (and its `create_dir_all`) on the request path.
    catalogs: RwLock<HashMap<CorpusId, PlanCatalog>>,
    mem: RwLock<HashMap<MemKey, Arc<QueryPlan>>>,
}

impl PlanStore {
    /// A store with no disk tier (plans must be installed explicitly).
    pub fn in_memory() -> Self {
        PlanStore {
            catalog_dir: None,
            catalogs: RwLock::new(HashMap::new()),
            mem: RwLock::new(HashMap::new()),
        }
    }

    /// A store backed by a catalog directory: plans persisted by earlier
    /// `zeus plan` invocations are reused without retraining, and
    /// installed plans are persisted for future processes. Each corpus
    /// writes into its own fingerprint-named subdirectory.
    pub fn with_catalog(dir: impl AsRef<std::path::Path>) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        Ok(PlanStore {
            catalog_dir: Some(dir.as_ref().to_path_buf()),
            catalogs: RwLock::new(HashMap::new()),
            mem: RwLock::new(HashMap::new()),
        })
    }

    /// The catalog for one corpus's subdirectory, when a disk tier
    /// exists. Lookups (`create: false`) never create the directory —
    /// a corpus that was merely *probed* leaves no trace on disk.
    fn catalog(&self, corpus: CorpusId, create: bool) -> io::Result<Option<PlanCatalog>> {
        let Some(dir) = &self.catalog_dir else {
            return Ok(None);
        };
        if let Some(catalog) = read_recover(&self.catalogs).get(&corpus) {
            return Ok(Some(catalog.clone()));
        }
        let path = dir.join(corpus.to_string());
        if !create && !path.is_dir() {
            return Ok(None);
        }
        let catalog = PlanCatalog::open(path)?;
        write_recover(&self.catalogs).insert(corpus, catalog.clone());
        Ok(Some(catalog))
    }

    /// Install a freshly-trained plan for a corpus into both tiers, with
    /// its APFG seeded by `apfg_seed`, and return the installed plan.
    pub fn install(
        &self,
        corpus: CorpusId,
        plan: &QueryPlan,
        apfg_seed: u64,
    ) -> io::Result<Arc<QueryPlan>> {
        // Round-trip through the catalog codec so the installed plan is
        // exactly what a catalog load would produce (same policy bytes,
        // same rebuilt APFG) — serving behaviour cannot depend on whether
        // the plan came from memory or disk.
        let encoded = encode_plan(plan, apfg_seed);
        let installed = Arc::new(
            decode_plan(&encoded).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
        );
        write_recover(&self.mem).insert(mem_key(corpus, &plan.query), Arc::clone(&installed));
        if let Some(catalog) = self.catalog(corpus, true)? {
            catalog.save(&plan.query, &encoded)?;
        }
        Ok(installed)
    }

    /// Install an already-materialized plan into the memory tier (no
    /// disk write). Used to share one trained policy across many query
    /// identities — e.g. the same class served at many accuracy targets —
    /// without retraining per identity.
    pub fn install_stored(&self, corpus: CorpusId, plan: QueryPlan) {
        write_recover(&self.mem).insert(mem_key(corpus, &plan.query), Arc::new(plan));
    }

    /// Resolve a `(corpus, query)` pair to its plan: memory first,
    /// then the corpus's catalog subdirectory (memoizing a disk hit).
    /// `None` means no usable plan — a plan trained for the same SQL on a
    /// *different* corpus is never returned, and a refused catalog file
    /// (see [`PlanStore::lookup`]) is a miss too.
    pub fn get(&self, corpus: CorpusId, query: &ActionQuery) -> Option<Arc<QueryPlan>> {
        self.lookup(corpus, query).ok().flatten()
    }

    /// [`PlanStore::get`], telling a query that was never planned on this
    /// corpus (`Ok(None)`) apart from one whose catalog entry cannot
    /// serve it ([`PlanRefused`]): the corpus directory cannot be opened,
    /// the plan file is corrupt or of an unsupported version, or it holds
    /// a plan for another exact target. A refused plan must not take
    /// serving down; callers count it and treat it as a miss.
    pub fn lookup(
        &self,
        corpus: CorpusId,
        query: &ActionQuery,
    ) -> Result<Option<Arc<QueryPlan>>, PlanRefused> {
        let key = mem_key(corpus, query);
        if let Some(plan) = read_recover(&self.mem).get(&key) {
            return Ok(Some(Arc::clone(plan)));
        }
        let Some(catalog) = self.catalog(corpus, false).map_err(|_| PlanRefused)? else {
            return Ok(None);
        };
        match catalog.load(query).map_err(|_| PlanRefused)? {
            // Catalog file names round the target, so a loaded plan may
            // have been trained for a *different* exact target; serve it
            // only when it matches the request precisely.
            Some(plan) if &plan.query == query => {
                let plan = Arc::new(plan);
                write_recover(&self.mem).insert(key, Arc::clone(&plan));
                Ok(Some(plan))
            }
            Some(_) => Err(PlanRefused),
            None => Ok(None),
        }
    }

    /// Number of plans resident in memory (across all corpora).
    pub fn resident(&self) -> usize {
        read_recover(&self.mem).len()
    }

    /// Every memory-resident plan for one corpus. This is the
    /// replication export: a fleet router pushes these entries into
    /// sibling shards' stores (via [`PlanStore::install_stored`]) when a
    /// corpus runs hot, so failover and resharding never retrain.
    pub fn plans_for(&self, corpus: CorpusId) -> Vec<Arc<QueryPlan>> {
        let mem = read_recover(&self.mem);
        let mut plans: Vec<_> = mem
            .iter()
            .filter(|((c, _, _), _)| *c == corpus)
            .map(|(_, plan)| Arc::clone(plan))
            .collect();
        plans.sort_by(|a, b| PlanCatalog::key(&a.query).cmp(&PlanCatalog::key(&b.query)));
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeus_core::planner::{PlannerOptions, QueryPlanner};
    use zeus_video::{ActionClass, DatasetKind, SyntheticDataset};

    fn tiny_plan_on(ds: &SyntheticDataset) -> (QueryPlan, u64) {
        let mut options = PlannerOptions::default();
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        let seed = options.seed;
        let planner = QueryPlanner::new(ds, options);
        let plan = planner.plan(&ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap());
        (plan, seed)
    }

    fn tiny_plan() -> (QueryPlan, u64, CorpusId) {
        let ds = DatasetKind::Bdd100k.generate(0.08, 3);
        let (plan, seed) = tiny_plan_on(&ds);
        (plan, seed, CorpusId::of(&ds))
    }

    #[test]
    fn install_then_get_resolves_in_memory() {
        let (plan, seed, corpus) = tiny_plan();
        let store = PlanStore::in_memory();
        assert!(store.get(corpus, &plan.query).is_none());
        store.install(corpus, &plan, seed).unwrap();
        let stored = store.get(corpus, &plan.query).expect("installed");
        assert_eq!(stored.query, plan.query);
        assert_eq!(store.resident(), 1);
    }

    #[test]
    fn catalog_tier_survives_a_new_store() {
        let (plan, seed, corpus) = tiny_plan();
        let dir = std::env::temp_dir().join(format!("zeus-serve-plans-{}", std::process::id()));
        {
            let store = PlanStore::with_catalog(&dir).unwrap();
            store.install(corpus, &plan, seed).unwrap();
        }
        // A fresh store (fresh process, conceptually) resolves from disk —
        // the query is *not* re-planned.
        let store = PlanStore::with_catalog(&dir).unwrap();
        assert_eq!(store.resident(), 0);
        let stored = store.get(corpus, &plan.query).expect("catalog hit");
        assert_eq!(stored.query, plan.query);
        assert_eq!(store.resident(), 1, "disk hit must be memoized");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plans_are_isolated_per_corpus_fingerprint() {
        // Two corpora with the *same* SQL identity (same class, same
        // target): only the fingerprint separates their plans.
        let a = DatasetKind::Bdd100k.generate(0.08, 3);
        let b = DatasetKind::Bdd100k.generate(0.08, 4);
        let (corpus_a, corpus_b) = (CorpusId::of(&a), CorpusId::of(&b));
        assert_ne!(corpus_a, corpus_b);
        let (plan_a, seed) = tiny_plan_on(&a);

        let dir =
            std::env::temp_dir().join(format!("zeus-serve-plan-isolation-{}", std::process::id()));
        let store = PlanStore::with_catalog(&dir).unwrap();
        store.install(corpus_a, &plan_a, seed).unwrap();

        // Corpus B must not see corpus A's plan — in memory or on disk.
        assert!(store.get(corpus_b, &plan_a.query).is_none());
        assert!(store.get(corpus_a, &plan_a.query).is_some());
        let fresh = PlanStore::with_catalog(&dir).unwrap();
        assert!(fresh.get(corpus_b, &plan_a.query).is_none());
        assert!(fresh.get(corpus_a, &plan_a.query).is_some());

        // Installing B's own plan for the identical SQL does not clobber
        // A's.
        let (plan_b, seed_b) = tiny_plan_on(&b);
        store.install(corpus_b, &plan_b, seed_b).unwrap();
        assert_eq!(store.resident(), 2, "one resident plan per corpus");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
