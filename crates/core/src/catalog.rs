//! The plan catalog: persistent trained query plans.
//!
//! Planning a query is a one-time cost (Table 6: APFG fine-tuning + RL
//! training); a production VDBMS amortises it by storing the trained plan
//! and reusing it for every execution of the same query. The catalog
//! persists the parts of a [`crate::planner::QueryPlan`] needed to rebuild
//! the executors — the trained policy weights, the selected static
//! configuration, the Pareto action space, and the APFG seed and
//! model-reuse flag — in a small versioned binary format (`.zpln` files).
//! A file of another version is refused; the plan store treats it as a
//! miss, so the query is re-planned and the file rewritten.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use zeus_apfg::Configuration;
use zeus_rl::agent::GreedyPolicy;
use zeus_video::ActionClass;

use zeus_apfg::SimulatedApfg;
use zeus_sim::CostModel;

use crate::baselines::{ZeusRl, ZeusSliding};
use crate::config::ConfigSpace;
use crate::metrics::EvalProtocol;
use crate::planner::QueryPlan;
use crate::query::ActionQuery;

const MAGIC: &[u8; 4] = b"ZPLN";
const VERSION: u32 = 2;

/// The persisted portion of a query plan.
#[derive(Debug, Clone)]
pub struct StoredPlan {
    /// The planned query.
    pub query: ActionQuery,
    /// The trained greedy policy.
    pub policy: GreedyPolicy,
    /// Zeus-Sliding's static configuration.
    pub sliding_config: Configuration,
    /// The initial (most accurate) configuration.
    pub init_config: Configuration,
    /// The Pareto-frontier action space (configuration triples, in action
    /// order).
    pub space_configs: Vec<Configuration>,
    /// Knob maxima used to normalise APFG features.
    pub knob_maxima: (usize, usize, usize),
    /// APFG seed (the behavioural model is deterministic given it).
    pub apfg_seed: u64,
    /// Whether the APFG uses §5's model reuse (false for a plan trained
    /// with a per-configuration ensemble).
    pub model_reuse: bool,
    /// Evaluation window.
    pub protocol: EvalProtocol,
}

impl StoredPlan {
    /// Reconstruct the action space in trained order.
    pub fn space(&self) -> ConfigSpace {
        ConfigSpace::from_configs(self.space_configs.clone())
    }

    /// Rebuild the query's APFG (deterministic given the stored seed).
    pub fn apfg(&self) -> SimulatedApfg {
        let (r, l, s) = self.knob_maxima;
        SimulatedApfg::new(self.query.classes.clone(), r, l, s, self.apfg_seed)
            .with_model_reuse(self.model_reuse)
    }

    /// Rebuild the Zeus-RL executor from the stored plan.
    pub fn zeus_rl_engine(&self, cost: CostModel) -> ZeusRl {
        ZeusRl::new(
            self.apfg(),
            self.policy.clone(),
            self.space(),
            self.init_config,
            cost,
        )
    }

    /// Rebuild the Zeus-Sliding executor from the stored plan.
    pub fn sliding_engine(&self, cost: CostModel) -> ZeusSliding {
        ZeusSliding::new(self.apfg(), self.sliding_config, cost)
    }
}

/// Errors from catalog decode.
#[derive(Debug)]
pub enum CatalogError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a plan file / corrupt content.
    Corrupt(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog I/O error: {e}"),
            CatalogError::Corrupt(s) => write!(f, "corrupt plan file: {s}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<io::Error> for CatalogError {
    fn from(e: io::Error) -> Self {
        CatalogError::Io(e)
    }
}

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn config(&mut self, c: Configuration) {
        self.u32(c.resolution as u32);
        self.u32(c.seg_len as u32);
        self.u32(c.sampling_rate as u32);
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.0.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CatalogError> {
        if self.pos + n > self.buf.len() {
            return Err(CatalogError::Corrupt("unexpected end of file".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, CatalogError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CatalogError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, CatalogError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn config(&mut self) -> Result<Configuration, CatalogError> {
        let r = self.u32()? as usize;
        let l = self.u32()? as usize;
        let s = self.u32()? as usize;
        if r == 0 || l == 0 || s == 0 {
            return Err(CatalogError::Corrupt("zero knob in configuration".into()));
        }
        Ok(Configuration::new(r, l, s))
    }
}

fn class_id(c: ActionClass) -> u8 {
    ActionClass::ALL
        .iter()
        .position(|&x| x == c)
        .expect("class in ALL") as u8
}

fn class_from_id(id: u8) -> Result<ActionClass, CatalogError> {
    ActionClass::ALL
        .get(id as usize)
        .copied()
        .ok_or_else(|| CatalogError::Corrupt(format!("unknown class id {id}")))
}

/// Encode a plan's persistent parts.
pub fn encode_plan(plan: &QueryPlan, apfg_seed: u64) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(4096));
    w.0.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u32(plan.query.classes.len() as u32);
    for &c in &plan.query.classes {
        w.0.push(class_id(c));
    }
    w.f64(plan.query.target_accuracy);
    w.config(plan.sliding_config);
    w.config(plan.init_config);
    w.u32(plan.space.len() as u32);
    for &c in plan.space.configs() {
        w.config(c);
    }
    w.u32(plan.space.max_resolution() as u32);
    w.u32(plan.space.max_seg_len() as u32);
    w.u32(plan.space.max_sampling() as u32);
    w.u64(apfg_seed);
    w.0.push(plan.apfg.model_reuse() as u8);
    w.u32(plan.protocol.window as u32);
    w.bytes(&plan.policy.to_bytes());
    w.0
}

/// Decode a stored plan.
pub fn decode_plan(bytes: &[u8]) -> Result<StoredPlan, CatalogError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(CatalogError::Corrupt("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CatalogError::Corrupt(format!(
            "unsupported version {version}"
        )));
    }
    let n_classes = r.u32()? as usize;
    if n_classes == 0 || n_classes > ActionClass::ALL.len() {
        return Err(CatalogError::Corrupt("invalid class count".into()));
    }
    let mut classes = Vec::with_capacity(n_classes);
    for _ in 0..n_classes {
        classes.push(class_from_id(r.take(1)?[0])?);
    }
    let target = r.f64()?;
    if !(target > 0.0 && target < 1.0) {
        return Err(CatalogError::Corrupt(format!("invalid target {target}")));
    }
    let sliding_config = r.config()?;
    let init_config = r.config()?;
    let n_configs = r.u32()? as usize;
    if n_configs == 0 || n_configs > 4096 {
        return Err(CatalogError::Corrupt("invalid config count".into()));
    }
    let mut space_configs = Vec::with_capacity(n_configs);
    for _ in 0..n_configs {
        space_configs.push(r.config()?);
    }
    let max_res = r.u32()? as usize;
    let max_len = r.u32()? as usize;
    let max_samp = r.u32()? as usize;
    let apfg_seed = r.u64()?;
    let model_reuse = match r.take(1)?[0] {
        0 => false,
        1 => true,
        b => return Err(CatalogError::Corrupt(format!("invalid flag {b}"))),
    };
    let window = r.u32()? as usize;
    if window == 0 {
        return Err(CatalogError::Corrupt("zero eval window".into()));
    }
    let policy_len = r.u32()? as usize;
    let policy_bytes = r.take(policy_len)?;
    let policy = GreedyPolicy::from_bytes(policy_bytes)
        .map_err(|e| CatalogError::Corrupt(format!("policy: {e}")))?;
    // The restored executor feeds the policy APFG features and indexes the
    // stored space with its action, so both widths must match.
    if policy.state_dim() != zeus_apfg::FEATURE_DIM || policy.num_actions() != n_configs {
        return Err(CatalogError::Corrupt(format!(
            "policy maps {} inputs to {} actions; expected {} features and {n_configs} configurations",
            policy.state_dim(),
            policy.num_actions(),
            zeus_apfg::FEATURE_DIM
        )));
    }

    Ok(StoredPlan {
        query: ActionQuery::multi(classes, target)
            .map_err(|e| CatalogError::Corrupt(format!("query: {e}")))?,
        policy,
        sliding_config,
        init_config,
        space_configs,
        knob_maxima: (max_res, max_len, max_samp),
        apfg_seed,
        model_reuse,
        protocol: EvalProtocol::new(window),
    })
}

/// A directory of persisted plans.
#[derive(Debug, Clone)]
pub struct PlanCatalog {
    dir: PathBuf,
}

impl PlanCatalog {
    /// Open (creating if needed) a catalog directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<PlanCatalog> {
        fs::create_dir_all(&dir)?;
        Ok(PlanCatalog {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// Stable file name for a query.
    pub fn key(query: &ActionQuery) -> String {
        let classes: Vec<&str> = query.classes.iter().map(|c| c.query_name()).collect();
        format!(
            "{}-{:03}.zpln",
            classes.join("+"),
            (query.target_accuracy * 100.0).round() as u32
        )
    }

    /// Persist a plan; returns the file path.
    pub fn save(&self, plan: &QueryPlan, apfg_seed: u64) -> io::Result<PathBuf> {
        let path = self.dir.join(Self::key(&plan.query));
        fs::write(&path, encode_plan(plan, apfg_seed))?;
        Ok(path)
    }

    /// Load the stored plan for a query, if present.
    pub fn load(&self, query: &ActionQuery) -> Result<Option<StoredPlan>, CatalogError> {
        let path = self.dir.join(Self::key(query));
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(decode_plan(&bytes)?)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(CatalogError::Io(e)),
        }
    }

    /// List stored plan files.
    pub fn list(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "zpln") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{PlannerOptions, QueryPlanner};
    use zeus_video::DatasetKind;

    fn tiny_plan() -> (QueryPlan, u64) {
        tiny_plan_with(PlannerOptions::default())
    }

    fn tiny_plan_with(mut options: PlannerOptions) -> (QueryPlan, u64) {
        let ds = DatasetKind::Bdd100k.generate(0.08, 3);
        options.trainer.episodes = 2;
        options.trainer.warmup = 64;
        options.candidates.truncate(1);
        let seed = options.seed;
        let planner = QueryPlanner::new(&ds, options);
        let plan = planner.plan(&ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap());
        (plan, seed)
    }

    #[test]
    fn plan_roundtrips_through_bytes() {
        let (plan, seed) = tiny_plan();
        let bytes = encode_plan(&plan, seed);
        let stored = decode_plan(&bytes).unwrap();
        assert_eq!(stored.query, plan.query);
        assert_eq!(stored.sliding_config, plan.sliding_config);
        assert_eq!(stored.init_config, plan.init_config);
        assert_eq!(stored.space_configs, plan.space.configs());
        assert_eq!(stored.apfg_seed, seed);
        assert_eq!(stored.protocol, plan.protocol);
        // The restored policy acts identically.
        let s = vec![0.25f32; zeus_apfg::FEATURE_DIM];
        let mut scratch = zeus_rl::agent::RowScratch::default();
        assert_eq!(
            stored.policy.act(&s, &mut scratch),
            plan.policy.act(&s, &mut scratch)
        );
    }

    #[test]
    fn an_ensemble_plan_keeps_its_apfg_after_a_roundtrip() {
        let (plan, seed) = tiny_plan_with(PlannerOptions {
            per_config_ensemble: true,
            ..PlannerOptions::default()
        });
        assert!(!plan.apfg.model_reuse());
        let stored = decode_plan(&encode_plan(&plan, seed)).unwrap();
        assert!(!stored.apfg().model_reuse());
    }

    #[test]
    fn restored_engines_match_the_original_plan() {
        use crate::baselines::QueryEngine;
        let ds = DatasetKind::Bdd100k.generate(0.08, 3);
        let (plan, seed) = tiny_plan();
        let stored = decode_plan(&encode_plan(&plan, seed)).unwrap();
        let cost = CostModel;

        let planner = QueryPlanner::new(&ds, PlannerOptions::default());
        let original = planner.build_engine(&plan, crate::baselines::ExecutorKind::ZeusRl);
        let restored = stored.zeus_rl_engine(cost);

        let video = &ds.store.videos()[0];
        let mut c1 = zeus_sim::SimClock::new();
        let mut h1 = crate::result::ConfigHistogram::new();
        let a = original.execute_video(video, &mut c1, &mut h1);
        let mut c2 = zeus_sim::SimClock::new();
        let mut h2 = crate::result::ConfigHistogram::new();
        let b = restored.execute_video(video, &mut c2, &mut h2);
        assert_eq!(a, b, "restored plan must execute identically");
        assert_eq!(c1.elapsed_secs().to_bits(), c2.elapsed_secs().to_bits());
    }

    #[test]
    fn decode_rejects_corruption() {
        let (plan, seed) = tiny_plan();
        let bytes = encode_plan(&plan, seed);
        assert!(decode_plan(&bytes[..10]).is_err(), "truncation");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(decode_plan(&bad_magic).is_err(), "magic");
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(decode_plan(&bad_version).is_err(), "version");
    }

    /// `plan` re-encoded around an untrained policy of the given shape.
    fn with_policy_shape(mut plan: QueryPlan, seed: u64, inputs: usize, actions: usize) -> Vec<u8> {
        use zeus_rl::agent::{DqnAgent, DqnConfig};
        plan.policy = DqnAgent::new(inputs, actions, DqnConfig::default(), 1).policy();
        encode_plan(&plan, seed)
    }

    #[test]
    fn decode_rejects_a_policy_with_more_actions_than_configurations() {
        let (plan, seed) = tiny_plan();
        let actions = plan.space.len() + 1;
        let bytes = with_policy_shape(plan, seed, zeus_apfg::FEATURE_DIM, actions);
        assert!(matches!(decode_plan(&bytes), Err(CatalogError::Corrupt(_))));
    }

    #[test]
    fn decode_rejects_a_policy_of_the_wrong_input_width() {
        let (plan, seed) = tiny_plan();
        let actions = plan.space.len();
        let bytes = with_policy_shape(plan, seed, zeus_apfg::FEATURE_DIM + 1, actions);
        assert!(matches!(decode_plan(&bytes), Err(CatalogError::Corrupt(_))));
    }

    #[test]
    fn catalog_save_load_list() {
        let (plan, seed) = tiny_plan();
        let dir = std::env::temp_dir().join(format!("zeus-catalog-test-{}", std::process::id()));
        let catalog = PlanCatalog::open(&dir).unwrap();
        let path = catalog.save(&plan, seed).unwrap();
        assert!(path.exists());
        let stored = catalog.load(&plan.query).unwrap().expect("plan present");
        assert_eq!(stored.query, plan.query);
        assert_eq!(catalog.list().unwrap().len(), 1);
        // Missing query → None.
        let other = ActionQuery::new(ActionClass::PoleVault, 0.75).unwrap();
        assert!(catalog.load(&other).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_is_stable_and_filesystem_safe() {
        let q = ActionQuery::multi(vec![ActionClass::CrossRight, ActionClass::CrossLeft], 0.85)
            .unwrap();
        let k = PlanCatalog::key(&q);
        assert_eq!(k, "cross-right+cross-left-085.zpln");
    }
}
