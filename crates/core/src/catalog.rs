//! The plan catalog: persistent trained query plans.
//!
//! Planning a query is a one-time cost (Table 6: APFG fine-tuning + RL
//! training); a production VDBMS amortises it by storing the trained plan
//! and reusing it for every execution of the same query. The catalog
//! persists a whole [`QueryPlan`] in a small versioned binary format
//! (`.zpln` files): the query, the action space's configurations in
//! order with the space's knob lists, the profiles, the static and
//! initial configurations, the trained policy weights, the training
//! report, the simulated costs, the APFG's seed and model-reuse flag, and
//! the evaluation window. A decoded plan equals the encoded one in every
//! field, floats by their bits; the APFG is rebuilt from its seed, its
//! flag and the space's knob maxima, as the planner builds it. A file of
//! another version is refused; the plan store treats it as a miss, so the
//! query is re-planned and the file rewritten.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use zeus_apfg::{Configuration, SimulatedApfg};
use zeus_rl::agent::GreedyPolicy;
use zeus_rl::TrainingReport;
use zeus_video::ActionClass;

use crate::config::ConfigSpace;
use crate::metrics::EvalProtocol;
use crate::planner::{ConfigProfile, QueryPlan, TrainingCosts};
use crate::query::ActionQuery;

const MAGIC: &[u8; 4] = b"ZPLN";
const VERSION: u32 = 3;

/// Encoded size of a configuration: three `u32` knobs.
const CONFIG_BYTES: usize = 12;
/// Encoded size of a profile: its configuration and three `f64`s.
const PROFILE_BYTES: usize = CONFIG_BYTES + 24;

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
    fn knob_values(&mut self, values: &[usize]) {
        self.u32(values.len() as u32);
        for &v in values {
            self.u32(v as u32);
        }
    }
    fn f32s(&mut self, values: &[f32]) {
        self.u32(values.len() as u32);
        for v in values {
            self.u32(v.to_bits());
        }
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
        if n > self.buf.len() - self.pos {
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
    /// A count of `item_bytes`-sized items, bounded by the bytes actually
    /// present before anything is allocated for it: a corrupt (or
    /// crafted) count is a typed error, never a huge allocation.
    fn count(&mut self, item_bytes: usize, what: &str) -> Result<usize, CatalogError> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / item_bytes {
            return Err(CatalogError::Corrupt(format!(
                "implausible {what} count {n}"
            )));
        }
        Ok(n)
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
    fn knob_values(&mut self) -> Result<Vec<usize>, CatalogError> {
        let n = self.count(4, "knob value")?;
        let values = (0..n)
            .map(|_| self.u32().map(|v| v as usize))
            .collect::<Result<Vec<_>, _>>()?;
        if values.is_empty() || values.contains(&0) {
            return Err(CatalogError::Corrupt("empty or zero knob list".into()));
        }
        Ok(values)
    }
    fn f32s(&mut self) -> Result<Vec<f32>, CatalogError> {
        let n = self.count(4, "episode")?;
        (0..n).map(|_| self.u32().map(f32::from_bits)).collect()
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

/// Encode a whole plan. The APFG is stored as `apfg_seed` and its
/// model-reuse flag.
pub fn encode_plan(plan: &QueryPlan, apfg_seed: u64) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(4096));
    w.0.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u32(plan.query.classes.len() as u32);
    for &c in &plan.query.classes {
        w.0.push(class_id(c));
    }
    w.f64(plan.query.target_accuracy);
    w.u32(plan.space.len() as u32);
    for &c in plan.space.configs() {
        w.config(c);
    }
    for values in plan.space.knobs() {
        w.knob_values(values);
    }
    w.u32(plan.profiles.len() as u32);
    for p in &plan.profiles {
        w.config(p.config);
        w.f64(p.throughput_fps);
        w.f64(p.f1);
        w.f64(p.f1_lcb);
    }
    w.config(plan.sliding_config);
    w.f64(plan.max_accuracy);
    w.bytes(&plan.policy.to_bytes());
    let report = &plan.training_report;
    w.f32s(&report.episode_rewards);
    w.f32s(&report.episode_losses);
    w.u64(report.steps);
    w.u64(report.updates);
    w.f64(plan.costs.apfg_training_secs);
    w.f64(plan.costs.frame_pp_training_secs);
    w.f64(plan.costs.rl_training_secs);
    w.u64(apfg_seed);
    w.0.push(plan.apfg.model_reuse() as u8);
    w.config(plan.init_config);
    w.u32(plan.protocol.window as u32);
    w.0
}

/// Decode a stored plan.
pub fn decode_plan(bytes: &[u8]) -> Result<QueryPlan, CatalogError> {
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
    let classes = (0..n_classes)
        .map(|_| class_from_id(r.take(1)?[0]))
        .collect::<Result<Vec<_>, _>>()?;
    let target = r.f64()?;
    if !(target > 0.0 && target < 1.0) {
        return Err(CatalogError::Corrupt(format!("invalid target {target}")));
    }
    let query = ActionQuery::multi(classes, target)
        .map_err(|e| CatalogError::Corrupt(format!("query: {e}")))?;

    let n_configs = r.count(CONFIG_BYTES, "configuration")?;
    if n_configs == 0 {
        return Err(CatalogError::Corrupt("empty action space".into()));
    }
    let configs = (0..n_configs)
        .map(|_| r.config())
        .collect::<Result<Vec<_>, _>>()?;
    let knobs = [r.knob_values()?, r.knob_values()?, r.knob_values()?];
    let space = ConfigSpace::from_parts(configs, knobs);

    let n_profiles = r.count(PROFILE_BYTES, "profile")?;
    let profiles = (0..n_profiles)
        .map(|_| {
            Ok(ConfigProfile {
                config: r.config()?,
                throughput_fps: r.f64()?,
                f1: r.f64()?,
                f1_lcb: r.f64()?,
            })
        })
        .collect::<Result<Vec<_>, CatalogError>>()?;
    // Zeus-Heuristic draws its subset from the profiles of the actions.
    if let Some(c) = space
        .configs()
        .iter()
        .find(|&&c| !profiles.iter().any(|p| p.config == c))
    {
        return Err(CatalogError::Corrupt(format!("action {c} has no profile")));
    }
    let sliding_config = r.config()?;
    let max_accuracy = r.f64()?;

    let policy_len = r.u32()? as usize;
    let policy = GreedyPolicy::from_bytes(r.take(policy_len)?)
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
    let training_report = TrainingReport {
        episode_rewards: r.f32s()?,
        episode_losses: r.f32s()?,
        steps: r.u64()?,
        updates: r.u64()?,
    };
    let costs = TrainingCosts {
        apfg_training_secs: r.f64()?,
        frame_pp_training_secs: r.f64()?,
        rl_training_secs: r.f64()?,
    };

    let apfg_seed = r.u64()?;
    let model_reuse = match r.take(1)?[0] {
        0 => false,
        1 => true,
        b => return Err(CatalogError::Corrupt(format!("invalid flag {b}"))),
    };
    let apfg = SimulatedApfg::new(
        query.classes.clone(),
        space.max_resolution(),
        space.max_seg_len(),
        space.max_sampling(),
        apfg_seed,
    )
    .with_model_reuse(model_reuse);
    let init_config = r.config()?;
    let window = r.u32()? as usize;
    if window == 0 {
        return Err(CatalogError::Corrupt("zero eval window".into()));
    }
    if r.pos != bytes.len() {
        return Err(CatalogError::Corrupt("trailing bytes".into()));
    }

    Ok(QueryPlan {
        query,
        space,
        profiles,
        sliding_config,
        max_accuracy,
        policy,
        training_report,
        costs,
        apfg,
        init_config,
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

    /// Persist a plan's [`encode_plan`] bytes; returns the file path.
    pub fn save(&self, query: &ActionQuery, encoded: &[u8]) -> io::Result<PathBuf> {
        let path = self.dir.join(Self::key(query));
        fs::write(&path, encoded)?;
        Ok(path)
    }

    /// Load the stored plan for a query, if present.
    pub fn load(&self, query: &ActionQuery) -> Result<Option<QueryPlan>, CatalogError> {
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

    /// Every field of `a` equals `b`'s, floats by their bits.
    fn assert_same_plan(a: &QueryPlan, b: &QueryPlan) {
        assert_eq!(a.query, b.query);
        assert_eq!(a.space.configs(), b.space.configs());
        assert_eq!(a.space.knobs(), b.space.knobs());
        assert_eq!(a.profiles.len(), b.profiles.len());
        for (p, q) in a.profiles.iter().zip(&b.profiles) {
            assert_eq!(p.config, q.config);
            assert_eq!(p.throughput_fps.to_bits(), q.throughput_fps.to_bits());
            assert_eq!(p.f1.to_bits(), q.f1.to_bits());
            assert_eq!(p.f1_lcb.to_bits(), q.f1_lcb.to_bits());
        }
        assert_eq!(a.sliding_config, b.sliding_config);
        assert_eq!(a.max_accuracy.to_bits(), b.max_accuracy.to_bits());
        assert_eq!(a.policy.to_bytes(), b.policy.to_bytes());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (r, t) = (&a.training_report, &b.training_report);
        assert_eq!(bits(&r.episode_rewards), bits(&t.episode_rewards));
        assert_eq!(bits(&r.episode_losses), bits(&t.episode_losses));
        assert_eq!((r.steps, r.updates), (t.steps, t.updates));
        let cost_bits = |c: &TrainingCosts| {
            [
                c.apfg_training_secs,
                c.frame_pp_training_secs,
                c.rl_training_secs,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(cost_bits(&a.costs), cost_bits(&b.costs));
        assert_eq!(a.apfg.model_reuse(), b.apfg.model_reuse());
        // Seed, knob maxima, traits, shift and skew: `Debug` prints
        // every float so that it parses back to the same bits.
        assert_eq!(format!("{:?}", a.apfg), format!("{:?}", b.apfg));
        assert_eq!(a.init_config, b.init_config);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn every_field_survives_a_roundtrip() {
        let (plan, seed) = tiny_plan();
        assert!(!plan.training_report.episode_rewards.is_empty());
        assert_same_plan(&plan, &decode_plan(&encode_plan(&plan, seed)).unwrap());

        // A knob-masked ensemble plan: its action space keeps the masked
        // space's knob lists, and its APFG runs without model reuse.
        let (plan, seed) = tiny_plan_with(PlannerOptions {
            knob_mask: crate::config::KnobMask {
                fix_seg_len: Some(4),
                ..Default::default()
            },
            per_config_ensemble: true,
            ..PlannerOptions::default()
        });
        assert!(!plan.apfg.model_reuse());
        assert!(plan.space.configs().iter().all(|c| c.seg_len == 4));
        assert_same_plan(&plan, &decode_plan(&encode_plan(&plan, seed)).unwrap());
    }

    #[test]
    fn crafted_counts_are_rejected_without_allocating() {
        let (plan, seed) = tiny_plan();
        let bytes = encode_plan(&plan, seed);
        let profiles_at = 4
            + 4
            + 4
            + plan.query.classes.len()
            + 8
            + 4
            + CONFIG_BYTES * plan.space.len()
            + plan
                .space
                .knobs()
                .iter()
                .map(|k| 4 + 4 * k.len())
                .sum::<usize>();
        let episodes_at = profiles_at
            + 4
            + PROFILE_BYTES * plan.profiles.len()
            + CONFIG_BYTES
            + 8
            + 4
            + plan.policy.to_bytes().len();
        for (at, what) in [(profiles_at, "profile"), (episodes_at, "episode")] {
            let mut crafted = bytes.clone();
            crafted[at..at + 4].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
            match decode_plan(&crafted) {
                Err(CatalogError::Corrupt(m)) => {
                    assert_eq!(m, format!("implausible {what} count {}", u32::MAX - 1))
                }
                other => panic!("{what} count: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_action_without_a_profile_is_refused() {
        let (mut plan, seed) = tiny_plan();
        let action = plan.space.configs()[0];
        plan.profiles.retain(|p| p.config != action);
        assert!(matches!(
            decode_plan(&encode_plan(&plan, seed)),
            Err(CatalogError::Corrupt(_))
        ));
    }

    #[test]
    fn restored_engines_match_the_original_plan() {
        use crate::baselines::QueryEngine;
        let ds = DatasetKind::Bdd100k.generate(0.08, 3);
        let (plan, seed) = tiny_plan();
        let stored = decode_plan(&encode_plan(&plan, seed)).unwrap();
        let cost = zeus_sim::CostModel;

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
        let path = catalog
            .save(&plan.query, &encode_plan(&plan, seed))
            .unwrap();
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
