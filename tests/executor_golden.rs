//! Golden pins for the APFG and the five executors: FNV-1a hashes of
//! their outputs over fixed inputs. A change meant to leave every output
//! where it was (a faster kernel, a cheaper executor step) must keep these
//! hashes; a change that moves an output on purpose re-records them and
//! says why.

use zeus::apfg::{Configuration, FeatureGenerator, SimulatedApfg};
use zeus::core::config::ConfigSpace;
use zeus::core::planner::{PlannerOptions, QueryPlan, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::core::ExecutorKind;
use zeus::sim::CostModel;
use zeus::video::video::Split;
use zeus::video::{DatasetKind, SyntheticDataset, Video};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn config(&mut self, c: Configuration) {
        for knob in [c.resolution, c.seg_len, c.sampling_rate] {
            self.u64(knob as u64);
        }
    }
}

/// Starts at which the grid invokes the APFG on `video`: the ends and
/// thirds of the video, and just before, at and just inside each action
/// interval's start and end, so that spans with and without evidence and
/// spans straddling a boundary all occur.
fn starts(video: &Video) -> Vec<usize> {
    let n = video.num_frames;
    let mut s = vec![0, n / 3, 2 * n / 3, n - 1];
    for iv in &video.intervals {
        s.extend([iv.start.saturating_sub(7), iv.start, iv.start + 1]);
        s.extend([iv.end.saturating_sub(2), iv.end]);
    }
    s.retain(|&start| start < n);
    s
}

/// Hash of `SimulatedApfg::process` outputs (feature bits, prediction,
/// confidence bits) on one corpus: the first three videos of each split,
/// every configuration of the corpus's family, the starts above, for a
/// one-class and a two-class query, each plain, with feature skew and
/// with domain shift.
fn apfg_grid_hash(kind: DatasetKind) -> u64 {
    let dataset = kind.generate(0.05, 2022);
    let space = ConfigSpace::for_family(kind.family());
    let [first, second] = kind.query_classes();
    let apfg = |classes: Vec<_>| {
        SimulatedApfg::new(
            classes,
            space.max_resolution(),
            space.max_seg_len(),
            space.max_sampling(),
            0x5EED,
        )
    };
    let models = [
        apfg(vec![first]),
        apfg(vec![first, second]),
        apfg(vec![second]).with_feature_skew(0.3),
        apfg(vec![first, second]).with_domain_shift(0.07),
    ];
    let mut h = Fnv::new();
    for split in [Split::Train, Split::Validation, Split::Test] {
        for video in dataset.store.split(split).into_iter().take(3) {
            for start in starts(video) {
                for &config in space.configs() {
                    for model in &models {
                        let out = model.process(video, start, config);
                        for f in &out.feature {
                            h.u64(u64::from(f.to_bits()));
                        }
                        h.u64(u64::from(out.prediction));
                        h.u64(u64::from(out.confidence.to_bits()));
                    }
                }
            }
        }
    }
    h.0
}

#[test]
fn apfg_outputs_match_golden_hashes() {
    let pinned = [
        (DatasetKind::Bdd100k, 0x17b4_0721_5787_b8de_u64),
        (DatasetKind::Thumos14, 0x4047_f59f_ad30_9547),
        (DatasetKind::ActivityNet, 0x2371_b78f_1d12_217b),
        (DatasetKind::Cityscapes, 0x75d8_ecd3_6451_78ff),
        (DatasetKind::Kitti, 0x1752_fcf8_0202_2a2e),
    ];
    let got = DatasetKind::ALL.map(|kind| (kind, apfg_grid_hash(kind)));
    assert_eq!(got, pinned, "APFG outputs moved");
}

/// The planned bdd100k query that the executor and cost pins share.
fn planned(dataset: &SyntheticDataset) -> (QueryPlanner<'_>, QueryPlan) {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 3;
    options.trainer.warmup = 128;
    options.candidates.truncate(1);
    let query = ActionQuery::new(dataset.query_classes()[0], 0.85).unwrap();
    let planner = QueryPlanner::new(dataset, options);
    let plan = planner.plan(&query);
    (planner, plan)
}

#[test]
fn executor_outputs_match_golden_hashes() {
    let dataset = DatasetKind::Bdd100k.generate(0.05, 2022);
    let (planner, plan) = planned(&dataset);
    let test = dataset.store.split(Split::Test);

    let pinned = [
        (ExecutorKind::FramePp, 0xdf15_3b06_c5a0_40d7_u64),
        (ExecutorKind::SegmentPp, 0x42bd_1bb7_617e_ea12),
        (ExecutorKind::ZeusSliding, 0x5dea_3e55_6891_ae46),
        (ExecutorKind::ZeusHeuristic, 0xfe6a_8e43_d369_aeb4),
        (ExecutorKind::ZeusRl, 0x0eba_9679_e871_20b1),
    ];
    let got = ExecutorKind::ALL.map(|kind| {
        let exec = planner.build_engine(&plan, kind).execute(&test);
        let mut h = Fnv::new();
        for (id, labels) in &exec.labels {
            h.u64(u64::from(id.0));
            h.bytes(&labels.iter().map(|&l| u8::from(l)).collect::<Vec<_>>());
        }
        h.u64(exec.clock.elapsed().as_secs().to_bits());
        for (config, frames) in exec.histogram.entries() {
            h.config(config);
            h.u64(frames);
        }
        (kind, h.0)
    });
    assert_eq!(got, pinned, "executor outputs moved");
}

/// The cost model's outputs beyond the executors' clocks: the simulated
/// training seconds (APFG and Frame-PP passes, DQN updates and policy
/// heads) and the fastness alphas the training environment rewards.
#[test]
fn cost_model_outputs_match_golden_bits() {
    let dataset = DatasetKind::Bdd100k.generate(0.05, 2022);
    let (_, plan) = planned(&dataset);
    let costs = [
        plan.costs.apfg_training_secs,
        plan.costs.frame_pp_training_secs,
        plan.costs.rl_training_secs,
    ]
    .map(f64::to_bits);
    let alphas: Vec<u32> = plan
        .space
        .alphas(&CostModel)
        .iter()
        .map(|a| a.to_bits())
        .collect();
    let pinned_costs = [
        0x406e_bdf6_7f4d_bdf8_u64,
        0x4059_7354_b37c_3eae,
        0x3fe3_70a3_d70a_3d71,
    ];
    assert_eq!(costs, pinned_costs, "training costs moved");
    assert_eq!(alphas, [0x3f0f_bd92, 0x3ee0_84dc], "fastness alphas moved");
}
