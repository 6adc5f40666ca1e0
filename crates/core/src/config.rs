//! Configuration spaces (Table 4) and fastness normalisation (§4.4).

use zeus_apfg::Configuration;
use zeus_sim::CostModel;
use zeus_video::{ConfigFamily, DatasetKind};

/// Knob-disabling mask for the §6.4 ablation ("we disable each knob (fix
/// the value) one at a time"). A fixed knob keeps only configurations
/// with that value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnobMask {
    /// Pin the resolution knob to this value.
    pub fix_resolution: Option<usize>,
    /// Pin the segment-length knob to this value.
    pub fix_seg_len: Option<usize>,
    /// Pin the sampling-rate knob to this value.
    pub fix_sampling: Option<usize>,
}

impl KnobMask {
    /// No knobs fixed.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether a configuration survives the mask.
    pub fn admits(&self, c: &Configuration) -> bool {
        self.fix_resolution.is_none_or(|r| c.resolution == r)
            && self.fix_seg_len.is_none_or(|l| c.seg_len == l)
            && self.fix_sampling.is_none_or(|s| c.sampling_rate == s)
    }
}

/// The set of candidate configurations for a dataset, with knob maxima and
/// normalised fastness values.
#[derive(Debug, Clone)]
pub struct ConfigSpace {
    configs: Vec<Configuration>,
    resolutions: Vec<usize>,
    seg_lens: Vec<usize>,
    sampling_rates: Vec<usize>,
}

impl ConfigSpace {
    /// Build a space from knob values (cross product).
    pub fn from_knobs(resolutions: &[usize], seg_lens: &[usize], sampling_rates: &[usize]) -> Self {
        assert!(
            !resolutions.is_empty() && !seg_lens.is_empty() && !sampling_rates.is_empty(),
            "knob lists must be non-empty"
        );
        let mut configs =
            Vec::with_capacity(resolutions.len() * seg_lens.len() * sampling_rates.len());
        for &r in resolutions {
            for &l in seg_lens {
                for &s in sampling_rates {
                    configs.push(Configuration::new(r, l, s));
                }
            }
        }
        ConfigSpace {
            configs,
            resolutions: resolutions.to_vec(),
            seg_lens: seg_lens.to_vec(),
            sampling_rates: sampling_rates.to_vec(),
        }
    }

    /// Rebuild a space from its ordered configurations and its knob lists,
    /// as [`ConfigSpace::knobs`] returns them (used when restoring a
    /// persisted plan, where the action order must match the trained
    /// policy's outputs exactly).
    pub fn from_parts(configs: Vec<Configuration>, knobs: [Vec<usize>; 3]) -> Self {
        assert!(!configs.is_empty(), "need at least one configuration");
        assert!(
            knobs.iter().all(|values| !values.is_empty()),
            "knob lists must be non-empty"
        );
        let [resolutions, seg_lens, sampling_rates] = knobs;
        ConfigSpace {
            configs,
            resolutions,
            seg_lens,
            sampling_rates,
        }
    }

    /// The paper's knob settings per configuration family (Table 4):
    /// driving corpora (BDD100K and its §6.6 transfer targets):
    /// resolutions {150, 200, 250, 300}, lengths {2, 4, 6, 8}, sampling
    /// {1, 2, 4, 8} — 64 configurations. Untrimmed corpora
    /// (Thumos14/ActivityNet): {40, 80, 160} × {32, 48, 64} × {2, 4, 8}
    /// — 27 configurations. Any [`zeus_video::DataSource`] declares its
    /// family through its profile, so custom corpora plan against one of
    /// these spaces too.
    pub fn for_family(family: ConfigFamily) -> Self {
        match family {
            ConfigFamily::Driving => {
                Self::from_knobs(&[150, 200, 250, 300], &[2, 4, 6, 8], &[1, 2, 4, 8])
            }
            ConfigFamily::Untrimmed => Self::from_knobs(&[40, 80, 160], &[32, 48, 64], &[2, 4, 8]),
        }
    }

    /// Knob settings for a built-in corpus — sugar over
    /// [`ConfigSpace::for_family`].
    pub fn for_dataset(kind: DatasetKind) -> Self {
        Self::for_family(kind.family())
    }

    /// All configurations.
    pub fn configs(&self) -> &[Configuration] {
        &self.configs
    }

    /// The knob values: resolutions, segment lengths and sampling rates.
    /// A space restricted to a subset keeps the knob lists it was
    /// restricted from.
    pub fn knobs(&self) -> [&[usize]; 3] {
        [&self.resolutions, &self.seg_lens, &self.sampling_rates]
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Largest resolution knob.
    pub fn max_resolution(&self) -> usize {
        *self.resolutions.iter().max().expect("non-empty")
    }

    /// Largest segment-length knob.
    pub fn max_seg_len(&self) -> usize {
        *self.seg_lens.iter().max().expect("non-empty")
    }

    /// Largest sampling-rate knob.
    pub fn max_sampling(&self) -> usize {
        *self.sampling_rates.iter().max().expect("non-empty")
    }

    /// The most accurate configuration: highest resolution, lowest
    /// sampling rate (§5), with the largest window for context.
    pub fn most_accurate(&self) -> Configuration {
        let min_s = *self.sampling_rates.iter().min().expect("non-empty");
        Configuration::new(self.max_resolution(), self.max_seg_len(), min_s)
    }

    /// The fastest configuration: lowest resolution, largest covered span.
    pub fn fastest(&self, cost: &CostModel) -> Configuration {
        *self
            .configs
            .iter()
            .max_by(|a, b| {
                let fa = cost.sliding_throughput(a.seg_len, a.sampling_rate, a.resolution);
                let fb = cost.sliding_throughput(b.seg_len, b.sampling_rate, b.resolution);
                fa.partial_cmp(&fb).expect("finite throughput")
            })
            .expect("non-empty")
    }

    /// Restrict the space by a knob mask (§6.4 ablation). Panics if the
    /// mask empties the space.
    pub fn masked(&self, mask: KnobMask) -> ConfigSpace {
        let configs: Vec<Configuration> = self
            .configs
            .iter()
            .copied()
            .filter(|c| mask.admits(c))
            .collect();
        assert!(!configs.is_empty(), "knob mask admits no configurations");
        let keep = |values: &[usize], pick: fn(&Configuration) -> usize| -> Vec<usize> {
            values
                .iter()
                .copied()
                .filter(|&v| configs.iter().any(|c| pick(c) == v))
                .collect()
        };
        ConfigSpace {
            resolutions: keep(&self.resolutions, |c| c.resolution),
            seg_lens: keep(&self.seg_lens, |c| c.seg_len),
            sampling_rates: keep(&self.sampling_rates, |c| c.sampling_rate),
            configs,
        }
    }

    /// Keep only the given configurations (e.g., the fast/mid/slow subset
    /// of §6.8). Panics if none survive.
    pub fn restricted_to(&self, keep: &[Configuration]) -> ConfigSpace {
        let configs: Vec<Configuration> = self
            .configs
            .iter()
            .copied()
            .filter(|c| keep.contains(c))
            .collect();
        assert!(!configs.is_empty(), "restriction admits no configurations");
        ConfigSpace {
            resolutions: self.resolutions.clone(),
            seg_lens: self.seg_lens.clone(),
            sampling_rates: self.sampling_rates.clone(),
            configs,
        }
    }

    /// Index of a configuration in this space.
    pub fn index_of(&self, c: Configuration) -> Option<usize> {
        self.configs.iter().position(|&x| x == c)
    }

    /// Normalised fastness α per configuration (§4.4): sliding throughput
    /// scaled so that `Σ α = 1`.
    pub fn alphas(&self, cost: &CostModel) -> Vec<f32> {
        let fps: Vec<f64> = self
            .configs
            .iter()
            .map(|c| cost.sliding_throughput(c.seg_len, c.sampling_rate, c.resolution))
            .collect();
        let total: f64 = fps.iter().sum();
        fps.iter().map(|f| (f / total) as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdd_space_has_64_configs() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        assert_eq!(s.len(), 64, "Table 4: 4x4x4 = 64 configurations");
        assert_eq!(s.max_resolution(), 300);
        assert_eq!(s.max_seg_len(), 8);
        assert_eq!(s.max_sampling(), 8);
    }

    #[test]
    fn thumos_space_has_27_configs() {
        let s = ConfigSpace::for_dataset(DatasetKind::Thumos14);
        assert_eq!(s.len(), 27, "Table 4: 3x3x3 = 27 configurations");
        assert_eq!(s.max_resolution(), 160);
    }

    #[test]
    fn most_accurate_is_high_res_dense() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let c = s.most_accurate();
        assert_eq!(c.resolution, 300);
        assert_eq!(c.sampling_rate, 1);
    }

    #[test]
    fn fastest_maximises_throughput() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let cost = CostModel;
        let f = s.fastest(&cost);
        let f_fps = cost.sliding_throughput(f.seg_len, f.sampling_rate, f.resolution);
        for c in s.configs() {
            let fps = cost.sliding_throughput(c.seg_len, c.sampling_rate, c.resolution);
            assert!(fps <= f_fps + 1e-9);
        }
        // Intuition check: fastest = lowest res, biggest span.
        assert_eq!(f.resolution, 150);
        assert_eq!(f.frames_covered(), 64);
    }

    #[test]
    fn alphas_sum_to_one_and_order_by_speed() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let cost = CostModel;
        let a = s.alphas(&cost);
        let sum: f32 = a.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "alphas sum to {sum}");
        let fast_idx = s.index_of(s.fastest(&cost)).unwrap();
        let slow_idx = s.index_of(Configuration::new(300, 2, 1)).unwrap();
        assert!(a[fast_idx] > a[slow_idx]);
    }

    #[test]
    fn knob_mask_filters() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let masked = s.masked(KnobMask {
            fix_resolution: Some(300),
            ..KnobMask::none()
        });
        assert_eq!(masked.len(), 16);
        assert!(masked.configs().iter().all(|c| c.resolution == 300));
        // Maxima adjust to the surviving knobs.
        assert_eq!(masked.max_resolution(), 300);
    }

    #[test]
    #[should_panic(expected = "admits no configurations")]
    fn impossible_mask_panics() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let _ = s.masked(KnobMask {
            fix_resolution: Some(999),
            ..KnobMask::none()
        });
    }

    #[test]
    fn restricted_to_subset() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let keep = [Configuration::new(150, 8, 8), Configuration::new(300, 2, 1)];
        let r = s.restricted_to(&keep);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn from_parts_restores_a_restricted_space() {
        let s = ConfigSpace::for_dataset(DatasetKind::Bdd100k);
        let r = s.restricted_to(&[Configuration::new(150, 8, 8), Configuration::new(200, 2, 4)]);
        let knobs = r.knobs().map(<[usize]>::to_vec);
        let restored = ConfigSpace::from_parts(r.configs().to_vec(), knobs);
        assert_eq!(restored.configs(), r.configs());
        assert_eq!(restored.knobs(), s.knobs());
        assert_eq!(restored.most_accurate(), Configuration::new(300, 8, 1));
    }

    #[test]
    fn index_of_roundtrip() {
        let s = ConfigSpace::for_dataset(DatasetKind::Thumos14);
        for (i, c) in s.configs().iter().enumerate() {
            assert_eq!(s.index_of(*c), Some(i));
        }
        assert_eq!(s.index_of(Configuration::new(999, 1, 1)), None);
    }
}
