//! Device profiles: the paper's GPU and CPU inference targets. A
//! simulated device itself is only a [`SimClock`](crate::SimClock): the
//! parallel executor (§6.4) and the `zeus-serve` worker pool each keep
//! one clock per device.

/// A hardware profile scaling the base (GPU-calibrated) latency model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Multiplier over the GPU-calibrated latencies (GPU = 1.0).
    pub slowdown: f64,
}

impl DeviceProfile {
    /// The paper's evaluation GPU: NVIDIA GeForce RTX 2080 Ti (§6.1).
    /// All cost-model constants are calibrated against this device.
    pub fn gpu_rtx_2080_ti() -> Self {
        DeviceProfile {
            name: "NVIDIA GeForce RTX 2080 Ti".to_string(),
            slowdown: 1.0,
        }
    }

    /// The paper's 16-core CPU host. §1 reports R3D at 720×720 running at
    /// 2 fps on the CPU vs 13 fps on a server-grade GPU → 6.5× slowdown.
    pub fn cpu_16_core() -> Self {
        DeviceProfile {
            name: "16-core CPU".to_string(),
            slowdown: 6.5,
        }
    }

    /// A custom profile (e.g., for what-if capacity planning).
    pub fn custom(name: impl Into<String>, slowdown: f64) -> Self {
        assert!(slowdown > 0.0, "slowdown must be positive");
        DeviceProfile {
            name: name.into(),
            slowdown,
        }
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        Self::gpu_rtx_2080_ti()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_is_baseline() {
        assert_eq!(DeviceProfile::gpu_rtx_2080_ti().slowdown, 1.0);
        assert_eq!(DeviceProfile::default(), DeviceProfile::gpu_rtx_2080_ti());
    }

    #[test]
    fn cpu_matches_paper_ratio() {
        // §1: 2 fps CPU vs 13 fps GPU = 6.5x.
        assert!((DeviceProfile::cpu_16_core().slowdown - 13.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "slowdown must be positive")]
    fn custom_rejects_nonpositive() {
        let _ = DeviceProfile::custom("bad", 0.0);
    }
}
