//! The central metric-key registry.
//!
//! Every metric name in the workspace lives here, as a constant (exact
//! keys) or a helper + pattern (per-device / per-shard keys). Two
//! consumers rely on that:
//!
//! * Planes register handles via these constants instead of minting
//!   string literals ad hoc, so a key rename is one edit and the
//!   documented `serve.* / cache.* / train.* / pool.* / fleet.*`
//!   namespaces cannot drift silently.
//! * `zeus-lint`'s `metric-key` rule checks every string-literal key
//!   passed to `counter()` / `gauge()` / `histogram()` against
//!   [`all`] and [`patterns`] — an unregistered key fails CI until it
//!   is added here, which is exactly the review forcing-function a
//!   central registry is for.

/// Query submissions observed by a server (`serve.*` namespace).
pub const SERVE_SUBMITTED: &str = "serve.submitted";
/// Queries admitted into the bounded queue.
pub const SERVE_ADMITTED: &str = "serve.admitted";
/// Queries shed by the admission queue at capacity.
pub const SERVE_ADMIT_SHED: &str = "serve.admit.shed";
/// Queries refused because no plan is installed for the core.
pub const SERVE_ADMIT_NO_PLAN: &str = "serve.admit.no_plan";
/// Catalog plans refused on lookup: the corpus directory cannot be
/// opened, the file is corrupt or of an unsupported version, or it holds
/// a plan for another exact target.
pub const SERVE_PLAN_REFUSED: &str = "serve.plan.refused";
/// Queries completed end to end.
pub const SERVE_COMPLETED: &str = "serve.completed";
/// Duplicate in-flight submissions coalesced onto one execution.
pub const SERVE_COALESCED: &str = "serve.coalesced";
/// Frames processed by served executions.
pub const SERVE_FRAMES: &str = "serve.frames";
/// End-to-end serving latency histogram (microseconds).
pub const SERVE_LATENCY_US: &str = "serve.latency_us";
/// Current admission-queue depth (gauge).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Cumulative simulated device seconds charged by the server (gauge).
pub const SERVE_DEVICE_SECS: &str = "serve.device_secs";

/// Result-cache hits (`cache.*` namespace).
pub const CACHE_RESULT_HIT: &str = "cache.result.hit";
/// Result-cache misses.
pub const CACHE_RESULT_MISS: &str = "cache.result.miss";
/// Feature-cache hits (training-plane proxy features).
pub const CACHE_FEATURE_HIT: &str = "cache.feature.hit";
/// Feature-cache misses.
pub const CACHE_FEATURE_MISS: &str = "cache.feature.miss";

/// Candidate trainings scheduled (`train.*` namespace).
pub const TRAIN_CANDIDATES: &str = "train.candidates";
/// Completed training episodes.
pub const TRAIN_EPISODES: &str = "train.episodes";
/// Environment steps taken.
pub const TRAIN_STEPS: &str = "train.steps";
/// Gradient updates performed.
pub const TRAIN_UPDATES: &str = "train.updates";
/// Sampled next states whose target-network row was memoized since the
/// last target sync.
pub const TRAIN_TARGET_MEMO_HITS: &str = "train.target_memo.hits";
/// Sampled next states the target network evaluated.
pub const TRAIN_TARGET_MEMO_MISSES: &str = "train.target_memo.misses";

/// Queries routed by a fleet router (`fleet.*` namespace).
pub const FLEET_ROUTED: &str = "fleet.routed";
/// Queries served from a replicated plan on a non-primary shard.
pub const FLEET_PLAN_REPLICA_HITS: &str = "fleet.plan.replica_hits";
/// Plans pushed to sibling shards by the hot-plan replicator.
pub const FLEET_PLAN_REPLICATED: &str = "fleet.plan.replicated";
/// Queries that failed over from their primary shard.
pub const FLEET_FAILOVER: &str = "fleet.failover";
/// Over-quota requests shed by the fleet's fair-share gate.
pub const FLEET_SHED_OVER_QUOTA: &str = "fleet.shed.over_quota";
/// Under-quota requests shed (invariant: must stay zero; CI-gated).
pub const FLEET_SHED_UNDER_QUOTA: &str = "fleet.shed.under_quota";

/// Per-device utilization gauge on the serving pool (`pool.*`).
/// Pattern: `pool.device.<n>.busy_secs`.
pub fn pool_device_busy_secs(device: usize) -> String {
    format!("pool.device.{device}.busy_secs")
}

/// Per-shard routed-query counter on the fleet router.
/// Pattern: `fleet.shard.<n>.routed`.
pub fn fleet_shard_routed(shard: usize) -> String {
    format!("fleet.shard.{shard}.routed")
}

/// Every registered exact key.
pub fn all() -> &'static [&'static str] {
    &[
        SERVE_SUBMITTED,
        SERVE_ADMITTED,
        SERVE_ADMIT_SHED,
        SERVE_ADMIT_NO_PLAN,
        SERVE_PLAN_REFUSED,
        SERVE_COMPLETED,
        SERVE_COALESCED,
        SERVE_FRAMES,
        SERVE_LATENCY_US,
        SERVE_QUEUE_DEPTH,
        SERVE_DEVICE_SECS,
        CACHE_RESULT_HIT,
        CACHE_RESULT_MISS,
        CACHE_FEATURE_HIT,
        CACHE_FEATURE_MISS,
        TRAIN_CANDIDATES,
        TRAIN_EPISODES,
        TRAIN_STEPS,
        TRAIN_UPDATES,
        TRAIN_TARGET_MEMO_HITS,
        TRAIN_TARGET_MEMO_MISSES,
        FLEET_ROUTED,
        FLEET_PLAN_REPLICA_HITS,
        FLEET_PLAN_REPLICATED,
        FLEET_FAILOVER,
        FLEET_SHED_OVER_QUOTA,
        FLEET_SHED_UNDER_QUOTA,
    ]
}

/// Registered dynamic-key patterns. `*` matches exactly one
/// dot-separated segment (a device index, a shard index, or the
/// `{placeholder}` of a `format!` template).
pub fn patterns() -> &'static [&'static str] {
    &["pool.device.*.busy_secs", "fleet.shard.*.routed"]
}

/// The documented top-level namespaces.
pub fn namespaces() -> &'static [&'static str] {
    &["serve", "cache", "train", "pool", "fleet"]
}

/// Does `key` match `pattern`, segment-wise? A `*` segment matches any
/// single non-empty segment — including a `{placeholder}` from a
/// `format!` template, so the lint can validate templates statically.
pub fn matches_pattern(pattern: &str, key: &str) -> bool {
    let pat: Vec<&str> = pattern.split('.').collect();
    let seg: Vec<&str> = key.split('.').collect();
    pat.len() == seg.len()
        && pat
            .iter()
            .zip(&seg)
            .all(|(p, s)| *p == "*" && !s.is_empty() || p == s)
}

/// Is `key` registered — an exact key, or an instance/template of a
/// registered pattern?
pub fn is_registered(key: &str) -> bool {
    all().contains(&key) || patterns().iter().any(|p| matches_pattern(p, key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_keys_are_registered_and_namespaced() {
        for key in all() {
            assert!(is_registered(key), "{key}");
            let ns = key.split('.').next().unwrap();
            assert!(namespaces().contains(&ns), "{key} outside namespaces");
        }
    }

    #[test]
    fn patterns_match_instances_and_templates() {
        assert!(is_registered("pool.device.3.busy_secs"));
        assert!(is_registered(&pool_device_busy_secs(7)));
        assert!(is_registered("pool.device.{i}.busy_secs"));
        assert!(is_registered(&fleet_shard_routed(2)));
        assert!(!is_registered("pool.device.busy_secs"));
        assert!(!is_registered("serve.made_up"));
        assert!(!is_registered("rogue.namespace.key"));
    }
}
