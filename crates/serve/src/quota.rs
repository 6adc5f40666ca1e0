//! Per-tenant admission quotas with fair-share load shedding.
//!
//! A serving fleet is multi-tenant: many consumers share the same
//! shards, and one tenant's burst must not starve everyone else's
//! interactive traffic. The contract here is the classic fair-share
//! one:
//!
//! * Every tenant owns a token bucket (`rate` tokens/sec, `burst`
//!   depth). A tenant holding a token is **in quota** and the gate
//!   always admits it — the gate never sheds under-quota traffic; only
//!   a physically full admission queue can reject it downstream.
//! * A tenant whose bucket is empty is **over quota**. In strict mode
//!   it is shed immediately. In work-conserving mode it is still
//!   admitted while the shard is idle — unused capacity is never wasted
//!   — but as pressure rises the gate sheds the *most*-over-quota
//!   tenants first: the shed threshold is `HIGH_WATER / overage`, a
//!   monotonically decreasing function of how deep past its quota the
//!   tenant is running.
//!
//! Time is injected (`admit_at`) so the policy is a pure, testable
//! function of `(tenant state, pressure, now)`; the wall-clock
//! [`FairShareGate::admit`] entry point just supplies `now` from a
//! monotonic epoch.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zeus_obs::sync::lock_recover;

/// A tenant identity, threaded from the session/API layer through every
/// serve request. Cheap to clone (shared string).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// A tenant id from any string-ish name.
    pub fn new(name: impl AsRef<str>) -> Self {
        TenantId(Arc::from(name.as_ref()))
    }

    /// The tenant name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    /// The anonymous tenant every unattributed request is accounted to.
    fn default() -> Self {
        TenantId::new("default")
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        TenantId::new(s)
    }
}

impl From<String> for TenantId {
    fn from(s: String) -> Self {
        TenantId::new(s)
    }
}

/// A tenant's admission allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaSpec {
    /// Sustained admissions per second.
    pub rate_per_sec: f64,
    /// Bucket depth: how large a burst is in-quota after idling.
    pub burst: f64,
}

impl QuotaSpec {
    /// A quota of `rate_per_sec` with a burst of the same size.
    pub fn per_sec(rate_per_sec: f64) -> Self {
        QuotaSpec {
            rate_per_sec,
            burst: rate_per_sec.max(1.0),
        }
    }
}

impl Default for QuotaSpec {
    fn default() -> Self {
        QuotaSpec {
            rate_per_sec: 100.0,
            burst: 100.0,
        }
    }
}

/// How far into debt a work-conserving bucket may run, in bursts. Caps
/// the `overage` signal so one runaway tenant saturates the "shed me
/// first" ordering instead of overflowing it.
const DEBT_CAP_BURSTS: f64 = 4.0;

/// Classic token bucket with injected time (seconds since an arbitrary
/// epoch). Tokens go negative in work-conserving mode — the debt *is*
/// the overage signal.
#[derive(Debug, Clone)]
struct TokenBucket {
    spec: QuotaSpec,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    fn new(spec: QuotaSpec, now: f64) -> Self {
        TokenBucket {
            spec,
            tokens: spec.burst,
            last: now,
        }
    }

    fn refill(&mut self, now: f64) {
        let dt = (now - self.last).max(0.0);
        self.tokens = (self.tokens + dt * self.spec.rate_per_sec).min(self.spec.burst);
        self.last = now;
    }

    fn in_quota(&self) -> bool {
        self.tokens >= 1.0
    }

    fn take(&mut self) {
        let floor = -DEBT_CAP_BURSTS * self.spec.burst.max(1.0);
        self.tokens = (self.tokens - 1.0).max(floor);
    }

    /// How far over quota this tenant is running: 1.0 at the quota
    /// boundary, growing with bucket debt, capped by [`DEBT_CAP_BURSTS`].
    fn overage(&self) -> f64 {
        1.0 + (-self.tokens).max(0.0) / self.spec.burst.max(1.0)
    }
}

/// The gate's verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Admit the request.
    Admit {
        /// Whether the tenant held a token (true) or was admitted over
        /// quota on spare capacity (false, work-conserving mode only).
        in_quota: bool,
    },
    /// Shed the request: the tenant is over quota and the shard cannot
    /// spare the capacity.
    Shed {
        /// The tenant's overage factor (≥ 1.0) at decision time —
        /// larger means deeper past quota.
        overage: f64,
    },
}

impl Decision {
    /// True for either `Admit` variant.
    pub fn admitted(&self) -> bool {
        matches!(self, Decision::Admit { .. })
    }
}

/// Lock stripes for the tenant table. A fleet routes *every* request
/// through one gate, so a single tenant-map mutex would serialize the
/// whole fleet; striping by tenant hash keeps distinct tenants on
/// distinct locks (a tenant's own requests still serialize, which the
/// token-bucket arithmetic requires anyway).
const STRIPES: usize = 16;

/// Queue-pressure level (`depth / capacity`) at which a tenant just
/// barely over quota starts being shed in work-conserving mode.
const HIGH_WATER: f64 = 0.75;

/// The fair-share admission gate: one token bucket per tenant plus the
/// shed policy.
///
/// Structural invariant: [`Decision::Shed`] is only ever returned when
/// the tenant's bucket is empty, so an under-quota tenant can never be
/// shed by the gate — regardless of pressure, mode, or what any other
/// tenant is doing. The fairness property test in `tests/` leans on
/// this.
pub struct FairShareGate {
    default_quota: QuotaSpec,
    overrides: HashMap<TenantId, QuotaSpec>,
    work_conserving: bool,
    epoch: Instant,
    stripes: Vec<Mutex<HashMap<TenantId, TokenBucket>>>,
}

impl fmt::Debug for FairShareGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FairShareGate")
            .field("default_quota", &self.default_quota)
            .field("overrides", &self.overrides.len())
            .field("work_conserving", &self.work_conserving)
            .finish()
    }
}

impl FairShareGate {
    /// A strict gate: over-quota requests are shed regardless of load.
    pub fn strict(default_quota: QuotaSpec) -> Self {
        Self::new(default_quota, false)
    }

    /// A work-conserving gate: over-quota requests ride spare capacity
    /// until pressure crosses `0.75 / overage`.
    pub fn work_conserving(default_quota: QuotaSpec) -> Self {
        Self::new(default_quota, true)
    }

    fn new(default_quota: QuotaSpec, work_conserving: bool) -> Self {
        FairShareGate {
            default_quota,
            overrides: HashMap::new(),
            work_conserving,
            epoch: Instant::now(),
            stripes: (0..STRIPES).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// The lock stripe owning `tenant`.
    fn stripe(&self, tenant: &TenantId) -> &Mutex<HashMap<TenantId, TokenBucket>> {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        tenant.hash(&mut hasher);
        &self.stripes[(hasher.finish() as usize) % STRIPES]
    }

    /// Override one tenant's quota (builder-style).
    pub fn with_quota(mut self, tenant: impl Into<TenantId>, quota: QuotaSpec) -> Self {
        self.overrides.insert(tenant.into(), quota);
        self
    }

    /// The quota `tenant` is subject to.
    pub fn quota_for(&self, tenant: &TenantId) -> QuotaSpec {
        self.overrides
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    /// Gate one request using wall-clock time. `pressure` is the target
    /// shard's queue fill fraction in `[0, 1]`.
    pub fn admit(&self, tenant: &TenantId, pressure: f64) -> Decision {
        self.admit_at(tenant, pressure, self.epoch.elapsed().as_secs_f64())
    }

    /// Gate one request at an explicit time (seconds since the gate's
    /// epoch). Deterministic given the call sequence — the property
    /// tests drive this directly.
    pub fn admit_at(&self, tenant: &TenantId, pressure: f64, now_secs: f64) -> Decision {
        let quota = self.quota_for(tenant);
        let mut tenants = lock_recover(self.stripe(tenant));
        let bucket = tenants
            .entry(tenant.clone())
            .or_insert_with(|| TokenBucket::new(quota, now_secs));
        bucket.refill(now_secs);
        if bucket.in_quota() {
            bucket.take();
            return Decision::Admit { in_quota: true };
        }
        let overage = bucket.overage();
        let shed = if self.work_conserving {
            // Most-over-quota tenants shed first: deeper debt lowers the
            // pressure threshold at which this tenant is turned away.
            pressure >= HIGH_WATER / overage
        } else {
            true
        };
        if shed {
            Decision::Shed { overage }
        } else {
            bucket.take();
            Decision::Admit { in_quota: false }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_quota_is_always_admitted_even_at_full_pressure() {
        let gate = FairShareGate::strict(QuotaSpec::per_sec(10.0));
        let t = TenantId::new("alice");
        // Burst of 10 tokens: the first 10 requests are in quota and must
        // be admitted even with the queue reported completely full.
        for i in 0..10 {
            let d = gate.admit_at(&t, 1.0, 0.0);
            assert!(d.admitted(), "request {i} shed while in quota: {d:?}");
        }
        assert!(matches!(gate.admit_at(&t, 1.0, 0.0), Decision::Shed { .. }));
    }

    #[test]
    fn strict_mode_sheds_over_quota_even_when_idle() {
        let gate = FairShareGate::strict(QuotaSpec {
            rate_per_sec: 1.0,
            burst: 1.0,
        });
        let t = TenantId::new("bursty");
        assert!(gate.admit_at(&t, 0.0, 0.0).admitted());
        assert!(matches!(gate.admit_at(&t, 0.0, 0.0), Decision::Shed { .. }));
    }

    #[test]
    fn work_conserving_admits_over_quota_while_idle_then_sheds_under_pressure() {
        let gate = FairShareGate::work_conserving(QuotaSpec {
            rate_per_sec: 1.0,
            burst: 1.0,
        });
        let t = TenantId::new("bursty");
        assert!(gate.admit_at(&t, 0.0, 0.0).admitted(), "token");
        let over = gate.admit_at(&t, 0.0, 0.0);
        assert_eq!(over, Decision::Admit { in_quota: false }, "spare capacity");
        assert!(
            matches!(gate.admit_at(&t, 0.9, 0.0), Decision::Shed { .. }),
            "pressure over high water sheds the over-quota tenant"
        );
    }

    #[test]
    fn deeper_overage_sheds_at_lower_pressure() {
        let gate = FairShareGate::work_conserving(QuotaSpec {
            rate_per_sec: 1.0,
            burst: 2.0,
        });
        let (light, heavy) = (TenantId::new("light"), TenantId::new("heavy"));
        // Drain both buckets; drive `heavy` deep into debt at idle.
        for _ in 0..2 {
            assert!(gate.admit_at(&light, 0.0, 0.0).admitted());
            assert!(gate.admit_at(&heavy, 0.0, 0.0).admitted());
        }
        for _ in 0..6 {
            assert!(gate.admit_at(&heavy, 0.0, 0.0).admitted());
        }
        // At a pressure below the barely-over threshold but above the
        // deep-debt threshold, only the deep-debt tenant is shed.
        let p = 0.5;
        assert!(gate.admit_at(&light, p, 0.0).admitted());
        assert!(matches!(
            gate.admit_at(&heavy, p, 0.0),
            Decision::Shed { .. }
        ));
    }

    #[test]
    fn refill_restores_quota() {
        let gate = FairShareGate::strict(QuotaSpec {
            rate_per_sec: 5.0,
            burst: 1.0,
        });
        let t = TenantId::new("steady");
        assert!(gate.admit_at(&t, 0.0, 0.0).admitted());
        assert!(!gate.admit_at(&t, 0.0, 0.0).admitted());
        // 0.2 s at 5 tokens/sec refills a full token.
        assert!(gate.admit_at(&t, 0.0, 0.21).admitted());
    }

    #[test]
    fn per_tenant_overrides_apply() {
        let gate = FairShareGate::strict(QuotaSpec::per_sec(1.0))
            .with_quota("vip", QuotaSpec::per_sec(100.0));
        let (vip, pleb) = (TenantId::new("vip"), TenantId::new("pleb"));
        for _ in 0..50 {
            assert!(gate.admit_at(&vip, 0.0, 0.0).admitted());
        }
        assert!(gate.admit_at(&pleb, 0.0, 0.0).admitted());
        assert!(!gate.admit_at(&pleb, 0.0, 0.0).admitted());
    }
}
