//! Fleet-level integration: rendezvous routing through the session
//! façade, hot plan replication serving from sibling shards, and the
//! fair-share quota gate's fairness contract.

use proptest::prelude::*;
use zeus::api::{FleetConfig, FleetError, QuotaSpec, TenantId};
use zeus::prelude::*;
use zeus::serve::FairShareGate;

fn fast_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options
}

/// Two corpora sharded across three shards: routing is corpus-pure and
/// restart-stable, `FROM` routes to the right corpus, a hot corpus gets
/// its plans replicated, and a replica shard serves byte-identical
/// results.
#[test]
fn fleet_routes_replicates_and_serves_identical_results() {
    let session = ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .dataset(DatasetKind::Thumos14)
        .default_source("bdd100k")
        .scale(0.05)
        .seed(11)
        .planner(fast_options())
        .build()
        .expect("session");

    let sqls = [
        "SELECT segment_ids FROM bdd100k WHERE action_class = 'cross-right' AND accuracy >= 80%",
        "SELECT segment_ids FROM thumos14 WHERE action_class = 'pole-vault' AND accuracy >= 70%",
    ];
    let mut irs = Vec::new();
    for sql in sqls {
        let query = session.query(sql).expect("parse");
        query.plan().expect("plan");
        irs.push(query.ir().clone());
    }

    let config = FleetConfig {
        shards: 3,
        hot_threshold: 8,
        quota: QuotaSpec::per_sec(1e6),
        ..FleetConfig::default()
    };
    let router = session.fleet(config.clone()).expect("fleet");
    let tenant = TenantId::default();

    // Placement is a pure function of (corpus, shard count): a second
    // router over the same session agrees on every primary.
    let restarted = session.fleet(config).expect("fleet again");
    for (name, corpus, primary) in router.corpora() {
        assert_eq!(
            restarted.primary_shard(corpus),
            primary,
            "primary for {name} must be restart-stable"
        );
    }
    drop(restarted);

    // Cold routing: the first submission of each corpus lands on its
    // rendezvous primary, and `FROM` picks the corpus (distinct
    // primaries are not guaranteed, distinct corpora are).
    let corpora = router.corpora();
    assert_eq!(corpora.len(), 2);
    let mut baselines = Vec::new();
    for ir in &irs {
        let routed = router.submit(ir, &tenant, None).expect("routed");
        assert_eq!(
            routed.shard, routed.primary,
            "cold corpus serves from its primary"
        );
        assert!(!routed.replica_hit);
        baselines.push(routed.stream.wait());
    }

    // Drive the bdd100k corpus past the hot threshold: its plans
    // replicate and siblings start answering with identical labels.
    let mut replica_outcomes = 0usize;
    for _ in 0..64 {
        let routed = router.submit(&irs[0], &tenant, None).expect("routed");
        let outcome = routed.stream.wait();
        if routed.replica_hit {
            assert_ne!(routed.shard, routed.primary);
            replica_outcomes += 1;
            assert_eq!(
                outcome.labels, baselines[0].labels,
                "a replica shard must serve byte-identical labels"
            );
        }
    }
    assert!(
        router.is_replicated(corpora[0].1),
        "corpus must go hot after 64 submissions over threshold 8"
    );
    assert!(replica_outcomes > 0, "round-robin must reach a replica");
    // Once the hot corpus is replicated, round-robin keeps every shard
    // within 2x of the least-loaded one.
    let loads = router.shard_loads();
    let max = loads.iter().copied().max().expect("three shards");
    let min = loads.iter().copied().min().expect("three shards");
    assert!(
        max <= 2 * min,
        "shard loads {loads:?} must stay within 2x once replicated"
    );
    let snap = router.fleet_snapshot();
    assert!(snap.counter("fleet.plan.replica_hits").unwrap_or(0) > 0);
    assert!(snap.counter("fleet.plan.replicated").unwrap_or(0) > 0);
    assert_eq!(snap.counter("fleet.shed.under_quota").unwrap_or(0), 0);

    // The rollup merges every shard: fleet-wide submissions cover all
    // 66 requests (failovers may add resubmissions on top).
    assert!(snap.counter("serve.submitted").unwrap_or(0) >= 66);

    // An unregistered FROM target is a typed routing error.
    let mut bad = irs[0].clone();
    bad.source = Some("imagenet".into());
    match router.submit(&bad, &tenant, None) {
        Err(FleetError::UnknownDataset { requested }) => assert_eq!(requested, "imagenet"),
        other => panic!(
            "expected UnknownDataset, got {other:?}",
            other = other.map(|r| r.shard)
        ),
    }
    router.shutdown();
}

/// A query planned for neither shard is a clean typed error, not a
/// panic (every candidate reports cold/no-plan).
#[test]
fn unplanned_query_is_a_clean_no_plan_error() {
    let session = ZeusSession::builder()
        .dataset(DatasetKind::Kitti)
        .scale(0.05)
        .seed(5)
        .planner(fast_options())
        .build()
        .expect("session");
    let router = session.fleet(FleetConfig::default()).expect("fleet");
    let ir = zeus::api::parse_zql(
        "SELECT segment_ids FROM kitti WHERE action_class = 'left-turn' AND accuracy >= 80%",
    )
    .expect("parse");
    match router.submit(&ir, &TenantId::default(), None) {
        Err(FleetError::Admit(e)) => assert!(e.to_string().contains("no stored plan")),
        other => panic!(
            "expected no-plan admit error, got {:?}",
            other.map(|r| r.shard)
        ),
    }
}

proptest! {
    /// Fair-share fairness: over any request sequence at any pressures,
    /// a tenant that stays within its quota is never shed, while an
    /// over-quota tenant's admissions stay bounded by its token budget
    /// (burst + rate × elapsed, plus one request of slack).
    #[test]
    fn under_quota_tenant_is_never_shed_and_over_quota_is_bounded(
        steps in proptest::collection::vec(
            (0u8..2, 0.0f64..0.01, 0.0f64..1.0),
            1..300,
        )
    ) {
        let light = TenantId::new("light");
        let heavy = TenantId::new("heavy");
        let heavy_quota = QuotaSpec { rate_per_sec: 5.0, burst: 3.0 };
        let gate = FairShareGate::strict(QuotaSpec::per_sec(1e6))
            .with_quota(heavy.clone(), heavy_quota);
        let mut now = 0.0f64;
        let mut heavy_admitted = 0u64;
        for (who, dt, pressure) in steps {
            now += dt;
            if who == 0 {
                // The light tenant cannot exhaust a 1e6 burst in 300
                // requests: it must always be admitted, at any pressure,
                // no matter how hard the heavy tenant is hammering.
                prop_assert!(gate.admit_at(&light, pressure, now).admitted());
            } else if gate.admit_at(&heavy, pressure, now).admitted() {
                heavy_admitted += 1;
            }
        }
        let budget = heavy_quota.burst + heavy_quota.rate_per_sec * now + 1.0;
        prop_assert!(
            (heavy_admitted as f64) <= budget,
            "heavy admitted {heavy_admitted} above its token budget {budget:.1}"
        );
    }
}
