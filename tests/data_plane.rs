//! Integration tests for the pluggable data plane: multi-dataset
//! sessions, ZQL `FROM <dataset>` routing, per-fingerprint plan
//! isolation, typed unknown-dataset errors, and `.zds` session identity.

use zeus::prelude::*;
use zeus::serve::AdmitError;

fn fast_options() -> PlannerOptions {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2;
    options.trainer.warmup = 64;
    options.candidates.truncate(1);
    options
}

const BDD_SQL: &str = "WHERE action_class = 'cross-right' AND accuracy >= 85%";

/// Two corpora with the *same* query identity (class + target) in one
/// session: only the corpus fingerprint separates their plans. Each
/// trains independently, results are stable on re-query (no clobbering),
/// and the shared plan store holds one resident plan per corpus.
#[test]
fn same_query_on_two_corpora_trains_isolated_plans() {
    let session = ZeusSession::builder()
        .register("bdd_a", DatasetKind::Bdd100k.generate(0.08, 1))
        .register("bdd_b", DatasetKind::Bdd100k.generate(0.08, 2))
        .planner(fast_options())
        .executor(ExecutorKind::ZeusSliding)
        .build()
        .expect("session builds");
    assert_eq!(session.source_names(), vec!["bdd_a", "bdd_b"]);
    assert_ne!(
        session.corpus_named("bdd_a").unwrap(),
        session.corpus_named("bdd_b").unwrap(),
        "different corpora must fingerprint differently"
    );

    let a = session
        .query(&format!("SELECT segment_ids FROM bdd_a {BDD_SQL}"))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(session.plans().resident(), 1);
    let b = session
        .query(&format!("SELECT segment_ids FROM bdd_b {BDD_SQL}"))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(
        session.plans().resident(),
        2,
        "identical SQL on two corpora must install two plans, not reuse one"
    );

    // Re-running each query must reproduce its own result exactly — if
    // corpus B's plan had clobbered corpus A's, this would diverge.
    let a2 = session
        .query(&format!("SELECT segment_ids FROM bdd_a {BDD_SQL}"))
        .unwrap()
        .run()
        .unwrap();
    let b2 = session
        .query(&format!("SELECT segment_ids FROM bdd_b {BDD_SQL}"))
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(a.result.f1.to_bits(), a2.result.f1.to_bits());
    assert_eq!(b.result.f1.to_bits(), b2.result.f1.to_bits());
    assert_eq!(session.plans().resident(), 2, "re-queries must not retrain");
}

/// One session hosting corpora from both knob families: `FROM bdd100k`
/// and `FROM thumos14` each plan against their own configuration space
/// and answer with their own classes.
#[test]
fn heterogeneous_families_in_one_session() {
    let session = ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .register_kind(DatasetKind::Thumos14)
        .scale(0.06)
        .seed(13)
        .planner(fast_options())
        .executor(ExecutorKind::ZeusSliding)
        .build()
        .expect("session builds");

    let bdd = session
        .query(&format!("SELECT segment_ids FROM bdd100k {BDD_SQL}"))
        .unwrap()
        .run()
        .unwrap();
    let thumos = session
        .query(
            "SELECT segment_ids FROM thumos14 \
             WHERE action_class = 'pole-vault' AND accuracy >= 75%",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(session.plans().resident(), 2);
    assert!(bdd.result.f1 >= 0.0 && thumos.result.f1 >= 0.0);
    // The default (unrouted) spelling targets the builder's default.
    let unrouted = session
        .query(&format!("SELECT segment_ids FROM UDF(video) {BDD_SQL}"))
        .unwrap();
    assert_eq!(unrouted.dataset_name(), "bdd100k");
    assert_eq!(unrouted.corpus_id(), session.corpus_id());
}

/// `FROM <unknown>` is a typed [`ZeusError::UnknownDataset`] before any
/// planning work — at query preparation, at source lookup, and at
/// serving.
#[test]
fn unknown_dataset_is_a_typed_error() {
    let session = ZeusSession::builder()
        .register("bdd_a", DatasetKind::Bdd100k.generate(0.08, 1))
        .planner(fast_options())
        .build()
        .expect("session builds");

    let err = match session.query(&format!("SELECT segment_ids FROM unknown_name {BDD_SQL}")) {
        Err(e) => e,
        Ok(_) => panic!("unknown dataset must be refused"),
    };
    match err {
        ZeusError::UnknownDataset { name, available } => {
            assert_eq!(name, "unknown_name");
            assert_eq!(available, vec!["bdd_a".to_string()]);
        }
        other => panic!("expected UnknownDataset, got {other}"),
    }
    assert!(matches!(
        session.source_named("nope"),
        Err(ZeusError::UnknownDataset { .. })
    ));
    assert!(matches!(
        session.serve_dataset("nope", ServeConfig::default()),
        Err(ZeusError::UnknownDataset { .. })
    ));
    // An unregistered default is refused at build.
    assert!(matches!(
        ZeusSession::builder()
            .register("bdd_a", DatasetKind::Bdd100k.generate(0.08, 1))
            .default_source("missing")
            .build(),
        Err(ZeusError::UnknownDataset { .. })
    ));
}

/// Registration names normalize case-insensitively: a case-variant
/// re-registration replaces the earlier entry instead of erroring as a
/// duplicate, and `FROM`/lookups find it under the lowercase name.
#[test]
fn case_variant_registrations_replace_not_duplicate() {
    let session = ZeusSession::builder()
        .register("MyData", DatasetKind::Bdd100k.generate(0.08, 1))
        .register("mydata", DatasetKind::Bdd100k.generate(0.08, 2))
        .planner(fast_options())
        .build()
        .expect("case variants are one entry");
    assert_eq!(session.source_names(), vec!["mydata"]);
    assert_eq!(
        session.corpus_named("MYDATA").unwrap(),
        CorpusId::of(&DatasetKind::Bdd100k.generate(0.08, 2)),
        "the later registration wins"
    );
}

/// Plan isolation at the serving layer: a plan trained for corpus A does
/// not serve corpus B (refused with `NoPlan`, never silently reused),
/// and a server refuses queries routed to a dataset it does not serve.
#[test]
fn servers_respect_fingerprint_scoping_and_from_routing() {
    let session = ZeusSession::builder()
        .register("bdd_a", DatasetKind::Bdd100k.generate(0.08, 1))
        .register("bdd_b", DatasetKind::Bdd100k.generate(0.08, 2))
        .planner(fast_options())
        .executor(ExecutorKind::ZeusSliding)
        .build()
        .expect("session builds");

    // Train ONLY corpus A's plan.
    let query_a = session
        .query(&format!("SELECT segment_ids FROM bdd_a {BDD_SQL}"))
        .unwrap();
    query_a.plan().expect("plans");
    let base = query_a.ir().base.clone();

    let config = ServeConfig {
        workers: 2,
        executor: ExecutorKind::ZeusSliding,
        ..ServeConfig::default()
    };
    let server_a = session.serve_dataset("bdd_a", config.clone()).unwrap();
    let server_b = session.serve_dataset("bdd_b", config).unwrap();
    assert_ne!(server_a.corpus_id(), server_b.corpus_id());

    // Server A resolves the plan; server B must NOT see it.
    let outcome = server_a
        .submit(base.clone(), Priority::Standard)
        .expect("corpus A has a plan")
        .wait();
    assert!(!outcome.labels.is_empty());
    assert!(
        matches!(
            server_b.submit(base.clone(), Priority::Standard),
            Err(AdmitError::NoPlan { .. })
        ),
        "corpus B must not reuse corpus A's plan"
    );

    // FROM routing is enforced at admission: a query routed to bdd_a
    // cannot be served by bdd_b's server.
    let misrouted = server_b
        .submit_ir(query_a.ir(), None)
        .expect_err("wrong dataset must be refused");
    assert!(matches!(
        misrouted,
        AdmitError::WrongDataset { ref requested, ref serving }
            if requested == "bdd_a" && serving == "bdd_b"
    ));
    server_a.shutdown();
    server_b.shutdown();
}

/// A corpus saved to `.zds` and loaded in a new session keeps its
/// content fingerprint — so it resolves the plans and cache entries of
/// the session that generated it (bench parity for `.zds`-backed runs).
#[test]
fn zds_corpus_keeps_session_identity() {
    let dir = std::env::temp_dir().join(format!("zeus-data-plane-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bdd.zds");
    let generated = DatasetKind::Bdd100k.generate(0.08, 21);
    generated.save(&path).unwrap();

    let from_gen = ZeusSession::builder()
        .register("bdd100k", DatasetKind::Bdd100k.generate(0.08, 21))
        .planner(fast_options())
        .build()
        .unwrap();
    let from_file = ZeusSession::builder()
        .source_file("bdd100k", &path)
        .planner(fast_options())
        .build()
        .unwrap();
    assert_eq!(
        from_gen.corpus_id(),
        from_file.corpus_id(),
        ".zds round-trip must preserve the corpus identity"
    );
    assert_eq!(from_file.source().store().len(), generated.store.len());

    // A corrupt file is a typed error at build.
    let bad = dir.join("bad.zds");
    std::fs::write(&bad, b"ZDSCnot-a-real-file").unwrap();
    assert!(matches!(
        ZeusSession::builder().source_file("bad", &bad).build(),
        Err(ZeusError::Data(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The five built-in corpora keep their content fingerprints across
/// commits. Persisted `.zds` files and plan catalogs are keyed by these
/// values, so a generator change that moves one orphans them. The
/// (scale, seed) is CI's dataset smoke step's.
#[test]
fn builtin_corpora_fingerprints_are_pinned() {
    let pinned = [
        (DatasetKind::Bdd100k, 0xd799_2aad_0493_9629_u64),
        (DatasetKind::Thumos14, 0x085d_5cce_f672_d5d3),
        (DatasetKind::ActivityNet, 0x9b3d_0259_4af9_1a9a),
        (DatasetKind::Cityscapes, 0x5b48_28ab_408f_653a),
        (DatasetKind::Kitti, 0xc2ba_5f51_e448_0661),
    ];
    assert_eq!(pinned.map(|(kind, _)| kind), DatasetKind::ALL);
    for (kind, fingerprint) in pinned {
        assert_eq!(
            kind.generate(0.05, 2022).fingerprint(),
            fingerprint,
            "{kind:?}'s fingerprint moved"
        );
    }
}
