//! Five-minute tour of the Zeus public API: one session, one ZQL
//! string, one answer set.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! A [`ZeusSession`] hides the machinery the paper describes (corpus
//! generation, configuration profiling, DQN training, executor
//! construction) behind a declarative façade: write the §1 query with an
//! accuracy target, and the system picks the plan.

use zeus::prelude::*;

fn main() -> Result<(), ZeusError> {
    // 1. A session bound to a small synthetic BDD100K-like corpus.
    let session = ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .scale(0.4)
        .seed(42)
        .build()?;
    println!(
        "corpus: {} videos, {} frames",
        session.source().store().len(),
        session.source().store().total_frames()
    );

    // 2. The paper's §1 query in extended ZQL: rank the localized
    //    segments by confidence and keep the ten best.
    let query = session.query(
        "SELECT segment_ids FROM UDF(video) \
         WHERE action_class = 'cross-right' AND accuracy >= 85% \
         ORDER BY confidence LIMIT 10",
    )?;
    println!("query: {}", query.to_sql());

    // 3. Run it. The session profiles 64 configurations, trains the DQN
    //    agent, and executes with the RL engine — all behind `run()`.
    let response = query.run()?;
    println!(
        "\n{}: F1 {:.3} (P {:.2} / R {:.2}) at {:.0} fps",
        response.result.method,
        response.result.f1,
        response.result.precision,
        response.result.recall,
        response.result.throughput_fps,
    );

    // 4. The query's answer: the refined, ranked segment set.
    println!("\nlocalized segments (video, start..end, confidence):");
    for hit in &response.answer {
        println!(
            "  {:?}  {:>6}..{:<6}  conf {:.3}",
            hit.video, hit.start, hit.end, hit.confidence
        );
    }

    Ok(())
}
