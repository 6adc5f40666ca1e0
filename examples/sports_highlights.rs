//! Sports-highlights scenario: localizing pole vaults in untrimmed
//! Thumos14-like footage.
//!
//! ```text
//! cargo run --release --example sports_highlights
//! ```
//!
//! Dense-action corpora (40% of frames are actions) stress a different
//! regime than dash-cam footage: the agent must exploit the *long* action
//! durations with long, coarsely-sampled segments instead of sprinting
//! through empty video. The highlight reel uses the extended dialect —
//! `ORDER BY confidence LIMIT 8` returns the eight most confident vaults.
//! The tail of the example demonstrates the inter-video parallel executor
//! extension (§6.4) via the session's plan.

use zeus::core::parallel::execute_parallel;
use zeus::prelude::*;
use zeus::sim::CostModel;
use zeus::video::video::Split;

fn main() -> Result<(), ZeusError> {
    let session = ZeusSession::builder()
        .dataset(DatasetKind::Thumos14)
        .scale(0.1)
        .seed(11)
        .build()?;
    let zql = "SELECT segment_ids FROM UDF(video) \
               WHERE action_class = 'pole-vault' AND accuracy >= 75%";
    println!(
        "Thumos14-like corpus: {} videos / {} frames; query: {}",
        session.source().store().len(),
        session.source().store().total_frames(),
        session.query(zql)?.to_sql()
    );

    let sliding = session
        .query(zql)?
        .executor(ExecutorKind::ZeusSliding)
        .run()?;
    let rl = session.query(zql)?.executor(ExecutorKind::ZeusRl).run()?;
    println!(
        "\nZeus-Sliding  F1 {:.3} @ {:>7.0} fps\nZeus-RL       F1 {:.3} @ {:>7.0} fps ({:.1}x faster)",
        sliding.result.f1,
        sliding.result.throughput_fps,
        rl.result.f1,
        rl.result.throughput_fps,
        rl.result.throughput_fps / sliding.result.throughput_fps
    );

    // Highlight reel: the eight most confident pole-vault segments.
    let reel = session
        .query(&format!("{zql} ORDER BY confidence LIMIT 8"))?
        .run()?;
    println!("\nhighlights (video, mm:ss.s - mm:ss.s, confidence):");
    let fps = 30.0;
    let ts = |f: usize| {
        let secs = f as f64 / fps;
        format!("{:02}:{:04.1}", (secs / 60.0) as u32, secs % 60.0)
    };
    for hit in &reel.answer {
        println!(
            "  {:?}  {} - {}  conf {:.3}",
            hit.video,
            ts(hit.start),
            ts(hit.end),
            hit.confidence
        );
    }

    // §6.4 extension: batch across videos onto multiple simulated
    // devices, reusing the session's trained plan.
    let engine = session.query(zql)?.plan()?.zeus_rl_engine(CostModel);
    let test = session.source().store().split(Split::Test);
    println!("\ninter-video parallelism (§6.4):");
    for workers in [1usize, 2, 4] {
        let par = execute_parallel(&engine, &test, workers);
        println!(
            "  {workers} device(s): {:>7.0} effective fps ({:.2}x)",
            par.parallel_throughput(),
            par.speedup()
        );
    }
    Ok(())
}
