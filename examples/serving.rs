//! Walkthrough of the `zeus-serve` serving layer through the session
//! façade: plan once, serve many.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! The flow mirrors a production deployment: a [`ZeusSession`] plans the
//! queries it intends to serve (offline, one-time cost), then starts a
//! server sharing the session's plan store. Clients submit extended-ZQL
//! queries — `latency_budget` picks their admission priority, `WINDOW`
//! and `LIMIT` shape the answer set — and each gets one outcome back.

use zeus::prelude::*;

fn main() -> Result<(), ZeusError> {
    // A small BDD100K corpus; scale 0.2 keeps the example under a
    // minute including planning.
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 2; // example-sized training
    options.trainer.warmup = 64;
    options.candidates.truncate(1);

    let session = ZeusSession::builder()
        .dataset(DatasetKind::Bdd100k)
        .scale(0.2)
        .seed(33)
        .planner(options)
        // The example trains a deliberately tiny RL policy, so serve the
        // statically-planned engine; use `ZeusRl` after a full plan run.
        .executor(ExecutorKind::ZeusSliding)
        .build()?;

    // --- Offline: plan the query we intend to serve. --------------------
    let sql = "SELECT segment_ids FROM UDF(video) \
               WHERE action_class = 'cross-right' AND accuracy >= 85%";
    println!("planning `{sql}` (one-time cost, amortized by the plan store)...");
    let query = session.query(sql)?;
    query.plan()?;

    // --- Online: start the server over the session's plan store. --------
    let server = session.serve(ServeConfig {
        workers: 4,
        executor: ExecutorKind::ZeusSliding,
        ..ServeConfig::default()
    })?;

    // An interactive client submits the extended form: a tight latency
    // budget routes it to the interactive admission class, and the WINDOW
    // clause masks segments outside the first 600 frames of each video.
    let extended = session.query(&format!(
        "{sql} AND latency_budget <= 100ms WINDOW [0, 600]"
    ))?;
    println!("\ninteractive query:");
    let outcome = server.submit_ir(extended.ir(), None)?.wait();
    println!(
        "  done ({} priority): F1 {:.3} at {:.0} simulated fps, \
         latency {:.2} ms, {} windowed segment(s)",
        outcome.priority,
        outcome.result.f1,
        outcome.result.throughput_fps,
        outcome.latency.as_secs_f64() * 1e3,
        outcome.answer.len(),
    );

    // A burst of repeat queries: the first execution populated the LRU
    // result cache, so these are answered without touching a device —
    // including differently-refined views of the same core query.
    println!("\nburst of 32 repeat queries (mixed refinements):");
    let outcomes: Vec<_> = (0..32)
        .map(|i| {
            let zql = match i % 3 {
                0 => sql.to_string(),
                1 => format!("{sql} LIMIT 3"),
                _ => format!("{sql} ORDER BY confidence LIMIT 1"),
            };
            let query = session.query(&zql).expect("valid template");
            server
                .submit_ir(query.ir(), Some(Priority::ALL[i % 3]))
                .expect("admitted")
                .wait()
        })
        .collect();
    let cached = outcomes.iter().filter(|o| o.from_cache).count();
    let limited = outcomes.iter().filter(|o| o.answer.len() <= 3).count();
    println!("  {cached}/32 served from cache; {limited}/32 refined by LIMIT");

    let metrics = server.metrics();
    println!("\nserving telemetry:\n{metrics}");

    server.shutdown();
    Ok(())
}
