//! Golden pins for §6.4's inter-video parallel executor: per-worker
//! simulated seconds, the merged clock, and an FNV-1a hash of the merged
//! labels and histogram, for 1 to 8 workers over the Zeus-RL and
//! Zeus-Sliding engines of a planned query. `reproduce`'s parallelism
//! block prints these quantities, so a change to how the fork-join
//! schedules or merges work must keep them.

use zeus::core::baselines::{ExecutorKind, QueryEngine};
use zeus::core::parallel::execute_parallel;
use zeus::core::planner::{PlannerOptions, QueryPlanner};
use zeus::core::query::ActionQuery;
use zeus::video::video::Split;
use zeus::video::{DatasetKind, Video};

/// One line per run: the worker seconds' bits, the merged seconds' bits,
/// the merged events, and the 64-bit FNV-1a of the labels and histogram
/// as little-endian words.
fn pin<E: QueryEngine + Sync + ?Sized>(
    name: &str,
    engine: &E,
    videos: &[&Video],
    workers: usize,
) -> String {
    let run = execute_parallel(engine, videos, workers);
    let merged = &run.merged;
    let labels = merged.labels.iter().flat_map(|(id, labels)| {
        std::iter::once(u64::from(id.0)).chain(labels.iter().map(|&l| u64::from(l)))
    });
    let histogram = merged.histogram.entries().into_iter().flat_map(|(c, n)| {
        [
            c.resolution as u64,
            c.seg_len as u64,
            c.sampling_rate as u64,
            n,
        ]
    });
    let hash = labels
        .chain(histogram)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    let secs: Vec<String> = run
        .worker_secs
        .iter()
        .map(|s| format!("{:016x}", s.to_bits()))
        .collect();
    format!(
        "{name} x{workers}: [{}] {:016x} {} {hash:016x}\n",
        secs.join(" "),
        merged.clock.elapsed_secs().to_bits(),
        merged.clock.events(),
    )
}

#[test]
fn parallel_runs_match_golden_values() {
    let mut options = PlannerOptions::default();
    options.trainer.episodes = 3;
    options.trainer.warmup = 128;
    options.candidates.truncate(1);
    let dataset = DatasetKind::Bdd100k.generate(0.3, 2022);
    let query = ActionQuery::new(dataset.query_classes()[0], 0.85).unwrap();
    let planner = QueryPlanner::new(&dataset, options);
    let plan = planner.plan(&query);
    let zeus_rl = planner.build_engine(&plan, ExecutorKind::ZeusRl);
    let sliding = planner.build_engine(&plan, ExecutorKind::ZeusSliding);
    let test = dataset.store.split(Split::Test);

    let mut got = String::new();
    for workers in [1, 2, 3, 4, 8] {
        got += &pin("zeus-rl", zeus_rl.as_ref(), &test, workers);
        got += &pin("sliding", sliding.as_ref(), &test, workers);
    }
    assert_eq!(got, PINNED, "parallel execution moved");
}

/// Recorded before the fork-join moved onto `run_jobs`. The 14 test
/// videos split unevenly over 3, 4 and 8 workers, so the merged seconds
/// differ in their last bits by worker count: the merge order is pinned.
const PINNED: &str = "\
zeus-rl x1: [4022a2cc5c6484e1] 4022a2cc5c6484e1 266 2e27a9357ec9fa21
sliding x1: [403707314ca92630] 403707314ca92630 546 c5f33d02a69214f1
zeus-rl x2: [401215ff02a9fe6a 40132f99b61f0b5a] 4022a2cc5c6484e2 266 2e27a9357ec9fa21
sliding x2: [402707314ca92600 402707314ca92600] 403707314ca92600 546 c5f33d02a69214f1
zeus-rl x3: [400aff5bcb01f164 400b4aa722ef1848 4004412e83a109c9] 4022a2cc5c6484dd 266 2e27a9357ec9fa21
sliding x3: [402072da122fad82 402072da122fad82 401a515ce9e5e265] 403707314ca9261b 546 c5f33d02a69214f1
zeus-rl x4: [4005568745d9fedf 4004c0aba6e25773 3ffdaaed7ef3fbdd 40019e87c55bbf41] 4022a2cc5c6484e0 266 2e27a9357ec9fa21
sliding x4: [401a515ce9e5e265 401a515ce9e5e265 4013bd05af6c69c0 4013bd05af6c69c0] 403707314ca92612 546 c5f33d02a69214f1
zeus-rl x8: [3ff49f85008560fc 3ff6202d9cf13ced 3ff2fa3c3bf07115 3ff57868fd199bb0 3ff60d898b2e9cc7 3ff36129b0d37202 3fe561628607159f 3feb894d1b3bc5a9] 4022a2cc5c6484e4 266 2e27a9357ec9fa21
sliding x8: [400a515ce9e5e247 400a515ce9e5e247 400a515ce9e5e247 400a515ce9e5e247 400a515ce9e5e247 400a515ce9e5e247 3ffa515ce9e5e247 3ffa515ce9e5e247] 403707314ca925fd 546 c5f33d02a69214f1
";
