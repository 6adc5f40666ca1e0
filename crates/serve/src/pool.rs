//! The worker pool: one thread per simulated device, pulling queries from
//! the admission queue and stealing per-video subtasks from each other.
//!
//! ## Scheduling
//!
//! A worker that dequeues a query becomes its *owner*: it posts the query
//! on the shared steal board and starts claiming its per-video subtasks.
//! Any idle worker (empty queue) scans the board and claims subtasks from
//! in-flight queries — so a single large query spreads across the whole
//! pool, and a busy pool still makes progress on every admitted query.
//! Claims are a single `fetch_add` on the query's cursor; the worker that
//! completes the *last* subtask assembles and sends the final outcome, so
//! completion never waits on the owner.
//!
//! ## Coalescing
//!
//! A submission identical to an in-flight query (same cache key) does not
//! execute again: it *subscribes* to the running query and gets its own
//! [`QueryOutcome`] when the query finishes (own id, own latency, marked
//! `from_cache`) — thundering herds cost one execution.
//!
//! ## Determinism
//!
//! Every subtask runs its video on a fresh clock, and assembly merges
//! parts in canonical video order — so the assembled
//! [`QueryOutcome`] is byte-identical regardless of worker count, steal
//! interleaving, or which device ran which video. (Per-*device* busy time
//! does depend on scheduling; the query-visible result does not.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zeus_core::baselines::QueryEngine;
use zeus_core::metrics::EvalProtocol;
use zeus_core::query::ActionQuery;
use zeus_core::result::{ConfigHistogram, ExecutionResult, QueryResult};
use zeus_core::ExecutorKind;
use zeus_sim::SimClock;
use zeus_video::{Video, VideoId};

use zeus_obs::sync::lock_recover;
use zeus_obs::ObsHub;

use crate::admission::{AdmissionQueue, PopTimeout};
use crate::cache::{CacheKey, CachedExecution, ResultCache};
use crate::metrics::ServeMetrics;
use crate::request::{Priority, QueryId, QueryOutcome};

/// One finished per-video subtask.
struct Part {
    video: VideoId,
    labels: Vec<bool>,
    clock: SimClock,
    histogram: ConfigHistogram,
}

/// One client waiting on a query (the submitter, or a coalesced
/// follower).
pub(crate) struct Subscriber {
    pub(crate) id: QueryId,
    pub(crate) priority: Priority,
    pub(crate) submitted: Instant,
    pub(crate) tx: Sender<QueryOutcome>,
    /// False only for the original submitter; followers are reported as
    /// cache-served (they cost no execution).
    pub(crate) coalesced: bool,
}

/// Mutable per-query state behind one lock (single lock ⇒ no ordering
/// hazards between part completion, subscription, and closing).
struct QueryState {
    parts: Vec<Option<Part>>,
    completed: usize,
    subscribers: Vec<Subscriber>,
    /// Set at finalize; late identical submissions must re-check the
    /// result cache instead of subscribing.
    closed: bool,
}

/// A query being executed by the pool.
pub(crate) struct ActiveQuery {
    pub(crate) query: ActionQuery,
    pub(crate) executor: ExecutorKind,
    pub(crate) protocol: EvalProtocol,
    pub(crate) engine: Box<dyn QueryEngine + Send + Sync>,
    pub(crate) cache_key: CacheKey,
    /// Next unclaimed video position.
    next: AtomicUsize,
    state: Mutex<QueryState>,
}

impl ActiveQuery {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        query: ActionQuery,
        executor: ExecutorKind,
        protocol: EvalProtocol,
        engine: Box<dyn QueryEngine + Send + Sync>,
        cache_key: CacheKey,
        primary: Subscriber,
        num_videos: usize,
    ) -> Self {
        ActiveQuery {
            query,
            executor,
            protocol,
            engine,
            cache_key,
            next: AtomicUsize::new(0),
            state: Mutex::new(QueryState {
                parts: (0..num_videos).map(|_| None).collect(),
                completed: 0,
                subscribers: vec![primary],
                closed: false,
            }),
        }
    }

    /// Claim the next unprocessed video position, if any remain.
    fn claim(&self, total: usize) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i < total {
            Some(i)
        } else {
            None
        }
    }

    /// True when every subtask has been claimed (not necessarily done).
    fn fully_claimed(&self, total: usize) -> bool {
        self.next.load(Ordering::Relaxed) >= total
    }

    /// Attach a coalesced follower. Fails when the query has already
    /// finalized (caller re-checks the result cache, which finalize
    /// populated first).
    pub(crate) fn subscribe(&self, subscriber: Subscriber) -> Result<(), Subscriber> {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return Err(subscriber);
        }
        state.subscribers.push(subscriber);
        Ok(())
    }
}

/// Everything the worker threads share.
pub(crate) struct PoolShared {
    pub(crate) queue: AdmissionQueue<Arc<ActiveQuery>>,
    pub(crate) board: Mutex<Vec<Arc<ActiveQuery>>>,
    /// In-flight queries by cache key, for submission coalescing.
    pub(crate) inflight: Mutex<HashMap<CacheKey, Arc<ActiveQuery>>>,
    /// One simulated device per worker: its clock accumulates the busy
    /// time of every part the worker ran.
    pub(crate) devices: Vec<Mutex<SimClock>>,
    pub(crate) cache: Arc<ResultCache>,
    pub(crate) metrics: ServeMetrics,
    /// The server's observability plane (shared registry + tracer).
    pub(crate) obs: ObsHub,
    /// Canonical test-split videos, sorted by id; every query runs over
    /// this corpus and subtask `i` is `videos[i]`.
    pub(crate) videos: Vec<Video>,
}

impl PoolShared {
    /// Per-device simulated busy seconds.
    pub(crate) fn device_busy_secs(&self) -> Vec<f64> {
        self.devices
            .iter()
            .map(|d| lock_recover(d).elapsed_secs())
            .collect()
    }
}

/// How long an idle worker waits on the queue before re-scanning the
/// steal board.
const IDLE_WAIT: Duration = Duration::from_millis(1);

/// The worker loop: run by thread `worker` until the queue closes and all
/// in-flight work drains.
pub(crate) fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        // New queries first: admission order (weighted by priority class)
        // beats stealing, so queued interactive work is never stuck
        // behind a batch query's fan-out.
        if let Some((task, _)) = shared.queue.try_pop() {
            own_query(shared, worker, task);
            continue;
        }
        if steal_one(shared, worker) {
            continue;
        }
        match shared.queue.pop_timeout(IDLE_WAIT) {
            PopTimeout::Item(task, _) => own_query(shared, worker, task),
            PopTimeout::Empty => continue,
            PopTimeout::Closed => {
                // Drain the board, then exit.
                if !steal_one(shared, worker) {
                    return;
                }
            }
        }
    }
}

/// Own a freshly-dequeued query: post it for stealing, then claim its
/// subtasks until none remain.
fn own_query(shared: &PoolShared, worker: usize, task: Arc<ActiveQuery>) {
    let total = shared.videos.len();
    lock_recover(&shared.board).push(Arc::clone(&task));
    while let Some(i) = task.claim(total) {
        execute_part(shared, worker, &task, i);
    }
    // Remaining parts (if any) are in flight on thieves; the last one to
    // finish assembles. Retire fully-claimed queries from the board.
    lock_recover(&shared.board).retain(|q| !q.fully_claimed(total));
}

/// Claim one subtask from any in-flight query on the board.
fn steal_one(shared: &PoolShared, worker: usize) -> bool {
    let total = shared.videos.len();
    let victim = {
        let board = lock_recover(&shared.board);
        board.iter().find(|q| !q.fully_claimed(total)).cloned()
    };
    match victim {
        Some(task) => match task.claim(total) {
            Some(i) => {
                execute_part(shared, worker, &task, i);
                true
            }
            None => false,
        },
        None => false,
    }
}

/// Run video `i` of `task` on this worker's device.
fn execute_part(shared: &PoolShared, worker: usize, task: &Arc<ActiveQuery>, i: usize) {
    let video = &shared.videos[i];
    let started = Instant::now();
    let mut clock = SimClock::new();
    let mut hist = ConfigHistogram::new();
    let labels = task.engine.execute_video(video, &mut clock, &mut hist);
    // Per-part device execution feeds the `execute` stage aggregate (the
    // full query-level `execute` span is timed by the submitter).
    shared
        .obs
        .tracer
        .record_stage("execute.part", started.elapsed());

    // Charge the simulated time to the executing device.
    lock_recover(&shared.devices[worker]).merge(&clock);

    let finished = {
        let mut state = lock_recover(&task.state);
        state.parts[i] = Some(Part {
            video: video.id,
            labels,
            clock,
            histogram: hist,
        });
        state.completed += 1;
        state.completed
    };
    if finished == shared.videos.len() {
        finalize(shared, task);
    }
}

/// Assemble the canonical outcome after the last subtask completes.
fn finalize(shared: &PoolShared, task: &Arc<ActiveQuery>) {
    // 1. Take the parts. Subscriptions stay open until step 3; a
    //    follower attaching in the meantime is answered in step 4.
    let parts = std::mem::take(&mut lock_recover(&task.state).parts);
    // Canonical merge: positions are in video-id order, so clock seconds
    // sum in a fixed order and the outcome is scheduling-independent.
    let mut labels = Vec::with_capacity(parts.len());
    let mut clock = SimClock::new();
    let mut histogram = ConfigHistogram::new();
    for part in parts {
        let part = part.expect("every part present at finalize");
        clock.merge(&part.clock);
        histogram.merge(&part.histogram);
        labels.push((part.video, part.labels));
    }
    let exec = ExecutionResult {
        labels,
        clock,
        histogram,
    };
    let video_refs: Vec<&Video> = shared.videos.iter().collect();
    let report = exec.evaluate(&video_refs, &task.query.classes, task.protocol);
    let result = QueryResult::from_parts(task.executor.name(), &exec, &report);

    // 2. Publish to the result cache *before* closing subscriptions, so a
    //    submission that finds the query closed is guaranteed a cache hit.
    shared.cache.insert(
        task.cache_key.clone(),
        CachedExecution {
            labels: exec.labels.clone(),
            result: result.clone(),
        },
    );

    // 3. Close: no more subscribers; drain the present ones.
    let subscribers: Vec<Subscriber> = {
        let mut state = lock_recover(&task.state);
        state.closed = true;
        state.subscribers.drain(..).collect()
    };
    {
        // Remove only our own registration: belt-and-braces against ever
        // deleting a newer identical query's entry.
        let mut inflight = lock_recover(&shared.inflight);
        if inflight
            .get(&task.cache_key)
            .is_some_and(|current| Arc::ptr_eq(current, task))
        {
            inflight.remove(&task.cache_key);
        }
    }

    // 4. Answer everyone.
    let frames = exec.total_frames();
    let device_secs = exec.clock.elapsed_secs();
    for sub in subscribers {
        let latency = sub.submitted.elapsed();
        if sub.coalesced {
            shared.metrics.on_coalesced(latency);
        } else {
            shared.metrics.on_executed(latency, device_secs, frames);
        }
        let _ = sub.tx.send(QueryOutcome {
            id: sub.id,
            query: task.query.clone(),
            priority: sub.priority,
            executor: task.executor,
            result: result.clone(),
            // Filled in at delivery by `ResponseStream` (refined per the
            // submission's IR, or the canonical full answer).
            answer: Vec::new(),
            labels: exec.labels.clone(),
            from_cache: sub.coalesced,
            latency,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, Receiver, TryRecvError};

    use zeus_apfg::{Configuration, SimulatedApfg};
    use zeus_core::baselines::ZeusSliding;
    use zeus_sim::CostModel;
    use zeus_video::video::Split;
    use zeus_video::{ActionClass, DataSource, DatasetKind};

    use super::*;
    use crate::cache::CorpusId;

    fn subscriber(id: u64, coalesced: bool) -> (Subscriber, Receiver<QueryOutcome>) {
        let (tx, rx) = channel();
        let subscriber = Subscriber {
            id: QueryId(id),
            priority: Priority::Standard,
            submitted: Instant::now(),
            tx,
            coalesced,
        };
        (subscriber, rx)
    }

    /// The coalescing protocol, driven by hand on one thread.
    #[test]
    fn follower_gets_one_outcome_and_a_late_one_is_refused() {
        let dataset = DatasetKind::Bdd100k.generate(0.05, 7);
        let mut videos = dataset.store().split(Split::Test);
        videos.sort_by_key(|v| v.id);
        let videos: Vec<Video> = videos.into_iter().cloned().collect();
        let total = videos.len();
        let obs = ObsHub::new();
        let shared = PoolShared {
            queue: AdmissionQueue::new(1),
            board: Mutex::new(Vec::new()),
            inflight: Mutex::new(HashMap::new()),
            devices: vec![Mutex::new(SimClock::new())],
            cache: Arc::new(ResultCache::new(1)),
            metrics: ServeMetrics::with_registry(&obs.metrics),
            obs,
            videos,
        };
        // Table 4's driving knob maxima, and one configuration within them.
        let apfg = SimulatedApfg::new(vec![ActionClass::CrossRight], 300, 8, 8, 7);
        let config = Configuration::new(300, 8, 2);
        let engine = Box::new(ZeusSliding::new(apfg, config, CostModel));
        let query = ActionQuery::new(ActionClass::CrossRight, 0.85).unwrap();
        let kind = ExecutorKind::ZeusSliding;
        let key = CacheKey::new(&query, CorpusId::of(&dataset), kind);
        let (owner, owner_rx) = subscriber(0, false);
        let protocol = EvalProtocol::new(1);
        let task = ActiveQuery::new(query, kind, protocol, engine, key.clone(), owner, total);
        let task = Arc::new(task);
        lock_recover(&shared.inflight).insert(key.clone(), Arc::clone(&task));

        // Every part but the last, then a follower joins.
        for i in 0..total - 1 {
            execute_part(&shared, 0, &task, i);
        }
        let (follower, follower_rx) = subscriber(1, true);
        assert!(task.subscribe(follower).is_ok());
        execute_part(&shared, 0, &task, total - 1);

        let owned = owner_rx.try_recv().expect("the owner is answered");
        let followed = follower_rx.try_recv().expect("the follower is answered");
        for rx in [&owner_rx, &follower_rx] {
            assert_eq!(rx.try_recv().unwrap_err(), TryRecvError::Disconnected);
        }
        assert!(!owned.from_cache && followed.from_cache);
        assert_eq!(followed.labels, owned.labels);
        // Finalize closed the query, and published its result first.
        assert!(task.subscribe(subscriber(2, true).0).is_err());
        let cached = shared.cache.get(&key).expect("published");
        assert_eq!(cached.labels, owned.labels);
    }
}
