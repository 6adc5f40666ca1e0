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
//! execute again: it *subscribes* to the running query, receives a replay
//! of the per-video events already finished plus everything still to
//! come, and gets its own [`QueryOutcome`] (own id, own latency, marked
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
use zeus_video::annotation::runs_from_labels;
use zeus_video::{Video, VideoId};

use zeus_obs::sync::lock_recover;
use zeus_obs::ObsHub;

use crate::admission::{AdmissionQueue, PopTimeout};
use crate::cache::{CacheKey, CachedExecution, ResultCache};
use crate::metrics::ServeMetrics;
use crate::request::{Priority, QueryId, QueryOutcome, ResponseEvent};

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
    pub(crate) tx: Sender<ResponseEvent>,
    /// False only for the original submitter; followers are reported as
    /// cache-served (they cost no execution).
    pub(crate) coalesced: bool,
}

/// Mutable per-query state behind one lock (single lock ⇒ no ordering
/// hazards between part completion, event broadcast, and subscription).
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

    /// Attach a coalesced follower, replaying already-finished videos.
    /// Fails when the query has already finalized (caller re-checks the
    /// result cache, which finalize populated first).
    pub(crate) fn subscribe(&self, subscriber: Subscriber) -> Result<(), Subscriber> {
        let mut state = lock_recover(&self.state);
        if state.closed {
            return Err(subscriber);
        }
        for part in state.parts.iter().flatten() {
            let _ = subscriber.tx.send(ResponseEvent::Video {
                video: part.video,
                segments: runs_from_labels(&part.labels),
                device: None,
            });
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

    let event = ResponseEvent::Video {
        video: video.id,
        segments: runs_from_labels(&labels),
        device: Some(worker),
    };
    let finished = {
        // Store the part and broadcast atomically, so a subscriber
        // attaching concurrently sees each video exactly once (replay or
        // broadcast, never both or neither).
        let mut state = lock_recover(&task.state);
        for sub in &state.subscribers {
            let _ = sub.tx.send(event.clone());
        }
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
    // 1. Snapshot the parts, leaving them in place: subscriptions stay
    //    open until step 3, and a follower attaching in the meantime
    //    must still receive the full per-video replay.
    let parts: Vec<Part> = {
        let state = lock_recover(&task.state);
        state
            .parts
            .iter()
            .map(|slot| {
                let part = slot.as_ref().expect("every part present at finalize");
                Part {
                    video: part.video,
                    labels: part.labels.clone(),
                    clock: part.clock.clone(),
                    histogram: part.histogram.clone(),
                }
            })
            .collect()
    };
    // Canonical merge: positions are in video-id order, so clock seconds
    // sum in a fixed order and the outcome is scheduling-independent.
    let mut labels = Vec::with_capacity(parts.len());
    let mut clock = SimClock::new();
    let mut histogram = ConfigHistogram::new();
    for part in &parts {
        labels.push((part.video, part.labels.clone()));
        clock.merge(&part.clock);
        histogram.merge(&part.histogram);
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
        let _ = sub.tx.send(ResponseEvent::Done(QueryOutcome {
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
        }));
    }
}
