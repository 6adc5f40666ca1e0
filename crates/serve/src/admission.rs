//! Bounded admission queue with priority classes and load shedding.
//!
//! The queue enforces a hard bound shared across the three
//! [`Priority`] classes: a submission arriving at a full queue is *shed*
//! (rejected with [`AdmitError::QueueFull`]) instead of growing an
//! unbounded backlog — the standard open-system defence against
//! collapse under overload.
//!
//! Dequeue follows a fixed cyclic schedule weighted toward higher
//! priorities (`interactive ×4, standard ×2, batch ×1`). Every class
//! appears in the schedule, so as long as a class has waiting work it is
//! served at least once per cycle — weighted service *without* starvation,
//! unlike strict priority popping.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use zeus_obs::sync::{lock_recover, wait_recover, wait_timeout_recover};

use crate::request::Priority;

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The queue is at capacity; the request was shed.
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// No plan is installed for the query (see `PlanStore`); the server
    /// refuses work it would have to RL-train for inline.
    NoPlan {
        /// Catalog key of the missing plan.
        key: String,
    },
    /// The query's ZQL `FROM <dataset>` names a corpus this server does
    /// not serve (each server instance is bound to one data source).
    WrongDataset {
        /// The dataset the query asked for.
        requested: String,
        /// The dataset this server serves.
        serving: String,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull { capacity } => {
                write!(
                    f,
                    "admission queue full (capacity {capacity}); request shed"
                )
            }
            AdmitError::ShuttingDown => write!(f, "server is shutting down"),
            AdmitError::NoPlan { key } => write!(f, "no stored plan for query '{key}'"),
            AdmitError::WrongDataset { requested, serving } => write!(
                f,
                "query targets dataset '{requested}' but this server serves '{serving}'"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// The weighted cyclic dequeue schedule (class indices).
const SCHEDULE: [usize; 7] = [0, 0, 1, 0, 1, 0, 2];

/// Outcome of a bounded-wait pop.
#[derive(Debug, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was dequeued.
    Item(T, Priority),
    /// The wait expired with the queue still empty (and open).
    Empty,
    /// The queue is closed and drained; no more items will ever arrive.
    Closed,
}

struct Inner<T> {
    queues: [VecDeque<T>; 3],
    len: usize,
    cursor: usize,
    closed: bool,
}

/// A bounded, priority-classed MPMC queue.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// Create a queue holding at most `capacity` items across all classes.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            inner: Mutex::new(Inner {
                queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                cursor: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued across all classes.
    pub fn depth(&self) -> usize {
        lock_recover(&self.inner).len
    }

    /// Try to admit `item`; returns the post-admission depth, or sheds.
    pub fn try_push(&self, item: T, priority: Priority) -> Result<usize, AdmitError> {
        let mut inner = lock_recover(&self.inner);
        if inner.closed {
            return Err(AdmitError::ShuttingDown);
        }
        if inner.len >= self.capacity {
            return Err(AdmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        inner.queues[priority.index()].push_back(item);
        inner.len += 1;
        let depth = inner.len;
        drop(inner);
        self.available.notify_one();
        Ok(depth)
    }

    /// Pop the next item per the weighted schedule, blocking while the
    /// queue is empty. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop_blocking(&self) -> Option<(T, Priority)> {
        let mut inner = lock_recover(&self.inner);
        loop {
            if inner.len > 0 {
                return Some(Self::pop_scheduled(&mut inner));
            }
            if inner.closed {
                return None;
            }
            inner = wait_recover(&self.available, inner);
        }
    }

    /// Non-blocking pop (used by idle workers probing between steals).
    pub fn try_pop(&self) -> Option<(T, Priority)> {
        let mut inner = lock_recover(&self.inner);
        if inner.len == 0 {
            return None;
        }
        Some(Self::pop_scheduled(&mut inner))
    }

    /// Pop with a bounded wait, so idle workers can alternate between the
    /// queue and the work-stealing board without missing either.
    pub fn pop_timeout(&self, timeout: std::time::Duration) -> PopTimeout<T> {
        let mut inner = lock_recover(&self.inner);
        if inner.len == 0 && !inner.closed {
            let (guard, _) = wait_timeout_recover(&self.available, inner, timeout);
            inner = guard;
        }
        if inner.len > 0 {
            let (item, priority) = Self::pop_scheduled(&mut inner);
            PopTimeout::Item(item, priority)
        } else if inner.closed {
            PopTimeout::Closed
        } else {
            PopTimeout::Empty
        }
    }

    fn pop_scheduled(inner: &mut Inner<T>) -> (T, Priority) {
        debug_assert!(inner.len > 0);
        // Walk the cyclic schedule from the cursor; every class appears in
        // it, so a non-empty class is found within one full cycle.
        for step in 0..SCHEDULE.len() {
            let class = SCHEDULE[(inner.cursor + step) % SCHEDULE.len()];
            if let Some(item) = inner.queues[class].pop_front() {
                inner.cursor = (inner.cursor + step + 1) % SCHEDULE.len();
                inner.len -= 1;
                return (item, Priority::ALL[class]);
            }
        }
        unreachable!("len > 0 but every class queue was empty");
    }

    /// Close the queue: pending items still drain, new pushes are refused,
    /// and blocked poppers wake up.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bound_is_enforced_and_shed_reported() {
        let q = AdmissionQueue::new(2);
        assert_eq!(q.try_push(1, Priority::Standard), Ok(1));
        assert_eq!(q.try_push(2, Priority::Standard), Ok(2));
        assert_eq!(
            q.try_push(3, Priority::Interactive),
            Err(AdmitError::QueueFull { capacity: 2 })
        );
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn weighted_schedule_prefers_interactive_without_starving_batch() {
        let q = AdmissionQueue::new(64);
        for i in 0..7 {
            q.try_push(i, Priority::Interactive).unwrap();
            q.try_push(100 + i, Priority::Batch).unwrap();
        }
        // Over one full schedule cycle, batch must be served at least once
        // while interactive gets the lion's share.
        let first_cycle: Vec<Priority> = (0..7).map(|_| q.pop_blocking().unwrap().1).collect();
        let interactive = first_cycle
            .iter()
            .filter(|p| **p == Priority::Interactive)
            .count();
        let batch = first_cycle
            .iter()
            .filter(|p| **p == Priority::Batch)
            .count();
        assert!(interactive >= 4, "interactive served {interactive}/7");
        assert!(batch >= 1, "batch starved in a full cycle");
    }

    #[test]
    fn falls_through_to_lower_classes_when_higher_are_empty() {
        let q = AdmissionQueue::new(8);
        q.try_push(9, Priority::Batch).unwrap();
        assert_eq!(q.pop_blocking(), Some((9, Priority::Batch)));
    }

    #[test]
    fn close_drains_then_signals_end() {
        let q = AdmissionQueue::new(8);
        q.try_push(1, Priority::Standard).unwrap();
        q.close();
        assert_eq!(
            q.try_push(2, Priority::Standard),
            Err(AdmitError::ShuttingDown)
        );
        assert_eq!(q.pop_blocking(), Some((1, Priority::Standard)));
        assert_eq!(q.pop_blocking(), None);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(AdmissionQueue::new(16));
        let producers = 4;
        let per_producer = 50usize;
        let consumed = std::thread::scope(|s| {
            let producer_handles: Vec<_> = (0..producers)
                .map(|p| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut sent = 0;
                        while sent < per_producer {
                            let priority = Priority::ALL[(p + sent) % 3];
                            if q.try_push(p * 1000 + sent, priority).is_ok() {
                                sent += 1;
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        while let Some((item, _)) = q.pop_blocking() {
                            got.push(item);
                        }
                        got
                    })
                })
                .collect();
            for h in producer_handles {
                h.join().unwrap();
            }
            q.close();
            consumers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(consumed.len(), producers * per_producer);
        let mut sorted = consumed.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), consumed.len(), "no item duplicated");
    }
}
