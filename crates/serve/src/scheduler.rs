//! Dynamic batching: a deadline-bounded request queue.
//!
//! The scheduler owns the tradeoff at the heart of batched serving: larger
//! batches amortise per-run overhead (weight-transform reuse, GEMM tile
//! occupancy), but waiting to fill them adds latency. The policy here is the
//! standard dynamic-batching rule — dispatch *early* the moment `max_batch`
//! requests are queued, and *flush* a partial batch once its oldest request
//! has waited `max_wait`.
//!
//! [`BatchScheduler`] is generic over the queued item so the coalescing and
//! deadline behaviour is testable with plain values; the registry (one queue
//! of inference requests per model) and `NetServer`'s connection queue
//! instantiate it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// When a batch dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch as soon as this many requests are queued (also the cap on
    /// requests per batch).
    pub max_batch: usize,
    /// Flush a partial batch once its oldest request has waited this long.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// One dispatched batch: the items plus their observed queueing telemetry.
#[derive(Debug)]
pub struct Batch<T> {
    /// The coalesced items, oldest first.
    pub items: Vec<T>,
    /// How long each item sat in the queue, aligned with `items`.
    pub waits: Vec<Duration>,
    /// Requests still queued after this batch was taken (dispatch-time
    /// backlog — the queue-depth signal the stats sample).
    pub depth_after: usize,
}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<(Instant, T)>,
    closed: bool,
}

/// A blocking multi-producer queue that hands workers deadline-coalesced
/// batches.
///
/// Producers [`BatchScheduler::submit`]; workers loop on
/// [`BatchScheduler::next_batch`], which blocks until a full batch is ready,
/// a partial batch times out, or — after [`BatchScheduler::close`] — the
/// queue drains and `None` signals shutdown.
#[derive(Debug)]
pub struct BatchScheduler<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    policy: BatchPolicy,
}

impl<T> BatchScheduler<T> {
    /// A scheduler with the given dispatch policy.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch` is zero.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be >= 1");
        Self {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            policy,
        }
    }

    /// The dispatch policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Queue operations never run user code while holding this lock, so the
    /// inner state is consistent even if a panicking thread poisoned it
    /// (e.g. an injected worker panic unwinding through a test harness).
    /// Recover instead of cascading the panic into every later submit.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Enqueues one item, stamping its arrival time. Returns `false` (and
    /// drops the item) if the scheduler is closed.
    pub fn submit(&self, item: T) -> bool {
        let mut g = self.lock();
        if g.closed {
            return false;
        }
        g.queue.push_back((Instant::now(), item));
        // Every waiting worker re-evaluates: one may now see a full batch.
        self.available.notify_all();
        true
    }

    /// Requests currently queued (not yet taken by a worker).
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Closes the queue: later submits fail, queued items still dispatch
    /// (without waiting out their deadline), and workers get `None` once the
    /// queue is empty. Idempotent.
    pub fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        self.available.notify_all();
    }

    /// Blocks until a batch is ready and takes it, or returns `None` when
    /// the scheduler is closed and drained.
    ///
    /// A batch is ready when `max_batch` items are queued, when the oldest
    /// queued item has waited `max_wait` (partial flush), or when the
    /// scheduler closes with items still queued.
    pub fn next_batch(&self) -> Option<Batch<T>> {
        let mut g = self.lock();
        loop {
            let full = g.queue.len() >= self.policy.max_batch;
            if full || (g.closed && !g.queue.is_empty()) {
                return Some(Self::drain(&mut g, self.policy.max_batch));
            }
            if let Some(&(oldest, _)) = g.queue.front() {
                let deadline = oldest + self.policy.max_wait;
                let now = Instant::now();
                if now >= deadline {
                    return Some(Self::drain(&mut g, self.policy.max_batch));
                }
                let (g2, _) = self
                    .available
                    .wait_timeout(g, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                g = g2;
            } else if g.closed {
                return None;
            } else {
                g = self.available.wait(g).unwrap_or_else(|p| p.into_inner());
            }
        }
    }

    /// Whether [`BatchScheduler::next_batch`] would return without blocking:
    /// a full batch is queued, the oldest item's deadline has passed, or the
    /// scheduler is closed with items still queued. The multi-queue registry
    /// scans this across models before deciding which queue to drain.
    pub fn has_ready(&self) -> bool {
        let g = self.lock();
        if g.queue.len() >= self.policy.max_batch || (g.closed && !g.queue.is_empty()) {
            return true;
        }
        g.queue
            .front()
            .is_some_and(|&(oldest, _)| Instant::now() >= oldest + self.policy.max_wait)
    }

    /// Takes a batch if one is ready right now, without blocking (the
    /// readiness rule of [`BatchScheduler::has_ready`]). `None` means "not
    /// ready", not shutdown — callers multiplexing several schedulers poll
    /// and sleep on their own condition variable.
    pub fn poll_batch(&self) -> Option<Batch<T>> {
        let mut g = self.lock();
        let ready = g.queue.len() >= self.policy.max_batch
            || (g.closed && !g.queue.is_empty())
            || g.queue
                .front()
                .is_some_and(|&(oldest, _)| Instant::now() >= oldest + self.policy.max_wait);
        ready.then(|| Self::drain(&mut g, self.policy.max_batch))
    }

    /// The instant at which the currently-queued work becomes ready: now if
    /// a batch is already dispatchable, the oldest item's flush deadline if
    /// one is queued, `None` when the queue is empty (nothing to wait for).
    pub fn next_deadline(&self) -> Option<Instant> {
        let g = self.lock();
        let &(oldest, _) = g.queue.front()?;
        if g.queue.len() >= self.policy.max_batch || g.closed {
            return Some(Instant::now());
        }
        Some(oldest + self.policy.max_wait)
    }

    fn drain(g: &mut Inner<T>, max_batch: usize) -> Batch<T> {
        let take = g.queue.len().min(max_batch);
        let now = Instant::now();
        let mut items = Vec::with_capacity(take);
        let mut waits = Vec::with_capacity(take);
        for (stamp, item) in g.queue.drain(..take) {
            waits.push(now.saturating_duration_since(stamp));
            items.push(item);
        }
        Batch {
            items,
            waits,
            depth_after: g.queue.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn policy(max_batch: usize, max_wait_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            max_wait: Duration::from_millis(max_wait_ms),
        }
    }

    #[test]
    fn a_queue_of_seven_coalesces_into_four_plus_three() {
        // The satellite contract: max-batch 4 over 7 queued requests must
        // dispatch 4 immediately and flush the remaining 3.
        let s = BatchScheduler::new(policy(4, 5));
        for i in 0..7 {
            assert!(s.submit(i));
        }
        let first = s.next_batch().expect("full batch ready");
        assert_eq!(first.items, vec![0, 1, 2, 3]);
        assert_eq!(first.depth_after, 3);
        let second = s.next_batch().expect("partial batch flushes");
        assert_eq!(second.items, vec![4, 5, 6]);
        assert_eq!(second.depth_after, 0);
        assert_eq!(second.waits.len(), 3);
    }

    #[test]
    fn a_partial_batch_flushes_at_the_deadline() {
        let s = BatchScheduler::new(policy(8, 20));
        s.submit(42);
        let start = Instant::now();
        let batch = s.next_batch().expect("deadline flush");
        let waited = start.elapsed();
        assert_eq!(batch.items, vec![42]);
        assert!(
            waited >= Duration::from_millis(20),
            "flushed after {waited:?}, before the 20ms deadline"
        );
        assert!(batch.waits[0] >= Duration::from_millis(20));
    }

    #[test]
    fn a_full_batch_dispatches_without_waiting() {
        // With a deadline far beyond the test's patience, a full batch must
        // still dispatch immediately.
        let s = BatchScheduler::new(policy(2, 60_000));
        s.submit(1);
        s.submit(2);
        let start = Instant::now();
        let batch = s.next_batch().expect("full batch");
        assert_eq!(batch.items, vec![1, 2]);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn close_drains_the_queue_then_signals_shutdown() {
        let s = BatchScheduler::new(policy(4, 60_000));
        s.submit(7);
        s.close();
        // The queued item dispatches at once, deadline notwithstanding.
        let batch = s.next_batch().expect("close flushes the queue");
        assert_eq!(batch.items, vec![7]);
        assert_eq!(s.next_batch().map(|b| b.items), None);
        assert!(!s.submit(8), "submit after close must fail");
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn poll_batch_takes_only_ready_work() {
        let s = BatchScheduler::new(policy(2, 60_000));
        assert!(!s.has_ready());
        assert_eq!(s.next_deadline(), None);
        s.submit(1);
        // One item, far-off deadline: queued but not ready.
        assert!(!s.has_ready());
        assert!(s.poll_batch().is_none());
        let deadline = s.next_deadline().expect("queued work has a deadline");
        assert!(deadline > Instant::now() + Duration::from_secs(30));
        // A second item fills the batch: ready right now.
        s.submit(2);
        assert!(s.has_ready());
        assert!(s.next_deadline().expect("ready now") <= Instant::now());
        assert_eq!(s.poll_batch().expect("full batch").items, vec![1, 2]);
        assert!(s.poll_batch().is_none(), "queue drained");
    }

    #[test]
    fn poll_batch_respects_the_flush_deadline_and_close() {
        let s = BatchScheduler::new(policy(8, 10));
        s.submit(5);
        assert!(s.poll_batch().is_none(), "deadline not reached yet");
        std::thread::sleep(Duration::from_millis(15));
        assert!(s.has_ready(), "past the flush deadline");
        assert_eq!(s.poll_batch().expect("deadline flush").items, vec![5]);
        // Close makes queued items immediately ready.
        s.submit(6);
        s.close();
        assert!(!s.submit(7));
        assert!(s.has_ready());
        assert_eq!(s.poll_batch().expect("close flush").items, vec![6]);
        assert!(!s.has_ready(), "closed and drained");
    }

    #[test]
    fn workers_block_until_work_arrives() {
        use std::sync::Arc;
        let s = Arc::new(BatchScheduler::new(policy(4, 5)));
        let worker = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.next_batch().map(|b| b.items))
        };
        std::thread::sleep(Duration::from_millis(10));
        s.submit(1);
        assert_eq!(worker.join().unwrap(), Some(vec![1]));
    }
}
