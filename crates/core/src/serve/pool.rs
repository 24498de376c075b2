//! The bounded worker pool: admission control, deadlines, backpressure.
//!
//! Connection threads do no query work themselves — they parse nothing and
//! execute nothing. Every request line becomes a job submitted here, and
//! the pool's two knobs give the server its overload behavior:
//!
//! * **Admission control** — the queue is bounded. A submit against a full
//!   queue is rejected *immediately* ([`SubmitError::Full`]), and the
//!   server turns that into an `overloaded` response with a
//!   `retry_after_ms` hint. Nothing is silently dropped and nothing blocks:
//!   under overload the server sheds load at the door instead of growing
//!   an unbounded backlog (the queue is the only buffer in the system).
//! * **Deadlines** — every job records its enqueue time. A worker that
//!   dequeues a job past its deadline runs the job's *expire* path (the
//!   server answers `deadline-exceeded`) instead of its work: when the
//!   server is behind, it spends its capacity on requests whose clients
//!   are plausibly still waiting.
//!
//! Workers are plain OS threads popping from one mutex-guarded deque —
//! at protocol-message granularity the lock is uncontended noise compared
//! to query execution.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued request: what to run (given the `completed` counter, which
/// it bumps between its work and its hand-off), what to do instead if the
/// deadline passed while queued.
struct Job {
    enqueued: Instant,
    deadline: Duration,
    work: Box<dyn FnOnce(&AtomicU64) + Send>,
    expire: Box<dyn FnOnce() + Send>,
}

/// Why a submit was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; retry after backing off.
    Full,
    /// The pool is shutting down; no further work is accepted.
    Shutdown,
}

/// Pool counters, folded into the server's stats response.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs executed to completion.
    pub completed: u64,
    /// Submits rejected by admission control.
    pub rejected: u64,
    /// Jobs that aged past their deadline in the queue.
    pub expired: u64,
    /// Jobs whose work panicked (the worker unwinds and is respawned).
    pub panicked: u64,
    /// Replacement worker threads spawned after a panic unwound a worker —
    /// equal to [`PoolStats::panicked`] unless a respawn itself failed or
    /// the panic raced shutdown.
    pub respawned: u64,
    /// Jobs currently queued (not yet picked up).
    pub queued: usize,
}

struct PoolInner {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    panicked: AtomicU64,
    respawned: AtomicU64,
    /// Live worker handles. Inside `PoolInner` (not the `WorkerPool`
    /// façade) because the respawn guard registers replacement threads
    /// from *within* a dying worker.
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// A fixed-size worker pool over a bounded job queue. See the module docs.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// A pool with `workers` threads and room for `capacity` queued jobs
    /// (both clamped to at least 1).
    pub fn new(workers: usize, capacity: usize) -> WorkerPool {
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            shutdown: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
        });
        let handles: Vec<_> = (0..workers.max(1))
            .map(|i| spawn_worker(&inner, i).expect("spawn worker thread"))
            .collect();
        inner
            .workers
            .lock()
            .expect("pool workers poisoned")
            .extend(handles);
        WorkerPool { inner }
    }

    /// Submits a job. `work` runs on a worker thread; if the job instead
    /// ages past `deadline` while queued, `expire` runs (on a worker
    /// thread) and `work` never does.
    ///
    /// # Errors
    /// [`SubmitError::Full`] when the queue is at capacity (the job was
    /// not accepted — nothing will run), [`SubmitError::Shutdown`] after
    /// [`WorkerPool::shutdown`].
    pub fn submit(
        &self,
        deadline: Duration,
        work: impl FnOnce() + Send + 'static,
        expire: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        self.submit_then(deadline, work, |()| {}, expire)
    }

    /// [`WorkerPool::submit`] with a hand-off: the worker counts the job
    /// completed after `work` returns and before it runs `then` on the
    /// result. The server delivers its reply in `then`, so a client that
    /// reads [`PoolStats::completed`] right after its last answer sees that
    /// job counted; work that panics never reaches the count.
    ///
    /// # Errors
    /// As [`WorkerPool::submit`].
    pub fn submit_then<R>(
        &self,
        deadline: Duration,
        work: impl FnOnce() -> R + Send + 'static,
        then: impl FnOnce(R) + Send + 'static,
        expire: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::Shutdown);
        }
        let mut queue = self.inner.queue.lock().expect("pool queue poisoned");
        if queue.len() >= self.inner.capacity {
            drop(queue);
            self.inner.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Full);
        }
        queue.push_back(Job {
            enqueued: Instant::now(),
            deadline,
            work: Box::new(move |completed: &AtomicU64| {
                let result = work();
                completed.fetch_add(1, Ordering::Relaxed);
                then(result);
            }),
            expire: Box::new(expire),
        });
        drop(queue);
        self.inner.available.notify_one();
        Ok(())
    }

    /// The bounded queue's capacity (what admission control rejects
    /// beyond) — with [`PoolStats::queued`], the backlog fraction the
    /// `health` verb and the adaptive `retry_after_ms` hint are computed
    /// from.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Jobs currently queued (not yet picked up) — a cheaper read than
    /// assembling full [`PoolStats`] for per-rejection hint computation.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().expect("pool queue poisoned").len()
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            expired: self.inner.expired.load(Ordering::Relaxed),
            panicked: self.inner.panicked.load(Ordering::Relaxed),
            respawned: self.inner.respawned.load(Ordering::Relaxed),
            queued: self.inner.queue.lock().expect("pool queue poisoned").len(),
        }
    }

    /// Stops accepting work, drains the queue (queued jobs still run or
    /// expire), and joins the workers. Idempotent. Loops until the worker
    /// registry is empty: a panic racing shutdown may register one last
    /// replacement thread, which the next pass joins.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        loop {
            self.inner.available.notify_all();
            let handles: Vec<_> = self
                .inner
                .workers
                .lock()
                .expect("pool workers poisoned")
                .drain(..)
                .collect();
            if handles.is_empty() {
                break;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns one worker thread wearing a [`RespawnGuard`].
fn spawn_worker(
    inner: &Arc<PoolInner>,
    index: usize,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    let inner = inner.clone();
    std::thread::Builder::new()
        .name(format!("lsc-serve-worker-{index}"))
        .spawn(move || {
            let guard = RespawnGuard {
                inner: inner.clone(),
                index,
                armed: true,
            };
            worker_loop(&inner);
            guard.disarm();
        })
}

/// Armed for the lifetime of a worker thread. A clean exit (shutdown)
/// disarms it; a *panicking job* unwinds straight through `worker_loop`
/// and reaches this guard's `Drop` mid-unwind, which records the panic
/// and spawns a replacement worker. Without it an unwinding job would
/// silently shrink pool capacity until the server answers nothing but
/// `overloaded` — the submitter still gets its `internal` response
/// because the job's closures drop (and their completion slots fire)
/// during the unwind.
struct RespawnGuard {
    inner: Arc<PoolInner>,
    index: usize,
    armed: bool,
}

impl RespawnGuard {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        self.inner.panicked.fetch_add(1, Ordering::Relaxed);
        if self.inner.shutdown.load(Ordering::Acquire) {
            // Shutdown joins (and would re-join) the registry; a
            // replacement would only be torn down again.
            return;
        }
        // Everything is best-effort: this runs during an unwind, where a
        // second panic (a failed spawn, a poisoned registry) would abort
        // the process.
        if let Ok(handle) = spawn_worker(&self.inner, self.index) {
            self.inner.respawned.fetch_add(1, Ordering::Relaxed);
            if let Ok(mut workers) = self.inner.workers.lock() {
                workers.push(handle);
            }
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.available.wait(queue).expect("pool queue poisoned");
            }
        };
        // Jobs run outside the queue lock, and *without* a catch_unwind:
        // a panicking job unwinds this thread and the RespawnGuard brings
        // a replacement up, so a panic can neither poison shared state it
        // half-mutated (nothing here is half-mutated — the lock is
        // released) nor shrink capacity.
        if job.enqueued.elapsed() > job.deadline {
            inner.expired.fetch_add(1, Ordering::Relaxed);
            (job.expire)();
        } else {
            (job.work)(&inner.completed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn jobs_run_and_stats_count() {
        let pool = WorkerPool::new(2, 16);
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.submit(
                Duration::from_secs(10),
                move || tx.send(i).unwrap(),
                || panic!("should not expire"),
            )
            .unwrap();
        }
        let mut got: Vec<i32> = (0..8).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        pool.shutdown();
        assert_eq!(pool.stats().completed, 8);
        assert_eq!(pool.stats().queued, 0);
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // One worker wedged on a slow job; capacity 1 queue.
        let pool = WorkerPool::new(1, 1);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(
            Duration::from_secs(10),
            move || {
                started_tx.send(()).unwrap();
                block_rx.recv().unwrap();
            },
            || {},
        )
        .unwrap();
        started_rx.recv().unwrap(); // worker is now busy
        pool.submit(Duration::from_secs(10), || {}, || {}).unwrap(); // fills the queue
        let refused = pool.submit(Duration::from_secs(10), || {}, || {});
        assert_eq!(refused, Err(SubmitError::Full));
        assert_eq!(pool.stats().rejected, 1);
        block_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn queued_jobs_past_deadline_expire() {
        let pool = WorkerPool::new(1, 8);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(
            Duration::from_secs(10),
            move || {
                started_tx.send(()).unwrap();
                block_rx.recv().unwrap();
            },
            || {},
        )
        .unwrap();
        started_rx.recv().unwrap();
        let (tx, rx) = mpsc::channel();
        let expired_tx = tx.clone();
        pool.submit(
            Duration::from_millis(10),
            move || tx.send("ran").unwrap(),
            move || expired_tx.send("expired").unwrap(),
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(30));
        block_tx.send(()).unwrap();
        assert_eq!(rx.recv().unwrap(), "expired");
        pool.shutdown();
        assert_eq!(pool.stats().expired, 1);
    }

    #[test]
    fn panicking_jobs_do_not_kill_the_pool() {
        // One worker: if the unwound thread were not replaced, the second
        // job would never run.
        let pool = WorkerPool::new(1, 8);
        pool.submit(Duration::from_secs(10), || panic!("boom"), || {})
            .unwrap();
        let (tx, rx) = mpsc::channel();
        pool.submit(Duration::from_secs(10), move || tx.send(()).unwrap(), || {})
            .unwrap();
        rx.recv_timeout(Duration::from_secs(5))
            .expect("replacement worker ran the next job");
        pool.shutdown();
        assert_eq!(pool.stats().panicked, 1);
        assert_eq!(pool.stats().respawned, 1);
    }

    #[test]
    fn every_unwound_worker_is_respawned() {
        // More panics than workers: without respawn the pool would be dead
        // after two, and the final burst could never complete.
        let pool = WorkerPool::new(2, 32);
        for _ in 0..5 {
            pool.submit(Duration::from_secs(10), || panic!("boom"), || {})
                .unwrap();
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.submit(Duration::from_secs(10), move || tx.send(i).unwrap(), || {})
                .unwrap();
        }
        let mut got: Vec<i32> = (0..8)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<_>>());
        // The eighth send proves capacity survived, but the fifth unwind
        // may still be mid-flight — and a respawn racing `shutdown` is
        // (correctly) skipped — so let the counters settle before
        // shutting down and asserting on a quiescent pool.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().respawned < 5 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        pool.shutdown();
        assert_eq!(pool.stats().panicked, 5);
        assert_eq!(pool.stats().respawned, 5);
        assert_eq!(pool.stats().completed, 8);
    }

    #[test]
    fn shutdown_refuses_new_work_and_drains() {
        let pool = WorkerPool::new(1, 8);
        pool.shutdown();
        assert_eq!(
            pool.submit(Duration::from_secs(1), || {}, || {}),
            Err(SubmitError::Shutdown)
        );
        pool.shutdown(); // idempotent
    }
}
