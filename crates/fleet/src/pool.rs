//! The in-process worker pool: the one executor that runs [`Job`]s on
//! threads.
//!
//! Every worker loops: pick the next job in ring order that has claimable
//! work, claim a chunk of it (the same guided self-scheduling the dist
//! coordinator serves shards with), execute each cell on the worker's own
//! pooled [`SimWorkspace`] (one per worker for its whole life, so every
//! cell after the first recycles the previous cell's allocations), and
//! deliver each result to its job as it lands.  Two rules
//! keep jobs honest:
//!
//! * **fairness** — the ring cursor advances past a job after every claim,
//!   so with two jobs and two workers each job holds about half the pool
//!   regardless of which was submitted first;
//! * **backpressure** — a claim is clamped to the job's window,
//!   `(2 × workers).max(8)` cells past its merge point.  Without it, a
//!   preempted worker (common on oversubscribed or single-CPU hosts) lets
//!   its peers race arbitrarily far ahead, and the reorder buffer grows
//!   with the skew instead of the worker count.  The cell at the merge
//!   point is always inside the window, so the window cannot deadlock.
//!
//! Three topologies run on a pool: a multi-worker [`crate::FleetRunner`]
//! run (one job on a pool scoped to the run), a dist shard (one pool for
//! the connection, one job per chunk) and the `quanto-serve` daemon (many
//! jobs on one long-lived pool).  A cell that panics fails its job — whose
//! consumer resumes the panic — instead of killing its worker.

use crate::cache::ResultCache;
use crate::job::Job;
use crate::workspace::SimWorkspace;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A set of workers serving a ring of jobs (see the module docs).  The
/// pool does not own its threads: each runs [`WorkerPool::work`], spawned
/// scoped to one run or for the daemon's lifetime.
pub struct WorkerPool {
    workers: usize,
    /// The backpressure window, in cells past a job's merge point.
    window: usize,
    state: Mutex<PoolState>,
    /// Workers park here when no job has claimable work.
    work: Condvar,
    /// Set once no job will be submitted any more.
    closed: AtomicBool,
    shutdown: AtomicBool,
    /// Cells executed so far, across every job.
    executed: AtomicU64,
}

#[derive(Default)]
struct PoolState {
    /// Jobs that may still have queued cells, in submission order.
    ring: Vec<Arc<Job>>,
    /// Next ring slot to offer work from.
    rr: usize,
    /// Workers parked on a closed backpressure window.
    stalled: usize,
}

enum Claim {
    Chunk(Arc<Job>, Vec<usize>),
    /// Some job has queued cells, but all of them are past its window.
    Stalled,
    Idle,
}

impl WorkerPool {
    /// A pool for `workers` worker threads (clamped to at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        WorkerPool {
            workers,
            window: (2 * workers).max(8),
            state: Mutex::default(),
            work: Condvar::new(),
            closed: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            executed: AtomicU64::new(0),
        }
    }

    /// Runs `body` against a pool of `workers` scoped threads executing
    /// through `cache`, then shuts the pool down and joins it — also when
    /// `body` unwinds, so a panic propagates instead of hanging.
    pub(crate) fn scoped<R>(
        workers: usize,
        cache: Option<&ResultCache>,
        body: impl FnOnce(&WorkerPool) -> R,
    ) -> R {
        let pool = WorkerPool::new(workers);
        std::thread::scope(|scope| {
            for worker in 0..pool.workers {
                let pool = &pool;
                scope.spawn(move || pool.work(worker, cache));
            }
            let _stop = ShutdownOnDrop(&pool);
            body(&pool)
        })
    }

    /// The worker count (the chunk-size denominator).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cells executed so far, across every job.
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// Adds a job to the ring; its queued cells become claimable.
    pub fn submit(&self, job: Arc<Job>) {
        self.lock().ring.push(job);
        self.work.notify_all();
    }

    /// Declares that no job will be submitted any more: from now on a
    /// worker exits as soon as nothing is left for it to claim.  A pool
    /// that lives for one job closes right after submitting it, so each
    /// worker hands its workspace back while its peers finish — idling
    /// until shutdown instead left the allocator holding hundreds of MiB
    /// across a 1024-node sweep's runs.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.notify();
    }

    /// Stops every worker after its current cell.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.notify();
    }

    /// One worker's loop, executing through `cache` until
    /// [`WorkerPool::shutdown`], or until a closed pool (one that will get
    /// no more jobs) has nothing left to claim.  Its `worker` span is open
    /// while it has work, and it flushes its obs data each time it goes
    /// idle.
    pub fn work(&self, worker: usize, cache: Option<&ResultCache>) {
        quanto_obs::set_thread_label(&format!("worker-{worker}"));
        let mut ws = SimWorkspace::new();
        let mut busy = None;
        let mut st = self.lock();
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.claim(&mut st) {
                Claim::Chunk(job, chunk) => {
                    drop(st);
                    busy.get_or_insert_with(|| quanto_obs::span("worker"));
                    self.run_chunk(&job, chunk, cache, &mut ws);
                    st = self.lock();
                }
                Claim::Stalled => {
                    busy.get_or_insert_with(|| quanto_obs::span("worker"));
                    let _stall_span = quanto_obs::span("stall");
                    quanto_obs::counter_add("runner.backpressure_stalls", 1);
                    st.stalled += 1;
                    st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.stalled -= 1;
                }
                Claim::Idle if self.closed.load(Ordering::Relaxed) => break,
                Claim::Idle => {
                    if let Some(span) = busy.take() {
                        drop(span);
                        drop(st);
                        quanto_obs::flush_thread();
                        st = self.lock();
                    } else {
                        st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        drop(st);
        drop(busy);
        // Scoped joins return before TLS destructors run, so the dump must
        // be flushed explicitly for a harvest right after the join.
        quanto_obs::flush_thread();
    }

    /// Picks the next claimable job round-robin and claims one chunk of
    /// it, clamped to the job's backpressure window.
    fn claim(&self, st: &mut PoolState) -> Claim {
        // Jobs with nothing left to claim leave the ring; their cells in
        // flight still deliver.
        st.ring
            .retain(|job| !job.is_cancelled() && job.queued() > 0);
        let slots = st.ring.len();
        let mut stalled = false;
        for step in 0..slots {
            let slot = (st.rr + step) % slots;
            let job = &st.ring[slot];
            let limit = job.merged() + self.window;
            let mut chunk = job.take_chunk(self.workers as u32);
            if chunk.is_empty() {
                continue;
            }
            // Cells past the window go back to the queue front: claiming
            // them now would only grow the reorder buffer.
            let cut = chunk.partition_point(|&index| index < limit);
            job.requeue(&chunk[cut..]);
            chunk.truncate(cut);
            if chunk.is_empty() {
                stalled = true;
                continue;
            }
            let job = job.clone();
            st.rr = (slot + 1) % slots;
            return Claim::Chunk(job, chunk);
        }
        if stalled {
            Claim::Stalled
        } else {
            Claim::Idle
        }
    }

    /// Executes one claimed chunk, delivering each result as it lands.
    /// Bails between cells on cancellation or shutdown.
    fn run_chunk(
        &self,
        job: &Job,
        chunk: Vec<usize>,
        cache: Option<&ResultCache>,
        ws: &mut SimWorkspace,
    ) {
        for index in chunk {
            if job.is_cancelled() || self.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let result = job.execute(index, cache, ws);
                let _merge_span = quanto_obs::span("merge");
                job.deliver(result, None)
            }));
            self.executed.fetch_add(1, Ordering::Relaxed);
            match outcome {
                // Merging may have reopened the window for stalled workers.
                Ok(true) => self.wake_stalled(),
                Ok(false) => {}
                Err(payload) => {
                    // The cell may have left the workspace half checked
                    // out; start the next one from a fresh pool.
                    *ws = SimWorkspace::new();
                    job.fail(payload);
                    break;
                }
            }
        }
        if job.is_cancelled() {
            // Workers stalled on this job wait for merges that may never
            // come; let them move on.
            self.notify();
        }
    }

    fn wake_stalled(&self) {
        let st = self.lock();
        if st.stalled > 0 {
            quanto_obs::counter_add("runner.merge_wakeups", 1);
            self.work.notify_all();
        }
    }

    /// Wakes every parked worker.  Taking the lock first means a worker
    /// between its last check and its wait cannot miss the wake-up.
    fn notify(&self) {
        let _st = self.lock();
        self.work.notify_all();
    }

    /// The ring lock.  Every update under it is a single step (a push, a
    /// retain, a counter), so the state stays valid even if a holder
    /// panicked.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shuts a scoped pool down when its body returns or unwinds.
struct ShutdownOnDrop<'a>(&'a WorkerPool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}
