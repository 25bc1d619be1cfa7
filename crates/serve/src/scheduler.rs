//! The shared worker pool and its fair round-robin chunk scheduler.
//!
//! Every worker loops: pick the next job in ring order that has claimable
//! work, take a chunk of its queue with [`take_chunk`] (the same guided
//! self-scheduling the dist coordinator serves shards with), execute each
//! cell through [`execute_or_cached_in`] on the worker's own pooled
//! [`SimWorkspace`] (one per worker for its whole life, so every cell after
//! the first recycles the previous cell's allocations), and hand the
//! results to the job's reorder buffer.  Two rules keep tenants honest:
//!
//! * **fairness** — the ring cursor advances past a job after every claim,
//!   so with two jobs and two workers each job holds about half the pool
//!   regardless of which was submitted first;
//! * **backpressure** — a job whose queue front is more than
//!   `window` cells ahead of its merge point is skipped until its session
//!   drains, bounding the reorder buffer exactly like the in-process
//!   runner's merge gate.

use crate::registry::{Job, Shared};
use quanto_fleet::dist::take_chunk;
use quanto_fleet::{execute_or_cached_in, Retention, SimWorkspace};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One pool worker; runs until shutdown.
pub(crate) fn worker_loop(shared: Arc<Shared>, worker: usize) {
    quanto_obs::set_thread_label(&format!("serve-worker-{worker}"));
    let mut ws = SimWorkspace::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match claim(&shared) {
            Some((job, chunk)) => run_chunk(&shared, &job, chunk, &mut ws),
            None => {
                let table = shared.registry.lock().expect("job table poisoned");
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                // Parked until a submit/merge notifies; the timeout only
                // bounds the race where the notify lands between our failed
                // claim and this wait.
                let _ = shared
                    .work
                    .wait_timeout(table, Duration::from_millis(25))
                    .expect("job table poisoned");
            }
        }
    }
    quanto_obs::flush_thread();
}

/// Picks the next claimable job round-robin and takes one chunk, clamped
/// to the job's backpressure window.  `None` when no job has work a
/// worker may start right now.
fn claim(shared: &Shared) -> Option<(Arc<Job>, Vec<usize>)> {
    let mut table = shared.registry.lock().expect("job table poisoned");
    let slots = table.ring.len();
    for step in 0..slots {
        let slot = (table.rr + step) % slots;
        let id = table.ring[slot];
        let Some(job) = table.jobs.get(&id).cloned() else {
            continue;
        };
        if job.cancelled.load(Ordering::Relaxed) {
            continue;
        }
        let limit = job.state.lock().expect("job state poisoned").merged + shared.window;
        {
            let queue = job.queue.lock().expect("job queue poisoned");
            match queue.front() {
                None => continue,
                // The whole queue front is past the window: backpressured.
                Some(&front) if front >= limit => continue,
                Some(_) => {}
            }
        }
        let mut chunk = take_chunk(&job.queue, shared.workers.max(1) as u32);
        // Return the tail beyond the window to the queue front; claiming it
        // now would only bloat the reorder buffer.
        if let Some(cut) = chunk.iter().position(|&i| i >= limit) {
            let mut queue = job.queue.lock().expect("job queue poisoned");
            for &i in chunk[cut..].iter().rev() {
                queue.push_front(i);
            }
            chunk.truncate(cut);
        }
        if chunk.is_empty() {
            continue;
        }
        table.rr = (slot + 1) % slots;
        return Some((job, chunk));
    }
    None
}

/// Executes one claimed chunk, feeding each result to the job's reorder
/// buffer as it lands.  Bails between cells if the job is cancelled.
fn run_chunk(shared: &Shared, job: &Arc<Job>, chunk: Vec<usize>, ws: &mut SimWorkspace) {
    let span = quanto_obs::span_with("serve.chunk", &chunk.len().to_string());
    for index in chunk {
        if job.cancelled.load(Ordering::Relaxed) {
            break;
        }
        let result = execute_or_cached_in(
            index,
            job.scenarios[index].clone(),
            Retention::Stream,
            shared.cache.as_ref(),
            ws,
        );
        shared
            .stats
            .scenarios_executed
            .fetch_add(1, Ordering::Relaxed);
        job.deliver(index, result, shared);
        // Merging may have reopened this job's backpressure window.
        shared.work.notify_all();
    }
    drop(span);
    quanto_obs::flush_thread();
}
