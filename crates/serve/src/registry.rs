//! The daemon's tenancy: job ids, the shared pool and cache, and counters.
//!
//! A job is the daemon's unit of tenancy.  Submission expands the grid
//! into a [`Job`] — which probes the result cache for every cell (hits
//! merge at once and never enter the queue) — registers it under a fresh
//! id, and hands it to the one shared [`WorkerPool`].  The job itself
//! reorders, folds and emits progress exactly as an in-process
//! `FleetRunner` run does, which is what makes a served job's stream digest
//! byte-identical to the in-process run.

use crate::ServeConfig;
use quanto_fleet::{GridOverrides, GridSpec, Job, ResultCache, Retention, WorkerPool};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many finished jobs stay queryable after their session sent `final`.
pub(crate) const FINISHED_RETAINED: usize = 64;

/// Daemon-lifetime counters, mirrored into the metrics rendering.
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    pub(crate) jobs_submitted: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_cancelled: AtomicU64,
    pub(crate) warm_hits: AtomicU64,
    pub(crate) partial_queries: AtomicU64,
    pub(crate) metrics_queries: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
}

/// Everything the worker pool, the accept loop and the sessions share.
pub(crate) struct Shared {
    /// The pool every job's cells run on.
    pub(crate) pool: WorkerPool,
    /// The shared result cache, probed at submit and written back by the
    /// workers.
    pub(crate) cache: Option<ResultCache>,
    pub(crate) jobs: Mutex<JobTable>,
    /// Raised once; the accept loop exits at the next check.
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: ServeStats,
    /// Obs registries harvested so far — metrics queries merge the latest
    /// harvest in here so repeated queries stay monotonic even though
    /// [`quanto_obs::harvest`] drains.
    pub(crate) obs_merged: Mutex<quanto_obs::Registry>,
}

impl Shared {
    pub(crate) fn new(config: &ServeConfig) -> std::io::Result<Shared> {
        let cache = match &config.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        Ok(Shared {
            pool: WorkerPool::new(config.workers),
            cache,
            jobs: Mutex::new(JobTable::default()),
            shutdown: AtomicBool::new(false),
            stats: ServeStats::default(),
            obs_merged: Mutex::new(quanto_obs::Registry::default()),
        })
    }

    /// Cancels `job`, counting it if this call did the cancelling.
    pub(crate) fn cancel(&self, job: &Job) {
        if job.cancel() {
            self.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The job with id `id`: running, or among the most recent finished.
    pub(crate) fn lookup(&self, id: u64) -> Option<Arc<Job>> {
        let table = self.jobs.lock().expect("job table poisoned");
        table.running.get(&id).cloned().or_else(|| {
            table
                .finished
                .iter()
                .find(|(finished, _)| *finished == id)
                .map(|(_, job)| job.clone())
        })
    }
}

/// The job ids: jobs whose session is still streaming, and the most recent
/// jobs whose session delivered `final`.
#[derive(Default)]
pub(crate) struct JobTable {
    pub(crate) running: BTreeMap<u64, Arc<Job>>,
    /// Oldest first, at most [`FINISHED_RETAINED`] long.
    finished: VecDeque<(u64, Arc<Job>)>,
    next_id: u64,
}

/// Expands and registers one submitted grid, returning its id and job.
/// Warm cells merge before this returns, so an all-warm job arrives
/// already complete.
pub(crate) fn submit(
    shared: &Shared,
    grid_text: &str,
    overrides: &GridOverrides,
) -> Result<(u64, Arc<Job>), String> {
    let mut spec = GridSpec::parse(grid_text).map_err(|e| format!("grid error: {e}"))?;
    overrides
        .apply(&mut spec)
        .map_err(|e| format!("override error: {e}"))?;
    let scenarios = spec.expand().map_err(|e| format!("grid error: {e}"))?;
    if scenarios.is_empty() {
        return Err("grid expands to zero scenarios".to_string());
    }
    let job = Arc::new(Job::new(
        scenarios,
        Retention::Stream,
        shared.pool.workers(),
        shared.cache.as_ref(),
    ));
    shared
        .stats
        .warm_hits
        .fetch_add(job.warm() as u64, Ordering::Relaxed);
    let id = {
        let mut table = shared.jobs.lock().expect("job table poisoned");
        table.next_id += 1;
        let id = table.next_id;
        table.running.insert(id, job.clone());
        id
    };
    shared.stats.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    if job.queued() > 0 {
        shared.pool.submit(job.clone());
    }
    Ok((id, job))
}

/// Unregisters a job once its session has ended.  A job whose session
/// delivered `final` stays queryable among the [`FINISHED_RETAINED`] most
/// recent; any other is forgotten.
pub(crate) fn retire(shared: &Shared, id: u64, delivered: bool) {
    let mut table = shared.jobs.lock().expect("job table poisoned");
    if let Some(job) = table.running.remove(&id) {
        if delivered {
            table.finished.push_back((id, job));
            if table.finished.len() > FINISHED_RETAINED {
                table.finished.pop_front();
            }
        }
    }
}
