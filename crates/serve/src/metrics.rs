//! The daemon's metrics rendering.
//!
//! One deterministic text document ([`quanto_obs::Registry::to_text`]
//! format: `counter`/`gauge`/`histogram` lines, key-ascending) combining
//! three sources:
//!
//! * `serve.*` counters and gauges maintained by the daemon itself
//!   (jobs submitted/completed/cancelled, cells executed, query counts);
//! * per-running-job progress gauges (`serve.job.<id>.merged` / `.total`);
//! * everything the worker pool recorded through `quanto-obs` (spans,
//!   `cache.hits` / `cache.misses` / `cache.writes`, engine counters),
//!   merged via [`quanto_obs::harvest`].
//!
//! Harvest drains, so the renderer folds each harvest into a persistent
//! registry first — repeated queries are monotonic, not windowed.

use crate::registry::Shared;
use std::sync::atomic::Ordering;

/// Renders the current metrics text.
pub(crate) fn render(shared: &Shared) -> String {
    // Fold the newest thread dumps into the persistent registry.
    quanto_obs::flush_thread();
    let mut reg = {
        let mut acc = shared.obs_merged.lock().expect("obs registry poisoned");
        acc.merge(&quanto_obs::harvest().merged);
        acc.clone()
    };

    let s = &shared.stats;
    reg.counter_add(
        "serve.jobs.submitted",
        s.jobs_submitted.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "serve.jobs.completed",
        s.jobs_completed.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "serve.jobs.cancelled",
        s.jobs_cancelled.load(Ordering::Relaxed),
    );
    reg.counter_add("serve.scenarios.executed", shared.pool.executed());
    reg.counter_add("serve.scenarios.warm", s.warm_hits.load(Ordering::Relaxed));
    reg.counter_add(
        "serve.queries.partial",
        s.partial_queries.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "serve.queries.metrics",
        s.metrics_queries.load(Ordering::Relaxed),
    );
    reg.counter_add(
        "serve.errors.protocol",
        s.protocol_errors.load(Ordering::Relaxed),
    );
    reg.gauge_set("serve.workers", shared.pool.workers() as u64);

    {
        let table = shared.jobs.lock().expect("job table poisoned");
        reg.gauge_set("serve.jobs.active", table.running.len() as u64);
        for (id, job) in &table.running {
            reg.gauge_set(&format!("serve.job.{id}.merged"), job.merged() as u64);
            reg.gauge_set(&format!("serve.job.{id}.total"), job.total() as u64);
        }
    }
    reg.to_text()
}
