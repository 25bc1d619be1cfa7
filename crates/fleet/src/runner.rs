//! The fleet runner: executes a scenario batch on the calling thread or
//! across worker threads.
//!
//! Scenarios are independent simulations (each worker builds its own
//! [`os_sim::Engine`] from the plain-data [`Scenario`]), so a run is one
//! [`Job`]: workers claim cells from its queue and deliver results, and the
//! job reorders completions into submission order, folds the report digest
//! and queues a progress event per scenario.  A multi-worker run is that
//! job on a [`WorkerPool`] scoped to the run, whose backpressure window
//! bounds the reorder buffer by the worker count, not by the batch size or
//! by scheduler-induced skew; the calling thread hands the job's events to
//! `progress`.  A one-worker run is the same job on an inline executor:
//! the calling thread claims, executes and merges, which is the reference
//! execution order.  Every worker feeds the analysis through per-node log
//! sinks during the run; the [`Retention`] mode only decides whether a
//! collecting tap also keeps each log ([`Retention::Raw`]) or nothing is
//! kept at all (the default [`Retention::Stream`]).  Submission-order
//! merging together with fully-seeded scenarios makes a fleet run
//! bit-reproducible at any thread count.

use crate::cache::ResultCache;
use crate::job::{FleetProgress, Job};
use crate::pool::WorkerPool;
use crate::report::{FleetReport, ScenarioResult};
use crate::scenario::Scenario;
use crate::workspace::SimWorkspace;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What a fleet run keeps of each scenario's raw data.  Both modes run the
/// same simulation and fold the same [`crate::FleetReport::digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Retention {
    /// The zero-materialization default: every node's log streams through a
    /// sink that drives the incremental analysis and the entry digest
    /// *during* the run; no [`os_sim::NodeRunOutput::log`] is ever built,
    /// and the peak raw-entry retention of a whole sweep is zero.
    #[default]
    Stream,
    /// The same run with a collecting tap on every node's sink: each
    /// scenario's raw outputs (collected logs, empty oscilloscope traces)
    /// and analysis contexts stay in the report, for consumers that
    /// re-analyze raw logs (the figure binaries).  Costs memory
    /// proportional to the whole batch, and never touches the result cache.
    Raw,
}

/// Executes batches of [`Scenario`]s, optionally in parallel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRunner {
    threads: usize,
    retention: Retention,
}

impl FleetRunner {
    /// A runner using `threads` worker threads (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        FleetRunner {
            threads: threads.max(1),
            retention: Retention::Stream,
        }
    }

    /// A single-threaded runner (the reference execution order).
    pub fn sequential() -> Self {
        FleetRunner::new(1)
    }

    /// A runner using every hardware thread the host exposes.
    pub fn host_parallel() -> Self {
        FleetRunner::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Keeps every scenario's raw [`os_sim::NodeRunOutput`]s in the report
    /// (see [`Retention::Raw`]).  Needed by consumers that re-analyze raw
    /// logs (the figure binaries); costs memory proportional to the whole
    /// batch.
    pub fn retain_raw(mut self) -> Self {
        self.retention = Retention::Raw;
        self
    }

    /// The configured retention mode.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every scenario and merges the per-scenario results into a
    /// [`FleetReport`] ordered by submission index — the same report
    /// whatever the thread count.
    pub fn run(&self, scenarios: Vec<Scenario>) -> FleetReport {
        self.run_with_progress(scenarios, |_| {})
    }

    /// Like [`FleetRunner::run`], but forwards every progress event into an
    /// mpsc channel, so a consumer thread can print incremental results
    /// while the sweep is still running.  Send errors are ignored — a
    /// dropped receiver only silences progress, it never fails the run.
    pub fn run_to_channel(
        &self,
        scenarios: Vec<Scenario>,
        progress: mpsc::Sender<FleetProgress>,
    ) -> FleetReport {
        self.run_with_progress(scenarios, move |p| {
            let _ = progress.send(p);
        })
    }

    /// Runs every scenario, invoking `progress` (on the calling thread) each
    /// time the next scenario in submission order has merged.  Progress
    /// events arrive in submission order and carry the per-node summaries,
    /// so partial sweep results can be reported long before the batch ends.
    pub fn run_with_progress(
        &self,
        scenarios: Vec<Scenario>,
        progress: impl FnMut(FleetProgress),
    ) -> FleetReport {
        self.run_with_progress_cached(scenarios, None, progress)
    }

    /// Like [`FleetRunner::run`] with a result cache consulted before and
    /// populated after each simulation.
    pub fn run_cached(&self, scenarios: Vec<Scenario>, cache: Option<&ResultCache>) -> FleetReport {
        self.run_with_progress_cached(scenarios, cache, |_| {})
    }

    /// Like [`FleetRunner::run_with_progress`], with an optional result
    /// cache.  Every scenario whose canonical spec digest has a valid cache
    /// entry is rebuilt from disk instead of simulated (its progress event
    /// carries `cache_hit`); every freshly-simulated scenario is written
    /// back.  The cache only engages under [`Retention::Stream`] — a record
    /// holds no log, so [`Retention::Raw`] never reads or writes it — and
    /// the report is stamped with the run's cache stats.
    pub fn run_with_progress_cached(
        &self,
        scenarios: Vec<Scenario>,
        cache: Option<&ResultCache>,
        mut progress: impl FnMut(FleetProgress),
    ) -> FleetReport {
        let workers = self.threads.min(scenarios.len().max(1));
        let job = Arc::new(Job::new(scenarios, self.retention, workers, cache));
        if workers > 1 {
            return WorkerPool::scoped(workers, cache, |pool| {
                pool.submit(job.clone());
                pool.close();
                job.finish_with(progress)
            });
        }
        // The inline executor: claim, execute and merge on this thread.
        quanto_obs::set_thread_label("worker-0");
        let worker_span = quanto_obs::span("worker");
        let mut ws = SimWorkspace::new();
        let mut emit = || {
            let (events, _) = job.wait(Duration::ZERO);
            events.into_iter().for_each(&mut progress);
        };
        // Warm cells merged when the job was built.
        emit();
        loop {
            let chunk = job.take_chunk(1);
            if chunk.is_empty() {
                break;
            }
            for index in chunk {
                let result = job.execute(index, cache, &mut ws);
                let _merge_span = quanto_obs::span("merge");
                job.deliver(result, None);
                emit();
            }
        }
        drop(worker_span);
        quanto_obs::flush_thread();
        job.finish_with(progress)
    }
}

/// One scenario through the cache fast path: a valid entry skips the
/// simulation entirely; a miss simulates and writes the entry back for next
/// time.  A record holds no log, so [`Retention::Raw`] never reads or writes
/// the cache.  Pooled through `ws`: the simulation draws its allocations
/// from (and returns them to) the workspace, so a worker looping over
/// scenarios allocates like it ran one — pooling recycles capacity, never
/// state.
///
/// Public because it is the execution seam every executor shares: the
/// runner's inline executor and every [`WorkerPool`] worker (the runner's,
/// a dist shard's and the `quanto-serve` daemon's) produce their
/// per-scenario results through exactly this call, which is what makes
/// their digests byte-identical.
pub fn execute_or_cached_in(
    index: usize,
    scenario: Scenario,
    retention: Retention,
    cache: Option<&ResultCache>,
    ws: &mut SimWorkspace,
) -> ScenarioResult {
    match (retention, cache) {
        (Retention::Stream, Some(cache)) => {
            if let Some(result) = cache.probe(index, &scenario) {
                return result;
            }
            let result = ScenarioResult::execute_streaming_in(index, scenario, ws);
            cache.store(&result);
            result
        }
        (Retention::Stream, None) | (Retention::Raw, _) => {
            ScenarioResult::simulate(index, scenario, retention, ws)
        }
    }
}

impl Default for FleetRunner {
    fn default() -> Self {
        FleetRunner::host_parallel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use hw_model::SimDuration;

    fn small_batch() -> Vec<Scenario> {
        let d = SimDuration::from_secs(2);
        let mut batch = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, d);
        batch.push(Scenario::blink(d));
        batch.push(Scenario::bounce(d));
        batch
    }

    /// Satellite requirement: the same batch through 1 thread and N threads
    /// yields byte-identical reports (same seeds ⇒ same outputs, stable
    /// ordering).
    #[test]
    fn parallel_report_is_byte_identical_to_sequential() {
        let sequential = FleetRunner::sequential().retain_raw().run(small_batch());
        let parallel = FleetRunner::new(3).retain_raw().run(small_batch());
        assert_eq!(sequential.results.len(), parallel.results.len());
        // Deep check first (precise failure location)…
        for (a, b) in sequential.results.iter().zip(parallel.results.iter()) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.scenario, b.scenario);
            let (raw_a, raw_b) = (a.raw().unwrap(), b.raw().unwrap());
            for ((id_a, out_a), (id_b, out_b)) in raw_a.outputs.iter().zip(raw_b.outputs.iter()) {
                assert_eq!(id_a, id_b);
                assert_eq!(
                    out_a.log, out_b.log,
                    "scenario {} node {id_a} diverged across thread counts",
                    a.scenario.name
                );
                assert_eq!(out_a.final_stamp, out_b.final_stamp);
                assert_eq!(out_a.log_dropped, out_b.log_dropped);
            }
        }
        // …then the digest the smoke harness relies on.
        assert_eq!(sequential.digest(), parallel.digest());
    }

    /// The collecting tap must not perturb the run: with it (Raw) and
    /// without it (Stream), every scenario must see byte-identical entry
    /// streams (per-node counts and FNV digests), fold the same report
    /// digest and produce bit-identical summaries.
    #[test]
    fn streaming_path_is_byte_identical_to_materializing_path() {
        let retained = FleetRunner::new(3).retain_raw().run(small_batch());
        let streamed = FleetRunner::new(3).run(small_batch());
        assert_eq!(retained.digest(), streamed.digest());
        assert!(retained.results.iter().all(|r| r.has_raw()));
        assert!(streamed.results.iter().all(|r| !r.has_raw()));
        assert_eq!(
            retained.total_log_entries(),
            streamed.total_log_entries(),
            "both paths must account every surviving entry"
        );
        for (a, b) in retained.results.iter().zip(streamed.results.iter()) {
            // The O(1) stream residues are the byte-identity witness: equal
            // counts and equal FNV digests mean both sinks saw exactly the
            // same bytes.
            assert_eq!(a.stream_meta(), b.stream_meta(), "{}", a.scenario.name);
            for (sa, sb) in a.summaries.iter().zip(b.summaries.iter()) {
                assert_eq!(
                    sa.average_power.as_micro_watts().to_bits(),
                    sb.average_power.as_micro_watts().to_bits()
                );
                assert_eq!(
                    sa.total_energy.as_micro_joules().to_bits(),
                    sb.total_energy.as_micro_joules().to_bits()
                );
                assert_eq!(sa.radio_duty_cycle.to_bits(), sb.radio_duty_cycle.to_bits());
                assert_eq!(
                    sa.regression_error.map(f64::to_bits),
                    sb.regression_error.map(f64::to_bits)
                );
                assert_eq!(sa.log_entries, sb.log_entries);
                assert_eq!(sa.cpu_segments, sb.cpu_segments);
            }
        }
    }

    /// The default path never holds a raw entry; raw retention releases
    /// nothing, so its peak is the total.
    #[test]
    fn retention_modes_bound_peak_retention_as_documented() {
        let streamed = FleetRunner::new(4).run(small_batch());
        assert!(streamed.total_log_entries() > 0);
        assert_eq!(
            streamed.peak_entries_held(),
            0,
            "zero-materialization path must hold nothing"
        );
        let retained = FleetRunner::new(4).retain_raw().run(small_batch());
        assert_eq!(retained.peak_entries_held(), retained.total_log_entries());
    }

    #[test]
    fn progress_events_arrive_in_submission_order_with_summaries() {
        let batch = small_batch();
        let total = batch.len();
        let mut seen = Vec::new();
        let report = FleetRunner::new(3).run_with_progress(batch, |p| seen.push(p));
        assert_eq!(seen.len(), total);
        let mut last_elapsed = 0;
        for (i, p) in seen.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.completed, i + 1);
            assert_eq!(p.total, total);
            assert!(!p.summaries.is_empty());
            assert_eq!(p.name, report.results[i].scenario.name);
            assert!(p.to_json().contains(&format!("\"total\":{total}")));
            assert!(p.to_json().contains("\"elapsed_ms\":"));
            // One merged scenario is no trend; from the second on the ETA
            // extrapolates and must reach zero at the end of the batch.
            if p.completed < 2 {
                assert_eq!(p.eta_ms, None);
                assert!(p.to_json().contains("\"eta_ms\":null"));
            } else {
                assert!(p.eta_ms.is_some());
            }
            assert!(p.elapsed_ms >= last_elapsed, "elapsed must not go back");
            last_elapsed = p.elapsed_ms;
        }
        assert_eq!(seen.last().unwrap().eta_ms, Some(0));
    }

    #[test]
    fn channel_progress_matches_callback_progress() {
        let (tx, rx) = mpsc::channel();
        let report = FleetRunner::new(2).run_to_channel(small_batch(), tx);
        let events: Vec<FleetProgress> = rx.into_iter().collect();
        assert_eq!(events.len(), report.results.len());
        assert_eq!(events.last().unwrap().completed, report.results.len());
    }

    /// A panicking progress callback must propagate, not deadlock: without
    /// the abort/wake guard, workers parked on the backpressure window would
    /// wait forever for a watermark advance that never comes and the scope
    /// would never join (this test would hang).
    #[test]
    fn panicking_progress_callback_propagates_instead_of_deadlocking() {
        let seeds: Vec<u64> = (1..=16).collect();
        let batch = scenarios::lpl_grid(&seeds, &[17, 26], 0.18, SimDuration::from_millis(200));
        assert!(batch.len() > 8, "batch must exceed the backpressure window");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FleetRunner::new(4).run_with_progress(batch, |_| panic!("progress consumer failed"));
        }));
        assert!(outcome.is_err(), "the callback panic must propagate");
    }

    /// A panicking scenario must propagate out of a multi-worker run with
    /// its own payload, not hang the run or silently lose a worker.
    #[test]
    fn panicking_scenario_propagates_instead_of_deadlocking() {
        let mut batch = small_batch();
        // Channel 0 is no 802.15.4 channel: the radio refuses it mid-run.
        batch.insert(1, Scenario::lpl(0, 0.18, SimDuration::from_secs(1)));
        let outcome = std::panic::catch_unwind(|| FleetRunner::new(3).run(batch));
        let payload = outcome.expect_err("the scenario panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert!(
            message.is_some_and(|m| m.contains("802.15.4")),
            "{message:?}"
        );
    }

    /// The cache contract end to end: a cold run populates, a warm run
    /// answers every cell from disk (zero simulations) and still folds the
    /// exact digest of an uncached run.
    #[test]
    fn warm_cache_run_simulates_nothing_and_keeps_the_digest() {
        let dir =
            std::env::temp_dir().join(format!("quanto-runner-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).expect("open cache");
        let total = small_batch().len() as u64;
        let plain = FleetRunner::new(2).run(small_batch());
        assert!(plain.cache_stats().is_none(), "no cache, no stats");

        let cold = FleetRunner::new(2).run_cached(small_batch(), Some(&cache));
        assert_eq!(cold.digest(), plain.digest());
        let stats = cold.cache_stats().expect("cached run is stamped");
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, total, total));
        assert!(cold.results.iter().all(|r| !r.cache_hit()));

        let mut hits_seen = 0;
        let warm = FleetRunner::new(4).run_with_progress_cached(small_batch(), Some(&cache), |p| {
            assert!(p.cache_hit, "warm run must hit on every cell");
            assert!(p.to_json().contains("\"cache_hit\":true"));
            hits_seen += 1;
        });
        assert_eq!(hits_seen, total as usize);
        assert_eq!(warm.digest(), plain.digest(), "warm digest byte-identical");
        let stats = warm.cache_stats().expect("cached run is stamped");
        assert_eq!((stats.hits, stats.misses, stats.writes), (total, 0, 0));
        assert!(warm.results.iter().all(|r| r.cache_hit()));

        // Raw retention must bypass the cache entirely: a warm entry holds
        // no log to hand back, and a Raw run writes none.
        let raw = FleetRunner::new(2)
            .retain_raw()
            .run_cached(small_batch(), Some(&cache));
        let stats = raw.cache_stats().expect("cached run is stamped");
        assert_eq!((stats.hits, stats.misses, stats.writes), (0, 0, 0));
        assert!(raw.results.iter().all(|r| r.has_raw() && !r.cache_hit()));
        assert_eq!(raw.digest(), plain.digest());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Workspace pooling is capacity-only: running the same grid twice
    /// through one pooled workspace — including geometric mediums, whose
    /// spatial-index grid is recycled — must fold byte-identical stream
    /// digests to cold, workspace-free executions, while actually reusing
    /// the pooled per-node slots.
    #[test]
    fn pooled_workspace_reuse_is_digest_identical_to_fresh_execution() {
        use quanto_core::Fnv;
        let grid = || {
            let mut batch = small_batch();
            batch.extend(scenarios::medium_grid(SimDuration::from_secs(1)));
            batch
        };
        let fold = |results: &[ScenarioResult]| {
            let mut h = Fnv::new();
            for r in results {
                r.fold_stream_digest(&mut h);
            }
            h.finish()
        };
        let fresh: Vec<ScenarioResult> = grid()
            .into_iter()
            .enumerate()
            .map(|(i, s)| ScenarioResult::execute_streaming_in(i, s, &mut SimWorkspace::new()))
            .collect();
        let mut ws = SimWorkspace::new();
        for pass in 0..2 {
            let pooled: Vec<ScenarioResult> = grid()
                .into_iter()
                .enumerate()
                .map(|(i, s)| ScenarioResult::execute_streaming_in(i, s, &mut ws))
                .collect();
            assert_eq!(
                fold(&pooled),
                fold(&fresh),
                "pass {pass} through the pooled workspace diverged"
            );
            for (a, b) in pooled.iter().zip(fresh.iter()) {
                assert_eq!(a.stream_meta(), b.stream_meta(), "{}", a.scenario.name);
            }
        }
        assert!(ws.pooled_slots() > 0, "slots must be parked between runs");
        assert!(ws.pooled_log_buffers() > 0, "log buffers must be recycled");
    }

    #[test]
    fn report_preserves_submission_order_and_names() {
        let report = FleetRunner::new(4).run(small_batch());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert!(report.result("lpl_ch17_seed1").is_some());
        assert_eq!(
            report.result("lpl_ch26_seed2").map(|r| r.index),
            Some(3),
            "name index must point at the right submission slot"
        );
        assert!(report.result("nope").is_none());
        let table = report.summary_table();
        assert!(table.contains("lpl_ch26_seed2"), "table:\n{table}");
        let json = report.summary_json();
        assert!(json.contains("\"scenario\":\"lpl_ch26_seed2\""), "{json}");
    }

    #[test]
    fn more_threads_than_scenarios_is_fine() {
        let d = SimDuration::from_secs(1);
        let report = FleetRunner::new(16).run(vec![Scenario::idle(d)]);
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.threads, 1, "workers are clamped to the batch size");
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = FleetRunner::host_parallel().run(Vec::new());
        assert!(report.results.is_empty());
        let digest = report.digest();
        assert_eq!(digest, FleetRunner::sequential().run(Vec::new()).digest());
        assert_eq!(report.peak_entries_held(), 0);
    }
}
