//! The fleet runner: shards a scenario batch across worker threads.
//!
//! Scenarios are independent simulations (each worker builds its own
//! [`os_sim::Engine`] from the plain-data [`Scenario`]), so the only shared
//! state is the work queue — an atomic cursor over the batch — and an mpsc
//! channel from the workers to the merge loop.  The merge loop reorders
//! completions into submission order, folds the report digest and emits a
//! progress event per scenario.  Every worker feeds the analysis through
//! per-node log sinks during the run; the [`Retention`] mode only decides
//! whether a collecting tap also keeps each log ([`Retention::Raw`]) or
//! nothing is kept at all (the default [`Retention::Stream`]).  A
//! backpressure window keeps workers from racing more than ~2 × `threads`
//! scenarios ahead of the merge watermark, so the reorder buffer is bounded
//! by the window — not by the batch size, and not by scheduler-induced
//! skew.  Submission-order merging together with fully-seeded scenarios
//! makes a fleet run bit-reproducible at any thread count.

use crate::cache::{CacheStats, ResultCache};
use crate::report::{scenario_json, FleetReport, NodeSummary, ReportAccumulator, ScenarioResult};
use crate::scenario::Scenario;
use crate::workspace::SimWorkspace;
use net_sim::DeliveryCounters;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

/// One scenario's worth of incremental progress, emitted by the merge loop
/// in submission order as a sweep advances.
#[derive(Debug, Clone)]
pub struct FleetProgress {
    /// Submission index of the scenario that just merged.
    pub index: usize,
    /// Its name.
    pub name: String,
    /// Scenarios merged so far, including this one.
    pub completed: usize,
    /// Total scenarios in the batch.
    pub total: usize,
    /// The medium kind the scenario ran under.
    pub medium_kind: &'static str,
    /// The medium's delivery counters, when it tracks them.
    pub medium_counters: Option<DeliveryCounters>,
    /// The scenario's per-node summaries.
    pub summaries: Vec<NodeSummary>,
    /// Wall-clock milliseconds since the batch started.
    pub elapsed_ms: u64,
    /// Naive remaining-time estimate, extrapolated from the merged-scenario
    /// rate: `elapsed / completed × (total − completed)`.  `None` until at
    /// least two scenarios have merged (one sample is no trend).
    pub eta_ms: Option<u64>,
    /// Which shard process executed the scenario; `None` on in-process runs.
    pub shard: Option<u32>,
    /// Whether the scenario was answered from the result cache instead of
    /// simulated.
    pub cache_hit: bool,
}

impl FleetProgress {
    /// This progress event as one machine-readable JSON line (the same
    /// per-scenario shape `FleetReport::summary_json` uses, plus the
    /// completed/total counters and elapsed/ETA timings).
    pub fn to_json(&self) -> String {
        let eta = match self.eta_ms {
            Some(ms) => ms.to_string(),
            None => "null".to_string(),
        };
        let shard = match self.shard {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"completed\":{},\"total\":{},\"elapsed_ms\":{},\"eta_ms\":{},\
             \"shard\":{},\"cache_hit\":{},\"result\":{}}}",
            self.completed,
            self.total,
            self.elapsed_ms,
            eta,
            shard,
            self.cache_hit,
            self.result_json()
        )
    }

    /// Just this scenario's result object — the exact string
    /// [`crate::FleetReport::summary_json`] places in its `results` array
    /// for the same scenario.  The serve daemon's partial-result store
    /// keeps these, so a mid-sweep partial query returns a byte-exact
    /// prefix of the final summary document's `results`.
    pub fn result_json(&self) -> String {
        scenario_json(
            self.index,
            &self.name,
            self.medium_kind,
            self.medium_counters.as_ref(),
            &self.summaries,
            self.cache_hit,
        )
    }
}

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
    /// the report is stamped with this run's hit/miss/write deltas.
    pub fn run_with_progress_cached(
        &self,
        scenarios: Vec<Scenario>,
        cache: Option<&ResultCache>,
        mut progress: impl FnMut(FleetProgress),
    ) -> FleetReport {
        let stats_before = cache.map(ResultCache::stats);
        let started = Instant::now();
        let total = scenarios.len();
        let workers = self.threads.min(total.max(1));
        let retention = self.retention;
        let mut acc = ReportAccumulator::new(total, retention);

        let merge = |result: ScenarioResult,
                     acc: &mut ReportAccumulator,
                     progress: &mut dyn FnMut(FleetProgress)| {
            let completed = result.index + 1;
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let eta_ms = (completed >= 2)
                .then(|| elapsed_ms * (total - completed) as u64 / completed as u64);
            let event = FleetProgress {
                index: result.index,
                name: result.scenario.name.clone(),
                completed,
                total,
                medium_kind: result.medium_kind,
                medium_counters: result.medium_counters().ok().copied(),
                summaries: result.summaries.clone(),
                elapsed_ms,
                eta_ms,
                shard: None,
                cache_hit: result.cache_hit(),
            };
            acc.absorb(result);
            progress(event);
        };

        if workers <= 1 {
            quanto_obs::set_thread_label("worker-0");
            let worker_span = quanto_obs::span("worker");
            let mut ws = SimWorkspace::new();
            for (i, s) in scenarios.into_iter().enumerate() {
                let result = execute_or_cached_in(i, s, retention, cache, &mut ws);
                let _merge_span = quanto_obs::span("merge");
                merge(result, &mut acc, &mut progress);
            }
            drop(worker_span);
            quanto_obs::flush_thread();
        } else {
            // Backpressure window: a worker may not *start* scenario `i`
            // until fewer than `window` scenarios separate it from the merge
            // watermark.  Without this, a preempted worker (common on
            // oversubscribed or single-CPU hosts) lets its peers race
            // arbitrarily far ahead, and the reorder buffer — which must
            // hold results until the digest folds in submission order —
            // grows with the skew instead of the thread count.  The worker
            // owning the lowest unmerged index is never blocked (its index
            // equals the watermark), so the window cannot deadlock — and if
            // any thread panics, its `WakeOnUnwind` guard raises the abort
            // flag and wakes every parked waiter, so the panic propagates
            // out of `thread::scope` instead of hanging the run.
            let window = (2 * workers).max(8);
            let cursor = AtomicUsize::new(0);
            // Lock-free mirror of `MergeGate::merged`: workers comfortably
            // inside the window check this and never touch the gate mutex —
            // the common case on balanced sweeps, and the handoff that used
            // to serialize workers against the merge loop on small hosts.
            let watermark = AtomicUsize::new(0);
            let gate = Mutex::new(MergeGate {
                merged: 0,
                waiters: 0,
                abort: false,
            });
            let advanced = Condvar::new();
            let (tx, rx) = mpsc::channel::<ScenarioResult>();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    let scenarios = &scenarios;
                    let gate = &gate;
                    let advanced = &advanced;
                    let watermark = &watermark;
                    scope.spawn(move || {
                        quanto_obs::set_thread_label(&format!("worker-{w}"));
                        let _wake = WakeOnUnwind { gate, advanced };
                        let mut ws = SimWorkspace::new();
                        {
                            let _worker_span = quanto_obs::span("worker");
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                if i >= total {
                                    break;
                                }
                                // Fast path: inside the window per the
                                // atomic watermark — no lock.  (A stale read
                                // only under-approximates `merged`, so it
                                // can never admit an out-of-window start.)
                                if i >= watermark.load(Ordering::Acquire) + window {
                                    let mut g = gate.lock().unwrap_or_else(|p| p.into_inner());
                                    if i >= g.merged + window && !g.abort {
                                        // Only an actual wait opens a stall
                                        // span — an open gate costs nothing.
                                        let _stall_span = quanto_obs::span("stall");
                                        quanto_obs::counter_add("runner.backpressure_stalls", 1);
                                        g.waiters += 1;
                                        while i >= g.merged + window && !g.abort {
                                            g = advanced.wait(g).unwrap_or_else(|p| p.into_inner());
                                        }
                                        g.waiters -= 1;
                                    }
                                    if g.abort {
                                        break;
                                    }
                                }
                                let result = execute_or_cached_in(
                                    i,
                                    scenarios[i].clone(),
                                    retention,
                                    cache,
                                    &mut ws,
                                );
                                // The send wakes a parked receiver, which is
                                // where the scheduler preempts oversubscribed
                                // workers — span it so worker wall-clock
                                // still reconciles on small hosts.
                                let _send_span = quanto_obs::span("send");
                                if tx.send(result).is_err() {
                                    break;
                                }
                            }
                        }
                        // `thread::scope` returns before TLS destructors run,
                        // so the dump must be flushed explicitly — otherwise
                        // the harvest races the worker's TLS teardown.
                        quanto_obs::flush_thread();
                    });
                }
                drop(tx);
                // If the merge loop unwinds (a panicking `progress`
                // callback), wake the parked workers so the scope can join.
                let _wake = WakeOnUnwind {
                    gate: &gate,
                    advanced: &advanced,
                };
                // The merge loop: reorder completions into submission order,
                // fold, report, drop, advance the watermark.
                let mut pending: BTreeMap<usize, ScenarioResult> = BTreeMap::new();
                let mut next = 0usize;
                for result in rx {
                    pending.insert(result.index, result);
                    quanto_obs::observe("runner.reorder_window_occupancy", pending.len() as u64);
                    let before = next;
                    let _merge_span = quanto_obs::span("merge");
                    while let Some(result) = pending.remove(&next) {
                        merge(result, &mut acc, &mut progress);
                        next += 1;
                    }
                    if next != before {
                        // Publish the watermark lock-free first (workers'
                        // fast path), then update the gate — and only pay
                        // the notify syscall when someone is actually
                        // parked on the window.
                        watermark.store(next, Ordering::Release);
                        let wake = {
                            let mut g = gate.lock().unwrap_or_else(|p| p.into_inner());
                            g.merged = next;
                            g.waiters > 0
                        };
                        if wake {
                            quanto_obs::counter_add("runner.merge_wakeups", 1);
                            advanced.notify_all();
                        }
                    }
                }
                let aborted = gate.lock().unwrap_or_else(|p| p.into_inner()).abort;
                assert!(
                    aborted || pending.is_empty(),
                    "every submitted scenario merges"
                );
            });
        }
        let held = acc.entries_held();
        let mut report = acc.finish(workers, started.elapsed(), held);
        if let (Some(cache), Some(before)) = (cache, stats_before) {
            let after = cache.stats();
            report.set_cache_stats(CacheStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                writes: after.writes - before.writes,
            });
        }
        report
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
/// Public because it is the execution seam every sweep scheduler shares:
/// the in-process runner's workers, the dist shards (via their own
/// `FleetRunner`) and the `quanto-serve` daemon's pool all produce their
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
            if let Some(result) = cache.load_result(index, &scenario) {
                return result;
            }
            let result = ScenarioResult::execute_streaming_in(index, scenario, ws);
            cache.store_record(&result.scenario, &result.to_record());
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

/// The backpressure gate the merge loop advances and workers wait on.
struct MergeGate {
    /// Scenarios merged so far (the next index to merge).
    merged: usize,
    /// Workers currently parked on the window — lets the merge loop skip
    /// the notify syscall entirely when nobody is waiting (the common case).
    waiters: usize,
    /// Raised when any thread unwinds, so parked waiters exit instead of
    /// waiting for a watermark advance that will never come.
    abort: bool,
}

/// Drop guard held by every worker and by the merge loop: if its thread
/// unwinds, it raises the abort flag and wakes every parked waiter so the
/// panic propagates out of `thread::scope` instead of deadlocking the run.
struct WakeOnUnwind<'a> {
    gate: &'a Mutex<MergeGate>,
    advanced: &'a Condvar,
}

impl Drop for WakeOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.gate
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .abort = true;
        }
        self.advanced.notify_all();
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
