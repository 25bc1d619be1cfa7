//! One sweep's scheduling state: the seam every execution topology shares.
//!
//! A [`Job`] owns a sweep's expanded scenarios and everything between
//! "which cell runs next" and "fold it into the report":
//!
//! * the submit-time cache probe — warm cells merge the moment the job is
//!   built and never enter the queue;
//! * the unclaimed-index queue, served in guided chunks by `take_chunk`
//!   and refilled at its front by `requeue`;
//! * the reorder buffer and the [`ReportAccumulator`], which fold results
//!   strictly in submission order whatever order they are delivered in;
//! * the per-job cache stats, cancellation, and the one place where
//!   [`FleetProgress`] events and their ETA are built.
//!
//! Executors only claim, execute and `deliver`.  There are two
//! kinds: the in-process [`crate::WorkerPool`] (a multi-worker
//! [`crate::FleetRunner`] run, a dist shard's workers, the `quanto-serve`
//! daemon) with the runner's inline executor as its one-thread special
//! case, and the dist coordinator, whose connection handlers deliver the
//! records shards send back.  Because every topology folds through this
//! one type, a sweep's digest is byte-identical however it was scheduled.

use crate::cache::{CacheStats, ResultCache};
use crate::report::{
    results_json, scenario_json, FleetReport, NodeSummary, ReportAccumulator, ScenarioResult,
};
use crate::runner::{execute_or_cached_in, Retention};
use crate::scenario::Scenario;
use crate::workspace::SimWorkspace;
use net_sim::DeliveryCounters;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One scenario's worth of incremental progress, emitted in submission
/// order as a sweep advances.
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
    /// Wall-clock milliseconds from the job's start until the event was
    /// handed to the job's consumer.
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
    /// This progress event as one machine-readable JSON line: under
    /// `result`, the exact object [`crate::FleetReport::summary_json`]
    /// places in its `results` array for the same scenario, plus the
    /// completed/total counters and elapsed/ETA timings.
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
            scenario_json(
                self.index,
                &self.name,
                self.medium_kind,
                self.medium_counters.as_ref(),
                &self.summaries,
                self.cache_hit,
            )
        )
    }
}

/// Where a job stands, as [`Job::wait`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Cells are still outstanding.
    Running,
    /// Every cell merged; the report is ready.
    Finished,
    /// Cancelled, or failed because a cell panicked, before finishing.
    Cancelled,
}

/// One sweep: its scenarios, claim queue, reorder buffer and report (see
/// the module docs).
pub struct Job {
    scenarios: Vec<Scenario>,
    retention: Retention,
    /// Whether a result cache was in play, so the report carries cache
    /// stats.
    cached: bool,
    /// Display metadata for the report: the executor's worker count.
    threads: usize,
    warm: usize,
    started: Instant,
    /// Indices not yet claimed by an executor, ascending unless requeued.
    queue: Mutex<VecDeque<usize>>,
    state: Mutex<State>,
    /// Signalled, under the state lock, on every merge, on completion, on
    /// cancellation and on a requeue.
    changed: Condvar,
    cancelled: AtomicBool,
}

/// The mutable half of a job, behind its lock.
struct State {
    /// `Some` until the last cell merges, then finished into `report`.
    acc: Option<ReportAccumulator>,
    report: Option<FleetReport>,
    /// Delivered cells waiting for their submission-order turn.
    pending: BTreeMap<usize, ScenarioResult>,
    /// The shard that executed each delivered cell, by index.
    shards: Vec<Option<u32>>,
    /// Cells merged so far (also the next index to merge).
    merged: usize,
    /// Merged cells whose progress event the consumer has been handed.
    emitted: usize,
    /// Merged cells answered from the cache.
    hits: u64,
    /// The payload of a cell that panicked on an executor.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Builds a job over `scenarios`.  With a cache under
    /// [`Retention::Stream`] every cell is probed first: hits merge at once
    /// and only misses are queued.  `threads` is the executor's worker
    /// count, recorded in the report for display.
    pub fn new(
        scenarios: Vec<Scenario>,
        retention: Retention,
        threads: usize,
        cache: Option<&ResultCache>,
    ) -> Job {
        let total = scenarios.len();
        let probe = cache.filter(|_| retention == Retention::Stream);
        let mut pending = BTreeMap::new();
        let mut queue = VecDeque::with_capacity(total);
        for (i, scenario) in scenarios.iter().enumerate() {
            match probe.and_then(|c| c.probe(i, scenario)) {
                Some(result) => {
                    pending.insert(i, result);
                }
                None => queue.push_back(i),
            }
        }
        let job = Job {
            warm: pending.len(),
            scenarios,
            retention,
            cached: cache.is_some(),
            threads,
            started: Instant::now(),
            queue: Mutex::new(queue),
            state: Mutex::new(State {
                acc: Some(ReportAccumulator::new(total, retention)),
                report: None,
                pending,
                shards: vec![None; total],
                merged: 0,
                emitted: 0,
                hits: 0,
                panic: None,
            }),
            changed: Condvar::new(),
            cancelled: AtomicBool::new(false),
        };
        job.merge_ready(&mut job.lock());
        job
    }

    /// Scenarios in the sweep.
    pub fn total(&self) -> usize {
        self.scenarios.len()
    }

    /// Cells the submit-time cache probe answered.
    pub fn warm(&self) -> usize {
        self.warm
    }

    /// The scenario at submission index `index`.
    pub(crate) fn scenario(&self, index: usize) -> Option<&Scenario> {
        self.scenarios.get(index)
    }

    /// Cells not yet claimed by an executor.
    pub fn queued(&self) -> usize {
        self.queue().len()
    }

    /// Cells merged so far.
    pub fn merged(&self) -> usize {
        self.lock().merged
    }

    /// Claims the next chunk of queued indices: guided self-scheduling,
    /// where every claim takes `1/(2 × claimants)` of what remains (never
    /// less than one).  Big early chunks amortize round-trips; the tail
    /// shrinks to single scenarios so no claimant can hoard work it is too
    /// slow to finish.  Empty when nothing is queued.
    pub(crate) fn take_chunk(&self, claimants: u32) -> Vec<usize> {
        take_chunk(&self.queue, claimants)
    }

    /// Claims like [`Job::take_chunk`], but while the queue is empty and
    /// the job still runs, waits until a requeue refills it or the job
    /// finishes or is cancelled.  Empty only once the job is over, so a
    /// claimant told there is nothing left never leaves while cells a peer
    /// holds could still come back.
    pub(crate) fn claim_or_wait(&self, claimants: u32) -> Vec<usize> {
        let mut st = self.lock();
        loop {
            let chunk = self.take_chunk(claimants);
            if !chunk.is_empty() || st.report.is_some() || self.is_cancelled() {
                return chunk;
            }
            st = self
                .changed
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Puts claimed but undelivered indices back at the front of the
    /// queue, in their original order, so they are claimed next, and wakes
    /// any [`Job::claim_or_wait`] claimant.
    pub(crate) fn requeue(&self, indices: &[usize]) {
        if indices.is_empty() {
            return;
        }
        let mut queue = self.queue();
        for &index in indices.iter().rev() {
            queue.push_front(index);
        }
        drop(queue);
        // Under the state lock, so the wake-up cannot fall between a
        // claimant's look at the empty queue and its wait.
        let _st = self.lock();
        self.changed.notify_all();
    }

    /// Runs one claimed cell through the shared execution seam
    /// ([`execute_or_cached_in`]) on `ws`.
    pub(crate) fn execute(
        &self,
        index: usize,
        cache: Option<&ResultCache>,
        ws: &mut SimWorkspace,
    ) -> ScenarioResult {
        execute_or_cached_in(
            index,
            self.scenarios[index].clone(),
            self.retention,
            cache,
            ws,
        )
    }

    /// Hands one executed cell (`shard` names its shard process, if any)
    /// to the reorder buffer and merges whatever is now in order.  A
    /// duplicate of a cell already delivered — a requeued cell racing its
    /// first execution — is dropped.  Returns whether the merge point
    /// advanced.
    pub(crate) fn deliver(&self, result: ScenarioResult, shard: Option<u32>) -> bool {
        let mut st = self.lock();
        let index = result.index;
        if index < st.merged || index >= self.total() || st.pending.contains_key(&index) {
            return false;
        }
        st.pending.insert(index, result);
        st.shards[index] = shard;
        quanto_obs::observe("runner.reorder_window_occupancy", st.pending.len() as u64);
        let before = st.merged;
        self.merge_ready(&mut st);
        st.merged != before
    }

    /// Merges every pending result whose turn has come and finishes the
    /// report when the last one lands.  Executors call this under the lock
    /// they contend on, so it allocates nothing: progress events are built
    /// by the consumer instead ([`Job::wait`]), on the consumer's thread.
    fn merge_ready(&self, st: &mut State) {
        let total = self.total();
        let before = st.merged;
        while let Some(result) = st.pending.remove(&st.merged) {
            st.hits += u64::from(result.cache_hit());
            st.acc
                .as_mut()
                .expect("the accumulator lives until the last merge")
                .absorb(result);
            st.merged += 1;
        }
        if st.merged == total && st.report.is_none() {
            let acc = st.acc.take().expect("a job finishes exactly once");
            let held = acc.entries_held();
            let mut report = acc.finish(self.threads, self.started.elapsed(), held);
            if self.cached {
                // The one cache-stats rule: hits are the merged cells the
                // cache answered; every other cell was simulated and
                // written back.  A Raw job never consults the cache.
                let misses = match self.retention {
                    Retention::Stream => total as u64 - st.hits,
                    Retention::Raw => 0,
                };
                report.set_cache_stats(CacheStats {
                    hits: st.hits,
                    misses,
                    writes: misses,
                });
            }
            st.report = Some(report);
        }
        if st.merged != before || st.report.is_some() {
            self.changed.notify_all();
        }
    }

    /// Cancels a still-running job: clears its queue (cells in flight
    /// finish, but nobody waits for them) and wakes its consumer.
    /// Idempotent, and a no-op once the job finished.  Returns whether this
    /// call did the cancelling.
    pub fn cancel(&self) -> bool {
        let st = self.lock();
        if st.report.is_some() || self.cancelled.swap(true, Ordering::Relaxed) {
            return false;
        }
        self.queue().clear();
        // Under the state lock, like every other wake-up: a claimant
        // waiting in `claim_or_wait` must not miss it.
        self.changed.notify_all();
        true
    }

    /// Whether the job was cancelled (or failed).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Fails the job with the payload of a cell that panicked on an
    /// executor; its consumer resumes the panic.
    pub(crate) fn fail(&self, payload: Box<dyn Any + Send>) {
        self.lock().panic.get_or_insert(payload);
        self.cancel();
    }

    /// Takes the payload of the cell that failed the job, if one did.
    pub fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.lock().panic.take()
    }

    /// Waits up to `timeout` for progress, then hands over the progress
    /// events of every cell merged since the last call (in submission
    /// order) with the job's status.  Returns at once when there are
    /// events or the job is no longer running.  The events, their ETA
    /// and their timing are built here, on the consumer's thread.
    pub fn wait(&self, timeout: Duration) -> (Vec<FleetProgress>, JobStatus) {
        let deadline = Instant::now() + timeout;
        let mut st = self.lock();
        loop {
            let status = if st.report.is_some() {
                JobStatus::Finished
            } else if self.is_cancelled() {
                JobStatus::Cancelled
            } else {
                JobStatus::Running
            };
            let now = Instant::now();
            if st.emitted < st.merged || status != JobStatus::Running || now >= deadline {
                return (self.take_events(&mut st), status);
            }
            st = self
                .changed
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Blocks until the job ends, handing every progress event to
    /// `progress` on the calling thread, and returns the report.  A cell
    /// that panicked on an executor resumes its panic here.
    pub(crate) fn finish_with(&self, mut progress: impl FnMut(FleetProgress)) -> FleetReport {
        loop {
            let (events, status) = self.wait(Duration::from_secs(1));
            events.into_iter().for_each(&mut progress);
            match status {
                JobStatus::Running => {}
                JobStatus::Finished => {
                    return self.take_report().expect("a finished job holds its report")
                }
                JobStatus::Cancelled => match self.take_panic() {
                    Some(payload) => std::panic::resume_unwind(payload),
                    None => panic!("the job was cancelled before it finished"),
                },
            }
        }
    }

    /// The progress events of the cells merged since the last call.
    fn take_events(&self, st: &mut State) -> Vec<FleetProgress> {
        let total = self.total();
        let elapsed_ms = self.started.elapsed().as_millis() as u64;
        let fresh = merged_results(st).get(st.emitted..st.merged).unwrap_or(&[]);
        let events = fresh
            .iter()
            .map(|result| {
                let completed = result.index + 1;
                FleetProgress {
                    index: result.index,
                    name: result.scenario.name.clone(),
                    completed,
                    total,
                    medium_kind: result.medium_kind,
                    medium_counters: result.medium_counters().ok().copied(),
                    summaries: result.summaries.clone(),
                    elapsed_ms,
                    eta_ms: (completed >= 2)
                        .then(|| elapsed_ms * (total - completed) as u64 / completed as u64),
                    shard: st.shards[result.index],
                    cache_hit: result.cache_hit(),
                }
            })
            .collect();
        st.emitted = st.merged;
        events
    }

    /// Moves the finished report out of the job.
    pub(crate) fn take_report(&self) -> Option<FleetReport> {
        self.lock().report.take()
    }

    /// The finished report's [`FleetReport::summary_json`].
    pub fn summary_json(&self) -> Option<String> {
        self.lock().report.as_ref().map(FleetReport::summary_json)
    }

    /// The merged prefix: cells merged so far, whether the job finished,
    /// and their results rendered exactly as the final summary's `results`
    /// array renders them — so a mid-sweep snapshot is a byte-exact prefix
    /// of it.
    pub fn merged_json(&self) -> (usize, bool, String) {
        let st = self.lock();
        (
            st.merged,
            st.report.is_some(),
            results_json(merged_results(&st)),
        )
    }

    /// The state lock.  A panic under it can only come from a cell being
    /// merged, which fails the job and is resumed by its consumer; taking
    /// the guard back keeps that path from panicking a second time.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<usize>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The merged results: the accumulator's, or the finished report's until
/// it is taken.
fn merged_results(st: &State) -> &[ScenarioResult] {
    match (&st.report, &st.acc) {
        (Some(report), _) => &report.results,
        (None, Some(acc)) => acc.results(),
        (None, None) => &[],
    }
}

/// The guided chunk of [`Job::take_chunk`]: `max(1, remaining / (2 ×
/// claimants))` indices off the front of `queue`.
fn take_chunk(queue: &Mutex<VecDeque<usize>>, claimants: u32) -> Vec<usize> {
    let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
    if q.is_empty() {
        return Vec::new();
    }
    let size = (q.len() / (2 * claimants.max(1) as usize)).max(1);
    q.drain(..size).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guided_chunks_shrink_toward_the_tail() {
        let queue = Mutex::new((0..100).collect::<VecDeque<usize>>());
        let mut sizes = Vec::new();
        loop {
            let chunk = take_chunk(&queue, 2);
            if chunk.is_empty() {
                break;
            }
            sizes.push(chunk.len());
        }
        assert_eq!(sizes.iter().sum::<usize>(), 100, "every index served once");
        assert_eq!(sizes[0], 25, "first grab takes remaining/(2×shards)");
        assert!(
            sizes.windows(2).all(|w| w[1] <= w[0]),
            "chunks never grow: {sizes:?}"
        );
        assert_eq!(*sizes.last().unwrap(), 1, "the tail is single scenarios");
    }
}
