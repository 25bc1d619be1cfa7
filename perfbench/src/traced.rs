//! The traced run: per-layer costs of one workload's cells.
//!
//! The benchmark records its own spans around each public call it makes
//! (spans of one scenario execution share an id) and reads the counters the
//! program already exports — engine stats, medium counters, and the
//! `quanto-obs` registry through `harvest()` and the daemon's metrics text.
//! It adds no span or counter inside the program.  End-to-end numbers come
//! from untraced runs; this run reports how the cost splits by layer.

use crate::check::Reference;
use crate::metrics::{Metrics, Outcome};
use crate::stats::median;
use crate::workloads::{self, Daemon, Pass, Workload, SCRATCH_DIR};
use hw_model::SimTime;
use net_sim::NetScratch;
use quanto_core::{CountingSink, LogSink};
use quanto_fleet::{
    execute_or_cached_in, ReportAccumulator, ResultCache, Retention, Scenario, ScenarioResult,
    SimWorkspace,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Repetitions of each traced step; the reported value is their median.
const REPS: usize = 7;

/// Share of single-worker wall the layer self times must account for.
pub const RECONCILE_MIN: f64 = 0.90;

/// Whether the replay reconciles with the single-worker sweeps: the layers
/// cover at least [`RECONCILE_MIN`] of the wall, and the analysis layer —
/// the streaming execution minus the separately timed build, run and
/// finish — is not negative, which would mean the split inside the
/// execution does not hold.
pub fn reconciles(unattributed: f64, analyze: f64) -> bool {
    1.0 - unattributed >= RECONCILE_MIN && analyze >= 0.0
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one scenario execution.
    pub id: u64,
    /// The layer boundary it wraps.
    pub name: &'static str,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// Whole duration.
    pub dur: Duration,
    /// Duration minus the part its child spans cover.
    pub self_time: Duration,
}

struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    children: Duration,
}

/// In-memory span recorder with strictly nested spans.
pub struct Tracer {
    epoch: Instant,
    open: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Opens span `name` of execution `id`.
    pub fn open(&mut self, id: u64, name: &'static str) {
        self.open.push(Open {
            id,
            name,
            start: Instant::now(),
            children: Duration::ZERO,
        });
    }

    /// Closes the innermost span, which must be `name`; returns its
    /// duration.
    pub fn close(&mut self, name: &'static str) -> Duration {
        let end = Instant::now();
        let open = self.open.pop().expect("close without an open span");
        assert_eq!(open.name, name, "spans must close innermost first");
        let dur = end - open.start;
        if let Some(parent) = self.open.last_mut() {
            parent.children += dur;
        }
        self.spans.push(Span {
            id: open.id,
            name,
            parent: self.open.last().map(|p| p.name),
            start: open.start - self.epoch,
            dur,
            self_time: dur.saturating_sub(open.children),
        });
        dur
    }

    /// Runs `f` inside span `name`, returning its value and duration.
    pub fn timed<T>(
        &mut self,
        id: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        self.open(id, name);
        let value = f();
        (value, self.close(name))
    }

    /// Total self time of every span named `name` with execution ids in
    /// `ids`.
    pub fn self_time(&self, name: &str, ids: std::ops::Range<u64>) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.id))
            .map(|s| s.self_time)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"dur_us\":{},\"self_us\":{}}}",
                s.id,
                s.name,
                s.parent.map_or("null".to_string(), |p| format!("\"{p}\"")),
                s.start.as_micros(),
                s.dur.as_micros(),
                s.self_time.as_micros()
            );
        }
        out
    }
}

/// Work counts of one replay pass over the grid; identical on every pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    nodes: u64,
    events_dispatched: u64,
    heap_pushes: u64,
    heap_pops: u64,
    stale_pops: u64,
    dedup_hits: u64,
    candidates_examined: u64,
    pruned_by_cutoff: u64,
    fades_hashed: u64,
    cca_early_outs: u64,
    delivered: u64,
    lost: u64,
    log_entries: u64,
    log_chunks: u64,
    log_dropped: u64,
    regressions: u64,
}

/// Per-layer self times of one replay pass, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    build: f64,
    run: f64,
    finish: f64,
    execute: f64,
}

impl LayerTimes {
    /// The analysis layer: the streaming execution minus the replay's
    /// build, run and finish of the same scenarios.
    fn analyze(&self) -> f64 {
        self.execute - self.build - self.run - self.finish
    }
}

/// Scenarios attempted and failed over every step of the traced run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, scenarios: usize, ok: bool) {
        self.attempted += scenarios as u64;
        if !ok {
            self.failed += scenarios as u64;
        }
    }

    fn passes(&mut self, passes: &[Pass]) {
        for p in passes {
            self.add(p.scenarios, p.ok);
        }
    }
}

/// Scenario-execution ids of replay pass `rep`.
fn rep_ids(rep: usize) -> std::ops::Range<u64> {
    (rep as u64) << 32..((rep as u64 + 1) << 32)
}

/// Replays every scenario on this thread, layer by layer: build with a
/// counting sink per node, run, finish, read the engine and medium
/// counters, then the streaming execution of the same scenario, and — when
/// `cache_us` collects them — a cold and a warm trip through a fresh result
/// cache (probe µs, and store µs as the cold trip minus the execution).
fn replay_pass(
    cells: &[Scenario],
    rep: usize,
    tracer: &mut Tracer,
    reference: &Reference,
    mut cache_us: Option<&mut (Vec<f64>, Vec<f64>)>,
) -> Result<(Counts, bool), String> {
    let cache_dir = PathBuf::from(SCRATCH_DIR).join(format!("replay-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = ResultCache::open(&cache_dir).map_err(|e| format!("replay cache: {e}"))?;
    let mut scratch = NetScratch::new();
    let mut ws = SimWorkspace::new();
    let mut acc = ReportAccumulator::new(cells.len(), Retention::Stream);
    let mut counts = Counts::default();
    let mut ok = true;
    for (i, scenario) in cells.iter().enumerate() {
        let id = rep_ids(rep).start + i as u64;
        let end = SimTime::ZERO + scenario.duration;
        tracer.open(id, "scenario");
        let ((mut net, sinks), _) = tracer.timed(id, "build", || {
            let mut net = scenario.build_in(&mut scratch);
            net.set_trace_recording(false);
            let mut sinks = Vec::new();
            for node in scenario.node_ids() {
                let sink = Rc::new(RefCell::new(CountingSink::new()));
                let tap = sink.clone();
                net.set_node_log_sink(
                    node,
                    Box::new(move |chunk: &[quanto_core::LogEntry]| tap.borrow_mut().accept(chunk)),
                );
                sinks.push(sink);
            }
            (net, sinks)
        });
        tracer.timed(id, "run", || net.run_until(end));
        let (outputs, _) = tracer.timed(id, "finish", || net.finish(end));
        let ((), _) = tracer.timed(id, "stats", || {
            let engine = net.engine().stats();
            counts.nodes += outputs.len() as u64;
            counts.events_dispatched += engine.events_dispatched;
            counts.heap_pushes += engine.heap_pushes;
            counts.heap_pops += engine.heap_pops;
            counts.stale_pops += engine.stale_pops;
            counts.dedup_hits += engine.dedup_hits;
            if let Some(c) = net.medium_counters() {
                counts.candidates_examined += c.candidates_examined;
                counts.pruned_by_cutoff += c.pruned_by_cutoff;
                counts.delivered += c.delivered;
                counts.lost += c.lost_out_of_range + c.lost_below_sensitivity + c.lost_captured;
            }
            if let Some(e) = net.medium_effort() {
                counts.fades_hashed += e.fades_hashed;
                counts.cca_early_outs += e.cca_early_outs;
            }
            for sink in &sinks {
                counts.log_entries += sink.borrow().entries();
                counts.log_chunks += sink.borrow().chunks();
            }
            counts.log_dropped += outputs.iter().map(|(_, o)| o.log_dropped).sum::<u64>();
        });
        tracer.timed(id, "teardown", || net.reset_into(&mut scratch));
        let owned = scenario.clone();
        let (result, execute) = tracer.timed(id, "execute", || {
            ScenarioResult::execute_streaming_in(i, owned, &mut ws)
        });
        tracer.close("scenario");
        counts.regressions += result
            .summaries
            .iter()
            .filter(|s| s.regression_error.is_some())
            .count() as u64;
        let streamed: u64 = result.stream_meta().iter().map(|m| m.entries).sum();
        let counted: u64 = sinks.iter().map(|s| s.borrow().entries()).sum();
        ok &= streamed == counted;
        acc.absorb(result);

        let Some(cache_us) = cache_us.as_deref_mut() else {
            continue;
        };
        let owned = scenario.clone();
        let (cold, cold_time) = tracer.timed(id, "cache_cold", || {
            execute_or_cached_in(i, owned, Retention::Stream, Some(&cache), &mut ws)
        });
        let (warm, probe_time) = tracer.timed(id, "cache_probe", || cache.probe(i, scenario));
        ok &= !cold.cache_hit() && warm.is_some_and(|w| w.cache_hit());
        cache_us.0.push(probe_time.as_secs_f64() * 1e6);
        cache_us
            .1
            .push((cold_time.as_secs_f64() - execute.as_secs_f64()) * 1e6);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
    let report = acc.finish(1, Duration::ZERO, 0);
    Ok((counts, ok && reference.matches(&report)))
}

/// Thread dumps' total time in spans named `name`, µs.
fn span_us(harvest: &quanto_obs::HarvestResult, name: &str) -> u64 {
    harvest
        .threads
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_us())
        .sum()
}

/// A counter from the daemon's metrics text (`counter NAME VALUE`).
fn text_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|line| line.strip_prefix("counter "))
        .filter_map(|rest| rest.split_once(' '))
        .find(|(key, _)| *key == name)
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0)
}

/// The fraction of `base` that `part` does not cover: `1 - part / base`.
pub fn uncovered_frac(part: f64, base: f64) -> f64 {
    1.0 - part / base
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let threads = workloads::threads();
    println!(
        "perfbench (traced): workload {}, seed {seed}, {threads} thread(s)",
        workload.name()
    );
    let mut tally = Tally::default();

    let ready = workloads::ready(workload, seed)?;
    let reference = ready.reference;
    let (text, cells) = (&ready.prepared.text, &ready.prepared.cells);

    // Tracing overhead: the workload's own loop, untraced and traced in
    // the order U T T U, so that a host whose speed drifts through the
    // four slices weighs on both sides alike.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for enabled in [false, true, true, false] {
        quanto_obs::set_enabled(enabled);
        let window = workloads::run_window(&ready, seconds / 8.0)?;
        tally.passes(&window.passes);
        if enabled { &mut traced } else { &mut untraced }.push(window);
    }
    quanto_obs::set_enabled(true);
    let tracing_overhead = uncovered_frac(
        workloads::scenarios_per_s(&traced),
        workloads::scenarios_per_s(&untraced),
    );
    let expands: Vec<f64> = untraced
        .iter()
        .flat_map(|w| w.setups.expands.iter().copied())
        .collect();
    quanto_obs::harvest();

    // Layer replay on one worker, each next to the single-worker sweep its
    // self times must reconcile with.
    let mut tracer = Tracer::new();
    let mut times = Vec::with_capacity(REPS);
    let mut counts = None;
    let mut cache_us = (Vec::new(), Vec::new());
    let mut single_walls = Vec::new();
    let mut merges = Vec::new();
    let mut single_pass = |tally: &mut Tally| {
        quanto_obs::harvest();
        let pass = workloads::local_pass(cells, 1, &reference);
        tally.passes(&[pass]);
        single_walls.push(pass.wall.as_secs_f64());
        merges.push(span_us(&quanto_obs::harvest(), "merge") as f64 / 1e6);
    };
    for rep in 0..REPS {
        // Alternate which of the two goes first, so that a host whose speed
        // drifts through the loop does not bias every comparison one way.
        let single_first = rep % 2 == 1;
        if single_first {
            single_pass(&mut tally);
        }
        let trips = (rep == 0).then_some(&mut cache_us);
        let (c, ok) = replay_pass(cells, rep, &mut tracer, &reference, trips)?;
        let ids = rep_ids(rep);
        times.push(LayerTimes {
            build: tracer.self_time("build", ids.clone()).as_secs_f64(),
            run: tracer.self_time("run", ids.clone()).as_secs_f64(),
            finish: tracer.self_time("finish", ids.clone()).as_secs_f64(),
            execute: tracer.self_time("execute", ids).as_secs_f64(),
        });
        let consistent = counts.is_none_or(|first| first == c);
        counts.get_or_insert(c);
        tally.add(cells.len(), ok && consistent);
        if !single_first {
            single_pass(&mut tally);
        }
    }
    let counts = counts.expect("at least one replay");

    // The in-process runner at full width.
    let mut local_walls = Vec::new();
    let (mut util, mut overhead, mut stalls, mut wakeups) = (Vec::new(), Vec::new(), 0, 0);
    for _ in 0..REPS {
        let pass = workloads::local_pass(cells, threads, &reference);
        tally.passes(&[pass]);
        let h = quanto_obs::harvest();
        let busy = span_us(&h, "scenario") as f64 / 1e6;
        let lifetime = span_us(&h, "worker") as f64 / 1e6;
        let wall = pass.wall.as_secs_f64();
        local_walls.push(wall);
        util.push(busy / (threads.min(cells.len()) as f64 * wall));
        overhead.push(uncovered_frac(busy, lifetime));
        stalls += h.merged.counter("runner.backpressure_stalls").unwrap_or(0);
        wakeups += h.merged.counter("runner.merge_wakeups").unwrap_or(0);
    }

    // The same cells through spawned shards.
    let (mut shard_walls, mut shard_firsts, mut shard_gaps, mut chunks) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    for _ in 0..REPS {
        let pass = workloads::sharded_pass(text, threads, &reference, &mut shard_gaps)?;
        tally.passes(&[pass]);
        shard_walls.push(pass.wall.as_secs_f64());
        shard_firsts.push(pass.first.as_secs_f64());
        chunks += quanto_obs::harvest()
            .merged
            .counter("sched.chunks_served")
            .unwrap_or(0);
    }

    // The serve layer: the grid submitted cold, then warm, to a fresh daemon.
    let daemon = Daemon::start(threads)?;
    let jobs: Vec<Pass> = (0..2)
        .map(|_| {
            let (pass, summary) = workloads::served_job(&daemon.addr, text);
            reference.check_served(&pass, summary.as_deref())
        })
        .collect();
    let metrics_text = quanto_serve::client::metrics(&daemon.addr);
    daemon.stop();
    tally.passes(&jobs);
    let metrics_text = metrics_text.map_err(|e| format!("daemon metrics: {e}"))?;
    quanto_obs::set_enabled(false);

    let _ = std::fs::create_dir_all(SCRATCH_DIR);
    let trace_path = PathBuf::from(SCRATCH_DIR).join(format!("trace-{}.jsonl", workload.name()));
    if let Err(e) = std::fs::write(&trace_path, tracer.to_jsonl()) {
        eprintln!("writing {}: {e}", trace_path.display());
    }

    // Reconciliation: layer self times against the single-worker wall.
    let med = |f: fn(&LayerTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    let (build, run, finish, analyze) = (
        med(|t| t.build),
        med(|t| t.run),
        med(|t| t.finish),
        med(LayerTimes::analyze),
    );
    let runner = median(&merges);
    let single = median(&single_walls);
    // Per repetition: the replay's layers (which sum to its streaming
    // executions) plus the runner's merge, against its single-worker sweep.
    let unattributed = median(
        &(0..REPS)
            .map(|r| uncovered_frac(times[r].execute + merges[r], single_walls[r]))
            .collect::<Vec<_>>(),
    );
    let attributed = 1.0 - unattributed;
    let negative = times.iter().filter(|t| t.analyze() < 0.0).count();
    let reconciled = reconciles(unattributed, analyze);
    // A replay that does not reconcile fails its scenarios.
    tally.add(cells.len(), reconciled);
    println!(
        "layer self times over one pass of {} scenarios on one worker:",
        cells.len()
    );
    for (layer, secs) in [
        ("fleet::scenario (build)", build),
        ("os-sim + net-sim (run)", run),
        ("quanto-core (finish)", finish),
        ("analysis + fleet::report", analyze),
        ("fleet::runner (merge)", runner),
    ] {
        println!(
            "  {layer:<28} {:>10.3} ms  {:>6.1} %",
            secs * 1e3,
            100.0 * secs / single
        );
    }
    println!(
        "  {:<28} {:>10.3} ms  -> {:.1} % attributed, analysis negative in {negative} of {REPS} replays ({})",
        "single-worker wall",
        single * 1e3,
        100.0 * attributed,
        if reconciled {
            "reconciled"
        } else {
            "NOT reconciled: below 90 % or a negative analysis median; failing"
        }
    );

    let c = counts;
    let per = |num: f64, den: u64| num / den.max(1) as f64;
    let serve_firsts: Vec<f64> = jobs.iter().map(|p| p.first.as_secs_f64() * 1e3).collect();
    let serve_final_gaps: Vec<f64> = jobs
        .iter()
        .map(|p| (p.wall - p.last).as_secs_f64() * 1e3)
        .collect();
    let hits = text_counter(&metrics_text, "cache.hits");
    let misses = text_counter(&metrics_text, "cache.misses");

    let mut m = Metrics::default();
    m.push("fleet.grid.expand_ms", median(&expands) * 1e3, "ms");
    m.push("fleet.build_ms", build * 1e3, "ms");
    m.push("fleet.build_us_per_node", per(build * 1e6, c.nodes), "us");
    m.push("os_sim.run_ms", run * 1e3, "ms");
    m.push(
        "os_sim.events_dispatched",
        c.events_dispatched as f64,
        "count",
    );
    m.push(
        "os_sim.ns_per_event",
        per(run * 1e9, c.events_dispatched),
        "ns",
    );
    m.push("os_sim.heap_pushes", c.heap_pushes as f64, "count");
    m.push(
        "os_sim.stale_pop_frac",
        per(c.stale_pops as f64, c.heap_pops),
        "ratio",
    );
    m.push("os_sim.dedup_hits", c.dedup_hits as f64, "count");
    m.push(
        "net_sim.candidates_examined",
        c.candidates_examined as f64,
        "count",
    );
    m.push(
        "net_sim.pruned_by_cutoff",
        c.pruned_by_cutoff as f64,
        "count",
    );
    m.push("net_sim.fades_hashed", c.fades_hashed as f64, "count");
    m.push("net_sim.cca_early_outs", c.cca_early_outs as f64, "count");
    m.push("net_sim.delivered", c.delivered as f64, "count");
    m.push("net_sim.lost", c.lost as f64, "count");
    m.push(
        "net_sim.delivered_per_candidate",
        per(c.delivered as f64, c.candidates_examined),
        "ratio",
    );
    m.push("core.log_entries", c.log_entries as f64, "count");
    m.push("core.log_chunks", c.log_chunks as f64, "count");
    m.push(
        "core.entries_per_chunk",
        per(c.log_entries as f64, c.log_chunks),
        "ratio",
    );
    m.push("core.log_dropped", c.log_dropped as f64, "count");
    m.push("core.finish_ms", finish * 1e3, "ms");
    m.push("analysis.analyze_ms", analyze * 1e3, "ms");
    m.push(
        "analysis.us_per_entry",
        per(analyze * 1e6, c.log_entries),
        "us",
    );
    m.push("analysis.us_per_node", per(analyze * 1e6, c.nodes), "us");
    m.push("analysis.regressions", c.regressions as f64, "count");
    m.push("fleet.runner.worker_util", median(&util), "ratio");
    m.push("fleet.runner.overhead_frac", median(&overhead), "ratio");
    m.push(
        "fleet.runner.backpressure_stalls",
        per(stalls as f64, REPS as u64),
        "count",
    );
    m.push(
        "fleet.runner.merge_wakeups",
        per(wakeups as f64, REPS as u64),
        "count",
    );
    m.push("fleet.cache.hits", hits as f64, "count");
    m.push("fleet.cache.misses", misses as f64, "count");
    m.push(
        "fleet.cache.writes",
        text_counter(&metrics_text, "cache.writes") as f64,
        "count",
    );
    m.push(
        "fleet.cache.hit_frac",
        per(hits as f64, hits + misses),
        "ratio",
    );
    m.push("fleet.cache.probe_us", median(&cache_us.0), "us");
    m.push("fleet.cache.store_us", median(&cache_us.1), "us");
    m.push("serve.first_event_ms", median(&serve_firsts), "ms");
    m.push("serve.final_gap_ms", median(&serve_final_gaps), "ms");
    m.push(
        "serve.events_per_job",
        per(
            jobs.iter().map(|p| p.events).sum::<usize>() as f64,
            jobs.len() as u64,
        ),
        "count",
    );
    m.push(
        "serve.bytes_per_job",
        per(
            jobs.iter().map(|p| p.bytes).sum::<usize>() as f64,
            jobs.len() as u64,
        ),
        "bytes",
    );
    for name in [
        "serve.jobs.completed",
        "serve.scenarios.executed",
        "serve.scenarios.warm",
    ] {
        m.push(name, text_counter(&metrics_text, name) as f64, "count");
    }
    m.push(
        "fleet.dist.spawn_to_first_result_ms",
        median(&shard_firsts) * 1e3,
        "ms",
    );
    m.push(
        "fleet.dist.merge_gap_ms.p50",
        median(&shard_gaps) * 1e3,
        "ms",
    );
    m.push(
        "fleet.dist.chunks",
        per(chunks as f64, REPS as u64),
        "count",
    );
    m.push(
        "fleet.dist.overhead_frac",
        uncovered_frac(median(&local_walls), median(&shard_walls)),
        "ratio",
    );
    m.push("single_worker_wall_ms", single * 1e3, "ms");
    m.push("unattributed_frac", unattributed, "ratio");
    m.push("tracing_overhead_frac", tracing_overhead, "ratio");
    assert_eq!(
        m.names(),
        crate::metrics::PER_LAYER,
        "every per-layer metric, in order"
    );
    m.print();
    println!("spans written to {}", trace_path.display());
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new();
        t.open(1, "scenario");
        std::thread::sleep(Duration::from_millis(5));
        let ((), child) = t.timed(1, "build", || std::thread::sleep(Duration::from_millis(10)));
        let whole = t.close("scenario");
        let parent = t.spans.iter().find(|s| s.name == "scenario").unwrap();
        assert_eq!(parent.self_time, whole - child);
        assert_eq!(t.self_time("build", 0..2), child);
        assert_eq!(t.self_time("build", 2..3), Duration::ZERO);
        let built = t.spans.iter().find(|s| s.name == "build").unwrap();
        assert_eq!(built.parent, Some("scenario"));
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn spans_must_nest() {
        let mut t = Tracer::new();
        t.open(1, "scenario");
        t.open(1, "build");
        t.close("scenario");
    }

    #[test]
    fn reconciliation_arithmetic() {
        let times = LayerTimes {
            build: 0.010,
            run: 0.050,
            finish: 0.005,
            execute: 0.100,
        };
        assert!((times.analyze() - 0.035).abs() < 1e-12);
        // Layers plus a 2 ms runner merge against a 110 ms single-worker
        // wall leave 8 ms unattributed.
        let attributed = times.build + times.run + times.finish + times.analyze() + 0.002;
        let unattributed = uncovered_frac(attributed, 0.110);
        assert!((unattributed - 0.08 / 1.1).abs() < 1e-12);
        assert!(reconciles(unattributed, times.analyze()));
        assert!(!reconciles(uncovered_frac(0.090, 0.110), times.analyze()));
        // Build, run and finish timed longer than the whole execution.
        let split_broken = LayerTimes {
            execute: 0.060,
            ..times
        };
        assert!(split_broken.analyze() < 0.0);
        assert!(!reconciles(0.0, split_broken.analyze()));
    }

    #[test]
    fn daemon_counters_are_read_from_metrics_text() {
        let text = "counter cache.hits 12\ncounter serve.jobs.completed 3\ngauge serve.workers 2\n";
        assert_eq!(text_counter(text, "cache.hits"), 12);
        assert_eq!(text_counter(text, "serve.jobs.completed"), 3);
        assert_eq!(
            text_counter(text, "serve.workers"),
            0,
            "gauges are not counters"
        );
        assert_eq!(text_counter(text, "cache.misses"), 0);
    }
}
