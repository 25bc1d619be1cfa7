//! Fleet-of-fleets: multi-process sweep sharding with dynamic
//! self-scheduling.
//!
//! A [`Coordinator`] expands a grid once, serves its scenario *indices* in
//! adaptively-shrinking chunks over a line-delimited JSON work-queue
//! protocol (`std::net::TcpListener` on loopback — no dependencies), and
//! merges the per-scenario records the shards return.  Each shard is
//! another process of the same binary (`fleet_sweep --shard ADDR`) running
//! its own [`crate::FleetRunner`] over every chunk it claims.
//!
//! ```text
//! shard → {"t":"hello"}
//! coord → {"t":"job","proto":1,"shard":0,"shards":2,"threads":4,
//!          "expected":29,"grid":"[grid]…","seconds":…,"seeds":…,
//!          "pairs":…,"cache":"…"}          (floats as u64 bit patterns)
//! shard → {"t":"ready","count":29}
//! shard → {"t":"next"}
//! coord → {"t":"chunk","indices":[0,1,2,3]}   (or {"t":"done"})
//! shard → {"t":"result","index":0,"cache_hit":false,"record":{…}} ×4
//! shard → {"t":"next"}                        (… and so on)
//! shard → {"t":"stats","hits":0,"misses":4,"writes":4}   (after done)
//! ```
//!
//! **Self-scheduling.**  Chunks are claimed, not assigned: whenever a shard
//! asks, it receives the next `max(1, remaining / (2 × shards))` queued
//! indices (guided self-scheduling).  Early chunks are large to amortize
//! round-trips; late chunks shrink toward single scenarios, so a straggler
//! shard can never sit on a long tail while its peers idle.
//!
//! **Determinism.**  The shards ship grid *text* plus the numeric overrides
//! (not expanded scenarios), re-expand identically, and return each
//! scenario's `ScenarioRecord` — summaries, stream
//! residues and medium counters with every float as its exact bit pattern.
//! The coordinator reorders results by submission index and folds them
//! through the same `ReportAccumulator` the in-process
//! runner uses, so [`crate::FleetReport::digest`] is byte-identical at any
//! shard count × thread count.  Dist runs always use
//! [`Retention::Stream`]: a record carries no raw log.
//!
//! **Fault tolerance.**  A handler that loses its connection mid-chunk
//! pushes the chunk's unreturned indices back onto the *front* of the
//! queue, so a surviving shard re-executes them and the sweep still
//! completes with the same digest.  Only when every connection is gone and
//! work remains does [`Coordinator::run`] give up with
//! [`DistError::ShardsDied`].
//!
//! **Cache integration.**  The coordinator probes the result cache for
//! every cell up front — hits never enter the queue (a fully-warm sweep
//! spawns no work at all) — and shards write fresh entries as they
//! simulate, so the next sweep over an edited grid re-executes only the
//! changed cells.
//!
//! # Example
//!
//! Shards are normally spawned processes, but [`run_shard`] is plain
//! library code — a thread over loopback TCP drives the identical path:
//!
//! ```
//! use quanto_fleet::{dist, Coordinator, DistOptions, GridOverrides};
//!
//! let grid = "[grid]\nname = doc\n[cell.idle]\napp = idle\nseconds = 1\n";
//! let options = DistOptions { shards: 1, threads: 1, cache_dir: None };
//! let coordinator = Coordinator::bind(grid, GridOverrides::default(), &options).unwrap();
//! let addr = coordinator.addr().unwrap().to_string();
//! let shard = std::thread::spawn(move || dist::run_shard(&addr));
//! let report = coordinator.run(|_progress| {}).unwrap();
//! shard.join().unwrap().unwrap();
//! assert_eq!(report.results.len(), 1);
//! ```

use crate::cache::{CacheStats, ResultCache};
use crate::grid::{GridError, GridSpec};
use crate::record::ScenarioRecord;
use crate::report::{FleetReport, ReportAccumulator, ScenarioResult};
use crate::runner::{FleetProgress, FleetRunner, Retention};
use crate::scenario::Scenario;
use crate::wire::{push_json_str, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Wire protocol version; both ends must agree exactly.
const PROTO_VERSION: u64 = 1;

/// How long the merge loop tolerates zero live connections (after at least
/// one shard has connected) before declaring the fleet dead.  Long enough
/// to ride out the gap between one shard disconnecting and another's
/// connect landing; short enough that tests and CI fail fast.
const ALL_DEAD_GRACE: Duration = Duration::from_secs(2);

/// How long the merge loop waits for the *first* connection before giving
/// up — generous, because freshly-spawned shard processes pay a process
/// start plus a grid expansion before they dial in.
const FIRST_CONNECT_GRACE: Duration = Duration::from_secs(120);

/// The numeric sweep overrides (`--seconds`, `--seeds`, `--pairs`) applied
/// identically on both ends of the protocol — the coordinator for its own
/// expansion and cache probe, each shard for its re-expansion.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridOverrides {
    /// Replaces the grid-level default duration (cells with their own
    /// `seconds` keep them).
    pub seconds: Option<f64>,
    /// Replaces every non-empty seed axis with `1..=n`.
    pub seed_count: Option<u64>,
    /// Replaces every bounce-pairs cell's pair count.
    pub pairs: Option<u16>,
}

impl GridOverrides {
    /// Applies the overrides to a parsed grid, in the fixed order both ends
    /// share.
    pub fn apply(&self, spec: &mut GridSpec) {
        if let Some(seconds) = self.seconds {
            spec.override_seconds(seconds);
        }
        if let Some(n) = self.seed_count {
            spec.override_seed_count(n);
        }
        if let Some(pairs) = self.pairs {
            spec.override_pairs(pairs);
        }
    }
}

/// How a distributed sweep runs.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// How many shard processes will serve the queue (the chunk-size
    /// denominator; the coordinator accepts any number of connections).
    pub shards: u32,
    /// Worker threads per shard's in-process `FleetRunner`.
    pub threads: usize,
    /// Result-cache directory shared by the coordinator's probe and every
    /// shard; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
}

/// Why a distributed sweep failed.
#[derive(Debug)]
pub enum DistError {
    /// The grid text did not parse or expand.
    Grid(GridError),
    /// A socket or filesystem operation failed.
    Io(std::io::Error),
    /// The peer broke the wire protocol (version skew, malformed line,
    /// scenario-count mismatch).
    Protocol(String),
    /// Every shard connection was lost with work still queued; the merged
    /// prefix is abandoned (re-run to resume — completed cells are in the
    /// cache).
    ShardsDied {
        /// Scenarios merged before the fleet died.
        merged: usize,
        /// Scenarios the sweep needed.
        total: usize,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Grid(e) => write!(f, "grid error: {e}"),
            DistError::Io(e) => write!(f, "i/o error: {e}"),
            DistError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            DistError::ShardsDied { merged, total } => write!(
                f,
                "every shard connection died with {merged}/{total} scenarios merged \
                 and work still queued"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e)
    }
}

impl From<GridError> for DistError {
    fn from(e: GridError) -> Self {
        DistError::Grid(e)
    }
}

fn protocol(msg: impl Into<String>) -> DistError {
    DistError::Protocol(msg.into())
}

/// Everything a handler needs to brief a connecting shard.
struct JobSpec {
    grid_text: String,
    overrides: GridOverrides,
    shards: u32,
    threads: usize,
    cache_dir: Option<String>,
    expected: usize,
}

impl JobSpec {
    fn encode(&self, shard: u32) -> String {
        let mut out = String::with_capacity(self.grid_text.len() + 160);
        out.push_str(&format!(
            "{{\"t\":\"job\",\"proto\":{PROTO_VERSION},\"shard\":{shard},\"shards\":{},\
             \"threads\":{},\"expected\":{},",
            self.shards, self.threads, self.expected
        ));
        out.push_str("\"grid\":");
        push_json_str(&mut out, &self.grid_text);
        match self.overrides.seconds {
            Some(s) => out.push_str(&format!(",\"seconds\":{}", s.to_bits())),
            None => out.push_str(",\"seconds\":null"),
        }
        match self.overrides.seed_count {
            Some(n) => out.push_str(&format!(",\"seeds\":{n}")),
            None => out.push_str(",\"seeds\":null"),
        }
        match self.overrides.pairs {
            Some(p) => out.push_str(&format!(",\"pairs\":{p}")),
            None => out.push_str(",\"pairs\":null"),
        }
        match &self.cache_dir {
            Some(dir) => {
                out.push_str(",\"cache\":");
                push_json_str(&mut out, dir);
            }
            None => out.push_str(",\"cache\":null"),
        }
        out.push('}');
        out
    }
}

/// Messages the connection handlers feed the merge loop.
enum Msg {
    /// A shard connection was accepted.
    Opened,
    /// A chunk of `size` indices left the queue for a shard.
    ChunkServed { size: usize },
    /// One scenario's record came back.
    Result {
        shard: u32,
        index: usize,
        cache_hit: bool,
        record: ScenarioRecord,
    },
    /// A shard reported its cache traffic (sent once, after `done`).
    Stats { hits: u64, misses: u64, writes: u64 },
    /// A connection ended (cleanly or not; unreturned indices are already
    /// back on the queue).
    Closed,
}

/// The coordinator side of a distributed sweep: owns the expanded grid, the
/// work queue, the listener and (optionally) the result cache.
pub struct Coordinator {
    listener: TcpListener,
    scenarios: Vec<Scenario>,
    job: JobSpec,
    cache: Option<ResultCache>,
    /// Cache hits found at bind time, pre-merged by submission index.
    warm: BTreeMap<usize, ScenarioResult>,
    /// Indices still needing execution, in submission order.
    queue: VecDeque<usize>,
}

impl Coordinator {
    /// Parses and expands the grid, opens the cache (probing it for every
    /// cell — hits skip the queue entirely) and binds a loopback listener.
    /// Nothing is served until [`Coordinator::run`].
    pub fn bind(
        grid_text: &str,
        overrides: GridOverrides,
        options: &DistOptions,
    ) -> Result<Coordinator, DistError> {
        let mut spec = GridSpec::parse(grid_text)?;
        overrides.apply(&mut spec);
        let scenarios = spec.expand()?;
        let cache = match &options.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let mut warm = BTreeMap::new();
        let mut queue = VecDeque::with_capacity(scenarios.len());
        for (i, scenario) in scenarios.iter().enumerate() {
            match cache.as_ref().and_then(|c| c.load_result(i, scenario)) {
                Some(result) => {
                    warm.insert(i, result);
                }
                None => queue.push_back(i),
            }
        }
        let cache_dir = options
            .cache_dir
            .as_ref()
            .map(|d| d.to_string_lossy().into_owned());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Ok(Coordinator {
            listener,
            job: JobSpec {
                grid_text: grid_text.to_string(),
                overrides,
                shards: options.shards.max(1),
                threads: options.threads.max(1),
                cache_dir,
                expected: scenarios.len(),
            },
            scenarios,
            cache,
            warm,
            queue,
        })
    }

    /// The address shards must connect to.
    pub fn addr(&self) -> Result<SocketAddr, DistError> {
        Ok(self.listener.local_addr()?)
    }

    /// Scenarios still needing execution (everything the bind-time cache
    /// probe could not answer).  Zero means [`Coordinator::run`] will merge
    /// entirely from the cache without serving a single chunk — don't
    /// bother spawning shards.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total scenarios in the sweep.
    pub fn total(&self) -> usize {
        self.scenarios.len()
    }

    /// Serves the queue until every scenario has merged, invoking
    /// `progress` (on the calling thread) per merged scenario in submission
    /// order — the same contract as
    /// [`FleetRunner::run_with_progress`][crate::FleetRunner::run_with_progress],
    /// with [`FleetProgress::shard`] naming the executing shard and
    /// [`FleetProgress::cache_hit`] marking cells answered from the cache.
    pub fn run(self, mut progress: impl FnMut(FleetProgress)) -> Result<FleetReport, DistError> {
        let Coordinator {
            listener,
            scenarios,
            job,
            cache,
            warm,
            queue,
        } = self;
        let started = Instant::now();
        let total = scenarios.len();
        let probe_stats = cache.as_ref().map(ResultCache::stats);
        let mut acc = ReportAccumulator::new(total, Retention::Stream);
        let mut pending: BTreeMap<usize, (ScenarioResult, Option<u32>)> =
            warm.into_iter().map(|(i, r)| (i, (r, None))).collect();
        let mut next = 0usize;

        let merge_ready = |pending: &mut BTreeMap<usize, (ScenarioResult, Option<u32>)>,
                           next: &mut usize,
                           acc: &mut ReportAccumulator,
                           progress: &mut dyn FnMut(FleetProgress)| {
            while let Some((result, shard)) = pending.remove(next) {
                let completed = *next + 1;
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
                    shard,
                    cache_hit: result.cache_hit(),
                };
                acc.absorb(result);
                progress(event);
                *next += 1;
            }
        };

        // The fully-warm fast path: every cell came out of the cache at
        // bind time, so there is no queue to serve and no reason to accept
        // a single connection.
        if queue.is_empty() {
            merge_ready(&mut pending, &mut next, &mut acc, &mut progress);
            debug_assert_eq!(next, total, "warm merge covers the whole sweep");
            let mut report = acc.finish(job.threads, started.elapsed(), 0);
            if probe_stats.is_some() {
                // The bind-time probe is the only traffic this handle saw.
                report.set_cache_stats(cache.as_ref().expect("probed").stats());
            }
            return Ok(report);
        }

        let addr = listener.local_addr()?;
        let queue = Mutex::new(queue);
        let stop = AtomicBool::new(false);
        let next_shard = AtomicU32::new(0);
        let (tx, rx) = mpsc::channel::<Msg>();
        let mut shard_stats = CacheStats::default();

        let outcome = std::thread::scope(|scope| {
            let acceptor = {
                let job = &job;
                let queue = &queue;
                let stop = &stop;
                let next_shard = &next_shard;
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut handlers = Vec::new();
                    loop {
                        let stream = match listener.accept() {
                            Ok((stream, _)) => stream,
                            Err(_) => break,
                        };
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let shard = next_shard.fetch_add(1, Ordering::SeqCst);
                        let tx = tx.clone();
                        handlers
                            .push(scope.spawn(move || handle_shard(stream, shard, job, queue, tx)));
                    }
                    for handler in handlers {
                        let _ = handler.join();
                    }
                })
            };
            drop(tx);

            // The merge loop: reorder shard results into submission order,
            // fold through the shared accumulator, account scheduler and
            // cache activity.  Runs on the caller's thread so obs counters
            // land where the sweep binaries harvest them.
            let mut live = 0usize;
            let mut ever_connected = false;
            let mut last_activity = Instant::now();
            let mut failure: Option<DistError> = None;
            while next < total {
                match rx.recv_timeout(Duration::from_millis(200)) {
                    Ok(msg) => {
                        last_activity = Instant::now();
                        match msg {
                            Msg::Opened => {
                                live += 1;
                                ever_connected = true;
                            }
                            Msg::Closed => live = live.saturating_sub(1),
                            Msg::ChunkServed { size } => {
                                quanto_obs::counter_add("sched.chunks_served", 1);
                                quanto_obs::observe("sched.chunk_size", size as u64);
                            }
                            Msg::Stats {
                                hits,
                                misses,
                                writes,
                            } => {
                                shard_stats.hits += hits;
                                shard_stats.misses += misses;
                                shard_stats.writes += writes;
                            }
                            Msg::Result {
                                shard,
                                index,
                                cache_hit,
                                record,
                            } => {
                                if index >= total || pending.contains_key(&index) || index < next {
                                    // A duplicate (requeued chunk raced its
                                    // dying first execution) — drop it; the
                                    // first completion already merged or
                                    // will merge.
                                    continue;
                                }
                                match ScenarioResult::from_record(
                                    index,
                                    scenarios[index].clone(),
                                    &record,
                                    cache_hit,
                                ) {
                                    Some(result) => {
                                        pending.insert(index, (result, Some(shard)));
                                        merge_ready(
                                            &mut pending,
                                            &mut next,
                                            &mut acc,
                                            &mut progress,
                                        );
                                    }
                                    None => {
                                        // The record does not describe the
                                        // scenario (shard bug or grid
                                        // skew): put the cell back so a
                                        // healthy shard re-runs it.
                                        queue
                                            .lock()
                                            .unwrap_or_else(|p| p.into_inner())
                                            .push_front(index);
                                    }
                                }
                            }
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let grace = if ever_connected {
                            ALL_DEAD_GRACE
                        } else {
                            FIRST_CONNECT_GRACE
                        };
                        if live == 0 && last_activity.elapsed() >= grace {
                            failure = Some(DistError::ShardsDied {
                                merged: next,
                                total,
                            });
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        failure = Some(DistError::ShardsDied {
                            merged: next,
                            total,
                        });
                        break;
                    }
                }
            }

            // Unblock the acceptor (a throwaway self-connection) and wait
            // for every handler to finish before the scope closes.
            stop.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(addr);
            let _ = acceptor.join();
            // Drain any stragglers (final stats lines race the last merge).
            for msg in rx.try_iter() {
                if let Msg::Stats {
                    hits,
                    misses,
                    writes,
                } = msg
                {
                    shard_stats.hits += hits;
                    shard_stats.misses += misses;
                    shard_stats.writes += writes;
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(()),
            }
        });
        outcome?;

        let mut report = acc.finish(job.threads, started.elapsed(), 0);
        if let Some(probe) = probe_stats {
            // Sweep-level cache accounting: the coordinator's bind-time
            // probe decides hit vs miss per cell (a shard re-misses every
            // cell the probe already declared a miss, so shard misses are
            // dropped as double counting); shard hits (duplicate specs
            // inside one sweep) and shard writes are additive.
            report.set_cache_stats(CacheStats {
                hits: probe.hits + shard_stats.hits,
                misses: probe.misses,
                writes: shard_stats.writes,
            });
        }
        Ok(report)
    }
}

/// Pops the next chunk off the queue: guided self-scheduling, where every
/// grab takes `1/(2 × shards)` of what remains (never less than one).  Big
/// early chunks amortize protocol round-trips; the tail degenerates to
/// single scenarios so no shard can hoard work it is too slow to finish.
///
/// Public because the chunk queue is a shared seam: the coordinator serves
/// shard processes from one of these, and the `quanto-serve` daemon's fair
/// scheduler serves its worker pool from one per job — the same adaptive
/// shrink in both topologies.  `shards` is the claimant count the chunk
/// size divides by (worker threads, for an in-process pool).
pub fn take_chunk(queue: &Mutex<VecDeque<usize>>, shards: u32) -> Vec<usize> {
    let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
    if q.is_empty() {
        return Vec::new();
    }
    let size = (q.len() / (2 * shards as usize)).max(1);
    q.drain(..size).collect()
}

/// Serves one shard connection to completion.  Any protocol violation or
/// lost connection returns the indices the shard still owed, which the
/// caller pushes back onto the queue.
fn serve_shard(
    stream: TcpStream,
    shard: u32,
    job: &JobSpec,
    queue: &Mutex<VecDeque<usize>>,
    tx: &mpsc::Sender<Msg>,
) -> Result<(), Vec<usize>> {
    let broken = |owed: &[usize]| owed.to_vec();
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Vec::new())?);
    let mut writer = stream;
    let _worker_span = quanto_obs::span("worker");

    let hello = read_msg(&mut reader).ok_or_else(Vec::new)?;
    if hello.get_str("t") != Some("hello") {
        return Err(Vec::new());
    }
    write_line(&mut writer, &job.encode(shard)).map_err(|_| Vec::new())?;
    let ready = read_msg(&mut reader).ok_or_else(Vec::new)?;
    if ready.get_str("t") != Some("ready") || ready.get_u64("count") != Some(job.expected as u64) {
        return Err(Vec::new());
    }

    loop {
        let msg = read_msg(&mut reader).ok_or_else(Vec::new)?;
        if msg.get_str("t") != Some("next") {
            return Err(Vec::new());
        }
        let chunk = take_chunk(queue, job.shards);
        if chunk.is_empty() {
            write_line(&mut writer, "{\"t\":\"done\"}").map_err(|_| Vec::new())?;
            // The shard flushes its cache stats (if any) and closes.
            while let Some(tail) = read_msg(&mut reader) {
                if tail.get_str("t") == Some("stats") {
                    let _ = tx.send(Msg::Stats {
                        hits: tail.get_u64("hits").unwrap_or(0),
                        misses: tail.get_u64("misses").unwrap_or(0),
                        writes: tail.get_u64("writes").unwrap_or(0),
                    });
                }
            }
            return Ok(());
        }
        let mut line = String::from("{\"t\":\"chunk\",\"indices\":[");
        for (i, index) in chunk.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&index.to_string());
        }
        line.push_str("]}");
        write_line(&mut writer, &line).map_err(|_| broken(&chunk))?;
        let _ = tx.send(Msg::ChunkServed { size: chunk.len() });

        // The chunk round-trip is the shard's busy time from where the
        // coordinator stands — spanned so shard utilization shows up in
        // the obs profile's worker table under this handler's label.
        let _chunk_span = quanto_obs::span_with("scenario", "chunk");
        let mut owed = chunk;
        for _ in 0..owed.len() {
            let msg = read_msg(&mut reader).ok_or_else(|| broken(&owed))?;
            if msg.get_str("t") != Some("result") {
                return Err(owed);
            }
            let index = match msg.get_u64("index").map(|i| i as usize) {
                Some(i) => i,
                None => return Err(owed),
            };
            let Some(slot) = owed.iter().position(|&i| i == index) else {
                return Err(owed);
            };
            let Some(record) = msg.get("record").and_then(ScenarioRecord::from_value) else {
                return Err(owed);
            };
            let cache_hit = msg
                .get("cache_hit")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            owed.swap_remove(slot);
            if tx
                .send(Msg::Result {
                    shard,
                    index,
                    cache_hit,
                    record,
                })
                .is_err()
            {
                // Merge loop is gone (run aborted): nothing left to serve.
                return Err(owed);
            }
        }
    }
}

/// One connection handler: label the thread for the obs profile, serve,
/// requeue whatever the shard still owed, account the connection.
fn handle_shard(
    stream: TcpStream,
    shard: u32,
    job: &JobSpec,
    queue: &Mutex<VecDeque<usize>>,
    tx: mpsc::Sender<Msg>,
) {
    quanto_obs::set_thread_label(&format!("shard-{shard}"));
    let _ = tx.send(Msg::Opened);
    if let Err(owed) = serve_shard(stream, shard, job, queue, &tx) {
        let mut q = queue.lock().unwrap_or_else(|p| p.into_inner());
        // Front of the queue, original order: a surviving shard picks the
        // orphaned work up next, and submission-order merging is untouched.
        for index in owed.into_iter().rev() {
            q.push_front(index);
        }
    }
    let _ = tx.send(Msg::Closed);
    quanto_obs::flush_thread();
}

/// The shard side: dial the coordinator, re-expand the job's grid, then
/// claim and execute chunks until told `done`.  Runs in a `fleet_sweep
/// --shard ADDR` process (or an in-process thread, in tests).
pub fn run_shard(addr: &str) -> Result<(), DistError> {
    let stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    write_line(&mut writer, "{\"t\":\"hello\"}")?;

    let job = read_msg(&mut reader).ok_or_else(|| protocol("expected a job line"))?;
    if job.get_str("t") != Some("job") {
        return Err(protocol("expected a job line"));
    }
    if job.get_u64("proto") != Some(PROTO_VERSION) {
        return Err(protocol(format!(
            "protocol version mismatch (coordinator {:?}, shard {PROTO_VERSION})",
            job.get_u64("proto")
        )));
    }
    let grid_text = job
        .get_str("grid")
        .ok_or_else(|| protocol("job without grid text"))?;
    let overrides = GridOverrides {
        seconds: job
            .get_opt_u64("seconds")
            .ok_or_else(|| protocol("bad seconds override"))?
            .map(f64::from_bits),
        seed_count: job
            .get_opt_u64("seeds")
            .ok_or_else(|| protocol("bad seeds override"))?,
        pairs: job
            .get_opt_u64("pairs")
            .ok_or_else(|| protocol("bad pairs override"))?
            .map(|p| p as u16),
    };
    let threads = job
        .get_u64("threads")
        .ok_or_else(|| protocol("job without threads"))? as usize;
    let expected = job
        .get_u64("expected")
        .ok_or_else(|| protocol("job without expected count"))? as usize;
    let cache = match job.get("cache") {
        Some(Value::Null) => None,
        Some(Value::Str(dir)) => Some(ResultCache::open(dir.clone())?),
        _ => return Err(protocol("bad cache field")),
    };

    let mut spec = GridSpec::parse(grid_text)?;
    overrides.apply(&mut spec);
    let scenarios = spec.expand()?;
    if scenarios.len() != expected {
        return Err(protocol(format!(
            "grid expands to {} scenarios here, coordinator expected {expected}",
            scenarios.len()
        )));
    }
    write_line(
        &mut writer,
        &format!("{{\"t\":\"ready\",\"count\":{}}}", scenarios.len()),
    )?;

    let runner = FleetRunner::new(threads);
    loop {
        write_line(&mut writer, "{\"t\":\"next\"}")?;
        let msg = read_msg(&mut reader).ok_or_else(|| protocol("coordinator hung up"))?;
        match msg.get_str("t") {
            Some("done") => break,
            Some("chunk") => {
                let indices = msg
                    .get("indices")
                    .and_then(Value::as_arr)
                    .ok_or_else(|| protocol("chunk without indices"))?
                    .iter()
                    .map(|v| v.as_u64().map(|i| i as usize))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| protocol("non-numeric chunk index"))?;
                let batch: Vec<Scenario> = indices
                    .iter()
                    .map(|&i| scenarios.get(i).cloned())
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| protocol("chunk index out of range"))?;
                let report = runner.run_cached(batch, cache.as_ref());
                for (position, result) in report.results.iter().enumerate() {
                    let mut line = String::with_capacity(256);
                    line.push_str(&format!(
                        "{{\"t\":\"result\",\"index\":{},\"cache_hit\":{},\"record\":",
                        indices[position],
                        result.cache_hit(),
                    ));
                    line.push_str(&result.to_record().encode());
                    line.push('}');
                    write_line(&mut writer, &line)?;
                }
            }
            _ => return Err(protocol("expected chunk or done")),
        }
    }
    if let Some(cache) = &cache {
        let s = cache.stats();
        write_line(
            &mut writer,
            &format!(
                "{{\"t\":\"stats\",\"hits\":{},\"misses\":{},\"writes\":{}}}",
                s.hits, s.misses, s.writes
            ),
        )?;
    }
    Ok(())
}

/// Spawns `options.shards` local shard processes of `exe` (each invoked
/// with `--shard ADDR`) against a fresh coordinator and runs the sweep to
/// completion.  A fully-warm sweep short-circuits without spawning
/// anything.
pub fn run_sweep_spawned(
    exe: &std::path::Path,
    grid_text: &str,
    overrides: GridOverrides,
    options: &DistOptions,
    progress: impl FnMut(FleetProgress),
) -> Result<FleetReport, DistError> {
    let coordinator = Coordinator::bind(grid_text, overrides, options)?;
    if coordinator.pending() == 0 {
        return coordinator.run(progress);
    }
    let addr = coordinator.addr()?;
    let mut children = Vec::with_capacity(options.shards.max(1) as usize);
    for _ in 0..options.shards.max(1) {
        children.push(
            std::process::Command::new(exe)
                .arg("--shard")
                .arg(addr.to_string())
                .stdin(std::process::Stdio::null())
                .stdout(std::process::Stdio::null())
                .spawn()?,
        );
    }
    let outcome = coordinator.run(progress);
    for mut child in children {
        if outcome.is_err() {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    outcome
}

/// Reads one protocol line; `None` on EOF, i/o failure or a line that is
/// not a JSON object from the wire subset.
fn read_msg(reader: &mut BufReader<TcpStream>) -> Option<Value> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let value = Value::parse(line.trim_end())?;
    matches!(value, Value::Obj(_)).then_some(value)
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_the_wire() {
        let job = JobSpec {
            grid_text: "[grid]\nname=t\nseconds=2\n[cell.idle]\napp=idle\n".to_string(),
            overrides: GridOverrides {
                seconds: Some(1.5),
                seed_count: Some(4),
                pairs: None,
            },
            shards: 3,
            threads: 2,
            cache_dir: Some("/tmp/with \"quotes\"".to_string()),
            expected: 7,
        };
        let encoded = job.encode(2);
        let v = Value::parse(&encoded).expect("job line parses");
        assert_eq!(v.get_str("t"), Some("job"));
        assert_eq!(v.get_u64("proto"), Some(PROTO_VERSION));
        assert_eq!(v.get_u64("shard"), Some(2));
        assert_eq!(v.get_u64("threads"), Some(2));
        assert_eq!(v.get_u64("expected"), Some(7));
        assert_eq!(v.get_str("grid"), Some(job.grid_text.as_str()));
        assert_eq!(
            v.get_opt_u64("seconds").unwrap().map(f64::from_bits),
            Some(1.5)
        );
        assert_eq!(v.get_opt_u64("seeds"), Some(Some(4)));
        assert_eq!(v.get_opt_u64("pairs"), Some(None));
        assert_eq!(v.get_str("cache"), Some("/tmp/with \"quotes\""));
    }

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
