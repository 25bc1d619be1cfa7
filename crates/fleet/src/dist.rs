//! Fleet-of-fleets: multi-process sweep sharding with dynamic
//! self-scheduling.
//!
//! A [`Coordinator`] expands a grid once, serves its scenario *indices* in
//! adaptively-shrinking chunks over a line-delimited JSON work-queue
//! protocol (`std::net::TcpListener` on loopback — no dependencies), and
//! merges the per-scenario records the shards return.  The sweep is one
//! [`crate::Job`]: its connection handlers claim chunks from it, requeue
//! whatever a lost shard owed, and deliver the decoded records.  Each shard
//! is another process of the same binary (`fleet_sweep --shard ADDR`)
//! running one [`crate::WorkerPool`] for the whole connection, with every
//! chunk it claims a job on that pool — so its workers' workspaces persist
//! across chunks.  Both ends set `TCP_NODELAY` and write each line in one
//! write, so no line waits for the peer's delayed ACK: a chunk round trip
//! costs far less than the cells it carries.
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
//! ```
//!
//! **Self-scheduling.**  Chunks are claimed, not assigned: whenever a shard
//! asks, it receives the next `max(1, remaining / (2 × shards))` queued
//! indices (the job's guided self-scheduling chunk).  Early
//! chunks are large to amortize round-trips; late chunks shrink toward
//! single scenarios, so a straggler shard can never sit on a long tail
//! while its peers idle.  The pool's backpressure window never clamps
//! these chunks: every extra round-trip would cost a sharded sweep more
//! than the reorder buffer it saves.  `done` means the sweep is over: a
//! shard that asks while the queue is empty but a peer still holds cells
//! waits for them, and gets them if that peer is lost.
//!
//! **Determinism.**  The shards ship grid *text* plus the numeric overrides
//! (not expanded scenarios), re-expand identically, and return each
//! scenario's record (PROTOCOL.md §5), which [`ScenarioResult`] writes and
//! reads itself: summaries, stream residues and medium counters with every
//! float as its exact bit pattern.  The coordinator's job reorders results
//! by submission index and folds them exactly as an in-process run's job
//! does, so [`crate::FleetReport::digest`] is byte-identical at any shard
//! count × thread count.  Dist runs always use [`Retention::Stream`]: a
//! record carries no raw log.
//!
//! **Fault tolerance.**  A handler that loses its connection mid-chunk, or
//! reads a line it cannot use (a `result` whose record does not rebuild its
//! cell among them), hangs up and pushes the chunk's unreturned indices
//! back onto the *front* of the queue, so a surviving shard re-executes
//! them and the sweep still completes with the same digest.  Only when
//! every connection is gone and work remains does [`Coordinator::run`]
//! give up with [`DistError::ShardsDied`].
//!
//! **Cache integration.**  The coordinator's job probes the result cache
//! for every cell up front — hits never enter the queue (a fully-warm
//! sweep spawns no work at all) — and shards write fresh entries as they
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

use crate::cache::ResultCache;
pub use crate::grid::GridOverrides;
use crate::grid::{GridError, GridSpec};
use crate::job::{FleetProgress, Job, JobStatus};
use crate::pool::WorkerPool;
use crate::report::{FleetReport, ScenarioResult};
use crate::runner::Retention;
use crate::scenario::Scenario;
use crate::wire::{push_json_str, read_msg, write_line, Value};
use std::fmt;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Wire protocol version; both ends must agree exactly.
const PROTO_VERSION: u64 = 1;

/// How long the run loop tolerates zero live connections (after at least
/// one shard has connected) before declaring the fleet dead.  Long enough
/// to ride out the gap between one shard disconnecting and another's
/// connect landing; short enough that tests and CI fail fast.
const ALL_DEAD_GRACE: Duration = Duration::from_secs(2);

/// How long the run loop waits for the *first* connection before giving
/// up — generous, because freshly-spawned shard processes pay a process
/// start plus a grid expansion before they dial in.
const FIRST_CONNECT_GRACE: Duration = Duration::from_secs(120);

/// How a distributed sweep runs.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// How many shard processes will serve the queue (the chunk-size
    /// denominator; the coordinator accepts any number of connections).
    pub shards: u32,
    /// Worker threads in each shard's pool.
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
        out.push(',');
        self.overrides.push_json(&mut out);
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

/// The coordinator side of a distributed sweep: owns the listener, the
/// shard brief and the sweep's [`Job`].
pub struct Coordinator {
    listener: TcpListener,
    spec: JobSpec,
    job: Job,
}

impl Coordinator {
    /// Parses and expands the grid, builds the sweep's job (probing the
    /// cache for every cell — hits skip the queue entirely) and binds a
    /// loopback listener.  Nothing is served until [`Coordinator::run`].
    pub fn bind(
        grid_text: &str,
        overrides: GridOverrides,
        options: &DistOptions,
    ) -> Result<Coordinator, DistError> {
        let mut spec = GridSpec::parse(grid_text)?;
        overrides.apply(&mut spec)?;
        let scenarios = spec.expand()?;
        let cache = match &options.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let threads = options.threads.max(1);
        let expected = scenarios.len();
        let job = Job::new(scenarios, Retention::Stream, threads, cache.as_ref());
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Ok(Coordinator {
            listener,
            spec: JobSpec {
                grid_text: grid_text.to_string(),
                overrides,
                shards: options.shards.max(1),
                threads,
                cache_dir: options
                    .cache_dir
                    .as_ref()
                    .map(|d| d.to_string_lossy().into_owned()),
                expected,
            },
            job,
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
        self.job.queued()
    }

    /// Total scenarios in the sweep.
    pub fn total(&self) -> usize {
        self.job.total()
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
            spec,
            job,
        } = self;
        let started = Instant::now();
        let addr = listener.local_addr()?;
        let links = Links::default();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // A fully-warm sweep merged at bind: nothing to serve, so no
            // connection is ever accepted.
            if job.queued() > 0 {
                let (spec, job, links, stop) = (&spec, &job, &links, &stop);
                scope.spawn(move || {
                    let next_shard = AtomicU32::new(0);
                    std::thread::scope(|handlers| {
                        for stream in listener.incoming() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            let Ok(stream) = stream else { break };
                            let shard = next_shard.fetch_add(1, Ordering::SeqCst);
                            handlers.spawn(move || handle_shard(stream, shard, spec, job, links));
                        }
                    });
                });
            }
            // However the loop below ends, stop serving: clear the queue so
            // connected shards are told `done`, and unblock the acceptor
            // with a throwaway self-connection.
            let _stop = StopServing {
                job: &job,
                stop: &stop,
                addr,
            };
            loop {
                let (events, status) = job.wait(Duration::from_millis(200));
                events.into_iter().for_each(&mut progress);
                match status {
                    JobStatus::Finished => return Ok(()),
                    JobStatus::Running if !links.dead(started) => {}
                    JobStatus::Running | JobStatus::Cancelled => {
                        return Err(DistError::ShardsDied {
                            merged: job.merged(),
                            total: job.total(),
                        })
                    }
                }
            }
        })?;
        Ok(job.take_report().expect("a finished job holds its report"))
    }
}

/// Shard connections as the run loop's liveness check sees them: how many
/// are open, and when that count last changed (`None` until the first
/// shard connects).
#[derive(Default)]
struct Links(Mutex<(usize, Option<Instant>)>);

impl Links {
    fn change(&self, delta: isize) {
        let mut links = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        links.0 = links.0.saturating_add_signed(delta);
        links.1 = Some(Instant::now());
    }

    /// Whether the fleet is dead: no shard connected within
    /// [`FIRST_CONNECT_GRACE`] of `started`, or none left open for
    /// [`ALL_DEAD_GRACE`].
    fn dead(&self, started: Instant) -> bool {
        match *self.0.lock().unwrap_or_else(PoisonError::into_inner) {
            (_, None) => started.elapsed() >= FIRST_CONNECT_GRACE,
            (live, Some(changed)) => live == 0 && changed.elapsed() >= ALL_DEAD_GRACE,
        }
    }
}

/// Ends a coordinator run (see [`Coordinator::run`]) when dropped.
struct StopServing<'a> {
    job: &'a Job,
    stop: &'a AtomicBool,
    addr: SocketAddr,
}

impl Drop for StopServing<'_> {
    fn drop(&mut self) {
        self.job.cancel();
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Serves one shard connection to completion.  Any protocol violation or
/// lost connection returns the indices the shard still owed, which the
/// caller requeues.
fn serve_shard(stream: TcpStream, shard: u32, spec: &JobSpec, job: &Job) -> Result<(), Vec<usize>> {
    stream.set_nodelay(true).map_err(|_| Vec::new())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|_| Vec::new())?);
    let mut writer = stream;
    let _worker_span = quanto_obs::span("worker");

    let hello = read_msg(&mut reader).ok_or_else(Vec::new)?;
    if hello.get_str("t") != Some("hello") {
        return Err(Vec::new());
    }
    write_line(&mut writer, &spec.encode(shard)).map_err(|_| Vec::new())?;
    let ready = read_msg(&mut reader).ok_or_else(Vec::new)?;
    if ready.get_str("t") != Some("ready") || ready.get_u64("count") != Some(spec.expected as u64) {
        return Err(Vec::new());
    }

    loop {
        let msg = read_msg(&mut reader).ok_or_else(Vec::new)?;
        if msg.get_str("t") != Some("next") {
            return Err(Vec::new());
        }
        // Empty only once the sweep is over: while a peer still holds
        // cells, this shard waits for them to come back or to merge.
        let chunk = job.claim_or_wait(spec.shards);
        if chunk.is_empty() {
            write_line(&mut writer, "{\"t\":\"done\"}").map_err(|_| Vec::new())?;
            // Drain to the shard's close, so it never sees a reset.
            while read_msg(&mut reader).is_some() {}
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
        if write_line(&mut writer, &line).is_err() {
            return Err(chunk);
        }
        quanto_obs::counter_add("sched.chunks_served", 1);
        quanto_obs::observe("sched.chunk_size", chunk.len() as u64);

        // The chunk round-trip is the shard's busy time from where the
        // coordinator stands — spanned so shard utilization shows up in
        // the obs profile's worker table under this handler's label.
        let _chunk_span = quanto_obs::span_with("scenario", "chunk");
        let mut owed = chunk;
        for _ in 0..owed.len() {
            let Some(msg) = read_msg(&mut reader) else {
                return Err(owed);
            };
            if msg.get_str("t") != Some("result") {
                return Err(owed);
            }
            let Some(index) = msg.get_u64("index").map(|i| i as usize) else {
                return Err(owed);
            };
            let Some(slot) = owed.iter().position(|&i| i == index) else {
                return Err(owed);
            };
            let cache_hit = msg
                .get("cache_hit")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            let scenario = job.scenario(index).expect("owed indices are in range");
            // A record that does not rebuild its cell — malformed, or well
            // formed for another node set or medium (a shard bug or a
            // skewed grid) — ends the connection like any broken line.
            let Some(result) = msg.get("record").and_then(|record| {
                ScenarioResult::from_record(index, scenario.clone(), record, cache_hit)
            }) else {
                return Err(owed);
            };
            owed.swap_remove(slot);
            job.deliver(result, Some(shard));
        }
    }
}

/// One connection handler: label the thread for the obs profile, serve,
/// requeue whatever the shard still owed, account the connection.
fn handle_shard(stream: TcpStream, shard: u32, spec: &JobSpec, job: &Job, links: &Links) {
    quanto_obs::set_thread_label(&format!("shard-{shard}"));
    links.change(1);
    if let Err(owed) = serve_shard(stream, shard, spec, job) {
        // Front of the queue, original order: a surviving shard picks the
        // orphaned work up next, and submission-order merging is untouched.
        job.requeue(&owed);
    }
    links.change(-1);
    quanto_obs::flush_thread();
}

/// The shard side: dial the coordinator, re-expand the job's grid, start a
/// pool of the job's `threads` workers, then claim chunks and run each as
/// a job on that pool until told `done`.  Runs in a `fleet_sweep --shard
/// ADDR` process (or an in-process thread, in tests).
pub fn run_shard(addr: &str) -> Result<(), DistError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
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
    let overrides = GridOverrides::from_json(&job).map_err(protocol)?;
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
    overrides.apply(&mut spec)?;
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

    // A shard never runs more cells at once than its sweep has.
    let workers = threads.clamp(1, scenarios.len().max(1));
    WorkerPool::scoped(workers, cache.as_ref(), |pool| {
        run_chunks(pool, &scenarios, &mut reader, &mut writer)
    })
}

/// The shard's work loop: claim a chunk, run it as a job on `pool`, return
/// its records; until the coordinator says `done`.
fn run_chunks(
    pool: &WorkerPool,
    scenarios: &[Scenario],
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
) -> Result<(), DistError> {
    loop {
        write_line(writer, "{\"t\":\"next\"}")?;
        let msg = read_msg(reader).ok_or_else(|| protocol("coordinator hung up"))?;
        match msg.get_str("t") {
            Some("done") => return Ok(()),
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
                // The cache is the pool's: its workers probe and write back
                // each cell as they execute it.
                let job = Arc::new(Job::new(batch, Retention::Stream, pool.workers(), None));
                pool.submit(job.clone());
                let report = job.finish_with(|_| {});
                for (result, index) in report.results.iter().zip(&indices) {
                    let mut line = format!(
                        "{{\"t\":\"result\",\"index\":{index},\"cache_hit\":{},\"record\":",
                        result.cache_hit(),
                    );
                    result.push_record(&mut line);
                    line.push('}');
                    write_line(writer, &line)?;
                }
            }
            _ => return Err(protocol("expected chunk or done")),
        }
    }
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
}
