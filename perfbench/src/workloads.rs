//! The three workloads: their set-up and the measurement window that yields
//! the end-to-end metrics.  Load comes from this one process, using at most
//! `threads()` worker threads or shard processes.

use crate::check::{expand, Reference};
use crate::grids;
use crate::sys;
use quanto_fleet::dist::{self, DistOptions, GridOverrides};
use quanto_fleet::{FleetProgress, FleetRunner, Scenario};
use quanto_serve::{client, ServeConfig, Server, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Directory, relative to the working directory, for throw-away result
/// caches, shard peak readings and the traced run's span dump.
pub const SCRATCH_DIR: &str = ".perfbench";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Deep single-node LPL and Blink cells, in process, no cache.
    LplDeep,
    /// Six cells of a thousand path-loss nodes, in process, no cache.
    WidePathLoss,
    /// Short cells through spawned shard processes, no cache.
    ShardedSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LplDeep,
        Workload::WidePathLoss,
        Workload::ShardedSweep,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LplDeep => "lpl_deep",
            Workload::WidePathLoss => "wide_path_loss",
            Workload::ShardedSweep => "sharded_sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's grid.
    pub fn grid(self, seed: u64) -> String {
        match self {
            Workload::LplDeep => grids::lpl_deep(seed),
            Workload::WidePathLoss => grids::wide_path_loss(seed),
            Workload::ShardedSweep => grids::sharded_sweep(seed),
        }
    }
}

/// Worker threads or shard processes the load uses.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running `quanto-serve` daemon with its own fresh result cache.
pub struct Daemon {
    handle: ServerHandle,
    /// The address clients dial.
    pub addr: String,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Binds and starts a daemon with `workers` pool threads and an empty
    /// cache directory of its own.
    pub fn start(workers: usize) -> Result<Daemon, String> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let cache_dir = PathBuf::from(SCRATCH_DIR).join(format!(
            "cache-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let config = ServeConfig {
            workers,
            cache_dir: Some(cache_dir.clone()),
        };
        let server =
            Server::bind("127.0.0.1:0", config).map_err(|e| format!("daemon bind: {e}"))?;
        let handle = server.start();
        let addr = handle.addr().to_string();
        Ok(Daemon {
            handle,
            addr,
            cache_dir,
        })
    }

    /// Stops the daemon and removes its cache directory.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// What set-up leaves ready for the first scenario to be issued.
pub struct Prepared {
    /// The grid text, which the sharded workload ships to every shard.
    pub text: String,
    /// Its scenarios, which the in-process workloads run.
    pub cells: Vec<Scenario>,
}

/// Least wall time of one batch of back-to-back set-ups.  One set-up takes
/// tens of microseconds, so a batch averages timer noise away.
const SETUP_BATCH: Duration = Duration::from_millis(10);

/// Untimed set-ups that lead into each batch, so that the timed ones do not
/// start on a core the pass before left idle (a sharded pass mostly waits
/// on its shards).
const SETUP_LEAD_IN: Duration = Duration::from_millis(2);

/// One set-up, timed: the whole of it, and its parse-and-expand part.
pub struct Setup {
    /// Ready state.
    pub prepared: Prepared,
    /// From workload start until the first scenario can be issued.
    pub total: Duration,
    /// Grid parse and expand alone.
    pub expand: Duration,
}

/// Sets the workload up from its seed: generate the grid text, then parse
/// and expand it.
pub fn setup(workload: Workload, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let text = workload.grid(seed);
    let expand_started = Instant::now();
    let cells = expand(&text)?;
    let expand = expand_started.elapsed();
    Ok(Setup {
        prepared: Prepared { text, cells },
        total: started.elapsed(),
        expand,
    })
}

/// Per-set-up means of timed batches of back-to-back set-ups, seconds.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// From workload start until the first scenario can be issued.
    pub totals: Vec<f64>,
    /// Grid parse and expand alone.
    pub expands: Vec<f64>,
}

impl SetupTimes {
    /// Times one batch of back-to-back set-ups that runs for at least
    /// `SETUP_BATCH` after `SETUP_LEAD_IN`.  Dropping a set-up's result is
    /// outside its time.
    fn batch(&mut self, workload: Workload, seed: u64) -> Result<(), String> {
        let lead_in = Instant::now();
        while lead_in.elapsed() < SETUP_LEAD_IN {
            setup(workload, seed)?;
        }
        let started = Instant::now();
        let (mut total, mut expand, mut count) = (Duration::ZERO, Duration::ZERO, 0u32);
        while count == 0 || started.elapsed() < SETUP_BATCH {
            let setup = setup(workload, seed)?;
            total += setup.total;
            expand += setup.expand;
            count += 1;
        }
        self.totals.push(total.as_secs_f64() / f64::from(count));
        self.expands.push(expand.as_secs_f64() / f64::from(count));
        Ok(())
    }
}

/// A workload ready to measure.
pub struct Ready {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The set-up the measurement uses, warmed up by one unmeasured pass.
    pub prepared: Prepared,
    /// The grid's reference.
    pub reference: Reference,
}

/// Computes the grid's reference, sets up, and runs one unmeasured
/// warm-up pass.
pub fn ready(workload: Workload, seed: u64) -> Result<Ready, String> {
    let reference = Reference::compute(expand(&workload.grid(seed))?);
    let ready = Ready {
        workload,
        seed,
        prepared: setup(workload, seed)?.prepared,
        reference,
    };
    if !ready.pass(&mut Vec::new())?.ok {
        return Err("the warm-up pass did not match its reference".to_string());
    }
    Ok(ready)
}

impl Ready {
    /// One pass of the workload, checked against the reference; sharded
    /// passes push the gaps between merged scenarios onto `gaps`.
    pub fn pass(&self, gaps: &mut Vec<f64>) -> Result<Pass, String> {
        let threads = threads();
        match self.workload {
            Workload::LplDeep | Workload::WidePathLoss => {
                Ok(local_pass(&self.prepared.cells, threads, &self.reference))
            }
            Workload::ShardedSweep => {
                sharded_pass(&self.prepared.text, threads, &self.reference, gaps)
            }
        }
    }
}

/// One completed sweep pass (or served job).
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall time of the whole pass, or submit to final document.
    pub wall: Duration,
    /// Pass start (or submit) to the first merged scenario.
    pub first: Duration,
    /// Pass start (or submit) to the last merged scenario.
    pub last: Duration,
    /// Progress events seen.
    pub events: usize,
    /// Bytes of progress events plus final document (served jobs only).
    pub bytes: usize,
    /// Scenarios the pass covered.
    pub scenarios: usize,
    /// Sum of the shard processes' peak resident set sizes, MiB (0 for
    /// passes that spawn none).
    pub shard_rss_mb: f64,
    /// Whether its output matched the reference.
    pub ok: bool,
}

/// Everything one measurement window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Every pass, in completion order.
    pub passes: Vec<Pass>,
    /// Wall time of the passes.
    pub elapsed: Duration,
    /// CPU time of this process and its waited-for children over each
    /// pass.
    pub cpus: Vec<Duration>,
    /// One set-up batch after every pass, outside `elapsed` and `cpus`.
    pub setups: SetupTimes,
}

impl Window {
    /// Scenarios completed.
    pub fn scenarios(&self) -> u64 {
        self.passes.iter().map(|p| p.scenarios as u64).sum()
    }

    /// Scenarios in passes that did not match their reference.
    pub fn failed(&self) -> u64 {
        self.passes
            .iter()
            .filter(|p| !p.ok)
            .map(|p| p.scenarios as u64)
            .sum()
    }

    /// Scenarios completed per second of window.
    pub fn scenarios_per_s(&self) -> f64 {
        scenarios_per_s(std::slice::from_ref(self))
    }

    /// The median over passes of their CPU time per scenario, ms.
    pub fn cpu_ms_per_scenario(&self) -> f64 {
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .zip(&self.cpus)
            .map(|(p, cpu)| cpu.as_secs_f64() * 1e3 / p.scenarios.max(1) as f64)
            .collect();
        crate::stats::median(&per_pass)
    }

    /// The largest summed shard peak of any pass, MiB.
    pub fn shard_rss_mb(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.shard_rss_mb)
            .fold(0.0, f64::max)
    }
}

/// Scenarios completed per second of pass time over several windows.
pub fn scenarios_per_s(windows: &[Window]) -> f64 {
    let scenarios: u64 = windows.iter().map(Window::scenarios).sum();
    let elapsed: Duration = windows.iter().map(|w| w.elapsed).sum();
    scenarios as f64 / elapsed.as_secs_f64()
}

/// Times progress events of one pass from its start.
struct Progress {
    started: Instant,
    first: Option<Duration>,
    last: Duration,
    events: usize,
}

impl Progress {
    fn new() -> Progress {
        Progress {
            started: Instant::now(),
            first: None,
            last: Duration::ZERO,
            events: 0,
        }
    }

    fn event(&mut self) {
        let now = self.started.elapsed();
        self.first.get_or_insert(now);
        self.last = now;
        self.events += 1;
    }

    fn pass(self, scenarios: usize, bytes: usize, ok: bool) -> Pass {
        let wall = self.started.elapsed();
        Pass {
            wall,
            first: self.first.unwrap_or(wall),
            last: self.last,
            events: self.events,
            bytes,
            scenarios,
            shard_rss_mb: 0.0,
            ok,
        }
    }
}

/// One in-process pass through `FleetRunner` at `threads` workers.
pub fn local_pass(cells: &[Scenario], threads: usize, reference: &Reference) -> Pass {
    let batch = cells.to_vec();
    let mut progress = Progress::new();
    let report = FleetRunner::new(threads).run_with_progress(batch, |_| progress.event());
    let ok = reference.matches(&report);
    progress.pass(cells.len(), 0, ok)
}

/// One pass through `threads` spawned shard processes of this executable,
/// one worker thread each, recording the gaps between merged scenarios.
pub fn sharded_pass(
    text: &str,
    shards: usize,
    reference: &Reference,
    gaps: &mut Vec<f64>,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the shard executable: {e}"))?;
    let options = DistOptions {
        shards: shards as u32,
        threads: 1,
        cache_dir: None,
    };
    let mut progress = Progress::new();
    let mut previous: Option<Duration> = None;
    let report = dist::run_sweep_spawned(
        &exe,
        text,
        GridOverrides::default(),
        &options,
        |_: FleetProgress| {
            progress.event();
            if let Some(prev) = previous {
                gaps.push((progress.last - prev).as_secs_f64());
            }
            previous = Some(progress.last);
        },
    )
    .map_err(|e| format!("sharded sweep failed: {e}"))?;
    let ok = reference.matches(&report);
    Ok(Pass {
        shard_rss_mb: take_shard_peaks(),
        ..progress.pass(reference.scenarios, 0, ok)
    })
}

/// Where the shards of coordinator process `coordinator` leave their peak
/// resident set sizes, one file per shard.
fn shard_peak_dir(coordinator: u32) -> PathBuf {
    PathBuf::from(SCRATCH_DIR).join(format!("shard-rss-{coordinator}"))
}

/// Records this shard process's peak resident set size for its
/// coordinator (the parent process) to read once the pass is over.
pub fn record_shard_peak() -> Result<(), String> {
    let dir = shard_peak_dir(std::os::unix::process::parent_id());
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(std::process::id().to_string()),
                sys::peak_rss_mb().to_string(),
            )
        })
        .map_err(|e| format!("recording the shard peak under {}: {e}", dir.display()))
}

/// Sums and removes the peaks the shards of the pass just finished left
/// behind, MiB.  `run_sweep_spawned` waits for every shard to exit, so each
/// has written its file by now.
fn take_shard_peaks() -> f64 {
    let dir = shard_peak_dir(std::process::id());
    let total = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path()).ok())
        .filter_map(|text| text.trim().parse::<f64>().ok())
        .sum();
    let _ = std::fs::remove_dir_all(&dir);
    total
}

/// One served job: submit and watch its progress.  Returns the pass,
/// `ok` unless the job errored, with the final summary document to check.
/// Only the traced run serves jobs, to measure the serve and cache layers.
pub fn served_job(addr: &str, text: &str) -> (Pass, Option<String>) {
    let mut progress = Progress::new();
    let mut bytes = 0;
    let outcome = client::run_sweep(addr, text, &GridOverrides::default(), |event| {
        progress.event();
        bytes += event.len();
    });
    match outcome {
        Ok(outcome) => {
            bytes += outcome.summary.len();
            (
                progress.pass(outcome.total, bytes, true),
                Some(outcome.summary),
            )
        }
        Err(e) => {
            eprintln!("served job failed: {e}");
            (progress.pass(0, bytes, false), None)
        }
    }
}

/// Runs whole passes of the workload for `seconds`, timing a batch of
/// set-ups after each.  Spread over the window, the set-up batches see the
/// same host as the passes do.
pub fn run_window(ready: &Ready, seconds: f64) -> Result<Window, String> {
    let budget = Duration::from_secs_f64(seconds);
    let mut window = Window::default();
    let started = Instant::now();
    while started.elapsed() < budget {
        let (cpu, wall) = (sys::cpu_time(), Instant::now());
        window.passes.push(ready.pass(&mut Vec::new())?);
        window.elapsed += wall.elapsed();
        window.cpus.push(sys::cpu_time() - cpu);
        window.setups.batch(ready.workload, ready.seed)?;
    }
    Ok(window)
}
