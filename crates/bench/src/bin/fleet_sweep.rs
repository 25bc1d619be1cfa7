//! `fleet_sweep`: the parallel scenario-grid harness.
//!
//! Every grid this binary runs is a [`quanto_fleet::GridSpec`]: the
//! built-in default, `--smoke` and `--stress` grids are checked-in config
//! files under `crates/bench/grids/` (compiled in, and runnable verbatim
//! through `--grid`), and `--grid FILE` runs any user-composed grid.
//! Scenarios execute on the fleet's zero-materialization path: each node's
//! log streams through a `LogSink` → incremental-builder chain *during* the
//! run, so no scenario's log is ever materialized and the peak raw-entry
//! retention of a whole sweep is zero.  Progress streams over a channel as
//! scenarios merge, and the merged summary table (or, with `--json`, a
//! machine-readable JSON document) prints at the end.
//!
//! ```text
//! fleet_sweep [--seconds N] [--threads N] [--seeds N] [--json]
//!             [--grid FILE] [--smoke] [--min-speedup X]
//!             [--stress [PAIRS]] [--stress-nodes N]
//!             [--shards N] [--cache DIR] [--no-cache]
//!             [--server ADDR]
//!             [--obs] [--obs-json FILE]
//! ```
//!
//! Unknown flags are a usage error — a typo'd axis override must fail
//! loudly, not silently run the wrong sweep.
//!
//! `--shards N` (N ≥ 2) runs the grid as a fleet of fleets: N shard
//! processes of this same binary claim adaptively-sized scenario chunks
//! from a coordinator work queue over loopback TCP (see
//! `quanto_fleet::dist`), each executing its chunk on its own
//! `FleetRunner` with `--threads` workers.  The merged report — and its
//! digest — is byte-identical to `--shards 1` at any thread count.  The
//! internal `--shard ADDR` spelling is what the spawned children run; it
//! must be the only argument.
//!
//! Grid sweeps consult a content-addressed result cache by default
//! (`.quanto-cache/` next to the working directory; `--cache DIR` moves
//! it, `--no-cache` disables it): every scenario whose canonical spec
//! digest has a valid entry is answered from disk instead of simulated,
//! and freshly-simulated cells are written back atomically.  A warm
//! re-run of an unchanged grid executes zero simulations and folds the
//! byte-identical digest.  `--smoke` and `--stress-nodes` are gates, not
//! sweeps — the shard and cache flags are rejected there.
//!
//! `--server ADDR` runs the grid on a `quanto_serve` daemon instead of in
//! this process: the grid text ships over the JSON-lines client protocol
//! (`docs/PROTOCOL.md`), progress events stream back live, and the final
//! summary — digest included — is byte-identical to the daemon's
//! accumulator output (`--json` prints the streamed documents verbatim).
//! Execution policy belongs to the daemon, so the local execution flags
//! (`--threads`, `--shards`, `--cache`/`--no-cache`) and the gate modes
//! are rejected with it.
//!
//! `--obs` turns the `quanto-obs` tracing/metrics layer on for the run
//! (off by default — spans and counters record nothing otherwise) and
//! prints the profile table at the end: time by phase × scenario kind,
//! per-worker utilization, the hottest scenarios and the merged engine,
//! medium and stream counters.  `--obs-json FILE` additionally writes the
//! structured profile, including a chrome://tracing-compatible
//! `trace_events` array.  Both compose with every mode; with `--json` the
//! table goes to stderr so stdout stays machine-readable.  Observability
//! is non-perturbing: the simulation takes the identical path either way,
//! and every report digest is byte-identical with it on or off (enforced
//! by the fleet `obs_equivalence` test).
//!
//! `--stress` runs the multi-node path-loss stress grid: PAIRS (default 8)
//! side-by-side Bounce exchanges spaced along a line under the log-distance
//! model, where neighboring pairs are hidden terminals and the capture rule
//! decides collisions.
//!
//! `--stress-nodes N` runs one single scenario with N nodes (N/2 Bounce
//! pairs; 10k-node cells are routine now that the v2 log encoding carries
//! 32-bit node ids and the spatial medium index keeps delivery
//! O(neighbors)) through the heap scheduler and the zero-materialization
//! path, and fails unless the run holds zero raw entries — the
//! bounded-memory proof for large single-scenario cells.
//!
//! `--smoke` is the CI job: it runs the smoke grid — which includes one
//! scenario per medium kind (ideal, unit_disk, path_loss, mobility), so a
//! nondeterministic loss RNG in any medium fails the gate — twice on 1
//! thread and twice on 4, verifies all four reports are byte-identical (the
//! determinism contract of the fleet subsystem), prints the best wall-clock
//! per thread count as bench-compatible summary lines for `bench_check`, on
//! hosts with more than one CPU fails unless the 4-thread run shows at
//! least the required speedup (default 1.5×, `--min-speedup X` to
//! override), on single-CPU hosts fails instead if the 4-thread wall
//! exceeds 1.15× the 1-thread wall (the merge-loop health gate: workers
//! must not park on the reorder-window backpressure gate when in window —
//! `--obs` attributes any stall via the `runner.backpressure_stalls` and
//! `runner.merge_wakeups` counters), and finally runs the retention
//! gate: a 64-scenario batch must hold *zero* raw entries on the default
//! streaming path.
//!
//! Note on the baseline: the `fleet/sweep_smoke_t4` wall-clock depends on
//! the recording host's core count, which the single-core `calibration/spin`
//! normalization cannot correct for — on hosts with more parallelism than
//! the recorder it can only under-trigger, and the real parallelism gate is
//! the speedup check here, not the baseline entry.

use quanto_bench::baseline::bench_line;
use quanto_fleet::wire::Value;
use quanto_fleet::{
    dist, scenarios, DistOptions, FleetProgress, FleetRunner, GridOverrides, GridSpec, ResultCache,
    Scenario,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The checked-in built-in grids (also runnable via `--grid <path>`).
const DEFAULT_GRID: &str = include_str!("../../grids/default.grid");
const SMOKE_GRID: &str = include_str!("../../grids/smoke.grid");
const STRESS_GRID: &str = include_str!("../../grids/stress.grid");

const USAGE: &str = "usage: fleet_sweep [--seconds N] [--threads N] [--seeds N] [--json]\n\
                     \x20                 [--grid FILE] [--smoke] [--min-speedup X]\n\
                     \x20                 [--stress [PAIRS]] [--stress-nodes N]\n\
                     \x20                 [--shards N] [--cache DIR] [--no-cache]\n\
                     \x20                 [--server ADDR] [--obs] [--obs-json FILE]";

/// Where grid sweeps cache results unless `--cache DIR` / `--no-cache`
/// says otherwise.
const DEFAULT_CACHE_DIR: &str = ".quanto-cache";

/// Parsed command line.  Every flag is validated; leftovers are errors.
#[derive(Debug)]
struct Args {
    seconds: Option<f64>,
    threads: usize,
    seeds: Option<u64>,
    min_speedup: f64,
    json: bool,
    smoke: bool,
    grid: Option<String>,
    stress: bool,
    stress_pairs: Option<u16>,
    stress_nodes: Option<u32>,
    shards: Option<u32>,
    cache: Option<String>,
    no_cache: bool,
    /// Internal: run as a shard worker against this coordinator address.
    shard_addr: Option<String>,
    /// Client mode: run the grid on the `quanto_serve` daemon at this
    /// address instead of in-process.
    server: Option<String>,
    /// Whether `--threads` was given explicitly (server mode rejects it —
    /// the pool size is daemon policy).
    threads_set: bool,
    obs: bool,
    obs_json: Option<String>,
}

impl Args {
    /// The cache directory a grid sweep should use: `--no-cache` disables,
    /// `--cache DIR` relocates, otherwise the default next to the working
    /// directory.
    fn cache_dir(&self) -> Option<PathBuf> {
        if self.no_cache {
            return None;
        }
        Some(PathBuf::from(
            self.cache.as_deref().unwrap_or(DEFAULT_CACHE_DIR),
        ))
    }
}

fn usage_error(message: String) -> Result<Args, String> {
    Err(format!("{message}\n{USAGE}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: None,
        threads: FleetRunner::host_parallel().threads(),
        seeds: None,
        min_speedup: 1.5,
        json: false,
        smoke: false,
        grid: None,
        stress: false,
        stress_pairs: None,
        stress_nodes: None,
        shards: None,
        cache: None,
        no_cache: false,
        shard_addr: None,
        server: None,
        threads_set: false,
        obs: false,
        obs_json: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .filter(|v| !v.starts_with("--"))
            .cloned()
            .ok_or_else(|| format!("fleet_sweep: {flag} needs a value\n{USAGE}"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => args.seconds = Some(s),
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --seconds expects a positive number, got {v:?}"
                        ))
                    }
                }
            }
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                match v.parse::<usize>() {
                    Ok(t) if t > 0 => {
                        args.threads = t;
                        args.threads_set = true;
                    }
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --threads expects a positive integer, got {v:?}"
                        ))
                    }
                }
            }
            "--seeds" => {
                let v = value(&mut i, "--seeds")?;
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => args.seeds = Some(n),
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --seeds expects a positive integer, got {v:?}"
                        ))
                    }
                }
            }
            "--min-speedup" => {
                let v = value(&mut i, "--min-speedup")?;
                match v.parse::<f64>() {
                    Ok(x) if x > 0.0 => args.min_speedup = x,
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --min-speedup expects a positive number, got {v:?}"
                        ))
                    }
                }
            }
            "--grid" => args.grid = Some(value(&mut i, "--grid")?),
            "--shards" => {
                let v = value(&mut i, "--shards")?;
                match v.parse::<u32>() {
                    Ok(n) if (1..=256).contains(&n) => args.shards = Some(n),
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --shards expects a shard count in 1..=256, got {v:?}"
                        ))
                    }
                }
            }
            "--cache" => args.cache = Some(value(&mut i, "--cache")?),
            "--no-cache" => args.no_cache = true,
            "--shard" => args.shard_addr = Some(value(&mut i, "--shard")?),
            "--server" => args.server = Some(value(&mut i, "--server")?),
            "--json" => args.json = true,
            "--smoke" => args.smoke = true,
            // Observability composes with every mode (including --smoke and
            // --stress), so neither flag counts toward the mode exclusion.
            "--obs" => args.obs = true,
            "--obs-json" => args.obs_json = Some(value(&mut i, "--obs-json")?),
            "--stress" => {
                args.stress = true;
                // Optionally followed by a pair count; another flag (or
                // nothing) means the default, a non-count is an error.
                if let Some(v) = argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                    match v.parse::<u16>() {
                        Ok(p) if (1..=32767).contains(&p) => args.stress_pairs = Some(p),
                        _ => {
                            return usage_error(format!(
                                "fleet_sweep: --stress PAIRS must be in 1..=32767, got {v:?}"
                            ))
                        }
                    }
                    i += 1;
                }
            }
            "--stress-nodes" => {
                let v = value(&mut i, "--stress-nodes")?;
                match v.parse::<u32>() {
                    Ok(n) if (2..=65534).contains(&n) && n % 2 == 0 => args.stress_nodes = Some(n),
                    _ => {
                        return usage_error(format!(
                            "fleet_sweep: --stress-nodes expects an even node count in \
                             2..=65534 (counts beyond 254 use the v2 log encoding), got {v:?}"
                        ))
                    }
                }
            }
            other => {
                return usage_error(format!("fleet_sweep: unknown argument {other:?}"));
            }
        }
        i += 1;
    }
    let modes = [
        args.smoke,
        args.grid.is_some(),
        args.stress,
        args.stress_nodes.is_some(),
    ]
    .iter()
    .filter(|m| **m)
    .count();
    if modes > 1 {
        return usage_error(
            "fleet_sweep: --smoke, --grid, --stress and --stress-nodes are mutually \
             exclusive"
                .to_string(),
        );
    }
    if args.shard_addr.is_some() && argv.len() != 2 {
        return usage_error(
            "fleet_sweep: --shard ADDR is internal (spawned by --shards) and must be \
             the only argument"
                .to_string(),
        );
    }
    if args.cache.is_some() && args.no_cache {
        return usage_error("fleet_sweep: --cache and --no-cache conflict".to_string());
    }
    if (args.shards.is_some() || args.cache.is_some() || args.no_cache)
        && (args.smoke || args.stress_nodes.is_some())
    {
        return usage_error(
            "fleet_sweep: --shards/--cache/--no-cache apply to grid sweeps; --smoke and \
             --stress-nodes are gates with their own fixed execution"
                .to_string(),
        );
    }
    if args.server.is_some()
        && (args.smoke
            || args.stress_nodes.is_some()
            || args.shards.is_some()
            || args.cache.is_some()
            || args.no_cache
            || args.threads_set)
    {
        return usage_error(
            "fleet_sweep: --server runs the grid on the daemon — execution flags \
             (--threads/--shards/--cache/--no-cache) and the gate modes stay local"
                .to_string(),
        );
    }
    Ok(args)
}

/// Loads a built-in grid and applies the CLI axis overrides.
fn built_in_grid(text: &str, args: &Args) -> GridSpec {
    let mut grid = GridSpec::parse(text).expect("checked-in grid must parse");
    if let Some(secs) = args.seconds {
        grid.override_seconds(secs);
    }
    if let Some(seeds) = args.seeds {
        grid.override_seed_count(seeds);
    }
    if let Some(pairs) = args.stress_pairs {
        grid.override_pairs(pairs);
    }
    grid
}

fn run_timed(threads: usize, batch: Vec<Scenario>) -> (u64, Duration, String) {
    let report = FleetRunner::new(threads).run(batch);
    (report.digest(), report.wall_clock, report.summary_table())
}

/// Runs a grid as a fleet of spawned shard processes (no cache) and
/// returns the stream digest plus the wall clock.
fn run_shards_timed(
    grid_text: &str,
    overrides: GridOverrides,
    shards: u32,
    threads: usize,
) -> Result<(u64, Duration), String> {
    let exe = std::env::current_exe().map_err(|why| format!("cannot locate own binary: {why}"))?;
    let options = DistOptions {
        shards,
        threads,
        cache_dir: None,
    };
    let report = dist::run_sweep_spawned(&exe, grid_text, overrides, &options, |_| {})
        .map_err(|why| why.to_string())?;
    Ok((report.digest(), report.wall_clock))
}

/// The streaming-retention gate.  The default zero-materialization path
/// must hold *no* raw entries at any instant — any nonzero peak means
/// something re-materialized a log.
fn smoke_retention_gate() -> Result<(), String> {
    let seeds: Vec<u64> = (1..=32).collect();
    let batch = scenarios::lpl_grid(
        &seeds,
        &[17, 26],
        0.18,
        hw_model::SimDuration::from_secs(60),
    );
    assert_eq!(batch.len(), 64);
    let streamed = FleetRunner::new(4).run(batch);
    let total = streamed.total_log_entries();
    println!(
        "Retention (stream): 64-scenario batch produced {total} entries, peak held {}",
        streamed.peak_entries_held()
    );
    if total == 0 {
        return Err("retention gate batch produced no log entries".into());
    }
    if streamed.peak_entries_held() != 0 {
        return Err(format!(
            "zero-materialization path held {} raw entries — something is \
             re-materializing scenario logs",
            streamed.peak_entries_held()
        ));
    }
    if streamed.results.iter().any(|r| r.has_raw()) {
        return Err("raw NodeRunOutput retained on the streaming path".into());
    }
    Ok(())
}

fn smoke(args: &Args) -> ExitCode {
    let batch = match built_in_grid(SMOKE_GRID, args).expand() {
        Ok(batch) => batch,
        Err(why) => {
            eprintln!("fleet_sweep: smoke grid failed to expand: {why}");
            return ExitCode::FAILURE;
        }
    };
    println!("Smoke grid: {} scenarios", batch.len());
    // Each configuration runs twice and the better wall-clock counts: a
    // single end-to-end sample is too noisy for the checked-in baseline,
    // and the repeat doubles as a same-thread-count reproducibility check.
    let (digest1, wall1a, table) = run_timed(1, batch.clone());
    let (digest1b, wall1b, _) = run_timed(1, batch.clone());
    let (digest4, wall4a, _) = run_timed(4, batch.clone());
    let (digest4b, wall4b, _) = run_timed(4, batch);
    let wall1 = wall1a.min(wall1b);
    let wall4 = wall4a.min(wall4b);
    println!("{table}");
    println!(
        "{}",
        bench_line("fleet/sweep_smoke_t1", wall1.as_nanos() as f64)
    );
    println!(
        "{}",
        bench_line("fleet/sweep_smoke_t4", wall4.as_nanos() as f64)
    );

    if digest1 != digest1b || digest4 != digest4b || digest1 != digest4 {
        eprintln!(
            "fleet_sweep: DETERMINISM FAILURE — digests t1 {digest1:#018x}/{digest1b:#018x}, t4 {digest4:#018x}/{digest4b:#018x}"
        );
        return ExitCode::FAILURE;
    }
    println!("Determinism: 1-thread and 4-thread reports are byte-identical ({digest1:#018x})");

    let speedup = wall1.as_secs_f64() / wall4.as_secs_f64().max(1e-9);
    println!(
        "Wall clock: {wall1:.1?} on 1 thread, {wall4:.1?} on 4 threads — {speedup:.2}x speedup"
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Merge-loop health gate.  On a single CPU no speedup is possible, but
    // the 4-thread run must still track the 1-thread run closely: with the
    // lock-free merge watermark, workers only park on the reorder-window
    // gate when genuinely out of window, so a t4/t1 blowout means the
    // backpressure handoff regressed.  The stall instrumentation
    // (`runner.backpressure_stalls`, `runner.merge_wakeups`) lands in the
    // `--obs` profile's merged counters for attribution.
    let ratio = wall4.as_secs_f64() / wall1.as_secs_f64().max(1e-9);
    if cores < 2 {
        println!(
            "(single-CPU host: speedup threshold not enforced; t4/t1 ratio {ratio:.3} \
             gated at 1.15)"
        );
        if ratio > 1.15 {
            eprintln!(
                "fleet_sweep: MERGE-STALL FAILURE — 4-thread wall {wall4:.1?} is {ratio:.2}x \
                 the 1-thread wall {wall1:.1?} on a single-CPU host (budget 1.15x); rerun \
                 with --obs and check runner.backpressure_stalls / runner.merge_wakeups"
            );
            return ExitCode::FAILURE;
        }
    } else if speedup < args.min_speedup {
        eprintln!(
            "fleet_sweep: SPEEDUP FAILURE — {speedup:.2}x < required {:.2}x on a {cores}-CPU host",
            args.min_speedup
        );
        return ExitCode::FAILURE;
    }

    // Fleet-of-fleets gate: the same smoke grid through 2 spawned shard
    // processes × 2 threads each must fold the byte-identical stream
    // digest the in-process runs just agreed on.  Two samples, best wall —
    // same policy as the thread-count lines above.
    let overrides = GridOverrides {
        seconds: args.seconds,
        seed_count: args.seeds,
        pairs: None,
    };
    let shards_run = run_shards_timed(SMOKE_GRID, overrides, 2, 2).and_then(|(da, wa)| {
        run_shards_timed(SMOKE_GRID, overrides, 2, 2).map(|(db, wb)| (da, db, wa.min(wb)))
    });
    let (digest_s2a, digest_s2b, wall_s2) = match shards_run {
        Ok(outcome) => outcome,
        Err(why) => {
            eprintln!("fleet_sweep: SHARD FAILURE — {why}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        bench_line("fleet/sweep_smoke_shards2", wall_s2.as_nanos() as f64)
    );
    if digest_s2a != digest_s2b || digest_s2a != digest1 {
        eprintln!(
            "fleet_sweep: DETERMINISM FAILURE — 2-shard digests {digest_s2a:#018x}/\
             {digest_s2b:#018x} vs in-process {digest1:#018x}"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "Determinism: 2 shard processes × 2 threads fold the identical digest \
         ({digest_s2a:#018x}, {wall_s2:.1?})"
    );

    if let Err(why) = smoke_retention_gate() {
        eprintln!("fleet_sweep: RETENTION FAILURE — {why}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--stress-nodes N`: one N-node scenario through the heap scheduler and
/// the zero-materialization path, gated on holding zero raw entries.
fn stress_nodes(nodes: u32, args: &Args) -> ExitCode {
    let pairs = (nodes / 2) as u16;
    // Round like `GridSpec` expansion does, so `--stress-nodes --seconds X`
    // and a grid cell with `seconds = X` simulate the identical duration.
    let duration =
        hw_model::SimDuration::from_micros((args.seconds.unwrap_or(14.0) * 1e6).round() as u64);
    let scenario = scenarios::path_loss_stress(pairs, 1, duration);
    if !args.json {
        quanto_bench::header(
            "fleet_sweep --stress-nodes",
            "single-scenario heap-scheduler stress on the zero-materialization path",
        );
        println!(
            "{nodes} nodes ({pairs} Bounce pairs along a line), {:.0} s simulated, \
             {} worker thread(s)",
            duration.as_secs_f64(),
            args.threads
        );
    }
    let report = FleetRunner::new(args.threads).run(vec![scenario]);
    if args.json {
        // The JSON document already carries total_log_entries,
        // peak_entries_held and the digest; no extra stdout lines that
        // would corrupt machine-readable output.
        println!("{}", report.summary_json());
    } else {
        println!("{}", report.summary_table());
        println!(
            "Retention: {} entries streamed, peak held {} (digest {:#018x})",
            report.total_log_entries(),
            report.peak_entries_held(),
            report.digest()
        );
    }
    let total = report.total_log_entries();
    if total == 0 {
        eprintln!("fleet_sweep: STRESS FAILURE — the stress scenario produced no entries");
        return ExitCode::FAILURE;
    }
    if report.peak_entries_held() != 0 {
        eprintln!(
            "fleet_sweep: RETENTION FAILURE — {} raw entries held on the \
             zero-materialization path",
            report.peak_entries_held()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Harvests and emits the obs profile: the human table to stdout (stderr
/// when `--json` owns stdout), and the structured JSON document — profile
/// aggregates, merged metrics and a chrome://tracing `trace_events` array —
/// to the `--obs-json` file.  A no-op unless observability was enabled.
fn emit_obs(args: &Args) -> Result<(), String> {
    if !quanto_obs::enabled() {
        return Ok(());
    }
    quanto_obs::flush_thread();
    let harvest = quanto_obs::harvest();
    let profile = quanto_obs::Profile::build(&harvest);
    let table = profile.render_table(&harvest, 10);
    if args.json {
        eprint!("{table}");
    } else {
        print!("{table}");
    }
    if let Some(path) = &args.obs_json {
        std::fs::write(path, profile.to_json(&harvest))
            .map_err(|why| format!("cannot write obs profile {path:?}: {why}"))?;
        if args.json {
            eprintln!("obs profile written to {path}");
        } else {
            println!("obs profile written to {path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    // Shard-worker mode: dial the coordinator, execute chunks, exit.  The
    // parent process owns all reporting.
    if let Some(addr) = &args.shard_addr {
        return match dist::run_shard(addr) {
            Ok(()) => ExitCode::SUCCESS,
            Err(why) => {
                eprintln!("fleet_sweep: shard worker failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    if args.obs || args.obs_json.is_some() {
        quanto_obs::set_enabled(true);
    }
    let code = run_mode(&args);
    if let Err(why) = emit_obs(&args) {
        eprintln!("fleet_sweep: OBS FAILURE — {why}");
        return ExitCode::FAILURE;
    }
    code
}

fn run_mode(args: &Args) -> ExitCode {
    if args.smoke {
        quanto_bench::header(
            "fleet_sweep --smoke",
            "determinism (all 4 medium kinds) + speedup + retention gates",
        );
        return smoke(args);
    }
    if let Some(nodes) = args.stress_nodes {
        return stress_nodes(nodes, args);
    }

    // Grid sweeps keep the grid *text*: the distributed path ships it to
    // the shard processes verbatim (each re-expands identically), and the
    // in-process path parses the same bytes — one source of truth for both.
    let (grid_text, source) = match &args.grid {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => (text, path.clone()),
            Err(why) => {
                eprintln!("fleet_sweep: cannot read grid file {path:?}: {why}");
                return ExitCode::FAILURE;
            }
        },
        None if args.stress => (STRESS_GRID.to_string(), "built-in stress grid".to_string()),
        None => (
            DEFAULT_GRID.to_string(),
            "built-in default grid".to_string(),
        ),
    };
    let overrides = GridOverrides {
        seconds: args.seconds,
        seed_count: args.seeds,
        pairs: args.stress_pairs,
    };
    let grid = match GridSpec::parse(&grid_text).and_then(|mut grid| {
        overrides.apply(&mut grid)?;
        Ok(grid)
    }) {
        Ok(grid) => grid,
        Err(why) => {
            eprintln!("fleet_sweep: {source}: {why}");
            return ExitCode::FAILURE;
        }
    };
    let batch = match grid.expand() {
        Ok(batch) => batch,
        Err(why) => {
            eprintln!("fleet_sweep: {source}: {why}");
            return ExitCode::FAILURE;
        }
    };
    // Client mode: the daemon executes; this process streams and prints.
    // The local parse/expand above already validated the grid, so a
    // daemon-side rejection can only be version skew or a daemon problem.
    if let Some(addr) = &args.server {
        return run_served(addr, &grid_text, overrides, &grid.name, batch.len(), args);
    }

    let shards = args.shards.unwrap_or(1);
    let cache_dir = args.cache_dir();

    if !args.json {
        quanto_bench::header(
            "Fleet sweep — composable scenario grids over the shared engine",
            "ROADMAP: user-composable grid descriptions, zero-materialization runs",
        );
        println!(
            "Grid {:?}: {} scenarios, {} worker thread(s)",
            grid.name,
            batch.len(),
            args.threads
        );
        if shards >= 2 {
            println!(
                "Distributed across {shards} shard processes × {} thread(s) each",
                args.threads
            );
        }
        match &cache_dir {
            Some(dir) => println!("Result cache: {}", dir.display()),
            None => println!("Result cache: disabled"),
        }
    }

    // Progress prints on the merge thread, in submission order, as
    // scenarios complete — whichever shard or cache entry produced them.
    let json = args.json;
    let progress = |p: FleetProgress| {
        if json {
            println!("{}", p.to_json());
        } else {
            let summary = p
                .summaries
                .iter()
                .map(|s| {
                    format!(
                        "node {}: {:.3} mW, {} entries",
                        s.node,
                        s.average_power.as_milli_watts(),
                        s.log_entries
                    )
                })
                .collect::<Vec<_>>()
                .join("; ");
            let delivery = match p.medium_counters {
                Some(c) => format!(" — delivered {}, lost {}", c.delivered, c.lost()),
                None => String::new(),
            };
            let eta = match p.eta_ms {
                Some(ms) => format!(", eta {:.1} s", ms as f64 / 1e3),
                None => String::new(),
            };
            let origin = match (p.cache_hit, p.shard) {
                (true, _) => " [cache]".to_string(),
                (false, Some(shard)) => format!(" [shard {shard}]"),
                (false, None) => String::new(),
            };
            println!(
                "[{}/{}] {} ({}) — {summary}{delivery} [{:.1} s{eta}]{origin}",
                p.completed,
                p.total,
                p.name,
                p.medium_kind,
                p.elapsed_ms as f64 / 1e3
            );
        }
    };

    let report = if shards >= 2 {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(why) => {
                eprintln!("fleet_sweep: cannot locate own binary for shard spawning: {why}");
                return ExitCode::FAILURE;
            }
        };
        let options = DistOptions {
            shards,
            threads: args.threads,
            cache_dir: cache_dir.clone(),
        };
        match dist::run_sweep_spawned(&exe, &grid_text, overrides, &options, progress) {
            Ok(report) => report,
            Err(why) => {
                eprintln!("fleet_sweep: distributed sweep failed: {why}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let cache = match &cache_dir {
            Some(dir) => match ResultCache::open(dir) {
                Ok(cache) => Some(cache),
                Err(why) => {
                    eprintln!("fleet_sweep: cannot open cache {}: {why}", dir.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        FleetRunner::new(args.threads).run_with_progress_cached(batch, cache.as_ref(), progress)
    };

    if args.json {
        println!("{}", report.summary_json());
    } else {
        println!("{}", report.summary_table());
        println!(
            "Batch digest {:#018x} — identical for any --threads or --shards value.",
            report.digest()
        );
        if let Some(stats) = report.cache_stats() {
            println!(
                "Cache: {} hits, {} misses, {} writes.",
                stats.hits, stats.misses, stats.writes
            );
        }
        println!(
            "Raw entries: {} total, peak held {} (the zero-materialization path never \
             holds a log).",
            report.total_log_entries(),
            report.peak_entries_held()
        );
    }
    ExitCode::SUCCESS
}

/// `--server ADDR`: ship the grid to the daemon, stream its progress, and
/// print the served summary.  With `--json` every document prints
/// verbatim, so the output is byte-compatible with an in-process
/// `--json` sweep's progress and summary lines.
fn run_served(
    addr: &str,
    grid_text: &str,
    overrides: GridOverrides,
    grid_name: &str,
    total: usize,
    args: &Args,
) -> ExitCode {
    if !args.json {
        quanto_bench::header(
            "Fleet sweep — served",
            "quanto-serve daemon: shared worker pool, live multi-tenant sweeps",
        );
        println!("Grid {grid_name:?}: {total} scenarios via the daemon at {addr}");
    }
    let json = args.json;
    let progress = |event: &str| {
        if json {
            println!("{event}");
            return;
        }
        // The client hands over only events from lines that parsed.
        let event = Value::parse(event).unwrap_or(Value::Null);
        let count = |key: &str| {
            event
                .get_u64(key)
                .map_or("?".to_string(), |n| n.to_string())
        };
        let result = |key: &str| {
            event
                .get("result")
                .and_then(|r| r.get_str(key))
                .unwrap_or("?")
        };
        let origin = match event.get("cache_hit").and_then(Value::as_bool) {
            Some(true) => " [cache]",
            _ => "",
        };
        println!(
            "[{}/{}] {} ({}){origin}",
            count("completed"),
            count("total"),
            result("scenario"),
            result("medium")
        );
    };
    match quanto_serve::client::run_sweep(addr, grid_text, &overrides, progress) {
        Ok(outcome) => {
            if args.json {
                println!("{}", outcome.summary);
            } else {
                let digest =
                    quanto_serve::client::digest_of(&outcome.summary).unwrap_or("<missing>");
                println!(
                    "Served sweep complete: job {} — {} scenarios ({} answered warm from \
                     the daemon's cache), digest {digest}.",
                    outcome.job, outcome.total, outcome.warm
                );
                println!("The digest is byte-identical to the same grid run in-process.");
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("fleet_sweep: served sweep failed: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::SimDuration;

    fn args(tokens: &[&str]) -> Result<Args, String> {
        parse_args(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// The checked-in grid files must reproduce the hand-written grids the
    /// harness shipped before they existed, scenario for scenario — that
    /// equality is what carries the digest pins over to the config files.
    #[test]
    fn default_grid_file_matches_the_legacy_hardcoded_grid() {
        let d = SimDuration::from_secs(14);
        let seeds: Vec<u64> = (1..=4).collect();
        let mut legacy = scenarios::lpl_grid(&seeds, &[17, 26], 0.18, d);
        legacy.push(Scenario::blink(d));
        legacy.extend(scenarios::medium_grid(d));
        let parsed = GridSpec::parse(DEFAULT_GRID).unwrap().expand().unwrap();
        assert_eq!(parsed, legacy);
    }

    #[test]
    fn smoke_grid_file_matches_the_legacy_smoke_grid() {
        let seeds: Vec<u64> = (1..=8).collect();
        let mut legacy = scenarios::lpl_grid(&seeds, &[17, 26], 0.18, SimDuration::from_secs(1800));
        legacy.push(Scenario::blink(SimDuration::from_secs(900)));
        legacy.push(
            Scenario::bounce(SimDuration::from_secs(30))
                .with_seed(1)
                .named("bounce_seed1"),
        );
        legacy.push(
            Scenario::bounce(SimDuration::from_secs(30))
                .with_seed(2)
                .named("bounce_seed2"),
        );
        legacy.extend(scenarios::medium_grid(SimDuration::from_secs(30)));
        let parsed = GridSpec::parse(SMOKE_GRID).unwrap().expand().unwrap();
        assert_eq!(parsed, legacy);
    }

    #[test]
    fn stress_grid_file_matches_the_legacy_stress_batch() {
        let d = SimDuration::from_secs(14);
        let legacy: Vec<Scenario> = (1..=4)
            .map(|seed| scenarios::path_loss_stress(8, seed, d))
            .collect();
        let parsed = GridSpec::parse(STRESS_GRID).unwrap().expand().unwrap();
        assert_eq!(parsed, legacy);
        // And the --stress PAIRS override rescales the line placement.
        let mut grid = GridSpec::parse(STRESS_GRID).unwrap();
        grid.override_pairs(3);
        let parsed = grid.expand().unwrap();
        let legacy: Vec<Scenario> = (1..=4)
            .map(|seed| scenarios::path_loss_stress(3, seed, d))
            .collect();
        assert_eq!(parsed, legacy);
    }

    /// The example grid in the repo root must stay runnable — CI executes
    /// it, and the README points users at it.
    #[test]
    fn example_grid_file_parses_and_expands() {
        let text = include_str!("../../../../examples/sweep.grid");
        let batch = GridSpec::parse(text).unwrap().expand().unwrap();
        assert!(batch.len() >= 10, "example should show real axes");
        assert!(batch.iter().any(|s| s.medium.kind() == "path_loss"));
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage() {
        for bad in [
            &["--sedes", "4"][..],
            &["--seconds"][..],
            &["--seconds", "abc"][..],
            &["--seconds", "inf"][..],
            &["--seconds", "NaN"][..],
            &["--threads", "0"][..],
            &["--stress", "0"][..],
            &["--stress", "40000"][..],
            &["--stress-nodes", "0"][..],
            &["--stress-nodes", "7"][..],
            &["--stress-nodes", "70000"][..],
            &["--stress-nodes", "abc"][..],
            &["--smoke", "--stress"][..],
            &["extra"][..],
            // Shard and cache flags are strictly validated too.
            &["--shards"][..],
            &["--shards", "0"][..],
            &["--shards", "999"][..],
            &["--shards", "abc"][..],
            &["--cache"][..],
            &["--cache", "dir", "--no-cache"][..],
            &["--smoke", "--shards", "2"][..],
            &["--smoke", "--cache", "dir"][..],
            &["--smoke", "--no-cache"][..],
            &["--stress-nodes", "254", "--shards", "2"][..],
            &["--stress-nodes", "254", "--no-cache"][..],
            // The internal shard spelling must stand alone.
            &["--shard"][..],
            &["--shard", "127.0.0.1:1", "--json"][..],
            &["--json", "--shard", "127.0.0.1:1"][..],
        ] {
            let err = args(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn known_flags_parse() {
        let a = args(&[
            "--seconds",
            "2.5",
            "--threads",
            "3",
            "--seeds",
            "2",
            "--json",
        ])
        .unwrap();
        assert_eq!(a.seconds, Some(2.5));
        assert_eq!(a.threads, 3);
        assert_eq!(a.seeds, Some(2));
        assert!(a.json);
        let a = args(&["--stress"]).unwrap();
        assert!(a.stress && a.stress_pairs.is_none());
        let a = args(&["--stress", "12"]).unwrap();
        assert_eq!(a.stress_pairs, Some(12));
        let a = args(&["--stress", "999"]).unwrap();
        assert_eq!(a.stress_pairs, Some(999));
        let a = args(&["--stress-nodes", "254"]).unwrap();
        assert_eq!(a.stress_nodes, Some(254));
        // Beyond the old 254-node cap: valid since the v2 log encoding.
        let a = args(&["--stress-nodes", "1024"]).unwrap();
        assert_eq!(a.stress_nodes, Some(1024));
        let a = args(&["--stress-nodes", "10000"]).unwrap();
        assert_eq!(a.stress_nodes, Some(10000));
    }

    /// The shard and cache flags: defaults, overrides, and the internal
    /// `--shard` spelling.
    #[test]
    fn shard_and_cache_flags_parse() {
        let a = args(&[]).unwrap();
        assert_eq!(a.shards, None);
        assert_eq!(a.cache_dir(), Some(PathBuf::from(DEFAULT_CACHE_DIR)));
        let a = args(&["--shards", "4", "--cache", "/tmp/c"]).unwrap();
        assert_eq!(a.shards, Some(4));
        assert_eq!(a.cache_dir(), Some(PathBuf::from("/tmp/c")));
        let a = args(&["--no-cache", "--grid", "g.grid"]).unwrap();
        assert!(a.no_cache);
        assert_eq!(a.cache_dir(), None);
        let a = args(&["--stress", "--shards", "2"]).unwrap();
        assert!(a.stress);
        assert_eq!(a.shards, Some(2));
        let a = args(&["--shard", "127.0.0.1:9"]).unwrap();
        assert_eq!(a.shard_addr.as_deref(), Some("127.0.0.1:9"));
    }

    /// `--server` hands execution to the daemon: the grid and axis
    /// overrides travel, the local execution flags and gates are rejected.
    #[test]
    fn server_flag_parses_and_rejects_local_execution_flags() {
        let a = args(&["--server", "127.0.0.1:7645"]).unwrap();
        assert_eq!(a.server.as_deref(), Some("127.0.0.1:7645"));
        let a = args(&[
            "--server",
            "h:1",
            "--grid",
            "g.grid",
            "--seconds",
            "2",
            "--json",
        ])
        .unwrap();
        assert!(a.server.is_some() && a.grid.is_some() && a.json);
        assert_eq!(a.seconds, Some(2.0));
        let a = args(&["--server", "h:1", "--stress", "4", "--seeds", "2"]).unwrap();
        assert!(a.stress);
        assert_eq!(a.stress_pairs, Some(4));
        for bad in [
            &["--server"][..],
            &["--server", "h:1", "--threads", "2"][..],
            &["--server", "h:1", "--shards", "2"][..],
            &["--server", "h:1", "--cache", "dir"][..],
            &["--server", "h:1", "--no-cache"][..],
            &["--server", "h:1", "--smoke"][..],
            &["--server", "h:1", "--stress-nodes", "4"][..],
        ] {
            let err = args(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("usage:"), "{err}");
        }
    }

    /// The obs flags compose with every mode instead of counting toward the
    /// mode exclusion — the whole point is profiling the existing sweeps.
    #[test]
    fn obs_flags_parse_and_compose_with_modes() {
        let a = args(&["--obs"]).unwrap();
        assert!(a.obs && a.obs_json.is_none());
        let a = args(&["--smoke", "--obs", "--obs-json", "obs.json"]).unwrap();
        assert!(a.smoke && a.obs);
        assert_eq!(a.obs_json.as_deref(), Some("obs.json"));
        let a = args(&["--stress", "--obs-json", "p.json"]).unwrap();
        assert!(a.stress);
        assert_eq!(a.obs_json.as_deref(), Some("p.json"));
        let err = args(&["--obs-json"]).expect_err("missing value");
        assert!(err.contains("usage:"), "{err}");
    }
}
