//! The repository benchmark: runs one workload of the Quanto reproduction's
//! sweep paths through their public APIs, checks every output against a
//! sequential reference, and prints the end-to-end metrics (or, with
//! `--trace 1`, the per-layer breakdown) with a JSON result as its last
//! line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --shard ADDR        (internal: a spawned shard process)
//! ```
//!
//! Exit status: 0 when every output matched its reference, 1 when any did
//! not, 2 on a usage error or a failure before measuring.

mod check;
mod grids;
mod metrics;
mod stats;
mod sys;
mod traced;
mod workloads;

use metrics::Metrics;
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload lpl_deep|wide_path_loss|sharded_sweep \
     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard") {
        let Some(addr) = args.get(1) else {
            eprintln!("--shard needs an address");
            std::process::exit(2);
        };
        if let Err(e) = quanto_fleet::dist::run_shard(addr) {
            eprintln!("shard failed: {e}");
            std::process::exit(1);
        }
        if let Err(e) = workloads::record_shard_peak() {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        traced::run(args.workload, args.seed, args.seconds)
    } else {
        end_to_end(&args)
    };
    let _ = std::fs::remove_dir(workloads::SCRATCH_DIR);
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json());
            std::process::exit(if result.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn end_to_end(args: &Args) -> Result<metrics::Outcome, String> {
    let threads = workloads::threads();
    println!(
        "perfbench: workload {}, seed {}, {} s window, {threads} thread(s)",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let ready = workloads::ready(args.workload, args.seed)?;
    let window = workloads::run_window(&ready, args.seconds)?;

    let walls: Vec<f64> = window.passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let (tail, tail_label) = stats::tail(&walls);
    let scenarios = window.scenarios();
    let mut m = Metrics::default();
    m.push("setup_s", stats::median(&window.setups.totals), "s");
    m.note(
        "setup_s",
        &format!("median of {} batches", window.setups.totals.len()),
    );
    m.push("sweep_wall_s.p50", stats::median(&walls), "s");
    m.push("sweep_wall_s.tail", tail, "s");
    m.note("sweep_wall_s.tail", &tail_label);
    m.push("scenarios_per_s", window.scenarios_per_s(), "1/s");
    m.push("cpu_ms_per_scenario", window.cpu_ms_per_scenario(), "ms");
    m.push(
        "peak_rss_mb",
        sys::peak_rss_mb() + window.shard_rss_mb(),
        "MiB",
    );
    assert_eq!(
        m.names(),
        metrics::END_TO_END,
        "every end-to-end metric, in order"
    );
    m.print();
    println!(
        "checked {} passes ({scenarios} scenarios) against the sequential reference: {} failed",
        window.passes.len(),
        window.failed()
    );
    Ok(metrics::Outcome {
        attempted: scenarios,
        failed: window.failed(),
        metrics: m,
    })
}
