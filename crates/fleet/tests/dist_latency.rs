//! A chunk round trip must cost far less than the cells it carries.
//!
//! 32 one-second idle cells over a coordinator sized for 16 shards, served
//! by one in-process shard: every guided claim is then a one-cell chunk, so
//! the sweep makes 32 `next` → `chunk` → `result` round trips, and the gap
//! between consecutive progress events is one round trip plus one idle
//! cell.  A line held back by Nagle's algorithm until the peer's delayed
//! ACK (about 40 ms on Linux) would put that gap near 90 ms.
//!
//! Runs at 1 and 2 threads per shard, so the shard's pool has one worker
//! and then two.

use quanto_fleet::{dist, Coordinator, DistOptions, GridOverrides};
use std::time::{Duration, Instant};

const GRID: &str = "
[grid]
name = dist_latency
seconds = 1

[cell.idle]
app = idle
seeds = 1..32
name = idle_seed{seed}
";
const CELLS: usize = 32;

/// The ceiling on the median gap between consecutive progress events.
const MAX_MEDIAN_GAP: Duration = Duration::from_millis(20);

/// Runs the sweep on one shard of `threads` workers and returns the gaps
/// between consecutive progress events.
fn progress_gaps(threads: usize) -> Vec<Duration> {
    let options = DistOptions {
        shards: 16,
        threads,
        cache_dir: None,
    };
    let coordinator = Coordinator::bind(GRID, GridOverrides::default(), &options).expect("bind");
    assert_eq!(coordinator.pending(), CELLS);
    let addr = coordinator.addr().expect("addr").to_string();
    let shard = std::thread::spawn(move || dist::run_shard(&addr));
    let mut stamps = Vec::with_capacity(CELLS);
    let report = coordinator
        .run(|_| stamps.push(Instant::now()))
        .expect("sweep completes");
    shard.join().expect("shard thread").expect("shard ok");
    assert_eq!(report.results.len(), CELLS);
    assert_eq!(stamps.len(), CELLS);
    stamps.windows(2).map(|w| w[1] - w[0]).collect()
}

fn median(mut gaps: Vec<Duration>) -> Duration {
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

#[test]
fn one_cell_chunk_round_trips_do_not_stall() {
    for threads in [1usize, 2] {
        let gap = median(progress_gaps(threads));
        assert!(
            gap < MAX_MEDIAN_GAP,
            "median gap between progress events is {gap:?} at {threads} thread(s) \
             (ceiling {MAX_MEDIAN_GAP:?}): a dist line is waiting on a delayed ACK"
        );
    }
}
