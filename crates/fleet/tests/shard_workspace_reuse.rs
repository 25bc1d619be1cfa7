//! A dist shard keeps one worker pool — and so one pooled `SimWorkspace`
//! per worker — for its whole connection: with observability on, a
//! one-thread shard serving three one-cell chunks must report recycled
//! per-node slots (`workspace.reuses`) in the harvest.
//!
//! A test binary of its own because the obs enabled flag is process-global.

use quanto_fleet::{dist, Coordinator, DistOptions, GridOverrides};

/// Three Bounce cells: one shard claims them one at a time (guided chunks
/// of 3 / 2 → 1, then 1, then 1), so the second and third chunks can only
/// reuse slots if the workspace outlives the first chunk.
const GRID: &str = "
[grid]
name = shard_reuse
seconds = 1

[cell.bounce]
app = bounce
seeds = 1..3
name = bounce_seed{seed}
";

#[test]
fn one_thread_shard_reuses_its_workspace_across_chunks() {
    quanto_obs::set_enabled(true);
    let options = DistOptions {
        shards: 1,
        threads: 1,
        cache_dir: None,
    };
    let coordinator = Coordinator::bind(GRID, GridOverrides::default(), &options).expect("bind");
    assert_eq!(coordinator.pending(), 3);
    let addr = coordinator.addr().expect("addr").to_string();
    let shard = std::thread::spawn(move || dist::run_shard(&addr));
    let report = coordinator.run(|_| {}).expect("sweep completes");
    shard.join().expect("shard thread").expect("shard ok");
    quanto_obs::set_enabled(false);
    let harvest = quanto_obs::harvest();

    assert_eq!(report.results.len(), 3);
    let chunks = harvest
        .merged
        .histogram("sched.chunk_size")
        .expect("chunks");
    assert_eq!(
        (chunks.count(), chunks.max()),
        (3, Some(1)),
        "three one-cell chunks"
    );
    let counter = |name| harvest.merged.counter(name).unwrap_or(0);
    assert!(
        counter("workspace.reuses") > 0,
        "the shard rebuilt its workspace for every chunk ({} rebuilds)",
        counter("workspace.rebuilds")
    );
    assert!(counter("workspace.rebuilds") > 0);
}
