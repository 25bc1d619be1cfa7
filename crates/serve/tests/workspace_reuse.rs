//! Serve pool workers keep one pooled `SimWorkspace` for their whole life:
//! with observability on, a one-worker daemon serving a multi-cell job must
//! report recycled per-node slots (`workspace.reuses`) in its metrics.
//!
//! A test binary of its own because the obs enabled flag is process-global.

use quanto_serve::{client, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Three Bounce cells: the first builds two per-node slots, the next two
/// must reuse them on the same worker.
const GRID: &str = "
[grid]
name = reuse
seconds = 1

[cell.bounce]
app = bounce
seeds = 1..3
name = bounce_seed{seed}
";

/// A counter's value from the metrics text (`counter NAME VALUE`).
fn counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|line| line.strip_prefix("counter "))
        .filter_map(|rest| rest.split_once(' '))
        .find(|(key, _)| *key == name)
        .and_then(|(_, value)| value.trim().parse().ok())
        .unwrap_or(0)
}

#[test]
fn one_worker_reuses_its_workspace_across_cells() {
    quanto_obs::set_enabled(true);
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            cache_dir: None,
        },
    )
    .expect("bind server")
    .start();
    let addr = handle.addr().to_string();
    let outcome =
        client::run_sweep(&addr, GRID, &Default::default(), |_| {}).expect("sweep completes");
    assert_eq!(outcome.total, 3);

    // The worker flushes its obs counters after each chunk; poll until the
    // last one has landed rather than racing it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = client::metrics(&addr).expect("metrics reply");
        if counter(&text, "workspace.reuses") > 0 || Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    handle.shutdown();
    quanto_obs::set_enabled(false);

    assert!(
        counter(&text, "workspace.reuses") > 0,
        "the worker rebuilt its workspace for every cell:\n{text}"
    );
    assert!(counter(&text, "workspace.rebuilds") > 0, "{text}");
}
