//! A submit-time cache hit shows on `/metrics` while its job still runs.
//!
//! The daemon probes the result cache on the session thread that reads the
//! submit.  That thread lives as long as its client stays connected, so the
//! hits it counts must be handed to the obs sink when the job is built, not
//! when the thread exits: a metrics query during the job must read
//! `cache.hits` equal to `serve.scenarios.warm`.
//!
//! A test binary of its own because the obs enabled flag is process-global.

use quanto_serve::{client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Three one-second Idle cells: fast to warm.
const WARM_GRID: &str = "
[grid]
name = cache_hit_metrics
seconds = 1

[cell.idle]
app = idle
seeds = 1..3
name = idle_seed{seed}
";

/// A cold section to append to the warm grid, far too large to finish
/// before a metrics round trip: 2000 Bounce cells of 20 simulated seconds.
const BLOCKER_SECTION: &str = "
[cell.blocker]
app = bounce
seconds = 20
seeds = 1..2000
name = blocker_seed{seed}
";

/// A counter's value from the metrics text (`counter NAME VALUE`).
fn counter(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter_map(|line| line.strip_prefix("counter "))
        .filter_map(|rest| rest.split_once(' '))
        .find(|(key, _)| *key == name)
        .and_then(|(_, value)| value.trim().parse().ok())
}

#[test]
fn submit_time_cache_hits_reach_metrics_while_the_job_runs() {
    quanto_obs::set_enabled(true);
    let cache_dir =
        std::env::temp_dir().join(format!("serve-cache-hit-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            cache_dir: Some(cache_dir.clone()),
        },
    )
    .expect("bind server")
    .start();
    let addr = handle.addr().to_string();

    // Warm the cache: every cell of this sweep is simulated and stored.
    let cold = client::run_sweep(&addr, WARM_GRID, &Default::default(), |_| {})
        .expect("warming sweep completes");
    assert_eq!((cold.total, cold.warm), (3, 0));

    // Submit the warm cells again beside the cold blocker, and keep this
    // client connected so its session thread stays alive.
    let session = TcpStream::connect(&addr).expect("connect");
    session
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    quanto_fleet::wire::push_json_str(&mut request, &format!("{WARM_GRID}{BLOCKER_SECTION}"));
    request.push_str("}\n");
    (&session).write_all(request.as_bytes()).expect("submit");
    let mut accepted = String::new();
    BufReader::new(&session)
        .read_line(&mut accepted)
        .expect("accepted line");
    assert!(
        accepted.starts_with("{\"t\":\"accepted\",") && accepted.contains("\"warm\":3"),
        "{accepted}"
    );

    let text = client::metrics(&addr).expect("metrics reply");
    assert_eq!(counter(&text, "serve.scenarios.warm"), Some(3), "{text}");
    assert_eq!(
        counter(&text, "cache.hits"),
        counter(&text, "serve.scenarios.warm"),
        "metrics during a job must count its submit-time cache hits:\n{text}"
    );

    // Disconnecting cancels the blocker.
    drop(session);
    handle.shutdown();
    quanto_obs::set_enabled(false);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
