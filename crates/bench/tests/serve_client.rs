//! End-to-end contract of `fleet_sweep --server`: the real binary, as a
//! client of a real (in-process) `quanto-serve` daemon, must print the
//! byte-identical digest the same grid folds in-process — and its `--json`
//! stream must be line-compatible with the local `--json` output (progress
//! documents, then the summary document).

use quanto_fleet::wire::Value;
use quanto_serve::{ServeConfig, Server};
use std::process::Command;

fn fleet_sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
}

const TINY_GRID: &str = "
[grid]
name = served_cli
seconds = 1

[cell.lpl]
app = lpl
interference = 0.18
seeds = 1..2
channels = 17
name = lpl_ch{channel}_seed{seed}

[cell.bounce]
app = bounce
";

/// The `digest` of the summary document on the last stdout line.
fn digest_of(stdout: &str) -> String {
    stdout
        .lines()
        .last()
        .and_then(Value::parse)
        .as_ref()
        .and_then(|summary| summary.get_str("digest"))
        .unwrap_or_else(|| panic!("no digest in output:\n{stdout}"))
        .to_string()
}

#[test]
fn served_cli_sweep_matches_the_local_cli_sweep() {
    let dir = std::env::temp_dir().join(format!("serve-client-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let grid_path = dir.join("tiny.grid");
    std::fs::write(&grid_path, TINY_GRID).expect("write grid");

    let handle = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            cache_dir: None,
        },
    )
    .expect("bind server")
    .start();
    let addr = handle.addr().to_string();

    let served = fleet_sweep()
        .args(["--server", &addr, "--grid"])
        .arg(&grid_path)
        .arg("--json")
        .output()
        .expect("spawn served client");
    assert!(
        served.status.success(),
        "served sweep failed:\n{}",
        String::from_utf8_lossy(&served.stderr)
    );
    let served_out = String::from_utf8(served.stdout).expect("utf8");

    let local = fleet_sweep()
        .args(["--no-cache", "--grid"])
        .arg(&grid_path)
        .arg("--json")
        .output()
        .expect("spawn local sweep");
    assert!(local.status.success());
    let local_out = String::from_utf8(local.stdout).expect("utf8");

    assert_eq!(
        digest_of(&served_out),
        digest_of(&local_out),
        "served and local digests must be byte-identical"
    );

    // Line-compatible stream: 3 progress documents then the summary, each
    // carrying the same per-scenario result shape.
    let served_lines: Vec<&str> = served_out.lines().collect();
    let local_lines: Vec<&str> = local_out.lines().collect();
    assert_eq!(served_lines.len(), 4, "{served_out}");
    assert_eq!(served_lines.len(), local_lines.len());
    for (k, line) in served_lines[..3].iter().enumerate() {
        assert!(
            line.contains(&format!("\"completed\":{}", k + 1)) && line.contains("\"result\":"),
            "progress line {k} malformed: {line}"
        );
    }

    // A daemon-side grid rejection surfaces as a clean client error.
    let bad = fleet_sweep()
        .args(["--server", &addr, "--grid", "/definitely/not/a/grid"])
        .output()
        .expect("spawn bad client");
    assert!(!bad.status.success());

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
