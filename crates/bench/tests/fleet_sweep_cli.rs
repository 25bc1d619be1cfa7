//! End-to-end CLI contracts of `fleet_sweep`'s shard and cache flags,
//! exercising the real binary (`CARGO_BIN_EXE_fleet_sweep`) with real
//! spawned shard processes — the one layer the in-process tests in
//! `quanto-fleet` cannot cover.

use quanto_fleet::wire::Value;
use std::path::PathBuf;
use std::process::Command;

fn fleet_sweep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fleet_sweep"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fleet-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny grid: fast to simulate, several cells, one non-ideal medium.
const TINY_GRID: &str = "
[grid]
name = cli_tiny
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

fn write_grid(dir: &PathBuf) -> PathBuf {
    std::fs::create_dir_all(dir).expect("mkdir");
    let path = dir.join("tiny.grid");
    std::fs::write(&path, TINY_GRID).expect("write grid");
    path
}

/// The last stdout line: the sweep's summary document, parsed.
fn summary(stdout: &str) -> Value {
    stdout
        .lines()
        .last()
        .and_then(Value::parse)
        .unwrap_or_else(|| panic!("no summary document in output:\n{stdout}"))
}

fn digest_of(stdout: &str) -> String {
    summary(stdout)
        .get_str("digest")
        .unwrap_or_else(|| panic!("no digest in output:\n{stdout}"))
        .to_string()
}

/// Hits/misses/writes of the summary document's `cache` object.
fn cache_counts(stdout: &str) -> (u64, u64, u64) {
    let doc = summary(stdout);
    let count = |key: &str| -> u64 {
        doc.get("cache")
            .and_then(|cache| cache.get_u64(key))
            .unwrap_or_else(|| panic!("no cache.{key} in summary:\n{stdout}"))
    };
    (count("hits"), count("misses"), count("writes"))
}

/// The flagship CLI contract: a cold 2-shard cached run and a warm re-run
/// produce byte-identical digests, the warm run is all hits and zero
/// simulations, and `--shards 1 --no-cache` agrees with both.
#[test]
fn sharded_and_cached_runs_fold_the_same_digest() {
    let dir = tmp_dir("e2e");
    let grid = write_grid(&dir);
    let cache = dir.join("cache");
    let run = |extra: &[&str]| {
        let out = fleet_sweep()
            .args(["--grid", grid.to_str().unwrap(), "--json"])
            .args(extra)
            .output()
            .expect("fleet_sweep runs");
        assert!(
            out.status.success(),
            "fleet_sweep {extra:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("utf8 stdout")
    };

    let plain = run(&["--no-cache"]);
    let cold = run(&[
        "--shards",
        "2",
        "--threads",
        "2",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    let warm = run(&[
        "--shards",
        "2",
        "--threads",
        "2",
        "--cache",
        cache.to_str().unwrap(),
    ]);

    let digest = digest_of(&plain);
    assert_eq!(digest_of(&cold), digest, "cold sharded digest drifted");
    assert_eq!(digest_of(&warm), digest, "warm cached digest drifted");

    assert!(plain.lines().last().unwrap().contains("\"cache\":null"));
    let (hits, misses, writes) = cache_counts(&cold);
    assert_eq!((hits, misses), (0, 3), "cold run misses every cell");
    assert_eq!(writes, 3, "cold run populates the cache");
    let (hits, misses, writes) = cache_counts(&warm);
    assert_eq!((hits, misses, writes), (3, 0, 0), "warm run is all hits");

    // Warm progress events carry cache_hit:true and no shard (nothing ran).
    let first_event = warm.lines().next().expect("progress line");
    assert!(first_event.contains("\"cache_hit\":true"), "{first_event}");
    assert!(first_event.contains("\"shard\":null"), "{first_event}");
    // Cold progress events name their executing shard.
    assert!(
        cold.lines()
            .take(3)
            .all(|line| line.contains("\"cache_hit\":false") && !line.contains("\"shard\":null")),
        "cold events must name a shard:\n{cold}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The strict-flags contract at the binary boundary: misuse exits with the
/// usage error, before any simulation runs.
#[test]
fn flag_misuse_is_a_prompt_usage_error() {
    for bad in [
        &["--shards", "0"][..],
        &["--shards", "two"][..],
        &["--cache"][..],
        &["--cache", "x", "--no-cache"][..],
        &["--smoke", "--shards", "2"][..],
        &["--stress-nodes", "254", "--cache", "x"][..],
        &["--shard", "127.0.0.1:1", "--json"][..],
        &["--cachet", "x"][..],
    ] {
        let out = fleet_sweep().args(bad).output().expect("runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bad:?} must exit 2 with usage, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{bad:?}: {stderr}");
    }
}

/// A shard pointed at a dead coordinator fails cleanly — no simulation, no
/// hang, a real error message.
#[test]
fn orphan_shard_fails_cleanly() {
    // Bind-then-drop: the port is valid but nobody is listening.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let out = fleet_sweep()
        .args(["--shard", &addr])
        .output()
        .expect("runs");
    assert!(!out.status.success(), "orphan shard must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shard worker failed"), "{stderr}");
}
