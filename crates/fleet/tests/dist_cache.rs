//! End-to-end contracts of the fleet-of-fleets layer (`quanto_fleet::dist`)
//! and the result cache, pinned against the same digest constants as
//! `digest_pin.rs`:
//!
//! * sharded sweeps fold the byte-identical stream digest at any shard
//!   count × thread count;
//! * a warm cache answers the whole sweep with zero simulations (the
//!   coordinator never serves a chunk) and the digest still matches;
//! * a shard dying mid-sweep only requeues its chunk — a surviving shard
//!   finishes the sweep with the same digest;
//! * so does a shard whose record holds a decimal where a bit pattern
//!   belongs, or a well-formed record for another cell;
//! * a shard is told `done` only once the sweep is over, so a peer's cells
//!   that come back after it ran out of work are not stranded;
//! * losing *every* shard is a prompt `ShardsDied` error, not a hang;
//! * a 1024-node cell's result line, a shard's largest, crosses intact.
//!
//! Shards here are in-process threads driving [`dist::run_shard`] over real
//! loopback TCP — the identical code path `fleet_sweep --shard ADDR` runs,
//! minus the process spawn (which `crates/bench/tests/fleet_sweep_cli.rs`
//! covers).

use quanto_fleet::wire::{read_msg, Value};
use quanto_fleet::{
    dist, Coordinator, DistError, DistOptions, FleetRunner, GridOverrides, GridSpec,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// `digest_pin.rs`'s `pin_batch()` as grid text, with its recorded stream
/// digest — the constant every execution topology below must reproduce.
const PIN_BATCH_STREAM_DIGEST: u64 = 0xf73f_b2e3_9f24_1280;
const PIN_BATCH_GRID: &str = "
[grid]
name = pin_batch
seconds = 2

[cell.lpl]
app = lpl
interference = 0.18
seeds = 1..2
channels = 17, 26
name = lpl_ch{channel}_seed{seed}

[cell.blink]
app = blink

[cell.bounce]
app = bounce

[cell.idle]
app = idle
seconds = 1
";
const PIN_BATCH_LEN: usize = 7;

fn options(shards: u32, threads: usize, cache_dir: Option<PathBuf>) -> DistOptions {
    DistOptions {
        shards,
        threads,
        cache_dir,
    }
}

/// Binds a coordinator, drives it with `shards` in-thread `run_shard`
/// workers, and returns (digest, progress events).
fn run_sharded(
    shards: u32,
    threads: usize,
    cache_dir: Option<PathBuf>,
) -> (u64, Vec<quanto_fleet::FleetProgress>) {
    let coordinator = Coordinator::bind(
        PIN_BATCH_GRID,
        GridOverrides::default(),
        &options(shards, threads, cache_dir),
    )
    .expect("bind");
    assert_eq!(coordinator.total(), PIN_BATCH_LEN);
    let addr = coordinator.addr().expect("addr").to_string();
    let workers: Vec<_> = (0..shards)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || dist::run_shard(&addr))
        })
        .collect();
    let mut events = Vec::new();
    let report = coordinator
        .run(|p| events.push(p))
        .expect("sweep completes");
    for worker in workers {
        worker.join().expect("shard thread").expect("shard ok");
    }
    (report.digest(), events)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quanto-dist-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole invariance: 2 and 4 shard processes' worth of workers, on 1
/// and 4 threads each, all fold the exact stream digest the in-process
/// pin recorded — sharding is invisible in the output bytes.
#[test]
fn sharded_sweeps_reproduce_the_stream_digest_pin() {
    for shards in [2u32, 4] {
        for threads in [1usize, 4] {
            let (digest, events) = run_sharded(shards, threads, None);
            assert_eq!(
                digest, PIN_BATCH_STREAM_DIGEST,
                "digest drifted at {shards} shards × {threads} threads"
            );
            assert_eq!(events.len(), PIN_BATCH_LEN);
            for (i, p) in events.iter().enumerate() {
                assert_eq!(p.index, i, "submission order preserved");
                assert_eq!(p.completed, i + 1);
                assert!(p.shard.is_some(), "every cell names its executing shard");
                assert!(!p.cache_hit, "no cache configured");
            }
        }
    }
}

/// The cache contract across processes-worth of topology: a cold sharded
/// sweep populates the cache (every cell a miss + write), and the warm
/// re-run merges entirely from the bind-time probe — zero chunks served,
/// zero shards needed, zero simulations run — with the identical digest.
#[test]
fn warm_cache_sweep_runs_zero_simulations_and_keeps_the_digest() {
    let dir = tmp_dir("warm");

    let (digest, events) = run_sharded(2, 2, Some(dir.clone()));
    assert_eq!(digest, PIN_BATCH_STREAM_DIGEST);
    assert!(events.iter().all(|p| !p.cache_hit), "cold run simulates");

    // Warm: the bind-time probe answers everything, so `pending()` is zero
    // and the run completes without a single shard existing.
    let coordinator = Coordinator::bind(
        PIN_BATCH_GRID,
        GridOverrides::default(),
        &options(2, 2, Some(dir.clone())),
    )
    .expect("bind warm");
    assert_eq!(coordinator.pending(), 0, "warm probe answers every cell");
    let mut events = Vec::new();
    let report = coordinator.run(|p| events.push(p)).expect("warm run");
    assert_eq!(
        report.digest(),
        PIN_BATCH_STREAM_DIGEST,
        "warm digest byte-identical"
    );
    assert_eq!(events.len(), PIN_BATCH_LEN);
    assert!(
        events.iter().all(|p| p.cache_hit),
        "warm run hits everywhere"
    );
    assert!(report.results.iter().all(|r| r.cache_hit()));
    let stats = report.cache_stats().expect("cached run is stamped");
    assert_eq!(
        (stats.hits, stats.misses, stats.writes),
        (PIN_BATCH_LEN as u64, 0, 0)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A hand-rolled shard: completes the handshake and claims one chunk.
/// Returns the connection's two halves and the chunk's indices.
fn claim_a_chunk(addr: &str) -> (BufReader<TcpStream>, TcpStream, Vec<u64>) {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"{\"t\":\"hello\"}\n").expect("hello");
    // Echo the expected count back without bothering to expand the grid.
    let job = read_msg(&mut reader).expect("job");
    let expected = job.get_u64("expected").expect("job carries expected count");
    writer
        .write_all(format!("{{\"t\":\"ready\",\"count\":{expected}}}\n").as_bytes())
        .expect("ready");
    writer.write_all(b"{\"t\":\"next\"}\n").expect("next");
    let chunk = read_msg(&mut reader).expect("chunk");
    let indices = chunk
        .get("indices")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("got a chunk: {chunk:?}"))
        .iter()
        .map(|index| index.as_u64().expect("integer index"))
        .collect();
    (reader, writer, indices)
}

/// A hand-rolled broken shard: claims one chunk, then drops the
/// connection without returning a result.
fn claim_a_chunk_and_die(addr: &str) {
    let _ = claim_a_chunk(addr);
}

/// Fault tolerance: a shard that dies holding a chunk costs nothing but a
/// requeue — the surviving shard drains the queue and the digest is still
/// byte-identical to the pin.
#[test]
fn dying_shard_requeues_its_chunk_and_the_sweep_completes() {
    let coordinator = Coordinator::bind(
        PIN_BATCH_GRID,
        GridOverrides::default(),
        &options(2, 1, None),
    )
    .expect("bind");
    let addr = coordinator.addr().expect("addr").to_string();
    let shards = std::thread::spawn(move || {
        claim_a_chunk_and_die(&addr);
        dist::run_shard(&addr)
    });
    let mut merged = 0usize;
    let report = coordinator
        .run(|_| merged += 1)
        .expect("sweep survives the death");
    shards.join().expect("shard thread").expect("survivor ok");
    assert_eq!(merged, PIN_BATCH_LEN, "every scenario merged exactly once");
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
}

/// A record well-formed in every field but one: `"p"`, a node's average
/// power as an f64 bit pattern, holds a decimal instead.
const DECIMAL_RECORD: &str = "{\"s\":[{\"n\":1,\"e\":5,\"d\":0,\"p\":1.5,\"te\":0,\"dc\":0,\
     \"ps\":0,\"pr\":0,\"fw\":0,\"re\":null,\"cs\":2}],\"m\":[{\"n\":1,\"e\":5,\"g\":99,\
     \"t\":1000000,\"i\":17,\"d\":0,\"rs\":[0,0,0,0,0,0],\"gt\":0}],\"c\":null}";

/// A record well formed in every field, for a cell that does not match it:
/// counters for a cell on the ideal medium, which tracks none.
const WRONG_CELL_RECORD: &str = "{\"s\":[{\"n\":1,\"e\":5,\"d\":0,\"p\":0,\"te\":0,\"dc\":0,\
     \"ps\":0,\"pr\":0,\"fw\":0,\"re\":null,\"cs\":2}],\"m\":[{\"n\":1,\"e\":5,\"g\":99,\
     \"t\":1000000,\"i\":17,\"d\":0,\"rs\":[0,0,0,0,0,0],\"gt\":0}],\
     \"c\":{\"dl\":1,\"lr\":0,\"ls\":0,\"lc\":0,\"ce\":1,\"pc\":0}}";

/// A hand-rolled shard answers the first cell of its chunk with `record`;
/// the coordinator must hang up on it and requeue what it owed, and a
/// healthy shard must then finish the sweep with the pinned digest.  The
/// hang-up is read with a timeout, which counts as "not hung up".
fn a_bad_record_ends_the_connection(record: &'static str) {
    let coordinator = Coordinator::bind(
        PIN_BATCH_GRID,
        GridOverrides::default(),
        &options(2, 1, None),
    )
    .expect("bind");
    let addr = coordinator.addr().expect("addr").to_string();
    let shards = std::thread::spawn(move || {
        let (mut reader, mut writer, indices) = claim_a_chunk(&addr);
        let result = format!(
            "{{\"t\":\"result\",\"index\":{},\"cache_hit\":false,\"record\":{record}}}\n",
            indices[0]
        );
        writer.write_all(result.as_bytes()).expect("result");
        reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reply = String::new();
        let hung_up = match reader.read_line(&mut reply) {
            Ok(read) => read == 0,
            Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
        };
        drop((reader, writer));
        (hung_up, dist::run_shard(&addr))
    });
    let mut merged = 0usize;
    let report = coordinator
        .run(|_| merged += 1)
        .expect("sweep survives the bad record");
    let (hung_up, survivor) = shards.join().expect("shard thread");
    assert!(
        hung_up,
        "the coordinator must drop a shard whose record does not rebuild its cell: {record}"
    );
    survivor.expect("survivor ok");
    assert_eq!(merged, PIN_BATCH_LEN, "every scenario merged exactly once");
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
}

/// A shard that returns a decimal where a bit pattern belongs is a broken
/// shard.
#[test]
fn a_decimal_in_a_result_record_requeues_the_cell() {
    a_bad_record_ends_the_connection(DECIMAL_RECORD);
}

/// So is one that returns a well-formed record which does not rebuild its
/// cell.
#[test]
fn a_record_for_another_cell_ends_the_connection() {
    a_bad_record_ends_the_connection(WRONG_CELL_RECORD);
}

/// Two one-second idle cells: cheap enough to finish well inside the
/// holder's one-second hold, even in a debug build.
const TWO_IDLE_CELLS: &str = "
[grid]
name = two_idle
seconds = 1

[cell.idle]
app = idle
seeds = 1..2
name = idle_seed{seed}
";

/// `done` means the sweep is over.  A hand-rolled holder claims cell 0; a
/// real shard runs cell 1 and asks for more while the holder still owns
/// cell 0.  The holder hangs up once that shard has returned, or after
/// about a second.  The shard must still be there to take cell 0 back:
/// told `done` early, it would leave, and the requeued cell would strand
/// with no shard left (`ShardsDied`).
#[test]
fn a_shard_stays_until_a_peers_cells_are_done() {
    let coordinator = Coordinator::bind(
        TWO_IDLE_CELLS,
        GridOverrides::default(),
        &options(2, 1, None),
    )
    .expect("bind");
    assert_eq!(coordinator.total(), 2);
    let addr = coordinator.addr().expect("addr").to_string();
    let shards = std::thread::spawn(move || {
        let held = claim_a_chunk(&addr);
        assert_eq!(held.2, [0], "the holder claims cell 0");
        let (returned, shard_returned) = std::sync::mpsc::channel();
        let shard = std::thread::spawn(move || {
            let outcome = dist::run_shard(&addr);
            let _ = returned.send(());
            outcome
        });
        let _ = shard_returned.recv_timeout(Duration::from_secs(1));
        drop(held);
        shard.join().expect("shard thread")
    });
    let report = coordinator.run(|_| {});
    let shard = shards.join().expect("shards thread");
    let report = report.expect("the held cell comes back to the shard still connected");
    shard.expect("shard ok");
    let batch = GridSpec::parse(TWO_IDLE_CELLS)
        .expect("grid parses")
        .expand()
        .expect("grid expands");
    assert_eq!(
        report.digest(),
        FleetRunner::sequential().run(batch).digest()
    );
}

/// Losing every shard with work still queued must fail promptly with
/// `ShardsDied` — not block forever waiting for a chunk nobody will serve.
#[test]
fn losing_every_shard_is_an_error_not_a_hang() {
    let coordinator = Coordinator::bind(
        PIN_BATCH_GRID,
        GridOverrides::default(),
        &options(1, 1, None),
    )
    .expect("bind");
    let addr = coordinator.addr().expect("addr").to_string();
    let killer = std::thread::spawn(move || claim_a_chunk_and_die(&addr));
    let started = std::time::Instant::now();
    let outcome = coordinator.run(|_| {});
    killer.join().expect("killer thread");
    match outcome {
        Err(DistError::ShardsDied { merged, total }) => {
            assert_eq!(total, PIN_BATCH_LEN);
            assert!(merged < total);
        }
        other => panic!("expected ShardsDied, got {other:?}"),
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "death detection must be prompt"
    );
}

/// One 1024-node path-loss Bounce-pairs cell, the shape of the benchmark's
/// `wide_path_loss` cells, simulated for one second.
const WIDE_CELL: &str = "
[grid]
name = wide_line
seconds = 1

[cell.wide]
app = bounce_pairs
pairs = 512
medium = path_loss
placement = line 30 5
name = wide_{nodes}n
";

/// The largest line a shard sends today: the result of a 1024-node cell,
/// whose record (the same bytes the result cache stores) is over 200 KB.
/// It merges into the digest an in-process sequential run folds.
#[test]
fn a_1024_node_result_line_crosses_the_shard_protocol_intact() {
    let dir = tmp_dir("wide");
    let coordinator = Coordinator::bind(
        WIDE_CELL,
        GridOverrides::default(),
        &options(1, 1, Some(dir.clone())),
    )
    .expect("bind");
    assert_eq!(coordinator.total(), 1);
    let addr = coordinator.addr().expect("addr").to_string();
    let shard = std::thread::spawn(move || dist::run_shard(&addr));
    let report = coordinator.run(|_| {}).expect("sweep completes");
    shard.join().expect("shard thread").expect("shard ok");

    let batch = GridSpec::parse(WIDE_CELL)
        .expect("wide grid parses")
        .expand()
        .expect("wide grid expands");
    assert_eq!(
        report.digest(),
        FleetRunner::sequential().run(batch).digest()
    );

    let stored: Vec<u64> = std::fs::read_dir(&dir)
        .expect("the shard wrote the cache")
        .map(|entry| {
            entry
                .expect("cache entry")
                .metadata()
                .expect("metadata")
                .len()
        })
        .collect();
    assert_eq!(stored.len(), 1, "one cell, one record");
    assert!(stored[0] > 200_000, "the record is {} bytes", stored[0]);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
