//! End-to-end contracts of the sweep-as-a-service daemon:
//!
//! * a served job's final stream digest — and its whole `results` array —
//!   is byte-identical to the same grid run through an in-process
//!   `FleetRunner`, pinned against the same constant as `digest_pin.rs`
//!   and the dist tests;
//! * two concurrent jobs share the pool fairly — their progress streams
//!   interleave, neither starves;
//! * a mid-sweep `partial` query answers a byte-exact prefix of the final
//!   summary's `results` array;
//! * a finished job stays queryable after its `final` line;
//! * a client disconnect cancels its job and frees the pool for the next
//!   tenant;
//! * override values the CLI refuses, and decimals where a bit pattern
//!   belongs, are refused with an `error` line, and the daemon keeps
//!   serving;
//! * the client fails closed: a reply line the daemon cut short is a
//!   protocol error, never a result;
//! * the metrics endpoint (JSON-lines and plain HTTP) renders the daemon
//!   counters.
//!
//! Clients here are the real [`quanto_serve::client`] plus hand-rolled
//! sockets where the test needs to misbehave (disconnect mid-sweep) or
//! observe mid-protocol state (the job id before the final line).

use quanto_fleet::{FleetRunner, GridSpec};
use quanto_serve::{client, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `digest_pin.rs`'s `pin_batch()` as grid text, with its recorded stream
/// digest — the daemon must fold the identical bytes.
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

/// A moderate grid for concurrency tests: six Bounce cells, each a few
/// tens of host milliseconds (about 20 on a 2-vCPU host, release build),
/// so two jobs genuinely overlap on the pool and their progress streams
/// outlast client thread-scheduling jitter.
const BOUNCE_GRID: &str = "
[grid]
name = bounce_grid
seconds = 20

[cell.bounce]
app = bounce
seeds = 1..6
name = bounce_seed{seed}
";

/// Six 1024-node path-loss Bounce-pairs cells, simulated for one second:
/// the shape of the benchmark's `wide_path_loss` cells.  A job's final
/// summary line is about 1.3 MB, each progress event about 216 KB: the
/// largest lines real runs send.
const WIDE_GRID: &str = "
[grid]
name = wide_lines
seconds = 1

[cell.wide]
app = bounce_pairs
pairs = 512
seeds = 1..6
medium = path_loss
placement = line 30 5
name = wide_{nodes}n_seed{seed}
";
const WIDE_LEN: usize = 6;

fn start_server(workers: usize) -> quanto_serve::ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers,
            cache_dir: None,
        },
    )
    .expect("bind server")
    .start()
}

/// The `results` array (with its brackets) out of a summary document —
/// it is always the last field.
fn results_array(summary: &str) -> &str {
    let start = summary.find("\"results\":").expect("summary has results") + "\"results\":".len();
    &summary[start..summary.len() - 1]
}

#[test]
fn served_digest_is_byte_identical_to_in_process_and_pinned() {
    let handle = start_server(3);
    let addr = handle.addr().to_string();

    let mut completions = Vec::new();
    let outcome = client::run_sweep(&addr, PIN_BATCH_GRID, &Default::default(), |event| {
        completions.push(event.to_string());
    })
    .expect("served sweep completes");
    assert_eq!(outcome.total, PIN_BATCH_LEN);
    assert_eq!(outcome.warm, 0, "no cache configured, nothing is warm");
    assert_eq!(completions.len(), PIN_BATCH_LEN, "one event per scenario");
    for (k, event) in completions.iter().enumerate() {
        assert!(
            event.contains(&format!("\"completed\":{}", k + 1)),
            "events stream in submission order: {event}"
        );
    }

    let pinned = format!("{PIN_BATCH_STREAM_DIGEST:#018x}");
    assert_eq!(
        client::digest_of(&outcome.summary),
        Some(pinned.as_str()),
        "served digest must match the pinned stream digest"
    );

    // Byte-identity against the in-process runner: same digest field, and
    // the whole per-scenario results array must be the identical bytes.
    let batch = GridSpec::parse(PIN_BATCH_GRID)
        .expect("pin grid parses")
        .expand()
        .expect("pin grid expands");
    let report = FleetRunner::new(3).run(batch);
    assert_eq!(report.digest(), PIN_BATCH_STREAM_DIGEST);
    let local = report.summary_json();
    assert_eq!(
        results_array(&outcome.summary),
        results_array(&local),
        "served results array must be byte-identical to the in-process one"
    );

    handle.shutdown();
}

/// The largest lines the daemon sends today cross the wire intact: the
/// final summary of a job of 1024-node cells is over 1 MiB and folds the
/// digest an in-process sequential run folds, with byte-identical results.
#[test]
fn a_summary_line_over_a_mebibyte_round_trips() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();

    let mut longest_event = 0;
    let mut events = 0;
    let outcome = client::run_sweep(&addr, WIDE_GRID, &Default::default(), |event| {
        longest_event = longest_event.max(event.len());
        events += 1;
    })
    .expect("served sweep completes");
    assert_eq!((outcome.total, events), (WIDE_LEN, WIDE_LEN));
    assert!(
        outcome.summary.len() > 1 << 20,
        "the final summary is {} bytes, not over 1 MiB",
        outcome.summary.len()
    );
    assert!(
        longest_event > 200_000,
        "longest event {longest_event} bytes"
    );

    let batch = GridSpec::parse(WIDE_GRID)
        .expect("wide grid parses")
        .expand()
        .expect("wide grid expands");
    let report = FleetRunner::sequential().run(batch);
    let local = format!("{:#018x}", report.digest());
    assert_eq!(client::digest_of(&outcome.summary), Some(local.as_str()));
    assert_eq!(
        results_array(&outcome.summary),
        results_array(&report.summary_json()),
        "served results array must be byte-identical to the in-process one"
    );

    handle.shutdown();
}

#[test]
fn two_concurrent_jobs_share_the_pool_and_interleave() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();
    let timeline: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::new(Mutex::new(Vec::new()));

    // A blocker job holds both workers until the two tenants are
    // registered; without it, a tenant whose submit lands late finds the
    // other tenant's six fast cells already done, and nothing is left to
    // interleave.  Its session is hand-rolled so the test can end it.
    let blocker = TcpStream::connect(&addr).expect("connect");
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    quanto_fleet::wire::push_json_str(&mut request, &BOUNCE_GRID.replace("1..6", "1..2000"));
    request.push_str("}\n");
    (&blocker).write_all(request.as_bytes()).expect("submit");
    let mut accepted = String::new();
    BufReader::new(&blocker)
        .read_line(&mut accepted)
        .expect("accepted line");
    assert!(accepted.starts_with("{\"t\":\"accepted\","), "{accepted}");

    let clients: Vec<_> = (0..2)
        .map(|tenant| {
            let addr = addr.clone();
            let timeline = timeline.clone();
            std::thread::spawn(move || {
                client::run_sweep(&addr, BOUNCE_GRID, &Default::default(), |_| {
                    timeline.lock().unwrap().push((tenant, Instant::now()));
                })
                .expect("served sweep completes")
            })
        })
        .collect();
    // Both tenants registered: disconnecting cancels the blocker, and the
    // pool turns to the tenants together.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_jobs() < 3 {
        assert!(Instant::now() < deadline, "the tenants never registered");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(blocker);
    let outcomes: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    assert!(outcomes.iter().all(|o| o.total == 6));
    assert_ne!(outcomes[0].job, outcomes[1].job);
    // Identical grids must fold identical digests, tenancy notwithstanding.
    assert_eq!(
        client::digest_of(&outcomes[0].summary),
        client::digest_of(&outcomes[1].summary)
    );

    // Fairness: each tenant's event span overlaps the other's — neither
    // job ran to completion while the other starved.
    let timeline = timeline.lock().unwrap();
    let span = |tenant: usize| {
        let stamps: Vec<_> = timeline
            .iter()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, at)| *at)
            .collect();
        assert_eq!(stamps.len(), 6, "tenant {tenant} saw all its events");
        (*stamps.first().unwrap(), *stamps.last().unwrap())
    };
    let (first0, last0) = span(0);
    let (first1, last1) = span(1);
    assert!(
        first0 < last1 && first1 < last0,
        "the two jobs' progress streams must interleave"
    );

    handle.shutdown();
}

#[test]
fn partial_query_returns_a_byte_exact_prefix_of_the_final_summary() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();

    // Hand-rolled submit so the job id is visible mid-protocol.
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    quanto_fleet::wire::push_json_str(&mut request, BOUNCE_GRID);
    request.push_str(",\"seconds\":null,\"seeds\":null,\"pairs\":null}\n");
    writer.write_all(request.as_bytes()).expect("submit");

    let mut line = String::new();
    reader.read_line(&mut line).expect("accepted line");
    assert!(line.starts_with("{\"t\":\"accepted\","), "{line}");
    let job = quanto_fleet::wire::Value::parse(line.trim_end())
        .and_then(|accepted| accepted.get_u64("job"))
        .expect("accepted line names the job");

    // Let a couple of cells merge, then snapshot from a second connection.
    for _ in 0..2 {
        line.clear();
        reader.read_line(&mut line).expect("progress line");
        assert!(line.starts_with("{\"t\":\"progress\","), "{line}");
    }
    let snapshot = client::partial(&addr, job).expect("partial answers mid-sweep");
    assert_eq!(snapshot.job, job);
    assert_eq!(snapshot.total, 6);
    assert!(
        snapshot.completed >= 2,
        "two progress events were already streamed"
    );

    // Drain to the final summary.
    let summary = loop {
        line.clear();
        reader.read_line(&mut line).expect("stream line");
        if line.starts_with("{\"t\":\"final\",") {
            let start = line.find("\"summary\":").expect("summary payload") + "\"summary\":".len();
            break line.trim_end()[start..line.trim_end().len() - 1].to_string();
        }
        assert!(line.starts_with("{\"t\":\"progress\","), "{line}");
    };

    // The snapshot (sans closing bracket) must be a byte-exact prefix of
    // the final results array, ending on an element boundary.
    let final_results = results_array(&summary);
    let prefix = &snapshot.results[..snapshot.results.len() - 1];
    assert!(
        final_results.starts_with(prefix),
        "partial results must be a byte-exact prefix\n partial: {}\n final: {final_results}",
        snapshot.results
    );
    let boundary = final_results.as_bytes()[prefix.len()];
    assert!(
        boundary == b',' || boundary == b']',
        "prefix must end on an element boundary"
    );

    // After `final` the job stays queryable: `done`, with the whole final
    // results array.  Unknown jobs are a server-side error.
    let finished = client::partial(&addr, job).expect("a finished job stays queryable");
    assert!(finished.done, "a finished job answers done");
    assert_eq!(finished.completed, 6);
    assert_eq!(finished.results, final_results);
    match client::partial(&addr, job + 1000) {
        Err(client::ClientError::Server(why)) => assert!(why.contains("unknown job"), "{why}"),
        other => panic!("expected an unknown-job error, got {other:?}"),
    }

    handle.shutdown();
}

#[test]
fn client_disconnect_cancels_the_job_and_frees_the_pool() {
    let handle = start_server(1);
    let addr = handle.addr().to_string();

    // Submit, read the accepted line, then vanish mid-sweep.
    {
        let stream = TcpStream::connect(&addr).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
        quanto_fleet::wire::push_json_str(&mut request, BOUNCE_GRID);
        request.push_str("}\n");
        writer.write_all(request.as_bytes()).expect("submit");
        let mut line = String::new();
        reader.read_line(&mut line).expect("accepted line");
        assert!(line.starts_with("{\"t\":\"accepted\","), "{line}");
    } // both halves drop: EOF on the daemon's watchdog

    // The daemon notices, cancels, and retires the job.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_jobs() != 0 {
        assert!(
            Instant::now() < deadline,
            "disconnected job was never retired"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The single worker is free again: a fresh tenant completes.
    let outcome = client::run_sweep(
        &addr,
        "[grid]\nname = after\nseconds = 1\n\n[cell.idle]\napp = idle\n",
        &Default::default(),
        |_| {},
    )
    .expect("the pool serves the next tenant");
    assert_eq!(outcome.total, 1);

    handle.shutdown();
}

/// One `bounce_pairs` cell, so a `pairs` override applies to it.
const PAIRS_GRID: &str = "
[grid]
name = pairs_grid
seconds = 1

[cell.pairs]
app = bounce_pairs
pairs = 2
";

/// Submits `grid` with the raw override `fields` and reads the daemon's
/// reply lines up to `final`, `error` or EOF.  The read timeout turns a
/// daemon that never answers into a test failure instead of a hang.
fn submit_raw(addr: &str, grid: &str, fields: &str) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    quanto_fleet::wire::push_json_str(&mut request, grid);
    request.push_str(fields);
    request.push_str("}\n");
    writer.write_all(request.as_bytes()).expect("submit");
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("a reply line before the read timeout");
        let last = line.starts_with("{\"t\":\"final\",") || line.starts_with("{\"t\":\"error\",");
        lines.push(line);
        if last {
            break;
        }
    }
    lines
}

#[test]
fn invalid_overrides_are_refused_and_the_daemon_keeps_serving() {
    let handle = start_server(1);
    let addr = handle.addr().to_string();
    let refused = [
        (PAIRS_GRID, ",\"pairs\":40000".to_string()),
        (PAIRS_GRID, ",\"pairs\":0".to_string()),
        (BOUNCE_GRID, format!(",\"seconds\":{}", f64::NAN.to_bits())),
        (
            BOUNCE_GRID,
            format!(",\"seconds\":{}", f64::INFINITY.to_bits()),
        ),
        (BOUNCE_GRID, ",\"seeds\":0".to_string()),
        // A decimal where the protocol wants a bit pattern.
        (BOUNCE_GRID, ",\"seconds\":1.5".to_string()),
    ];
    for (grid, fields) in &refused {
        let lines = submit_raw(&addr, grid, fields);
        assert_eq!(lines.len(), 1, "{fields}: {lines:?}");
        assert!(
            lines[0].starts_with("{\"t\":\"error\","),
            "{fields}: {lines:?}"
        );
    }

    // The only worker is free: a job with valid overrides completes.
    let lines = submit_raw(
        &addr,
        PAIRS_GRID,
        &format!(",\"seconds\":{},\"pairs\":3", 1.0f64.to_bits()),
    );
    let last = lines.last().expect("reply lines");
    assert!(last.starts_with("{\"t\":\"final\","), "{lines:?}");
    assert!(last.contains("\"scenarios\":1"), "{last}");

    let text = client::metrics(&addr).expect("metrics reply");
    for needle in [
        format!("counter serve.errors.protocol {}", refused.len()),
        "counter serve.jobs.submitted 1".to_string(),
    ] {
        assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
    }
    handle.shutdown();
}

#[test]
fn metrics_render_daemon_counters_over_both_transports() {
    let handle = start_server(2);
    let addr = handle.addr().to_string();
    client::run_sweep(
        &addr,
        "[grid]\nname = m\nseconds = 1\n\n[cell.idle]\napp = idle\n",
        &Default::default(),
        |_| {},
    )
    .expect("sweep completes");
    // The session retires the job just after the final line the client
    // returned on — wait for it so `serve.jobs.active` reads 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.active_jobs() != 0 {
        assert!(Instant::now() < deadline, "finished job was never retired");
        std::thread::sleep(Duration::from_millis(10));
    }

    let text = client::metrics(&addr).expect("metrics reply");
    for needle in [
        "counter serve.jobs.submitted 1",
        "counter serve.jobs.completed 1",
        "counter serve.scenarios.executed 1",
        "counter serve.queries.metrics 1",
        "gauge serve.jobs.active 0",
        "gauge serve.workers 2",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // The same document over plain HTTP, for curl and browsers.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request");
    let mut response = String::new();
    BufReader::new(stream)
        .read_to_string(&mut response)
        .expect("response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    assert!(response.contains("Content-Type: text/plain"), "{response}");
    assert!(
        response.contains("counter serve.queries.metrics 2"),
        "the HTTP hit counts too:\n{response}"
    );

    handle.shutdown();
}

/// A fake daemon: accepts one connection, reads the request line, sends
/// `replies` verbatim and closes.  Returns its address.
fn fake_daemon(replies: String) -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut request = String::new();
        reader.read_line(&mut request).expect("request line");
        (&stream).write_all(replies.as_bytes()).expect("replies");
    });
    addr
}

const ACCEPTED: &str = "{\"t\":\"accepted\",\"proto\":1,\"job\":1,\"total\":1,\"warm\":0}\n";

/// A daemon that dies mid-line leaves the client a truncated `progress`,
/// `final` or `partial` line.  Each is a protocol error: no truncated
/// event reaches the caller, and no truncated summary or snapshot comes
/// back as a success.
#[test]
fn a_truncated_reply_line_is_a_protocol_error() {
    for replies in [
        format!(
            "{ACCEPTED}{{\"t\":\"final\",\"job\":1,\"summary\":{{\"scenarios\":1,\"digest\":\"0x00000000000000"
        ),
        format!("{ACCEPTED}{{\"t\":\"progress\",\"job\":1,\"event\":{{\"completed\":1,\"total\":1"),
        format!("{ACCEPTED}{{\"t\":\"final\",\"job\":1,\"summary\":{{\"scenarios\":1}}\n"),
    ] {
        let addr = fake_daemon(replies.clone());
        let mut events = Vec::new();
        let outcome = client::run_sweep(&addr, "[grid]", &Default::default(), |event| {
            events.push(event.to_string())
        });
        assert!(
            matches!(outcome, Err(client::ClientError::Protocol(_))),
            "{replies:?} gave {outcome:?}"
        );
        assert!(events.is_empty(), "{replies:?} delivered {events:?}");
    }

    let addr = fake_daemon(
        "{\"t\":\"partial\",\"job\":1,\"total\":6,\"completed\":2,\"done\":false,\"results\":[{\"index\":0"
            .to_string(),
    );
    let snapshot = client::partial(&addr, 1);
    assert!(
        matches!(snapshot, Err(client::ClientError::Protocol(_))),
        "{snapshot:?}"
    );
}
