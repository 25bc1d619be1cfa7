//! Every JSON document the workspace writes parses with its one reader,
//! `quanto_fleet::wire::Value`: the sweep summary and its progress events,
//! the daemon's `final` and `partial` lines, the `--obs-json` profile, the
//! bench baseline, a cache entry and a shard's `result` line.
//!
//! The summary's decimals read back bit for bit: `f64` Display prints the
//! shortest text that round-trips, and the reader's parse is correctly
//! rounded.
//!
//! One test, because it turns observability on for the whole process.

use quanto_bench::baseline::render_flat_json;
use quanto_fleet::wire::{push_json_str, read_msg, write_line, Value};
use quanto_fleet::{dist, FleetRunner, GridSpec, ResultCache};
use quanto_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader};
use std::net::{TcpListener, TcpStream};

const GRID: &str = "
[grid]
name = one_reader
seconds = 1

[cell.bounce]
app = bounce

[cell.disk]
app = bounce
medium = unit_disk
range_m = 12
positions = 1:0,0 4:9,0
name = bounce_{medium}

[cell.idle]
app = idle
";

fn parse(what: &str, doc: &str) -> Value {
    Value::parse(doc).unwrap_or_else(|| panic!("{what} does not parse:\n{doc}"))
}

/// Reads one `\n`-terminated line, without its terminator.
fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read a line");
    line.trim_end().to_string()
}

/// Plays the coordinator for one real shard: hands it cell 1 of `GRID`
/// (the one with delivery counters) and returns the `result` line the
/// shard sends back.
fn shard_result_line() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shard = std::thread::spawn(move || dist::run_shard(&addr));
    let (stream, _) = listener.accept().expect("accept the shard");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let expected = GridSpec::parse(GRID).unwrap().expand().unwrap().len();
    assert_eq!(read_msg(&mut reader).unwrap().get_str("t"), Some("hello"));
    let mut job = format!(
        "{{\"t\":\"job\",\"proto\":1,\"shard\":0,\"shards\":1,\"threads\":1,\
         \"expected\":{expected},\"grid\":"
    );
    push_json_str(&mut job, GRID);
    job.push_str(",\"seconds\":null,\"seeds\":null,\"pairs\":null,\"cache\":null}");
    write_line(&mut writer, &job).expect("job");
    assert_eq!(read_msg(&mut reader).unwrap().get_str("t"), Some("ready"));
    assert_eq!(read_msg(&mut reader).unwrap().get_str("t"), Some("next"));
    write_line(&mut writer, "{\"t\":\"chunk\",\"indices\":[1]}").expect("chunk");
    let result = read_line(&mut reader);
    assert_eq!(read_msg(&mut reader).unwrap().get_str("t"), Some("next"));
    write_line(&mut writer, "{\"t\":\"done\"}").expect("done");
    shard.join().expect("shard thread").expect("shard ok");
    result
}

/// Submits `GRID` to a daemon, then queries the finished job; returns the
/// `final` line and the `partial` line.
fn served_lines() -> (String, String) {
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
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut request = String::from("{\"t\":\"submit\",\"proto\":1,\"grid\":");
    push_json_str(&mut request, GRID);
    request.push('}');
    write_line(&mut &stream, &request).expect("submit");
    let final_line = loop {
        let line = read_line(&mut reader);
        match parse("served line", &line).get_str("t") {
            Some("accepted" | "progress") => {}
            Some("final") => break line,
            other => panic!("unexpected {other:?} line: {line}"),
        }
    };
    let job = parse("final line", &final_line).get_u64("job").unwrap();
    let query = TcpStream::connect(&addr).expect("connect");
    write_line(&mut &query, &format!("{{\"t\":\"partial\",\"job\":{job}}}")).expect("query");
    let partial_line = read_line(&mut BufReader::new(query));
    handle.shutdown();
    (final_line, partial_line)
}

#[test]
fn every_document_the_workspace_writes_parses_with_the_one_reader() {
    quanto_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("one-reader-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::open(&dir).expect("open cache");
    let scenarios = GridSpec::parse(GRID).unwrap().expand().unwrap();
    let mut events = Vec::new();
    let report = FleetRunner::sequential()
        .run_with_progress_cached(scenarios, Some(&cache), |p| events.push(p.to_json()));

    // The summary, its decimals bit for bit.
    let summary = parse("summary_json", &report.summary_json());
    assert!(summary
        .get("wall_clock_ms")
        .and_then(Value::as_f64)
        .is_some());
    let results = summary.get("results").and_then(Value::as_arr).unwrap();
    assert_eq!(results.len(), report.results.len());
    let mut decimals = 0;
    for (doc, result) in results.iter().zip(&report.results) {
        let nodes = doc.get("nodes").and_then(Value::as_arr).unwrap();
        assert_eq!(nodes.len(), result.summaries.len());
        for (node, s) in nodes.iter().zip(&result.summaries) {
            let bits = |key: &str| node.get(key).and_then(Value::as_f64).map(f64::to_bits);
            assert_eq!(
                bits("avg_power_mw"),
                Some(s.average_power.as_milli_watts().to_bits())
            );
            assert_eq!(
                bits("energy_mj"),
                Some(s.total_energy.as_milli_joules().to_bits())
            );
            assert_eq!(bits("radio_duty"), Some(s.radio_duty_cycle.to_bits()));
            assert_eq!(
                bits("regression_error"),
                s.regression_error.map(f64::to_bits)
            );
            decimals += usize::from(matches!(node.get("avg_power_mw"), Some(Value::Float(_))));
        }
    }
    assert!(decimals > 0, "the summary must carry decimals to test");

    // Progress events, in submission order.
    assert_eq!(events.len(), report.results.len());
    for (k, event) in events.iter().enumerate() {
        let event = parse("progress event", event);
        assert_eq!(event.get_u64("completed"), Some(k as u64 + 1));
        assert_eq!(
            event.get("result"),
            results.get(k),
            "an event's result is the summary's"
        );
    }

    // Cache entries, one per cell.
    let mut entries = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let text = std::fs::read_to_string(entry.expect("entry").path()).expect("read entry");
        let entry = parse("cache entry", &text);
        assert_eq!(entry.get_u64("version"), Some(1));
        assert!(entry.get("record").is_some());
        entries += 1;
    }
    assert_eq!(entries, report.results.len());
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // A shard's result line.
    let result = parse("shard result line", &shard_result_line());
    assert_eq!(result.get_str("t"), Some("result"));
    assert_eq!(result.get_u64("index"), Some(1));

    // The daemon's final and partial lines.
    let (final_line, partial_line) = served_lines();
    let served = parse("final line", &final_line);
    let served_results = served
        .get("summary")
        .and_then(|s| s.get("results"))
        .and_then(Value::as_arr)
        .unwrap();
    assert_eq!(served_results, results, "served and local results agree");
    let partial = parse("partial line", &partial_line);
    assert_eq!(partial.get("done").and_then(Value::as_bool), Some(true));
    assert_eq!(
        partial.get("results").and_then(Value::as_arr),
        Some(served_results)
    );

    // The obs profile of everything above.
    quanto_obs::flush_thread();
    let harvest = quanto_obs::harvest();
    let profile = quanto_obs::Profile::build(&harvest);
    let profile = parse("obs profile", &profile.to_json(&harvest));
    assert_eq!(profile.get_u64("version"), Some(1));
    assert!(!profile
        .get("workers")
        .and_then(Value::as_arr)
        .unwrap()
        .is_empty());

    // The bench baseline.
    let baseline = render_flat_json(&[
        ("_tolerance".to_string(), 0.25),
        ("calibration/spin".to_string(), 1_672_000.0),
        ("tiny".to_string(), 1e-7),
        ("huge".to_string(), 2e20),
    ]);
    let baseline = parse("bench baseline", &baseline);
    assert_eq!(
        baseline
            .get("tiny")
            .and_then(Value::as_f64)
            .map(f64::to_bits),
        Some(1e-7f64.to_bits())
    );
    assert_eq!(baseline.get("huge").and_then(Value::as_f64), Some(2e20));
}
