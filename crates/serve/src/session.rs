//! One thread per client connection: the JSON-lines protocol surface.
//!
//! The first line decides everything (`docs/PROTOCOL.md` has the worked
//! examples):
//!
//! * `{"t":"submit",…}` — register a job, reply `accepted`, then stream
//!   its progress events until the `final` line;
//! * `{"t":"partial","job":N}` — one-shot snapshot of a job's merged
//!   prefix;
//! * `{"t":"metrics"}` — one-shot metrics text, JSON-wrapped;
//! * `GET /metrics …` — the same text as a plain HTTP/1.0 response, so a
//!   browser or `curl` needs no client.
//!
//! A submit session owns its job: if the client disconnects mid-sweep
//! (detected by the EOF watchdog, or by a failed event write), the job is
//! cancelled, its queue cleared, and the pool moves on to other tenants.
//! Once the session has sent `final`, the job stays queryable among the
//! most recent finished jobs.

use crate::registry::{self, Shared};
use crate::{metrics, PROTO_VERSION};
use quanto_fleet::wire::{push_json_str, write_line, Value};
use quanto_fleet::{GridOverrides, JobStatus};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Serves one accepted connection to completion.
pub(crate) fn handle(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap_or(0) == 0 {
        return;
    }
    if line.starts_with("GET ") {
        return http_metrics(reader, writer, shared);
    }
    let Some(msg) = Value::parse(line.trim_end()) else {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = error_line(&mut writer, "malformed request (not wire-subset JSON)");
        return;
    };
    match msg.get_str("t") {
        Some("submit") => submit(reader, writer, shared, &msg),
        Some("partial") => partial(writer, shared, &msg),
        Some("metrics") => metrics_reply(writer, shared),
        other => {
            shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            let _ = error_line(
                &mut writer,
                &format!("unknown request type {:?}", other.unwrap_or("<missing>")),
            );
        }
    }
}

fn submit(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    shared: &Arc<Shared>,
    msg: &Value,
) {
    let reject = |writer: &mut TcpStream, shared: &Shared, why: &str| {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = error_line(writer, why);
    };
    match msg.get_u64("proto") {
        Some(PROTO_VERSION) => {}
        _ => {
            return reject(
                &mut writer,
                shared,
                &format!("unsupported protocol version (this daemon speaks {PROTO_VERSION})"),
            )
        }
    }
    let Some(grid) = msg.get_str("grid") else {
        return reject(&mut writer, shared, "submit is missing the grid text");
    };
    let overrides = match GridOverrides::from_json(msg) {
        Ok(overrides) => overrides,
        Err(why) => return reject(&mut writer, shared, &why),
    };

    let (id, job) = match registry::submit(shared, grid, &overrides) {
        Ok(submitted) => submitted,
        Err(why) => return reject(&mut writer, shared, &why),
    };
    let accepted = format!(
        "{{\"t\":\"accepted\",\"proto\":{PROTO_VERSION},\"job\":{id},\"total\":{},\"warm\":{}}}",
        job.total(),
        job.warm()
    );
    if write_line(&mut writer, &accepted).is_err() {
        shared.cancel(&job);
        registry::retire(shared, id, false);
        return;
    }

    // EOF watchdog: the client writes nothing after the submit line, so a
    // read returning marks disconnect (or a stray line, treated the same)
    // and cancels the job immediately — not at the next event write.
    let watchdog = {
        let job = job.clone();
        let shared = shared.clone();
        std::thread::spawn(move || {
            let mut stray = String::new();
            let _ = reader.read_line(&mut stray);
            shared.cancel(&job);
        })
    };

    let delivered = loop {
        let (events, status) = job.wait(Duration::from_millis(200));
        for event in &events {
            let line = format!(
                "{{\"t\":\"progress\",\"job\":{id},\"event\":{}}}",
                event.to_json()
            );
            if write_line(&mut writer, &line).is_err() {
                shared.cancel(&job);
                break;
            }
        }
        match status {
            JobStatus::Running if !job.is_cancelled() => {}
            JobStatus::Running | JobStatus::Cancelled => {
                let why = match job.take_panic() {
                    Some(_) => "failed: a scenario panicked",
                    None => "cancelled",
                };
                let _ = error_line(&mut writer, &format!("job {id} {why}"));
                break false;
            }
            JobStatus::Finished => {
                shared.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
                let summary = job.summary_json().expect("a finished job holds its report");
                let line = format!("{{\"t\":\"final\",\"job\":{id},\"summary\":{summary}}}");
                break write_line(&mut writer, &line).is_ok();
            }
        }
    };
    registry::retire(shared, id, delivered);
    drop(watchdog);
}

fn partial(mut writer: TcpStream, shared: &Arc<Shared>, msg: &Value) {
    shared.stats.partial_queries.fetch_add(1, Ordering::Relaxed);
    let Some(id) = msg.get_u64("job") else {
        shared.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = error_line(&mut writer, "partial is missing the job id");
        return;
    };
    let Some(job) = shared.lookup(id) else {
        let _ = error_line(&mut writer, &format!("unknown job {id}"));
        return;
    };
    let (completed, done, results) = job.merged_json();
    let line = format!(
        "{{\"t\":\"partial\",\"job\":{id},\"total\":{},\"completed\":{completed},\"done\":{done},\"results\":{results}}}",
        job.total()
    );
    let _ = write_line(&mut writer, &line);
}

fn metrics_reply(mut writer: TcpStream, shared: &Arc<Shared>) {
    shared.stats.metrics_queries.fetch_add(1, Ordering::Relaxed);
    let text = metrics::render(shared);
    let mut line = String::with_capacity(text.len() + 32);
    line.push_str("{\"t\":\"metrics\",\"text\":");
    push_json_str(&mut line, &text);
    line.push('}');
    let _ = write_line(&mut writer, &line);
}

/// Answers `GET /metrics` (any GET, in fact) with the metrics text as a
/// plain HTTP/1.0 response, draining the request headers first so the
/// close never races the client's read.
fn http_metrics(mut reader: BufReader<TcpStream>, mut writer: TcpStream, shared: &Arc<Shared>) {
    shared.stats.metrics_queries.fetch_add(1, Ordering::Relaxed);
    let _ = writer.set_read_timeout(Some(Duration::from_millis(200)));
    let mut header = String::new();
    loop {
        header.clear();
        match reader.read_line(&mut header) {
            Ok(0) | Err(_) => break,
            Ok(_) if header == "\r\n" || header == "\n" => break,
            Ok(_) => continue,
        }
    }
    let body = metrics::render(shared);
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = writer.write_all(response.as_bytes());
}

fn error_line(writer: &mut TcpStream, message: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(message.len() + 32);
    line.push_str("{\"t\":\"error\",\"message\":");
    push_json_str(&mut line, message);
    line.push('}');
    write_line(writer, &line)
}
