//! The blocking client for the `quanto-serve` wire protocol.
//!
//! `fleet_sweep --server` and the end-to-end tests speak through here.
//! One deliberate asymmetry with the server: progress events, final
//! summaries and partial results contain decimal floats, which the
//! [`quanto_fleet::wire`] reader rejects by design (digest-bearing floats
//! travel as bit patterns; summaries are for humans and `jq`).  The
//! client therefore never parses those documents — it slices them out of
//! the envelope **verbatim** (the envelope's payload is always the last
//! field), so what the caller prints is byte-identical to what the
//! daemon's accumulator rendered.  Control lines (`accepted`, `error`,
//! `metrics`) carry no floats and are parsed normally.

use crate::PROTO_VERSION;
use quanto_fleet::wire::{push_json_str, Value};
use quanto_fleet::GridOverrides;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, reading or writing the socket failed.
    Io(std::io::Error),
    /// The daemon replied with something outside the protocol.
    Protocol(String),
    /// The daemon rejected the request with an `error` line.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(why) => write!(f, "protocol error: {why}"),
            ClientError::Server(why) => write!(f, "server error: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A completed server-side sweep.
#[derive(Debug)]
pub struct Outcome {
    /// The job id the daemon assigned.
    pub job: u64,
    /// Scenarios in the expanded grid.
    pub total: usize,
    /// Cells answered from the result cache at submit.
    pub warm: usize,
    /// The final summary document, verbatim — byte-identical to
    /// `FleetReport::summary_json` for the same grid run in-process
    /// (modulo the display-only `threads`, `wall_clock_ms` and `cache`
    /// fields).
    pub summary: String,
}

/// A `partial` query's snapshot of a running (or just-finished) job.
#[derive(Debug)]
pub struct PartialSnapshot {
    /// The queried job.
    pub job: u64,
    /// Scenarios in its grid.
    pub total: usize,
    /// Cells merged so far.
    pub completed: usize,
    /// Whether the final summary exists already.
    pub done: bool,
    /// The merged prefix, verbatim — a byte-exact prefix of the final
    /// summary's `results` array.
    pub results: String,
}

/// Submits `grid_text` (with `overrides`) to the daemon at `addr`,
/// invoking `on_progress` with each progress event's JSON document
/// (verbatim) as the sweep advances, and returns the final summary.
pub fn run_sweep(
    addr: &str,
    grid_text: &str,
    overrides: &GridOverrides,
    mut on_progress: impl FnMut(&str),
) -> Result<Outcome, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    let mut request = format!("{{\"t\":\"submit\",\"proto\":{PROTO_VERSION},\"grid\":");
    push_json_str(&mut request, grid_text);
    request.push(',');
    overrides.push_json(&mut request);
    request.push_str("}\n");
    writer.write_all(request.as_bytes())?;
    writer.flush()?;

    let line = read_line(&mut reader)?;
    let accepted = parse_control(&line)?;
    if accepted.get_str("t") != Some("accepted") {
        return Err(ClientError::Protocol(format!(
            "expected an accepted line, got: {line}"
        )));
    }
    let job = field(&accepted, "job", &line)?;
    let total = field(&accepted, "total", &line)? as usize;
    let warm = field(&accepted, "warm", &line)? as usize;

    loop {
        let line = read_line(&mut reader)?;
        if line.starts_with("{\"t\":\"progress\",") {
            on_progress(payload(&line, "\"event\":")?);
            continue;
        }
        if line.starts_with("{\"t\":\"final\",") {
            let summary = payload(&line, "\"summary\":")?.to_string();
            return Ok(Outcome {
                job,
                total,
                warm,
                summary,
            });
        }
        // Anything else is a control line: an error, or protocol skew.
        parse_control(&line)?;
        return Err(ClientError::Protocol(format!("unexpected line: {line}")));
    }
}

/// Queries the merged prefix of job `job` on the daemon at `addr`.
pub fn partial(addr: &str, job: u64) -> Result<PartialSnapshot, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(format!("{{\"t\":\"partial\",\"job\":{job}}}\n").as_bytes())?;
    writer.flush()?;
    let line = read_line(&mut reader)?;
    if !line.starts_with("{\"t\":\"partial\",") {
        parse_control(&line)?;
        return Err(ClientError::Protocol(format!("unexpected line: {line}")));
    }
    Ok(PartialSnapshot {
        job: scan_u64(&line, "\"job\":")?,
        total: scan_u64(&line, "\"total\":")? as usize,
        completed: scan_u64(&line, "\"completed\":")? as usize,
        done: line.contains("\"done\":true"),
        results: payload(&line, "\"results\":")?.to_string(),
    })
}

/// Fetches the daemon's metrics text (the same document `GET /metrics`
/// serves over HTTP).
pub fn metrics(addr: &str) -> Result<String, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"t\":\"metrics\"}\n")?;
    writer.flush()?;
    let line = read_line(&mut reader)?;
    let reply = parse_control(&line)?;
    if reply.get_str("t") != Some("metrics") {
        return Err(ClientError::Protocol(format!("unexpected line: {line}")));
    }
    reply
        .get_str("text")
        .map(str::to_string)
        .ok_or_else(|| ClientError::Protocol("metrics reply is missing text".to_string()))
}

/// Slices the `"digest":"0x…"` value out of a summary document — 18
/// characters, `0x` plus 16 hex digits, exactly as `summary_json` and
/// `docs/PROTOCOL.md` specify.
pub fn digest_of(summary: &str) -> Option<&str> {
    let start = summary.find("\"digest\":\"")? + "\"digest\":\"".len();
    let digest = summary.get(start..start + 18)?;
    digest
        .strip_prefix("0x")
        .is_some_and(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .then_some(digest)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(ClientError::Protocol(
            "connection closed mid-conversation".to_string(),
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// Parses a float-free control line, promoting `error` lines to
/// [`ClientError::Server`].
fn parse_control(line: &str) -> Result<Value, ClientError> {
    let value = Value::parse(line)
        .ok_or_else(|| ClientError::Protocol(format!("unparsable line: {line}")))?;
    if value.get_str("t") == Some("error") {
        return Err(ClientError::Server(
            value
                .get_str("message")
                .unwrap_or("<no message>")
                .to_string(),
        ));
    }
    Ok(value)
}

fn field(value: &Value, key: &str, line: &str) -> Result<u64, ClientError> {
    value
        .get_u64(key)
        .ok_or_else(|| ClientError::Protocol(format!("missing {key:?} in: {line}")))
}

/// The envelope payload: everything after `marker`, minus the closing
/// brace.  Valid because the payload is always the envelope's last field.
fn payload<'a>(line: &'a str, marker: &str) -> Result<&'a str, ClientError> {
    let start = line
        .find(marker)
        .ok_or_else(|| ClientError::Protocol(format!("missing {marker} in: {line}")))?
        + marker.len();
    Ok(&line[start..line.len() - 1])
}

/// Reads the decimal run right after `marker` (enough for the envelope's
/// own integer fields; payload documents are never scanned this way).
fn scan_u64(line: &str, marker: &str) -> Result<u64, ClientError> {
    let start = line
        .find(marker)
        .ok_or_else(|| ClientError::Protocol(format!("missing {marker} in: {line}")))?
        + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| ClientError::Protocol(format!("bad number after {marker} in: {line}")))
}
