//! The blocking client for the `quanto-serve` wire protocol.
//!
//! `fleet_sweep --server` and the end-to-end tests speak through here.
//! Every line the daemon sends is parsed once with
//! [`quanto_fleet::wire::Value`] and dispatched on its `"t"` field, so a
//! truncated or malformed line is a [`ClientError::Protocol`], never a
//! result.  The documents a caller receives — progress events, the final
//! summary, a partial snapshot's `results` — are then sliced out of their
//! parsed envelope **verbatim** (the payload is always the envelope's
//! last field), so what the caller prints is byte-identical to what the
//! daemon's accumulator rendered.

use crate::PROTO_VERSION;
use quanto_fleet::wire::{push_json_str, write_line, Value};
use quanto_fleet::GridOverrides;
use std::io::{BufRead, BufReader};
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
    request.push('}');
    write_line(&mut writer, &request)?;

    let line = read_line(&mut reader)?;
    let accepted = parse_reply(&line)?;
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
        match parse_reply(&line)?.get_str("t") {
            Some("progress") => on_progress(payload(&line, "\"event\":")?),
            Some("final") => {
                let summary = payload(&line, "\"summary\":")?.to_string();
                return Ok(Outcome {
                    job,
                    total,
                    warm,
                    summary,
                });
            }
            _ => return Err(ClientError::Protocol(format!("unexpected line: {line}"))),
        }
    }
}

/// Queries the merged prefix of job `job` on the daemon at `addr`.
pub fn partial(addr: &str, job: u64) -> Result<PartialSnapshot, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    write_line(&mut writer, &format!("{{\"t\":\"partial\",\"job\":{job}}}"))?;
    let line = read_line(&mut reader)?;
    let reply = parse_reply(&line)?;
    if reply.get_str("t") != Some("partial") {
        return Err(ClientError::Protocol(format!("unexpected line: {line}")));
    }
    Ok(PartialSnapshot {
        job: field(&reply, "job", &line)?,
        total: field(&reply, "total", &line)? as usize,
        completed: field(&reply, "completed", &line)? as usize,
        done: reply
            .get("done")
            .and_then(Value::as_bool)
            .ok_or_else(|| ClientError::Protocol(format!("missing \"done\" in: {line}")))?,
        results: payload(&line, "\"results\":")?.to_string(),
    })
}

/// Fetches the daemon's metrics text (the same document `GET /metrics`
/// serves over HTTP).
pub fn metrics(addr: &str) -> Result<String, ClientError> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    write_line(&mut writer, "{\"t\":\"metrics\"}")?;
    let line = read_line(&mut reader)?;
    let reply = parse_reply(&line)?;
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

/// Parses one reply line, promoting `error` lines to
/// [`ClientError::Server`].
fn parse_reply(line: &str) -> Result<Value, ClientError> {
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

/// The envelope payload of a line that parsed: everything after `marker`,
/// minus the closing brace.  Valid because the payload is always the
/// envelope's last field.
fn payload<'a>(line: &'a str, marker: &str) -> Result<&'a str, ClientError> {
    let start = line
        .find(marker)
        .ok_or_else(|| ClientError::Protocol(format!("missing {marker} in: {line}")))?
        + marker.len();
    Ok(&line[start..line.len() - 1])
}
