//! A minimal JSON reader for every Quanto wire format.
//!
//! The work-queue protocol ([`crate::dist`]), the on-disk cache
//! ([`crate::cache`]) and the `quanto-serve` client protocol all speak
//! single-line JSON documents that this workspace also *writes* (see
//! `docs/PROTOCOL.md` for the contracts), so the reader only has to cover
//! the subset the writers emit:
//! objects, arrays, strings (with the standard escapes), unsigned decimal
//! integers, booleans and `null`.  Floats never appear on the wire — every
//! `f64` travels as its IEEE-754 bit pattern in a `u64`, because digests
//! fold those exact bits and a decimal round-trip could perturb them.
//!
//! Anything outside that subset — signed numbers, fractions, exponents,
//! trailing garbage, truncated input — is a parse failure, which callers
//! treat as "corrupt": a cache miss, or a dead shard connection.  Never a
//! panic, and never a silently-wrong value.
//!
//! Next to the reader sit the pieces both socket protocols share: the line
//! framing ([`write_line`], [`read_msg`]) and the one codec for the
//! [`GridOverrides`] fields the dist `job` message and the serve `submit`
//! request carry.

use crate::grid::GridOverrides;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// One parsed JSON value from the wire subset.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned decimal integer (the only number form the writers emit).
    UInt(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return None;
        }
        Some(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// `get(key)` then [`Value::as_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key)?.as_u64()
    }

    /// `get(key)` then [`Value::as_str`].
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// `get(key)`, where `null` (or absence is NOT forgiven — the field must
    /// be present) maps to `None` inside `Some`: `Some(None)` for an
    /// explicit `null`, `Some(Some(n))` for a number, `None` for anything
    /// else or a missing field.
    pub fn get_opt_u64(&self, key: &str) -> Option<Option<u64>> {
        match self.get(key)? {
            Value::Null => Some(None),
            Value::UInt(n) => Some(Some(*n)),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Option<()> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_obj(bytes, pos),
        b'[' => parse_arr(bytes, pos),
        b'"' => Some(Value::Str(parse_string(bytes, pos)?)),
        b'0'..=b'9' => parse_uint(bytes, pos),
        b't' => parse_lit(bytes, pos, b"true", Value::Bool(true)),
        b'f' => parse_lit(bytes, pos, b"false", Value::Bool(false)),
        b'n' => parse_lit(bytes, pos, b"null", Value::Null),
        _ => None,
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Value) -> Option<Value> {
    if bytes.len() - *pos >= lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Some(value)
    } else {
        None
    }
}

fn parse_uint(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        *pos += 1;
    }
    // A fraction or exponent would silently truncate; the writers never
    // emit them, so their appearance means corruption.
    if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
        return None;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<u64>()
        .ok()
        .map(Value::UInt)
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            0x00..=0x1f => return None,
            _ => {
                // Copy the run of plain bytes up to the next quote, backslash
                // or control byte in one piece.  Those stops are ASCII, so
                // the run ends on a scalar boundary and validates alone.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\' | 0x00..=0x1f)) {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(fields));
            }
            _ => return None,
        }
    }
}

impl GridOverrides {
    /// Appends the overrides as the `"seconds":…,"seeds":…,"pairs":…`
    /// fields the dist `job` message and the serve `submit` request both
    /// carry: `seconds` as its f64 bit pattern, `null` when unset.
    pub fn push_json(&self, out: &mut String) {
        let field = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        let _ = write!(
            out,
            "\"seconds\":{},\"seeds\":{},\"pairs\":{}",
            field(self.seconds.map(f64::to_bits)),
            field(self.seed_count),
            field(self.pairs.map(u64::from)),
        );
    }

    /// Reads the fields [`GridOverrides::push_json`] writes; absent or
    /// `null` means unset.  Values [`GridOverrides::apply`] refuses still
    /// decode — refusing them is its job.
    pub fn from_json(msg: &Value) -> Result<GridOverrides, String> {
        let field = |key: &str| match msg.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("field {key:?} must be a u64 or null")),
        };
        Ok(GridOverrides {
            seconds: field("seconds")?.map(f64::from_bits),
            seed_count: field("seeds")?,
            pairs: field("pairs")?
                .map(u16::try_from)
                .transpose()
                .map_err(|_| "field \"pairs\" exceeds u16".to_string())?,
        })
    }
}

/// Writes one protocol line: `line` and its `\n` in one `write_all`, then
/// a flush.  One write per line matters on a socket: a line split across
/// two writes can leave its tail waiting for the peer's delayed ACK.
pub fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(format!("{line}\n").as_bytes())?;
    writer.flush()
}

/// Reads one protocol line; `None` on EOF, i/o failure or a line that is
/// not a JSON object from the wire subset.
pub fn read_msg(reader: &mut impl BufRead) -> Option<Value> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let value = Value::parse(line.trim_end())?;
    matches!(value, Value::Obj(_)).then_some(value)
}

/// Appends `value` as a JSON string literal (quotes included) to `out`.
pub fn push_json_str(out: &mut String, value: &str) {
    out.push('"');
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_writer_subset() {
        let v = Value::parse(
            "{\"t\":\"job\",\"n\":18446744073709551615,\"ok\":true,\"none\":null,\
             \"arr\":[1,2,3],\"s\":\"a\\nb\\\"c\\u0041\"}",
        )
        .expect("parses");
        assert_eq!(v.get_str("t"), Some("job"));
        assert_eq!(v.get_u64("n"), Some(u64::MAX));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get_opt_u64("none"), Some(None));
        assert_eq!(v.get_opt_u64("n"), Some(Some(u64::MAX)));
        assert_eq!(
            v.get("arr").and_then(Value::as_arr).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(v.get_str("s"), Some("a\nb\"cA"));
    }

    #[test]
    fn corruption_is_a_parse_failure_not_a_panic() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{\"a\":-1}",
            "{\"a\":1.5}",
            "{\"a\":1e9}",
            "{\"a\":18446744073709551616}",
            "nullish",
            "{\"a\"\u{0}:1}",
        ] {
            assert_eq!(Value::parse(bad), None, "{bad:?} must fail to parse");
        }
    }

    #[test]
    fn grid_overrides_round_trip_and_refuse_non_numbers() {
        let overrides = GridOverrides {
            seconds: Some(1.5),
            seed_count: Some(4),
            pairs: None,
        };
        let mut out = String::from("{");
        overrides.push_json(&mut out);
        out.push('}');
        assert_eq!(
            out,
            "{\"seconds\":4609434218613702656,\"seeds\":4,\"pairs\":null}"
        );
        let v = Value::parse(&out).expect("parses");
        assert_eq!(GridOverrides::from_json(&v), Ok(overrides));
        let absent = Value::parse("{}").unwrap();
        assert_eq!(
            GridOverrides::from_json(&absent),
            Ok(GridOverrides::default())
        );
        for bad in [
            "{\"seeds\":\"4\"}",
            "{\"pairs\":65536}",
            "{\"seconds\":true}",
        ] {
            let v = Value::parse(bad).unwrap();
            assert!(GridOverrides::from_json(&v).is_err(), "{bad}");
        }
    }

    /// A `Write` that records every call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn write_line_makes_one_write_and_one_flush() {
        let mut writer = CountingWriter::default();
        write_line(&mut writer, "{\"t\":\"next\"}").expect("write");
        assert_eq!(writer.writes, vec![b"{\"t\":\"next\"}\n".to_vec()]);
        assert_eq!(writer.flushes, 1);
    }

    /// The reader copies each run of plain bytes in one piece, so a long
    /// string costs linear time: 4 MiB of text with multi-byte scalars and
    /// escapes parses in milliseconds, where re-validating the rest of the
    /// document per character would take hours.
    #[test]
    fn a_four_mebibyte_string_parses_in_linear_time() {
        let mut text = String::new();
        while text.len() < 4 << 20 {
            text.push_str("plain, ünïcödé ✓ 𝄞 \"quoted\" \\ tab\t line\n \u{1} ");
        }
        let mut doc = String::from("{\"s\":");
        push_json_str(&mut doc, &text);
        doc.push('}');
        // Parse on a thread of its own, so that a slow parser fails the
        // test at the deadline instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let parser = std::thread::spawn(move || {
            let _ = tx.send(Value::parse(&doc));
        });
        let parsed = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a 4 MiB string must parse within 10 s");
        parser.join().expect("parser thread");
        assert_eq!(
            parsed.as_ref().and_then(|v| v.get_str("s")),
            Some(text.as_str())
        );
    }

    #[test]
    fn escape_writer_matches_reader() {
        let mut out = String::new();
        push_json_str(&mut out, "line1\nline2\t\"q\" \\ \u{1}");
        let parsed = Value::parse(&out).expect("escaped string parses");
        assert_eq!(parsed.as_str(), Some("line1\nline2\t\"q\" \\ \u{1}"));
    }
}
