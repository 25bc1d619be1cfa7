//! Bench-baseline bookkeeping: parse `cargo bench` output, compare it
//! against the checked-in `BENCH_BASELINE.json`, and regenerate the
//! baseline.
//!
//! The offline criterion shim prints one summary line per benchmark
//! (`bench <id> median <t> mean <t> (<n> samples)`); `fleet_sweep --smoke`
//! emits its wall-clock measurements in the same shape.  The baseline file
//! is a flat JSON object mapping bench ids to median nanoseconds per
//! iteration, plus underscore-prefixed metadata keys.
//!
//! Absolute nanoseconds are meaningless across hosts, so the comparison is
//! normalized: the fixed-work [`CALIBRATION_ID`] bench measures how fast the
//! current host is relative to the host that recorded the baseline, and
//! every other bench is compared against `baseline × that scale`.

use quanto_fleet::wire::Value;

/// Id of the fixed-workload calibration bench used to normalize host speed.
pub const CALIBRATION_ID: &str = "calibration/spin";

/// Baseline key holding the allowed relative regression (e.g. `0.25`).
pub const TOLERANCE_KEY: &str = "_tolerance";

/// Default allowed relative regression when the baseline has no
/// [`TOLERANCE_KEY`].
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Parses a duration token pair like (`"1.234"`, `"ms"`) into nanoseconds.
fn duration_ns(value: &str, unit: &str) -> Option<f64> {
    let v: f64 = value.parse().ok()?;
    let scale = match unit {
        "ns" => 1.0,
        "µs" | "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        _ => return None,
    };
    Some(v * scale)
}

/// Formats nanoseconds the way the criterion shim does.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders one measurement as a shim-compatible bench summary line (used by
/// `fleet_sweep --smoke` so its wall-clock numbers flow through the same
/// baseline comparison as `cargo bench` output).
pub fn bench_line(id: &str, median_ns: f64) -> String {
    format!(
        "bench {id:<48} median {:>12}  mean {:>12}  (1 samples)",
        fmt_ns(median_ns),
        fmt_ns(median_ns)
    )
}

/// Extracts `(id, median ns)` from every bench summary line in `text`;
/// non-bench lines are ignored.
pub fn parse_bench_lines(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.first() != Some(&"bench") || tokens.len() < 5 {
            continue;
        }
        let Some(pos) = tokens.iter().position(|t| *t == "median") else {
            continue;
        };
        if pos + 2 >= tokens.len() || pos < 2 {
            continue;
        }
        if let Some(ns) = duration_ns(tokens[pos + 1], tokens[pos + 2]) {
            out.push((tokens[1].to_string(), ns));
        }
    }
    out
}

/// Parses a flat `{"key": number, ...}` JSON object, the only shape the
/// baseline uses.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(Value::Obj(fields)) = Value::parse(text) else {
        return Err("baseline is not a JSON object".to_string());
    };
    fields
        .into_iter()
        .map(|(key, value)| match value.as_f64() {
            Some(x) => Ok((key, x)),
            None => Err(format!("baseline entry {key:?} is not a number")),
        })
        .collect()
}

/// Renders entries as the flat JSON object [`parse_flat_json`] reads.
pub fn render_flat_json(entries: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    for (i, (key, value)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        // f64 Display is shortest-round-trip, so no precision is lost.
        out.push_str(&format!("  \"{key}\": {value}{sep}\n"));
    }
    out.push_str("}\n");
    out
}

/// One baseline-versus-measured comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The bench id.
    pub id: String,
    /// Baseline median, in ns (as recorded).
    pub baseline_ns: f64,
    /// Measured median, in ns.
    pub measured_ns: f64,
    /// `measured / (baseline × host scale)` — 1.0 means exactly on
    /// baseline, above 1 is slower.
    pub ratio: f64,
    /// Whether the ratio exceeds the allowed tolerance.
    pub regressed: bool,
}

/// The outcome of comparing a bench run against the baseline.
#[derive(Debug)]
pub struct BaselineCheck {
    /// Per-bench comparisons, baseline order.
    pub comparisons: Vec<Comparison>,
    /// Baseline ids with no measurement in the bench output.
    pub missing: Vec<String>,
    /// The tolerance applied.
    pub tolerance: f64,
    /// The host-speed scale derived from [`CALIBRATION_ID`] (1.0 when
    /// either side lacks it).
    pub scale: f64,
}

impl BaselineCheck {
    /// Whether any bench regressed or any baseline entry went unmeasured.
    pub fn failed(&self) -> bool {
        !self.missing.is_empty() || self.comparisons.iter().any(|c| c.regressed)
    }
}

fn lookup(entries: &[(String, f64)], id: &str) -> Option<f64> {
    entries.iter().find(|(k, _)| k == id).map(|(_, v)| *v)
}

/// Compares measured bench medians against the baseline.
pub fn compare(baseline: &[(String, f64)], measured: &[(String, f64)]) -> BaselineCheck {
    let tolerance = lookup(baseline, TOLERANCE_KEY).unwrap_or(DEFAULT_TOLERANCE);
    let scale = match (
        lookup(baseline, CALIBRATION_ID),
        lookup(measured, CALIBRATION_ID),
    ) {
        (Some(base), Some(now)) if base > 0.0 && now > 0.0 => now / base,
        _ => 1.0,
    };
    let mut comparisons = Vec::new();
    let mut missing = Vec::new();
    for (id, baseline_ns) in baseline {
        if id.starts_with('_') || id == CALIBRATION_ID {
            continue;
        }
        match lookup(measured, id) {
            None => missing.push(id.clone()),
            Some(measured_ns) => {
                let ratio = measured_ns / (baseline_ns * scale).max(f64::EPSILON);
                comparisons.push(Comparison {
                    id: id.clone(),
                    baseline_ns: *baseline_ns,
                    measured_ns,
                    ratio,
                    regressed: ratio > 1.0 + tolerance,
                });
            }
        }
    }
    BaselineCheck {
        comparisons,
        missing,
        tolerance,
        scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_lines_round_trip_through_the_parser() {
        let text = format!(
            "noise\n{}\n{}\nbench run complete\n",
            bench_line("logger/record_Flush", 1234.0),
            bench_line("fleet/sweep_smoke_t1", 2.5e9),
        );
        let parsed = parse_bench_lines(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "logger/record_Flush");
        assert!((parsed[0].1 - 1234.0).abs() / 1234.0 < 1e-3);
        assert_eq!(parsed[1].0, "fleet/sweep_smoke_t1");
        assert!((parsed[1].1 - 2.5e9).abs() / 2.5e9 < 1e-3);
    }

    #[test]
    fn shim_output_shape_is_parsed() {
        let text = "bench workloads/blink_8s                               median     12.345 ms  mean     13.000 ms  (10 samples)";
        let parsed = parse_bench_lines(text);
        assert_eq!(parsed, vec![("workloads/blink_8s".to_string(), 12.345e6)]);
    }

    #[test]
    fn flat_json_round_trips() {
        let entries = vec![
            ("_tolerance".to_string(), 0.25),
            ("a/b".to_string(), 1500.0),
            ("c".to_string(), 2.0e9),
        ];
        let text = render_flat_json(&entries);
        assert_eq!(parse_flat_json(&text), Ok(entries));
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("[1]").is_err());
        assert!(parse_flat_json("{\"a\":\"1\"}").is_err());
    }

    #[test]
    fn comparison_normalizes_by_calibration_and_flags_regressions() {
        let baseline = vec![
            (TOLERANCE_KEY.to_string(), 0.25),
            (CALIBRATION_ID.to_string(), 1000.0),
            ("fast".to_string(), 100.0),
            ("slow".to_string(), 100.0),
            ("gone".to_string(), 100.0),
        ];
        // The host is 2x slower than the baseline host; "fast" scaled up by
        // exactly 2x is on-baseline, "slow" at 3x is a regression.
        let measured = vec![
            (CALIBRATION_ID.to_string(), 2000.0),
            ("fast".to_string(), 200.0),
            ("slow".to_string(), 300.0),
        ];
        let check = compare(&baseline, &measured);
        assert!((check.scale - 2.0).abs() < 1e-9);
        assert_eq!(check.missing, vec!["gone".to_string()]);
        let fast = check.comparisons.iter().find(|c| c.id == "fast").unwrap();
        let slow = check.comparisons.iter().find(|c| c.id == "slow").unwrap();
        assert!(!fast.regressed, "ratio {}", fast.ratio);
        assert!(slow.regressed, "ratio {}", slow.ratio);
        assert!(check.failed());
    }

    #[test]
    fn within_tolerance_passes() {
        let baseline = vec![("x".to_string(), 100.0)];
        let measured = vec![("x".to_string(), 120.0)];
        let check = compare(&baseline, &measured);
        assert!(!check.failed(), "20 % is inside the default 25 % tolerance");
        let worse = vec![("x".to_string(), 130.0)];
        assert!(compare(&baseline, &worse).failed());
    }
}
