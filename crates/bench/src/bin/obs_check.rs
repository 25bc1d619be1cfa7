//! CI gate over a `fleet_sweep --obs-json` profile: proves the obs layer's
//! accounting reconciles, not just that the file exists.
//!
//! Checks, per the acceptance bar in the obs work:
//!
//! * the profile is well-formed (`version` 1, non-empty `workers`);
//! * at least one worker ran long enough to measure (≥ 5 ms) — a profile
//!   of only shorter workers reconciles nothing, so it fails;
//! * for every such worker, busy + stall + merge + send time explains its
//!   wall-clock to within 5% (the remainder is queue bookkeeping, which
//!   must stay small);
//! * per-phase span totals (`phase_us`) cover at least 95% of busy time —
//!   build/run/analyze spans must tile the scenario spans they nest in.
//!
//! The profile is read with the workspace's one JSON reader,
//! [`quanto_fleet::wire::Value`]: every number
//! [`quanto_obs::Profile::to_json`] writes is an unsigned integer.
//!
//! Usage: `obs_check PROFILE.json` — exits nonzero with a diagnostic on the
//! first violated invariant.

use quanto_fleet::wire::Value;
use std::process::ExitCode;

/// Workers shorter than this are dominated by span-timestamp granularity
/// and queue startup; reconciliation ratios are meaningless on them.
const MIN_MEASURABLE_US: f64 = 5_000.0;

fn check_profile(profile: &Value) -> Result<String, String> {
    let version = profile
        .get_u64("version")
        .ok_or("profile has no integer \"version\"")?;
    if version != 1 {
        return Err(format!("unsupported profile version {version}"));
    }
    let workers = profile
        .get("workers")
        .and_then(Value::as_arr)
        .ok_or("profile has no \"workers\" array")?;
    if workers.is_empty() {
        return Err("profile recorded no workers — was obs actually enabled?".into());
    }
    for key in ["phases", "scenarios", "trace_events"] {
        if profile.get(key).and_then(Value::as_arr).is_none() {
            return Err(format!("profile has no \"{key}\" array"));
        }
    }

    let mut measured = 0usize;
    for w in workers {
        let label = w.get_str("label").unwrap_or("?");
        let field = |k: &str| {
            w.get_u64(k)
                .map(|us| us as f64)
                .ok_or_else(|| format!("worker {label}: missing integer \"{k}\""))
        };
        let elapsed = field("elapsed_us")?;
        let busy = field("busy_us")?;
        let stall = field("stall_us")?;
        let merge = field("merge_us")?;
        let send = field("send_us")?;
        let phase = field("phase_us")?;
        if elapsed < MIN_MEASURABLE_US {
            continue;
        }
        measured += 1;
        let accounted = (busy + stall + merge + send) / elapsed;
        if !(0.95..=1.05).contains(&accounted) {
            return Err(format!(
                "worker {label}: busy {busy:.0} + stall {stall:.0} + merge {merge:.0} + \
                 send {send:.0} µs explains {:.1}% of {elapsed:.0} µs wall-clock \
                 (need 95–105%)",
                accounted * 100.0
            ));
        }
        if busy > 0.0 && phase < 0.95 * busy {
            return Err(format!(
                "worker {label}: phase spans total {phase:.0} µs but busy time is \
                 {busy:.0} µs — build/run/analyze must tile ≥ 95% of scenario time"
            ));
        }
    }
    if measured == 0 {
        return Err(format!(
            "none of the {} workers ran the {:.0} ms it takes to reconcile — \
             size the sweep up",
            workers.len(),
            MIN_MEASURABLE_US / 1e3
        ));
    }
    Ok(format!(
        "obs profile ok: {} workers ({measured} long enough to reconcile), \
         accounted time within 5% of wall-clock",
        workers.len()
    ))
}

fn main() -> ExitCode {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            eprintln!("usage: obs_check PROFILE.json");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(profile) = Value::parse(&text) else {
        eprintln!("obs_check: {path} is not valid JSON");
        return ExitCode::FAILURE;
    };
    match check_profile(&profile) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("obs_check: FAIL — {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(label: &str, elapsed: u64, busy: u64, stall: u64, merge: u64, phase: u64) -> String {
        format!(
            "{{\"label\":\"{label}\",\"elapsed_us\":{elapsed},\"busy_us\":{busy},\
             \"stall_us\":{stall},\"merge_us\":{merge},\"send_us\":0,\
             \"phase_us\":{phase},\"scenarios\":3}}"
        )
    }

    fn profile_with(workers: &[String]) -> String {
        format!(
            "{{\"version\":1,\"phases\":[],\"workers\":[{}],\"scenarios\":[],\
             \"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}},\"trace_events\":[]}}",
            workers.join(",")
        )
    }

    #[test]
    fn reconciled_profile_passes() {
        let text = profile_with(&[
            worker("worker-0", 100_000, 94_000, 2_000, 2_000, 93_500),
            worker("worker-1", 100_000, 80_000, 15_000, 3_000, 79_000),
            // Too short to measure — ignored even though unreconciled.
            worker("worker-2", 800, 10, 0, 0, 0),
        ]);
        let v = Value::parse(&text).unwrap();
        assert!(check_profile(&v).is_ok());
    }

    #[test]
    fn unaccounted_wall_clock_fails() {
        let text = profile_with(&[worker("worker-0", 100_000, 50_000, 10_000, 5_000, 49_000)]);
        let v = Value::parse(&text).unwrap();
        let err = check_profile(&v).unwrap_err();
        assert!(err.contains("worker-0"), "{err}");
    }

    #[test]
    fn missing_phase_coverage_fails() {
        let text = profile_with(&[worker("worker-0", 100_000, 97_000, 1_000, 1_000, 40_000)]);
        let v = Value::parse(&text).unwrap();
        let err = check_profile(&v).unwrap_err();
        assert!(err.contains("tile"), "{err}");
    }

    #[test]
    fn empty_workers_and_bad_version_fail() {
        let v = Value::parse(&profile_with(&[])).unwrap();
        assert!(check_profile(&v).unwrap_err().contains("no workers"));
        let text = profile_with(&[worker("w", 10_000, 9_900, 0, 0, 9_900)])
            .replace("\"version\":1", "\"version\":2");
        let v = Value::parse(&text).unwrap();
        assert!(check_profile(&v).unwrap_err().contains("version"));
    }

    /// Workers too short to measure reconcile nothing: a failure, not a
    /// pass that checked no worker.
    #[test]
    fn a_profile_of_only_short_workers_fails() {
        let text = profile_with(&[
            worker("worker-0", 4_999, 10, 0, 0, 0),
            worker("worker-1", 800, 10, 0, 0, 0),
        ]);
        let v = Value::parse(&text).unwrap();
        let err = check_profile(&v).unwrap_err();
        assert!(err.contains("none of the 2 workers"), "{err}");
    }
}
