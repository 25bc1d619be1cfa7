//! Named metrics and the JSON result line.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "sweep_wall_s.p50",
    "sweep_wall_s.tail",
    "scenarios_per_s",
    "cpu_ms_per_scenario",
    "peak_rss_mb",
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [&str; 49] = [
    "fleet.grid.expand_ms",
    "fleet.build_ms",
    "fleet.build_us_per_node",
    "os_sim.run_ms",
    "os_sim.events_dispatched",
    "os_sim.ns_per_event",
    "os_sim.heap_pushes",
    "os_sim.stale_pop_frac",
    "os_sim.dedup_hits",
    "net_sim.candidates_examined",
    "net_sim.pruned_by_cutoff",
    "net_sim.fades_hashed",
    "net_sim.cca_early_outs",
    "net_sim.delivered",
    "net_sim.lost",
    "net_sim.delivered_per_candidate",
    "core.log_entries",
    "core.log_chunks",
    "core.entries_per_chunk",
    "core.log_dropped",
    "core.finish_ms",
    "analysis.analyze_ms",
    "analysis.us_per_entry",
    "analysis.us_per_node",
    "analysis.regressions",
    "fleet.runner.worker_util",
    "fleet.runner.overhead_frac",
    "fleet.runner.backpressure_stalls",
    "fleet.runner.merge_wakeups",
    "fleet.cache.hits",
    "fleet.cache.misses",
    "fleet.cache.writes",
    "fleet.cache.hit_frac",
    "fleet.cache.probe_us",
    "fleet.cache.store_us",
    "serve.first_event_ms",
    "serve.final_gap_ms",
    "serve.events_per_job",
    "serve.bytes_per_job",
    "serve.jobs.completed",
    "serve.scenarios.executed",
    "serve.scenarios.warm",
    "fleet.dist.spawn_to_first_result_ms",
    "fleet.dist.merge_gap_ms.p50",
    "fleet.dist.chunks",
    "fleet.dist.overhead_frac",
    "single_worker_wall_ms",
    "unattributed_frac",
    "tracing_overhead_frac",
];

/// Whether `name` is a valid metric name: letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Metrics in the order they were measured, with optional notes for the
/// human-readable report.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<(&'static str, String)>,
}

impl Metrics {
    /// Records `name = value unit`.  Values that are not finite (an empty
    /// ratio) are recorded as 0.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(valid_name(name), "{name}");
        let value = if value.is_finite() { value } else { 0.0 };
        self.entries.push((name, value, unit));
    }

    /// Attaches a human-readable note to a metric.
    pub fn note(&mut self, name: &'static str, note: &str) {
        self.notes.push((name, note.to_string()));
    }

    /// The names recorded so far.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.0).collect()
    }

    /// Prints one aligned line per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            let note = self
                .notes
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, note)| format!("  [{note}]"))
                .unwrap_or_default();
            println!("  {name:<38} {value:>16.6} {unit}{note}");
        }
    }

    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A run's verdict and metrics.
pub struct Outcome {
    /// Scenarios attempted.
    pub attempted: u64,
    /// Scenarios that errored or did not match their reference.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// Whether every attempted scenario matched its reference.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(""));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let declared = |section: &str| -> Vec<String> {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest[..rest.find('"').unwrap()].to_string())
                .collect()
        };
        assert_eq!(declared("end_to_end"), END_TO_END);
        assert_eq!(declared("per_layer"), PER_LAYER);
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_precision_values() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.000123456789, "s");
        metrics.push("scenarios_per_s", f64::NAN, "1/s");
        let outcome = Outcome {
            attempted: 17,
            failed: 0,
            metrics,
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 17, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.000123456789, \"unit\": \"s\"}, \
             \"scenarios_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }
}
