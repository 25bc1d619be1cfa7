//! The correctness gate: one reference per generated grid, computed by the
//! sequential in-process runner outside all timing, that every measured
//! pass, served job and sharded report must reproduce exactly.

use crate::workloads::Pass;
use quanto_fleet::{FleetReport, FleetRunner, GridSpec, Scenario};

/// Simulated statistics that must repeat exactly across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Surviving log entries over every node of every scenario.
    pub log_entries: u64,
    /// Frames delivered by geometric mediums.
    pub delivered: u64,
    /// Frames lost by geometric mediums, for any reason.
    pub lost: u64,
    /// FNV-1a over every node's regression-error bit pattern, in order.
    pub regression_bits: u64,
}

impl SimStats {
    /// The statistics of a finished report.
    pub fn of(report: &FleetReport) -> SimStats {
        let mut stats = SimStats {
            log_entries: report.total_log_entries(),
            delivered: 0,
            lost: 0,
            regression_bits: FNV_OFFSET,
        };
        for result in &report.results {
            if let Ok(c) = result.medium_counters() {
                stats.delivered += c.delivered;
                stats.lost += c.lost_out_of_range + c.lost_below_sensitivity + c.lost_captured;
            }
            for summary in &result.summaries {
                let bits = summary.regression_error.map_or(u64::MAX, f64::to_bits);
                stats.regression_bits = fnv(stats.regression_bits, &bits.to_le_bytes());
            }
        }
        stats
    }
}

/// What a correct execution of one grid produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The report's stream digest.
    pub digest: u64,
    /// Its simulated statistics.
    pub stats: SimStats,
    /// Scenarios in the grid.
    pub scenarios: usize,
}

impl Reference {
    /// Runs `cells` on the sequential runner.
    pub fn compute(cells: Vec<Scenario>) -> Reference {
        let scenarios = cells.len();
        let report = FleetRunner::sequential().run(cells);
        Reference {
            digest: report.digest(),
            stats: SimStats::of(&report),
            scenarios,
        }
    }

    /// Whether a report reproduces the reference.
    pub fn matches(&self, report: &FleetReport) -> bool {
        report.results.len() == self.scenarios
            && report.digest() == self.digest
            && SimStats::of(report) == self.stats
    }

    /// Whether a served job's final summary document carries the
    /// reference digest.
    pub fn matches_summary(&self, summary: &str) -> bool {
        quanto_serve::client::digest_of(summary)
            .and_then(|hex| u64::from_str_radix(&hex[2..], 16).ok())
            == Some(self.digest)
    }

    /// A served job's pass, checked: it must have finished, covered every
    /// scenario and carry the reference digest.  Its scenarios are the
    /// grid's, so a job that errored still counts them as failed.
    pub fn check_served(&self, pass: &Pass, summary: Option<&str>) -> Pass {
        let ok = pass.ok
            && pass.scenarios == self.scenarios
            && summary.is_some_and(|s| self.matches_summary(s));
        Pass {
            ok,
            scenarios: self.scenarios,
            ..*pass
        }
    }
}

/// Parses and expands grid text.
pub fn expand(text: &str) -> Result<Vec<Scenario>, String> {
    GridSpec::parse(text)
        .and_then(|spec| spec.expand())
        .map_err(|e| format!("generated grid does not expand: {e}"))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grids;

    #[test]
    fn reference_matches_a_parallel_run_and_rejects_another_grid() {
        let cells = expand(&grids::sharded_sweep(11)).unwrap();
        let reference = Reference::compute(cells.clone());
        assert!(reference.matches(&FleetRunner::new(2).run(cells)));
        let other = expand(&grids::sharded_sweep(12)).unwrap();
        assert!(!reference.matches(&FleetRunner::new(2).run(other)));
        let summary = format!("{{\"digest\":\"{:#018x}\"}}", reference.digest);
        assert!(reference.matches_summary(&summary));
        assert!(!reference.matches_summary("{\"digest\":\"0x0000000000000000\"}"));
    }
}
