//! `quanto-fleet`: the parallel scenario-sweep subsystem.
//!
//! The paper's evaluation is a grid of scenarios — LPL on channel 17 versus
//! 26 under 802.11 interference, Blink calibration and profiling runs, the
//! Bounce ping-pong — which the figure/table binaries used to execute
//! strictly back-to-back on one thread.  This crate makes the grid itself a
//! first-class object:
//!
//! * [`Scenario`] — a declarative, plain-data spec (app kind, topology,
//!   channel, seed, duration) from which a ready-to-run simulation is built;
//! * [`GridSpec`] — a plain-data sweep-grid description (axes of seeds ×
//!   channels × mediums × durations crossed with app specs), parseable from
//!   a simple config file, that expands to a scenario batch;
//! * [`Job`] — one sweep's scheduling state: claim queue, reorder buffer,
//!   digest fold, cache stats and per-scenario [`FleetProgress`] events.
//!   Every topology is a job plus an executor: the in-process
//!   [`WorkerPool`] (also the `quanto-serve` daemon's and each dist
//!   shard's), or the [`dist`] coordinator serving shard processes;
//! * [`FleetRunner`] — runs an arbitrary batch of scenarios as one job, on
//!   a pool of worker threads (each worker drives its own independent
//!   `os_sim::Engine`) or inline on the calling thread.  Every scenario
//!   runs on one path that feeds each node's log through a
//!   [`quanto_core::LogSink`] → incremental-builder chain *during* the run,
//!   so by default ([`Retention::Stream`]) raw logs are never materialized;
//!   [`FleetRunner::retain_raw`] adds a collecting tap for raw
//!   re-analysis;
//! * [`FleetReport`] — the merged, submission-ordered results, fed through
//!   the `analysis` crate's *incremental* interval builders (duty cycle,
//!   energy, regression) and folded into one stream digest for
//!   bit-reproducibility checks;
//! * [`scenarios`] — the paper's experiment grids expressed as scenario
//!   batches, plus adapters back into the `quanto-apps` result types.
//!
//! # Example
//!
//! ```
//! use hw_model::SimDuration;
//! use quanto_fleet::{scenarios, FleetRunner, Scenario};
//!
//! // A seed × channel LPL grid, sharded across 4 worker threads.
//! let mut grid = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, SimDuration::from_secs(2));
//! grid.push(Scenario::blink(SimDuration::from_secs(2)));
//! let report = FleetRunner::new(4).run(grid);
//! assert_eq!(report.results.len(), 5);
//! // Same batch, one thread: bit-identical results.
//! let mut again = scenarios::lpl_grid(&[1, 2], &[17, 26], 0.18, SimDuration::from_secs(2));
//! again.push(Scenario::blink(SimDuration::from_secs(2)));
//! assert_eq!(FleetRunner::sequential().run(again).digest(), report.digest());
//! ```

pub mod cache;
pub mod dist;
pub mod grid;
pub mod job;
pub mod pool;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod wire;
pub mod workspace;

pub use grid::{GridError, GridOverrides, GridSpec};
pub use job::{FleetProgress, Job, JobStatus};
pub use pool::WorkerPool;

pub use cache::{CacheStats, ResultCache, CACHE_FORMAT_VERSION};
pub use dist::{Coordinator, DistError, DistOptions};
pub use net_sim::DeliveryCounters;
pub use report::{
    CounterAccessError, FleetReport, NodeStreamMeta, NodeSummary, RawAccessError,
    RawScenarioOutputs, ReportAccumulator, ScenarioResult,
};
pub use runner::{execute_or_cached_in, FleetRunner, Retention};
pub use scenario::{
    AppSpec, GeometrySpec, MediumSpec, PathLossSpec, Scenario, TopologySpec, TraceSpec,
    SPEC_DIGEST_VERSION,
};
pub use workspace::SimWorkspace;

/// The paper's experiment grids as scenario batches, and adapters from
/// scenario results back into the `quanto-apps` result types.
pub mod scenarios {
    use crate::report::ScenarioResult;
    use crate::scenario::{GeometrySpec, MediumSpec, PathLossSpec, Scenario};
    use hw_model::SimDuration;
    use quanto_apps::{analyze_lpl, blink_run_from_parts, BlinkRun, LplRun};

    /// Figure 13's two-channel comparison as a scenario batch: channel 17
    /// (under the access point) and channel 26 (clear), both with the
    /// paper's 18 % interference duty.  Byte-compatible with the sequential
    /// `quanto_apps::run_lpl_comparison`.
    pub fn lpl_comparison(duration: SimDuration) -> Vec<Scenario> {
        vec![
            Scenario::lpl(17, 0.18, duration),
            Scenario::lpl(26, 0.18, duration),
        ]
    }

    /// A seed × channel LPL grid — the sweep that did not exist when the
    /// comparison binaries ran one scenario at a time.
    pub fn lpl_grid(
        seeds: &[u64],
        channels: &[u8],
        interference_duty: f64,
        duration: SimDuration,
    ) -> Vec<Scenario> {
        let mut grid = Vec::with_capacity(seeds.len() * channels.len());
        for seed in seeds {
            for channel in channels {
                grid.push(
                    Scenario::lpl(*channel, interference_duty, duration)
                        .with_seed(*seed)
                        .named(format!("lpl_ch{channel}_seed{seed}")),
                );
            }
        }
        grid
    }

    /// The medium axis: the same two-node Bounce exchange through every
    /// medium kind.  `ideal` hears everything; `unit_disk` places the nodes
    /// 8 m apart inside a 10 m disk; `path_loss` puts them 10 m apart under
    /// the default log-distance model (≈ −70 dBm, comfortably above the
    /// floor, shadowing fades individual frames); `mobility` walks node 4
    /// out of the disk at the midpoint of the run and back, so deliveries
    /// stop and resume mid-scenario.
    pub fn medium_grid(duration: SimDuration) -> Vec<Scenario> {
        let us = duration.as_micros();
        vec![
            Scenario::bounce(duration).named("bounce_medium_ideal"),
            Scenario::bounce(duration)
                .with_medium(MediumSpec::UnitDisk {
                    range_m: 10.0,
                    positions: vec![(1, 0.0, 0.0), (4, 8.0, 0.0)],
                })
                .named("bounce_medium_unit_disk"),
            Scenario::bounce(duration)
                .with_medium(MediumSpec::PathLoss {
                    model: PathLossSpec::default(),
                    positions: vec![(1, 0.0, 0.0), (4, 10.0, 0.0)],
                })
                .named("bounce_medium_path_loss"),
            Scenario::bounce(duration)
                .with_medium(MediumSpec::Mobility {
                    base: GeometrySpec::UnitDisk { range_m: 10.0 },
                    positions: vec![(1, 0.0, 0.0)],
                    traces: vec![(4, vec![(0, 5.0, 0.0), (us / 2, 30.0, 0.0), (us, 5.0, 0.0)])],
                })
                .named("bounce_medium_mobility"),
        ]
    }

    /// The multi-node path-loss stress profile: `pairs` Bounce exchanges on
    /// one channel, pairs spaced 30 m apart along a line with 5 m between
    /// partners.  Partners hear each other loudly; neighboring pairs sit
    /// near the sensitivity floor, close enough to collide but too far to
    /// carrier-sense reliably — the hidden-terminal regime the capture rule
    /// exists for.
    pub fn path_loss_stress(pairs: u16, seed: u64, duration: SimDuration) -> Scenario {
        let mut positions = Vec::with_capacity(2 * pairs as usize);
        for k in 0..pairs as u32 {
            let x = 30.0 * k as f64;
            positions.push((2 * k + 1, x, 0.0));
            positions.push((2 * k + 2, x + 5.0, 0.0));
        }
        Scenario::bounce_pairs(pairs, duration)
            .with_medium(MediumSpec::PathLoss {
                model: PathLossSpec::default(),
                positions,
            })
            .with_seed(seed)
            .named(format!("path_loss_stress_{}n_seed{seed}", 2 * pairs as u32))
    }

    /// Converts a finished LPL scenario into the `quanto-apps` [`LplRun`]
    /// (duty cycle, wake-up classification, cumulative energy) the Figure 13
    /// and 14 harnesses consume.  Needs raw outputs — run the batch with
    /// [`crate::FleetRunner::retain_raw`].
    pub fn into_lpl_run(result: ScenarioResult) -> LplRun {
        let channel = result.scenario.channel;
        let (_, output, context) = result.into_single_node_parts();
        analyze_lpl(channel, output, context)
    }

    /// Converts a finished Blink scenario into the `quanto-apps`
    /// [`BlinkRun`] the calibration and Table 3 profiling consume.  Needs
    /// raw outputs — run the batch with [`crate::FleetRunner::retain_raw`].
    pub fn into_blink_run(result: ScenarioResult) -> BlinkRun {
        let (id, output, context) = result.into_single_node_parts();
        blink_run_from_parts(id, output, context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::SimDuration;

    /// The fleet path must reproduce the legacy sequential drivers exactly:
    /// same scenario, same seeds, same logs.
    #[test]
    fn fleet_lpl_comparison_matches_sequential_driver() {
        let duration = SimDuration::from_secs(4);
        let report = FleetRunner::new(2)
            .retain_raw()
            .run(scenarios::lpl_comparison(duration));
        let mut results = report.into_results();
        let ch17_fleet = scenarios::into_lpl_run(results.remove(0));
        let ch26_fleet = scenarios::into_lpl_run(results.remove(0));
        let ch17_seq = quanto_apps::run_lpl_experiment(17, duration, 0.18);
        let ch26_seq = quanto_apps::run_lpl_experiment(26, duration, 0.18);
        assert_eq!(ch17_fleet.output.log, ch17_seq.output.log);
        assert_eq!(ch26_fleet.output.log, ch26_seq.output.log);
        assert_eq!(ch17_fleet.wakeups, ch17_seq.wakeups);
        assert_eq!(ch17_fleet.false_positives, ch17_seq.false_positives);
        assert!(ch17_fleet.duty_cycle >= ch26_fleet.duty_cycle);
    }

    /// The fleet path must also reproduce the Blink profile experiment.
    #[test]
    fn fleet_blink_scenario_feeds_the_profile_pipeline() {
        let duration = SimDuration::from_secs(16);
        let report = FleetRunner::sequential()
            .retain_raw()
            .run(vec![Scenario::blink(duration)]);
        let run = scenarios::into_blink_run(report.into_results().remove(0));
        let profile = quanto_apps::blink_profile_from_run(run);
        assert!(profile.log_entries > 100);
        assert!(profile.reconstruction_error < 0.05);
    }

    /// Seeds must be a real axis: different seeds change an interfered LPL
    /// run, identical seeds reproduce it.
    #[test]
    fn seeds_are_a_real_sweep_axis() {
        let d = SimDuration::from_secs(4);
        let batch = |seed| vec![Scenario::lpl(17, 0.18, d).with_seed(seed)];
        let a = FleetRunner::sequential().run(batch(1)).digest();
        let a2 = FleetRunner::sequential().run(batch(1)).digest();
        let b = FleetRunner::sequential().run(batch(2)).digest();
        assert_eq!(a, a2, "same seed must reproduce");
        assert_ne!(a, b, "different seeds must differ");
    }
}
