//! Offline analysis of Quanto logs.
//!
//! The paper processes its logs post-facto: a set of tools parses the
//! 12-byte entries, GNU Octave performs the regression, and the combination
//! of power states, regression coefficients and activity timelines yields the
//! complete "where have all the joules gone" breakdown.  This crate is that
//! toolchain:
//!
//! * [`matrix`] — the small dense linear algebra the estimator needs,
//! * [`intervals`] — log parsing: power intervals, activity segments,
//!   proxy-binding resolution, timestamp unwrapping,
//! * [`streaming`] — the incremental (entry-by-entry) builders behind
//!   [`intervals`], for consumers that cannot hold whole logs,
//! * [`wls`] — the weighted multivariate least-squares regression of
//!   Section 2.5,
//! * [`mod@breakdown`] — time per (device, activity), energy per hardware
//!   component and energy per activity (Tables 3a–3d),
//! * [`reconstruct`] — the stacked power-envelope reconstruction of
//!   Figure 11(c),
//! * [`duty_cycle`] — duty cycles, wake-up episodes, average power and
//!   cumulative-energy series (Figures 13 and 14), and
//! * [`report`] — fixed-width text tables shared by the reproduction
//!   harnesses.

pub mod breakdown;
pub mod duty_cycle;
pub mod intervals;
pub mod matrix;
pub mod reconstruct;
pub mod report;
pub mod streaming;
pub mod wls;

pub use breakdown::{breakdown, Breakdown, BreakdownConfig};
pub use duty_cycle::{
    average_power, cumulative_energy_series, episode_durations, state_duty_cycle, state_episodes,
};
pub use intervals::{
    activity_segments, multi_segments, power_intervals, unwrap_times, ActivitySegment,
    MultiSegment, PowerInterval, UnwrappedEntry,
};
pub use matrix::{weighted_least_squares, Matrix, MatrixError};
pub use reconstruct::{reconstruct_power, reconstruction_energy_error, StackedStep};
pub use report::{pct, si, Align, TextTable};
pub use streaming::{IntervalBuilder, MultiSegmentBuilder, SegmentBuilder, TimeUnwrapper};
pub use wls::{
    pool_intervals, regress, regress_intervals, Observation, ObservationPool, RegressionError,
    RegressionOptions, RegressionResult,
};
