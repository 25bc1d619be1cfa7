//! Reconstructing the power envelope from power states and the regression.
//!
//! Figure 11(c) of the paper overlays a stacked, per-component power trace —
//! rebuilt purely from the power-state timeline and the regression results —
//! on top of the oscilloscope-measured power, and reports a relative error of
//! 0.004 % between the energy measured by Quanto and the energy implied by
//! the reconstruction.

use crate::intervals::PowerInterval;
use crate::wls::RegressionResult;
use hw_model::{Catalog, Energy, Power, SimTime, SinkId};

/// One step of the reconstructed, stacked power trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedStep {
    /// Step start time.
    pub start: SimTime,
    /// Step end time.
    pub end: SimTime,
    /// Per-sink power contributions during this step (only sinks with a
    /// non-zero estimated contribution appear).
    pub per_sink: Vec<(SinkId, Power)>,
    /// The constant (quiescent) contribution.
    pub constant: Power,
    /// Total reconstructed power (sum of components plus constant).
    pub total: Power,
    /// The power actually measured by the meter over this step
    /// (pulses × energy-per-pulse / duration).
    pub measured: Power,
}

/// Rebuilds the stacked power trace for a sequence of power intervals.
pub fn reconstruct_power(
    intervals: &[PowerInterval],
    catalog: &Catalog,
    regression: &RegressionResult,
    energy_per_count: Energy,
) -> Vec<StackedStep> {
    intervals
        .iter()
        .map(|iv| {
            let mut per_sink = Vec::new();
            let mut total = regression.constant_power();
            for (i, state) in iv.states.iter().enumerate() {
                let sink = SinkId(i as u16);
                if let Some(p) = regression.state_power(catalog, sink, *state) {
                    if p.as_micro_watts() != 0.0 {
                        per_sink.push((sink, p));
                        total += p;
                    }
                }
            }
            let dur = iv.duration();
            let measured = if dur.is_zero() {
                Power::ZERO
            } else {
                (energy_per_count * iv.counts as f64) / dur
            };
            StackedStep {
                start: iv.start,
                end: iv.end,
                per_sink,
                constant: regression.constant_power(),
                total,
                measured,
            }
        })
        .collect()
}

/// The relative error between total metered energy and total reconstructed
/// energy, over a whole run (the 0.004 % number of Section 4.2.1).
pub fn reconstruction_energy_error(
    intervals: &[PowerInterval],
    catalog: &Catalog,
    regression: &RegressionResult,
    energy_per_count: Energy,
) -> f64 {
    let steps = reconstruct_power(intervals, catalog, regression, energy_per_count);
    let mut measured = 0.0;
    let mut reconstructed = 0.0;
    for s in &steps {
        let dur = s.end.duration_since(s.start);
        measured += (s.measured * dur).as_micro_joules();
        reconstructed += (s.total * dur).as_micro_joules();
    }
    if measured == 0.0 {
        0.0
    } else {
        (reconstructed - measured).abs() / measured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wls::{regress_intervals, RegressionOptions};
    use hw_model::catalog::{blink_catalog, led_state};
    use hw_model::{PowerModel, SimDuration, StateVector};
    use std::sync::Arc;

    fn intervals_and_regression() -> (Vec<PowerInterval>, Arc<Catalog>, RegressionResult) {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::ideal(cat.clone());
        let mut intervals = Vec::new();
        let mut cumulative = 0.0f64;
        let mut prev = 0u64;
        let mut t = SimTime::ZERO;
        let dur = SimDuration::from_secs(1);
        for mask in 0..8u8 {
            let mut sv = StateVector::baseline(&cat);
            for (i, led) in leds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            cumulative += model.energy_over(&sv, dur).as_micro_joules();
            let counts = cumulative.floor() as u64;
            intervals.push(PowerInterval {
                start: t,
                end: t + dur,
                counts: (counts - prev) as u32,
                states: sv.key(),
            });
            prev = counts;
            t += dur;
        }
        let reg = regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        )
        .unwrap();
        (intervals, cat, reg)
    }

    #[test]
    fn reconstruction_tracks_measured_power() {
        let (intervals, cat, reg) = intervals_and_regression();
        let steps = reconstruct_power(&intervals, &cat, &reg, Energy::from_micro_joules(1.0));
        assert_eq!(steps.len(), intervals.len());
        for s in &steps {
            // Each step's reconstruction should be within a few percent of
            // the measured power (quantization is the only error source).
            let m = s.measured.as_micro_watts();
            let r = s.total.as_micro_watts();
            if m > 100.0 {
                assert!(
                    (m - r).abs() / m < 0.05,
                    "measured {m} vs reconstructed {r}"
                );
            }
            // Total is the sum of parts.
            let parts: f64 = s
                .per_sink
                .iter()
                .map(|(_, p)| p.as_micro_watts())
                .sum::<f64>()
                + s.constant.as_micro_watts();
            assert!((parts - r).abs() < 1e-6);
        }
        // The all-off step has no per-sink contributions.
        assert!(steps[0].per_sink.is_empty());
        // The all-on step has three.
        assert_eq!(steps[7].per_sink.len(), 3);
    }

    #[test]
    fn whole_run_energy_error_is_tiny() {
        let (intervals, cat, reg) = intervals_and_regression();
        let err =
            reconstruction_energy_error(&intervals, &cat, &reg, Energy::from_micro_joules(1.0));
        assert!(err < 0.01, "reconstruction error {err}");
    }
}
