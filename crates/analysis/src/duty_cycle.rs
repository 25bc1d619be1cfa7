//! Duty cycles, average power and cumulative energy series.
//!
//! The low-power-listening case study (Figures 13 and 14) reports the radio
//! duty cycle, the node's average power draw and the cumulative energy over
//! time under 802.11 interference.  These are simple functionals of the power
//! intervals extracted from the log.

use crate::intervals::PowerInterval;
use hw_model::{Energy, Power, SimDuration, SimTime, SinkId, StateIndex};

/// Fraction of total time that `sink` spent in a state satisfying `pred`.
///
/// Returns zero when the intervals cover no time.
pub fn state_duty_cycle<F>(intervals: &[PowerInterval], sink: SinkId, pred: F) -> f64
where
    F: Fn(StateIndex) -> bool,
{
    let mut active = 0u64;
    let mut total = 0u64;
    for iv in intervals {
        let d = iv.duration().as_micros();
        total += d;
        if iv
            .states
            .get(sink.as_usize())
            .map(|s| pred(*s))
            .unwrap_or(false)
        {
            active += d;
        }
    }
    if total == 0 {
        0.0
    } else {
        active as f64 / total as f64
    }
}

/// Counts how many distinct episodes the sink spent in a matching state
/// (consecutive matching intervals count as one episode).  Used to count LPL
/// wake-ups.
pub fn state_episodes<F>(intervals: &[PowerInterval], sink: SinkId, pred: F) -> usize
where
    F: Fn(StateIndex) -> bool,
{
    let mut episodes = 0;
    let mut in_episode = false;
    for iv in intervals {
        let matching = iv
            .states
            .get(sink.as_usize())
            .map(|s| pred(*s))
            .unwrap_or(false);
        if matching && !in_episode {
            episodes += 1;
        }
        in_episode = matching;
    }
    episodes
}

/// Durations of each episode the sink spent in a matching state.
pub fn episode_durations<F>(intervals: &[PowerInterval], sink: SinkId, pred: F) -> Vec<SimDuration>
where
    F: Fn(StateIndex) -> bool,
{
    let mut out = Vec::new();
    let mut current: Option<SimDuration> = None;
    for iv in intervals {
        let matching = iv
            .states
            .get(sink.as_usize())
            .map(|s| pred(*s))
            .unwrap_or(false);
        if matching {
            let d = iv.duration();
            current = Some(current.unwrap_or(SimDuration::ZERO) + d);
        } else if let Some(d) = current.take() {
            out.push(d);
        }
    }
    if let Some(d) = current {
        out.push(d);
    }
    out
}

/// Average power over the whole set of intervals, from metered pulses.
pub fn average_power(intervals: &[PowerInterval], energy_per_count: Energy) -> Power {
    let total_counts: u64 = intervals.iter().map(|i| i.counts as u64).sum();
    let total_time: SimDuration = intervals.iter().map(|i| i.duration()).sum();
    if total_time.is_zero() {
        Power::ZERO
    } else {
        (energy_per_count * total_counts as f64) / total_time
    }
}

/// A cumulative-energy-over-time series (the curves of Figure 13).
///
/// Returns `(time, cumulative energy)` points sampled at each interval
/// boundary.
pub fn cumulative_energy_series(
    intervals: &[PowerInterval],
    energy_per_count: Energy,
) -> Vec<(SimTime, Energy)> {
    let mut out = Vec::with_capacity(intervals.len() + 1);
    let mut cumulative = Energy::ZERO;
    if let Some(first) = intervals.first() {
        out.push((first.start, Energy::ZERO));
    }
    for iv in intervals {
        cumulative += energy_per_count * iv.counts as f64;
        out.push((iv.end, cumulative));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start_ms: u64, end_ms: u64, counts: u32, radio_on: bool) -> PowerInterval {
        PowerInterval {
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            counts,
            // sink 0 = cpu (always state 0 here), sink 1 = radio rx.
            states: [StateIndex(0), StateIndex(if radio_on { 1 } else { 0 })]
                .into_iter()
                .collect(),
        }
    }

    const RADIO: SinkId = SinkId(1);

    #[test]
    fn duty_cycle_counts_matching_time() {
        let ivs = vec![
            iv(0, 100, 1, false),
            iv(100, 110, 5, true),
            iv(110, 200, 1, false),
            iv(200, 212, 6, true),
            iv(212, 400, 2, false),
        ];
        let dc = state_duty_cycle(&ivs, RADIO, |s| s == StateIndex(1));
        assert!((dc - 22.0 / 400.0).abs() < 1e-12, "duty cycle {dc}");
        assert_eq!(state_episodes(&ivs, RADIO, |s| s == StateIndex(1)), 2);
        let eps = episode_durations(&ivs, RADIO, |s| s == StateIndex(1));
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].as_micros(), 10_000);
        assert_eq!(eps[1].as_micros(), 12_000);
    }

    #[test]
    fn consecutive_on_intervals_form_one_episode() {
        let ivs = vec![
            iv(0, 10, 1, true),
            iv(10, 20, 1, true),
            iv(20, 30, 0, false),
        ];
        assert_eq!(state_episodes(&ivs, RADIO, |s| s == StateIndex(1)), 1);
        let eps = episode_durations(&ivs, RADIO, |s| s == StateIndex(1));
        assert_eq!(eps, vec![SimDuration::from_millis(20)]);
    }

    #[test]
    fn trailing_episode_is_closed() {
        let ivs = vec![iv(0, 10, 1, false), iv(10, 30, 4, true)];
        let eps = episode_durations(&ivs, RADIO, |s| s == StateIndex(1));
        assert_eq!(eps, vec![SimDuration::from_millis(20)]);
    }

    #[test]
    fn average_power_from_counts() {
        // 100 pulses of 8.33 uJ over 2 s = 416.5 uW.
        let ivs = vec![iv(0, 1000, 40, false), iv(1000, 2000, 60, true)];
        let p = average_power(&ivs, Energy::from_micro_joules(8.33)).as_micro_watts();
        assert!((p - 416.5).abs() < 1e-9, "power {p}");
        assert_eq!(
            average_power(&[], Energy::from_micro_joules(1.0)),
            Power::ZERO
        );
    }

    #[test]
    fn cumulative_series_is_monotone() {
        let ivs = vec![
            iv(0, 1000, 10, false),
            iv(1000, 2000, 30, true),
            iv(2000, 3000, 5, false),
        ];
        let series = cumulative_energy_series(&ivs, Energy::from_micro_joules(1.0));
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].1, Energy::ZERO);
        assert!((series[3].1.as_micro_joules() - 45.0).abs() < 1e-9);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 >= w[0].0);
        }
    }

    #[test]
    fn empty_inputs_are_safe() {
        assert_eq!(state_duty_cycle(&[], RADIO, |_| true), 0.0);
        assert_eq!(state_episodes(&[], RADIO, |_| true), 0);
        assert!(cumulative_energy_series(&[], Energy::from_micro_joules(1.0)).is_empty());
    }
}
