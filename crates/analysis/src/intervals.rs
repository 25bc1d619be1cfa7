//! Turning a raw Quanto log back into timelines.
//!
//! The log is a flat sequence of 12-byte entries.  The analysis needs two
//! views of it:
//!
//! * **Power intervals** — maximal spans during which the platform's set of
//!   active power states is constant, with the time and energy (iCount
//!   pulses) spent in each.  One interval is one equation of the regression.
//! * **Activity segments** — per tracked device, spans during which the
//!   device was working for one activity, with proxy-activity bindings
//!   optionally resolved onto the real activity they were bound to.
//!
//! Timestamps in the log are 32-bit microsecond counters that wrap (about
//! every 71.6 minutes); [`unwrap_times`] reconstructs monotonic 64-bit time.

use hw_model::{Catalog, SimDuration, SimTime, StateVectorKey};
use quanto_core::{ActivityLabel, DeviceId, EntryKind, LogEntry, Stamp};
use std::collections::BTreeMap;

/// A log entry together with its unwrapped 64-bit timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnwrappedEntry {
    /// Monotonic time reconstructed from the wrapping 32-bit log timestamp.
    pub time: SimTime,
    /// The original entry.
    pub entry: LogEntry,
}

/// Reconstructs monotonic timestamps from the wrapping 32-bit log times.
///
/// Entries must be in the order they were logged (which the logger
/// guarantees); each backwards jump in the 32-bit value is interpreted as one
/// wrap of the counter.  This is the batch wrapper over the incremental
/// [`crate::streaming::TimeUnwrapper`].
pub fn unwrap_times(entries: &[LogEntry]) -> Vec<UnwrappedEntry> {
    let mut unwrapper = crate::streaming::TimeUnwrapper::new();
    entries.iter().map(|e| unwrapper.unwrap_entry(e)).collect()
}

/// A span during which the set of active power states was constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerInterval {
    /// Interval start.
    pub start: SimTime,
    /// Interval end (exclusive).
    pub end: SimTime,
    /// iCount pulses accumulated during the interval.
    pub counts: u32,
    /// The per-sink state indices in effect during the interval.
    pub states: StateVectorKey,
}

impl PowerInterval {
    /// Interval length.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

/// Extracts power intervals from a log.
///
/// The platform is assumed to boot with every sink in its catalog default
/// state and with the iCount counter at zero.  If `final_stamp` is given it
/// closes the last interval (the simulator records one at the end of a run);
/// otherwise the span after the final power-state entry is dropped.
///
/// This is the batch wrapper over the incremental
/// [`crate::streaming::IntervalBuilder`], which takes the log entry by entry
/// and returns each interval as it closes; use the builder when the log is
/// too large (or too long-lived) to hold as one slice.
pub fn power_intervals(
    entries: &[LogEntry],
    catalog: &Catalog,
    final_stamp: Option<Stamp>,
) -> Vec<PowerInterval> {
    let mut builder = crate::streaming::IntervalBuilder::new(catalog);
    let mut intervals: Vec<PowerInterval> =
        entries.iter().filter_map(|e| builder.push(e)).collect();
    intervals.extend(builder.finish(final_stamp));
    intervals
}

/// A span during which one device worked on behalf of one activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivitySegment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The activity charged for this span.
    pub label: ActivityLabel,
    /// iCount pulses accumulated during the span.
    pub counts: u32,
}

impl ActivitySegment {
    /// Segment length.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// The portion of this segment overlapping `[start, end)`, as a duration.
    pub fn overlap(&self, start: SimTime, end: SimTime) -> SimDuration {
        let s = self.start.max(start);
        let e = self.end.min(end);
        e.saturating_duration_since(s)
    }
}

/// Extracts the activity timeline of one single-activity device.
///
/// When `resolve_bindings` is true, an `ActivityBind` entry re-labels the
/// immediately preceding run of segments that carried the bound-away (proxy)
/// activity, charging their usage to the real activity — the accounting the
/// paper prescribes for proxy activities.  When false, proxy activities are
/// left visible, which is what the timeline figures plot.
pub fn activity_segments(
    entries: &[LogEntry],
    device: DeviceId,
    resolve_bindings: bool,
    final_stamp: Option<Stamp>,
) -> Vec<ActivitySegment> {
    let mut builder = crate::streaming::SegmentBuilder::new(device, resolve_bindings);
    builder.push_chunk(entries);
    builder.finish(final_stamp)
}

/// A span during which a multi-activity device served a fixed set of
/// activities.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSegment {
    /// Segment start.
    pub start: SimTime,
    /// Segment end (exclusive).
    pub end: SimTime,
    /// The set of concurrent activities (may be empty).
    pub labels: Vec<ActivityLabel>,
}

impl MultiSegment {
    /// Segment length.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// The portion of this segment overlapping `[start, end)`.
    pub fn overlap(&self, start: SimTime, end: SimTime) -> SimDuration {
        let s = self.start.max(start);
        let e = self.end.min(end);
        e.saturating_duration_since(s)
    }
}

/// Extracts the activity-set timeline of one multi-activity device.
pub fn multi_segments(
    entries: &[LogEntry],
    device: DeviceId,
    final_stamp: Option<Stamp>,
) -> Vec<MultiSegment> {
    let mut builder = crate::streaming::MultiSegmentBuilder::new(device);
    builder.push_chunk(entries);
    builder.finish(final_stamp)
}

/// Returns, for each device id present in the log, whether it ever appears in
/// multi-activity entries.  Used to pick the right attribution strategy
/// without needing the original `DeviceTable`.
pub fn device_kinds(entries: &[LogEntry]) -> BTreeMap<DeviceId, bool> {
    let mut out = BTreeMap::new();
    for e in entries {
        if let Some(dev) = e.device() {
            let is_multi = matches!(e.kind, EntryKind::MultiAdd | EntryKind::MultiRemove);
            let slot = out.entry(dev).or_insert(false);
            *slot = *slot || is_multi;
        }
    }
    out
}

/// Sums the total time covered by a set of power intervals.
pub fn total_time(intervals: &[PowerInterval]) -> SimDuration {
    intervals.iter().map(|i| i.duration()).sum()
}

/// Sums the total iCount pulses over a set of power intervals.
pub fn total_counts(intervals: &[PowerInterval]) -> u64 {
    intervals.iter().map(|i| i.counts as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hw_model::catalog::{blink_catalog, led_state};
    use hw_model::SinkId;
    use quanto_core::{ActivityId, NodeId};

    fn ps(t_us: u64, ic: u32, sink: SinkId, v: u16) -> LogEntry {
        LogEntry::power_state(SimTime::from_micros(t_us), ic, sink, v)
    }

    fn act(t_us: u64, ic: u32, dev: DeviceId, label: ActivityLabel, bind: bool) -> LogEntry {
        LogEntry::activity(
            if bind {
                EntryKind::ActivityBind
            } else {
                EntryKind::ActivityChange
            },
            SimTime::from_micros(t_us),
            ic,
            dev,
            label,
        )
    }

    fn lbl(id: u8) -> ActivityLabel {
        ActivityLabel::new(NodeId(1), ActivityId(id))
    }

    #[test]
    fn unwrap_handles_counter_wrap() {
        let entries = vec![
            ps(u32::MAX as u64 - 10, 0, SinkId(0), 1),
            ps(5, 1, SinkId(0), 0), // wrapped
            ps(10, 2, SinkId(0), 1),
        ];
        let u = unwrap_times(&entries);
        assert_eq!(u[0].time.as_micros(), u32::MAX as u64 - 10);
        assert_eq!(u[1].time.as_micros(), (1u64 << 32) + 5);
        assert_eq!(u[2].time.as_micros(), (1u64 << 32) + 10);
        assert!(u[1].time > u[0].time);
    }

    #[test]
    fn power_intervals_follow_state_changes() {
        let (cat, _cpu, leds) = blink_catalog();
        let on = led_state::ON.as_u8() as u16;
        let off = led_state::OFF.as_u8() as u16;
        let entries = vec![
            ps(1_000, 2, leds[0], on),
            ps(3_000, 10, leds[0], off),
            ps(6_000, 12, leds[1], on),
        ];
        let final_stamp = Some(Stamp::new(SimTime::from_micros(10_000), 20));
        let ivs = power_intervals(&entries, &cat, final_stamp);
        assert_eq!(ivs.len(), 4);
        // Boot interval: everything baseline, 2 pulses.
        assert_eq!(ivs[0].start, SimTime::ZERO);
        assert_eq!(ivs[0].end, SimTime::from_micros(1_000));
        assert_eq!(ivs[0].counts, 2);
        // LED0 on between 1 ms and 3 ms, 8 pulses.
        assert_eq!(ivs[1].counts, 8);
        assert_eq!(ivs[1].states[leds[0].as_usize()], led_state::ON);
        // LED0 off again.
        assert_eq!(ivs[2].states[leds[0].as_usize()], led_state::OFF);
        // Final interval closed by the final stamp, with LED1 on.
        assert_eq!(ivs[3].end, SimTime::from_micros(10_000));
        assert_eq!(ivs[3].states[leds[1].as_usize()], led_state::ON);
        assert_eq!(total_time(&ivs).as_micros(), 10_000);
        assert_eq!(total_counts(&ivs), 20);
    }

    #[test]
    fn power_intervals_without_final_stamp_drop_tail() {
        let (cat, _cpu, leds) = blink_catalog();
        let entries = vec![ps(1_000, 1, leds[0], 1), ps(2_000, 2, leds[0], 0)];
        let ivs = power_intervals(&entries, &cat, None);
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs.last().unwrap().end, SimTime::from_micros(2_000));
    }

    #[test]
    fn activity_segments_split_on_changes() {
        let dev = DeviceId(0);
        let entries = vec![
            act(100, 1, dev, lbl(1), false),
            act(300, 5, dev, lbl(2), false),
            act(600, 9, dev, ActivityLabel::IDLE, false),
        ];
        let segs = activity_segments(
            &entries,
            dev,
            false,
            Some(Stamp::new(SimTime::from_micros(1_000), 12)),
        );
        assert_eq!(segs.len(), 4);
        assert_eq!(segs[0].label, ActivityLabel::IDLE);
        assert_eq!(segs[0].duration().as_micros(), 100);
        assert_eq!(segs[1].label, lbl(1));
        assert_eq!(segs[1].duration().as_micros(), 200);
        assert_eq!(segs[1].counts, 4);
        assert_eq!(segs[2].label, lbl(2));
        assert_eq!(segs[3].label, ActivityLabel::IDLE);
        assert_eq!(segs[3].end, SimTime::from_micros(1_000));
    }

    #[test]
    fn bind_resolution_relabels_proxy_usage() {
        let dev = DeviceId(0);
        let proxy = lbl(200);
        let real = ActivityLabel::new(NodeId(4), ActivityId(1));
        let entries = vec![
            // Interrupt: proxy activity runs from 100 to 400.
            act(100, 0, dev, proxy, false),
            // The packet is decoded and the proxy is bound to the real
            // activity.
            act(400, 3, dev, real, true),
            act(900, 8, dev, ActivityLabel::IDLE, false),
        ];
        let resolved = activity_segments(
            &entries,
            dev,
            true,
            Some(Stamp::new(SimTime::from_micros(1_000), 9)),
        );
        // The proxy segment [100, 400) is charged to the real activity.
        assert_eq!(resolved[1].label, real);
        assert_eq!(resolved[1].start, SimTime::from_micros(100));
        assert_eq!(resolved[1].end, SimTime::from_micros(400));
        // Without resolution the proxy stays visible.
        let raw = activity_segments(&entries, dev, false, None);
        assert_eq!(raw[1].label, proxy);
    }

    #[test]
    fn segments_filter_by_device() {
        let entries = vec![
            act(100, 0, DeviceId(0), lbl(1), false),
            act(200, 0, DeviceId(1), lbl(2), false),
        ];
        let segs = activity_segments(
            &entries,
            DeviceId(1),
            false,
            Some(Stamp::new(SimTime::from_micros(300), 0)),
        );
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].label, lbl(2));
    }

    #[test]
    fn multi_segments_track_sets() {
        let dev = DeviceId(3);
        let mk = |t, kind, label: ActivityLabel| {
            LogEntry::activity(kind, SimTime::from_micros(t), 0, dev, label)
        };
        let entries = vec![
            mk(100, EntryKind::MultiAdd, lbl(1)),
            mk(200, EntryKind::MultiAdd, lbl(2)),
            mk(400, EntryKind::MultiRemove, lbl(1)),
        ];
        let segs = multi_segments(
            &entries,
            dev,
            Some(Stamp::new(SimTime::from_micros(500), 0)),
        );
        assert_eq!(segs.len(), 4);
        assert!(segs[0].labels.is_empty());
        assert_eq!(segs[1].labels, vec![lbl(1)]);
        assert_eq!(segs[2].labels, vec![lbl(1), lbl(2)]);
        assert_eq!(segs[3].labels, vec![lbl(2)]);
        assert_eq!(segs[2].duration().as_micros(), 200);
    }

    #[test]
    fn device_kinds_detects_multi_devices() {
        let entries = vec![
            act(1, 0, DeviceId(0), lbl(1), false),
            LogEntry::activity(
                EntryKind::MultiAdd,
                SimTime::from_micros(2),
                0,
                DeviceId(1),
                lbl(2),
            ),
        ];
        let kinds = device_kinds(&entries);
        assert_eq!(kinds.get(&DeviceId(0)), Some(&false));
        assert_eq!(kinds.get(&DeviceId(1)), Some(&true));
    }

    #[test]
    fn overlap_math() {
        let seg = ActivitySegment {
            start: SimTime::from_micros(100),
            end: SimTime::from_micros(200),
            label: lbl(1),
            counts: 0,
        };
        assert_eq!(
            seg.overlap(SimTime::from_micros(150), SimTime::from_micros(300))
                .as_micros(),
            50
        );
        assert_eq!(
            seg.overlap(SimTime::from_micros(0), SimTime::from_micros(1_000))
                .as_micros(),
            100
        );
        assert_eq!(
            seg.overlap(SimTime::from_micros(300), SimTime::from_micros(400))
                .as_micros(),
            0
        );
    }
}
