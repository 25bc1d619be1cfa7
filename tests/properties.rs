//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;
use quanto::analysis::{self, PowerInterval, RegressionOptions};
use quanto::hw_model::catalog::{blink_catalog, led_state};
use quanto::hw_model::{Energy, PowerModel, SimDuration, SimTime, SinkId, StateVector, Voltage};
use quanto::quanto_core::{
    ActivityId, ActivityLabel, DeviceId, EntryKind, LogEntry, NodeId, OverflowPolicy, RamLogger,
};
use std::sync::Arc;

proptest! {
    /// Activity labels survive the wire encoding for every representable
    /// (origin, id) pair — including origins beyond the one-byte v1 range.
    #[test]
    fn activity_labels_round_trip(origin in 0u32..=NodeId::MAX_LABEL_ORIGIN, id in 0u8..=255) {
        let label = ActivityLabel::new(NodeId(origin), ActivityId(id));
        prop_assert_eq!(ActivityLabel::decode(label.encode()), label);
    }

    /// Log entries survive the 12-byte v1 wire encoding for arbitrary
    /// v1-representable fields, and the 18-byte v2 encoding for arbitrary
    /// wide fields.
    #[test]
    fn log_entries_round_trip(
        kind in 0u8..5,
        res in 0u8..=255,
        time in any::<u32>(),
        wide_time in any::<u64>(),
        ic in any::<u32>(),
        value in any::<u16>(),
        wide_value in any::<u32>(),
    ) {
        let entry = LogEntry {
            kind: EntryKind::from_u8(kind).unwrap(),
            res_id: res,
            time_us: time as u64,
            icount: ic,
            value: value as u32,
        };
        prop_assert!(entry.fits_v1());
        prop_assert_eq!(LogEntry::decode(&entry.encode()), Some(entry));
        let wide = LogEntry { time_us: wide_time, value: wide_value, ..entry };
        prop_assert_eq!(LogEntry::decode_v2(&wide.encode_v2()), Some(wide));
    }

    /// The RAM logger never exceeds its capacity and never loses entries
    /// under the Flush policy.
    #[test]
    fn logger_respects_capacity(capacity in 1usize..64, n in 0usize..256) {
        for policy in [OverflowPolicy::Stop, OverflowPolicy::Wrap, OverflowPolicy::Flush] {
            let mut logger = RamLogger::new(capacity, policy);
            for i in 0..n {
                logger.record(LogEntry::power_state(
                    SimTime::from_micros(i as u64),
                    i as u32,
                    SinkId(0),
                    (i % 3) as u16,
                ));
            }
            prop_assert!(logger.buffered().len() <= capacity);
            prop_assert_eq!(logger.offered(), n as u64);
            match policy {
                OverflowPolicy::Flush => prop_assert_eq!(logger.len(), n),
                OverflowPolicy::Stop | OverflowPolicy::Wrap => {
                    prop_assert_eq!(logger.len(), n.min(capacity));
                }
            }
        }
    }

    /// Ground-truth energy accounting is additive: the per-sink energies sum
    /// to the total, for arbitrary sequences of LED switches.
    #[test]
    fn energy_accumulator_is_additive(switches in prop::collection::vec((0usize..3, any::<bool>(), 1u64..500), 1..40)) {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = Arc::new(PowerModel::ideal(cat));
        let mut acc = quanto::hw_model::EnergyAccumulator::new(model);
        let mut t = 0u64;
        for (led, on, dt) in switches {
            t += dt;
            let state = if on { led_state::ON } else { led_state::OFF };
            acc.set_state(SimTime::from_millis(t), leds[led], state);
        }
        acc.advance(SimTime::from_millis(t + 100));
        let bd = acc.breakdown();
        let sum: f64 = bd.per_sink.values().map(|e| e.as_micro_joules()).sum();
        prop_assert!((sum - bd.total.as_micro_joules()).abs() < 1e-6);
    }

    /// The regression recovers per-LED power draws (within quantization
    /// error) for randomized schedules that exercise all LED combinations.
    #[test]
    fn regression_recovers_powers_for_random_schedules(seed_durs in prop::collection::vec(200u64..2_000, 8)) {
        let (cat, _cpu, leds) = blink_catalog();
        let cat = Arc::new(cat);
        let model = PowerModel::ideal(cat.clone());
        let mut intervals = Vec::new();
        let mut t = SimTime::ZERO;
        let mut cumulative = 0.0f64;
        let mut prev = 0u64;
        for (mask, ms) in seed_durs.iter().enumerate() {
            let mut sv = StateVector::baseline(&cat);
            for (i, led) in leds.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    sv.set_state(*led, led_state::ON);
                }
            }
            let dur = SimDuration::from_millis(*ms);
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
        let reg = analysis::regress_intervals(
            &intervals,
            &cat,
            Energy::from_micro_joules(1.0),
            RegressionOptions::default(),
        );
        prop_assume!(reg.is_ok());
        let reg = reg.unwrap();
        let supply = Voltage::from_volts(3.0);
        let i0 = reg
            .state_current(&cat, leds[0], led_state::ON, supply)
            .unwrap()
            .as_milli_amps();
        // Blink-catalog LED0 nominal is 2.5 mA; quantization on short
        // intervals can cost a few percent.
        prop_assert!((i0 - 2.5).abs() < 0.25, "estimated {} mA", i0);
    }

    /// The streaming interval builder fed arbitrary chunk sizes (including
    /// 1-entry chunks, with wall-clock steps large enough that chunk
    /// boundaries straddle 32-bit time wraps many times per case) produces
    /// exactly the batch `power_intervals` output — and the incremental
    /// observation pool regresses to exactly the batch `regress_intervals`
    /// result, bit for bit.
    #[test]
    fn streamed_intervals_match_batch_for_random_chunkings(
        steps in prop::collection::vec(
            (1u64..2_000_000_000, 0usize..4, 1u32..50_000, any::<bool>()),
            1..60,
        ),
        chunk in 1usize..17,
    ) {
        let (cat, _cpu, leds) = blink_catalog();
        // Build a log whose 32-bit clock wraps roughly every four entries.
        let mut t: u64 = 0;
        let mut ic: u32 = 0;
        let mut entries = Vec::new();
        for (dt, which, dic, on) in &steps {
            t += dt;
            ic = ic.wrapping_add(*dic);
            if *which < 3 {
                entries.push(LogEntry::power_state(
                    SimTime::from_micros(t),
                    ic,
                    leds[*which],
                    if *on { led_state::ON.as_u8() as u16 } else { led_state::OFF.as_u8() as u16 },
                ));
            } else {
                // Activity entries matter only for wrap detection here; the
                // interval builder must still consume their timestamps.
                entries.push(LogEntry::activity(
                    EntryKind::ActivityChange,
                    SimTime::from_micros(t),
                    ic,
                    DeviceId(0),
                    ActivityLabel::new(NodeId(1), ActivityId(1)),
                ));
            }
        }
        let stamp = Some(quanto::quanto_core::Stamp::new(
            SimTime::from_micros(t + 500),
            ic.wrapping_add(3),
        ));
        let batch = analysis::power_intervals(&entries, &cat, stamp);

        let mut builder = analysis::IntervalBuilder::new(&cat);
        let mut streamed = Vec::new();
        let mut pool = analysis::ObservationPool::new();
        for c in entries.chunks(chunk) {
            for iv in c.iter().filter_map(|e| builder.push(e)) {
                pool.add(&iv);
                streamed.push(iv);
            }
        }
        if let Some(iv) = builder.finish(stamp) {
            pool.add(&iv);
            streamed.push(iv);
        }
        prop_assert!(streamed == batch, "streamed != batch at chunk size {}", chunk);

        let epc = Energy::from_micro_joules(1.0);
        let batch_reg = analysis::regress_intervals(&batch, &cat, epc, RegressionOptions::default());
        let stream_reg = analysis::regress(&pool.observations(epc), &cat, RegressionOptions::default());
        match (batch_reg, stream_reg) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.columns, &b.columns);
                prop_assert_eq!(a.relative_error.to_bits(), b.relative_error.to_bits());
                for (pa, pb) in a.power_uw.iter().zip(b.power_uw.iter()) {
                    prop_assert_eq!(pa.to_bits(), pb.to_bits());
                }
                prop_assert_eq!(a.constant_uw.to_bits(), b.constant_uw.to_bits());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "regressions diverged: {:?} vs {:?}", a, b),
        }
    }

    /// The streaming segment builder matches batch `activity_segments` for
    /// random schedules with binds, at random chunk sizes, in both binding
    /// modes.
    #[test]
    fn streamed_segments_match_batch_for_random_chunkings(
        changes in prop::collection::vec((1u64..1_500_000_000, 0u8..4, any::<bool>()), 1..50),
        chunk in 1usize..9,
        resolve in any::<bool>(),
    ) {
        let dev = DeviceId(0);
        let mut t = 0u64;
        let mut entries = Vec::new();
        for (dt, act, bind) in &changes {
            t += dt;
            entries.push(LogEntry::activity(
                if *bind { EntryKind::ActivityBind } else { EntryKind::ActivityChange },
                SimTime::from_micros(t),
                0,
                dev,
                ActivityLabel::new(NodeId(1), ActivityId(*act)),
            ));
        }
        let stamp = Some(quanto::quanto_core::Stamp::new(SimTime::from_micros(t + 100), 0));
        let batch = analysis::activity_segments(&entries, dev, resolve, stamp);
        let mut builder = analysis::SegmentBuilder::new(dev, resolve);
        let mut streamed = Vec::new();
        for c in entries.chunks(chunk) {
            builder.push_chunk(c);
            streamed.extend(builder.drain_completed());
        }
        streamed.extend(builder.finish(stamp));
        prop_assert!(streamed == batch, "streamed != batch (resolve {}, chunk {})", resolve, chunk);
    }

    /// Activity-segment extraction conserves time: segments of a device
    /// partition [0, end) with no overlaps and no gaps.
    #[test]
    fn activity_segments_partition_time(changes in prop::collection::vec((1u64..10_000, 0u8..5), 1..50)) {
        let dev = DeviceId(0);
        let mut entries = Vec::new();
        let mut t = 0u64;
        for (dt, act) in &changes {
            t += dt;
            entries.push(LogEntry::activity(
                EntryKind::ActivityChange,
                SimTime::from_micros(t),
                0,
                dev,
                ActivityLabel::new(NodeId(1), ActivityId(*act)),
            ));
        }
        let end = t + 1_000;
        let final_stamp = quanto::quanto_core::Stamp::new(SimTime::from_micros(end), 0);
        let segs = analysis::activity_segments(&entries, dev, false, Some(final_stamp));
        // Total coverage equals the window.
        let covered: u64 = segs.iter().map(|s| s.duration().as_micros()).sum();
        prop_assert_eq!(covered, end);
        // Segments are contiguous and ordered.
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }
}
