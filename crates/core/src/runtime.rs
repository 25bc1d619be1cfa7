//! The per-node Quanto runtime.
//!
//! [`QuantoRuntime`] is the component the instrumented OS talks to.  It owns
//! the power-state table, the activity state of every tracked device, the RAM
//! logger and the cost accounting, and it implements the paper's interfaces:
//!
//! * `PowerState.set` / `setBits`  → [`QuantoRuntime::set_power_state`] and
//!   [`QuantoRuntime::set_power_state_bits`],
//! * `SingleActivityDevice.get/set/bind` → [`QuantoRuntime::activity_get`],
//!   [`QuantoRuntime::activity_set`], [`QuantoRuntime::activity_bind`],
//! * `MultiActivityDevice.add/remove` → [`QuantoRuntime::multi_add`],
//!   [`QuantoRuntime::multi_remove`],
//! * `PowerStateTrack` / `SingleActivityTrack` / `MultiActivityTrack` →
//!   [`TrackListener`].
//!
//! The runtime is deliberately passive about *time* and *energy*: every
//! mutating call takes a [`Stamp`] — the pair (local time, iCount reading)
//! that the caller captured at the moment of the event.  On the real platform
//! capturing that pair is the synchronous, 102-cycle part of logging; in the
//! simulation the OS layer reads the simulated clock and meter and passes the
//! stamp down.  This keeps the runtime free of any dependency on the
//! simulator and makes it trivially testable.

use crate::activity::{ActivityLabel, ActivityRegistry, NodeId};
use crate::cost::{CostModel, CostStats};
use crate::device::{DeviceId, DeviceTable, MultiActivityError};
use crate::log::{EntryKind, LogEntry};
use crate::logger::{OverflowPolicy, RamLogger};
use crate::power_state::{PowerStateTable, PowerStateValue};
use hw_model::{Catalog, SimDuration, SimTime, SinkId};
use std::collections::HashMap;
use std::fmt;

/// The (local time, iCount reading) pair captured at the moment of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stamp {
    /// Local node time.
    pub time: SimTime,
    /// Cumulative iCount counter value.
    pub icount: u32,
}

impl Stamp {
    /// Creates a stamp.
    pub fn new(time: SimTime, icount: u32) -> Self {
        Stamp { time, icount }
    }
}

/// How the runtime accounts for resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountingMode {
    /// Log every change to the RAM buffer for offline analysis (the paper's
    /// prototype).
    Log,
    /// Keep online per-activity accumulators instead of a log (the
    /// "logging vs. counting" alternative discussed in Section 5.1).
    Counters,
    /// Do both; useful for validating that the two agree.
    Both,
}

/// Configuration of a [`QuantoRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// RAM log capacity in entries.
    pub log_capacity: usize,
    /// What to do when the RAM log fills up.
    pub overflow_policy: OverflowPolicy,
    /// Per-sample cost parameters.
    pub cost_model: CostModel,
    /// Accounting mode.
    pub mode: AccountingMode,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            log_capacity: RamLogger::DEFAULT_CAPACITY,
            overflow_policy: OverflowPolicy::Flush,
            cost_model: CostModel::paper(),
            mode: AccountingMode::Log,
        }
    }
}

/// Observer of tracking events, combining the paper's `PowerStateTrack`,
/// `SingleActivityTrack` and `MultiActivityTrack` interfaces.
pub trait TrackListener {
    /// A sink's power state actually changed.
    fn power_state_changed(&mut self, _sink: SinkId, _value: PowerStateValue) {}
    /// A single-activity device changed activity.
    fn activity_changed(&mut self, _dev: DeviceId, _new: ActivityLabel) {}
    /// A single-activity device bound its previous activity to a new one.
    fn activity_bound(&mut self, _dev: DeviceId, _new: ActivityLabel) {}
    /// A multi-activity device gained an activity.
    fn activity_added(&mut self, _dev: DeviceId, _activity: ActivityLabel) {}
    /// A multi-activity device lost an activity.
    fn activity_removed(&mut self, _dev: DeviceId, _activity: ActivityLabel) {}
}

/// Online per-activity accumulators (the `Counters` accounting mode).
#[derive(Debug, Clone, Default)]
pub struct OnlineCounters {
    /// Accumulated busy time per (device, activity).
    time_per: HashMap<(DeviceId, ActivityLabel), SimDuration>,
    /// Accumulated iCount pulses charged per activity (attributed to the
    /// activity the designated CPU device was running).
    counts_per: HashMap<ActivityLabel, u64>,
}

impl OnlineCounters {
    /// Accumulated time a device spent on an activity.
    pub fn time(&self, dev: DeviceId, label: ActivityLabel) -> SimDuration {
        self.time_per
            .get(&(dev, label))
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Accumulated iCount pulses charged to an activity.
    pub fn counts(&self, label: ActivityLabel) -> u64 {
        self.counts_per.get(&label).copied().unwrap_or(0)
    }

    /// Iterates over all (device, activity, time) triples.
    pub fn times(&self) -> impl Iterator<Item = (DeviceId, ActivityLabel, SimDuration)> + '_ {
        self.time_per.iter().map(|((d, a), t)| (*d, *a, *t))
    }

    /// Iterates over all (activity, pulses) pairs.
    pub fn all_counts(&self) -> impl Iterator<Item = (ActivityLabel, u64)> + '_ {
        self.counts_per.iter().map(|(a, c)| (*a, *c))
    }

    /// Approximate RAM footprint of the accumulators, in bytes.  This is the
    /// number the "logging vs. counting" ablation compares against the RAM
    /// log.
    pub fn ram_bytes(&self) -> usize {
        // Key + value sizes for the two maps, ignoring hash-table overhead,
        // which is the honest embedded comparison (a static array would be
        // used on the mote).
        self.time_per.len() * (2 + 2 + 8) + self.counts_per.len() * (2 + 8)
    }
}

/// The per-node Quanto runtime.
pub struct QuantoRuntime {
    node: NodeId,
    registry: ActivityRegistry,
    power_states: PowerStateTable,
    devices: DeviceTable,
    logger: RamLogger,
    cost_model: CostModel,
    cost_stats: CostStats,
    mode: AccountingMode,
    counters: OnlineCounters,
    /// Last stamp at which each single-activity device changed activity;
    /// only the modes that keep counters read it, so only they write it.
    last_change: HashMap<DeviceId, Stamp>,
    /// The device whose activity aggregate energy is charged to in Counters
    /// mode (normally the CPU).
    cpu_device: Option<DeviceId>,
    /// CPU cycles of Quanto overhead not yet charged to the simulated CPU.
    pending_overhead_cycles: u64,
    listeners: Vec<Box<dyn TrackListener>>,
}

impl fmt::Debug for QuantoRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantoRuntime")
            .field("node", &self.node)
            .field("devices", &self.devices.len())
            .field("log_entries", &self.logger.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl QuantoRuntime {
    /// Creates a runtime for `node` over the given hardware catalog.
    pub fn new(node: NodeId, catalog: &Catalog, config: RuntimeConfig) -> Self {
        QuantoRuntime {
            node,
            registry: ActivityRegistry::new(node),
            power_states: PowerStateTable::new(catalog),
            devices: DeviceTable::new(),
            logger: RamLogger::new(config.log_capacity, config.overflow_policy),
            cost_model: config.cost_model,
            cost_stats: CostStats::default(),
            mode: config.mode,
            counters: OnlineCounters::default(),
            last_change: HashMap::new(),
            cpu_device: None,
            pending_overhead_cycles: 0,
            listeners: Vec::new(),
        }
    }

    /// The node this runtime instruments.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The activity registry (names and kinds).
    pub fn registry(&self) -> &ActivityRegistry {
        &self.registry
    }

    /// Mutable access to the activity registry, for defining activities.
    pub fn registry_mut(&mut self) -> &mut ActivityRegistry {
        &mut self.registry
    }

    /// The accounting mode.
    pub fn mode(&self) -> AccountingMode {
        self.mode
    }

    /// Registers an observer of tracking events.
    pub fn add_listener(&mut self, listener: Box<dyn TrackListener>) {
        self.listeners.push(listener);
    }

    // ------------------------------------------------------------------
    // Device registration.
    // ------------------------------------------------------------------

    /// Registers a single-activity device (CPU, radio, flash, sensor, LED).
    pub fn register_single_device(&mut self, name: impl Into<String>) -> DeviceId {
        self.devices.register_single(name)
    }

    /// Registers a multi-activity device (hardware timer, listening radio).
    pub fn register_multi_device(&mut self, name: impl Into<String>) -> DeviceId {
        self.devices.register_multi(name)
    }

    /// Declares which device is the CPU; aggregate energy is charged to the
    /// CPU's current activity in `Counters` mode.
    pub fn set_cpu_device(&mut self, dev: DeviceId) {
        self.cpu_device = Some(dev);
    }

    /// The device table (names, kinds, current activities).
    pub fn devices(&self) -> &DeviceTable {
        &self.devices
    }

    // ------------------------------------------------------------------
    // Power-state tracking.
    // ------------------------------------------------------------------

    /// The last-known power state of a sink.
    pub fn power_state(&self, sink: SinkId) -> PowerStateValue {
        self.power_states.get(sink)
    }

    /// `PowerState.set`: a driver signals that a sink is now in `value`.
    ///
    /// Returns `true` if the state actually changed (and was therefore
    /// logged); redundant calls are idempotent.
    pub fn set_power_state(&mut self, stamp: Stamp, sink: SinkId, value: PowerStateValue) -> bool {
        match self.power_states.set(sink, value) {
            None => false,
            Some(v) => {
                self.record(LogEntry::power_state(stamp.time, stamp.icount, sink, v));
                for l in &mut self.listeners {
                    l.power_state_changed(sink, v);
                }
                true
            }
        }
    }

    /// `PowerState.setBits`: update only part of a sink's state word.
    pub fn set_power_state_bits(
        &mut self,
        stamp: Stamp,
        sink: SinkId,
        mask: PowerStateValue,
        offset: u8,
        value: PowerStateValue,
    ) -> bool {
        match self.power_states.set_bits(sink, mask, offset, value) {
            None => false,
            Some(v) => {
                self.record(LogEntry::power_state(stamp.time, stamp.icount, sink, v));
                for l in &mut self.listeners {
                    l.power_state_changed(sink, v);
                }
                true
            }
        }
    }

    // ------------------------------------------------------------------
    // Activity tracking.
    // ------------------------------------------------------------------

    /// `SingleActivityDevice.get`: the activity a device is working for.
    pub fn activity_get(&self, dev: DeviceId) -> ActivityLabel {
        self.devices.single_get(dev)
    }

    /// `SingleActivityDevice.set`: paint a device with an activity.
    ///
    /// Returns `true` if the device's activity actually changed.
    pub fn activity_set(&mut self, stamp: Stamp, dev: DeviceId, label: ActivityLabel) -> bool {
        match self.devices.single_set(dev, label) {
            None => false,
            Some(prev) => {
                self.account_interval(stamp, dev, prev);
                self.record(LogEntry::activity(
                    EntryKind::ActivityChange,
                    stamp.time,
                    stamp.icount,
                    dev,
                    label,
                ));
                for l in &mut self.listeners {
                    l.activity_changed(dev, label);
                }
                true
            }
        }
    }

    /// `SingleActivityDevice.bind`: set the device's activity *and* indicate
    /// that the previous activity's resource usage (typically a proxy
    /// activity for an interrupt) should be charged to the new one.
    ///
    /// Returns `true` if the device's activity actually changed.
    pub fn activity_bind(&mut self, stamp: Stamp, dev: DeviceId, label: ActivityLabel) -> bool {
        match self.devices.single_set(dev, label) {
            None => false,
            Some(prev) => {
                self.account_interval(stamp, dev, prev);
                self.record(LogEntry::activity(
                    EntryKind::ActivityBind,
                    stamp.time,
                    stamp.icount,
                    dev,
                    label,
                ));
                for l in &mut self.listeners {
                    l.activity_bound(dev, label);
                }
                true
            }
        }
    }

    /// Transfers the activity of `from` onto `to` — the idiom of Figure 8
    /// (`RadioActivity.set(CPUActivity.get())`).
    pub fn activity_transfer(&mut self, stamp: Stamp, from: DeviceId, to: DeviceId) -> bool {
        let label = self.activity_get(from);
        self.activity_set(stamp, to, label)
    }

    /// `MultiActivityDevice.add`.
    pub fn multi_add(
        &mut self,
        stamp: Stamp,
        dev: DeviceId,
        label: ActivityLabel,
    ) -> Result<(), MultiActivityError> {
        self.devices.multi_add(dev, label)?;
        self.record(LogEntry::activity(
            EntryKind::MultiAdd,
            stamp.time,
            stamp.icount,
            dev,
            label,
        ));
        for l in &mut self.listeners {
            l.activity_added(dev, label);
        }
        Ok(())
    }

    /// `MultiActivityDevice.remove`.
    pub fn multi_remove(
        &mut self,
        stamp: Stamp,
        dev: DeviceId,
        label: ActivityLabel,
    ) -> Result<(), MultiActivityError> {
        self.devices.multi_remove(dev, label)?;
        self.record(LogEntry::activity(
            EntryKind::MultiRemove,
            stamp.time,
            stamp.icount,
            dev,
            label,
        ));
        for l in &mut self.listeners {
            l.activity_removed(dev, label);
        }
        Ok(())
    }

    /// The current activity set of a multi-activity device.
    pub fn multi_get(&self, dev: DeviceId) -> &[ActivityLabel] {
        self.devices.multi_get(dev)
    }

    // ------------------------------------------------------------------
    // Accounting, logging, costs.
    // ------------------------------------------------------------------

    fn account_interval(&mut self, stamp: Stamp, dev: DeviceId, prev_label: ActivityLabel) {
        if matches!(self.mode, AccountingMode::Counters | AccountingMode::Both) {
            if let Some(last) = self.last_change.get(&dev) {
                let elapsed = stamp.time.saturating_duration_since(last.time);
                *self
                    .counters
                    .time_per
                    .entry((dev, prev_label))
                    .or_insert(SimDuration::ZERO) += elapsed;
                if Some(dev) == self.cpu_device {
                    let delta = stamp.icount.wrapping_sub(last.icount) as u64;
                    *self.counters.counts_per.entry(prev_label).or_insert(0) += delta;
                }
            }
            self.last_change.insert(dev, stamp);
        }
    }

    fn record(&mut self, entry: LogEntry) {
        if matches!(self.mode, AccountingMode::Log | AccountingMode::Both) {
            self.logger.record(entry);
        }
        // The synchronous cost of capturing (time, icount) and storing the
        // entry is paid regardless of where the data ends up.
        self.cost_stats.charge_sample(&self.cost_model);
        self.pending_overhead_cycles += self.cost_model.cycles_per_sample() as u64;
    }

    /// The RAM logger.
    pub fn logger(&self) -> &RamLogger {
        &self.logger
    }

    /// Attaches a streaming consumer of drained log chunks: `Flush`-policy
    /// drains and end-of-run takes go through it instead of accumulating
    /// host-side (see [`crate::sink::LogSink`]).
    pub fn set_log_sink(&mut self, sink: Box<dyn crate::sink::LogSink>) {
        self.logger.set_sink(sink);
    }

    /// Streams every remaining held entry through the attached sink (if any)
    /// and clears the log.  Returns whether a sink was attached.
    pub fn drain_log_to_attached_sink(&mut self) -> bool {
        self.logger.drain_to_attached_sink()
    }

    /// Adopts a recycled entry buffer as the RAM log buffer (see
    /// [`RamLogger::adopt_buffer`]) — the workspace-pool seam that lets a
    /// freshly built node record into a previous run's allocation.
    pub fn adopt_log_buffer(&mut self, buf: Vec<LogEntry>) {
        self.logger.adopt_buffer(buf);
    }

    /// Surrenders the RAM log buffer's allocation to a pool (see
    /// [`RamLogger::recycle_buffer`]).
    pub fn recycle_log_buffer(&mut self) -> Vec<LogEntry> {
        self.logger.recycle_buffer()
    }

    /// The online accumulators (meaningful in `Counters`/`Both` mode).
    pub fn counters(&self) -> &OnlineCounters {
        &self.counters
    }

    /// The per-sample cost parameters in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Accumulated overhead statistics.
    pub fn cost_stats(&self) -> &CostStats {
        &self.cost_stats
    }

    /// Returns (and clears) the CPU cycles of Quanto overhead accrued since
    /// the last call.  The simulator charges these to the node's CPU so that
    /// Quanto's own cost shows up in the trace, like the paper's self-
    /// accounting continuous mode.
    pub fn take_pending_overhead_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.pending_overhead_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::ActivityId;
    use hw_model::catalog::{blink_catalog, led_state};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn runtime() -> (QuantoRuntime, SinkId, [SinkId; 3]) {
        let (cat, cpu_sink, leds) = blink_catalog();
        let rt = QuantoRuntime::new(NodeId(1), &cat, RuntimeConfig::default());
        (rt, cpu_sink, leds)
    }

    fn stamp(us: u64, ic: u32) -> Stamp {
        Stamp::new(SimTime::from_micros(us), ic)
    }

    /// Every held log entry in chronological order (the sink-era replacement
    /// for the removed `entries()` double-clone).
    fn held_log(rt: &QuantoRuntime) -> Vec<LogEntry> {
        rt.logger().chunks().flatten().copied().collect()
    }

    #[test]
    fn power_state_changes_are_logged_once() {
        let (mut rt, _cpu, leds) = runtime();
        assert!(rt.set_power_state(stamp(10, 1), leds[0], led_state::ON.as_u8() as u16));
        // Idempotent second call.
        assert!(!rt.set_power_state(stamp(20, 2), leds[0], led_state::ON.as_u8() as u16));
        assert!(rt.set_power_state(stamp(30, 3), leds[0], led_state::OFF.as_u8() as u16));
        let log = held_log(&rt);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].kind, EntryKind::PowerState);
        assert_eq!(log[0].sink(), Some(leds[0]));
        assert_eq!(log[0].time_us, 10);
        assert_eq!(log[0].icount, 1);
        assert_eq!(log[1].value, 0);
        assert_eq!(rt.power_state(leds[0]), 0);
    }

    #[test]
    fn activity_set_and_transfer_propagate_labels() {
        let (mut rt, _s, _l) = runtime();
        let cpu = rt.register_single_device("cpu");
        let radio = rt.register_single_device("radio");
        let act = rt.registry_mut().define_app("BounceApp");

        assert!(rt.activity_set(stamp(100, 10), cpu, act));
        assert!(!rt.activity_set(stamp(110, 11), cpu, act), "idempotent");
        // Figure 8: paint the radio with the CPU's current activity.
        assert!(rt.activity_transfer(stamp(120, 12), cpu, radio));
        assert_eq!(rt.activity_get(radio), act);

        let log = held_log(&rt);
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].device(), Some(cpu));
        assert_eq!(log[0].label(), Some(act));
        assert_eq!(log[1].device(), Some(radio));
    }

    #[test]
    fn bind_emits_bind_entries() {
        let (mut rt, _s, _l) = runtime();
        let cpu = rt.register_single_device("cpu");
        let proxy = rt.registry_mut().define_proxy("pxy_RX");
        let real = ActivityLabel::new(NodeId(4), ActivityId(1));

        rt.activity_set(stamp(10, 0), cpu, proxy);
        assert!(rt.activity_bind(stamp(50, 3), cpu, real));
        let log = held_log(&rt);
        assert_eq!(log[1].kind, EntryKind::ActivityBind);
        assert_eq!(log[1].label(), Some(real));
        assert_eq!(rt.activity_get(cpu), real);
    }

    #[test]
    fn multi_devices_log_add_and_remove() {
        let (mut rt, _s, _l) = runtime();
        let timer = rt.register_multi_device("timer_a");
        let a = rt.registry_mut().define_app("A");
        let b = rt.registry_mut().define_app("B");
        rt.multi_add(stamp(1, 0), timer, a).unwrap();
        rt.multi_add(stamp(2, 0), timer, b).unwrap();
        assert!(rt.multi_add(stamp(3, 0), timer, a).is_err());
        rt.multi_remove(stamp(4, 0), timer, a).unwrap();
        assert_eq!(rt.multi_get(timer), &[b]);
        let kinds: Vec<EntryKind> = held_log(&rt).iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EntryKind::MultiAdd,
                EntryKind::MultiAdd,
                EntryKind::MultiRemove
            ]
        );
    }

    #[test]
    fn overhead_cycles_accumulate_and_drain() {
        let (mut rt, _s, leds) = runtime();
        rt.set_power_state(stamp(1, 0), leds[0], 1);
        rt.set_power_state(stamp(2, 0), leds[1], 1);
        assert_eq!(rt.cost_stats().samples, 2);
        assert_eq!(rt.take_pending_overhead_cycles(), 204);
        assert_eq!(rt.take_pending_overhead_cycles(), 0);
        rt.set_power_state(stamp(3, 0), leds[2], 1);
        assert_eq!(rt.take_pending_overhead_cycles(), 102);
    }

    #[test]
    fn counters_mode_accumulates_time_and_energy() {
        let (cat, _cpu_sink, _leds) = blink_catalog();
        let mut rt = QuantoRuntime::new(
            NodeId(1),
            &cat,
            RuntimeConfig {
                mode: AccountingMode::Counters,
                ..RuntimeConfig::default()
            },
        );
        let cpu = rt.register_single_device("cpu");
        rt.set_cpu_device(cpu);
        let red = rt.registry_mut().define_app("Red");
        let idle = rt.registry().idle();

        // The first set establishes the baseline stamp for the CPU device.
        rt.activity_set(stamp(0, 0), cpu, red);
        // Red from 0 to 500 us, consuming 7 pulses.
        rt.activity_set(stamp(500, 7), cpu, idle);
        // Idle from 500 to 800 us, consuming 1 pulse.
        rt.activity_set(stamp(800, 8), cpu, red);

        let c = rt.counters();
        assert_eq!(c.time(cpu, red).as_micros(), 500);
        assert_eq!(c.time(cpu, idle).as_micros(), 300);
        assert_eq!(c.counts(red), 7);
        assert_eq!(c.counts(idle), 1);
        // Counters mode does not grow the log.
        assert!(rt.logger().is_empty());
        assert!(c.ram_bytes() > 0);
        assert_eq!(c.times().count(), 2);
        assert_eq!(c.all_counts().count(), 2);
    }

    #[test]
    fn listeners_observe_changes() {
        #[derive(Default)]
        struct Counter {
            events: Rc<RefCell<Vec<String>>>,
        }
        impl TrackListener for Counter {
            fn power_state_changed(&mut self, sink: SinkId, value: PowerStateValue) {
                self.events.borrow_mut().push(format!("pwr {sink} {value}"));
            }
            fn activity_changed(&mut self, dev: DeviceId, new: ActivityLabel) {
                self.events.borrow_mut().push(format!("act {dev} {new}"));
            }
        }

        let (mut rt, _s, leds) = runtime();
        let events = Rc::new(RefCell::new(Vec::new()));
        rt.add_listener(Box::new(Counter {
            events: events.clone(),
        }));
        let cpu = rt.register_single_device("cpu");
        let act = rt.registry_mut().define_app("X");
        rt.set_power_state(stamp(1, 0), leds[0], 1);
        rt.activity_set(stamp(2, 0), cpu, act);
        let seen = events.borrow();
        assert_eq!(seen.len(), 2);
        assert!(seen[0].starts_with("pwr"));
        assert!(seen[1].starts_with("act"));
    }
}
