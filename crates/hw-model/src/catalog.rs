//! Platform catalogs: the inventory of energy sinks and their power states.
//!
//! The main entry point is [`hydrowatch`], which reconstructs the paper's
//! Table 1 — the HydroWatch platform's sinks and nominal current draws at 3 V
//! and a 1 MHz clock.

use crate::sink::{ComponentClass, EnergySink, PowerStateDef, StateIndex};
use crate::state_vector::KEY_CAPACITY;
use crate::units::Current;
use std::collections::HashMap;
use std::fmt;

/// Identifier of an energy sink within a [`Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SinkId(pub u16);

impl SinkId {
    /// Returns the raw index.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sink#{}", self.0)
    }
}

/// An immutable inventory of energy sinks.
///
/// The catalog additionally assigns a *column index* to every non-baseline
/// power state of every sink; these columns are the α variables of the
/// paper's regression (Equation 1).
#[derive(Debug, Clone)]
pub struct Catalog {
    sinks: Vec<EnergySink>,
    by_name: HashMap<String, SinkId>,
    /// column_of[sink][state] = Some(column) for non-baseline states.
    column_of: Vec<Vec<Option<usize>>>,
    /// (sink, state) for each column, in column order.
    column_defs: Vec<(SinkId, StateIndex)>,
}

impl Catalog {
    /// Number of sinks in the catalog.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Total number of power states across all sinks.
    pub fn total_state_count(&self) -> usize {
        self.sinks.iter().map(|s| s.state_count()).sum()
    }

    /// Number of regression columns (non-baseline states).
    pub fn column_count(&self) -> usize {
        self.column_defs.len()
    }

    /// Iterates over `(SinkId, &EnergySink)` pairs in id order.
    pub fn sinks(&self) -> impl Iterator<Item = (SinkId, &EnergySink)> {
        self.sinks
            .iter()
            .enumerate()
            .map(|(i, s)| (SinkId(i as u16), s))
    }

    /// Returns a sink by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid sink id for this catalog.
    pub fn sink(&self, id: SinkId) -> &EnergySink {
        &self.sinks[id.as_usize()]
    }

    /// Looks up a sink by name.
    pub fn sink_by_name(&self, name: &str) -> Option<SinkId> {
        self.by_name.get(name).copied()
    }

    /// Returns the regression column for a (sink, state) pair, or `None` if
    /// the state is the sink's baseline state.
    pub fn column(&self, sink: SinkId, state: StateIndex) -> Option<usize> {
        self.column_of
            .get(sink.as_usize())
            .and_then(|states| states.get(state.as_u8() as usize))
            .copied()
            .flatten()
    }

    /// Returns the (sink, state) pair that a regression column refers to.
    ///
    /// # Panics
    ///
    /// Panics if `column` is out of range.
    pub fn column_def(&self, column: usize) -> (SinkId, StateIndex) {
        self.column_defs[column]
    }

    /// Returns a human-readable label for a regression column, e.g.
    /// `"led0/ON"`.
    pub fn column_label(&self, column: usize) -> String {
        let (sink, state) = self.column_def(column);
        format!(
            "{}/{}",
            self.sink(sink).name,
            self.sink(sink).state(state).name
        )
    }

    /// Labels for all regression columns, in column order.
    pub fn column_labels(&self) -> Vec<String> {
        (0..self.column_count())
            .map(|c| self.column_label(c))
            .collect()
    }

    /// Nominal current draw of a (sink, state) pair.
    pub fn nominal_current(&self, sink: SinkId, state: StateIndex) -> Current {
        self.sink(sink).nominal_current(state)
    }
}

/// Builder for a [`Catalog`].
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    sinks: Vec<EnergySink>,
}

impl CatalogBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CatalogBuilder::default()
    }

    /// Adds a sink and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a sink with the same name was already added, or if the
    /// catalog already holds [`KEY_CAPACITY`] sinks (a [`StateVectorKey`]
    /// keeps one byte per sink).
    ///
    /// [`StateVectorKey`]: crate::StateVectorKey
    pub fn add(&mut self, sink: EnergySink) -> SinkId {
        assert!(
            !self.sinks.iter().any(|s| s.name == sink.name),
            "duplicate sink name: {}",
            sink.name
        );
        assert!(
            self.sinks.len() < KEY_CAPACITY,
            "too many sinks: a state-vector key holds at most {KEY_CAPACITY}, cannot add {}",
            sink.name
        );
        let id = SinkId(self.sinks.len() as u16);
        self.sinks.push(sink);
        id
    }

    /// Finalizes the catalog, assigning regression columns.
    pub fn build(self) -> Catalog {
        let mut by_name = HashMap::new();
        let mut column_of = Vec::with_capacity(self.sinks.len());
        let mut column_defs = Vec::new();
        for (i, sink) in self.sinks.iter().enumerate() {
            by_name.insert(sink.name.clone(), SinkId(i as u16));
            let mut cols = vec![None; sink.state_count()];
            for (j, col) in cols.iter_mut().enumerate() {
                if StateIndex(j as u8) != sink.baseline_state {
                    *col = Some(column_defs.len());
                    column_defs.push((SinkId(i as u16), StateIndex(j as u8)));
                }
            }
            column_of.push(cols);
        }
        Catalog {
            sinks: self.sinks,
            by_name,
            column_of,
            column_defs,
        }
    }
}

/// Well-known sink ids of the HydroWatch platform catalog built by
/// [`hydrowatch`].
///
/// Holding ids (rather than looking names up repeatedly) keeps the hot
/// instrumentation path cheap, mirroring how the real system wires each
/// driver to its own `PowerState` component at compile time.
#[derive(Debug, Clone, Copy)]
pub struct HydrowatchIds {
    /// MSP430 CPU core (ACTIVE / LPM0..LPM4).
    pub cpu: SinkId,
    /// MSP430 internal voltage reference.
    pub vref: SinkId,
    /// MSP430 ADC.
    pub adc: SinkId,
    /// MSP430 DAC.
    pub dac: SinkId,
    /// MSP430 internal flash (program/erase).
    pub internal_flash: SinkId,
    /// MSP430 internal temperature sensor.
    pub temp_sensor: SinkId,
    /// MSP430 analog comparator.
    pub comparator: SinkId,
    /// MSP430 supply supervisor.
    pub supervisor: SinkId,
    /// CC2420 voltage regulator.
    pub radio_regulator: SinkId,
    /// CC2420 battery monitor.
    pub radio_battery_monitor: SinkId,
    /// CC2420 control path (oscillator / idle).
    pub radio_control: SinkId,
    /// CC2420 receive data path.
    pub radio_rx: SinkId,
    /// CC2420 transmit data path.
    pub radio_tx: SinkId,
    /// External AT45DB NOR flash.
    pub ext_flash: SinkId,
    /// Red LED.
    pub led0: SinkId,
    /// Green LED.
    pub led1: SinkId,
    /// Blue LED.
    pub led2: SinkId,
}

/// CPU power state indices for the HydroWatch catalog.
pub mod cpu_state {
    use crate::sink::StateIndex;
    /// Lowest-power mode; the catalog baseline for the CPU.
    pub const LPM4: StateIndex = StateIndex(0);
    /// Low-power mode 3 (the usual TinyOS sleep state).
    pub const LPM3: StateIndex = StateIndex(1);
    /// Low-power mode 2.
    pub const LPM2: StateIndex = StateIndex(2);
    /// Low-power mode 1.
    pub const LPM1: StateIndex = StateIndex(3);
    /// Low-power mode 0.
    pub const LPM0: StateIndex = StateIndex(4);
    /// Fully active.
    pub const ACTIVE: StateIndex = StateIndex(5);
}

/// Radio RX path state indices for the HydroWatch catalog.
pub mod radio_rx_state {
    use crate::sink::StateIndex;
    /// Receiver off.
    pub const OFF: StateIndex = StateIndex(0);
    /// Receiver listening (RX / LISTEN in Table 1).
    pub const LISTEN: StateIndex = StateIndex(1);
}

/// Radio TX path state indices for the HydroWatch catalog.
///
/// The CC2420 has eight programmable output power levels; Table 1 lists all
/// of them.  Index 0 is "off", indices 1..=8 are increasing output power.
pub mod radio_tx_state {
    use crate::sink::StateIndex;
    /// Transmitter off.
    pub const OFF: StateIndex = StateIndex(0);
    /// -25 dBm output power.
    pub const TX_M25DBM: StateIndex = StateIndex(1);
    /// -15 dBm output power.
    pub const TX_M15DBM: StateIndex = StateIndex(2);
    /// -10 dBm output power.
    pub const TX_M10DBM: StateIndex = StateIndex(3);
    /// -7 dBm output power.
    pub const TX_M7DBM: StateIndex = StateIndex(4);
    /// -5 dBm output power.
    pub const TX_M5DBM: StateIndex = StateIndex(5);
    /// -3 dBm output power.
    pub const TX_M3DBM: StateIndex = StateIndex(6);
    /// -1 dBm output power.
    pub const TX_M1DBM: StateIndex = StateIndex(7);
    /// 0 dBm output power (the default).
    pub const TX_0DBM: StateIndex = StateIndex(8);
}

/// Radio control path state indices.
pub mod radio_control_state {
    use crate::sink::StateIndex;
    /// Control path off.
    pub const OFF: StateIndex = StateIndex(0);
    /// Oscillator running, radio idle.
    pub const IDLE: StateIndex = StateIndex(1);
}

/// Radio voltage regulator state indices.
pub mod radio_regulator_state {
    use crate::sink::StateIndex;
    /// Regulator off.
    pub const OFF: StateIndex = StateIndex(0);
    /// Regulator on.
    pub const ON: StateIndex = StateIndex(1);
    /// Chip powered down but regulator energized.
    pub const POWER_DOWN: StateIndex = StateIndex(2);
}

/// External flash state indices.
pub mod flash_state {
    use crate::sink::StateIndex;
    /// Deep power-down.
    pub const POWER_DOWN: StateIndex = StateIndex(0);
    /// Standby.
    pub const STANDBY: StateIndex = StateIndex(1);
    /// Read in progress.
    pub const READ: StateIndex = StateIndex(2);
    /// Write in progress.
    pub const WRITE: StateIndex = StateIndex(3);
    /// Erase in progress.
    pub const ERASE: StateIndex = StateIndex(4);
}

/// LED state indices.
pub mod led_state {
    use crate::sink::StateIndex;
    /// LED off.
    pub const OFF: StateIndex = StateIndex(0);
    /// LED on.
    pub const ON: StateIndex = StateIndex(1);
}

/// Builds the HydroWatch platform catalog: the paper's Table 1.
///
/// Returns the catalog together with the well-known sink ids.
pub fn hydrowatch() -> (Catalog, HydrowatchIds) {
    let ua = Current::from_micro_amps;
    let ma = Current::from_milli_amps;
    let mut b = CatalogBuilder::new();

    // Microcontroller sinks.
    let cpu = b.add(
        EnergySink::new(
            "mcu.cpu",
            ComponentClass::Mcu,
            vec![
                PowerStateDef::new("LPM4", ua(0.2)),
                PowerStateDef::new("LPM3", ua(2.6)),
                PowerStateDef::new("LPM2", ua(17.0)),
                PowerStateDef::new("LPM1", ua(75.0)),
                PowerStateDef::new("LPM0", ua(75.0)),
                PowerStateDef::new("ACTIVE", ua(500.0)),
            ],
        )
        // TinyOS idles the MSP430 in LPM3; treat LPM3 as both the boot state
        // and the baseline that the regression constant absorbs.
        .with_default(cpu_state::LPM3)
        .with_baseline(cpu_state::LPM3),
    );
    let vref = b.add(EnergySink::new(
        "mcu.vref",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ua(500.0)),
        ],
    ));
    let adc = b.add(EnergySink::new(
        "mcu.adc",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("CONVERTING", ua(800.0)),
        ],
    ));
    let dac = b.add(EnergySink::new(
        "mcu.dac",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("CONVERTING-2", ua(50.0)),
            PowerStateDef::new("CONVERTING-5", ua(200.0)),
            PowerStateDef::new("CONVERTING-7", ua(700.0)),
        ],
    ));
    let internal_flash = b.add(EnergySink::new(
        "mcu.flash",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("IDLE", Current::ZERO),
            PowerStateDef::new("PROGRAM", ma(3.0)),
            PowerStateDef::new("ERASE", ma(3.0)),
        ],
    ));
    let temp_sensor = b.add(EnergySink::new(
        "mcu.temp",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("SAMPLE", ua(60.0)),
        ],
    ));
    let comparator = b.add(EnergySink::new(
        "mcu.comparator",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("COMPARE", ua(45.0)),
        ],
    ));
    let supervisor = b.add(EnergySink::new(
        "mcu.supervisor",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ua(15.0)),
        ],
    ));

    // Radio sinks.
    let radio_regulator = b.add(EnergySink::new(
        "radio.regulator",
        ComponentClass::Radio,
        vec![
            PowerStateDef::new("OFF", ua(1.0)),
            PowerStateDef::new("ON", ua(22.0)),
            PowerStateDef::new("POWER_DOWN", ua(20.0)),
        ],
    ));
    let radio_battery_monitor = b.add(EnergySink::new(
        "radio.battmon",
        ComponentClass::Radio,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ENABLED", ua(30.0)),
        ],
    ));
    let radio_control = b.add(EnergySink::new(
        "radio.control",
        ComponentClass::Radio,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("IDLE", ua(426.0)),
        ],
    ));
    let radio_rx = b.add(EnergySink::new(
        "radio.rx",
        ComponentClass::Radio,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("LISTEN", ma(19.7)),
        ],
    ));
    let radio_tx = b.add(EnergySink::new(
        "radio.tx",
        ComponentClass::Radio,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("TX(-25dBm)", ma(8.5)),
            PowerStateDef::new("TX(-15dBm)", ma(9.9)),
            PowerStateDef::new("TX(-10dBm)", ma(11.2)),
            PowerStateDef::new("TX(-7dBm)", ma(12.5)),
            PowerStateDef::new("TX(-5dBm)", ma(13.9)),
            PowerStateDef::new("TX(-3dBm)", ma(15.2)),
            PowerStateDef::new("TX(-1dBm)", ma(16.5)),
            PowerStateDef::new("TX(+0dBm)", ma(17.4)),
        ],
    ));

    // External flash.
    let ext_flash = b.add(
        EnergySink::new(
            "flash.at45db",
            ComponentClass::Flash,
            vec![
                PowerStateDef::new("POWER_DOWN", ua(9.0)),
                PowerStateDef::new("STANDBY", ua(25.0)),
                PowerStateDef::new("READ", ma(7.0)),
                PowerStateDef::new("WRITE", ma(12.0)),
                PowerStateDef::new("ERASE", ma(12.0)),
            ],
        )
        .with_default(flash_state::POWER_DOWN)
        .with_baseline(flash_state::POWER_DOWN),
    );

    // LEDs (red, green, blue).
    let led0 = b.add(EnergySink::new(
        "led0.red",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(4.3)),
        ],
    ));
    let led1 = b.add(EnergySink::new(
        "led1.green",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(3.7)),
        ],
    ));
    let led2 = b.add(EnergySink::new(
        "led2.blue",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(1.7)),
        ],
    ));

    let catalog = b.build();
    let ids = HydrowatchIds {
        cpu,
        vref,
        adc,
        dac,
        internal_flash,
        temp_sensor,
        comparator,
        supervisor,
        radio_regulator,
        radio_battery_monitor,
        radio_control,
        radio_rx,
        radio_tx,
        ext_flash,
        led0,
        led1,
        led2,
    };
    (catalog, ids)
}

/// Builds a minimal catalog with a two-state CPU and three LEDs.
///
/// This is the reduced model the paper uses for the Blink calibration
/// (Section 4.1): the CPU is either active or idle, and each LED is on or
/// off.  Returns `(catalog, cpu, [led0, led1, led2])`.
pub fn blink_catalog() -> (Catalog, SinkId, [SinkId; 3]) {
    let ma = Current::from_milli_amps;
    let ua = Current::from_micro_amps;
    let mut b = CatalogBuilder::new();
    let cpu = b.add(EnergySink::new(
        "cpu",
        ComponentClass::Mcu,
        vec![
            PowerStateDef::new("IDLE", ua(2.6)),
            PowerStateDef::new("ACTIVE", ua(500.0)),
        ],
    ));
    let led0 = b.add(EnergySink::new(
        "led0.red",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(2.5)),
        ],
    ));
    let led1 = b.add(EnergySink::new(
        "led1.green",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(2.23)),
        ],
    ));
    let led2 = b.add(EnergySink::new(
        "led2.blue",
        ComponentClass::Led,
        vec![
            PowerStateDef::new("OFF", Current::ZERO),
            PowerStateDef::new("ON", ma(0.83)),
        ],
    ));
    (b.build(), cpu, [led0, led1, led2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hydrowatch_matches_table_1() {
        let (cat, ids) = hydrowatch();
        // 17 sinks: 8 MCU, 5 radio, 1 flash, 3 LEDs.
        assert_eq!(cat.sink_count(), 17);

        // Spot-check nominal currents against Table 1.
        assert_eq!(
            cat.nominal_current(ids.cpu, cpu_state::ACTIVE)
                .as_micro_amps(),
            500.0
        );
        assert_eq!(
            cat.nominal_current(ids.cpu, cpu_state::LPM3)
                .as_micro_amps(),
            2.6
        );
        assert_eq!(
            cat.nominal_current(ids.radio_rx, radio_rx_state::LISTEN)
                .as_milli_amps(),
            19.7
        );
        assert_eq!(
            cat.nominal_current(ids.radio_tx, radio_tx_state::TX_0DBM)
                .as_milli_amps(),
            17.4
        );
        assert_eq!(
            cat.nominal_current(ids.radio_tx, radio_tx_state::TX_M25DBM)
                .as_milli_amps(),
            8.5
        );
        assert_eq!(
            cat.nominal_current(ids.led0, led_state::ON).as_milli_amps(),
            4.3
        );
        assert_eq!(
            cat.nominal_current(ids.led1, led_state::ON).as_milli_amps(),
            3.7
        );
        assert_eq!(
            cat.nominal_current(ids.led2, led_state::ON).as_milli_amps(),
            1.7
        );
        assert_eq!(
            cat.nominal_current(ids.ext_flash, flash_state::WRITE)
                .as_milli_amps(),
            12.0
        );
    }

    #[test]
    fn hydrowatch_state_counts_match_paper() {
        let (cat, ids) = hydrowatch();
        // The paper: the microcontroller's eight energy sinks have sixteen
        // power states (counting only the states listed in Table 1 and one
        // implicit off state where needed we model a superset; check the CPU
        // and DAC explicitly).
        assert_eq!(cat.sink(ids.cpu).state_count(), 6);
        assert_eq!(cat.sink(ids.dac).state_count(), 4);
        // The radio's five sinks have fourteen power states in the paper; we
        // model off states explicitly so the TX sink alone has 9.
        assert_eq!(cat.sink(ids.radio_tx).state_count(), 9);
        assert_eq!(cat.sink(ids.radio_rx).state_count(), 2);
    }

    #[test]
    fn columns_skip_baseline_states() {
        let (cat, ids) = hydrowatch();
        // The CPU baseline (LPM3) has no column.
        assert_eq!(cat.column(ids.cpu, cpu_state::LPM3), None);
        assert!(cat.column(ids.cpu, cpu_state::ACTIVE).is_some());
        // Every column def round-trips.
        for c in 0..cat.column_count() {
            let (sink, state) = cat.column_def(c);
            assert_eq!(cat.column(sink, state), Some(c));
        }
        // Column labels are unique.
        let labels = cat.column_labels();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn lookup_by_name() {
        let (cat, ids) = hydrowatch();
        assert_eq!(cat.sink_by_name("mcu.cpu"), Some(ids.cpu));
        assert_eq!(cat.sink_by_name("led2.blue"), Some(ids.led2));
        assert_eq!(cat.sink_by_name("nonexistent"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate sink name")]
    fn duplicate_names_rejected() {
        let mut b = CatalogBuilder::new();
        b.add(EnergySink::new(
            "x",
            ComponentClass::Other,
            vec![PowerStateDef::new("OFF", Current::ZERO)],
        ));
        b.add(EnergySink::new(
            "x",
            ComponentClass::Other,
            vec![PowerStateDef::new("OFF", Current::ZERO)],
        ));
    }

    #[test]
    #[should_panic(expected = "too many sinks")]
    fn sinks_beyond_the_key_capacity_are_rejected() {
        let mut b = CatalogBuilder::new();
        for i in 0..=KEY_CAPACITY {
            b.add(EnergySink::new(
                format!("s{i}"),
                ComponentClass::Other,
                vec![PowerStateDef::new("OFF", Current::ZERO)],
            ));
        }
    }

    #[test]
    fn blink_catalog_shape() {
        let (cat, cpu, leds) = blink_catalog();
        assert_eq!(cat.sink_count(), 4);
        assert_eq!(cat.sink(cpu).state_count(), 2);
        // 4 sinks, each with one non-baseline state => 4 columns.
        assert_eq!(cat.column_count(), 4);
        for led in leds {
            assert_eq!(cat.sink(led).state_count(), 2);
        }
    }
}
