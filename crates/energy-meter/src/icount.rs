//! The iCount switching-regulator energy meter.
//!
//! iCount observes that a pulse-frequency-modulated switching regulator emits
//! one pulse per (roughly) fixed quantum of delivered energy, so wiring the
//! regulator's switch node to a counter input turns the regulator into a free
//! energy meter.  On the HydroWatch platform at 3 V each pulse corresponds to
//! about 8.33 µJ and the paper measures `I_avg(mA) = 2.77 · f_iC(kHz) − 0.05`
//! with R² = 0.99995.
//!
//! The simulated meter reproduces the three externally-visible imperfections
//! that matter to Quanto:
//!
//! 1. **Quantization** — the counter only advances in whole pulses, so a read
//!    can under-report by up to one pulse of energy.
//! 2. **Gain error** — the true energy per pulse differs from the nominal
//!    value by a fixed, per-device factor (±15 % worst case in the paper).
//! 3. **Read cost** — reading the counter takes 24 CPU cycles.

use crate::meter::{EnergyMeter, MeterReading};
use hw_model::{Current, Energy, Voltage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of an [`ICountMeter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ICountConfig {
    /// Nominal energy per regulator pulse.  8.33 µJ at 3 V on HydroWatch.
    pub nominal_energy_per_pulse: Energy,
    /// Fixed relative gain error of this particular device, e.g. `0.03` means
    /// each pulse actually delivers 3 % more energy than nominal.  The paper
    /// bounds this at ±15 % over five orders of magnitude of current.
    pub gain_error: f64,
    /// CPU cycles consumed by one counter read (24 on the MSP430).
    pub read_cost_cycles: u32,
}

impl ICountConfig {
    /// The paper's HydroWatch configuration with a perfect gain.
    pub fn hydrowatch() -> Self {
        ICountConfig {
            nominal_energy_per_pulse: Energy::from_micro_joules(8.33),
            gain_error: 0.0,
            read_cost_cycles: 24,
        }
    }

    /// HydroWatch configuration with a device-specific gain error drawn
    /// uniformly from `[-max_error, +max_error]` using `seed`.
    pub fn hydrowatch_with_error(max_error: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let gain_error = if max_error == 0.0 {
            0.0
        } else {
            rng.gen_range(-max_error..=max_error)
        };
        ICountConfig {
            gain_error,
            ..ICountConfig::hydrowatch()
        }
    }

    /// The *true* energy per pulse for this device (nominal × (1 + gain)).
    pub fn true_energy_per_pulse(&self) -> Energy {
        self.nominal_energy_per_pulse * (1.0 + self.gain_error)
    }

    /// The switching frequency the regulator would exhibit at a given steady
    /// current draw and supply voltage: `f = I·V / E_pulse`.
    pub fn switching_frequency_hz(&self, current: Current, supply: Voltage) -> f64 {
        let power_uw = (current * supply).as_micro_watts();
        let pulse_uj = self.true_energy_per_pulse().as_micro_joules();
        power_uw / pulse_uj
    }
}

impl Default for ICountConfig {
    fn default() -> Self {
        ICountConfig::hydrowatch()
    }
}

/// The simulated iCount pulse counter.
#[derive(Debug, Clone)]
pub struct ICountMeter {
    config: ICountConfig,
}

impl ICountMeter {
    /// Creates a meter with the given configuration.
    pub fn new(config: ICountConfig) -> Self {
        assert!(
            config.nominal_energy_per_pulse.as_micro_joules() > 0.0,
            "energy per pulse must be positive"
        );
        assert!(
            config.gain_error > -1.0,
            "gain error must be greater than -100 %"
        );
        ICountMeter { config }
    }

    /// The meter's configuration.
    pub fn config(&self) -> &ICountConfig {
        &self.config
    }
}

impl Default for ICountMeter {
    fn default() -> Self {
        ICountMeter::new(ICountConfig::default())
    }
}

impl EnergyMeter for ICountMeter {
    /// Counts the whole pulses in `true_cumulative`, wrapping at `u32`.
    ///
    /// The pulse count is the quotient truncated by a saturating `as u64`,
    /// which equals `floor().max(0.0) as u64` for every `f64`: truncation
    /// is floor on non-negative values, negatives, −0.0 and NaN map to 0,
    /// and +∞ and anything from 2^64 up saturate to `u64::MAX`.  The cast
    /// compiles to a few inline instructions, where `floor` is a libm call
    /// on the x86-64 baseline (no SSE4.1 `roundsd`), and the kernel reads
    /// the meter on every log stamp.
    fn read(&mut self, true_cumulative: Energy) -> MeterReading {
        let per_pulse = self.config.true_energy_per_pulse().as_micro_joules();
        let pulses = (true_cumulative.as_micro_joules() / per_pulse) as u64;
        MeterReading {
            counter: (pulses % (u32::MAX as u64 + 1)) as u32,
            read_cost_cycles: self.config.read_cost_cycles,
        }
    }

    fn energy_per_count(&self) -> Energy {
        self.config.nominal_energy_per_pulse
    }

    fn read_cost_cycles(&self) -> u32 {
        self.config.read_cost_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulses_accumulate_with_energy() {
        let mut m = ICountMeter::default();
        assert_eq!(m.read(Energy::from_micro_joules(0.0)).counter, 0);
        assert_eq!(m.read(Energy::from_micro_joules(8.0)).counter, 0);
        assert_eq!(m.read(Energy::from_micro_joules(8.33)).counter, 1);
        assert_eq!(m.read(Energy::from_micro_joules(83.3)).counter, 10);
        let big = m.read(Energy::from_milli_joules(521.23)).counter;
        // 521.23 mJ / 8.33 uJ = 62572.6... pulses.
        assert_eq!(big, 62_572);
    }

    /// `read` as it was before the saturating cast: floor, clamp at zero,
    /// then cast.  The reference the truncating `read` must match.
    fn floor_read(meter: &ICountMeter, energy: Energy) -> u32 {
        let per_pulse = meter.config().true_energy_per_pulse().as_micro_joules();
        let pulses = (energy.as_micro_joules() / per_pulse).floor().max(0.0) as u64;
        (pulses % (u32::MAX as u64 + 1)) as u32
    }

    /// A meter whose true pulse is exactly 1 µJ, so a read's quotient is
    /// the energy itself and the edge values below reach the cast intact.
    fn unit_meter() -> ICountMeter {
        ICountMeter::new(ICountConfig {
            nominal_energy_per_pulse: Energy::from_micro_joules(1.0),
            gain_error: 0.0,
            read_cost_cycles: 24,
        })
    }

    fn meters() -> [ICountMeter; 3] {
        [
            unit_meter(),
            ICountMeter::default(),
            ICountMeter::new(ICountConfig::hydrowatch_with_error(0.15, 7)),
        ]
    }

    #[test]
    fn truncating_read_matches_floor_at_the_edges() {
        let two_53 = 2f64.powi(53);
        let two_64 = 2f64.powi(64);
        let edges = [
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            0.5,
            -0.5,
            1.0 - f64::EPSILON / 2.0,
            -1.0,
            2.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            u32::MAX as f64 + 0.5,
            two_64 - 2048.0,
            two_64,
            two_64 * 2.0,
            f64::MAX,
            f64::MIN,
        ];
        for mut meter in meters() {
            for uj in edges {
                let energy = Energy::from_micro_joules(uj);
                assert_eq!(
                    meter.read(energy).counter,
                    floor_read(&meter, energy),
                    "{uj:e} µJ on {:?}",
                    meter.config()
                );
            }
        }
    }

    proptest::proptest! {
        /// Over random `f64` bit patterns, which reach NaNs, infinities,
        /// subnormals and both signs, and over values next to whole
        /// numbers, the truncating read counts what floor-and-clamp counted.
        #[test]
        fn truncating_read_matches_floor_for_any_energy(
            bits in proptest::collection::vec(proptest::any::<u64>(), 64..128),
            near in proptest::collection::vec((0u64..1 << 40, 0u64..3), 64..128),
        ) {
            // The float just below, at, or just above a whole number.
            let near = near.into_iter().map(|(whole, step)| {
                f64::from_bits((whole as f64).to_bits().wrapping_add(step).wrapping_sub(1))
            });
            let energies = bits.into_iter().map(f64::from_bits).chain(near);
            let mut meters = meters();
            for uj in energies {
                let energy = Energy::from_micro_joules(uj);
                for meter in &mut meters {
                    proptest::prop_assert_eq!(
                        meter.read(energy).counter,
                        floor_read(meter, energy)
                    );
                }
            }
        }
    }

    #[test]
    fn read_reports_24_cycle_cost() {
        let mut m = ICountMeter::default();
        let r = m.read(Energy::from_micro_joules(100.0));
        assert_eq!(r.read_cost_cycles, 24);
        assert_eq!(m.read_cost_cycles(), 24);
    }

    #[test]
    fn gain_error_shifts_pulse_energy() {
        let cfg = ICountConfig {
            gain_error: 0.10,
            ..ICountConfig::hydrowatch()
        };
        let mut m = ICountMeter::new(cfg);
        // With +10 % gain error each pulse is really 9.163 uJ, so 91 uJ of
        // true energy is only 9 pulses.
        assert_eq!(m.read(Energy::from_micro_joules(91.0)).counter, 9);
        // The analysis side still converts with the nominal value.
        let nominal = m.counts_to_energy(9).as_micro_joules();
        assert!((nominal - 74.97).abs() < 1e-9);
    }

    #[test]
    fn device_error_is_bounded_and_deterministic() {
        let a = ICountConfig::hydrowatch_with_error(0.15, 42);
        let b = ICountConfig::hydrowatch_with_error(0.15, 42);
        assert_eq!(a, b);
        assert!(a.gain_error.abs() <= 0.15);
        let c = ICountConfig::hydrowatch_with_error(0.15, 43);
        assert_ne!(a.gain_error, c.gain_error);
        assert_eq!(ICountConfig::hydrowatch_with_error(0.0, 7).gain_error, 0.0);
    }

    #[test]
    fn switching_frequency_is_linear_in_current() {
        let cfg = ICountConfig::hydrowatch();
        let v = Voltage::from_volts(3.0);
        let f1 = cfg.switching_frequency_hz(Current::from_milli_amps(1.0), v);
        let f2 = cfg.switching_frequency_hz(Current::from_milli_amps(2.0), v);
        let f4 = cfg.switching_frequency_hz(Current::from_milli_amps(4.0), v);
        assert!((f2 / f1 - 2.0).abs() < 1e-9);
        assert!((f4 / f2 - 2.0).abs() < 1e-9);
        // 1 mA at 3 V = 3 mW = 3000 uW; 3000 / 8.33 = 360.1... pulses/s.
        assert!((f1 - 360.144).abs() < 0.01, "f1 = {f1}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_pulse_energy_rejected() {
        let _ = ICountMeter::new(ICountConfig {
            nominal_energy_per_pulse: Energy::ZERO,
            gain_error: 0.0,
            read_cost_cycles: 24,
        });
    }
}
